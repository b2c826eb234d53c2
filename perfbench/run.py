"""loopflow benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload meshed --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from anywhere inside a source tree: the library is imported from the
tree's `src` directory and nowhere else.  Load model: one client in a
closed loop, one operation at a time, in this one process.  An operation
takes an already parsed network and runs one solve (plus, on the fixtures,
pressure propagation and trace formatting, as the CLI does) or one sizing.
A batch is the workload's fixed list of operations; a run is an untimed
warm-up (one operation of each kind) and then the workload's fixed number
of timed batches, sized so that a run takes about `--seconds` at the
commit that added the benchmark.  The count does not follow the clock, so
every run and every commit times the same operations.

With `--trace 0` the last output line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run; `--workload all` runs
every workload both ways in child processes and prints one table with the
tracing overhead.  `--record-reference` stores the results of this source
tree, for the seeds in REFERENCE_SEEDS, as the reference later runs are
checked against.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checker
import networks
import workloads
from tracer import MissingFunction, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json.gz"
# The first converged of these gives a network's reference flows.
REFERENCE_ORDER = ("node-loop", "hardy-cross-improved", "hardy-cross", "size")
# Seeds with recorded reference results (the fixtures have one for every seed).
REFERENCE_SEEDS = range(20)

SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 120
SOURCE_PRESSURE_PA = 4e5          # the CLI's default --source-pressure-pa
TAIL_SAMPLES = 10                 # samples beyond the reported tail percentile
# The tail is read per block of consecutive timed batches with about this
# many operations, and the median over blocks reported: over all 4800
# fixture operations at once the 11th slowest is often a machine hiccup.
TAIL_BLOCK_OPS = 1200
CONVERGED = "converged"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "peak_rss_mb": "MB"}
OP_SCOPES = ("solve", "size")
LAYERS = ("fileio", "model", "topology", "fluids", "kernels", "solvers",
          "numerics", "sizing")

# Reads the setup cost in a fresh interpreter: first import plus parsing of
# every input file.
PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loopflow
from loopflow import fileio
for path in sys.argv[2:]:
    if path.endswith(".csv"):
        fileio.read_flows_csv(path)
    else:
        fileio.parse_network(path)
print(time.perf_counter() - start, loopflow.__file__)
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Input:
    net: object                  # loopflow Network
    raw: dict                    # the same network as plain JSON data
    fixed_flows: object | None   # loopflow FlowState for sizing


@dataclass(slots=True)
class Outcome:
    item: str
    op: str
    seconds: float
    termination: str
    values: dict | None          # flows (m³/s) or diameters (m) per pipe id
    passes: int
    problems: list[str]

    @property
    def ok(self) -> bool:
        return self.termination == CONVERGED and not self.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference results for the seeds "
                             f"{REFERENCE_SEEDS.start}-{REFERENCE_SEEDS.stop - 1} "
                             "instead of measuring")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "loopflow" / "__init__.py").is_file():
            raise BenchmarkError(f"no loopflow sources under {SRC}")
        if args.record_reference:
            record_reference()
        elif args.workload == "all":
            run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result))
    except (BenchmarkError, MissingFunction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    with scratch_dir(f"{workload}-{seed}") as workdir:
        batch = workloads.build(workload, seed, workdir, SRC / "loopflow" / "data")
        items = {item.name: item for item, _ in batch}
        files = [f for item in items.values() for f in item.input_files]
        probe = None if trace else functools.partial(measure_setup, files)

        lf = import_library()
        print(f"perfbench {workload} seed={seed} seconds={seconds:g} "
              f"trace={int(trace)}")
        print("environment " + json.dumps(environment(lf)))
        tracer = Tracer() if trace else None
        with tracer or contextlib.nullcontext():
            inputs = {name: load_input(lf, item) for name, item in items.items()}
            setup_snapshot = tracer.take() if tracer else None
            reference = load_reference(workload, seed, inputs)
            print("reference: " + ("recorded for this seed" if reference else
                                   f"seed {seed} is outside the recorded seeds "
                                   f"{REFERENCE_SEEDS.start}-{REFERENCE_SEEDS.stop - 1}; "
                                   "balance and agreement checks only"))
            start = time.perf_counter()
            batches, snapshots, setup_times = run_batches(
                lf, batch, inputs, reference, workloads.TIMED_BATCHES[workload],
                tracer, probe)
            elapsed = time.perf_counter() - start

    timed = [o for b in batches[1:] for o in b]
    correct = all(not o.problems for b in batches for o in b)
    failed = [o for o in timed if not o.ok]
    describe_failures(batches[1:])
    print(f"ops: {len(timed)} in {len(batches) - 1} timed batches, "
          f"{len(failed)} failed, checks {'passed' if correct else 'FAILED'}; "
          f"{elapsed:.1f} s run for a budget of {seconds:g} s")
    if trace:
        metrics = layer_metrics(setup_snapshot, snapshots[1:], batches[1:])
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, tail_pct, tail_ops, blocks = end_to_end_metrics(
            statistics.median(setup_times), batches[1:])
        units = END_TO_END_UNITS
        print(f"op_ms_tail is p{tail_pct:.2f} of {tail_ops:g} successful ops, "
              f"median over {blocks} block(s); "
              f"fail_ratio {len(failed) / len(timed):.4f}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {units[name]}")
    return {"correct": correct, "attempted": len(timed), "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory for generated inputs, removed afterwards."""
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


def measure_setup(files: list[Path]) -> float:
    """First import plus parsing of every input, in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", PROBE, str(SRC), *map(str, files)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    except subprocess.CalledProcessError as exc:
        raise BenchmarkError(f"setup probe failed:\n{exc.stderr}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("setup probe timed out") from exc
    elapsed, module_file = proc.stdout.split()
    check_source(Path(module_file))
    return float(elapsed)


def import_library():
    sys.path.insert(0, str(SRC))
    import loopflow
    check_source(Path(loopflow.__file__))
    return loopflow


def check_source(module_file: Path) -> None:
    if not module_file.resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"loopflow was imported from {module_file}, "
                             f"not from {SRC}")


def load_input(lf, item: workloads.Item) -> Input:
    net = lf.fileio.parse_network(item.path)
    if item.flows_path is not None:
        flows_m3h = lf.fileio.read_flows_csv(item.flows_path)
    else:
        flows_m3h = net.initial_flows_m3h
    fixed = (lf.FlowState({pid: q / 3600.0 for pid, q in flows_m3h.items()})
             if flows_m3h is not None else None)
    raw = json.loads(item.path.read_text(encoding="utf-8"))
    return Input(net, raw, fixed)


def run_batches(lf, batch, inputs, reference, timed_batches, tracer, probe):
    """An untimed warm-up, then `timed_batches` timed batches.

    The warm-up runs the first operation of each kind in the batch, enough
    to load everything lazily loaded.  After each timed batch `probe` (if
    given) measures the setup cost as often as needed to spread its
    SETUP_REPEATS readings evenly over the run, so that their median sees
    the same machine as the batches.
    """
    warm_up = list({op: (item, op) for item, op in reversed(batch)}.values())
    batches, snapshots, setup_times = [], [], []
    for done, ops in enumerate([warm_up] + [batch] * timed_batches):
        outcomes = run_batch(lf, ops, inputs, tracer)
        if tracer:
            snapshots.append(tracer.take())
        check_batch(outcomes, inputs, reference)
        for o in outcomes:
            o.values = None    # checked; keeping them would grow peak RSS with run length
        batches.append(outcomes)
        while probe and len(setup_times) < round(SETUP_REPEATS * done / timed_batches):
            setup_times.append(probe())
    return batches, snapshots, setup_times


def run_batch(lf, batch, inputs, tracer) -> list[Outcome]:
    outcomes = []
    for item, op in batch:
        data = inputs[item.name]
        if tracer:
            tracer.scope = "size" if op == workloads.SIZE else "solve"
        start = time.perf_counter()
        try:
            if op == workloads.SIZE:
                termination, values, passes = size(lf, data)
            else:
                termination, values, passes = solve(lf, data, op, item.report)
        except Exception as exc:  # a raising operation is a failed one
            termination = f"raising {type(exc).__name__}: {exc}"
            values, passes = None, 0
        outcomes.append(Outcome(item.name, op, time.perf_counter() - start,
                                termination, values, passes, []))
    return outcomes


def solve(lf, data: Input, method: str, report_extras: bool):
    report = lf.solve(data.net, lf.SolverConfig(method=method))
    if report_extras:
        source = min(data.net.nodes, key=lambda n: (n.demand_m3h, str(n.id))).id
        lf.propagate_pressures(data.net, report.final_flows, source,
                               SOURCE_PRESSURE_PA)
        lf.fileio.format_trace(report, data.net)
    return report.termination, report.final_flows.flows, report.iteration_count


def size(lf, data: Input):
    basis = lf.solvers.select_basis(data.net)
    report = lf.optimize_diameters(data.net, basis,
                                   lf.SizingConfig(fixed_flows=data.fixed_flows))
    return report.termination, report.diameters, report.iteration_count


def check_batch(outcomes: list[Outcome], inputs: dict, reference: dict) -> None:
    """Record every check a converged outcome fails in its `problems`."""
    solved: dict[str, dict[str, Outcome]] = {}
    for o in outcomes:
        if o.termination != CONVERGED:
            continue
        raw = inputs[o.item].raw
        expected = reference.get(o.item, {})
        if o.op == workloads.SIZE:
            o.problems += checker.check_diameters(raw, o.values,
                                                  expected.get("diameters_m"))
        else:
            o.problems += checker.check_flows(raw, o.values,
                                              expected.get("flows_m3h"))
            solved.setdefault(o.item, {})[o.op] = o
    for by_method in solved.values():
        a = by_method.get(workloads.NODE_LOOP)
        b = by_method.get(workloads.HARDY_CROSS_IMPROVED)
        if a and b:
            diff = checker.max_flow_difference_m3h(a.values, b.values)
            if not diff <= checker.FLOW_TOL_M3H:
                for o in (a, b):
                    o.problems.append(f"node-loop and improved Hardy Cross "
                                      f"differ by {diff:.3e} m3/h")


def describe_failures(batches: list[list[Outcome]]) -> None:
    """One line per distinct failing operation of the first timed batch."""
    for o in batches[0]:
        if not o.ok:
            detail = "; ".join(o.problems) or f"ended {o.termination}"
            print(f"failed: {o.item} {o.op} after {o.passes} passes: {detail}")


def end_to_end_metrics(setup_s: float, batches: list[list[Outcome]]):
    latencies = [o.seconds * 1e3 for b in batches for o in b if o.ok]
    if not latencies:
        raise BenchmarkError("no operation succeeded, so no latency to report")
    per_block = max(1, TAIL_BLOCK_OPS // len(batches[0]))
    blocks = [sorted(o.seconds * 1e3 for b in batches[i:i + per_block]
                     for o in b if o.ok)
              for i in range(0, len(batches), per_block)]
    tails = [tail(block) for block in blocks if block]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(o.seconds for o in b) for b in batches),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": statistics.median(value for value, _, _ in tails),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return (metrics, statistics.median(pct for _, pct, _ in tails),
            statistics.median(n for _, _, n in tails), len(tails))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_SAMPLES samples beyond
    it, that percentile, and the sample count."""
    index = max(len(latencies) - TAIL_SAMPLES - 1, 0)
    return latencies[index], 100.0 * (index + 1) / len(latencies), len(latencies)


def layer_metrics(setup: dict, snapshots: list[dict],
                  batches: list[list[Outcome]]) -> dict:
    """Per-layer metrics of the traced run; medians over the timed batches.

    `.s` is the inclusive time of one function per batch, `<layer>.self.s`
    the time spent in the layer's own code.  Counts repeat exactly from
    batch to batch.
    """
    per_batch = [batch_layer_metrics(snap, outcomes)
                 for snap, outcomes in zip(snapshots, batches)]
    metrics = {"fileio.parse_network.s":
               stat_sum(setup, "fileio.parse_network", "total", ("setup",))}
    for name in per_batch[0]:
        metrics[name] = statistics.median(m[name] for m in per_batch)
    return metrics


def batch_layer_metrics(snap: dict, outcomes: list[Outcome]) -> dict:
    def total(name, scopes=OP_SCOPES):
        return stat_sum(snap, name, "total", scopes)

    def calls(name, scopes=OP_SCOPES):
        return stat_sum(snap, name, "calls", scopes)

    m = {
        "traced_wall_s": sum(o.seconds for o in outcomes),
        "fail_ratio": sum(not o.ok for o in outcomes) / len(outcomes),
        "numerics.solve_linear.s": total("numerics.solve_linear"),
        "numerics.solve_linear.calls": calls("numerics.solve_linear"),
        "numerics.solve_linear.n_max": snap["linear_n_max"],
        "numerics.lu_flops_computed": snap["linear_flops"],
        "fluids.evaluate.s": total("fluids.evaluate"),
        "fluids.evaluate.calls": calls("fluids.evaluate"),
        "kernels.colebrook_friction_factor.calls":
            calls("kernels.colebrook_friction_factor"),
        "fluids.sizing_eval.s": (total("fluids.drop_at_diameter", ("size",))
                                 + total("fluids.ddrop_ddiam", ("size",))),
        "fluids.sizing_eval.calls": (calls("fluids.drop_at_diameter", ("size",))
                                     + calls("fluids.ddrop_ddiam", ("size",))),
    }
    for name in ("model.feasible_initial_flows", "model.spanning_tree",
                 "topology.derive_loop_basis", "topology.build_node_matrix",
                 "topology.adopt_explicit_loops", "topology.exact_rank",
                 "solvers.evaluate_loops", "solvers.assemble_node_loop_system",
                 "solvers.propagate_pressures", "fileio.format_trace"):
        m[f"{name}.s"] = total(name)
    for layer in LAYERS:
        m[f"{layer}.self.s"] = stat_sum(snap, layer + ".", "self_time",
                                        OP_SCOPES, prefix=True)
        m[f"{layer}.calls"] = stat_sum(snap, layer + ".", "calls", OP_SCOPES,
                                       prefix=True)
    for method in workloads.METHODS:
        m[f"solvers.passes.{method}"] = sum(o.passes for o in outcomes
                                            if o.op == method)
    m["sizing.passes"] = sum(o.passes for o in outcomes
                             if o.op == workloads.SIZE)
    derivative_calls = calls("fluids.ddrop_ddiam", ("size",))
    m["sizing.evals_per_pass"] = (calls("fluids.drop_at_diameter", ("size",))
                                  / derivative_calls if derivative_calls else 0.0)
    m["model.validate.calls_per_op"] = calls("model.validate") / len(outcomes)
    return m


def stat_sum(snap: dict, name: str, field: str, scopes, prefix=False) -> float:
    return sum(getattr(stat, field) for (scope, fn), stat in snap["stats"].items()
               if scope in scopes and (fn.startswith(name) if prefix else fn == name))


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "numerics.lu_flops_computed":
        return "flop"
    if name in ("fail_ratio", "sizing.evals_per_pass"):
        return "ratio"
    if name.endswith("calls_per_op"):
        return "calls/op"
    return "count"


def environment(lf) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"),
            "loopflow_backend": getattr(lf, "BACKEND", "none"),
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def git_sha() -> str:
    """HEAD commit of the source tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference(workload: str, seed: int, inputs: dict) -> dict:
    """Recorded results for this input set, expanded to one value per pipe
    in file order: {item: {"flows_m3h": [...], "diameters_m": [...]}}.

    Empty for a seed outside REFERENCE_SEEDS; a missing reference for a seed
    inside them is an error.
    """
    if workload != "fixtures" and seed not in REFERENCE_SEEDS:
        return {}
    key = reference_key(workload, seed)
    try:
        recorded = json.loads(gzip.decompress(REFERENCE.read_bytes()))
        entries = recorded[workload][key]
    except (OSError, KeyError) as exc:
        raise BenchmarkError(f"{REFERENCE.name} holds no {workload} results "
                             f"for seed {key}; record them with "
                             "--record-reference") from exc
    expanded = {}
    for name, entry in entries.items():
        raw = inputs[name].raw
        values = expanded[name] = {}
        if "links_m3h" in entry:
            links = networks.link_pipes(raw)
            flows = networks.complete_flows(raw, dict(zip(links, entry["links_m3h"])))
            values["flows_m3h"] = [flows[p["id"]] for p in raw["pipes"]]
        if "sized_m" in entry:
            sized = dict(entry["sized_m"])
            values["diameters_m"] = [sized.get(p["id"], p["diameter_m"])
                                     for p in raw["pipes"]]
    return expanded


def reference_key(workload: str, seed: int) -> str:
    return "*" if workload == "fixtures" else str(seed)


def record_reference() -> None:
    """Run each workload's batch once per seed and store its converged
    results: per network the flows of the first converged method in
    node-loop, improved, original order, and the sized diameters.

    Flows are stored on the pipes outside the spanning tree of
    `networks.link_pipes` only, since node balance fixes all others;
    diameters only where sizing changed them.
    """
    lf = import_library()
    recorded: dict = {}
    for workload in workloads.NAMES:
        seeds = REFERENCE_SEEDS[:1] if workload == "fixtures" else REFERENCE_SEEDS
        for seed in seeds:
            with scratch_dir(f"record-{workload}-{seed}") as workdir:
                batch = workloads.build(workload, seed, workdir,
                                        SRC / "loopflow" / "data")
                inputs = {item.name: load_input(lf, item) for item, _ in batch}
                outcomes = run_batch(lf, batch, inputs, None)
            entry = {}
            for o in sorted(outcomes, key=lambda o: REFERENCE_ORDER.index(o.op)):
                if o.termination != CONVERGED:
                    continue
                raw = inputs[o.item].raw
                values = entry.setdefault(o.item, {})
                if o.op == workloads.SIZE:
                    values["sized_m"] = [
                        [p["id"], round(o.values[p["id"]], 10)]
                        for p in raw["pipes"]
                        if o.values[p["id"]] != p["diameter_m"]]
                elif "links_m3h" not in values:
                    values["links_m3h"] = [round(o.values[pid] * 3600.0, 6)
                                           for pid in networks.link_pipes(raw)]
            key = reference_key(workload, seed)
            recorded.setdefault(workload, {})[key] = entry
            print(f"recorded {workload} {key}: " + ", ".join(
                f"{name} {sorted(v)}" for name, v in entry.items()))
    REFERENCE.write_bytes(gzip.compress(
        json.dumps(recorded, separators=(",", ":")).encode(), mtime=0))


def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced and traced, each in its own process."""
    rows = {}
    for workload in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise BenchmarkError(f"{workload} trace={trace} failed:\n"
                                     f"{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            if trace == 0:
                print("\n".join(lines[:-1]))
            rows[(workload, trace)] = json.loads(lines[-1])

    print("\nper-layer metrics (traced run)")
    names = list(rows[(workloads.NAMES[0], 1)]["metrics"])
    print(f"  {'metric':<42}" + "".join(f"{w:>16}" for w in workloads.NAMES))
    for name in names:
        print(f"  {name:<42}" + "".join(
            f"{rows[(w, 1)]['metrics'][name]['value']:>16.6g}"
            for w in workloads.NAMES))
    print("\ntracing overhead (traced wall_s - untraced wall_s)")
    for workload in workloads.NAMES:
        untraced = rows[(workload, 0)]["metrics"]["wall_s"]["value"]
        traced = rows[(workload, 1)]["metrics"]["traced_wall_s"]["value"]
        print(f"  {workload:<10} {traced - untraced:+.4f} s "
              f"({100.0 * (traced - untraced) / untraced:+.1f}%)")


if __name__ == "__main__":
    sys.exit(main())
