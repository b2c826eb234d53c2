"""One SHA-256 over the results of a fixed set of solves, sizings and traces.

Two source trees that print the same hash gave bit-identical results on
every run of the set: each iterate, loop residual, termination, stop
reason and velocity of all three methods and, unless the run diverged,
the node pressures propagated from the supply node that `loopflow solve
--pressures` picks, at 4e5 Pa; each sized diameter history, residual
history and stop reason, also of gas fixture sizings that end
"max-iterations" and "infeasible-bounds"; the `format_trace` bytes from a
seed-0 and a seed-3 start; and the type and message of any error a run
raised, such as those for starts and fixed flows on the fixtures that
are unbalanced, incomplete, not finite or idle a loop pipe.
The inputs are the two bundled fixtures; for seeds 0-2 and both fluids,
the 11 x 11 grids, the 200-node rings with 70 chords and the 1200-node
trees closed by 10 pipes of `perfbench/networks.py`; and for both fluids
its trees of 50 and 300 nodes that no pipe closes, which have no loop;
and the gas fixture with pipe 1 at a diameter of 1e-300 m, whose start is
not finite, and of 1e300 m, solved by each method.

    PYTHONPATH=src python tools/fingerprint.py [-v] [--save FILE]
        [--against FILE [--bound X]]

`-v` also prints a digest per run, to find the run where two source trees
part.  `--save FILE` writes, per run, the termination, pass count, stop
kind and final flows or diameters of each solve and sizing it made to one
`.npz`, with the run's loop closure; a stop kind is the stop reason with
each number in it replaced by `#`, and a loop closure is max_k |r_k| /
(|B|·|drop|)_k, each final loop residual over its loop's summed member
drops, the worst over the run's solves and sizings.  `--against FILE`
prints, per run, max|Δ|/max|value| of those flows or diameters against the
file's, and any change of termination, pass count or stop kind ("stop old
-> new"), to tell how far two source trees part; such a change, or a run in
one set only, counts as inf.  Beside them it prints a changed loop closure
("closure old -> new (relative change)"), which counts as nothing.  The
exit status is 1 only when `--bound X` is given and a run is more than X
apart.  The hash depends on the floating point of numpy and of the
machine, so compare it only between source trees run on the same
installation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import re
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import networks  # noqa: E402
import numpy as np  # noqa: E402

from loopflow import fileio, sizing, solvers  # noqa: E402
from loopflow.fluids import make_fluid_model  # noqa: E402
from loopflow.model import FlowState, PipeArrays, feasible_initial_flows, m3h_to_m3s  # noqa: E402


def inputs():
    """(name, network, fixed flows in m³/h or None) of every input."""
    for kind in ("gas", "water"):
        data = resources.files("loopflow").joinpath(f"data/fixture_{kind}.json").read_text()
        net = fileio.network_from_dict(json.loads(data))
        yield f"fixture-{kind}", net, dict(net.initial_flows_m3h)
    for seed in range(3):
        for kind in ("gas", "water"):
            rng = random.Random(f"fingerprint:{kind}:{seed}")
            yield f"grid-{kind}-{seed}", fileio.network_from_dict(
                networks.grid(11, 11, kind, rng)), None
            yield f"ring-{kind}-{seed}", fileio.network_from_dict(
                networks.ring_with_chords(200, 70, kind, rng)), None
            raw = networks.tree_with_closures(1200, 10, kind, rng)
            yield f"tree-{kind}-{seed}", fileio.network_from_dict(raw), \
                networks.balanced_flows(raw, rng)
    for kind in ("gas", "water"):
        for n_nodes in (50, 300):
            rng = random.Random(f"fingerprint:{kind}:bare-tree:{n_nodes}")
            raw = networks.tree_with_closures(n_nodes, 0, kind, rng)
            yield f"bare-tree-{kind}-{n_nodes}", fileio.network_from_dict(raw), \
                networks.balanced_flows(raw, rng)


# The (termination, pass count, stop kind, final flows or diameters in
# `net.pipe_ids` order, loop closure) of each solve and sizing that the run
# being made has noted.
made: list[tuple[str, int, str, list[float], float]] = []

# A number in a stop reason, not a digit of a word such as "Pa2".
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def stop_kind(reason: str) -> str:
    """`reason` with each number replaced by `#`."""
    return NUMBER.sub("#", reason)


def noted(net, report, fixed_flows=None):
    """`report`, its termination, pass count, stop kind, final flows or
    diameters and loop closure noted in `made`; a sizing report comes with
    its fixed flows."""
    pipes = PipeArrays.of(net)
    if fixed_flows is None:
        final, residuals = report.final_flows, report.loop_residuals[-1]
        flows = pipes.flows(final)
    else:
        final, residuals = report.diameters, report.loop_residual_history[-1]
        flows = pipes.flows(FlowState(fixed_flows))
        pipes = PipeArrays(pipes.ids, pipes.length, np.array([final[pid] for pid in pipes.ids]),
                           pipes.roughness)
    made.append((report.termination, report.iteration_count, stop_kind(report.stop_reason),
                 [final[pid] for pid in net.pipe_ids],
                 closure(net, pipes, flows, np.asarray(residuals, dtype=float))))
    return report


@np.errstate(all="ignore")
def closure(net, pipes, flows: np.ndarray, residuals: np.ndarray) -> float:
    """max_k |r_k| / (|B|·|drop|)_k over the loops of `net`'s basis, for the
    residuals r at the flows and geometry given; a loop whose drops sum to 0
    (so that its residual is 0 too) closes at 0."""
    basis = solvers.select_basis(net)
    drops = np.abs(make_fluid_model(net.fluid).drop(pipes, np.abs(flows)))
    summed = np.add.reduceat(drops[basis.columns], basis.starts[:-1])
    ratio = np.divide(residuals, summed, out=np.zeros_like(summed), where=summed != 0.0)
    return float(np.max(ratio, initial=0.0))


def outcome(run) -> str:
    """`run()`'s result as text, or its error's type and message."""
    try:
        return repr(run())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def solve_text(net, report) -> tuple:
    noted(net, report)
    return ([state.flows for state in report.iterations], report.loop_residuals,
            report.termination, report.stop_reason, report.velocities,
            pressures_text(net, report))


def pressures_text(net, report) -> str:
    """The pressures `loopflow solve --pressures` prints for the run, as
    text, or the error's; nothing for a diverged run, which prints none."""
    if report.termination == "diverged":
        return ""
    source = min(net.nodes, key=lambda n: (n.demand_m3h, str(n.id))).id
    return outcome(lambda: solvers.propagate_pressures(net, report.final_flows, source, 4e5))


def runs():
    """(name, text) of every run of the set."""
    for name, net, fixed in inputs():
        for method in solvers.METHODS:
            config = solvers.SolverConfig(method=method)
            yield f"{name} {method}", outcome(lambda: solve_text(net, solvers.solve(net, config)))
        if not name.startswith("ring"):
            for seed in (0, 3):
                yield f"{name} trace seed {seed}", outcome(lambda: [
                    fileio.format_trace(noted(net, solvers.solve(
                        net, solvers.SolverConfig(method=method),
                        feasible_initial_flows(net, seed))), net)
                    for method in solvers.METHODS])
        if fixed is not None:
            yield f"{name} size", outcome(lambda: size_text(
                net, {pid: m3h_to_m3s(q) for pid, q in fixed.items()}))
        if name == "fixture-gas":
            yield from unfinished_sizings(name, net)
        if name.startswith("fixture"):
            yield from rejected_flows(name, net)
        if name == "fixture-gas":
            yield from extreme_diameters(name, net)


def size_text(net, flows: dict, **config) -> tuple:
    report = noted(net, sizing.optimize_diameters(
        net, solvers.select_basis(net), sizing.SizingConfig(FlowState(flows), **config)), flows)
    return (list(report.diameter_history), report.loop_residual_history,
            report.termination, report.stop_reason, sorted(report.bounded_pipes))


def unfinished_sizings(name: str, net):
    """Sizings from node-loop's flows that end "max-iterations" (diameters
    off by -8% and +15%, one pass) and "infeasible-bounds" (bounds 11-20 mm)."""
    flows = solvers.solve(net, solvers.SolverConfig()).final_flows.flows
    off = [dataclasses.replace(p, diameter=p.diameter * (1.15 if p.id % 2 else 0.92))
           for p in net.pipes]
    perturbed = dataclasses.replace(net, pipes=off)
    yield f"{name} size one pass", outcome(lambda: size_text(perturbed, flows,
                                                             max_iterations=1))
    yield f"{name} size bounds 0.011-0.02", outcome(lambda: size_text(
        net, flows, diameter_bounds=(0.011, 0.02)))


def rejected_flows(name: str, net):
    """Solves and sizings from given flows that are unbalanced, incomplete,
    not finite or idle a loop pipe."""
    flows = feasible_initial_flows(net).flows
    first, *rest = flows
    # A circulation around loop 1 that stops its first pipe.
    members = dict(solvers.select_basis(net).loops[0])
    pipe, sign = next(iter(members.items()))
    circulation = -sign * flows[pipe]
    cases = {"unbalanced": {**flows, first: flows[first] + 1.0},
             "incomplete": {pid: flows[pid] for pid in rest},
             "non-finite": {**flows, first: float("nan")},
             "idle loop pipe": {pid: q + circulation * members.get(pid, 0)
                                for pid, q in flows.items()}}
    for case, given in cases.items():
        for method in solvers.METHODS:
            yield f"{name} {case} start {method}", outcome(lambda: solve_text(
                net, solvers.solve(net, solvers.SolverConfig(method=method), FlowState(given))))
        yield f"{name} {case} fixed flows", outcome(lambda: size_text(net, given))


def extreme_diameters(name: str, net):
    """Solves with pipe 1 at a diameter whose drop overflows (1e-300 m) and
    at one whose drop vanishes (1e300 m)."""
    for diameter in (1e-300, 1e300):
        pipes = [dataclasses.replace(p, diameter=diameter) if p.id == 1 else p
                 for p in net.pipes]
        extreme = dataclasses.replace(net, pipes=pipes)
        for method in solvers.METHODS:
            yield f"{name} pipe 1 at {diameter:g} m {method}", outcome(lambda: solve_text(
                extreme, solvers.solve(extreme, solvers.SolverConfig(method=method))))


def summary(text: str) -> tuple[str, str, str, np.ndarray, float]:
    """The terminations and pass counts ("," joined), the stop kinds (" | "
    joined), the final flows or diameters, end to end, and the worst loop
    closure (NaN if any is) that the run of `text` noted, taken out of
    `made`; a run that raised before it made one has its error as
    termination, and a closure of 0."""
    terminations, passes, stops, finals, closures = \
        zip(*made) if made else ((text,), (), (), (), ())
    made.clear()
    return (",".join(terminations), ",".join(map(str, passes)), " | ".join(stops),
            np.concatenate([np.zeros(0), *map(np.asarray, finals)]),
            float(np.max(closures, initial=0.0)))


def save(path: str, summaries: dict) -> None:
    terminations, passes, stops, finals, closures = zip(*summaries.values())
    with open(path, "wb") as file:
        np.savez(file, names=list(summaries), terminations=terminations, passes=passes,
                 stops=stops, finals=np.concatenate(finals),
                 ends=np.cumsum([len(f) for f in finals]), closures=closures)


def load(path: str) -> dict:
    with np.load(path) as data:
        finals = np.split(data["finals"], data["ends"][:-1])
        return {str(name): (str(termination), str(passes), str(stop), final, float(closure))
                for name, termination, passes, stop, final, closure in zip(
                    data["names"], data["terminations"], data["passes"], data["stops"],
                    finals, data["closures"])}


def distance(old, new) -> tuple[float, list[str]]:
    """max|Δ|/max|old value| of two summaries' flows or diameters (inf if
    they differ in size or Δ is not finite), and their changes of
    termination, pass count and stop kind, each as "what old -> new"."""
    changes = [f"{what} {a} -> {b}" for what, a, b in
               zip(("termination", "passes", "stop"), old, new) if a != b]
    a, b = old[3], new[3]
    if a.shape != b.shape:
        return np.inf, changes
    if np.array_equal(a, b, equal_nan=True):
        return 0.0, changes
    with np.errstate(all="ignore"):
        gap = np.abs(b - a).max() / np.abs(a).max()
    return (gap if np.isfinite(gap) else np.inf), changes


def compare(saved: dict, summaries: dict, bound: float | None) -> int:
    """Print each run's distance from the saved one, a line per run, and any
    change of its loop closure; return how many are more than `bound` apart
    (none if it is None)."""
    beyond = 0
    for name in {**summaries, **saved}:
        note = ""
        if name in saved and name in summaries:
            gap, changes = distance(saved[name], summaries[name])
            old, new = saved[name][4], summaries[name][4]
            if not np.array_equal(old, new, equal_nan=True):
                with np.errstate(all="ignore"):
                    note = f"; closure {old:.3g} -> {new:.3g} ({new / old - 1:+.2g})"
        else:
            where = "the saved set" if name in saved else "this tree"
            gap, changes = np.inf, [f"only in {where}"]
        print(f"{gap:.3g} {name}" + "".join(f"; {change}" for change in changes) + note)
        beyond += bound is not None and (gap > bound or bool(changes))
    if bound is not None:
        print(f"{beyond} runs more than {bound:g} apart")
    return beyond


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("-v", action="store_true", help="print a digest per run")
    parser.add_argument("--save", metavar="FILE", help="write each run's summary to FILE")
    parser.add_argument("--against", metavar="FILE", help="compare each run with FILE's")
    parser.add_argument("--bound", type=float, metavar="X",
                        help="with --against, exit 1 if a run is more than X apart")
    args = parser.parse_args(argv)
    if args.bound is not None and args.against is None:
        parser.error("--bound needs --against")
    total, summaries = hashlib.sha256(), {}
    for name, text in runs():
        total.update(f"{name}\n{text}\n".encode())
        if args.v:
            print(hashlib.sha256(text.encode()).hexdigest()[:16], name)
        summaries[name] = summary(text)
    if args.save:
        save(args.save, summaries)
    beyond = compare(load(args.against), summaries, args.bound) if args.against else 0
    print(total.hexdigest())
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
