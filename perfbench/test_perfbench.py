"""Tests of the benchmark itself: generators, checker and tracer.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checker  # noqa: E402
import networks  # noqa: E402
import workloads  # noqa: E402
from loopflow import SolverConfig, solve, validate  # noqa: E402
from loopflow.fileio import network_from_dict  # noqa: E402
from loopflow.model import m3h_to_m3s  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import MissingFunction, Tracer  # noqa: E402

GENERATORS = {
    "grid": lambda kind, rng: networks.grid(5, 6, kind, rng),
    "ring": lambda kind, rng: networks.ring_with_chords(40, 12, kind, rng),
    "tree": lambda kind, rng: networks.tree_with_closures(120, 4, kind, rng),
}


@pytest.mark.parametrize("kind", ["gas", "water"])
@pytest.mark.parametrize("shape", sorted(GENERATORS))
def test_generators_are_deterministic_and_valid(shape, kind):
    make = GENERATORS[shape]
    first = make(kind, random.Random(7))
    assert make(kind, random.Random(7)) == first
    assert make(kind, random.Random(8)) != first
    assert sum(n["demand_m3h"] for n in first["nodes"]) == 0.0
    assert validate(network_from_dict(first)) == []


@pytest.mark.parametrize("shape", sorted(GENERATORS))
def test_balanced_flows_meet_every_demand(shape):
    net = GENERATORS[shape]("gas", random.Random(3))
    flows = networks.balanced_flows(net, random.Random(4))
    assert flows == networks.balanced_flows(net, random.Random(4))
    assert all(q != 0.0 for q in flows.values())
    flows_m3s = {pid: q / 3600.0 for pid, q in flows.items()}
    assert checker.node_imbalance_m3s(net, flows_m3s) <= checker.NODE_BALANCE_TOL_M3S

    # The flows outside the spanning tree determine all others, which is
    # how reference results are stored.
    links = networks.link_pipes(net)
    assert len(links) == len(net["pipes"]) - len(net["nodes"]) + 1
    rebuilt = networks.complete_flows(net, {pid: flows[pid] for pid in links})
    assert rebuilt.keys() == flows.keys()
    assert max(abs(rebuilt[pid] - flows[pid]) for pid in flows) < 1e-9


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_inputs_depend_only_on_the_seed(workload, tmp_path):
    def written(seed, name):
        out = tmp_path / name
        out.mkdir()
        batch = workloads.build(workload, seed, out, SRC / "loopflow" / "data")
        files = {f.name: f.read_bytes() for item, _ in batch
                 for f in item.input_files}
        return [(item.name, op) for item, op in batch], files

    assert written(5, "a") == written(5, "b")
    if workload != "fixtures":
        assert written(5, "c")[1] != written(6, "d")[1]


def _solved_fixture():
    data = json.loads((SRC / "loopflow" / "data" / "fixture_gas.json").read_text())
    report = solve(network_from_dict(data), SolverConfig())
    return data, dict(report.final_flows.flows)


def test_checker_accepts_a_solved_network():
    data, flows = _solved_fixture()
    reference = [flows[p["id"]] * 3600.0 for p in data["pipes"]]
    assert checker.check_flows(data, flows, reference) == []


def test_checker_flags_a_corrupted_flow_vector():
    data, flows = _solved_fixture()
    reference = [flows[p["id"]] * 3600.0 for p in data["pipes"]]

    broken = dict(flows)
    broken[3] += m3h_to_m3s(1.0)
    problems = checker.check_flows(data, broken, reference)
    assert any("node balance" in p for p in problems)
    assert any("reference" in p for p in problems)

    # A circulation around loop 1 keeps every node balanced; only the
    # reference comparison can catch it.
    circulated = dict(flows)
    for signed in data["loops"][0]:
        circulated[abs(signed)] += (1 if signed > 0 else -1) * m3h_to_m3s(0.5)
    problems = checker.check_flows(data, circulated, reference)
    assert problems == ["flows differ from the reference by 5.000e-01 m3/h"]

    broken[3] = float("nan")
    assert checker.node_imbalance_m3s(data, broken) == float("inf")
    assert checker.max_flow_difference_m3h(flows, broken) == float("inf")


def test_checker_flags_diameters_outside_bounds_or_reference():
    data, _ = _solved_fixture()
    diameters = {p["id"]: p["diameter_m"] for p in data["pipes"]}
    reference = [p["diameter_m"] for p in data["pipes"]]
    assert checker.check_diameters(data, diameters, reference) == []
    diameters[2] = 2.5
    problems = checker.check_diameters(data, diameters, reference)
    assert len(problems) == 2


def test_tracer_counts_repeat_and_wrappers_are_removed():
    import loopflow
    from loopflow import fluids, numerics, solvers

    data, _ = _solved_fixture()
    net = network_from_dict(data)
    original = numerics.solve_linear
    with Tracer() as tracer:
        assert solvers.solve_linear is not original
        tracer.scope = "solve"
        loopflow.solve(net, SolverConfig())
        first = tracer.take()
        loopflow.solve(net, SolverConfig())
        second = tracer.take()
    assert solvers.solve_linear is original
    assert numerics.solve_linear is original
    assert "__wrapped__" not in vars(fluids.GasModel.evaluate)

    counts = {key: stat.calls for key, stat in first["stats"].items()}
    assert counts == {key: stat.calls for key, stat in second["stats"].items()}
    assert counts[("solve", "solvers.solve")] == 1
    assert counts[("solve", "numerics.solve_linear")] == 5
    assert first["linear_n_max"] == 15
    solve_stat = first["stats"][("solve", "solvers.solve")]
    layer_self = sum(stat.self_time for stat in first["stats"].values())
    assert layer_self == pytest.approx(solve_stat.total, rel=1e-9)


@pytest.mark.parametrize("missing", ["function", "fluid method"])
def test_tracer_rejects_a_missing_function(missing, monkeypatch):
    from loopflow import numerics, solvers

    if missing == "function":
        functions = dict(tracer_module.FUNCTIONS)
        functions["numerics"] += ("no_such_function",)
        monkeypatch.setattr(tracer_module, "FUNCTIONS", functions)
    else:
        monkeypatch.setattr(tracer_module, "FLUID_METHODS",
                            tracer_module.FLUID_METHODS + ("no_such_method",))
    original = numerics.solve_linear
    with pytest.raises(MissingFunction, match="no_such_"):
        with Tracer():
            pass
    assert solvers.solve_linear is original


def test_reference_covers_exactly_the_recorded_seeds(tmp_path):
    def reference(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        batch = workloads.build("meshed", seed, workdir, SRC / "loopflow" / "data")
        inputs = {item.name: run.Input(None, json.loads(item.path.read_text()), None)
                  for item, _ in batch}
        return run.load_reference("meshed", seed, inputs)

    last = run.REFERENCE_SEEDS[-1]
    assert set(reference(last)) == {f"{shape}{k}-{kind}" for shape in ("grid", "ring")
                                    for k in (1, 2) for kind in ("gas", "water")}
    assert reference(last + 1) == {}


def test_tail_is_the_median_over_blocks_of_fixed_size():
    batches = [[run.Outcome("net", "op", 1e-3 * (1 + k), "converged", None, 0, [])
                for k in range(8)] for _ in range(600)]
    for outcomes in batches[:20]:   # a burst of slow operations in one block
        outcomes[0].seconds = 1.0
    metrics, pct, ops, blocks = run.end_to_end_metrics(0.1, batches)
    assert (blocks, ops) == (4, run.TAIL_BLOCK_OPS)
    assert pct == pytest.approx(100.0 * (ops - run.TAIL_SAMPLES) / ops)
    assert metrics["op_ms_tail"] == pytest.approx(8.0)


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
