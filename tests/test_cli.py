"""Command-line interface behaviour and exit codes."""

import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import loopflow
from loopflow.cli import EXIT_NO_CONVERGENCE, main
from loopflow.fileio import write_flows_csv
from loopflow.solvers import SolverConfig, solve_node_loop

from conftest import perfbench_networks
from test_fileio import mixed_node_ids_dict


@pytest.fixture()
def gas_path(tmp_path):
    data = resources.files("loopflow").joinpath("data/fixture_gas.json").read_text()
    path = tmp_path / "gas.json"
    path.write_text(data)
    return path


@pytest.fixture()
def water_path(tmp_path):
    data = resources.files("loopflow").joinpath("data/fixture_water.json").read_text()
    path = tmp_path / "water.json"
    path.write_text(data)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fixture(self, gas_path, capsys):
        code, out, _ = run(capsys, "check", str(gas_path))
        assert code == 0
        assert "15 pipes, 11 nodes, 5 loops" in out
        assert "connected: yes" in out

    def test_derived_loops_note(self, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        del raw["loops"]
        path = tmp_path / "noloops.json"
        path.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "loops will be derived" in out

    def test_disconnected_fails(self, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        raw["nodes"].append({"id": "XII", "demand_m3h": 0.0})
        del raw["loops"]
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "disconnected" in err

    def test_mixed_node_id_kinds_fail(self, tmp_path, capsys):
        raw = mixed_node_ids_dict()
        del raw["reference_node"]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "mix strings and integers" in err

    def test_non_finite_diameter_fails(self, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        raw["pipes"][0]["diameter_m"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "'diameter_m' must be finite" in err
        assert "valid" not in out

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_huge_integer_fails(self, digits, gas_path, tmp_path, capsys):
        # 401 digits overflow a float; 5000 exceed what Python converts from text.
        text = gas_path.read_text().replace('"length_m": 100.0', '"length_m": 1' + "0" * (digits - 1), 1)
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/net.json")
        assert code == 3
        assert "error" in err

    def test_bad_explicit_loops(self, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        raw["loops"] = raw["loops"][:4]
        path = tmp_path / "fourloops.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "wrong loop count" in err


class TestSolve:
    @pytest.mark.parametrize("method", ["hardy-cross", "hardy-cross-improved"])
    def test_unbalanced_initial_flows_fail(self, method, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        raw["initial_flows"][0]["flow_m3h"] += 36.0
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(raw))
        assert run(capsys, "check", str(path))[0] == 0
        code, out, err = run(capsys, "solve", str(path), "--method", method)
        assert code == 1
        assert out == ""
        assert err == "error: initial flows violate node balances by 1.000e-02 m3/s\n"

    def test_gas_defaults(self, gas_path, capsys):
        code, out, _ = run(capsys, "solve", str(gas_path))
        assert code == 0
        assert "iterations: 5 (converged)" in out
        line14 = next(l for l in out.splitlines() if l.strip().startswith("14"))
        fields = line14.split()
        assert float(fields[1]) == pytest.approx(3064.13, abs=1.0)
        assert float(fields[2]) == pytest.approx(1.64, abs=0.02)

    def test_water_variant(self, water_path, capsys):
        code, out, _ = run(capsys, "solve", str(water_path))
        assert code == 0
        line5 = next(l for l in out.splitlines() if l.strip().startswith("5"))
        fields = line5.split()
        assert float(fields[1]) == pytest.approx(690.25, abs=1.0)
        assert float(fields[2]) == pytest.approx(10.5, abs=0.1)

    def test_methods_agree(self, gas_path, capsys):
        finals = {}
        for method in ("node-loop", "hardy-cross", "hardy-cross-improved"):
            code, out, _ = run(capsys, "solve", str(gas_path),
                               "--method", method)
            assert code == 0
            flows = {}
            for line in out.splitlines():
                fields = line.split()
                if fields and fields[0].isdigit():
                    flows[int(fields[0])] = float(fields[1])
            finals[method] = flows
        for a in finals.values():
            for b in finals.values():
                assert max(abs(a[p] - b[p]) for p in a) <= 0.02

    def test_trace_file(self, gas_path, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "solve", str(gas_path), "--trace", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 16
        assert lines[0] == "pipe,initial,1,2,3,4,5,velocity_m_s"

    def test_pressures_flag(self, gas_path, capsys):
        code, out, _ = run(capsys, "solve", str(gas_path), "--pressures",
                           "--source-pressure-pa", "400000")
        assert code == 0
        assert "node pressures (source I at 400000 Pa abs):" in out
        assert "XI:" in out

    def test_deterministic_output(self, gas_path, capsys):
        _, first, _ = run(capsys, "solve", str(gas_path), "--pressures")
        _, second, _ = run(capsys, "solve", str(gas_path), "--pressures")
        assert first == second

    def test_non_convergence_exit_code(self, gas_path, tmp_path, capsys):
        # starve the solver of iterations; the partial trace is still written
        raw = json.loads(gas_path.read_text())
        path = tmp_path / "gas.json"
        path.write_text(json.dumps(raw))
        import loopflow.cli as cli_module
        original = cli_module.SolverConfig

        class Starved(original):
            def __init__(self, **kwargs):
                kwargs["max_iterations"] = 1
                super().__init__(**kwargs)

        cli_module.SolverConfig = Starved
        try:
            out_csv = tmp_path / "partial.csv"
            code, out, _ = run(capsys, "solve", str(path), "--trace", str(out_csv))
        finally:
            cli_module.SolverConfig = original
        assert code == 2
        assert "max-iterations" in out
        assert out_csv.exists()

    def test_diverged_run_prints_one_error_line(self, tmp_path):
        # Original Hardy Cross diverges on an 8x8 street grid.  A separate
        # process shows the real stderr, where numpy would print warnings.
        grid = perfbench_networks().grid(8, 8, "gas", random.Random(0))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        out_csv = tmp_path / "kept.csv"
        src = Path(loopflow.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "loopflow.cli", "solve", str(path),
             "--method", "hardy-cross", "--trace", str(out_csv)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120)
        assert proc.returncode == EXIT_NO_CONVERGENCE
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: diverged at pass 3: ")
        assert "Warning" not in proc.stderr
        assert proc.stdout == f"trace written: {out_csv}\n"
        assert out_csv.read_text().splitlines()[0] == "pipe,initial,1,2,3,velocity_m_s"


class TestSize:
    def test_balanced_flows_keep_diameters(self, gas_path, tmp_path, capsys):
        net_flows = solve_node_loop(
            _load(gas_path), SolverConfig()).final_flows
        flows_csv = tmp_path / "flows.csv"
        write_flows_csv(net_flows, flows_csv)
        code, out, _ = run(capsys, "size", str(gas_path),
                           "--flows", str(flows_csv))
        assert code == 0
        assert "(converged)" in out
        line1 = next(l for l in out.splitlines() if l.strip().startswith("1 "))
        fields = line1.split()
        assert float(fields[1]) == pytest.approx(0.4064, abs=1e-9)

    def test_perturbed_network_restored(self, gas_path, tmp_path, capsys):
        net = _load(gas_path)
        flows = solve_node_loop(net, SolverConfig()).final_flows
        flows_csv = tmp_path / "flows.csv"
        write_flows_csv(flows, flows_csv)
        raw = json.loads(gas_path.read_text())
        for i, p in enumerate(raw["pipes"]):
            p["diameter_m"] *= 1.15 if i % 2 else 0.92
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(raw))
        trace = tmp_path / "sizing.csv"
        code, out, _ = run(capsys, "size", str(path), "--flows",
                           str(flows_csv), "--trace", str(trace))
        assert code == 0
        assert "(converged)" in out
        assert trace.exists()
        assert "velocity" in out  # advisory band note for gas

    def test_defaults_to_initial_flows_section(self, gas_path, capsys):
        # the assumed starting pattern is feasible, so sizing runs (the
        # result just reflects that pattern)
        code, out, _ = run(capsys, "size", str(gas_path))
        assert code in (0, 2)
        assert "iterations:" in out

    def test_bounds_excluding_balance(self, gas_path, tmp_path, capsys):
        net = _load(gas_path)
        flows = solve_node_loop(net, SolverConfig()).final_flows
        flows_csv = tmp_path / "flows.csv"
        write_flows_csv(flows, flows_csv)
        # clamped this small, the high-flow pipes keep imbalances far above
        # tolerance no matter how the band is used
        code, _, err = run(capsys, "size", str(gas_path), "--flows",
                           str(flows_csv), "--bounds", "0.011,0.02")
        assert code == 2
        assert "infeasible within bounds" in err

    def test_bad_bounds_argument(self, gas_path, capsys):
        code, _, err = run(capsys, "size", str(gas_path), "--bounds", "wide")
        assert code == 1
        assert "--bounds" in err

    @pytest.mark.parametrize("rows, message", [
        ("1,100\n", "fixed flow missing for pipe 2"),
        (None, "fixed flow given for unknown pipe 99"),
    ], ids=["missing-pipe", "unknown-pipe"])
    def test_flows_csv_checked_per_pipe(self, rows, message, gas_path, tmp_path, capsys):
        flows_csv = tmp_path / "flows.csv"
        if rows is None:
            write_flows_csv(solve_node_loop(_load(gas_path), SolverConfig()).final_flows,
                            flows_csv)
            rows = flows_csv.read_text().split("\n", 1)[1] + "99,5.0\n"
        flows_csv.write_text("pipe,flow_m3h\n" + rows)
        code, out, err = run(capsys, "size", str(gas_path), "--flows", str(flows_csv))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid fixed flows: ") and message in err
        assert err.count("\n") == 1

    def test_missing_flows(self, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        del raw["initial_flows"]
        path = tmp_path / "noflows.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "size", str(path))
        assert code == 1
        assert "no fixed flows" in err


def _load(path):
    from loopflow.fileio import parse_network
    return parse_network(path)


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("loopflow")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "check" in result.stdout and "solve" in result.stdout
