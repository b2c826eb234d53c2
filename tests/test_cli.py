"""Command-line interface behaviour and exit codes."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import loopflow
from loopflow.cli import EXIT_NO_CONVERGENCE, main
from loopflow.fileio import parse_network, write_flows_csv
from loopflow.fluids import make_fluid_model
from loopflow.model import PipeArrays
from loopflow.solvers import (DEFAULT_RESIDUAL_TOLERANCE, SolverConfig, select_basis, solve,
                              solve_node_loop)

from conftest import perfbench_networks
from test_fileio import UNREADABLE_NETWORKS, UNREADABLE_TABLES, mixed_node_ids_dict
from test_sizing import stalling_tree


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

    @pytest.mark.parametrize("command", ["check", "solve", "size"])
    @pytest.mark.parametrize("content", UNREADABLE_NETWORKS.values(), ids=UNREADABLE_NETWORKS)
    def test_unreadable_file_prints_one_error_line(self, command, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: parse error: ") and err.count("\n") == 1

    def test_lone_surrogate_node_id_prints_one_error_line(self, gas_path, capsys):
        # Once parsed, the id would reach the pressure table on stdout,
        # which cannot encode it.
        gas_path.write_text(gas_path.read_text().replace('"I"', '"\\ud800"'))
        code, out, err = run(capsys, "solve", str(gas_path), "--pressures")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'id' is not valid UTF-8 text" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/net.json")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: [raw], "{path}: top level must be an object"),
        (lambda raw: {k: v for k, v in raw.items() if k != "pipes"},
         "{path}: missing section 'pipes'"),
        (lambda raw: {**raw, "nodes": {}}, "{path}: nodes: expected a list"),
        (lambda raw: {**raw, "loops": [[], *raw["loops"][1:]]}, "loop 1 is empty"),
        (lambda raw: {**raw, "loops": [[1, 1], *raw["loops"][1:]]}, "loop 1 repeats pipe 1"),
        (lambda raw: {**raw, "loops": [*raw["loops"][:4], [-4, 3, 2, -1]]},
         "rank-deficient loop set: loops are not independent"),
    ], ids=["not-an-object", "no-pipes", "nodes-not-a-list", "empty-loop", "repeated-pipe",
            "dependent-loops"])
    def test_rejected_input_prints_only_its_error_line(self, edit, message, gas_path,
                                                       capsys):
        gas_path.write_text(json.dumps(edit(json.loads(gas_path.read_text()))))
        code, out, err = run(capsys, "check", str(gas_path))
        assert (code, out) == (1, "")
        assert err == f"error: {message.format(path=gas_path)}\n"

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

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_bad_source_pressure_fails_before_solving(self, value, gas_path, capsys):
        code, out, err = run(capsys, "solve", str(gas_path), "--pressures",
                             f"--source-pressure-pa={value}")
        assert code == 1
        assert out == ""
        assert err == f"error: source pressure must be finite and > 0 Pa, got {float(value)!r}\n"

    @pytest.mark.parametrize("value", ["-5", "1.4e154"])
    def test_source_pressure_is_judged_before_the_network_is_read(self, value, tmp_path,
                                                                 capsys):
        # 1.4e154 Pa has no finite square, for water as for gas.
        code, out, err = run(capsys, "solve", str(tmp_path / "missing.json"), "--pressures",
                             f"--source-pressure-pa={value}")
        assert (code, out) == (1, "")
        assert err.startswith("error: source pressure ") and err.count("\n") == 1

    def test_water_source_pressure_whose_square_overflows_is_rejected(self, water_path,
                                                                     capsys):
        code, out, err = run(capsys, "solve", str(water_path), "--pressures",
                             "--source-pressure-pa", "1.4e154")
        assert (code, out) == (1, "")
        assert err == "error: source pressure 1.4e+154 Pa overflows when squared\n"

    def test_gas_source_pressure_whose_square_overflows_prints_one_error_line(self, gas_path,
                                                                              capsys):
        code, out, err = run(capsys, "solve", str(gas_path), "--pressures",
                             "--source-pressure-pa", "1e200")
        assert code == 1
        assert out == ""
        assert err == "error: source pressure 1e+200 Pa overflows when squared\n"

    # In process, pytest's error::RuntimeWarning filter fails a test on
    # any numpy warning the run leaks, and an exception fails it too.  A
    # smooth water pipe of 1e-306 m overflows its Reynolds number, and its
    # friction factor is NaN.
    @pytest.mark.parametrize("method", ["node-loop", "hardy-cross", "hardy-cross-improved"])
    @pytest.mark.parametrize("fluid, diameter, roughness", [
        ("gas", 1e-300, None), ("gas", 1e300, None), ("water", 1e-300, None),
        ("water", 1e-306, 0.0)])
    def test_extreme_diameter_warns_nothing(self, fluid, diameter, roughness, method,
                                            request, tmp_path, capsys):
        raw = json.loads(request.getfixturevalue(f"{fluid}_path").read_text())
        assert raw["pipes"][0]["id"] == 1
        raw["pipes"][0]["diameter_m"] = diameter
        if roughness is not None:
            raw["pipes"][0]["roughness_m"] = roughness
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, "solve", str(path), "--method", method, "--pressures")
        if diameter < 1.0:
            assert (code, out) == (EXIT_NO_CONVERGENCE, "")
            assert err == ("error: diverged at pass 0: the start's loop residuals or pipe "
                           "derivatives are not finite\n")
        else:
            assert code == 0 and err == ""
            assert "(converged)" in out and "node pressures" in out

    def test_infeasible_pressure_exits_2_with_one_error_line(self, gas_path, capsys):
        # InfeasiblePressureError is a ValueError, which `main` would turn
        # into exit 1: the solve command keeps its own exit 2.
        code, out, err = run(capsys, "solve", str(gas_path), "--pressures",
                             "--source-pressure-pa", "1000")
        assert code == EXIT_NO_CONVERGENCE
        assert "(converged)" in out and "node pressures" not in out
        assert err == ("error: negative squared pressure at node 'II': the network is "
                       "infeasible at source pressure 1000 Pa\n")

    def test_infeasible_pressure_after_no_convergence_keeps_the_reason(self, tmp_path,
                                                                       capsys):
        grid = perfbench_networks().grid(4, 4, "gas", random.Random(0))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        code, out, err = run(capsys, "solve", str(path), "--method", "hardy-cross",
                             "--pressures", "--source-pressure-pa", "1000")
        assert code == EXIT_NO_CONVERGENCE
        assert "(max-iterations)" in out and "node pressures" not in out
        pressure, reason = err.splitlines()
        assert pressure.startswith("error: negative squared pressure at node ")
        assert reason.startswith("error: max-iterations after 50 passes: the worst loop residual")

    def test_water_below_vacuum_warns(self, water_path, capsys):
        code, out, err = run(capsys, "solve", str(water_path), "--pressures")
        assert code == 0
        rows = [line.split() for line in out.splitlines()
                if line.startswith("  ") and line.endswith(" Pa")]
        assert len(rows) == 11 and ["IX:", "-562457.2", "Pa"] in rows
        assert sum(float(value) < 0.0 for _, value, _ in rows) == 5
        assert err == ("warning: pressure below 0 Pa absolute at 5 of 11 nodes, "
                       "the lowest IX at -562457.2 Pa\n")

    def test_water_above_vacuum_is_quiet(self, water_path, capsys):
        code, _, err = run(capsys, "solve", str(water_path), "--pressures",
                           "--source-pressure-pa", "2e6")
        assert (code, err) == (0, "")

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

    @pytest.mark.parametrize("pressures", [[], ["--pressures"]], ids=["plain", "pressures"])
    def test_max_iterations_prints_its_reason_last(self, pressures, gas_path, capsys,
                                                   monkeypatch):
        import loopflow.cli as cli_module
        monkeypatch.setattr(cli_module, "SolverConfig",
                            lambda method: SolverConfig(method=method, max_iterations=1))
        code, out, err = run(capsys, "solve", str(gas_path), *pressures)
        assert code == EXIT_NO_CONVERGENCE
        assert "iterations: 1 (max-iterations)" in out
        assert ("node pressures" in out) == bool(pressures)
        assert err.startswith("error: max-iterations after 1 passes: the worst loop residual is ")
        assert err.count("\n") == 1

    def test_singular_system_prints_its_reason_last(self, gas_path, capsys, monkeypatch):
        import loopflow.solvers as solvers_module
        from loopflow.numerics import SingularSystemError

        def explode(matrix, rhs):
            raise SingularSystemError("forced")

        monkeypatch.setattr(solvers_module, "solve_linear", explode)
        code, out, err = run(capsys, "solve", str(gas_path), "--pressures")
        assert code == EXIT_NO_CONVERGENCE
        assert "iterations: 0 (singular-system)" in out and "node pressures" in out
        assert err == "error: singular-system at pass 1: forced\n"


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
        assert re.fullmatch(r"error: infeasible within bounds after \d+ passes: the worst "
                            r"loop residual is \S+ Pa2 with \d+ of 15 sized pipes at a "
                            r"bound \(lowest id \d+\)\n", err)

    def test_max_iterations_prints_its_reason(self, gas_path, capsys, monkeypatch):
        import loopflow.cli as cli_module
        original = cli_module.sizing.SizingConfig
        monkeypatch.setattr(cli_module.sizing, "SizingConfig",
                            lambda **kwargs: original(**kwargs, max_iterations=0))
        code, out, err = run(capsys, "size", str(gas_path))
        assert code == EXIT_NO_CONVERGENCE
        assert "iterations: 0 (max-iterations)" in out
        assert re.fullmatch(r"error: max-iterations after 0 passes: the worst loop residual "
                            r"is \S+ Pa2, above the tolerance 1e\+03 Pa2\n", err)

    def test_bounds_whose_area_underflows_report_an_infinite_velocity(self, gas_path,
                                                                       capsys):
        code, out, err = run(capsys, "size", str(gas_path), "--bounds", "1e-300,1e-200")
        assert code == EXIT_NO_CONVERGENCE
        assert out.count("at bound, velocity inf m/s above 10-15 band") == 15
        assert err == ("error: infeasible within bounds after 0 passes: the start's loop "
                       "residuals are not finite, with 15 of 15 sized pipes at a bound "
                       "(lowest id 1)\n")

    def test_bounds_are_judged_before_any_file_is_read(self, tmp_path, capsys):
        code, out, err = run(capsys, "size", str(tmp_path / "missing.json"), "--bounds", "wide")
        assert (code, out) == (1, "")
        assert err == "error: --bounds expects 'LO,HI', got 'wide'\n"

    def test_bad_global_bounds_name_no_pipe(self, gas_path, capsys):
        code, out, err = run(capsys, "size", str(gas_path), "--bounds", "0,2")
        assert (code, out) == (1, "")
        assert err == "error: diameter bounds must satisfy 0 < lower < upper, got (0.0, 2.0)\n"

    def test_default_bounds_are_the_library_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["size", "--help"])
        lo, hi = loopflow.sizing.DEFAULT_DIAMETER_BOUNDS
        assert f"(default {lo},{hi})" in capsys.readouterr().out

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

    @pytest.mark.parametrize("command", ["size", "check", "solve"])
    @pytest.mark.parametrize("k, loop, message", [
        (4, [-4, 3, 2, -1], "error: rank-deficient loop set: loops are not independent\n"),
        (0, [1, -2, -3], "error: loop 1 is not a closed cycle: walk ends at 'I', started at 'II'\n"),
    ], ids=["rank-deficient", "not-a-cycle"])
    def test_bad_explicit_loops_print_one_error_line(self, command, k, loop, message,
                                                     gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        raw["loops"][k] = loop
        path = tmp_path / "badloops.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, command, str(path))
        assert code == 1
        assert err == message

    @pytest.mark.parametrize("content", UNREADABLE_TABLES.values(), ids=UNREADABLE_TABLES)
    def test_unreadable_flows_print_one_error_line(self, content, gas_path, tmp_path, capsys):
        flows_csv = tmp_path / "flows.csv"
        flows_csv.write_bytes(content)
        code, out, err = run(capsys, "size", str(gas_path), "--flows", str(flows_csv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flows_csv}: unreadable table: ") and err.count("\n") == 1

    def test_flows_csv_with_byte_order_mark(self, gas_path, tmp_path, capsys):
        flows_csv = tmp_path / "bom.csv"
        write_flows_csv(solve_node_loop(_load(gas_path), SolverConfig()).final_flows,
                        flows_csv)
        flows_csv.write_bytes(b"\xef\xbb\xbf" + flows_csv.read_bytes())
        code, out, err = run(capsys, "size", str(gas_path), "--flows", str(flows_csv))
        assert code == 0, err
        assert "(converged)" in out

    def test_stall_prints_its_reason(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(stalling_tree()))
        code, out, err = run(capsys, "size", str(path))
        assert code == EXIT_NO_CONVERGENCE
        assert out.startswith("iterations: 2 (stalled)\n")
        assert err.startswith("error: stalled at pass 3: no step of 30 halvings lowered "
                              "the worst loop residual (")
        assert err.endswith(" Pa2)\n") and err.count("\n") == 1

    def test_loop_pipe_at_zero_flow_fails(self, gas_path, tmp_path, capsys):
        # A circulation around explicit loop 1 stops its first pipe and
        # keeps every node balance.
        net = _load(gas_path)
        flows = solve_node_loop(net, SolverConfig()).final_flows.flows
        members = {abs(signed): 1 if signed > 0 else -1 for signed in net.explicit_loops[0]}
        pipe, sign = next(iter(members.items()))
        circulation = -sign * flows[pipe]
        flows_csv = tmp_path / "flows.csv"
        flows_csv.write_text("pipe,flow_m3h\n" + "".join(
            f"{pid},{(q + circulation * members.get(pid, 0)) * 3600.0!r}\n"
            for pid, q in flows.items()))
        code, out, err = run(capsys, "size", str(gas_path), "--flows", str(flows_csv))
        assert code == 1
        assert out == ""
        assert err == f"error: pipe {pipe} lies in a loop but carries zero fixed flow\n"

    def test_missing_flows(self, gas_path, tmp_path, capsys):
        raw = json.loads(gas_path.read_text())
        del raw["initial_flows"]
        path = tmp_path / "noflows.json"
        path.write_text(json.dumps(raw))
        code, _, err = run(capsys, "size", str(path))
        assert code == 1
        assert "no fixed flows" in err


class TestTree:
    """A network without loops is valid: every command runs it to exit 0."""

    @pytest.fixture(params=["gas", "water"])
    def tree_path(self, request, tmp_path):
        networks, rng = perfbench_networks(), random.Random(0)
        raw = networks.tree_with_closures(50, 0, request.param, rng)
        raw["initial_flows"] = [{"pipe": pid, "flow_m3h": q}
                                for pid, q in networks.balanced_flows(raw, rng).items()]
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(raw))
        return path

    def test_check(self, tree_path, capsys):
        code, out, err = run(capsys, "check", str(tree_path))
        assert (code, err) == (0, "")
        assert out == "49 pipes, 50 nodes, 0 loops\nconnected: yes\nnote: loops will be derived\n"

    def test_solve_with_pressures_and_trace(self, tree_path, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, out, err = run(capsys, "solve", str(tree_path), "--pressures",
                             "--trace", str(out_csv))
        # The water tree falls below vacuum at one node, which warns only.
        warning = {"gas": "", "water": "warning: pressure below 0 Pa absolute at 1 of 50 "
                                       "nodes, the lowest 41 at -128790.1 Pa\n"}
        assert (code, err) == (0, warning[json.loads(tree_path.read_text())["fluid"]["kind"]])
        assert "iterations: 1 (converged)\nmax loop residual: 0 Pa" in out
        assert "reversed" not in out
        assert "node pressures (source 1 at 400000 Pa abs):" in out
        assert out_csv.read_text().splitlines()[0] == "pipe,initial,1,velocity_m_s"

    def test_size(self, tree_path, capsys):
        code, out, err = run(capsys, "size", str(tree_path))
        assert (code, err) == (0, "")
        assert out.startswith("iterations: 0 (converged)\nmax loop residual: 0 Pa")
        rows = out.splitlines()[3:]
        assert len(rows) == 49 and all("tree (not sized)" in row for row in rows)

    @pytest.mark.parametrize("command", ["check", "solve", "size"])
    def test_disconnected_forest_fails(self, command, tmp_path, capsys):
        raw = {"fluid": {"kind": "water", "density_kg_m3": 1000.0, "viscosity_pa_s": 0.00089},
               "nodes": [{"id": k, "demand_m3h": d} for k, d in enumerate([-5, 5, -3, 3], 1)],
               "pipes": [{"id": 1, "from": 1, "to": 2, "diameter_m": 0.1, "length_m": 10.0},
                         {"id": 2, "from": 3, "to": 4, "diameter_m": 0.1, "length_m": 10.0}]}
        path = tmp_path / "forest.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        assert err == (f"error: {path}: invalid network: "
                       f"disconnected graph: cannot reach node(s) 1, 2\n")


def _load(path):
    from loopflow.fileio import parse_network
    return parse_network(path)


# Golden runs of both bundled fixtures: each case's stdout (the echoed
# trace path replaced by GOLDEN_TRACE) and its CSV, kept in tests/golden/.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TRACE = "<trace.csv>"
RESIDUAL = re.compile(r"^max loop residual: (\S+) ", re.MULTILINE)
GOLDEN_CASES = [(fluid, command) for fluid in ("gas", "water") for command in (
    "check", "solve-node-loop", "solve-hardy-cross", "solve-hardy-cross-improved", "size")]


def golden_run(fluid, command, tmp_path):
    """Exit code, stdout and CSV bytes (None without a CSV) of one golden case."""
    path = resources.files("loopflow").joinpath(f"data/fixture_{fluid}.json")
    trace = tmp_path / "trace.csv"
    if command == "check":
        argv = ["check", str(path)]
    elif command == "size":
        argv = ["size", str(path), "--trace", str(trace)]
    else:
        argv = ["solve", str(path), "--method", command.removeprefix("solve-"),
                "--trace", str(trace), "--pressures"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    csv = trace.read_bytes() if trace.exists() else None
    return code, stdout.getvalue().replace(str(trace), GOLDEN_TRACE), csv


def worst_loop_drops(fluid, method):
    """The largest sum of member drop magnitudes (|B|·|drop|) over the loops
    at the final flows of the golden solve, run in-process."""
    net = parse_network(resources.files("loopflow").joinpath(f"data/fixture_{fluid}.json"))
    flows = PipeArrays.of(net).flows(solve(net, SolverConfig(method=method)).final_flows)
    basis = select_basis(net)
    drops = make_fluid_model(net.fluid).drop(basis.core_pipes(PipeArrays.of(net)),
                                             np.abs(flows[basis.core]))
    return (basis.core_magnitudes @ drops).max()


def residuals_apart(text):
    """`text` with each `max loop residual:` value cut out, and those values."""
    values = [float(v) for v in RESIDUAL.findall(text)]
    return RESIDUAL.sub("max loop residual: <value> ", text), values


@pytest.mark.parametrize("fluid, command", GOLDEN_CASES, ids=lambda v: v)
def test_golden_output(fluid, command, tmp_path):
    code, out, csv = golden_run(fluid, command, tmp_path)
    assert code == 0
    # A solve's residual is what rounding leaves of loop sums that cancel
    # (about 2e-11 of their drops), so it is compared within 1e-9 of the
    # worst loop's summed drops, and must meet the fluid's tolerance; a
    # sizing's within 1e-9 relative; everything else by its bytes.
    text, values = residuals_apart(out)
    golden_text, golden_values = residuals_apart((GOLDEN / f"{fluid}-{command}.out").read_text())
    assert text == golden_text
    if command.startswith("solve-"):
        scale = worst_loop_drops(fluid, command.removeprefix("solve-"))
        assert values == pytest.approx(golden_values, rel=0, abs=1e-9 * scale)
        assert max(values) <= DEFAULT_RESIDUAL_TOLERANCE[fluid]
    else:
        assert values == pytest.approx(golden_values, rel=1e-9)
    golden_csv = GOLDEN / f"{fluid}-{command}.csv"
    assert csv == (golden_csv.read_bytes() if golden_csv.exists() else None)


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("loopflow")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "check" in result.stdout and "solve" in result.stdout
