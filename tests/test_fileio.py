"""Network file parsing, serialization round-trips, trace emission."""

import copy
import csv
import dataclasses
import io
import json
import math
import random
import re
from importlib import resources
from unittest import mock

import pytest

from loopflow import fileio
from loopflow.fileio import (
    FLUID_KEYS,
    NODE_KEYS,
    PIPE_KEYS,
    NetworkFileError,
    format_trace,
    network_from_dict,
    network_to_dict,
    parse_network,
    read_flows_csv,
    trace_rows,
    write_flows_csv,
    write_network,
    write_trace,
)
from loopflow.model import FluidSpec, NodeSpec, Pipe, feasible_initial_flows, validate
from loopflow.solvers import (HARDY_CROSS, HARDY_CROSS_IMPROVED, METHODS, SolverConfig, solve,
                              solve_node_loop)

import fixture_tables as tables
from conftest import field_types, perfbench_networks

# Input files no reader can take as text, each with the message's start.
UNREADABLE_NETWORKS = {"not-utf8": b"\xff\xfe{}", "nested-too-deep": b"[" * 100000}
UNREADABLE_TABLES = {"field-over-limit": b"pipe,flow_m3h\n1," + b"9" * 200000 + b"\n",
                     "not-utf8": b"pipe,flow_m3h\n1,\xff\n"}


def fixture_path(name: str, tmp_path):
    data = resources.files("loopflow").joinpath(f"data/{name}").read_text()
    path = tmp_path / name
    path.write_text(data)
    return path


def fixture_dict(name: str) -> dict:
    data = resources.files("loopflow").joinpath(f"data/{name}").read_text()
    return json.loads(data)


class TestParseNetwork:
    def test_fixture_contents(self, tmp_path):
        net = parse_network(fixture_path("fixture_gas.json", tmp_path))
        assert len(net.pipes) == 15
        assert len(net.nodes) == 11
        assert net.explicit_loops is not None and len(net.explicit_loops) == 5
        assert net.loop_count == 5
        # gross input at the supply node: 6940 net plus its own 60 offtake
        assert -min(n.demand_m3h for n in net.nodes) + 60.0 == pytest.approx(7000.0)

    def test_missing_diameter_names_pipe(self, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        del raw["pipes"][2]["diameter_m"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match=r"pipes\[2\].*diameter_m"):
            parse_network(path)

    def test_unbalanced_demands_rejected(self, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        raw["nodes"][1]["demand_m3h"] = 2101.0
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="unbalanced demands"):
            parse_network(path)

    def test_unknown_keys_rejected(self, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        raw["pipes"][0]["color"] = "red"
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="unknown key"):
            parse_network(path)
        raw = fixture_dict("fixture_gas.json")
        raw["extra_section"] = {}
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="unknown section"):
            parse_network(path)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text('{"fluid": {,}')
        with pytest.raises(NetworkFileError, match="line 1"):
            parse_network(path)

    def test_type_errors(self, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        raw["pipes"][0]["id"] = "one"
        path = tmp_path / "types.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="must be an integer"):
            parse_network(path)

    def test_incomplete_initial_flows_rejected(self, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        del raw["initial_flows"][3]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="initial flow missing"):
            parse_network(path)

    def test_zero_loop_entry_rejected(self, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        raw["loops"][0] = [1, -2, 0, 4]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="signed pipe ids"):
            parse_network(path)

    def test_bool_loop_entry_rejected(self):
        raw = fixture_dict("fixture_gas.json")
        raw["loops"][0][0] = True
        with pytest.raises(NetworkFileError, match="signed pipe ids"):
            network_from_dict(raw)

    @pytest.mark.parametrize("bad", [1.5, True, [1], {"id": "I"}])
    @pytest.mark.parametrize("where", ["node id", "pipe from", "pipe to",
                                       "reference_node"])
    def test_node_ids_must_be_strings_or_integers(self, where, bad):
        raw = fixture_dict("fixture_gas.json")
        obj, key = {"node id": (raw["nodes"][0], "id"),
                    "pipe from": (raw["pipes"][0], "from"),
                    "pipe to": (raw["pipes"][0], "to"),
                    "reference_node": (raw, "reference_node")}[where]
        obj[key] = bad
        with pytest.raises(NetworkFileError,
                           match=f"'{key}' must be a string or an integer"):
            network_from_dict(raw)

    @pytest.mark.parametrize("where", ["node id", "pipe from", "pipe to",
                                       "reference_node", "fluid kind"])
    def test_lone_surrogate_rejected(self, where, tmp_path):
        raw = fixture_dict("fixture_gas.json")
        obj, key, context = {"node id": (raw["nodes"][0], "id", r"nodes\[0\]"),
                             "pipe from": (raw["pipes"][0], "from", r"pipes\[0\]"),
                             "pipe to": (raw["pipes"][0], "to", r"pipes\[0\]"),
                             "reference_node": (raw, "reference_node", "lone.json"),
                             "fluid kind": (raw["fluid"], "kind", "fluid")}[where]
        obj[key] = "\ud800"
        path = tmp_path / "lone.json"
        path.write_text(json.dumps(raw))     # as the escape \ud800
        with pytest.raises(NetworkFileError,
                           match=rf"{context}: '{key}' is not valid UTF-8 text"):
            parse_network(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name, section, key", [
        ("fixture_gas.json", "fluid", "rel_density"),
        ("fixture_gas.json", "fluid", "operating_pressure_pa"),
        ("fixture_gas.json", "fluid", "normal_pressure_pa"),
        ("fixture_water.json", "fluid", "density_kg_m3"),
        ("fixture_water.json", "fluid", "viscosity_pa_s"),
        ("fixture_gas.json", "nodes", "demand_m3h"),
        ("fixture_gas.json", "pipes", "diameter_m"),
        ("fixture_gas.json", "pipes", "length_m"),
        ("fixture_gas.json", "pipes", "roughness_m"),
        ("fixture_gas.json", "initial_flows", "flow_m3h"),
    ])
    def test_non_finite_numbers_rejected(self, name, section, key, value, tmp_path):
        raw = fixture_dict(name)
        record_of(raw, section)[key] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(raw))     # NaN and Infinity literals
        context = "fluid" if section == "fluid" else rf"{section}\[1\]"
        with pytest.raises(NetworkFileError,
                           match=rf"{context}: '{key}' must be finite"):
            parse_network(path)

    @pytest.mark.parametrize("section, key", [("fluid", "rel_density"),
                                              ("nodes", "demand_m3h"),
                                              ("pipes", "length_m"),
                                              ("initial_flows", "flow_m3h")])
    def test_integer_too_large_for_a_float_rejected(self, section, key):
        raw = fixture_dict("fixture_gas.json")
        record_of(raw, section)[key] = 10 ** 400
        context = "fluid" if section == "fluid" else rf"{section}\[1\]"
        with pytest.raises(NetworkFileError,
                           match=rf"{context}: '{key}' is too large for a floating-point number"):
            network_from_dict(raw)

    def test_integer_literal_too_long_to_convert_rejected(self, tmp_path):
        text = json.dumps(fixture_dict("fixture_gas.json"))
        path = tmp_path / "long.json"
        path.write_text(text.replace('"length_m": 100.0', '"length_m": 1' + "0" * 5000, 1))
        # Python versions that convert any length read it, then find it too large.
        with pytest.raises(NetworkFileError, match="long.json: (parse error|pipes)"):
            parse_network(path)

    @pytest.mark.parametrize("content", UNREADABLE_NETWORKS.values(), ids=UNREADABLE_NETWORKS)
    def test_unreadable_text_rejected(self, content, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(NetworkFileError, match="bad.json: parse error: "):
            parse_network(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" and some editors start a UTF-8 file with one.
        path = tmp_path / "bom.json"
        path.write_text("\ufeff" + json.dumps(fixture_dict("fixture_gas.json")),
                        encoding="utf-8")
        assert parse_network(path) == parse_network(fixture_path("fixture_gas.json",
                                                                 tmp_path))

    def test_duplicate_initial_flow_rejected(self):
        raw = fixture_dict("fixture_gas.json")
        raw["initial_flows"].append({"pipe": 1, "flow_m3h": 999.0})
        with pytest.raises(NetworkFileError,
                           match=r"initial_flows\[15\]: second flow for pipe 1"):
            network_from_dict(raw)

    def test_mixed_node_id_kinds_need_reference_node(self, tmp_path):
        raw = mixed_node_ids_dict()
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(raw))
        assert parse_network(path).reference_node == "XI"
        del raw["reference_node"]
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFileError, match="mix strings and integers"):
            parse_network(path)


@pytest.mark.parametrize("workload", ["branched", "meshed"])
def test_column_path_parses_benchmark_networks_as_the_record_path(workload):
    # The first network of each workload's seed-0 batch: a 1200-node tree
    # with its fixed flows as the initial flows, or an 11 x 11 grid.
    networks = perfbench_networks()
    rng = random.Random(f"{workload}:0")
    if workload == "branched":
        raw = networks.tree_with_closures(1200, 10, "gas", rng)
        raw["initial_flows"] = [{"pipe": pid, "flow_m3h": q}
                                for pid, q in networks.balanced_flows(raw, rng).items()]
    else:
        raw = networks.grid(11, 11, "gas", rng)
    for section, keys, cls in (("nodes", NODE_KEYS, NodeSpec), ("pipes", PIPE_KEYS, Pipe),
                               ("initial_flows", fileio.FLOW_KEYS, None)):
        assert fileio._columns(raw.get(section, []), keys, cls) is not None
    by_column = network_from_dict(raw)
    with mock.patch.object(fileio, "_columns", return_value=None):
        by_record = network_from_dict(raw)
    assert by_column == by_record
    assert field_types(by_column) == field_types(by_record)
    assert validate(by_column) == validate(by_record) == []


def mixed_node_ids_dict() -> dict:
    """The gas fixture with node "I" renamed to the integer 1."""
    raw = fixture_dict("fixture_gas.json")
    raw["nodes"][0]["id"] = 1
    for pipe in raw["pipes"]:
        for end in ("from", "to"):
            if pipe[end] == "I":
                pipe[end] = 1
    return raw


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fixture_gas.json", "fixture_water.json"])
    def test_parse_serialize_parse(self, name, tmp_path):
        first = parse_network(fixture_path(name, tmp_path))
        out = tmp_path / "roundtrip.json"
        write_network(first, out)
        second = parse_network(out)
        assert first == second

    def test_dict_round_trip_preserves_sections(self):
        raw = fixture_dict("fixture_water.json")
        net = network_from_dict(raw)
        again = network_to_dict(net)
        assert again["loops"] == raw["loops"]
        assert again["reference_node"] == raw["reference_node"]
        assert len(again["initial_flows"]) == 15
        # The water fixture leaves out the one optional pressure that has a
        # default; writing states it.
        raw["fluid"]["normal_pressure_pa"] = 100000.0
        assert again == raw
        assert json.dumps(again) == json.dumps(raw)
        gas = fixture_dict("fixture_gas.json")
        assert json.dumps(network_to_dict(network_from_dict(gas))) == json.dumps(gas)


# Every key of the three record tables: whether a file must give it, and the
# model field it fills.
RECORD_KEYS = {
    "fluid": (FluidSpec, {"kind": ("kind", True),
                          "rel_density": ("rel_density", False),
                          "density_kg_m3": ("density", False),
                          "viscosity_pa_s": ("viscosity", False),
                          "operating_pressure_pa": ("operating_pressure", False),
                          "normal_pressure_pa": ("normal_pressure", False)}),
    "nodes": (NodeSpec, {"id": ("id", True), "demand_m3h": ("demand_m3h", True)}),
    "pipes": (Pipe, {"id": ("id", True), "from": ("from_node", True),
                     "to": ("to_node", True), "diameter_m": ("diameter", True),
                     "length_m": ("length", True),
                     "roughness_m": ("roughness", False)}),
}


def record_of(raw: dict, section: str) -> dict:
    """The fluid record, or the second node or pipe record."""
    return raw["fluid"] if section == "fluid" else raw[section][1]


def test_record_tables_cover_every_key():
    assert set(RECORD_KEYS["fluid"][1]) == set(FLUID_KEYS)
    assert set(RECORD_KEYS["nodes"][1]) == set(NODE_KEYS)
    assert set(RECORD_KEYS["pipes"][1]) == set(PIPE_KEYS)


@pytest.mark.parametrize("section, key", [(section, key)
                                          for section, (_, keys) in RECORD_KEYS.items()
                                          for key in keys])
def test_missing_key_is_an_error_or_the_model_default(section, key):
    cls, keys = RECORD_KEYS[section]
    name, required = keys[key]
    raw = next(r for r in map(fixture_dict, ["fixture_gas.json", "fixture_water.json"])
               if key in record_of(r, section))
    del record_of(raw, section)[key]
    context = "network: fluid" if section == "fluid" else f"network: {section}[1]"
    if required:
        with pytest.raises(NetworkFileError,
                           match=re.escape(f"{context}: missing key '{key}'")):
            network_from_dict(raw)
        return
    net = network_from_dict(raw)
    record = net.fluid if section == "fluid" else getattr(net, section)[1]
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    assert getattr(record, name) == default


def loop_trace_rows(report, net) -> list[list[str]]:
    """The trace table built one dict per pass and one branch per cell, as
    `trace_rows` once built it: the reference its array version must meet."""
    states = [state.as_m3h() for state in report.iterations]
    rows = [["pipe", "initial"] + [str(k) for k in range(1, len(states))] + ["velocity_m_s"]]
    for p in net.pipes:
        cells = [str(p.id)]
        previous = None
        for state in states:
            q_m3h = state[p.id]
            if previous is None:
                cells.append(f"{q_m3h:.2f}")
            else:
                relative = q_m3h if previous >= 0.0 else -q_m3h
                cells.append(f"{relative:.2f}")
            previous = q_m3h
        cells.append(f"{report.velocities[p.id]:.2f}")
        rows.append(cells)
    return rows


def trace_cases():
    """(name, network, start seed, config): street grids and trees from
    starts that reverse pipes, a run that diverges and one that runs out of
    passes."""
    networks = perfbench_networks()
    for kind in ("gas", "water"):
        grid = network_from_dict(networks.grid(5, 5, kind, random.Random(kind)))
        tree = network_from_dict(networks.tree_with_closures(300, 5, kind, random.Random(kind)))
        for seed in (0, 3):
            for method in METHODS:
                yield f"grid-{kind}-{seed}-{method}", grid, seed, SolverConfig(method=method)
            yield f"tree-{kind}-{seed}", tree, seed, SolverConfig(method=HARDY_CROSS_IMPROVED)
    grid = network_from_dict(networks.grid(8, 8, "gas", random.Random(0)))
    yield "diverged", grid, 0, SolverConfig(method=HARDY_CROSS)
    yield "max-iterations", grid, 3, SolverConfig(max_iterations=2)


def test_trace_matches_the_per_cell_reference():
    terminations, texts = set(), []
    for name, net, seed, config in trace_cases():
        report = solve(net, config, feasible_initial_flows(net, seed))
        reference = io.StringIO()
        csv.writer(reference).writerows(loop_trace_rows(report, net))
        assert format_trace(report, net) == reference.getvalue(), name
        terminations.add(report.termination)
        texts.append(reference.getvalue())
    assert terminations == {"converged", "diverged", "max-iterations"}
    # The cases reach every sign rule: a flow reversed on a pass, and a
    # zero flow after a negative one.
    assert any(re.search(r",-[1-9]", text) for text in texts)
    assert any(",-0.00," in text for text in texts)


class TestTrace:
    def test_column_count_is_iterations_plus_two(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        rows = trace_rows(report, gas_network)
        expected_cols = len(report.iterations) + 2
        assert all(len(row) == expected_cols for row in rows)
        assert len(rows) == 1 + len(gas_network.pipes)

    # A solver's report keeps its passes as arrays in its network's pipe
    # order; a copy keeps them as a list of states, and a network may list
    # the same pipes in another order.
    @pytest.mark.parametrize("copied", [False, True], ids=["history", "list"])
    def test_rows_follow_the_network_given(self, copied, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        if copied:
            report = copy.deepcopy(report)
            assert isinstance(report.iterations, list)
        turned = dataclasses.replace(gas_network, pipes=gas_network.pipes[::-1])
        for net in (gas_network, turned):
            assert trace_rows(report, net) == loop_trace_rows(report, net)
        assert trace_rows(report, turned)[1][0] == "15"

    def test_cells_match_reference_table(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        rows = trace_rows(report, gas_network)
        for row in rows[1:]:
            pid = int(row[0])
            cells = [float(c) for c in row[1:-1]]
            for got, want in zip(cells, tables.GAS_TRACE[pid]):
                assert got == pytest.approx(want, abs=1.0)

    def test_two_decimal_formatting(self, gas_network, tmp_path):
        report = solve_node_loop(gas_network, SolverConfig())
        out = tmp_path / "trace.csv"
        write_trace(report, gas_network, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("pipe,initial,1,")
        for cell in lines[1].split(",")[1:]:
            whole, frac = cell.split(".")
            assert len(frac) == 2


class TestFlowsCsv:
    def test_round_trip(self, gas_network, tmp_path):
        report = solve_node_loop(gas_network, SolverConfig())
        path = tmp_path / "flows.csv"
        write_flows_csv(report.final_flows, path)
        back = read_flows_csv(path)
        for pid, q in report.final_flows.as_m3h().items():
            assert back[pid] == pytest.approx(q, abs=1e-5)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(NetworkFileError, match="pipe,flow_m3h"):
            read_flows_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_flow_rejected(self, cell, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text(f"pipe,flow_m3h\n1,5.0\n2,{cell}\n")
        with pytest.raises(NetworkFileError, match="row 3: 'flow_m3h' must be finite"):
            read_flows_csv(path)

    def test_duplicate_pipe_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("pipe,flow_m3h\n1,5.0\n2,3.0\n1,999.0\n")
        with pytest.raises(NetworkFileError, match="row 4: second flow for pipe 1"):
            read_flows_csv(path)

    @pytest.mark.parametrize("content", UNREADABLE_TABLES.values(), ids=UNREADABLE_TABLES)
    def test_unreadable_table_rejected(self, content, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_bytes(content)
        with pytest.raises(NetworkFileError, match="flows.csv: unreadable table: "):
            read_flows_csv(path)

    def test_not_utf8_refused_alike_at_any_size(self, tmp_path):
        # A bad number before the first byte that is not UTF-8: the table
        # is refused as unreadable, also where the bad byte sits past the
        # first block that a lazy reader decodes.
        for good_rows in (0, 3000):
            content = b"pipe,flow_m3h\n1,x\n" + b"3,1.0\n" * good_rows + b"2,\xff\n"
            path = tmp_path / "flows.csv"
            path.write_bytes(content)
            with pytest.raises(NetworkFileError) as caught:
                read_flows_csv(path)
            position = content.index(b"\xff")
            assert str(caught.value) == (
                f"{path}: unreadable table: 'utf-8' codec can't decode byte 0xff in "
                f"position {position}: invalid start byte")

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_bytes(b"\xef\xbb\xbfpipe,flow_m3h\n1,5.0\n2,-2.5\n")
        assert read_flows_csv(path) == {1: 5.0, 2: -2.5}

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("pipe,flow_m3h\n1,5.0\n\n2,-2.5\n\n")
        assert read_flows_csv(path) == {1: 5.0, 2: -2.5}
        path.write_text("pipe,flow_m3h\n1,5.0\n\n2,x\n")
        with pytest.raises(NetworkFileError,
                           match="bad row 3: could not convert string to float: 'x'"):
            read_flows_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("pipe,flow_m3h\n1,5.0\n2\n")
        with pytest.raises(NetworkFileError,
                           match=r"flows.csv: bad row 3: float\(\) argument must be "
                                 r"a string or a (real )?number, not 'NoneType'"):
            read_flows_csv(path)

    def test_columns_found_by_name(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("flow_m3h,pipe\n5.0,1\n-2.5,2\n")
        assert read_flows_csv(path) == {1: 5.0, 2: -2.5}
        path.write_text("pipe,note,flow_m3h\n1,main,5.0\n2,,-2.5,spare\n")
        assert read_flows_csv(path) == {1: 5.0, 2: -2.5}
