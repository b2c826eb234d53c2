"""Properties of the Newton methods on random street grids and ringed mains
drawn from the benchmark's generators (`perfbench/networks.py`), and of the
file readers on mutated networks and random flow tables."""

import copy
import csv
import dataclasses
import io
import json
import math
import random
from importlib import resources
from unittest import mock

import pytest

from loopflow import fileio
from loopflow.fileio import NetworkFileError, network_from_dict, read_flows_csv
from loopflow.model import FlowState, Network, feasible_initial_flows
from loopflow.sizing import SizingConfig, SizingInfeasibleError, optimize_diameters
from loopflow.solvers import (HARDY_CROSS, HARDY_CROSS_IMPROVED, METHODS, NODE_LOOP,
                              SolverConfig, select_basis, solve)

from conftest import field_types, node_balance_residuals_m3h, perfbench_networks

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def meshed_networks(draw, max_side=6, max_ring=40):
    networks = perfbench_networks()
    kind = draw(st.sampled_from(["gas", "water"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        raw = networks.grid(draw(st.integers(2, max_side)), draw(st.integers(2, max_side)),
                            kind, rng)
    else:
        raw = networks.ring_with_chords(draw(st.integers(6, max_ring)), draw(st.integers(1, 8)),
                                        kind, rng)
    return network_from_dict(raw)


def worst_imbalance_m3s(net: Network, flows: dict) -> float:
    return max(map(abs, node_balance_residuals_m3h(net, flows).values())) / 3600.0


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(meshed_networks())
def test_node_loop_and_improved_hardy_cross_take_the_same_passes(net):
    # Both are Newton's method on the loop equations from the same start,
    # so they agree pass by pass, and every pass balances every node.
    node_loop = solve(net, SolverConfig(method=NODE_LOOP))
    improved = solve(net, SolverConfig(method=HARDY_CROSS_IMPROVED))
    assert node_loop.termination == improved.termination == "converged"
    assert node_loop.iteration_count == improved.iteration_count
    for a, b in zip(node_loop.iterations, improved.iterations):
        assert max(abs(a[pid] - b[pid]) for pid in net.pipe_ids) * 3600.0 <= 1e-6
        assert max(worst_imbalance_m3s(net, state.flows) for state in (a, b)) <= 1e-9


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(meshed_networks(max_side=8, max_ring=120))
def test_every_kept_pass_of_original_hardy_cross_balances_every_node(net):
    # q += BᵀΔ moves flow only around loops, so a pass keeps the balances
    # of the start, whether the run converges, stalls or diverges (up to
    # 8 x 8 grids and 120-node rings, where it does all three).
    report = solve(net, SolverConfig(method=HARDY_CROSS))
    for state in report.iterations:
        assert worst_imbalance_m3s(net, state.flows) <= 1e-9


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(meshed_networks())
def test_node_loop_meets_continuity_after_one_pass_from_an_unbalanced_start(net):
    # The continuity rows of the stacked system hold whatever the start.
    start = {pid: q + 0.01 * (i % 3)
             for i, (pid, q) in enumerate(feasible_initial_flows(net).flows.items())}
    report = solve(net, SolverConfig(method=NODE_LOOP), FlowState(start))
    assert worst_imbalance_m3s(net, start) > 1e-3
    assert report.iteration_count >= 1
    for state in report.iterations[1:]:
        assert worst_imbalance_m3s(net, state.flows) <= 1e-9


def renumbered(net: Network, rng: random.Random) -> tuple[Network, dict]:
    """`net` with its pipe ids and node ids shuffled, the ends and the
    reference node mapped with them and the records in a new order, and
    the map from old to new pipe ids."""
    pipe_ids = dict(zip(net.pipe_ids, rng.sample(net.pipe_ids, len(net.pipes))))
    node_ids = dict(zip(net.node_ids, rng.sample(net.node_ids, len(net.nodes))))
    pipes = [dataclasses.replace(p, id=pipe_ids[p.id], from_node=node_ids[p.from_node],
                                 to_node=node_ids[p.to_node]) for p in net.pipes]
    nodes = [dataclasses.replace(n, id=node_ids[n.id]) for n in net.nodes]
    rng.shuffle(pipes)
    rng.shuffle(nodes)
    return Network(pipes, nodes, net.fluid, reference_node=node_ids[net.reference_node]), \
        pipe_ids


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(meshed_networks(), st.randoms(use_true_random=False))
def test_renumbering_leaves_the_flows_unchanged(net, rng):
    # Other ids grow another spanning tree, so the start, the loops and the
    # path differ; only flows converged tightly agree.
    other, pipe_ids = renumbered(net, rng)
    for method in (NODE_LOOP, HARDY_CROSS_IMPROVED):
        config = SolverConfig(method=method, flow_tolerance_m3h=1e-7, residual_tolerance=1e-3)
        first, second = solve(net, config), solve(other, config)
        assert first.termination == second.termination == "converged"
        flows, renumbered_flows = first.final_flows.as_m3h(), second.final_flows.as_m3h()
        assert max(abs(q - renumbered_flows[pipe_ids[pid]]) for pid, q in flows.items()) <= 1e-5


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
@hypothesis.given(meshed_networks(), st.randoms(use_true_random=False),
                  st.sampled_from([200, 1]),
                  st.sampled_from([(0.01, 2.0), (0.08, 0.12)]))
def test_a_stop_reason_exactly_when_not_converged(net, rng, max_iterations, bounds):
    for method in METHODS:
        report = solve(net, SolverConfig(method=method))
        assert (report.stop_reason == "") == (report.termination == "converged")
    # Sizing from the converged flows, with diameters off by -30% to +40%,
    # few or many passes and wide or narrow bounds, ends in every way.
    flows = report.final_flows
    pipes = [dataclasses.replace(p, diameter=p.diameter * rng.uniform(0.7, 1.4))
             for p in net.pipes]
    sized = dataclasses.replace(net, pipes=pipes)
    config = SizingConfig(flows, bounds, max_iterations=max_iterations)
    try:
        report = optimize_diameters(sized, select_basis(sized), config)
    except SizingInfeasibleError:
        hypothesis.reject()    # a loop pipe without flow
    assert (report.stop_reason == "") == (report.termination == "converged")


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(fluid=st.sampled_from(["gas", "water"]), index=st.integers(0, 14),
                  diameter=st.sampled_from([1e-310, 1e-306, 1e-300, 1e-3, 1.0, 1e300]),
                  roughness=st.sampled_from([0.0, 2e-5, 1.0]))
def test_no_solve_raises_on_extreme_geometry(gas_network, water_network, fluid, index,
                                             diameter, roughness):
    # Drops that overflow, Reynolds numbers that overflow and subnormal
    # diameters end a run as one of its terminations, with or without a
    # reason, and warn nothing.
    net = gas_network if fluid == "gas" else water_network
    pipes = list(net.pipes)
    pipes[index] = dataclasses.replace(pipes[index], diameter=diameter, roughness=roughness)
    net = dataclasses.replace(net, pipes=pipes)
    for method in METHODS:
        report = solve(net, SolverConfig(method=method))
        assert report.termination in ("converged", "max-iterations", "singular-system",
                                      "diverged")
        assert (report.stop_reason == "") == (report.termination == "converged")


def reader_bases() -> list[dict]:
    """The gas fixture (string node ids, explicit loops, initial flows) and
    a small water grid (integer ids) given a balanced initial flow pattern."""
    gas = json.loads(resources.files("loopflow").joinpath("data/fixture_gas.json").read_text())
    networks, rng = perfbench_networks(), random.Random(0)
    grid = networks.grid(3, 4, "water", rng)
    grid["initial_flows"] = [{"pipe": pid, "flow_m3h": q}
                             for pid, q in networks.balanced_flows(grid, rng).items()]
    return [gas, grid]


# Values a mutation gives a key or puts in place of a record: every kind
# the readers take or reject, and numbers at the edges of a float.
ODD_VALUES = [True, False, None, [1], {"id": 1}, 0, -3, 2.5, -0.0, "", "I", "XI", "é", "\ud800",
              "x\udfff", math.nan, math.inf, -math.inf, 1e400, 10**400, -(10**400),
              2**53 + 1, -(2**53 + 1), 2**64 + 1, 5e-324]


@st.composite
def mutated_networks(draw):
    raw = copy.deepcopy(draw(st.sampled_from(reader_bases())))
    values = st.sampled_from(ODD_VALUES) | st.sampled_from(ODD_VALUES) | st.integers() | st.floats()
    for _ in range(draw(st.integers(1, 2))):
        records = raw[draw(st.sampled_from(["nodes", "pipes", "initial_flows"]))]
        k = draw(st.integers(0, len(records) - 1))
        action = draw(st.sampled_from(["set"] * 6 + ["delete", "extra", "replace", "repeat"]))
        if action == "replace":
            records[k] = draw(st.sampled_from(ODD_VALUES))
        elif action == "repeat":
            records.append(copy.deepcopy(records[k]))
        elif isinstance(records[k], dict) and records[k]:
            if action == "extra":
                records[k]["extra"] = 1.0
            elif action == "delete":
                del records[k][draw(st.sampled_from(sorted(records[k])))]
            else:
                records[k][draw(st.sampled_from(sorted(records[k])))] = draw(values)
    return raw


def read_network(raw: dict):
    try:
        return network_from_dict(raw)
    except NetworkFileError as exc:
        return str(exc)


def assert_column_path_reads_as_the_record_path(raw: dict) -> None:
    # The record path, which names the first bad record, is the oracle:
    # the same network, field types included, or the same message.
    by_column = read_network(raw)
    with mock.patch.object(fileio, "_columns", return_value=None):
        by_record = read_network(raw)
    assert by_column == by_record
    if not isinstance(by_column, str):
        assert field_types(by_column) == field_types(by_record)


def test_column_path_reads_every_single_mutation_as_the_record_path():
    for base in reader_bases():
        for section in ("nodes", "pipes", "initial_flows"):
            record = base[section][1]
            mutations = [{**record, "extra": 1.0}]
            mutations += [{k: v for k, v in record.items() if k != key} for key in record]
            mutations += [{**record, key: value} for key in record for value in ODD_VALUES]
            for mutation in mutations + ODD_VALUES:
                raw = copy.deepcopy(base)
                raw[section][1] = mutation
                assert_column_path_reads_as_the_record_path(raw)


@hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
@hypothesis.given(mutated_networks())
def test_column_path_reads_mutated_networks_as_the_record_path(raw):
    assert_column_path_reads_as_the_record_path(raw)


def dict_reader_flows(path) -> dict | str:
    """The flow table decoded whole, then read row by row through
    `csv.DictReader`: the flows, or the message, that `read_flows_csv`
    must give."""
    flows = {}
    try:
        text = path.read_bytes().decode("utf-8-sig")
        reader = csv.DictReader(io.StringIO(text, newline=""))
        if reader.fieldnames is None or {"pipe", "flow_m3h"} - set(reader.fieldnames):
            return f"{path}: expected CSV header with columns 'pipe,flow_m3h'"
        for i, row in enumerate(reader, start=2):
            try:
                pid, flow = int(row["pipe"]), float(row["flow_m3h"])
            except (TypeError, ValueError) as exc:
                return f"{path}: bad row {i}: {exc}"
            if not math.isfinite(flow):
                return f"{path}: row {i}: 'flow_m3h' must be finite, got {flow!r}"
            if pid in flows:
                return f"{path}: row {i}: second flow for pipe {pid}"
            flows[pid] = flow
    except (csv.Error, UnicodeDecodeError) as exc:
        return f"{path}: unreadable table: {exc}"
    return flows


# Cells of a flow table: integers and numbers in the forms `int` and
# `float` take or refuse, and text.
CSV_CELLS = ["1", "2", "3", "4", "5", "6", "-7", " 8", "1_0", "5.0", "-2.5e3", "1e400", "nan",
             "-inf", "0x1", "x", "", '"2"', "\u00e9"]


@st.composite
def flow_tables(draw) -> bytes:
    """A header of the two columns, an extra one and repeats in any order,
    then rows of any length (an empty one is a blank line)."""
    header = draw(st.lists(st.sampled_from(["pipe", "flow_m3h", "note"]), max_size=4))
    cells = st.sampled_from(CSV_CELLS)
    row = st.lists(cells, min_size=len(header), max_size=len(header)) | st.lists(cells, max_size=4)
    rows = draw(st.lists(row, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + end.join(",".join(row) for row in [header, *rows]) + end).encode()


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "flows.csv"


@hypothesis.settings(max_examples=600, deadline=None, derandomize=True)
@hypothesis.given(flow_tables() | st.binary(max_size=60))
def test_flow_table_reads_as_dict_reader_or_raises_network_file_error(table_path, content):
    table_path.write_bytes(content)
    try:
        got = read_flows_csv(table_path)
    except NetworkFileError as exc:
        got = str(exc)
    assert got == dict_reader_flows(table_path)
