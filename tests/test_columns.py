"""A network read from a file keeps the reader's columns and builds its
`pipes` and `nodes` records only when they are read; it must be the same
network as one built from records, valid or not."""

import copy
import dataclasses
import json
import pickle
import random

import pytest

from loopflow import cli, sizing, solvers
from loopflow.fileio import network_from_dict, parse_network
from loopflow.model import Network, NodeSpec, Pipe, PipeArrays, validate
from loopflow.solvers import METHODS, SolverConfig, solve

from conftest import field_types, perfbench_networks
from test_fileio import fixture_dict, mixed_node_ids_dict

# Every array a network keeps, by attribute; `PipeArrays` by its fields.
KEPT_ARRAYS = ("_ends", "_incident_start", "_incident", "_id_order", "_id_rank", "_demands")


def record_network(raw: dict) -> Network:
    """The network of a file's data, built from records by the constructor,
    with each number converted as the reader converts it."""
    pipes = [Pipe(p["id"], p["from"], p["to"], float(p["diameter_m"]), float(p["length_m"]),
                  float(p.get("roughness_m", 0.0))) for p in raw["pipes"]]
    nodes = [NodeSpec(n["id"], float(n["demand_m3h"])) for n in raw["nodes"]]
    flows = raw.get("initial_flows")
    return Network(pipes, nodes, network_from_dict(raw).fluid,
                   explicit_loops=raw.get("loops"), reference_node=raw.get("reference_node"),
                   initial_flows_m3h=flows and {f["pipe"]: float(f["flow_m3h"]) for f in flows})


def generated(shape: str, kind: str = "gas", seed: int = 0) -> dict:
    networks, rng = perfbench_networks(), random.Random(seed)
    if shape == "grid":
        return networks.grid(6, 7, kind, rng)
    if shape == "ring":
        return networks.ring_with_chords(40, 9, kind, rng)
    return networks.tree_with_closures(120, 4, kind, rng)


def string_ids(raw: dict) -> dict:
    """`raw` with every node id written as a string, "n<id>"."""
    raw = copy.deepcopy(raw)
    for node in raw["nodes"]:
        node["id"] = f"n{node['id']}"
    for pipe in raw["pipes"]:
        pipe["from"], pipe["to"] = f"n{pipe['from']}", f"n{pipe['to']}"
    return raw


def network_data():
    return [pytest.param(fixture_dict("fixture_gas.json"), id="gas-fixture"),
            pytest.param(fixture_dict("fixture_water.json"), id="water-fixture"),
            pytest.param(mixed_node_ids_dict(), id="mixed-ids"),
            pytest.param(string_ids(generated("grid", "water")), id="string-ids"),
            *(pytest.param(generated(shape, kind, seed), id=f"{shape}-{kind}-{seed}")
              for shape in ("grid", "ring", "tree") for kind in ("gas", "water")
              for seed in (0, 1))]


def assert_same_arrays(net: Network, other: Network) -> None:
    for name in KEPT_ARRAYS:
        a, b = getattr(net, name), getattr(other, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    mine, theirs = PipeArrays.of(net), PipeArrays.of(other)
    assert mine.ids == theirs.ids
    for name in ("length", "diameter", "roughness"):
        a, b = getattr(mine, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert net._reference_index == other._reference_index
    assert net.node_ids == other.node_ids and net.pipe_ids == other.pipe_ids
    assert net.loop_count == other.loop_count


@pytest.mark.parametrize("raw", network_data())
def test_a_network_read_as_columns_is_the_network_of_its_records(raw):
    net, twin = network_from_dict(raw), record_network(raw)
    assert "pipes" not in vars(net) and "nodes" not in vars(net)
    assert_same_arrays(net, twin)
    assert validate(net) == validate(twin) == []
    # Until here, the columns answered; equality reads the records.
    assert "pipes" not in vars(net) and "nodes" not in vars(net)
    assert net == twin and repr(net) == repr(twin)
    assert net.pipes == twin.pipes and net.nodes == twin.nodes
    assert field_types(net) == field_types(twin)
    assert net.pipes is net.pipes and net.nodes is net.nodes
    for duplicate in (copy.copy, copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n)),
                      dataclasses.replace):
        fresh = network_from_dict(raw)
        assert duplicate(fresh) == twin
        assert_same_arrays(duplicate(fresh), twin)


def test_replace_of_a_column_network_changes_only_what_it_names():
    net = network_from_dict(generated("grid"))
    wider = dataclasses.replace(net, pipes=[dataclasses.replace(p, diameter=0.5)
                                            for p in net.pipes])
    assert PipeArrays.of(wider).diameter.tolist() == [0.5] * len(net.pipes)
    assert wider.nodes == net.nodes and wider._ends.tobytes() == net._ends.tobytes()


@pytest.fixture
def records_built(monkeypatch):
    """The `Pipe` and `NodeSpec` records constructed while the test runs."""
    built = {"Pipe": 0, "NodeSpec": 0}
    for cls in (Pipe, NodeSpec):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("shape, kind", [("tree", "gas"), ("grid", "water")])
def test_reading_checking_solving_and_sizing_a_file_builds_no_record(
        shape, kind, tmp_path, records_built, capsys):
    raw = generated(shape, kind)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["check", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(f"{len(raw['pipes'])} pipes, "
                                              f"{len(raw['nodes'])} nodes")
    net = parse_network(path)
    assert validate(net) == []
    for method in METHODS:
        report = solve(net, SolverConfig(method=method))
    assert report.termination == "converged"
    sized = sizing.optimize_diameters(net, solvers.select_basis(net),
                                      sizing.SizingConfig(fixed_flows=report.final_flows))
    assert sized.diameters
    source = min(raw["nodes"], key=lambda n: n["demand_m3h"])["id"]
    pressures = solvers.propagate_pressures(net, report.final_flows, source, 4e5)
    assert len(pressures) == len(raw["nodes"])
    assert records_built == {"Pipe": 0, "NodeSpec": 0}
    # Read at last, the records are the record-built network's.
    twin = record_network(raw)
    assert net.pipes == twin.pipes and net.nodes == twin.nodes


def test_checking_a_file_with_explicit_loops_builds_no_record(tmp_path, records_built, capsys):
    path = tmp_path / "gas.json"
    path.write_text(json.dumps(fixture_dict("fixture_gas.json")))
    assert cli.main(["check", str(path)]) == cli.EXIT_OK
    assert "explicit loops: 5 valid" in capsys.readouterr().out
    assert records_built == {"Pipe": 0, "NodeSpec": 0}


def square(n: int = 4) -> dict:
    """A ring of n nodes and n pipes, pipe k from node k, as file data;
    node 1 supplies 10 m³/h to each other node."""
    return {"fluid": {"kind": "water", "density_kg_m3": 1000.0, "viscosity_pa_s": 0.001},
            "nodes": [{"id": k, "demand_m3h": -10.0 * (n - 1) if k == 1 else 10.0}
                      for k in range(1, n + 1)],
            "pipes": [{"id": k, "from": k, "to": k % n + 1, "diameter_m": 0.2, "length_m": 50.0}
                      for k in range(1, n + 1)]}


def with_faults(*edits) -> dict:
    raw = square()
    for section, k, key, value in edits:
        if k is None:
            raw[section].append(value)
        else:
            raw[section][k][key] = value
    return raw


EXTRA_PIPE = {"id": 5, "from": 1, "to": 3, "diameter_m": 0.2, "length_m": 50.0}
INVALID = {
    "duplicate-node-id": (with_faults(("nodes", 3, "id", 2)), [
        "duplicate node id 2", "pipe 3 references unknown node 4",
        "pipe 4 references unknown node 4"]),
    "duplicate-pipe-id": (with_faults(("pipes", None, None, {**EXTRA_PIPE, "id": 2})),
                          ["duplicate pipe id 2"]),
    "self-loop": (with_faults(("pipes", 1, "to", 2)), ["self-loop pipe 2 at node 2"]),
    "unknown-end": (with_faults(("pipes", 0, "to", 9)), ["pipe 1 references unknown node 9"]),
    "unknown-ends": (with_faults(("pipes", 0, "from", 8), ("pipes", 0, "to", 9)),
                     ["pipe 1 references unknown node 8", "pipe 1 references unknown node 9"]),
    "zero-diameter": (with_faults(("pipes", 2, "diameter_m", 0.0)),
                      ["pipe 3 diameter must be > 0 m"]),
    "zero-length": (with_faults(("pipes", 2, "length_m", 0)), ["pipe 3 length must be > 0 m"]),
    "negative-roughness": (with_faults(("pipes", 3, "roughness_m", -1e-5)),
                           ["pipe 4 roughness must be >= 0 m"]),
    "several": (with_faults(("pipes", 0, "length_m", -1.0), ("pipes", 1, "to", 2),
                            ("pipes", 3, "diameter_m", 0.0), ("nodes", 1, "id", 1),
                            ("pipes", None, None, {**EXTRA_PIPE, "id": 1})), [
        "duplicate node id 1", "pipe 1 references unknown node 2",
        "pipe 1 length must be > 0 m", "self-loop pipe 2 at node 2",
        "pipe 2 references unknown node 2", "pipe 2 references unknown node 2",
        "pipe 4 diameter must be > 0 m", "duplicate pipe id 1"]),
    "unbalanced": (with_faults(("nodes", 0, "demand_m3h", -29.5)),
                   ["unbalanced demands: node demands sum to +0.5 m3/h, expected 0"]),
    "disconnected": (with_faults(("pipes", 1, "to", 1), ("pipes", 3, "to", 3)),
                     ["disconnected graph: cannot reach node(s) 1, 2"]),
}


@pytest.mark.parametrize("raw, messages", INVALID.values(), ids=INVALID)
def test_an_invalid_network_read_as_columns_gives_the_records_messages(raw, messages):
    net = network_from_dict(raw)
    assert validate(net) == validate(record_network(raw)) == messages
    assert validate(network_from_dict(string_ids(raw))) == \
        validate(record_network(string_ids(raw)))


def test_the_demand_sum_is_summed_in_node_order():
    # In node order 1e16 + 1 rounds back to 1e16, so the sum is 0.5: not
    # 1.5 (exact), nor 0.0 (numpy's pairwise sum, which loses the 0.5 too).
    raw = square(9)
    for node, demand in zip(raw["nodes"], (1e16, 1.0, -1e16, 0.5, 0, 0, 0, 0, 0)):
        node["demand_m3h"] = demand
    assert validate(network_from_dict(raw)) == validate(record_network(raw)) == [
        "unbalanced demands: node demands sum to +0.5 m3/h, expected 0"]

