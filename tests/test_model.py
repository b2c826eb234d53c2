"""Network model: validation, feasible starting patterns, unit handling."""

import copy
import dataclasses
import json
import math
import pickle
import random
from collections import Counter
from importlib import resources

import numpy as np
import pytest

from loopflow import model, topology
from loopflow.fileio import parse_network
from loopflow.model import (
    FlowState,
    FluidSpec,
    Network,
    NodeSpec,
    Pipe,
    PipeArrays,
    feasible_initial_flows,
    m3h_to_m3s,
    m3s_to_m3h,
    node_imbalances,
    spanning_tree,
    validate,
)
from loopflow.sizing import SizingConfig, optimize_diameters
from loopflow.solvers import METHODS, SolverConfig, select_basis, solve
from loopflow.topology import LoopBasis, derive_loop_basis

from conftest import incident_pipes, node_balance_residuals_m3h

WATER = FluidSpec(kind="water", density=1000.0, viscosity=0.00089)
GAS = FluidSpec(kind="gas", rel_density=0.6)


def square_net(fluid=WATER, demands=(-30.0, 10.0, 10.0, 10.0)):
    """Four nodes in a ring plus one diagonal: 5 pipes, 2 loops."""
    nodes = [NodeSpec(i + 1, d) for i, d in enumerate(demands)]
    pipes = [
        Pipe(1, 1, 2, 0.2, 50.0, 1e-5),
        Pipe(2, 2, 3, 0.2, 50.0, 1e-5),
        Pipe(3, 3, 4, 0.2, 50.0, 1e-5),
        Pipe(4, 4, 1, 0.2, 50.0, 1e-5),
        Pipe(5, 1, 3, 0.15, 70.0, 1e-5),
    ]
    return Network(pipes=pipes, nodes=nodes, fluid=fluid)


def disconnected_square():
    """`square_net` plus a separate two-node segment the reference node misses."""
    base = square_net()
    nodes = list(base.nodes) + [NodeSpec(5, 0.0), NodeSpec(6, 0.0)]
    pipes = list(base.pipes) + [Pipe(6, 5, 6, 0.2, 10.0)]
    return Network(pipes=pipes, nodes=nodes, fluid=WATER, reference_node=1)


def invalid_networks():
    """An unbalanced and a disconnected network, each with one violation."""
    return [pytest.param(square_net(demands=(-30.0, 10.0, 10.0, 20.0)), id="unbalanced"),
            pytest.param(disconnected_square(), id="disconnected")]


class TestValidate:
    def test_fixture_is_clean(self, gas_network, water_network):
        assert validate(gas_network) == []
        assert validate(water_network) == []

    def test_unbalanced_demands(self):
        net = square_net(demands=(-30.0, 10.0, 10.0, 20.0))
        violations = validate(net)
        assert any("unbalanced demands" in v for v in violations)

    def test_self_loop_pipe(self):
        pipes = [Pipe(1, 1, 1, 0.2, 50.0), Pipe(2, 1, 2, 0.2, 50.0),
                 Pipe(3, 2, 1, 0.2, 50.0)]
        nodes = [NodeSpec(1, -5.0), NodeSpec(2, 5.0)]
        net = Network(pipes=pipes, nodes=nodes, fluid=WATER)
        assert any("self-loop pipe 1" in v for v in validate(net))

    def test_unknown_endpoint(self):
        net = Network(pipes=[Pipe(1, 1, 9, 0.2, 50.0)],
                      nodes=[NodeSpec(1, 0.0)], fluid=WATER)
        assert any("unknown node" in v for v in validate(net))

    def test_bad_geometry(self):
        net = square_net()
        bad = Network(
            pipes=[Pipe(1, 1, 2, -0.2, 50.0)] + list(net.pipes[1:]),
            nodes=net.nodes, fluid=WATER)
        assert any("diameter" in v for v in validate(bad))

    def test_duplicate_ids(self):
        net = square_net()
        bad = Network(pipes=list(net.pipes) + [net.pipes[0]],
                      nodes=net.nodes, fluid=WATER)
        assert any("duplicate pipe id" in v for v in validate(bad))

    def test_fluid_requirements(self):
        net = square_net(fluid=FluidSpec(kind="gas"))
        assert any("rel_density" in v for v in validate(net))
        net = square_net(fluid=FluidSpec(kind="water", density=1000.0))
        assert any("viscosity" in v for v in validate(net))
        net = square_net(fluid=FluidSpec(kind="steam"))
        assert any("unknown fluid kind" in v for v in validate(net))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field, message", [
        ("diameter", "pipe 1 diameter must be finite"),
        ("length", "pipe 1 length must be finite"),
        ("roughness", "pipe 1 roughness must be finite"),
        ("demand_m3h", "node 1 demand must be finite"),
        ("density", "fluid density must be finite"),
        ("viscosity", "fluid viscosity must be finite"),
        ("rel_density", "fluid rel_density must be finite"),
        ("operating_pressure", "fluid operating_pressure must be finite"),
        ("normal_pressure", "fluid normal_pressure must be finite"),
        ("initial_flow", "initial flow of pipe 1 must be finite"),
    ])
    def test_non_finite_numbers(self, field, message, value):
        base = square_net()
        pipes, nodes, fluid = list(base.pipes), list(base.nodes), base.fluid
        initial = {p.id: 0.0 for p in pipes}
        if field in ("diameter", "length", "roughness"):
            pipes[0] = dataclasses.replace(pipes[0], **{field: value})
        elif field == "demand_m3h":
            nodes[0] = NodeSpec(1, value)
        elif field == "initial_flow":
            initial[1] = value
        else:
            fluid = dataclasses.replace(fluid, **{field: value})
        net = Network(pipes=pipes, nodes=nodes, fluid=fluid, initial_flows_m3h=initial)
        assert any(message in v for v in validate(net))

    def test_disconnected(self):
        assert any("disconnected" in v for v in validate(disconnected_square()))

    def test_tree_validates_and_solves(self):
        net = Network(pipes=[Pipe(1, 1, 2, 0.2, 50.0)],
                      nodes=[NodeSpec(1, -5.0), NodeSpec(2, 5.0)], fluid=WATER)
        assert validate(net) == []
        report = solve(net)
        assert report.termination == "converged"
        assert report.final_flows.flows == {1: m3h_to_m3s(5.0)}

    def test_missing_reference_node(self):
        base = square_net()
        net = Network(pipes=base.pipes, nodes=base.nodes, fluid=WATER,
                      reference_node=99)
        assert any("reference node" in v for v in validate(net))


def malformed_networks():
    """Networks `validate` must reject, each with every message it gives."""
    def pipes():
        return list(square_net().pipes)

    def nodes():
        return list(square_net().nodes)

    return [
        pytest.param(
            Network(pipes()[:4] + [Pipe(5, 1, 9, 0.2, 50.0), Pipe(6, 8, 7, 0.2, 50.0)],
                    nodes(), WATER),
            ["pipe 5 references unknown node 9", "pipe 6 references unknown node 8",
             "pipe 6 references unknown node 7"], id="unknown-ends"),
        pytest.param(
            Network(pipes() + [Pipe(5, 2, 4, 0.2, 50.0), Pipe(2, 2, 4, 0.2, 50.0)],
                    nodes() + [NodeSpec(3, 0.0), NodeSpec(2, 0.0)], WATER),
            ["duplicate node id 3", "duplicate node id 2", "duplicate pipe id 5",
             "duplicate pipe id 2"], id="duplicate-ids"),
        pytest.param(
            Network(pipes() + [Pipe(6, 3, 3, 0.2, 50.0)], nodes(), WATER),
            ["self-loop pipe 6 at node 3"], id="self-loop"),
        pytest.param(
            Network(pipes(), nodes(), WATER, reference_node=99),
            ["reference node 99 does not exist"], id="missing-reference"),
        pytest.param(
            Network(pipes(), [], WATER),
            [f"pipe {p.id} references unknown node {end}" for p in pipes()
             for end in (p.from_node, p.to_node)]
            + ["reference node None does not exist"], id="no-nodes"),
        pytest.param(
            Network([], nodes(), WATER),
            ["disconnected graph: cannot reach node(s) 1, 2, 3"], id="no-pipes"),
        pytest.param(Network([], [], WATER), ["reference node None does not exist"],
                     id="empty"),
        pytest.param(
            Network([Pipe(1, 1, 1, -0.2, math.nan, -1.0), Pipe(1, 2, "x", math.inf, 0.0)],
                    [NodeSpec(1, math.nan), NodeSpec(2, 1.0), NodeSpec(1, 2.0)], WATER,
                    reference_node="y", explicit_loops=[(1, -7)],
                    initial_flows_m3h={1: 0.0, 3: math.inf}),
            ["node 1 demand must be finite, got nan", "duplicate node id 1",
             "self-loop pipe 1 at node 1", "pipe 1 diameter must be > 0 m",
             "pipe 1 roughness must be >= 0 m", "pipe 1 length must be finite, got nan",
             "duplicate pipe id 1", "pipe 1 references unknown node 'x'",
             "pipe 1 length must be > 0 m", "pipe 1 diameter must be finite, got inf",
             "reference node 'y' does not exist", "loop 1 references unknown pipe 7",
             "initial flow given for unknown pipe 3",
             "initial flow of pipe 3 must be finite, got inf"], id="everything"),
    ]


@pytest.mark.parametrize("net, messages", malformed_networks())
def test_malformed_network_constructs_and_validate_names_every_fault(net, messages):
    assert validate(net) == messages


def test_connectivity_matches_a_walk():
    """Random graphs, many of them disconnected: the unreached nodes are
    those a plain walk from the reference node misses."""
    rng = random.Random(11)
    for _ in range(300):
        n_nodes = rng.randint(2, 12)
        ends = [tuple(rng.sample(range(1, n_nodes + 1), 2))
                for _ in range(rng.randint(n_nodes - 1, 2 * n_nodes))]
        net = Network(pipes=[Pipe(k, a, b, 0.2, 10.0) for k, (a, b) in enumerate(ends, 1)],
                      nodes=[NodeSpec(k, 0.0) for k in range(1, n_nodes + 1)],
                      fluid=WATER, reference_node=rng.randint(1, n_nodes))
        reached, stack = {net.reference_node}, [net.reference_node]
        while stack:
            node = stack.pop()
            for a, b in ends:
                for here, there in ((a, b), (b, a)):
                    if here == node and there not in reached:
                        reached.add(there)
                        stack.append(there)
        unreached = sorted(set(range(1, n_nodes + 1)) - reached, key=str)
        expected = [] if not unreached else [
            "disconnected graph: cannot reach node(s) " + ", ".join(map(str, unreached))]
        assert validate(net) == expected


class TestCheckedOnce:
    """A network checks itself on the first `validate` and keeps the result."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        """Per network, how often the record checks and the connectivity
        walk (the tree walk) ran."""
        counts = {"records": Counter(), "walk": Counter()}
        for name, kind in (("_record_violations", "records"), ("_grow_tree", "walk")):
            def counted(net, *args, check=getattr(model, name), kind=kind):
                counts[kind][id(net)] += 1
                return check(net, *args)
            monkeypatch.setattr(model, name, counted)
        return counts

    def test_each_check_runs_once_per_network(self, checks):
        net = parse_network(resources.files("loopflow").joinpath("data/fixture_gas.json"))
        for method in ("node-loop", "hardy-cross", "hardy-cross-improved"):
            assert solve(net, SolverConfig(method=method)).termination == "converged"
        fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in net.initial_flows_m3h.items()})
        optimize_diameters(net, select_basis(net), SizingConfig(fixed_flows=fixed))
        feasible_initial_flows(net)
        assert checks == {"records": {id(net): 1}, "walk": {id(net): 1}}

        duplicates = [dataclasses.replace(net), copy.copy(net), copy.deepcopy(net),
                      pickle.loads(pickle.dumps(net))]
        for duplicate in duplicates:
            assert duplicate == net and validate(duplicate) == [] and validate(duplicate) == []
        once = dict.fromkeys([id(net)] + [id(d) for d in duplicates], 1)
        assert checks == {"records": once, "walk": once}

    def test_initial_flows_are_read_only(self, gas_network):
        with pytest.raises(TypeError):
            gas_network.initial_flows_m3h[1] = 0.0
        given = {p.id: 0.0 for p in square_net().pipes}
        net = dataclasses.replace(square_net(), initial_flows_m3h=given)
        given[1] = math.nan
        assert net.initial_flows_m3h == dict.fromkeys(given, 0.0)
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(net)).initial_flows_m3h[1] = 0.0

    def test_returns_a_new_list_each_call(self):
        net = disconnected_square()
        first = validate(net)
        first.append("tampered")
        first[0] = "tampered"
        assert validate(net) == ["disconnected graph: cannot reach node(s) 5, 6"]
        assert validate(net) is not validate(net)


class TestTopologyKept:
    """A network grows its spanning tree, walks its fundamental cycles and
    finds its seed-0 start each once, when first asked for, and keeps them."""

    @pytest.fixture()
    def walks(self, monkeypatch):
        """Per network, how often the tree walk, the cycle walk and the
        tree flows ran."""
        counts = {"tree": Counter(), "cycles": Counter(), "flows": Counter()}
        for module, name, kind in ((model, "_grow_tree", "tree"),
                                   (topology, "_fundamental_cycles", "cycles"),
                                   (model, "_tree_flows", "flows")):
            def counted(net, *args, walk=getattr(module, name), kind=kind):
                counts[kind][id(net)] += 1
                return walk(net, *args)
            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.fixture()
    def derived_gas(self, tmp_path):
        """The gas fixture without its loops and initial flows, as a file."""
        data = json.loads(resources.files("loopflow").joinpath("data/fixture_gas.json")
                          .read_text())
        del data["loops"], data["initial_flows"]
        path = tmp_path / "derived_gas.json"
        path.write_text(json.dumps(data))
        return path

    def test_each_walk_runs_once_per_network(self, walks, derived_gas, gas_network):
        net = parse_network(derived_gas)
        reports = [solve(net, SolverConfig(method=method)) for method in METHODS]
        assert reports[0].termination == "converged"
        optimize_diameters(net, select_basis(net),
                           SizingConfig(fixed_flows=reports[0].final_flows))
        # Each method starts from the kept linear-theory start, which rests
        # on the seed-0 tree flows.
        start = feasible_initial_flows(net)
        kept = dict(zip(net.pipe_ids, net._linear_start.tolist()))
        assert all(report.iterations[0].flows == kept for report in reports)
        assert walks == {"tree": {id(net): 1}, "cycles": {id(net): 1}, "flows": {id(net): 1}}

        duplicates = [dataclasses.replace(net), copy.copy(net), copy.deepcopy(net),
                      pickle.loads(pickle.dumps(net))]
        for duplicate in duplicates:
            assert select_basis(duplicate) == select_basis(net)
            assert feasible_initial_flows(duplicate) == start
        once = dict.fromkeys([id(net)] + [id(d) for d in duplicates], 1)
        assert walks == {"tree": once, "cycles": once, "flows": once}

        # Explicit loops are checked once, on the kept tree, and never need
        # the cycles; flows from the file need no start.
        for counts in walks.values():
            counts.clear()
        fixture = copy.copy(gas_network)
        for method in METHODS:
            solve(fixture, SolverConfig(method=method))
        fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in fixture.initial_flows_m3h.items()})
        optimize_diameters(fixture, select_basis(fixture), SizingConfig(fixed_flows=fixed))
        assert validate(fixture) == []
        assert walks == {"tree": {id(fixture): 1}, "cycles": {}, "flows": {}}
        # Without its flows, the fixture starts from its loops' linear
        # theory, from the tree flows.
        unstarted = dataclasses.replace(fixture, initial_flows_m3h=None)
        for method in METHODS:
            solve(unstarted, SolverConfig(method=method))
        assert walks["cycles"] == {} and walks["flows"] == {id(unstarted): 1}

    def test_results_are_new_each_call(self):
        net = square_net()
        tree, start = spanning_tree(net), feasible_initial_flows(net)
        first_tree, first_start = list(tree), dict(start.flows)
        tree[0] = (9, 9)
        tree.append((7, 7))
        start.flows[1] = math.nan
        start.flows.pop(2)
        # The first iterate is the network's kept linear-theory start.
        solve(net).iterations[0].flows[3] = math.nan
        assert spanning_tree(net) == first_tree
        assert feasible_initial_flows(net).flows == first_start
        assert solve(net).iterations[0].flows == dict(zip(net.pipe_ids,
                                                          net._linear_start.tolist()))

    def test_kept_arrays_are_read_only(self):
        net = square_net()
        solve(net)
        basis = net._derived_basis
        kept = [net._demands, net._tree, basis.columns, basis.signs, basis.starts,
                net._start, net._linear_start]
        assert [a.dtype for a in kept] == [np.float64] + [np.int32] * 4 + [np.float64] * 2
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_a_disconnected_network_raises_each_time(self, walks):
        net = disconnected_square()
        for _ in range(2):
            assert validate(net) == ["disconnected graph: cannot reach node(s) 5, 6"]
            with pytest.raises(ValueError, match="disconnected graph"):
                spanning_tree(net)
            with pytest.raises(ValueError, match="disconnected graph"):
                derive_loop_basis(net)
            with pytest.raises(ValueError, match="disconnected graph"):
                feasible_initial_flows(net)
        # The network keeps the walk that stopped short, and each tree
        # request reads it and raises again.
        assert walks == {"tree": {id(net): 1}, "cycles": {}, "flows": {}}


class TestStoredArrays:
    @pytest.mark.parametrize("duplicate", [lambda net: net, copy.copy, copy.deepcopy,
                                           lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["network", "copy", "deepcopy", "pickle"])
    def test_read_only(self, duplicate, gas_network):
        net = duplicate(gas_network)
        assert net == gas_network
        # After a solve by each method, and after the derived loops and the
        # tree start were asked for, the network keeps every array it can.
        for method in METHODS:
            assert solve(net, SolverConfig(method=method)).termination == "converged"
        derive_loop_basis(net)
        feasible_initial_flows(net)
        kept = vars(net)
        assert {"_walk", "_derived_basis", "_start", "_explicit_basis",
                "_file_start"} <= kept.keys()
        arrays = PipeArrays.of(net)
        stored = [v for v in kept.values() if isinstance(v, np.ndarray)]
        stored += [a for v in kept.values() if isinstance(v, tuple)
                   for a in v if isinstance(a, np.ndarray)]
        # The kept bases' arrays: their loops and all they derived.
        stored += [a for v in kept.values() if isinstance(v, LoopBasis)
                   for a in vars(v).values() if isinstance(a, np.ndarray)]
        stored += [arrays.length, arrays.diameter, arrays.roughness]
        assert len(stored) >= 23
        for array in stored:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_replace_rebuilds_them(self):
        net = square_net()
        wider = dataclasses.replace(
            net, pipes=[dataclasses.replace(p, diameter=0.3) for p in net.pipes[:4]]
            + [Pipe(5, 2, 4, 0.15, 70.0)], reference_node=1)
        assert PipeArrays.of(net).diameter.tolist() == [0.2] * 4 + [0.15]
        assert PipeArrays.of(wider).diameter.tolist() == [0.3] * 4 + [0.15]
        assert [p.id for p in incident_pipes(wider)[2]] == [1, 2, 5]
        assert [p.id for p in incident_pipes(net)[2]] == [1, 2]
        assert [wider.nodes[i].id for i, _ in spanning_tree(wider)] == [2, 3, 4]
        assert [net.nodes[i].id for i, _ in spanning_tree(net)] == [3, 2, 1]


class TestReferenceNodeDefault:
    def test_highest_id_wins(self):
        net = square_net()
        assert net.reference_node == 4

    def test_fixture_reference(self, gas_network):
        assert gas_network.reference_node == "XI"


class TestFeasibleInitialFlows:
    def test_fixture_balances(self, gas_network):
        state = feasible_initial_flows(gas_network, seed=0)
        residuals = node_balance_residuals_m3h(gas_network, state.flows)
        assert max(abs(r) for r in residuals.values()) <= 1e-9 * 3600.0

    def test_seeds_differ_but_both_balance(self, gas_network):
        one = feasible_initial_flows(gas_network, seed=1)
        two = feasible_initial_flows(gas_network, seed=2)
        assert one.flows != two.flows
        for state in (one, two):
            residuals = node_balance_residuals_m3h(gas_network, state.flows)
            # residuals are m³/h here; the contract is 1e-9 m³/s
            assert max(abs(r) for r in residuals.values()) <= 1e-9 * 3600.0

    def test_zero_demand_network_gets_zero_flows(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        state = feasible_initial_flows(net, seed=0)
        assert all(q == 0.0 for q in state.flows.values())

    def test_nonzero_on_spanning_set(self, gas_network):
        state = feasible_initial_flows(gas_network, seed=0)
        nonzero = sum(1 for q in state.flows.values() if q != 0.0)
        # every tree pipe must carry demand; links are zero at seed 0
        assert nonzero >= len(gas_network.nodes) - 1

    def test_invalid_network_rejected(self):
        net = square_net(demands=(-30.0, 10.0, 10.0, 20.0))
        with pytest.raises(ValueError, match="unbalanced"):
            feasible_initial_flows(net, seed=0)

    @pytest.mark.parametrize("net", invalid_networks())
    def test_validates_first(self, net):
        with pytest.raises(ValueError, match="invalid network"):
            feasible_initial_flows(net, seed=0)

    def test_deterministic_per_seed(self, water_network):
        assert feasible_initial_flows(water_network, 5).flows == \
            feasible_initial_flows(water_network, 5).flows


def test_spanning_tree_of_unvalidated_disconnected_network_raises():
    with pytest.raises(ValueError, match="disconnected graph"):
        spanning_tree(disconnected_square())


def test_spanning_tree_names_a_missing_reference_node():
    base = square_net()
    net = Network(pipes=base.pipes, nodes=base.nodes, fluid=WATER, reference_node=99)
    with pytest.raises(ValueError, match="reference node 99 does not exist"):
        spanning_tree(net)


def test_pipe_lookup_of_an_unknown_id_raises():
    with pytest.raises(KeyError, match="no pipe 99 in network"):
        square_net().pipe(99)


def test_pressure_ratio_rescales_gas_velocities_only():
    assert GAS.pressure_ratio == 1e5 / 4e5
    assert WATER.pressure_ratio == 1.0


class TestUnits:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(1000):
            q = rng.uniform(-5000.0, 5000.0)
            back = m3s_to_m3h(m3h_to_m3s(q))
            assert back == pytest.approx(q, rel=1e-12)

    def test_flow_state_conversion(self):
        state = FlowState({1: 1.0, 2: -0.5})
        assert state.as_m3h() == {1: 3600.0, 2: -1800.0}


class TestFixtureDemands:
    def test_demands_balance_and_supply(self, gas_network):
        total = sum(n.demand_m3h for n in gas_network.nodes)
        assert abs(total) <= 1e-9
        supply = -min(n.demand_m3h for n in gas_network.nodes)
        # net injection at the supply node: 7000 in minus 60 consumed there
        assert supply == pytest.approx(6940.0)

    def test_node_imbalances_of_initial_pattern(self, gas_network):
        state = FlowState({pid: m3h_to_m3s(q) for pid, q
                           in gas_network.initial_flows_m3h.items()})
        worst = max(abs(r) for r in node_imbalances(gas_network, state).values())
        assert worst <= 1e-9


def hub_network(seed: int) -> Network:
    """200 pipes on 8 nodes, most of them ending at nodes 1 and 2 and many
    in parallel, plus one pipe whose tail names no node (unvalidated input)."""
    rng = random.Random(seed)
    nodes = [NodeSpec(i, rng.uniform(-50.0, 50.0)) for i in range(1, 9)]
    pipes = []
    for pid in range(1, 200):
        tail = rng.choice([1, 1, 1, 2, 2, rng.randint(1, 8)])
        head = rng.choice([n for n in range(1, 9) if n != tail])
        pipes.append(Pipe(pid, tail, head, 0.2, 100.0))
    pipes.append(Pipe(200, "nowhere", 1, 0.2, 100.0))
    rng.shuffle(pipes)
    return Network(pipes, nodes, WATER)


@pytest.mark.parametrize("seed", range(8))
def test_imbalances_add_in_pipe_order(seed):
    # Flows of both signs over 16 decades make every order of the additions
    # at a hub give other bits; the vectorized sum must give the loop's.
    net = hub_network(seed)
    rng = np.random.default_rng(seed)
    q = rng.choice([-1.0, 1.0], len(net.pipes)) * 10.0 ** rng.uniform(-8.0, 8.0, len(net.pipes))
    index = {n.id: i for i, n in enumerate(net.nodes)}
    expected = [-m3h_to_m3s(n.demand_m3h) for n in net.nodes]
    for p, flow in zip(net.pipes, q.tolist()):
        if p.to_node in index:
            expected[index[p.to_node]] += flow
        if p.from_node in index:
            expected[index[p.from_node]] -= flow
    assert max(len(pipes) for pipes in incident_pipes(net).values()) >= 80
    assert model._imbalances(net, q).tobytes() == np.array(expected).tobytes()


class TestFlowState:
    def test_max_change(self):
        a = FlowState({1: 1.0, 2: 2.0})
        b = FlowState({1: 1.0, 2: 2.001})
        assert a.max_change_m3h(b) == pytest.approx(3.6)

    def test_max_change_names_the_first_pipe_the_other_state_lacks(self):
        a = FlowState({1: 0.1, 3: 0.3, 2: 0.2})
        with pytest.raises(ValueError, match="^flow state has no flow for pipe 3$"):
            a.max_change_m3h(FlowState({1: 0.3}))

    def test_reversed_pipes_via_report(self):
        from loopflow.model import SolveReport
        report = SolveReport(
            method="node-loop",
            iterations=[FlowState({1: 1.0, 2: 1.0}), FlowState({1: 1.0, 2: -1.0})],
            loop_residuals=[[0.0], [0.0]],
            termination="converged")
        assert report.reversed_pipes() == {2}
        assert report.iteration_count == 1


class TestHistory:
    """A report's iterates and diameters are kept as arrays and read like lists."""

    @pytest.fixture(params=["iterations", "diameter_history"])
    def history(self, request, gas_network):
        report = solve(gas_network, SolverConfig(method="hardy-cross-improved"))
        if request.param == "iterations":
            return report.iterations, FlowState
        sizing = optimize_diameters(gas_network, select_basis(gas_network),
                                    SizingConfig(fixed_flows=report.iterations[2]))
        return sizing.diameter_history, dict

    def test_reads_like_the_list_of_its_entries(self, history):
        history, entry_type = history
        entries = list(history)
        assert len(entries) == len(history) >= 3
        assert all(type(entry) is entry_type for entry in entries)
        assert history[-1] == entries[-1] and history[-len(history)] == entries[0]
        assert history[1:] == entries[1:] and type(history[1:]) is list
        assert history[::-2] == entries[::-2]
        assert history == entries and entries == history
        assert history != entries[:-1] and history != tuple(entries)
        assert list(reversed(history)) == entries[::-1]
        with pytest.raises(IndexError):
            history[len(history)]

    def test_is_read_only(self, history):
        history, _ = history
        assert not hasattr(history, "append")
        with pytest.raises(TypeError):
            history[0] = history[1]

    def test_two_reads_of_an_entry_are_equal(self, history):
        history, _ = history
        assert history[1] == history[1] and history[-1] is history[len(history) - 1]

    def test_copies_and_pickles_are_lists(self, history):
        history, _ = history
        for duplicate in (copy.copy(history), pickle.loads(pickle.dumps(history))):
            assert type(duplicate) is list and duplicate == history
