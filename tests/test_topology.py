"""Node matrix and loop basis construction, with exact-arithmetic oracles."""

import copy
import dataclasses
import itertools
import random
from collections import Counter

import numpy as np
import pytest
import sympy

from loopflow.fileio import network_from_dict
from loopflow.model import (FlowState, Network, NodeSpec, Pipe, feasible_initial_flows,
                            m3h_to_m3s, node_imbalances, spanning_tree, validate)
from loopflow.solvers import solve
from loopflow.topology import (
    _gf2_rank,
    adopt_explicit_loops,
    build_node_matrix,
    derive_loop_basis,
    exact_rank,
)

from conftest import incident_pipes, matrix_by_pipe_id, perfbench_networks
from test_model import WATER, square_net
from test_solvers import face_loops, perfbench_grid


def random_mesh(seed: int) -> Network:
    """Small connected network with shuffled pipe ids, orientations and
    reference node; parallel pipes are allowed."""
    rng = random.Random(seed)
    n_nodes = rng.randint(3, 8)
    ends = [(rng.randint(1, k - 1), k) for k in range(2, n_nodes + 1)]
    for _ in range(rng.randint(1, 5)):
        ends.append(tuple(rng.sample(range(1, n_nodes + 1), 2)))
    rng.shuffle(ends)
    ids = rng.sample(range(1, 4 * len(ends)), len(ends))
    pipes = [Pipe(pid, *(e if rng.random() < 0.5 else e[::-1]), 0.2, 100.0)
             for pid, e in zip(ids, ends)]
    return Network(pipes=pipes,
                   nodes=[NodeSpec(k, 0.0) for k in range(1, n_nodes + 1)],
                   fluid=WATER, reference_node=rng.randint(1, n_nodes))


def brute_force_spanning_tree(net: Network):
    """The tree rule by exhaustive search: on every step, scan the pipes of
    every visited node and take the lowest id that reaches a new node."""
    incident = incident_pipes(net)
    visited = [net.reference_node]
    attach_order = []
    while len(visited) < len(net.nodes):
        pipe = min((p for node in visited for p in incident[node]
                    if not {p.from_node, p.to_node} <= set(visited)),
                   key=lambda p: p.id)
        new_node = pipe.to_node if pipe.from_node in visited else pipe.from_node
        visited.append(new_node)
        attach_order.append((new_node, pipe))
    return [p for _, p in attach_order], attach_order


def brute_force_loops(net: Network):
    """Fundamental cycles of the brute-force tree: each link with sign +1,
    then the tree path from its head to its tail, found by search."""
    tree, _ = brute_force_spanning_tree(net)

    def path(node, goal, used):
        if node == goal:
            return []
        for p in tree:
            if p.id not in used and node in (p.from_node, p.to_node):
                other = p.to_node if p.from_node == node else p.from_node
                rest = path(other, goal, used | {p.id})
                if rest is not None:
                    return [(p.id, 1 if p.from_node == node else -1)] + rest
        return None

    links = sorted((p for p in net.pipes if p not in tree), key=lambda p: p.id)
    return tuple(((link.id, 1), *path(link.to_node, link.from_node, set()))
                 for link in links)


def with_demands(net: Network, seed: int) -> Network:
    """`net` with random whole-number demands that balance exactly."""
    rng = random.Random(seed)
    demands = [float(rng.randint(-50, 50)) for _ in net.nodes[1:]]
    return dataclasses.replace(net, nodes=[NodeSpec(n.id, d) for n, d in
                                           zip(net.nodes, [-sum(demands)] + demands)])


def per_pipe_incidence(net: Network):
    incident = {n.id: [] for n in net.nodes}
    for p in net.pipes:
        incident[p.from_node].append(p)
        incident[p.to_node].append(p)
    return incident


def per_pipe_imbalances(net: Network, flows: dict):
    residual = {n.id: -m3h_to_m3s(n.demand_m3h) for n in net.nodes}
    for p in net.pipes:
        residual[p.to_node] += flows[p.id]
        residual[p.from_node] -= flows[p.id]
    return residual


def per_pipe_node_matrix(net: Network):
    row_nodes = [n.id for n in net.nodes if n.id != net.reference_node]
    row = {nid: i for i, nid in enumerate(row_nodes)}
    entries = np.zeros((len(row_nodes), len(net.pipes)))
    for j, p in enumerate(net.pipes):
        if p.to_node in row:
            entries[row[p.to_node], j] = 1.0
        if p.from_node in row:
            entries[row[p.from_node], j] = -1.0
    return entries


def per_pipe_start(net: Network, seed: int):
    """The feasible start by back-substitution over the brute-force tree,
    leaves inward, summing each node's known pipes in incidence order."""
    tree, attach_order = brute_force_spanning_tree(net)
    tree_ids = {p.id for p in tree}
    scale = max(abs(n.demand_m3h) for n in net.nodes)
    rng = random.Random(seed)
    flows = {p.id: 0.0 if seed == 0 else m3h_to_m3s(rng.uniform(-scale, scale) / 2.0)
             for p in net.pipes if p.id not in tree_ids}
    incident = per_pipe_incidence(net)
    demand = {n.id: n.demand_m3h for n in net.nodes}
    for node, parent in reversed(attach_order):
        known = 0.0
        for p in incident[node]:
            if p.id != parent.id:
                known += (1.0 if p.to_node == node else -1.0) * flows[p.id]
        residual = m3h_to_m3s(demand[node]) - known
        flows[parent.id] = residual if parent.to_node == node else -residual
    return flows


@pytest.mark.parametrize("seed", range(50))
def test_index_space_matches_per_pipe_definitions(seed):
    net = with_demands(random_mesh(seed), seed)
    assert incident_pipes(net) == per_pipe_incidence(net)
    rng = random.Random(seed)
    flows = {p.id: rng.uniform(-1.0, 1.0) for p in net.pipes}
    assert node_imbalances(net, FlowState(flows)) == per_pipe_imbalances(net, flows)
    assert np.array_equal(build_node_matrix(net), per_pipe_node_matrix(net))
    for start_seed in (0, 7):
        assert feasible_initial_flows(net, start_seed).flows == per_pipe_start(net, start_seed)


class TestNodeMatrix:
    def test_fixture_shape(self, gas_network):
        nm = build_node_matrix(gas_network)
        assert nm.shape == (10, 15)
        # Rows I to X in node order; XI is the reference node.
        assert np.array_equal(nm, per_pipe_node_matrix(gas_network))

    def test_fixture_first_row(self, gas_network):
        nm = build_node_matrix(gas_network)
        expected = np.zeros(15)
        for pid in (3, 4, 14):
            expected[pid - 1] = -1.0
        assert np.array_equal(nm[0], expected)

    def test_column_structure(self, gas_network):
        nm = build_node_matrix(gas_network)
        for j in range(nm.shape[1]):
            column = nm[:, j]
            assert np.count_nonzero(column) <= 2
            assert set(np.unique(column)).issubset({-1.0, 0.0, 1.0})

    def test_rows_linearly_independent(self, gas_network):
        nm = build_node_matrix(gas_network)
        assert sympy.Matrix(nm.astype(int)).rank() == 10

    def test_two_node_single_pipe(self):
        net = Network(pipes=[Pipe(1, 1, 2, 0.2, 10.0)],
                      nodes=[NodeSpec(1, -5.0), NodeSpec(2, 5.0)],
                      fluid=WATER, reference_node=2)
        nm = build_node_matrix(net)
        assert nm.tolist() == [[-1.0]]


class TestDeriveLoopBasis:
    def test_fixture_loop_count(self, gas_network):
        basis = derive_loop_basis(gas_network)
        assert len(basis) == 5

    def test_full_rank_by_exact_elimination(self, gas_network):
        basis = derive_loop_basis(gas_network)
        rows = [[int(v) for v in row]
                for row in matrix_by_pipe_id(gas_network, basis)]
        assert exact_rank(rows) == 5
        assert sympy.Matrix(rows).rank() == 5

    def test_tree_network_has_empty_basis(self):
        net = Network(
            pipes=[Pipe(1, 1, 2, 0.2, 10.0), Pipe(2, 2, 3, 0.2, 10.0)],
            nodes=[NodeSpec(1, -5.0), NodeSpec(2, 0.0), NodeSpec(3, 5.0)],
            fluid=WATER)
        assert len(derive_loop_basis(net)) == 0

    def test_deterministic(self, water_network):
        assert derive_loop_basis(water_network).loops == \
            derive_loop_basis(water_network).loops

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_brute_force_tree_rule(self, seed):
        net = random_mesh(seed)
        assert [(net.nodes[i].id, net.pipes[j]) for i, j in spanning_tree(net)] == \
            brute_force_spanning_tree(net)[1]
        basis = derive_loop_basis(net)
        assert basis.loops == brute_force_loops(net)
        assert (basis.core_matrix == matrix_by_pipe_id(net, basis)[:, basis.core]).all()

    def test_fixture_matrices_match_their_loops(self, gas_network, water_network):
        for net in (gas_network, water_network):
            for basis in (derive_loop_basis(net), adopt_explicit_loops(net)):
                assert basis.core_matrix.shape == (5, len(basis.core))
                assert (basis.core_matrix == matrix_by_pipe_id(net, basis)[:, basis.core]).all()

    def test_core_magnitudes_are_one_read_only_abs_of_the_core_matrix(self, gas_network):
        basis = derive_loop_basis(gas_network)
        magnitudes = basis.core_magnitudes
        assert (magnitudes == np.abs(basis.core_matrix)).all()
        assert basis.core_magnitudes is magnitudes
        with pytest.raises(ValueError, match="read-only"):
            magnitudes[0, 0] = 2.0

    def test_sums_keep_a_value_that_is_not_finite_in_its_own_loops(self, gas_network):
        basis = adopt_explicit_loops(gas_network)
        values = np.linspace(1.0, 2.0, len(basis.core))
        assert basis.sums(values) == pytest.approx(basis.core_matrix @ values, rel=1e-12)
        values[0] = np.inf
        holds = basis.core_magnitudes[:, 0] == 1.0
        sums = basis.sums(values)
        assert np.isinf(sums[holds]).all() and np.isfinite(sums[~holds]).all()
        with np.errstate(invalid="ignore"):     # 0 · inf
            assert np.isnan((basis.core_matrix @ values)[~holds]).all()

    @pytest.mark.parametrize("case", ["gas-derived", "gas-explicit", "water-derived",
                                      "water-explicit", "grid-6x5"])
    def test_sums_of_finite_values_are_the_core_matrix_product(self, case, gas_network,
                                                               water_network):
        if case == "grid-6x5":
            basis = derive_loop_basis(perfbench_grid(6, 5, "gas", seed=1))
        else:
            net = gas_network if case.startswith("gas") else water_network
            basis = (derive_loop_basis if case.endswith("derived") else adopt_explicit_loops)(net)
        values = np.random.default_rng(7).normal(scale=1e8, size=len(basis.core))
        assert (basis.sums(values) == basis.core_matrix @ values).all()

    def test_sums_on_a_tree_are_empty(self, tree):
        basis = derive_loop_basis(tree[0])
        sums = basis.sums(np.array([]))
        assert len(basis) == 0 and sums.shape == (0,) and (sums == basis.core_matrix @ []).all()

    def test_link_pipe_sign_is_positive(self, gas_network):
        basis = derive_loop_basis(gas_network)
        for loop in basis.loops:
            assert loop[0][1] == 1

    def test_every_loop_is_a_circulation(self, gas_network):
        # Brute force: pushing one unit around each loop must leave every
        # node balance (all 11 nodes) unchanged.
        basis = derive_loop_basis(gas_network)
        for loop in basis.loops:
            net_inflow = {n.id: 0.0 for n in gas_network.nodes}
            for pid, sign in loop:
                pipe = gas_network.pipe(pid)
                net_inflow[pipe.to_node] += sign
                net_inflow[pipe.from_node] -= sign
            assert all(v == 0.0 for v in net_inflow.values())


class TestAdoptExplicitLoops:
    def test_fixture_loop_rows(self, gas_network):
        basis = adopt_explicit_loops(gas_network)
        matrix = matrix_by_pipe_id(gas_network, basis)
        first = {pid: matrix[0][pid - 1] for pid in range(1, 16)}
        assert first[1] == 1 and first[2] == -1 and first[3] == -1 and first[4] == 1
        assert all(first[p] == 0 for p in range(5, 16))
        fifth = {pid: matrix[4][pid - 1] for pid in range(1, 16)}
        assert fifth[9] == 1 and fifth[10] == 1 and fifth[15] == 1
        assert fifth[11] == -1 and fifth[12] == -1

    def test_every_explicit_loop_is_a_circulation(self, water_network):
        basis = adopt_explicit_loops(water_network)
        for loop in basis.loops:
            net_inflow = {n.id: 0.0 for n in water_network.nodes}
            for pid, sign in loop:
                pipe = water_network.pipe(pid)
                net_inflow[pipe.to_node] += sign
                net_inflow[pipe.from_node] -= sign
            assert all(v == 0.0 for v in net_inflow.values())

    def test_wrong_loop_count(self, gas_network):
        short = Network(pipes=gas_network.pipes, nodes=gas_network.nodes,
                        fluid=gas_network.fluid,
                        explicit_loops=gas_network.explicit_loops[:4],
                        reference_node="XI")
        with pytest.raises(ValueError, match="wrong loop count"):
            adopt_explicit_loops(short)

    def test_non_cycle_rejected(self, gas_network):
        loops = list(gas_network.explicit_loops)
        loops[0] = (1, 2, 3, 4)  # signs make this walk fall apart
        bad = Network(pipes=gas_network.pipes, nodes=gas_network.nodes,
                      fluid=gas_network.fluid, explicit_loops=loops,
                      reference_node="XI")
        with pytest.raises(ValueError, match="closed cycle"):
            adopt_explicit_loops(bad)

    def test_rank_deficient_rejected(self, gas_network):
        loops = list(gas_network.explicit_loops)
        # replace loop II with loop I traversed backwards: still a closed
        # cycle, but linearly dependent on loop I
        loops[1] = (-4, 3, 2, -1)
        bad = Network(pipes=gas_network.pipes, nodes=gas_network.nodes,
                      fluid=gas_network.fluid, explicit_loops=loops,
                      reference_node="XI")
        with pytest.raises(ValueError, match="rank-deficient"):
            adopt_explicit_loops(bad)

    def test_unknown_pipe_is_named_as_validate_names_it(self, gas_network):
        loops = [list(loop) for loop in gas_network.explicit_loops]
        loops[0][0] = 99
        bad = dataclasses.replace(gas_network, explicit_loops=loops)
        message = "loop 1 references unknown pipe 99"
        assert validate(bad) == [message]
        with pytest.raises(ValueError, match=f"^{message}$"):
            adopt_explicit_loops(bad)

    def test_disconnected_network_has_no_tree(self):
        # Two disjoint triangles: pipes - nodes + 1 = 1 loop, and one triangle
        # is a closed, independent cycle, but the network has no spanning tree.
        ends = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
        net = Network(pipes=[Pipe(k, a, b, 0.2, 100.0) for k, (a, b) in enumerate(ends, 1)],
                      nodes=[NodeSpec(k) for k in range(1, 7)], fluid=WATER,
                      explicit_loops=[(1, 2, 3)])
        with pytest.raises(ValueError, match="^disconnected graph: no spanning tree exists$"):
            adopt_explicit_loops(net)

    def test_no_explicit_loops(self):
        with pytest.raises(ValueError, match="no explicit loops"):
            adopt_explicit_loops(square_net())


class TestExplicitLoopsKept:
    """A network checks its explicit loops on the first adoption and keeps
    them; each later adoption wraps what it kept in a new basis."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        """How often each step of the loop check ran."""
        import loopflow.topology as topology

        counts = Counter()
        for name in ("_as_cycle", "_gf2_rank", "exact_rank"):
            def counted(*args, check=getattr(topology, name), name=name):
                counts[name] += 1
                return check(*args)
            monkeypatch.setattr(topology, name, counted)
        return counts

    @pytest.mark.parametrize("case", ["gas", "water", "k4"])
    def test_a_second_adoption_checks_nothing(self, case, checks, gas_network, water_network):
        net = (TestGF2Check().k4_four_cycles() if case == "k4"
               else copy.copy(gas_network if case == "gas" else water_network))
        first = adopt_explicit_loops(net)
        assert checks == Counter(_as_cycle=len(net.explicit_loops), _gf2_rank=1,
                                 exact_rank=int(case == "k4"))
        checks.clear()
        second = adopt_explicit_loops(net)
        assert checks == {}
        assert second == first and second is not first
        # The new basis holds the kept arrays themselves.
        assert all(getattr(second, name) is getattr(first, name)
                   for name in ("columns", "signs", "starts", "ends"))

    @pytest.mark.parametrize("case", ["non-closed", "rank-deficient", "k4-rank-deficient"])
    def test_a_set_that_fails_raises_the_same_error_on_every_call(self, case, checks,
                                                                  gas_network):
        loops = list(gas_network.explicit_loops)
        if case == "non-closed":
            loops[0] = (1, 2, 3, 4)
        else:
            loops[1] = (-4, 3, 2, -1)
        bad = (TestGF2Check().k4_four_cycles(((1, 2, 3), (1, 2, 4), (1, 3, 2, 4)))
               if case.startswith("k4") else dataclasses.replace(gas_network, explicit_loops=loops))
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError, match="closed cycle|rank-deficient") as error:
                adopt_explicit_loops(bad)
            messages.append(str(error.value))
        with pytest.raises(ValueError, match="closed cycle|rank-deficient"):
            solve(bad)
        assert messages == messages[:1] * 3
        # Every call walked the loops and ranked them again.
        assert checks["_as_cycle"] >= 4 and "_loops" not in vars(bad)
        ranked = 0 if case == "non-closed" else 4
        assert checks["_gf2_rank"] == checks["exact_rank"] == ranked

    def test_replace_checks_its_loops_again(self, checks, gas_network):
        net = copy.copy(gas_network)
        kept = adopt_explicit_loops(net)
        checks.clear()
        same = dataclasses.replace(net, explicit_loops=net.explicit_loops)
        assert adopt_explicit_loops(same) == kept
        assert checks == {"_as_cycle": 5, "_gf2_rank": 1}
        turned = dataclasses.replace(net, explicit_loops=net.explicit_loops[::-1])
        assert adopt_explicit_loops(turned).loops == kept.loops[::-1]
        loops = list(net.explicit_loops)
        loops[1] = (-4, 3, 2, -1)
        with pytest.raises(ValueError, match="rank-deficient"):
            adopt_explicit_loops(dataclasses.replace(net, explicit_loops=loops))
        assert adopt_explicit_loops(net) == kept


class TestStackedSystemRank:
    def test_node_rows_plus_loops_are_square_full_rank(self, gas_network):
        nm = build_node_matrix(gas_network)
        for basis in (derive_loop_basis(gas_network),
                      adopt_explicit_loops(gas_network)):
            stacked = np.vstack([nm, matrix_by_pipe_id(gas_network, basis)])
            assert stacked.shape == (15, 15)
            assert sympy.Matrix(stacked.astype(int)).rank() == 15

    def test_small_random_networks(self):
        for net in [square_net()] + [random_mesh(seed) for seed in range(50)]:
            nm = build_node_matrix(net)
            basis = derive_loop_basis(net)
            stacked = np.vstack([nm, matrix_by_pipe_id(net, basis)])
            assert sympy.Matrix(stacked.astype(int)).rank() == len(net.pipes)


class TestLinkBlockRank:
    """Explicit loops on a 3×3-node grid, rank-checked on the link columns
    only, against sympy's rank of the full loops × pipes matrix."""

    # Node k sits at row (k-1)//3, column (k-1)%3; F1-F4 are the faces.
    CYCLES = {
        "F1": (1, 2, 5, 4), "F2": (2, 3, 6, 5),
        "F3": (4, 5, 8, 7), "F4": (5, 6, 9, 8),
        "F1+F2": (1, 2, 3, 6, 5, 4), "F3+F4": (4, 5, 6, 9, 8, 7),
        "F1+F3": (1, 2, 5, 8, 7, 4), "F2+F4": (2, 3, 6, 9, 8, 5),
        "outer": (1, 2, 3, 6, 9, 8, 7, 4),
    }

    def test_accepts_exactly_the_full_rank_sets(self):
        rng = random.Random(3)
        ends = [(k, k + 1) for k in range(1, 10) if k % 3] + \
            [(k, k + 3) for k in range(1, 7)]
        ids = rng.sample(range(1, 50), len(ends))
        pipes = [Pipe(pid, *(e if rng.random() < 0.5 else e[::-1]), 0.2, 100.0)
                 for pid, e in zip(ids, ends)]
        between = {frozenset((p.from_node, p.to_node)): p for p in pipes}

        def sequence(cycle):
            signed = []
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p = between[frozenset((a, b))]
                signed.append(p.id if p.from_node == a else -p.id)
            return tuple(signed)

        rejected = []
        for names in itertools.combinations(self.CYCLES, 4):
            loops = [sequence(self.CYCLES[name]) for name in names]
            rows = [[0] * len(pipes) for _ in loops]
            for row, loop in zip(rows, loops):
                for signed in loop:
                    row[ids.index(abs(signed))] = 1 if signed > 0 else -1
            net = Network(pipes=pipes, nodes=[NodeSpec(k) for k in range(1, 10)],
                          fluid=WATER, explicit_loops=loops,
                          reference_node=rng.randint(1, 9))
            try:
                adopt_explicit_loops(net)
                accepted = True
            except ValueError as exc:
                assert "rank-deficient" in str(exc)
                accepted = False
                rejected.append(names)
            assert accepted == (sympy.Matrix(rows).rank() == 4), names
        assert ("F1", "F2", "F3", "F1+F2") in rejected
        assert 0 < len(rejected) < 126


class TestGF2Check:
    """Explicit loops are checked mod 2 first; only a set dependent mod 2
    pays for the exact rank over Q."""

    def k4_four_cycles(self, cycles=((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4))):
        # K4 has three 4-cycles, and every pipe lies on exactly two of them:
        # their sum vanishes mod 2, yet their determinant over Q is ±2.
        ends = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        pipes = [Pipe(k, a, b, 0.2, 100.0) for k, (a, b) in enumerate(ends, start=1)]
        between = {frozenset((p.from_node, p.to_node)): p for p in pipes}

        def sequence(cycle):
            signed = []
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p = between[frozenset((a, b))]
                signed.append(p.id if p.from_node == a else -p.id)
            return tuple(signed)

        loops = [sequence(c) for c in cycles]
        return Network(pipes=pipes, nodes=[NodeSpec(k) for k in range(1, 5)],
                       fluid=WATER, explicit_loops=loops)

    def test_k4_four_cycles_accepted_through_the_exact_fallback(self, monkeypatch):
        import loopflow.topology as topology

        net = self.k4_four_cycles()
        basis = topology.adopt_explicit_loops(net)  # run once unpatched
        rows = [[int(v) for v in row] for row in matrix_by_pipe_id(net, basis)]
        assert all(sum(abs(row[j]) for row in rows) == 2 for j in range(6))
        assert sympy.Matrix(rows).rank() == 3
        in_tree = {j for _, j in spanning_tree(net)}
        links = [j for j in range(6) if j not in in_tree]
        assert abs(sympy.Matrix(rows).extract([0, 1, 2], links).det()) == 2

        calls = []
        monkeypatch.setattr(topology, "exact_rank",
                            lambda rows: calls.append(rows) or exact_rank(rows))
        # A network checks its loops once, so a fresh one goes through the check.
        assert topology.adopt_explicit_loops(self.k4_four_cycles()) == basis
        # The fallback sees B on the core, here every pipe.
        assert calls == [rows]

    def test_a_link_in_no_loop_is_rank_deficient(self, monkeypatch):
        import loopflow.topology as topology

        # Three cycles that avoid pipe 6, from 3 to 4: a link, since the
        # tree grows from node 4 along pipe 3 first.
        net = self.k4_four_cycles(((1, 2, 3), (1, 2, 4), (1, 3, 2, 4)))
        assert 5 not in {j for _, j in spanning_tree(net)}
        calls = []
        monkeypatch.setattr(topology, "exact_rank",
                            lambda rows: calls.append(rows) or exact_rank(rows))
        with pytest.raises(ValueError, match="rank-deficient"):
            topology.adopt_explicit_loops(net)
        # Pipe 6 lies in no loop, so the exact rank never sees its column.
        assert [len(row) for row in calls[0]] == [5, 5, 5]

    @pytest.fixture()
    def no_exact_rank(self, monkeypatch):
        """`loopflow.topology` with an `exact_rank` that fails when called."""
        import loopflow.topology as topology

        def exploding(rows):
            raise AssertionError("exact_rank called")

        monkeypatch.setattr(topology, "exact_rank", exploding)
        return topology

    def test_fixtures_never_need_the_exact_rank(self, gas_network, water_network,
                                                no_exact_rank):
        # Copies, since a network that adopted its loops before checks them no more.
        for net in (copy.copy(gas_network), copy.copy(water_network)):
            assert len(no_exact_rank.adopt_explicit_loops(net)) == net.loop_count

    @pytest.mark.parametrize("size", [11, 30])
    def test_grid_faces_never_need_the_exact_rank(self, size, no_exact_rank):
        raw = perfbench_networks().grid(size, size, "water", random.Random(0))
        net = network_from_dict({**raw, "loops": face_loops(raw, size, size)})
        assert len(no_exact_rank.adopt_explicit_loops(net)) == (size - 1) ** 2

    def test_gf2_rank_by_brute_force(self):
        rng = random.Random(5)
        for _ in range(200):
            rows = [rng.getrandbits(6) for _ in range(rng.randint(0, 6))]
            spans = {0}
            for row in rows:
                spans |= {s ^ row for s in spans}
            assert 2 ** _gf2_rank(rows) == len(spans)


def test_exact_rank_matches_sympy_on_random_sign_matrices():
    import random
    rng = random.Random(31)
    for _ in range(30):
        rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(6)] for _ in range(4)]
        assert exact_rank(rows) == sympy.Matrix(rows).rank()


def test_exact_rank_matches_sympy_on_small_integer_matrices():
    # Tall, wide and square shapes, entries in -3..3, rows made dependent
    # and zero rows and columns: Bareiss' column skipping and its exact
    # divisions by earlier pivots.
    import random
    rng = random.Random(37)
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows > 1 and rng.random() < 0.5:
            a, b = rng.sample(range(n_rows), 2)
            ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[rng.randrange(n_rows)] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
        if rng.random() < 0.3:
            rows[rng.randrange(n_rows)] = [0] * n_cols
        if rng.random() < 0.3:
            zero = rng.randrange(n_cols)
            rows = [row[:zero] + [0] + row[zero + 1:] for row in rows]
        assert exact_rank(rows) == sympy.Matrix(rows).rank(), rows
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    # Two proportional rows, and a zero column left of the pivots.
    assert exact_rank([[0, 2, 4], [0, 3, 6], [0, 1, 3]]) == 2
    assert exact_rank([[2, 4, 6], [3, 6, 9], [1, 3, 4]]) == 2
