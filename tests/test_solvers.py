"""Solver behaviour on the fixture network and small synthetic networks."""

import copy
import dataclasses
import functools
import math
import pickle
import random
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import loopflow.solvers as solvers_module
import loopflow.topology as topology_module
from loopflow.fileio import network_from_dict
from loopflow.fluids import make_fluid_model
from loopflow.model import (
    FlowState,
    FluidSpec,
    Network,
    NodeSpec,
    Pipe,
    PipeArrays,
    feasible_initial_flows,
    m3h_to_m3s,
    node_imbalances,
    spanning_tree,
    validate,
)
from loopflow.numerics import solve_linear
from loopflow.sizing import SizingConfig, optimize_diameters
from loopflow.topology import LoopBasis, adopt_explicit_loops, derive_loop_basis
from loopflow.solvers import (
    HARDY_CROSS,
    HARDY_CROSS_IMPROVED,
    METHODS,
    NODE_LOOP,
    InfeasiblePressureError,
    SolverConfig,
    assemble_node_loop_system,
    evaluate_loops,
    propagate_pressures,
    select_basis,
    solve,
    solve_hardy_cross_improved,
    solve_hardy_cross_original,
    solve_node_loop,
)
import fixture_tables as tables
from conftest import loop_matrix, matrix_by_pipe_id, node_balance_residuals_m3h, perfbench_networks
from test_model import invalid_networks, square_net


def flipped_pipe_one(net):
    """`net` without its explicit loops, and the same with pipe 1 reversed."""
    plain = dataclasses.replace(net, explicit_loops=None)
    first = plain.pipes[0]
    flipped = dataclasses.replace(plain, pipes=(
        dataclasses.replace(first, from_node=first.to_node, to_node=first.from_node),
        *plain.pipes[1:]))
    return plain, flipped


def initial_state(net) -> FlowState:
    return FlowState({pid: m3h_to_m3s(q)
                      for pid, q in net.initial_flows_m3h.items()})


def two_pipe_loop(q1_m3h=500.0, q2_m3h=300.0):
    """Two parallel pipes between a supply and a delivery node: one loop."""
    total = q1_m3h + q2_m3h
    net = Network(
        pipes=[Pipe(1, "A", "B", 0.2, 100.0, 2e-5),
               Pipe(2, "A", "B", 0.15, 100.0, 2e-5)],
        nodes=[NodeSpec("A", -total), NodeSpec("B", total)],
        fluid=FluidSpec(kind="gas", rel_density=0.6),
        explicit_loops=[(1, -2)],
        initial_flows_m3h={1: q1_m3h, 2: q2_m3h},
    )
    return net


class TestEvaluateLoops:
    def test_gas_loop_sums(self, gas_network):
        basis = select_basis(gas_network)
        result = evaluate_loops(gas_network, basis, initial_state(gas_network))
        for k, name in enumerate(tables.LOOP_SIGNS):
            assert result.residuals[k] == \
                pytest.approx(tables.GAS_LOOP_SUMS[name], rel=5e-3)

    def test_water_loop_sums(self, water_network):
        basis = select_basis(water_network)
        result = evaluate_loops(water_network, basis, initial_state(water_network))
        for k, name in enumerate(tables.LOOP_SIGNS):
            assert result.residuals[k] == \
                pytest.approx(tables.WATER_LOOP_SUMS[name], rel=1e-2)

    def test_member_derivatives_match_reference(self, gas_network):
        basis = select_basis(gas_network)
        result = evaluate_loops(gas_network, basis, initial_state(gas_network))
        for k, loop in enumerate(basis.loops):
            for pid, _ in loop:
                assert result.member_dflow[k][pid] == \
                    pytest.approx(tables.GAS_LOOP_ANALYSIS[pid][1], rel=5e-3)

    def test_basis_of_reordered_pipes_rejected(self, gas_network):
        reordered = dataclasses.replace(gas_network, pipes=gas_network.pipes[::-1])
        with pytest.raises(ValueError, match="pipe order"):
            evaluate_loops(reordered, select_basis(gas_network), initial_state(reordered))

    def test_basis_of_another_network_rejected(self, gas_network):
        plain, flipped = flipped_pipe_one(gas_network)
        with pytest.raises(ValueError, match="^loop basis was built on another network"):
            evaluate_loops(flipped, derive_loop_basis(plain), feasible_initial_flows(flipped))
        own = evaluate_loops(flipped, derive_loop_basis(flipped), feasible_initial_flows(flipped))
        assert own.residuals[0] == pytest.approx(-8.556e9, rel=1e-3)

    def test_basis_of_an_equal_network_accepted(self, gas_network):
        basis = select_basis(gas_network)
        copied = copy.copy(gas_network)
        assert copied._ends is not gas_network._ends
        expected = evaluate_loops(gas_network, basis, initial_state(gas_network))
        result = evaluate_loops(copied, basis, initial_state(copied))
        assert result.residuals.tolist() == expected.residuals.tolist()

    def test_own_network_checked_by_identity(self, gas_network, monkeypatch):
        compared = []
        monkeypatch.setattr(np, "array_equal", lambda *args: compared.append(args))
        report = solve(gas_network, SolverConfig(method=HARDY_CROSS_IMPROVED))
        assert report.termination == "converged"
        assert compared == []

    def test_zero_flows_zero_residuals(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        basis = select_basis(net)
        zero = FlowState({p.id: 0.0 for p in net.pipes})
        result = evaluate_loops(net, basis, zero)
        assert all(r == 0.0 for r in result.residuals)

    def test_derivative_floor_keeps_rows_nonzero(self, gas_network):
        basis = select_basis(gas_network)
        zero = FlowState({p.id: 0.0 for p in gas_network.pipes})
        result = evaluate_loops(gas_network, basis, zero)
        for dflow in result.member_dflow:
            assert all(v > 0.0 for v in dflow.values())


    def test_an_overflowing_drop_reaches_only_the_loops_that_hold_its_pipe(self, gas_network):
        # d⁴·⁸² underflows to 0, so pipe 1's drop is inf.
        net = dataclasses.replace(gas_network, pipes=[
            dataclasses.replace(p, diameter=1e-300) if p.id == 1 else p
            for p in gas_network.pipes])
        basis = select_basis(net)
        holds = np.array([any(pid == 1 for pid, _ in loop) for loop in basis.loops])
        reference = evaluate_loops(gas_network, basis, initial_state(gas_network))
        # No 0 · inf: the overflow is the only thing numpy sees.
        with np.errstate(all="raise", over="ignore", divide="ignore", under="ignore"):
            result = evaluate_loops(net, basis, initial_state(net))
        assert holds.any() and not holds.all()
        assert np.isinf(result.residuals[holds]).all()
        assert result.residuals[~holds] == pytest.approx(reference.residuals[~holds], rel=1e-12)


@pytest.mark.parametrize("reader", [
    lambda net, state: evaluate_loops(net, select_basis(net), state),
    node_imbalances,
    lambda net, state: propagate_pressures(net, state, "I", 4e5),
    solvers_module.final_velocities,
], ids=["evaluate_loops", "node_imbalances", "propagate_pressures", "final_velocities"])
def test_state_that_lacks_a_pipe_is_a_value_error(reader, gas_network):
    with pytest.raises(ValueError, match="^flow state has no flow for pipe 2$"):
        reader(gas_network, FlowState({1: 0.1, 3: 0.2}))


class TestAssembleNodeLoopSystem:
    def test_loop_one_row_coefficients(self, gas_network):
        flows = initial_state(gas_network)
        basis = select_basis(gas_network)
        matrix, _ = assemble_node_loop_system(
            evaluate_loops(gas_network, basis, flows))
        row = matrix[10]  # first loop row, after the ten node rows
        expected = {1: 3766062.0, 2: -18094990.0, 3: -2858306918.0,
                    4: 111651451.0}
        for pid, value in expected.items():
            assert row[pid - 1] == pytest.approx(value, rel=5e-3)
        assert all(row[j] == 0.0 for j in range(4, 15))

    def test_node_rows_rhs_are_demands(self, gas_network):
        flows = initial_state(gas_network)
        basis = select_basis(gas_network)
        _, rhs = assemble_node_loop_system(
            evaluate_loops(gas_network, basis, flows))
        demands_m3h = [-6940.0, 2100.0, 170.0, 90.0, 200.0, 2500.0, 300.0,
                       170.0, 850.0, 280.0]
        for i, d in enumerate(demands_m3h):
            assert rhs[i] == pytest.approx(d / 3600.0, rel=1e-12)

    def test_zero_network_solves_to_zero(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        report = solve_node_loop(net, SolverConfig())
        assert report.termination == "converged"
        assert all(abs(q) < 1e-12 for q in report.final_flows.flows.values())

    def test_dimension_mismatch_rejected(self, gas_network):
        flows = initial_state(gas_network)
        basis = select_basis(gas_network)
        end = basis.starts[3]
        short_basis = dataclasses.replace(basis, columns=basis.columns[:end],
                                          signs=basis.signs[:end], starts=basis.starts[:4])
        with pytest.raises(ValueError, match="dimension mismatch"):
            assemble_node_loop_system(
                evaluate_loops(gas_network, short_basis, flows))


def perfbench_grid(rows: int, cols: int, kind: str, seed: int) -> Network:
    """A street grid from the benchmark's stdlib-only network generators."""
    return network_from_dict(perfbench_networks().grid(rows, cols, kind, random.Random(seed)))


def perfbench_ring(kind: str, seed: int) -> Network:
    """A 200-node ring closed by 70 chords, from the same generators."""
    return network_from_dict(
        perfbench_networks().ring_with_chords(200, 70, kind, random.Random(seed)))


@pytest.fixture(params=["gas-fixture", "water-fixture", "grid-11x11", "grid-11x11-seed1",
                        "grid-11x11-seed2", "ring-200"])
def node_loop_net(request):
    if request.param.endswith("fixture"):
        return request.getfixturevalue(request.param.replace("-fixture", "_network"))
    if request.param.startswith("grid-11x11"):
        _, _, seed = request.param.partition("-seed")
        return perfbench_grid(11, 11, "water", seed=int(seed or 0))
    return perfbench_ring("gas", seed=0)


class TestLoopCore:
    """On a tree closed by a few pipes, only the pipes in a loop are evaluated."""

    def test_core_is_the_pipes_of_some_loop(self, branched):
        net, _ = branched
        basis = select_basis(net)
        dense = matrix_by_pipe_id(net, basis)
        assert basis.core.tolist() == np.flatnonzero(dense.any(axis=0)).tolist()
        assert 0 < len(basis.core) < len(net.pipes)
        assert loop_matrix(basis).tolist() == dense[:, basis.core].tolist()
        assert basis.core_ids == tuple(net.pipe_ids[j] for j in basis.core)

    @pytest.mark.parametrize("method", [HARDY_CROSS, HARDY_CROSS_IMPROVED])
    def test_hardy_cross_keeps_every_flow_off_the_core(self, method, branched):
        net, _ = branched
        core = set(select_basis(net).core_ids)
        off_core = [pid for pid in net.pipe_ids if pid not in core]
        report = solve(net, SolverConfig(method=method))
        assert report.iteration_count >= 2
        start = report.iterations[0]
        for state in report.iterations[1:]:
            assert [state[pid] for pid in off_core] == [start[pid] for pid in off_core]

    def test_fluid_model_sees_only_the_core(self, branched, monkeypatch):
        net, flows_m3h = branched
        basis = select_basis(net)
        model = type(make_fluid_model(net.fluid))
        sizes = Counter()
        for name in ("evaluate", "drop_at_diameter", "ddrop_ddiam"):
            def recording(self, pipe, flow, *args, _original=getattr(model, name), _name=name):
                sizes[_name, len(pipe.length), len(flow)] += 1
                return _original(self, pipe, flow, *args)
            monkeypatch.setattr(model, name, recording)
        for method in METHODS:
            solve(net, SolverConfig(method=method))
        fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in flows_m3h.items()})
        optimize_diameters(net, basis, SizingConfig(fixed_flows=fixed))
        assert {name for name, _, _ in sizes} == {"evaluate", "drop_at_diameter", "ddrop_ddiam"}
        assert {(n, m) for _, n, m in sizes} == {(len(basis.core),) * 2}

    @pytest.mark.parametrize("state", ["random-start", "converged"])
    def test_core_evaluation_matches_a_dense_one(self, state, branched):
        net, _ = branched
        basis = select_basis(net)
        if state == "converged":
            flows = solve(net, SolverConfig(method=HARDY_CROSS_IMPROVED)).final_flows
        else:
            flows = feasible_initial_flows(net, seed=3)
        pipes = PipeArrays.of(net)
        q = pipes.flows(flows)
        drop, dflow = make_fluid_model(net.fluid).evaluate(pipes, np.abs(q), 1e-7)
        dense = matrix_by_pipe_id(net, basis)
        result = evaluate_loops(net, basis, flows)
        np.testing.assert_allclose(result.dflow, dflow[basis.core], rtol=1e-12, atol=0.0)
        # r cancels near convergence, so its error is bounded by the terms it sums.
        bound = 1e-12 * (np.abs(dense) @ drop)
        assert (np.abs(result.residuals - dense @ np.copysign(drop, q)) <= bound).all()


def worst_imbalance_m3s(net, state: FlowState) -> float:
    return max(map(abs, node_balance_residuals_m3h(net, state.flows).values())) / 3600.0


class TestTrees:
    """A tree has no loop: its node balances alone fix the flows q₀, which
    are the seed-0 start, so every layer runs with an empty core."""

    def test_start_is_the_tree_flows(self, tree):
        net, flows_m3h = tree
        start = feasible_initial_flows(net).as_m3h()
        assert start == pytest.approx(flows_m3h, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("method", [HARDY_CROSS, HARDY_CROSS_IMPROVED])
    def test_hardy_cross_changes_no_flow(self, method, tree):
        net, _ = tree
        report = solve(net, SolverConfig(method=method))
        assert (report.termination, report.iteration_count, report.stop_reason) == \
            ("converged", 1, "")
        assert report.loop_residuals == [[], []]
        assert report.iterations[1].flows == report.iterations[0].flows
        assert worst_imbalance_m3s(net, report.final_flows) <= 1e-9

    def test_node_loop_reaches_the_tree_flows_in_one_pass(self, tree):
        net, _ = tree
        pipes = PipeArrays.of(net)
        q0 = pipes.flows(feasible_initial_flows(net))
        start = FlowState(pipes.by_id(q0 + 0.01))
        report = solve_node_loop(net, SolverConfig(), start)
        assert (report.termination, report.iteration_count, report.stop_reason) == \
            ("converged", 2, "")
        assert worst_imbalance_m3s(net, report.iterations[0]) > 1e-3
        for state in report.iterations[1:]:
            assert np.abs(pipes.flows(state) - q0).max() <= 3e-15 * np.abs(q0).max()
            assert worst_imbalance_m3s(net, state) <= 1e-9

    def test_node_loop_from_the_tree_flows(self, tree):
        net, _ = tree
        report = solve_node_loop(net, SolverConfig())
        assert (report.termination, report.iteration_count) == ("converged", 1)
        assert worst_imbalance_m3s(net, report.final_flows) <= 1e-9

    def test_pressures_fall_along_the_flow(self, tree):
        net, _ = tree
        flows = solve(net).final_flows
        source = min(net.nodes, key=lambda n: n.demand_m3h).id
        pressures = propagate_pressures(net, flows, source, 4e5)
        for p in net.pipes:
            upstream, downstream = ((p.from_node, p.to_node) if flows[p.id] >= 0.0
                                    else (p.to_node, p.from_node))
            assert pressures[upstream] >= pressures[downstream]


def stacked_step(net: Network, q: np.ndarray) -> np.ndarray:
    """The paper's node-loop pass from flows `q`: the stacked [A; B·D] solve."""
    return solve_linear(*assemble_node_loop_system(evaluate_loops(net, select_basis(net), q)))


def given_start(net: Network) -> FlowState | None:
    """A start given to a solve of `net`: its file flows (None) or else its
    seed-0 feasible flows."""
    return None if net.initial_flows_m3h else feasible_initial_flows(net)


class TestNodeLoopPasses:
    """Node-loop solves the stacked system on its first pass from a given
    start, which may break the node balances, and takes the loop-space step
    on each remaining pass and on every pass from the network's own start;
    the two steps agree from a balanced iterate."""

    def test_first_pass_is_the_stacked_solve(self, node_loop_net):
        report = solve_node_loop(node_loop_net, SolverConfig(max_iterations=1),
                                 given_start(node_loop_net))
        pipes = PipeArrays.of(node_loop_net)
        first = stacked_step(node_loop_net, pipes.flows(report.iterations[0]))
        assert pipes.flows(report.iterations[1]).tolist() == first.tolist()

    def test_later_passes_equal_the_stacked_solve(self, node_loop_net):
        # The fixtures start from their file flows, the grid and the ring
        # from their own: there pass 1 is a loop step too.
        report = solve_node_loop(node_loop_net, SolverConfig())
        assert report.termination == "converged"
        assert report.iteration_count >= 3
        pipes = PipeArrays.of(node_loop_net)
        q = [pipes.flows(state) for state in report.iterations]
        for before, after in zip(q, q[1:]):
            gap = np.abs(stacked_step(node_loop_net, before) - after).max()
            assert gap <= 1e-9 * np.abs(after).max()

    @staticmethod
    def solve_sizes(net, initial, monkeypatch) -> tuple[list[int], int]:
        """The size of each linear system a node-loop solve makes, and its passes."""
        # The linear-theory start solves a loop system of its own, once per
        # network: derive it (by a solve of no pass) before recording.
        solve_node_loop(net, SolverConfig(max_iterations=0))
        sizes = []

        def recording(matrix, rhs):
            sizes.append(len(rhs))
            return solve_linear(matrix, rhs)

        monkeypatch.setattr(solvers_module, "solve_linear", recording)
        report = solve_node_loop(net, SolverConfig(), initial)
        assert report.iteration_count >= 3
        return sizes, report.iteration_count

    def test_one_stacked_solve_per_run(self, node_loop_net, monkeypatch):
        sizes, passes = self.solve_sizes(node_loop_net, given_start(node_loop_net), monkeypatch)
        n_loops = len(select_basis(node_loop_net))
        assert sizes == [len(node_loop_net.pipes)] + [n_loops] * (passes - 1)

    def test_no_stacked_solve_from_the_own_start(self, node_loop_net, monkeypatch):
        net = dataclasses.replace(node_loop_net, initial_flows_m3h=None)
        sizes, passes = self.solve_sizes(net, None, monkeypatch)
        assert sizes == [len(select_basis(net))] * passes

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("shape, passes", [
        ("grid", {"gas": 11, "water": 13}), ("ring", {"gas": 11, "water": 12})])
    def test_unbalanced_start_is_balanced_after_the_first_pass(self, shape, passes, kind):
        net = (perfbench_grid(11, 11, kind, seed=0) if shape == "grid"
               else perfbench_ring(kind, seed=0))
        rng = random.Random(5)
        start = FlowState({pid: rng.uniform(-0.05, 0.05) for pid in net.pipe_ids})
        report = solve_node_loop(net, SolverConfig(), start)
        assert (report.termination, report.iteration_count) == ("converged", passes[kind])
        worst = [max(map(abs, node_imbalances(net, state).values()))
                 for state in report.iterations]
        assert worst[0] > 0.1
        assert max(worst[1:]) <= 1e-9


def perfbench_shape(shape: str, kind: str, seed: int) -> Network:
    """An 11 x 11 grid, a 200-node ring closed by 70 chords or a 1200-node
    tree closed by 10 pipes, from the benchmark's generators."""
    if shape == "grid":
        return perfbench_grid(11, 11, kind, seed)
    if shape == "ring":
        return perfbench_ring(kind, seed)
    return network_from_dict(
        perfbench_networks().tree_with_closures(1200, 10, kind, random.Random(seed)))


class TestNodeLoopFromTheOwnStart:
    """From the network's own start, which is balanced, node-loop takes
    improved Hardy Cross's step on every pass, so the two runs are one."""

    @staticmethod
    def assert_one_run(net):
        node_loop, improved = solve_node_loop(net), solve_hardy_cross_improved(net)
        assert node_loop.iteration_count == improved.iteration_count
        assert (node_loop.termination, node_loop.stop_reason) == \
            (improved.termination, improved.stop_reason)
        assert node_loop.loop_residuals == improved.loop_residuals
        assert node_loop.iterations == improved.iterations

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", ["grid", "ring", "tree"])
    def test_meshed_and_closed_trees(self, shape, seed, kind):
        net = perfbench_shape(shape, kind, seed)
        assert len(select_basis(net)) > 0
        self.assert_one_run(net)

    def test_loopless_trees(self, tree):
        net, _ = tree
        assert len(select_basis(net)) == 0
        self.assert_one_run(net)


class TestLoopJacobian:
    """The Newton step scatters J = B D Bᵀ from a pair index where loops share
    few pipes (64·Σ c_j² ≤ L²·n) and forms the dense product elsewhere; each
    basis builds its index once, and its network keeps the basis."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """The bases whose pair index was built, one entry per build."""
        bases, build = [], LoopBasis.pair_index.func
        counted = functools.cached_property(lambda basis: bases.append(basis) or build(basis))
        counted.__set_name__(LoopBasis, "pair_index")
        monkeypatch.setattr(LoopBasis, "pair_index", counted)
        return bases

    @staticmethod
    def step_jacobian(net, basis, monkeypatch):
        """The J that one Newton step at the seed-0 tree flows solves, and the
        dense product (B·D) @ Bᵀ there."""
        loop_eval = evaluate_loops(net, basis, feasible_initial_flows(net))
        matrices = []

        def recording(matrix, rhs):
            matrices.append(matrix)
            return solve_linear(matrix, rhs)

        with monkeypatch.context() as patch:
            patch.setattr(solvers_module, "solve_linear", recording)
            solvers_module._loop_newton_step(loop_eval)
        loops = loop_matrix(basis)
        return matrices[0], (loops * loop_eval.dflow) @ loops.T

    @staticmethod
    def assert_pair_jacobian(jacobian, dense):
        assert np.abs(jacobian - dense).max() <= 1e-15 * np.abs(dense).max()
        assert (jacobian == jacobian.T).all()

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("seed", range(3))
    def test_pair_jacobian_is_the_dense_product_exactly_symmetric(self, seed, kind,
                                                                    monkeypatch):
        net = perfbench_grid(11, 11, kind, seed)
        basis = select_basis(net)
        assert basis.pair_index is not None
        self.assert_pair_jacobian(*self.step_jacobian(net, basis, monkeypatch))

    @pytest.mark.parametrize("shape, seed", [(shape, seed) for shape in ("grid", "ring", "tree")
                                             for seed in range(3)]
                             + [("gas-fixture", None), ("water-fixture", None)])
    def test_the_former_follows_the_pair_count(self, shape, seed, monkeypatch, request):
        net = (request.getfixturevalue(shape.replace("-fixture", "_network"))
               if seed is None else perfbench_shape(shape, "gas", seed))
        basis = select_basis(net)
        counts = np.bincount(basis.member_cores, minlength=len(basis.core))
        pairs = 64 * int(counts @ counts) <= len(basis) ** 2 * len(basis.core)
        assert pairs == (shape == "grid")
        assert (basis.pair_index is not None) == pairs
        jacobian, dense = self.step_jacobian(net, basis, monkeypatch)
        if not pairs:
            assert jacobian.tobytes() == dense.tobytes()

    def test_one_build_per_basis_over_every_method(self, built):
        net = perfbench_grid(11, 11, "gas", seed=0)
        reports = [solve(net, SolverConfig(method=method)) for method in METHODS]
        reports.append(solve(net, SolverConfig(), feasible_initial_flows(net, seed=3)))
        assert [r.termination for r in reports] == ["converged", "diverged", "converged",
                                                    "converged"]
        assert len(built) == 1 and built[0] is select_basis(net)
        assert reports[2].iterations == reports[0].iterations

    def test_copies_pickles_and_replace_build_their_own(self, built):
        net = perfbench_grid(11, 11, "gas", seed=0)
        first = solve(net)
        for duplicate in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net)),
                          dataclasses.replace(net)):
            assert "_derived_basis" not in vars(duplicate)
            assert solve(duplicate).iterations == first.iterations
            assert built[-1] is select_basis(duplicate) is not select_basis(net)
        assert len(built) == 5

    def test_explicit_and_derived_bases_each_own_theirs(self, built, monkeypatch):
        # The grid's fundamental cycles in reverse order, as explicit loops:
        # a scatter by the other basis's index would permute J.
        grid = perfbench_grid(11, 11, "gas", seed=0)
        loops = [tuple(pid * sign for pid, sign in loop) for loop in derive_loop_basis(grid).loops]
        net = dataclasses.replace(grid, explicit_loops=loops[::-1])
        explicit, derived = adopt_explicit_loops(net), derive_loop_basis(net)
        for basis in (explicit, derived, explicit):
            self.assert_pair_jacobian(*self.step_jacobian(net, basis, monkeypatch))
        assert list(map(id, built)) == [id(explicit), id(derived)]
        assert explicit.pair_index[0].tobytes() != derived.pair_index[0].tobytes()


class TestPairIndexBuild:
    """`LoopBasis.pair_index` is built by chunks of members, to the bytes of
    the index built at once, with a peak far below the whole-index build."""

    @staticmethod
    def at_once(basis):
        """The index built in one piece, through full-width `intp` arrays."""
        cores, size, n = basis.member_cores, len(basis), len(basis.core)
        counts = np.bincount(cores, minlength=n)
        by_pipe = np.argsort(cores, kind="stable")
        rows = np.repeat(np.arange(size), np.diff(basis.starts))[by_pipe]
        signs, pipe = basis.signs[by_pipe], np.repeat(np.arange(n), counts)
        reps = counts[pipe]
        a = np.repeat(np.arange(len(pipe)), reps)
        shift = np.cumsum(reps) - reps - (np.cumsum(counts) - counts)[pipe]
        b = np.arange(len(a)) - np.repeat(shift, reps)
        key, pick = rows[a] * size + rows[b], pipe[a] + n * (signs[a] != signs[b])
        return (key.astype(np.min_scalar_type(-size * size)),
                pick.astype(np.min_scalar_type(-2 * n)))

    @staticmethod
    def fresh(basis):
        """A new basis on `basis`'s loops, with its core already derived."""
        new = LoopBasis(basis.pipe_ids, basis.columns, basis.signs, basis.starts, basis.ends)
        new.member_cores
        return new

    @pytest.mark.parametrize("chunk", [1, 7, topology_module.PAIR_CHUNK])
    @pytest.mark.parametrize("seed", range(3))
    def test_chunks_give_the_bytes_of_one_build(self, seed, chunk, monkeypatch):
        monkeypatch.setattr(topology_module, "PAIR_CHUNK", chunk)
        for kind in ("gas", "water"):
            basis = self.fresh(select_basis(perfbench_grid(11, 11, kind, seed)))
            for built, expected in zip(basis.pair_index, self.at_once(basis)):
                assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes()
                assert not built.flags.writeable

    def test_the_build_peak_is_within_three_times_the_index(self):
        basis = self.fresh(select_basis(perfbench_grid(30, 30, "gas", 0)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            key, pick = basis.pair_index
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        kept = key.nbytes + pick.nbytes
        assert kept > 3e6 and peak <= 3 * kept
        expected = self.at_once(basis)
        assert key.tobytes() == expected[0].tobytes() and pick.tobytes() == expected[1].tobytes()


class TestNodeLoopFixture:
    def test_gas_trace(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        assert report.termination == "converged"
        assert report.iteration_count <= 6
        states = [s.as_m3h() for s in report.iterations]
        for pid, expected in tables.GAS_TRACE.items():
            cells = tables.relative_sign_cells(states, pid)
            assert len(cells) == len(expected)
            for got, want in zip(cells, expected):
                assert got == pytest.approx(want, abs=1.0)

    def test_gas_reversals(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        assert report.reversed_pipes() == tables.GAS_REVERSED_PIPES

    def test_gas_velocities(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        for pid, v in tables.GAS_VELOCITIES.items():
            assert report.velocities[pid] == pytest.approx(v, abs=0.02)

    def test_water_trace(self, water_network):
        report = solve_node_loop(water_network, SolverConfig())
        assert report.termination == "converged"
        assert report.iteration_count <= 8
        states = [s.as_m3h() for s in report.iterations]
        for pid, expected in tables.WATER_TRACE.items():
            cells = tables.relative_sign_cells(states, pid)
            for got, want in zip(cells, expected):
                assert got == pytest.approx(want, abs=1.0)

    def test_water_velocities(self, water_network):
        report = solve_node_loop(water_network, SolverConfig())
        for pid, v in tables.WATER_VELOCITIES.items():
            assert report.velocities[pid] == pytest.approx(v, abs=0.1)

    def test_node_balance_every_iteration(self, gas_network, water_network):
        for net in (gas_network, water_network):
            report = solve_node_loop(net, SolverConfig())
            for state in report.iterations:
                residuals = node_balance_residuals_m3h(net, state.flows)
                assert max(abs(r) for r in residuals.values()) <= 1e-6

    def test_loop_residuals_below_tolerance_at_convergence(
            self, gas_network, water_network):
        for net, tol in ((gas_network, 1e3), (water_network, 1.0)):
            report = solve_node_loop(net, SolverConfig())
            assert max(report.loop_residuals[-1]) <= tol

    def test_invalid_network_rejected(self):
        net = square_net(demands=(-30.0, 10.0, 10.0, 20.0))
        with pytest.raises(ValueError, match="unbalanced"):
            solve_node_loop(net, SolverConfig())


class TestHardyCross:
    def test_first_correction_matches_reference_sums(self, gas_network):
        # Independent oracle: correction = -imbalance / sum of |d drop/d flow|
        # from the frozen loop analysis, applied to pipe 1 (in loop I only).
        a_sum = sum(tables.GAS_LOOP_ANALYSIS[p][1] for p in (1, 2, 3, 4))
        expected_delta = -tables.GAS_LOOP_SUMS["I"] / a_sum
        assert expected_delta == pytest.approx(0.2846, abs=2e-4)

        config = SolverConfig(method=HARDY_CROSS, max_iterations=1)
        report = solve_hardy_cross_original(gas_network, config)
        q1_after = report.iterations[1].flows[1]
        q1_before = report.iterations[0].flows[1]
        assert q1_after - q1_before == pytest.approx(expected_delta, rel=5e-3)

    def test_balanced_loop_unchanged(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        report = solve_hardy_cross_original(net, SolverConfig())
        assert report.termination == "converged"
        assert report.iterations[-1].flows == report.iterations[0].flows

    def test_node_balance_preserved_exactly(self, gas_network):
        for solver in (solve_hardy_cross_original, solve_hardy_cross_improved):
            report = solver(gas_network, SolverConfig())
            for state in report.iterations:
                residuals = node_balance_residuals_m3h(gas_network, state.flows)
                assert max(abs(r) for r in residuals.values()) <= 1e-6

    def test_single_loop_improved_equals_original_step(self):
        net = two_pipe_loop()
        one_pass = SolverConfig(max_iterations=1)
        original = solve_hardy_cross_original(net, one_pass)
        improved = solve_hardy_cross_improved(net, one_pass)
        for pid in (1, 2):
            assert improved.iterations[1].flows[pid] == \
                pytest.approx(original.iterations[1].flows[pid], rel=1e-12)

    def test_cross_method_equivalence(self, gas_network, water_network):
        for net in (gas_network, water_network):
            config = SolverConfig()
            reports = [solve_node_loop(net, config),
                       solve_hardy_cross_original(net, config),
                       solve_hardy_cross_improved(net, config)]
            assert all(r.termination == "converged" for r in reports)
            for a in reports:
                for b in reports:
                    diff = a.final_flows.max_change_m3h(b.final_flows)
                    assert diff <= 2 * config.flow_tolerance_m3h

    def test_original_needs_strictly_more_iterations(self, gas_network):
        config = SolverConfig()
        original = solve_hardy_cross_original(gas_network, config)
        improved = solve_hardy_cross_improved(gas_network, config)
        node_loop = solve_node_loop(gas_network, config)
        assert original.iteration_count > improved.iteration_count
        assert abs(node_loop.iteration_count - improved.iteration_count) <= 1

    def test_dispatcher(self, gas_network):
        for method in (NODE_LOOP, HARDY_CROSS, HARDY_CROSS_IMPROVED):
            report = solve(gas_network, SolverConfig(method=method))
            assert report.method == method
        with pytest.raises(ValueError, match="unknown method"):
            solve(gas_network, SolverConfig(method="bogus"))

    def test_reference_node_choice_does_not_change_flows(self, gas_network):
        # any node's continuity row may be the omitted one
        moved = Network(pipes=gas_network.pipes, nodes=gas_network.nodes,
                        fluid=gas_network.fluid,
                        explicit_loops=gas_network.explicit_loops,
                        reference_node="I",
                        initial_flows_m3h=gas_network.initial_flows_m3h)
        baseline = solve_node_loop(gas_network, SolverConfig())
        alternate = solve_node_loop(moved, SolverConfig())
        diff = baseline.final_flows.max_change_m3h(alternate.final_flows)
        assert diff <= 0.02


class TestInitialPatternIndependence:
    def test_five_random_starts_agree(self, gas_network):
        config = SolverConfig()
        baseline = solve_node_loop(gas_network, config).final_flows
        for seed in range(1, 6):
            start = feasible_initial_flows(gas_network, seed)
            report = solve_node_loop(gas_network, config, initial=start)
            assert report.termination == "converged"
            assert report.final_flows.max_change_m3h(baseline) <= 0.02


class TestPropagatePressures:
    def test_unknown_source_raises(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        zero = FlowState({p.id: 0.0 for p in net.pipes})
        with pytest.raises(KeyError, match="no node 9 in network"):
            propagate_pressures(net, zero, 9, 4e5)

    def test_zero_flow_network_uniform_pressure(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        zero = FlowState({p.id: 0.0 for p in net.pipes})
        pressures = propagate_pressures(net, zero, 1, 4e5)
        assert all(p == pytest.approx(4e5) for p in pressures.values())

    def test_gas_edge_consistency(self, gas_network):
        # Path independence oracle: across EVERY pipe the squared-pressure
        # difference must equal the signed drop, up to the converged loop
        # imbalance (only non-tree pipes can absorb it).
        report = solve_node_loop(gas_network, SolverConfig())
        flows = report.final_flows
        pressures = propagate_pressures(gas_network, flows, "I", 4e5)
        model = make_fluid_model(gas_network.fluid)
        slack = max(report.loop_residuals[-1]) + 1e-6
        for p in gas_network.pipes:
            q = flows.flows[p.id]
            drop = model.drop(p, abs(q)) * (1.0 if q >= 0 else -1.0)
            lhs = pressures[p.from_node] ** 2 - pressures[p.to_node] ** 2
            assert abs(lhs - drop) <= slack

    # An int is judged as a float: 10**200 as 1e200, and 10**400, past the
    # float range, as inf.
    @pytest.mark.parametrize("pressure, message", [
        (1e200, "source pressure 1e.200 Pa overflows when squared"),
        (10**200, "source pressure 1e.200 Pa overflows when squared"),
        (10**400, "source pressure must be finite and > 0 Pa, got inf"),
    ], ids=["float", "int", "int-past-float-range"])
    @pytest.mark.parametrize("kind", ["gas", "water"])
    def test_gas_source_pressure_whose_square_overflows_is_a_value_error(self, kind, pressure,
                                                                         message, request):
        net = request.getfixturevalue(f"{kind}_network")
        flows = solve_node_loop(net, SolverConfig()).final_flows
        with pytest.raises(ValueError, match=f"^{message}$"):
            propagate_pressures(net, flows, "I", pressure)

    def test_water_monotone_along_flow(self, water_network):
        # The fixture's water drops sum to ~0.96 MPa on the worst path, so
        # positivity needs a source above that; monotonicity holds anyway.
        report = solve_node_loop(water_network, SolverConfig())
        flows = report.final_flows
        pressures = propagate_pressures(water_network, flows, "I", 1.5e6)
        assert all(p > 0.0 for p in pressures.values())
        slack = max(report.loop_residuals[-1]) + 1e-9
        for p in water_network.pipes:
            q = flows.flows[p.id]
            upstream = p.from_node if q >= 0 else p.to_node
            downstream = p.to_node if q >= 0 else p.from_node
            assert pressures[upstream] >= pressures[downstream] - slack

    def test_water_edge_consistency(self, water_network):
        report = solve_node_loop(water_network, SolverConfig())
        flows = report.final_flows
        pressures = propagate_pressures(water_network, flows, "I", 4e5)
        model = make_fluid_model(water_network.fluid)
        slack = max(report.loop_residuals[-1]) + 1e-9
        for p in water_network.pipes:
            q = flows.flows[p.id]
            drop = model.drop(p, abs(q)) * (1.0 if q >= 0 else -1.0)
            lhs = pressures[p.from_node] - pressures[p.to_node]
            assert abs(lhs - drop) <= slack

    def test_infeasible_source_pressure(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        with pytest.raises(InfeasiblePressureError):
            propagate_pressures(gas_network, report.final_flows, "I", 500.0)

    @pytest.mark.parametrize("value", [-5.0, 0.0, float("nan"), float("inf")])
    def test_source_pressure_must_be_finite_and_positive(self, value, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        with pytest.raises(ValueError, match="source pressure must be finite and > 0 Pa"):
            propagate_pressures(gas_network, report.final_flows, "I", value)

    def test_deterministic(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        first = propagate_pressures(gas_network, report.final_flows, "I", 4e5)
        second = propagate_pressures(gas_network, report.final_flows, "I", 4e5)
        assert first == second


class TestReportShape:
    def test_singular_system_termination(self, gas_network, monkeypatch):
        import loopflow.solvers as solvers_module
        from loopflow.numerics import SingularSystemError

        def explode(matrix, rhs):
            raise SingularSystemError("forced")

        monkeypatch.setattr(solvers_module, "solve_linear", explode)
        report = solvers_module.solve_node_loop(gas_network, SolverConfig())
        assert report.termination == "singular-system"
        assert report.iteration_count == 0

    @pytest.mark.parametrize("method", [NODE_LOOP, HARDY_CROSS_IMPROVED])
    def test_singular_loop_rows_state_their_reason(self, method):
        # At a diameter of 1e300 m, d**4.82 overflows: every drop and
        # derivative is 0 despite the floor, so every loop row and the loop
        # Jacobian are zero.
        net = two_pipe_loop()
        net = dataclasses.replace(net, pipes=[dataclasses.replace(p, diameter=1e300)
                                              for p in net.pipes])
        report = solve(net, SolverConfig(method=method))
        assert (report.termination, report.iteration_count) == ("singular-system", 0)
        row = 1 if method == NODE_LOOP else 0
        assert report.stop_reason == (
            f"singular-system at pass 1: row {row} of the system matrix is zero")

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", -1), ("max_iterations", 2.5), ("residual_tolerance", -1.0),
        ("residual_tolerance", math.nan), ("flow_tolerance_m3h", math.nan),
        ("flow_tolerance_m3h", -0.5), ("max_iterations", True), ("max_iterations", "50"),
        ("residual_tolerance", "1"), ("residual_tolerance", False),
        ("flow_tolerance_m3h", "0.1"), ("flow_tolerance_m3h", True)])
    @pytest.mark.parametrize("method", METHODS)
    def test_setting_out_of_range_is_named_before_any_evaluation(self, method, field, value,
                                                                  gas_network, monkeypatch):
        rule = {"max_iterations": "an integer >= 0", "residual_tolerance": ">= 0 or None",
                "flow_tolerance_m3h": ">= 0"}
        calls = Counter()
        monkeypatch.setattr(solvers_module, "evaluate_loops",
                            lambda *args: calls.update(["evaluate_loops"]))
        message = f"{field} must be {rule[field]}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve(gas_network, SolverConfig(method=method, **{field: value}))
        assert calls == Counter()

    @pytest.mark.parametrize("setting", [
        {"max_iterations": 0}, {"residual_tolerance": 0.0}, {"residual_tolerance": None},
        {"flow_tolerance_m3h": 0.0}, {"flow_tolerance_m3h": math.inf}])
    def test_settings_at_the_edge_of_their_range_run(self, setting, gas_network):
        assert solve(gas_network, SolverConfig(**setting)).termination in (
            "converged", "max-iterations")

    def test_residual_history_parallels_iterations(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        assert len(report.loop_residuals) == len(report.iterations)
        assert all(len(r) == 5 for r in report.loop_residuals)

    def test_max_iterations_termination(self, water_network):
        report = solve_node_loop(water_network, SolverConfig(max_iterations=2))
        assert report.termination == "max-iterations"
        assert report.iteration_count == 2


def grid_network(n: int, kind: str) -> Network:
    """n×n grid with no explicit loops: the solvers derive the basis.

    The corner node 1 supplies every other node; diameters vary from pipe
    to pipe so that no flow pattern is symmetric.
    """
    def node(r, c):
        return r * n + c + 1

    pipes = []
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < n and c2 < n:
                    k = len(pipes) + 1
                    pipes.append(Pipe(k, node(r, c), node(r2, c2),
                                      0.1 + 0.02 * (k % 5), 80.0 + 7.0 * k, 2e-5))
    demands = [20.0 + 3.0 * k for k in range(n * n - 1)]
    nodes = [NodeSpec(1, -sum(demands))] + [
        NodeSpec(k + 2, d) for k, d in enumerate(demands)]
    fluid = (FluidSpec(kind="gas", rel_density=0.6) if kind == "gas"
             else FluidSpec(kind="water", density=1000.0, viscosity=0.00089))
    return Network(pipes=pipes, nodes=nodes, fluid=fluid)


@pytest.mark.parametrize("kind", ["gas", "water"])
def test_derived_basis_grid_methods_agree(kind):
    net = grid_network(4, kind)
    assert net.explicit_loops is None and net.loop_count == 9
    config = SolverConfig(flow_tolerance_m3h=1e-9, max_iterations=100)
    node_loop = solve_node_loop(net, config)
    improved = solve_hardy_cross_improved(net, config)
    for report in (node_loop, improved):
        assert report.termination == "converged"
        for state in report.iterations:
            residuals = node_balance_residuals_m3h(net, state.flows)
            assert max(abs(r) for r in residuals.values()) / 3600.0 <= 1e-9
    assert node_loop.final_flows.max_change_m3h(improved.final_flows) <= 1e-6


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("net", invalid_networks())
def test_solve_rejects_invalid_network(net, method):
    with pytest.raises(ValueError, match="invalid network"):
        solve(net, SolverConfig(method=method))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("which", ["derived", "fixture", "fixture-no-initial"])
def test_one_validation_and_one_tree_per_solve(which, method, gas_network, monkeypatch):
    # square_net derives its basis and start from the tree; the gas fixture
    # brings explicit loops and initial flows, and without the flows it
    # takes its start from the tree that rank-checks its loops.  Either way
    # the tree is the network's own, so no solve asks `spanning_tree` for
    # a copy of it.
    net = {"derived": square_net(), "fixture": gas_network,
           "fixture-no-initial": dataclasses.replace(gas_network,
                                                     initial_flows_m3h=None)}[which]
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "loopflow" or name.startswith("loopflow.")]
    for original in (validate, spanning_tree, select_basis, derive_loop_basis,
                     adopt_explicit_loops):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    solve(net, SolverConfig(method=method))
    basis = "derive_loop_basis" if which == "derived" else "adopt_explicit_loops"
    assert calls == {"validate": 1, "select_basis": 1, basis: 1}


@pytest.mark.parametrize("kind", ["gas", "water"])
@pytest.mark.parametrize("shape", ["tree", "grid", "ring"])
def test_repeat_runs_match_the_first(shape, kind):
    """A network keeps its tree, loops and start, and repeat solves and
    sizings of the benchmark's shapes answer from them as the first did."""
    networks, rng = perfbench_networks(), random.Random(0)
    raw = {"tree": lambda: networks.tree_with_closures(1200, 10, kind, rng),
           "grid": lambda: networks.grid(11, 11, kind, rng),
           "ring": lambda: networks.ring_with_chords(200, 70, kind, rng)}[shape]()
    net = network_from_dict(raw)
    for method in METHODS:
        first, repeat = (solve(net, SolverConfig(method=method)) for _ in range(2))
        assert (repeat.iterations, repeat.loop_residuals, repeat.termination) == \
            (first.iterations, first.loop_residuals, first.termination)
    config = SizingConfig(fixed_flows=FlowState(
        {pid: m3h_to_m3s(q) for pid, q in networks.balanced_flows(raw, rng).items()}))
    first, repeat = (optimize_diameters(net, select_basis(net), config) for _ in range(2))
    assert (repeat.diameters, repeat.diameter_history, repeat.termination) == \
        (first.diameters, first.diameter_history, first.termination)


def face_loops(raw: dict, rows: int, cols: int) -> list[list[int]]:
    """The cells of a `perfbench/networks.py` grid as signed pipe-id loops."""
    signed = {}
    for p in raw["pipes"]:
        signed[p["from"], p["to"]], signed[p["to"], p["from"]] = p["id"], -p["id"]
    corners = [[r * cols + c + 1, r * cols + c + 2, (r + 1) * cols + c + 2, (r + 1) * cols + c + 1]
               for r in range(rows - 1) for c in range(cols - 1)]
    return [[signed[a, b] for a, b in zip(cell, cell[1:] + cell[:1])] for cell in corners]


def start_of(net: Network) -> FlowState:
    """The state a solve given no start begins from."""
    return solve(net, SolverConfig(max_iterations=0)).iterations[0]


class TestLinearStart:
    """Without a given start, a solve begins from the flows of the same network
    with linear pipe resistances (linear theory)."""

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("shape", ["grid", "ring"])
    def test_it_balances_every_node(self, shape, kind):
        networks, rng = perfbench_networks(), random.Random(0)
        net = network_from_dict(networks.grid(6, 6, kind, rng) if shape == "grid"
                                else networks.ring_with_chords(60, 15, kind, rng))
        start = start_of(net)
        assert start != feasible_initial_flows(net)
        residuals = node_balance_residuals_m3h(net, start.flows)
        assert max(abs(r) for r in residuals.values()) / 3600.0 <= 1e-9

    @pytest.mark.parametrize("kind", ["gas", "water"])
    def test_face_loops_and_derived_loops_give_one_start(self, kind):
        raw = perfbench_networks().grid(6, 6, kind, random.Random(0))
        derived = network_from_dict(raw)
        faces = network_from_dict({**raw, "loops": face_loops(raw, 6, 6)})
        assert select_basis(faces) != select_basis(derived)
        ids = derived.pipe_ids
        a, b = (np.array([start_of(net).flows[pid] for pid in ids]) for net in (derived, faces))
        assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()

    def test_it_is_derived_once_per_network(self, monkeypatch):
        # Original Hardy Cross solves no linear system of its own, so each
        # call counted is the start's.
        net, calls = perfbench_grid(6, 6, "water", seed=0), []

        def counted(matrix, rhs):
            calls.append(len(rhs))
            return solve_linear(matrix, rhs)

        monkeypatch.setattr(solvers_module, "solve_linear", counted)
        reports = [solve_hardy_cross_original(net, SolverConfig(max_iterations=3))
                   for _ in range(3)]
        assert calls == [net.loop_count]
        kept = dict(zip(net.pipe_ids, net._linear_start.tolist()))
        assert all(report.iterations[0].flows == kept for report in reports)

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("kind", ["gas", "water"])
    def test_huge_diameters_fall_back_to_the_tree_flows(self, kind, smooth):
        # At a diameter of 1e300 m the flow at 1 m/s is infinite, so every
        # D there is not finite, and in smooth water pipes Colebrook finds
        # no factor at an infinite Re: the solve starts from the tree, and
        # ends as it did before it had the linear-theory start.
        grid = perfbench_grid(6, 6, kind, seed=0)
        net = dataclasses.replace(grid, pipes=[
            dataclasses.replace(p, diameter=1e300, roughness=0.0 if smooth else p.roughness)
            for p in grid.pipes])
        assert net.explicit_loops is None
        assert start_of(net) == feasible_initial_flows(net)
        for method in METHODS:
            report = solve(net, SolverConfig(method=method))
            assert report.iterations[0] == start_of(net)
            assert report.termination == ("diverged" if kind == "water" else
                                          "converged" if method == HARDY_CROSS
                                          else "singular-system")

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shape", ["grid", "ring"])
    def test_newton_methods_need_few_passes_on_meshed_networks(self, shape, seed, kind):
        # From the tree flows they needed 10-16 passes.
        networks, rng = perfbench_networks(), random.Random(seed)
        net = network_from_dict(networks.grid(11, 11, kind, rng) if shape == "grid"
                                else networks.ring_with_chords(200, 70, kind, rng))
        for method in (NODE_LOOP, HARDY_CROSS_IMPROVED):
            report = solve(net, SolverConfig(method=method))
            assert report.termination == "converged"
            assert report.iteration_count <= 8


@pytest.mark.parametrize("scale", [1e-4, 1e-2])
@pytest.mark.parametrize("seed", range(2))
def test_low_flow_water_lands_near_a_tight_solve(seed, scale):
    # Laminar and transition pipes: with λ(Re)'s slope in D, Newton stays
    # quadratic, so the default stop is as good as a tight one.  With λ
    # frozen, the stop after 1 pass at demands ×1e-4 was 41-50% off.
    raw = perfbench_networks().grid(5, 5, "water", random.Random(seed))
    for node in raw["nodes"]:
        node["demand_m3h"] *= scale
    net = network_from_dict(raw)
    tight = solve(net, SolverConfig(flow_tolerance_m3h=1e-10, max_iterations=200))
    assert tight.termination == "converged"
    ids = net.pipe_ids
    exact = np.array([tight.final_flows.flows[pid] for pid in ids])
    for method in (NODE_LOOP, HARDY_CROSS_IMPROVED):
        report = solve(net, SolverConfig(method=method))
        assert report.termination == "converged"
        q = np.array([report.final_flows.flows[pid] for pid in ids])
        assert np.abs(q - exact).max() <= 1e-3 * np.abs(exact).max()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("through_m3h", [100.0, 0.01])
@pytest.mark.parametrize("kind", ["gas", "water"])
def test_balanced_bridge_carries_no_flow(kind, through_m3h, method):
    """A Wheatstone bridge with four equal arms: at the answer its middle
    pipe carries no flow, and every method stops there after one pass."""
    fluid = (FluidSpec(kind="gas", rel_density=0.6) if kind == "gas"
             else FluidSpec(kind="water", density=1000.0, viscosity=0.00089))
    arms = [Pipe(1, "S", "A", 0.1, 100.0), Pipe(2, "S", "B", 0.1, 100.0),
            Pipe(3, "A", "T", 0.1, 100.0), Pipe(4, "B", "T", 0.1, 100.0)]
    net = Network(pipes=[*arms, Pipe(5, "A", "B", 0.1, 100.0)],
                  nodes=[NodeSpec("S", -through_m3h), NodeSpec("A", 0.0),
                         NodeSpec("B", 0.0), NodeSpec("T", through_m3h)],
                  fluid=fluid)
    report = solve(net, SolverConfig(method=method))
    assert (report.termination, report.iteration_count, report.stop_reason) == \
        ("converged", 1, "")
    flows = report.final_flows.as_m3h()
    assert abs(flows[5]) <= 5e-15
    assert [flows[p.id] for p in arms] == pytest.approx([through_m3h / 2] * 4, rel=1e-12)


def shifted_start(net, pipe_id=1, extra_m3h=36.0):
    """`net`'s file start with one pipe's flow raised: 0.01 m3/s off balance
    at both of its end nodes, which `validate` does not look at."""
    flows = dict(net.initial_flows_m3h)
    flows[pipe_id] += extra_m3h
    return dataclasses.replace(net, initial_flows_m3h=flows)


class TestGivenStart:
    @pytest.mark.parametrize("method", [HARDY_CROSS, HARDY_CROSS_IMPROVED])
    def test_hardy_cross_rejects_an_unbalanced_file_start(self, method, gas_network):
        net = shifted_start(gas_network)
        assert validate(net) == []
        with pytest.raises(ValueError,
                           match=r"initial flows violate node balances by 1\.000e-02 m3/s"):
            solve(net, SolverConfig(method=method))

    @pytest.mark.parametrize("node_loop_first", [True, False],
                             ids=["node-loop-first", "hardy-cross-first"])
    def test_the_kept_file_start_is_judged_on_every_solve(self, node_loop_first, gas_network):
        net = shifted_start(gas_network)

        def hardy_cross_rejects_it():
            for method in (HARDY_CROSS, HARDY_CROSS_IMPROVED):
                with pytest.raises(ValueError, match=r"initial flows violate node "
                                                     r"balances by 1\.000e-02 m3/s"):
                    solve(net, SolverConfig(method=method))

        if not node_loop_first:
            hardy_cross_rejects_it()
        report = solve(net, SolverConfig(method=NODE_LOOP))
        assert report.termination == "converged"
        assert report.iterations[0] == initial_state(net)
        hardy_cross_rejects_it()
        assert solve(net, SolverConfig(method=NODE_LOOP)).iterations == report.iterations

    @pytest.mark.parametrize("method", [HARDY_CROSS, HARDY_CROSS_IMPROVED])
    def test_hardy_cross_rejects_an_unbalanced_given_start(self, method, gas_network):
        start = initial_state(shifted_start(gas_network))
        with pytest.raises(ValueError, match="initial flows violate node balances"):
            solve(gas_network, SolverConfig(method=method), initial=start)

    def test_node_loop_restores_continuity(self, gas_network):
        report = solve(shifted_start(gas_network), SolverConfig(method=NODE_LOOP))
        assert report.termination == "converged"
        residuals = node_balance_residuals_m3h(gas_network, report.final_flows.flows)
        assert max(abs(r) for r in residuals.values()) / 3600.0 <= 1e-9

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("change, message", [
        ({1: float("nan")}, "initial flow of pipe 1 must be finite, got nan"),
        ({1: None}, "initial flow missing for pipe 1"),
        ({999: 0.0}, "initial flow given for unknown pipe 999"),
    ], ids=["nan", "missing", "unknown"])
    def test_initial_argument_is_checked(self, method, change, message, gas_network):
        flows = dict(initial_state(gas_network).flows)
        for pid, q in change.items():
            if q is None:
                del flows[pid]
            else:
                flows[pid] = q
        with pytest.raises(ValueError, match=f"invalid initial flows: {message}$"):
            solve(gas_network, SolverConfig(method=method), initial=FlowState(flows))


class TestDivergence:
    """Original Hardy Cross diverges on meshed grids; the run stops early."""

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("size", [8, 15])
    def test_diverging_grid_stops_with_finite_balanced_flows(self, size, kind):
        net = perfbench_grid(size, size, kind, seed=0)
        report = solve_hardy_cross_original(net, SolverConfig())
        assert report.termination == "diverged"
        assert report.iteration_count <= 6
        assert report.stop_reason.startswith(
            f"diverged at pass {report.iteration_count}: the worst loop residual rose")
        assert np.isfinite(report.loop_residuals).all()
        for state in report.iterations:
            assert np.isfinite(list(state.flows.values())).all()
            balances = node_balance_residuals_m3h(net, state.flows)
            assert max(map(abs, balances.values())) / 3600.0 <= 1e-9

    # 1e200 m³/s is finite, but its pressure drop overflows the residuals.
    # On water, a NaN flow gives a NaN Reynolds number and friction factor.
    @pytest.mark.parametrize("fluid", ["gas", "water"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
    def test_non_finite_step_keeps_the_last_finite_state(self, bad, fluid, request,
                                                         monkeypatch):
        network = request.getfixturevalue(f"{fluid}_network")
        reference = solve_hardy_cross_original(network, SolverConfig())
        assert reference.iteration_count > 3
        iterate = solvers_module._iterate

        def spoiling_third_pass(net, config, initial, method, step):
            passes = 0

            def spoiled(loop_eval):
                nonlocal passes
                passes += 1
                q = step(loop_eval)
                if passes == 3:
                    q[0] = bad
                return q

            return iterate(net, config, initial, method, spoiled)

        monkeypatch.setattr(solvers_module, "_iterate", spoiling_third_pass)
        report = solve_hardy_cross_original(network, SolverConfig())
        assert report.termination == "diverged"
        assert report.stop_reason == "diverged at pass 3: non-finite flows or loop residuals"
        assert report.iterations == reference.iterations[:3]
        assert report.loop_residuals == reference.loop_residuals[:3]
        assert report.velocities == solvers_module.final_velocities(
            network, reference.iterations[2])

    # d⁴·⁸² (gas) or d⁵ (water) underflows to 0, so pipe 1's drop and
    # derivative are inf.  On a smooth water pipe of 1e-306 m the Reynolds
    # number overflows instead, and the friction factor, drop and
    # derivative are NaN.
    @pytest.mark.parametrize("fluid, diameter, roughness, not_finite", [
        pytest.param("gas", 1e-300, None, np.isinf, id="gas"),
        pytest.param("water", 1e-300, None, np.isinf, id="water"),
        pytest.param("water", 1e-306, 0.0, np.isnan, id="water-smooth"),
    ])
    @pytest.mark.parametrize("max_iterations", [50, 0])
    @pytest.mark.parametrize("method", METHODS)
    def test_start_that_is_not_finite_ends_diverged_after_no_pass(
            self, method, max_iterations, fluid, diameter, roughness, not_finite, request):
        network = request.getfixturevalue(f"{fluid}_network")
        pipes = [dataclasses.replace(p, diameter=diameter,
                                     roughness=p.roughness if roughness is None else roughness)
                 if p.id == 1 else p for p in network.pipes]
        net = dataclasses.replace(network, pipes=pipes)
        report = solve(net, SolverConfig(method=method, max_iterations=max_iterations))
        assert (report.termination, report.iteration_count) == ("diverged", 0)
        assert report.stop_reason == ("diverged at pass 0: the start's loop residuals or "
                                      "pipe derivatives are not finite")
        # Only the loops that hold pipe 1 are not finite; each other loop
        # is its own members' sum, as in the unaltered fixture's start.
        holds = np.array([any(pid == 1 for pid, _ in loop) for loop in select_basis(net).loops])
        start = np.array(report.loop_residuals[0])
        assert holds.any() and not holds.all()
        assert not_finite(start[holds]).all()
        reference = solve(network, SolverConfig(max_iterations=0)).loop_residuals[0]
        assert start[~holds] == pytest.approx(np.array(reference)[~holds], rel=1e-12)

    def test_rising_residual_below_the_blowup_does_not_stop(self):
        net = perfbench_grid(4, 4, "gas", seed=0)
        report = solve_hardy_cross_original(net, SolverConfig())
        worst = [max(r) for r in report.loop_residuals]
        rises = [b > a for a, b in zip(worst, worst[1:])]
        assert any(all(rises[k:k + 3]) for k in range(len(rises) - 2))
        assert max(worst) <= worst[0]
        assert report.termination == "max-iterations"
        assert report.iteration_count == 50
        assert report.stop_reason == (
            "max-iterations after 50 passes: the worst loop residual is 2.57e+05 Pa2, "
            "from 3.94e+05 Pa2 at the start, and rose on the last 0 passes")

    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", ["grid", "ring"])
    def test_only_original_hardy_cross_stops_on_meshed_networks(self, shape, seed, kind):
        networks = perfbench_networks()
        rng = random.Random(seed)
        data = (networks.grid(11, 11, kind, rng) if shape == "grid"
                else networks.ring_with_chords(200, 70, kind, rng))
        net = network_from_dict(data)
        for method in METHODS:
            report = solve(net, SolverConfig(method=method))
            assert report.termination == ("diverged" if method == HARDY_CROSS else "converged")

    @pytest.mark.parametrize("kind", ["gas", "water"])
    def test_no_stop_on_closed_trees(self, kind):
        net = network_from_dict(
            perfbench_networks().tree_with_closures(1200, 10, kind, random.Random(0)))
        for method in (HARDY_CROSS, HARDY_CROSS_IMPROVED):
            assert solve(net, SolverConfig(method=method)).termination == "converged"


def reversed_pipe(net: Network, pipe_id) -> Network:
    """`net` with one pipe's orientation reversed: its ends swapped, and its
    sign in the explicit loops and in the initial flows negated."""
    def turn(p):
        return dataclasses.replace(p, from_node=p.to_node, to_node=p.from_node) \
            if p.id == pipe_id else p

    loops = net.explicit_loops and [tuple(-s if abs(s) == pipe_id else s for s in loop)
                                    for loop in net.explicit_loops]
    flows = net.initial_flows_m3h and {pid: -q if pid == pipe_id else q
                                       for pid, q in net.initial_flows_m3h.items()}
    return dataclasses.replace(net, pipes=[turn(p) for p in net.pipes],
                               explicit_loops=loops, initial_flows_m3h=flows)


def orientation_cases():
    cases = [pytest.param(fluid, None, 0, id=f"{fluid}-fixture") for fluid in ("gas", "water")]
    return cases + [pytest.param(kind, shape, seed, id=f"{kind}-{shape}-{seed}")
                    for shape in ("grid", "ring") for kind in ("gas", "water")
                    for seed in range(2)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind, shape, seed", orientation_cases())
def test_reversing_a_pipe_negates_its_flow(kind, shape, seed, method, request):
    """A pipe's orientation is a sign convention: reversing it negates its
    flow and leaves every other flow and the course of the run as it was."""
    if shape is None:
        net = request.getfixturevalue(f"{kind}_network")
    else:
        networks, rng = perfbench_networks(), random.Random(seed)
        net = network_from_dict(networks.grid(11, 11, kind, rng) if shape == "grid"
                                else networks.ring_with_chords(200, 70, kind, rng))
    config = SolverConfig(method=method)
    report = solve(net, config)
    final = report.final_flows.as_m3h()
    for pipe_id in random.Random(seed).sample(net.pipe_ids, 3):
        turned = solve(reversed_pipe(net, pipe_id), config)
        assert (turned.termination, turned.iteration_count) == \
            (report.termination, report.iteration_count)
        expected = {**final, pipe_id: -final[pipe_id]}
        assert turned.final_flows.as_m3h() == pytest.approx(expected, rel=0, abs=1e-9)
