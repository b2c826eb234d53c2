"""Solver behaviour on the fixture network and small synthetic networks."""

import dataclasses
import logging
import random
import sys
from collections import Counter

import numpy as np
import pytest

import loopflow.solvers as solvers_module
from loopflow.fileio import network_from_dict
from loopflow.fluids import make_fluid_model
from loopflow.model import (
    FlowState,
    FluidSpec,
    Network,
    NodeSpec,
    Pipe,
    feasible_initial_flows,
    m3h_to_m3s,
    spanning_tree,
    validate,
)
from loopflow.numerics import condition_estimate, solve_linear
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
from conftest import node_balance_residuals_m3h, perfbench_networks
from test_model import invalid_networks, square_net


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

    def test_zero_flows_zero_residuals(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        basis = select_basis(net)
        zero = FlowState({p.id: 0.0 for p in net.pipes})
        result = evaluate_loops(net, basis, zero)
        assert all(r == 0.0 for r in result.residuals)

    def test_derivative_floor_keeps_rows_nonzero(self, gas_network):
        basis = select_basis(gas_network)
        zero = FlowState({p.id: 0.0 for p in gas_network.pipes})
        result = evaluate_loops(gas_network, basis, zero,
                                derivative_flow_floor=1e-7)
        for dflow in result.member_dflow:
            assert all(v > 0.0 for v in dflow.values())


class TestAssembleNodeLoopSystem:
    def test_loop_one_row_coefficients(self, gas_network):
        flows = initial_state(gas_network)
        basis = select_basis(gas_network)
        system = assemble_node_loop_system(
            evaluate_loops(gas_network, basis, flows))
        row = system.matrix[10]  # first loop row, after the ten node rows
        expected = {1: 3766062.0, 2: -18094990.0, 3: -2858306918.0,
                    4: 111651451.0}
        for pid, value in expected.items():
            assert row[pid - 1] == pytest.approx(value, rel=5e-3)
        assert all(row[j] == 0.0 for j in range(4, 15))

    def test_node_rows_rhs_are_demands(self, gas_network):
        flows = initial_state(gas_network)
        basis = select_basis(gas_network)
        system = assemble_node_loop_system(
            evaluate_loops(gas_network, basis, flows))
        demands_m3h = [-6940.0, 2100.0, 170.0, 90.0, 200.0, 2500.0, 300.0,
                       170.0, 850.0, 280.0]
        for i, d in enumerate(demands_m3h):
            assert system.rhs[i] == pytest.approx(d / 3600.0, rel=1e-12)

    def test_zero_network_solves_to_zero(self):
        net = square_net(demands=(0.0, 0.0, 0.0, 0.0))
        report = solve_node_loop(net, SolverConfig())
        assert report.termination == "converged"
        assert all(abs(q) < 1e-12 for q in report.final_flows.flows.values())

    def test_dimension_mismatch_rejected(self, gas_network):
        flows = initial_state(gas_network)
        basis = select_basis(gas_network)
        short_basis = type(basis)(basis.loops[:3])
        with pytest.raises(ValueError, match="dimension mismatch"):
            assemble_node_loop_system(
                evaluate_loops(gas_network, short_basis, flows))


def perfbench_grid(rows: int, cols: int, kind: str, seed: int) -> Network:
    """A street grid from the benchmark's stdlib-only network generators."""
    return network_from_dict(perfbench_networks().grid(rows, cols, kind, random.Random(seed)))


@pytest.fixture(params=["gas-fixture", "grid-11x11"])
def node_loop_net(request, gas_network):
    if request.param == "gas-fixture":
        return gas_network
    return perfbench_grid(11, 11, "water", seed=0)


class TestNodeLoopBuffer:
    """A node-loop solve assembles its stacked system into one buffer."""

    def test_every_pass_shares_one_buffer(self, node_loop_net, monkeypatch):
        matrices = []

        def recording(system):
            matrices.append(system.matrix)
            return solve_linear(system)

        monkeypatch.setattr(solvers_module, "solve_linear", recording)
        report = solve_node_loop(node_loop_net, SolverConfig())
        assert report.termination == "converged"
        assert len(matrices) == report.iteration_count >= 3
        assert all(np.shares_memory(m, matrices[0]) for m in matrices[1:])

    def test_iterates_equal_a_fresh_assembly_per_pass(self, node_loop_net):
        report = solve_node_loop(node_loop_net, SolverConfig())
        basis = select_basis(node_loop_net)
        ids = node_loop_net.pipe_ids
        q = np.array([report.iterations[0].flows[pid] for pid in ids])
        for state in report.iterations[1:]:
            system = assemble_node_loop_system(evaluate_loops(node_loop_net, basis, q))
            q = solve_linear(system)
            assert [state.flows[pid] for pid in ids] == q.tolist()

    def test_condition_estimate_taken_on_the_raw_system(self, gas_network, monkeypatch,
                                                        caplog):
        seen = []

        def recording(system):
            seen.append((system.matrix.copy(), system.rhs.copy()))
            return condition_estimate(system)

        monkeypatch.setattr(solvers_module, "condition_estimate", recording)
        with caplog.at_level(logging.DEBUG, logger="loopflow.solvers"):
            report = solve_node_loop(gas_network, SolverConfig())
        raw = assemble_node_loop_system(evaluate_loops(
            gas_network, select_basis(gas_network), report.iterations[0]))
        assert len(seen) == 1
        assert (seen[0][0] == raw.matrix).all() and (seen[0][1] == raw.rhs).all()
        assert np.abs(raw.matrix).max() > 1e6    # loop rows far from unit scale


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

    def test_damping_inactive_on_fixture(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig(damping=True))
        assert report.damped_iterations == []
        assert report.termination == "converged"

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

    def test_deterministic(self, gas_network):
        report = solve_node_loop(gas_network, SolverConfig())
        first = propagate_pressures(gas_network, report.final_flows, "I", 4e5)
        second = propagate_pressures(gas_network, report.final_flows, "I", 4e5)
        assert first == second


class TestReportShape:
    def test_singular_system_termination(self, gas_network, monkeypatch):
        import loopflow.solvers as solvers_module
        from loopflow.numerics import SingularSystemError

        def explode(system):
            raise SingularSystemError("forced")

        monkeypatch.setattr(solvers_module, "solve_linear", explode)
        report = solvers_module.solve_node_loop(gas_network, SolverConfig())
        assert report.termination == "singular-system"
        assert report.iteration_count == 0

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
    # takes its start from the tree that rank-checks its loops.
    net = {"derived": square_net(), "fixture": gas_network,
           "fixture-no-initial": dataclasses.replace(gas_network,
                                                     initial_flows_m3h=None)}[which]
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "loopflow" or name.startswith("loopflow.")]
    for original in (validate, spanning_tree):
        def counted(*args, _original=original, **kwargs):
            calls[_original.__name__] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    solve(net, SolverConfig(method=method))
    assert calls == {"validate": 1, "spanning_tree": 1}


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

    @pytest.mark.parametrize("damping", [False, True], ids=["undamped", "damped"])
    @pytest.mark.parametrize("kind", ["gas", "water"])
    @pytest.mark.parametrize("size", [8, 15])
    def test_diverging_grid_stops_with_finite_balanced_flows(self, size, kind, damping):
        net = perfbench_grid(size, size, kind, seed=0)
        report = solve_hardy_cross_original(net, SolverConfig(damping=damping))
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
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
    def test_non_finite_step_keeps_the_last_finite_state(self, bad, gas_network,
                                                         monkeypatch):
        reference = solve_hardy_cross_original(gas_network, SolverConfig())
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
        report = solve_hardy_cross_original(gas_network, SolverConfig())
        assert report.termination == "diverged"
        assert report.stop_reason == "diverged at pass 3: non-finite flows or loop residuals"
        assert report.iterations == reference.iterations[:3]
        assert report.loop_residuals == reference.loop_residuals[:3]
        assert report.velocities == solvers_module.final_velocities(
            gas_network, reference.iterations[2])

    def test_damping_catches_threefold_growth(self):
        net = perfbench_grid(5, 5, "gas", seed=2)
        plain = solve_hardy_cross_original(net, SolverConfig(max_iterations=2))
        worst = [max(r) for r in plain.loop_residuals]
        assert worst[1] < worst[0] and 2.0 < worst[2] / worst[1] < 10.0
        damped = solve_hardy_cross_original(net, SolverConfig(max_iterations=2, damping=True))
        assert damped.damped_iterations == [2]
        assert damped.iterations[:2] == plain.iterations[:2]
        ids = net.pipe_ids
        q1, q2 = (np.array([s.flows[pid] for pid in ids]) for s in plain.iterations[1:])
        assert [damped.iterations[2].flows[pid] for pid in ids] == (0.5 * (q1 + q2)).tolist()
        assert max(damped.loop_residuals[2]) < worst[2]

    def test_rising_residual_below_the_blowup_does_not_stop(self):
        net = perfbench_grid(4, 4, "gas", seed=0)
        report = solve_hardy_cross_original(net, SolverConfig())
        worst = [max(r) for r in report.loop_residuals]
        rises = [b > a for a, b in zip(worst, worst[1:])]
        assert any(all(rises[k:k + 3]) for k in range(len(rises) - 2))
        assert max(worst) <= worst[0]
        assert report.termination == "max-iterations"
        assert report.iteration_count == 50

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
