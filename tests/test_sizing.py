"""Diameter sizing: derivative kernels and the loop-balance iteration."""

import dataclasses
import math
import random
import re
from collections import Counter

import pytest

from loopflow import kernels
from loopflow.fileio import network_from_dict
from loopflow.fluids import GasModel, WaterModel
from loopflow.model import FlowState, Network, NodeSpec, Pipe, feasible_initial_flows, m3h_to_m3s
from loopflow.sizing import (
    INFEASIBLE_BOUNDS,
    MAX_ITERATIONS,
    STALLED,
    SizingConfig,
    SizingInfeasibleError,
    optimize_diameters,
)
from loopflow.solvers import (DEFAULT_RESIDUAL_TOLERANCE, SolverConfig, select_basis,
                              solve_node_loop)
from loopflow.topology import derive_loop_basis

from conftest import perfbench_networks
from test_solvers import flipped_pipe_one, two_pipe_loop


def central_difference(func, x, h):
    return (func(x + h) - func(x - h)) / (2.0 * h)


class TestDiameterDerivatives:
    def test_gas_identity_at_reference_point(self):
        drop = kernels.renouard_drop(0.6, 100.0, 0.0556, 0.4064)
        ddiam = kernels.renouard_drop_ddiam(0.6, 100.0, 0.0556, 0.4064)
        assert ddiam == pytest.approx(-4.82 * drop / 0.4064, rel=1e-12)
        assert ddiam == pytest.approx(-4.82 * 114959.0 / 0.4064, rel=5e-3)

    def test_water_identity_at_reference_point(self):
        ddiam = kernels.darcy_weisbach_drop_ddiam(0.01609, 100.0, 0.0556,
                                                  0.4064, 1000.0)
        assert ddiam == pytest.approx(-5.0 * 363.19 / 0.4064, rel=5e-3)

    def test_gas_zero_flow(self):
        assert kernels.renouard_drop_ddiam(0.6, 100.0, 0.0, 0.4064) == 0.0

    def test_water_zero_flow(self):
        assert kernels.darcy_weisbach_drop_ddiam(0.016, 100.0, 0.0, 0.4,
                                                 1000.0) == 0.0

    def test_gas_finite_difference_at_pipe3_state(self):
        diam = 0.1524
        fd = central_difference(
            lambda d: kernels.renouard_drop(0.6, 100.0, 0.5667, d),
            diam, diam * 1e-6)
        assert kernels.renouard_drop_ddiam(0.6, 100.0, 0.5667, diam) == \
            pytest.approx(fd, rel=1e-5)

    def test_water_finite_difference_at_pipe12_state(self):
        # friction factor frozen, matching the derivative's convention
        lam, diam = 0.01414, 0.1524
        fd = central_difference(
            lambda d: kernels.darcy_weisbach_drop(lam, 100.0, 0.0833, d, 1000.0),
            diam, diam * 1e-6)
        assert kernels.darcy_weisbach_drop_ddiam(lam, 100.0, 0.0833, diam,
                                                 1000.0) == \
            pytest.approx(fd, rel=1e-5)


class TestOptimizeDiameters:
    @pytest.mark.parametrize("given", [None, 5.0])
    def test_residual_tolerance_resolves_as_the_solvers(self, given):
        flows = FlowState({})
        for kind in DEFAULT_RESIDUAL_TOLERANCE:
            assert SizingConfig(flows, residual_tolerance=given).resolved_residual_tolerance(
                kind) == SolverConfig(residual_tolerance=given).resolved_residual_tolerance(kind)

    @pytest.mark.parametrize("field, value, message", [
        ("residual_tolerance", math.nan, "residual_tolerance must be >= 0 or None, got nan"),
        ("residual_tolerance", -1.0, "residual_tolerance must be >= 0 or None, got -1.0"),
        ("max_iterations", -3, "max_iterations must be an integer >= 0, got -3"),
    ])
    def test_setting_out_of_range_is_named_before_any_evaluation(self, field, value, message,
                                                                  gas_network, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(GasModel, "drop_at_diameter",
                            lambda *args: calls.update(["drop_at_diameter"]))
        fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in gas_network.initial_flows_m3h.items()})
        config = SizingConfig(fixed_flows=fixed, **{field: value})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimize_diameters(gas_network, select_basis(gas_network), config)
        assert calls == Counter()

    def test_balanced_network_unchanged(self, gas_network):
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        basis = select_basis(gas_network)
        report = optimize_diameters(gas_network, basis,
                                    SizingConfig(fixed_flows=flows))
        assert report.termination == "converged"
        for p in gas_network.pipes:
            assert report.diameters[p.id] == pytest.approx(p.diameter, abs=1e-9)

    def test_uniform_perturbation_stays_balanced(self, gas_network):
        # Scaling every diameter alike scales all drops alike, so the
        # balanced state stays within tolerance without any correction.
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        perturbed = _scaled(gas_network, {p.id: 1.1 for p in gas_network.pipes})
        report = optimize_diameters(perturbed, select_basis(perturbed),
                                    SizingConfig(fixed_flows=flows))
        assert report.termination == "converged"
        assert report.max_residual <= 1e3

    @pytest.mark.parametrize("fixture_name,tolerance",
                             [("gas_network", 1e3), ("water_network", 1.0)])
    def test_random_perturbation_restored(self, request, fixture_name,
                                          tolerance):
        net = request.getfixturevalue(fixture_name)
        flows = solve_node_loop(net, SolverConfig()).final_flows
        rng = random.Random(13)
        scales = {p.id: rng.uniform(0.9, 1.2) for p in net.pipes}
        perturbed = _scaled(net, scales)
        basis = select_basis(perturbed)
        report = optimize_diameters(perturbed, basis,
                                    SizingConfig(fixed_flows=flows))
        assert report.termination == "converged"
        assert report.max_residual <= tolerance
        assert report.iteration_count >= 1

    def test_bounds_never_violated(self, gas_network):
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        rng = random.Random(29)
        perturbed = _scaled(gas_network,
                            {p.id: rng.uniform(0.8, 1.3) for p in gas_network.pipes})
        bounds = (0.05, 0.5)
        report = optimize_diameters(perturbed, select_basis(perturbed),
                                    SizingConfig(fixed_flows=flows,
                                                 diameter_bounds=bounds))
        for snapshot in report.diameter_history:
            for pid, value in snapshot.items():
                assert bounds[0] - 1e-15 <= value <= bounds[1] + 1e-15
        for residuals in report.loop_residual_history:
            assert all(r == r and r != float("inf") for r in residuals)

    def test_two_pipe_closed_form(self):
        net = two_pipe_loop(q1_m3h=500.0, q2_m3h=300.0)
        q1, q2 = m3h_to_m3s(500.0), m3h_to_m3s(300.0)
        target = kernels.renouard_drop(0.6, 100.0, q1, 0.2)
        # closed-form inversion of the gas drop for pipe 2's length/flow
        expected = (4810.0 * 0.6 * 100.0 * q2 ** 1.82 / target) ** (1 / 4.82)
        config = SizingConfig(
            fixed_flows=FlowState({1: q1, 2: q2}),
            diameter_bounds={1: (0.2 - 1e-9, 0.2 + 1e-9), 2: (0.01, 2.0)},
            residual_tolerance=1e-2)
        report = optimize_diameters(net, select_basis(net), config)
        assert report.termination == "converged"
        assert report.diameters[2] == pytest.approx(expected, rel=1e-3)

    def test_infeasible_bounds_reported(self):
        net = two_pipe_loop(q1_m3h=500.0, q2_m3h=300.0)
        config = SizingConfig(
            fixed_flows=FlowState({1: m3h_to_m3s(500.0), 2: m3h_to_m3s(300.0)}),
            diameter_bounds=(0.3, 0.35),
            residual_tolerance=1e-2,
            max_iterations=50)
        report = optimize_diameters(net, select_basis(net), config)
        assert report.termination == INFEASIBLE_BOUNDS
        assert report.bounded_pipes
        assert report.stop_reason == (
            f"infeasible within bounds after {report.iteration_count} passes: the worst "
            f"loop residual is {report.max_residual:.3g} Pa2 with "
            f"{len(report.bounded_pipes)} of 2 sized pipes at a bound "
            f"(lowest id {min(report.bounded_pipes)})")

    def test_tree_pipes_untouched_and_flagged(self):
        # ring with a spur: pipe 6 hangs off the loop and cannot be sized
        nodes = [NodeSpec(1, -20.0), NodeSpec(2, 5.0), NodeSpec(3, 5.0),
                 NodeSpec(4, 10.0)]
        pipes = [Pipe(1, 1, 2, 0.2, 50.0), Pipe(2, 2, 3, 0.2, 50.0),
                 Pipe(3, 3, 1, 0.2, 50.0), Pipe(4, 3, 4, 0.1, 30.0)]
        net = Network(pipes=pipes, nodes=nodes,
                      fluid=two_pipe_loop().fluid, reference_node=4)
        flows = FlowState({1: m3h_to_m3s(12.0), 2: m3h_to_m3s(7.0),
                           3: m3h_to_m3s(-8.0), 4: m3h_to_m3s(10.0)})
        report = optimize_diameters(net, select_basis(net),
                                    SizingConfig(fixed_flows=flows,
                                                 residual_tolerance=1e-6))
        assert report.tree_pipes == {4}
        assert report.diameters[4] == 0.1

    def test_flows_never_change(self, gas_network):
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        frozen = dict(flows.flows)
        perturbed = _scaled(gas_network, {p.id: 1.05 if p.id % 2 else 0.95
                                          for p in gas_network.pipes})
        optimize_diameters(perturbed, select_basis(perturbed),
                           SizingConfig(fixed_flows=flows))
        assert flows.flows == frozen

    def test_unbalanced_fixed_flows_rejected(self, gas_network):
        bad = FlowState({p.id: 0.1 for p in gas_network.pipes})
        with pytest.raises(SizingInfeasibleError, match="node balances"):
            optimize_diameters(gas_network, select_basis(gas_network),
                               SizingConfig(fixed_flows=bad))

    @pytest.mark.parametrize("change, message", [
        ({7: float("nan")}, "fixed flow of pipe 7 must be finite, got nan"),
        ({7: float("inf")}, "fixed flow of pipe 7 must be finite, got inf"),
        ({2: None}, "fixed flow missing for pipe 2"),
        ({99: 0.0}, "fixed flow given for unknown pipe 99"),
        ({2: None, 99: 0.0}, "fixed flow given for unknown pipe 99; "
                             "fixed flow missing for pipe 2"),
    ], ids=["nan", "inf", "missing", "unknown", "both"])
    def test_fixed_flows_checked_per_pipe(self, change, message, gas_network):
        flows = dict(solve_node_loop(gas_network, SolverConfig()).final_flows.flows)
        for pid, q in change.items():
            if q is None:
                del flows[pid]
            else:
                flows[pid] = q
        with pytest.raises(SizingInfeasibleError, match=f"^invalid fixed flows: {message}$"):
            optimize_diameters(gas_network, select_basis(gas_network),
                               SizingConfig(fixed_flows=FlowState(flows)))

    def test_zero_flow_loop_pipe_rejected(self):
        net = two_pipe_loop()
        flows = FlowState({1: m3h_to_m3s(800.0), 2: 0.0})
        with pytest.raises(SizingInfeasibleError, match="zero fixed flow"):
            optimize_diameters(net, select_basis(net),
                               SizingConfig(fixed_flows=flows))

    @pytest.mark.parametrize("bounds, message", [
        ((0.5, 0.1), r"diameter bounds must satisfy 0 < lower < upper, got \(0\.5, 0\.1\)"),
        ({**dict.fromkeys(range(1, 16), (0.01, 2.0)), 2: (0.5, 0.1)},
         r"diameter bounds for pipe 2 must satisfy 0 < lower < upper, got \(0\.5, 0\.1\)"),
    ], ids=["global", "per-pipe"])
    def test_bad_bounds_rejected(self, bounds, message, gas_network):
        # A global pair names no pipe; a pipe's own pair names it.
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimize_diameters(gas_network, select_basis(gas_network),
                               SizingConfig(fixed_flows=flows, diameter_bounds=bounds))

    def test_global_bounds_are_judged_once_and_size_as_the_same_pair_per_pipe(
            self, gas_network, monkeypatch):
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        basis = select_basis(gas_network)
        pair = (0.011, 0.02)
        per_pipe = optimize_diameters(gas_network, basis, SizingConfig(
            fixed_flows=flows, diameter_bounds=dict.fromkeys(gas_network.pipe_ids, pair)))
        judged = []
        bounds_for = SizingConfig.bounds_for
        monkeypatch.setattr(SizingConfig, "bounds_for",
                            lambda self, *pid: judged.append(pid) or bounds_for(self, *pid))
        report = optimize_diameters(gas_network, basis,
                                    SizingConfig(fixed_flows=flows, diameter_bounds=pair))
        assert judged == [()]
        assert report.termination == per_pipe.termination == INFEASIBLE_BOUNDS
        assert list(report.diameter_history) == list(per_pipe.diameter_history)
        assert report.loop_residual_history == per_pipe.loop_residual_history

    def test_bounds_missing_a_loop_pipe_rejected(self, gas_network):
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        with pytest.raises(SizingInfeasibleError, match="^no diameter bounds for loop pipe 2$"):
            optimize_diameters(gas_network, select_basis(gas_network),
                               SizingConfig(fixed_flows=flows,
                                            diameter_bounds={1: (0.05, 1.0)}))

    def test_basis_of_another_network_rejected(self, gas_network):
        plain, flipped = flipped_pipe_one(gas_network)
        fixed = feasible_initial_flows(flipped)
        with pytest.raises(ValueError, match="^loop basis was built on another network"):
            optimize_diameters(flipped, derive_loop_basis(plain), SizingConfig(fixed_flows=fixed))

    def test_basis_of_reordered_pipes_rejected(self, gas_network):
        flows = solve_node_loop(gas_network, SolverConfig()).final_flows
        reordered = dataclasses.replace(gas_network, pipes=gas_network.pipes[::-1])
        with pytest.raises(ValueError, match="pipe order"):
            optimize_diameters(reordered, select_basis(gas_network),
                               SizingConfig(fixed_flows=flows))


def test_sizing_keeps_every_diameter_off_the_core(branched):
    net, flows_m3h = branched
    basis = select_basis(net)
    fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in flows_m3h.items()})
    report = optimize_diameters(net, basis, SizingConfig(fixed_flows=fixed))
    assert report.iteration_count >= 1
    off_core = {pid for pid in net.pipe_ids if pid not in basis.core_ids}
    assert report.tree_pipes == off_core
    given = {p.id: p.diameter for p in net.pipes if p.id in off_core}
    for diameters in report.diameter_history:
        assert {pid: diameters[pid] for pid in off_core} == given
    assert report.diameter_history[-1] == report.diameters


def _scaled(net: Network, scales: dict) -> Network:
    pipes = [Pipe(p.id, p.from_node, p.to_node, p.diameter * scales[p.id],
                  p.length, p.roughness) for p in net.pipes]
    return Network(pipes=pipes, nodes=net.nodes, fluid=net.fluid,
                   explicit_loops=net.explicit_loops,
                   reference_node=net.reference_node)


def stalling_tree():
    """A 60-node gas tree closed by 3 pipes, as a network file's dict with
    balanced flows as its initial flows, on which sizing stalls at pass 3
    with every sized pipe inside the default bounds."""
    networks = perfbench_networks()
    rng = random.Random(1)
    raw = networks.tree_with_closures(60, 3, "gas", rng)
    raw["initial_flows"] = [{"pipe": pid, "flow_m3h": q}
                            for pid, q in networks.balanced_flows(raw, rng).items()]
    return raw


def test_a_stall_ends_stalled_and_says_where():
    net = network_from_dict(stalling_tree())
    fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in net.initial_flows_m3h.items()})
    report = optimize_diameters(net, select_basis(net), SizingConfig(fixed_flows=fixed))
    assert report.termination == STALLED
    assert report.iteration_count == 2 and not report.bounded_pipes
    assert report.max_residual > DEFAULT_RESIDUAL_TOLERANCE["gas"]
    assert report.stop_reason == (
        f"stalled at pass 3: no step of 30 halvings lowered the worst loop residual "
        f"({report.max_residual:.3g} Pa2)")


def test_max_iterations_says_where(gas_network):
    # Node-loop's flows, diameters off by -8% and +15%: one pass is too few.
    flows = solve_node_loop(gas_network, SolverConfig()).final_flows
    perturbed = _scaled(gas_network, {p.id: 1.15 if p.id % 2 else 0.92
                                      for p in gas_network.pipes})
    report = optimize_diameters(perturbed, select_basis(perturbed),
                                SizingConfig(fixed_flows=flows, max_iterations=1))
    assert (report.termination, report.iteration_count) == (MAX_ITERATIONS, 1)
    assert not report.bounded_pipes
    assert report.stop_reason == (
        f"max-iterations after 1 passes: the worst loop residual is "
        f"{report.max_residual:.3g} Pa2, above the tolerance 1e+03 Pa2")


@pytest.mark.parametrize("source", ["fixture", "tree"])
def test_one_colebrook_solve_per_drop(source, water_network, monkeypatch):
    # A derivative takes the friction factor of the drops at the diameters
    # it is taken at, which sizing solved for when it accepted them.
    if source == "fixture":
        net, flows_m3h = water_network, water_network.initial_flows_m3h
    else:
        networks, rng = perfbench_networks(), random.Random(0)
        raw = networks.tree_with_closures(300, 5, "water", rng)
        net, flows_m3h = network_from_dict(raw), networks.balanced_flows(raw, rng)
    calls = Counter()
    colebrook = kernels._colebrook_friction_factor

    def counting_colebrook(*args):
        calls["colebrook"] += 1
        return colebrook(*args)

    monkeypatch.setattr(kernels, "_colebrook_friction_factor", counting_colebrook)
    for name in ("drop_at_diameter", "ddrop_ddiam"):
        def counting(self, *args, _original=getattr(WaterModel, name), _name=name):
            before = calls["colebrook"]
            result = _original(self, *args)
            calls[_name] += 1
            calls[_name, "colebrook"] += calls["colebrook"] - before
            return result
        monkeypatch.setattr(WaterModel, name, counting)
    fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in flows_m3h.items()})
    report = optimize_diameters(net, select_basis(net), SizingConfig(fixed_flows=fixed))
    assert calls["ddrop_ddiam"] >= report.iteration_count >= 2
    assert calls["ddrop_ddiam", "colebrook"] == 0
    assert calls["colebrook"] == calls["drop_at_diameter"] > calls["ddrop_ddiam"]


def test_a_tree_is_sized_in_no_pass(tree):
    # No loop constrains a diameter: every pipe is a tree pipe and keeps its own.
    net, flows_m3h = tree
    fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in flows_m3h.items()})
    report = optimize_diameters(net, select_basis(net), SizingConfig(fixed_flows=fixed))
    assert (report.termination, report.iteration_count, report.stop_reason) == \
        ("converged", 0, "")
    assert report.tree_pipes == set(net.pipe_ids)
    assert report.diameters == {p.id: p.diameter for p in net.pipes}
    assert report.loop_residual_history == [[]] and report.max_residual == 0.0
    assert not report.bounded_pipes


@pytest.mark.parametrize("case", ["all-at-bounds", "pipes-7-8-at-bounds", "pipe-1-inside"])
def test_start_that_is_not_finite_ends_after_one_evaluation(case, gas_network, monkeypatch):
    # d⁴·⁸² underflows to 0, so the drop of a pipe that narrow is inf.
    net, tiny = gas_network, (1e-300, 1e-200)
    if case == "all-at-bounds":
        bounds = tiny
    elif case == "pipes-7-8-at-bounds":
        bounds = {p.id: tiny if p.id in (7, 8) else (0.01, 2.0) for p in net.pipes}
    else:
        net = dataclasses.replace(net, pipes=[
            dataclasses.replace(p, diameter=1e-300) if p.id == 1 else p for p in net.pipes])
        bounds = (1e-305, 1.0)
    calls = Counter()
    original = GasModel.drop_at_diameter

    def counting(self, *args):
        calls["drop_at_diameter"] += 1
        return original(self, *args)

    monkeypatch.setattr(GasModel, "drop_at_diameter", counting)
    fixed = FlowState({pid: m3h_to_m3s(q) for pid, q in net.initial_flows_m3h.items()})
    report = optimize_diameters(net, select_basis(net),
                                SizingConfig(fixed_flows=fixed, diameter_bounds=bounds))
    assert calls["drop_at_diameter"] == 1
    assert report.iteration_count == 0
    finite = [math.isfinite(r) for r in report.loop_residual_history[0]]
    assert not math.isfinite(report.max_residual)
    if case == "all-at-bounds":
        assert (report.termination, report.bounded_pipes) == (INFEASIBLE_BOUNDS, set(net.pipe_ids))
        assert not any(finite)
    elif case == "pipes-7-8-at-bounds":
        # Only the third loop holds pipes 7 and 8.
        assert (report.termination, report.bounded_pipes) == (INFEASIBLE_BOUNDS, {7, 8})
        assert finite == [True, True, False, True, True]
        assert report.stop_reason == (
            "infeasible within bounds after 0 passes: the start's loop residuals are not "
            "finite, with 2 of 15 sized pipes at a bound (lowest id 7)")
    else:
        assert (report.termination, report.bounded_pipes) == (STALLED, set())
        assert finite == [False, True, True, True, True]
        assert report.stop_reason == "stalled at pass 0: the start's loop residuals are not finite"
