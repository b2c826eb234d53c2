"""FluidModel layer: evaluation semantics shared by all solvers."""

import math
import random

import numpy as np
import pytest

from loopflow import kernels
from loopflow.fluids import GasModel, WaterModel, make_fluid_model
from loopflow.model import FluidSpec, Network, NodeSpec, Pipe, PipeArrays

GAS_PIPE = Pipe(1, "A", "B", 0.3048, 100.0, 2e-5)


def test_factory_dispatch():
    gas = make_fluid_model(FluidSpec(kind="gas", rel_density=0.6))
    water = make_fluid_model(
        FluidSpec(kind="water", density=1000.0, viscosity=0.00089))
    assert isinstance(gas, GasModel)
    assert isinstance(water, WaterModel)
    assert gas.pressure_ratio == pytest.approx(0.25)


def test_gas_eval_matches_kernels():
    model = GasModel(rel_density=0.6, pressure_ratio=0.25)
    drop, ddrop_dflow = model.evaluate(GAS_PIPE, 0.0694, 1e-7)
    assert drop == pytest.approx(690438.0, rel=5e-3)
    assert ddrop_dflow == pytest.approx(18094990.0, rel=5e-3)


def test_water_eval_reports_diagnostics():
    model = WaterModel(density=1000.0, viscosity=0.00089)
    drop, _ = model.evaluate(GAS_PIPE, 0.0694, 1e-7)
    re = kernels.reynolds_number(1000.0, 0.00089, 0.0694, GAS_PIPE.diameter)
    lam = kernels.colebrook_friction_factor(
        re, GAS_PIPE.roughness / GAS_PIPE.diameter)
    assert re == pytest.approx(325944.0, rel=1e-3)
    assert lam == pytest.approx(0.01492, abs=1e-5)
    assert drop == pytest.approx(2217.7, rel=1e-2)
    assert drop == pytest.approx(kernels.darcy_weisbach_drop(
        lam, GAS_PIPE.length, 0.0694, GAS_PIPE.diameter, 1000.0), rel=1e-12)


def test_zero_flow_uses_derivative_floor():
    for model in (GasModel(rel_density=0.6, pressure_ratio=0.25),
                  WaterModel(density=1000.0, viscosity=0.00089)):
        drop, ddrop_dflow = model.evaluate(GAS_PIPE, 0.0, 1e-7)
        assert drop == 0.0
        assert ddrop_dflow > 0.0  # floored away from zero


def test_water_friction_factor_follows_flow():
    # the factor is recomputed from the current state, not cached; the drop
    # is proportional to factor times flow squared
    model = WaterModel(density=1000.0, viscosity=0.00089)
    slow, _ = model.evaluate(GAS_PIPE, 0.01, 1e-7)
    fast, _ = model.evaluate(GAS_PIPE, 1.0, 1e-7)
    assert slow / 0.01 ** 2 > fast / 1.0 ** 2


@pytest.mark.parametrize("kind", ["gas", "water"])
def test_flow_derivative_matches_central_difference(kind):
    # Smaller sibling of the acceptance battery: relative 1e-5 agreement,
    # with the water friction factor frozen to match its convention.
    rng = random.Random(41)
    if kind == "gas":
        model = GasModel(rel_density=0.6, pressure_ratio=0.25)
    else:
        model = WaterModel(density=1000.0, viscosity=0.00089)
    for _ in range(100):
        flow = rng.uniform(1e-3, 2.0)
        diam = rng.uniform(0.05, 1.0)
        length = rng.uniform(5.0, 1000.0)
        pipe = Pipe(1, "A", "B", diam, length, 2e-5)
        h = 1e-6 * flow
        if kind == "gas":
            fd = (model.drop(pipe, flow + h) - model.drop(pipe, flow - h)) / (2 * h)
        else:
            lam = kernels.colebrook_friction_factor(
                kernels.reynolds_number(1000.0, 0.00089, flow, diam), 2e-5 / diam)
            fd = (kernels.darcy_weisbach_drop(lam, length, flow + h, diam, 1000.0)
                  - kernels.darcy_weisbach_drop(lam, length, flow - h, diam,
                                                1000.0)) / (2 * h)
        _, got = model.evaluate(pipe, flow, 1e-7)
        assert got == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("roughness", [0.0, 2e-5, 1e-3])
def test_water_drop_rises_smoothly_through_every_flow_regime(roughness):
    # From Re 50 to 1e7 (laminar, the blended transition from 2300 to 4000,
    # then turbulent) the drop rises strictly with |q|, and no neighbouring
    # samples, 0.3% apart in flow, differ by a jump above 2%.
    model = WaterModel(density=1000.0, viscosity=0.00089)
    rng = random.Random(f"water-drop:{roughness}")
    re = np.geomspace(50.0, 1e7, 4000)
    for _ in range(10):
        diam = rng.uniform(0.05, 1.0)
        pipe = Pipe(1, "A", "B", diam, rng.uniform(5.0, 1000.0), roughness)
        flow = re * math.pi * diam * model.viscosity / (4.0 * model.density)
        assert kernels.reynolds_number(1000.0, 0.00089, flow, diam) == \
            pytest.approx(re, rel=1e-12)
        drop = model.drop(pipe, flow)
        ratio = drop[1:] / drop[:-1]
        assert (ratio > 1.0).all()
        assert ratio.max() <= 1.02


def test_velocity_dispatch():
    gas = GasModel(rel_density=0.6, pressure_ratio=0.25)
    water = WaterModel(density=1000.0, viscosity=0.00089)
    q = 1228.19 / 3600.0
    pipe = Pipe(1, "A", "B", 0.4064, 100.0)
    assert gas.velocity(pipe, q) == pytest.approx(0.66, abs=0.01)
    assert water.velocity(pipe, q) == pytest.approx(4 * gas.velocity(pipe, q),
                                                    rel=1e-12)


@pytest.mark.parametrize("model", [GasModel(rel_density=0.6, pressure_ratio=0.25),
                                   WaterModel(density=1000.0, viscosity=0.00089)],
                         ids=["gas", "water"])
def test_network_evaluation_matches_pipe_by_pipe(model):
    # One call over all pipes, mixing zero flows, flows under the derivative
    # floor (whose water drop takes its own friction factor) and turbulent
    # flows, equals the per-pipe calls.
    pipes = [Pipe(k, "A", "B", 0.1 + 0.05 * k, 50.0 + 10.0 * k, 2e-5)
             for k in range(6)]
    flows = np.array([0.0, 3e-8, 1e-7, 5e-4, 0.05, 1.2])
    arrays = PipeArrays.of(Network(pipes, [NodeSpec("A"), NodeSpec("B")],
                                   FluidSpec(kind="gas", rel_density=0.6)))
    drop, ddrop_dflow = model.evaluate(arrays, flows, 1e-7)
    for k, pipe in enumerate(pipes):
        one_drop, one_ddrop = model.evaluate(pipe, flows[k], 1e-7)
        assert drop[k] == pytest.approx(one_drop, rel=1e-13, abs=0.0)
        assert ddrop_dflow[k] == pytest.approx(one_ddrop, rel=1e-13)
        assert model.drop(arrays, flows)[k] == pytest.approx(
            model.drop(pipe, flows[k]), rel=1e-13, abs=0.0)


def checked_reference(model):
    """The model's methods written with the public, input-checking kernels."""
    if isinstance(model, GasModel):
        rd, ratio = model.rel_density, model.pressure_ratio
        return {
            "evaluate": lambda p, q, floor: (
                kernels.renouard_drop(rd, p.length, q, p.diameter),
                kernels.renouard_drop_dflow(rd, p.length, np.maximum(q, floor), p.diameter)),
            "drop": lambda p, q: kernels.renouard_drop(rd, p.length, q, p.diameter),
            "drop_at_diameter": lambda p, q, d, _: kernels.renouard_drop(rd, p.length, q, d),
            "ddrop_ddiam": lambda p, q, d, _: kernels.renouard_drop_ddiam(rd, p.length, q, d),
            "velocity": lambda p, q: kernels.flow_velocity(ratio, q, p.diameter),
        }
    rho, mu = model.density, model.viscosity

    def lam(q, d, roughness):
        re = kernels.reynolds_number(rho, mu, np.where(q > 0.0, q, 1.0), d)
        return kernels.colebrook_friction_factor(re, roughness / d)

    def evaluate(p, q, floor):
        floored = np.maximum(q, floor)
        ddrop = kernels.darcy_weisbach_drop_dflow(
            lam(floored, p.diameter, p.roughness), p.length, floored, p.diameter, rho)
        factor = (lam(q, p.diameter, p.roughness) if ((q > 0.0) & (floored > q)).any()
                  else lam(floored, p.diameter, p.roughness))
        return kernels.darcy_weisbach_drop(factor, p.length, q, p.diameter, rho), ddrop

    return {
        "evaluate": evaluate,
        "drop": lambda p, q: kernels.darcy_weisbach_drop(
            lam(q, p.diameter, p.roughness), p.length, q, p.diameter, rho),
        "drop_at_diameter": lambda p, q, d, _: kernels.darcy_weisbach_drop(
            lam(q, d, p.roughness), p.length, q, d, rho),
        "ddrop_ddiam": lambda p, q, d, _: kernels.darcy_weisbach_drop_ddiam(
            lam(q, d, p.roughness), p.length, q, d, rho),
        "velocity": lambda p, q: kernels.flow_velocity(1.0, q, p.diameter),
    }


def bits(result) -> bytes:
    """The float64 bytes of a method's result: one value or array, or a pair."""
    parts = result if isinstance(result, tuple) else (result,)
    return b"".join(np.asarray(part, dtype=float).tobytes() for part in parts)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("model", [GasModel(rel_density=0.6, pressure_ratio=0.25),
                                   WaterModel(density=1000.0, viscosity=0.00089)],
                         ids=["gas", "water"])
def test_models_match_the_checked_kernels_bitwise(model, seed):
    # The models call the kernels' unchecked bodies; on valid input every
    # method gives the bits the public kernels give (the diameter methods
    # given the model's own friction factor), over the arrays of many
    # pipes (a zero flow, flows under the derivative floor, and laminar,
    # transition and turbulent flows) and over single pipes.  Water's flow
    # derivative follows λ(Re) below Re 4000, so it matches the frozen-λ
    # kernel only where the floored flow is turbulent (the drop matches
    # everywhere); `test_water_derivative_is_the_drop_slope_below_re_4000`
    # checks the rest.
    rng = np.random.default_rng(seed)
    n, floor = 64, 1e-7
    pipes = PipeArrays(tuple(range(1, n + 1)), rng.uniform(5.0, 1000.0, n),
                       rng.uniform(0.05, 1.0, n), rng.uniform(0.0, 1e-3, n))
    flows = 10.0 ** rng.uniform(-9.0, 0.5, n)
    flows[0] = 0.0
    diameters = rng.uniform(0.05, 1.0, n)
    re = kernels.reynolds_number(1000.0, 0.00089, flows[1:], pipes.diameter[1:])
    assert (flows[1:] < floor).any() and (re < 2300.0).any() and (re > 4000.0).any()
    assert ((re >= 2300.0) & (re <= 4000.0)).any()

    reference = checked_reference(model)
    cases = [(pipes, flows, diameters)] + [
        (Pipe(k + 1, "A", "B", pipes.diameter[k].item(), pipes.length[k].item(),
              pipes.roughness[k].item()), flows[k].item(), diameters[k].item())
        for k in range(8)]
    for pipe, q, d in cases:
        friction = model.friction(pipe, q, d)
        for name, args in [("evaluate", (q, floor)), ("drop", (q,)),
                           ("drop_at_diameter", (q, d, friction)),
                           ("ddrop_ddiam", (q, d, friction)), ("velocity", (q,))]:
            got, want = getattr(model, name)(pipe, *args), reference[name](pipe, *args)
            if name == "evaluate" and isinstance(model, WaterModel):
                turbulent = kernels.reynolds_number(
                    1000.0, 0.00089, np.maximum(q, floor), pipe.diameter) >= 4000.0
                got, want = [(drop, np.where(turbulent, ddrop, 0.0))
                             for drop, ddrop in (got, want)]
            assert bits(got) == bits(want), (name, pipe)


@pytest.mark.parametrize("model", [GasModel(rel_density=0.6, pressure_ratio=0.25),
                                   WaterModel(density=1000.0, viscosity=0.00089)],
                         ids=["gas", "water"])
def test_no_pipes_give_empty_results(model):
    # The core of a network without loops holds no pipe.
    empty = np.array([])
    pipes = PipeArrays((), empty, empty, empty)
    friction = model.friction(pipes, empty, empty)
    results = [*model.evaluate(pipes, empty, 1e-7), model.drop(pipes, empty),
               model.drop_at_diameter(pipes, empty, empty, friction),
               model.ddrop_ddiam(pipes, empty, empty, friction), model.velocity(pipes, empty)]
    assert [r.shape for r in results] == [(0,)] * 6


@pytest.mark.parametrize("seed", range(4))
def test_water_derivative_is_the_drop_slope_below_re_4000(seed):
    # In the laminar range and in the transition, away from their edges,
    # D is the central difference of the drop: λ follows Re there.
    model = WaterModel(density=1000.0, viscosity=0.00089)
    rng = np.random.default_rng(seed)
    n = 64
    pipes = PipeArrays(tuple(range(1, n + 1)), rng.uniform(5.0, 1000.0, n),
                       rng.uniform(0.05, 1.0, n), rng.uniform(0.0, 1e-3, n))
    re = np.concatenate([rng.uniform(50.0, 2250.0, n // 2), rng.uniform(2350.0, 3950.0, n // 2)])
    flows = re * math.pi * pipes.diameter * 0.00089 / (4.0 * 1000.0)
    assert flows.min() > 1e-7
    _, ddrop = model.evaluate(pipes, flows, 1e-7)
    h = 1e-6 * flows
    slope = (model.drop(pipes, flows + h) - model.drop(pipes, flows - h)) / (2.0 * h)
    np.testing.assert_allclose(ddrop, slope, rtol=1e-6)
