"""Unit tests for the hydraulic kernels, on scalars and on arrays."""

import math
import random

import numpy as np
import pytest

from loopflow import kernels


class _OneElementArrays:
    """The kernels called with one-element arrays, results unwrapped."""

    def __getattr__(self, name):
        func = getattr(kernels, name)

        def call(*args):
            result = func(*(np.array([a], dtype=float) for a in args))
            assert result.shape == (1,)
            return float(result[0])
        return call


# Every scalar test runs twice: on Python floats, and on one-element arrays.
@pytest.fixture(params=[pytest.param(kernels, id="python"),
                        pytest.param(_OneElementArrays(), id="array")])
def kern(request):
    return request.param


class TestRenouard:
    def test_reference_point(self, kern):
        drop = kern.renouard_drop(0.6, 100.0, 0.0556, 0.4064)
        assert drop == pytest.approx(114959.0, rel=5e-3)

    def test_large_flow_point(self, kern):
        drop = kern.renouard_drop(0.6, 100.0, 0.5667, 0.1524)
        assert drop == pytest.approx(889949040.0, rel=5e-3)

    def test_zero_flow(self, kern):
        assert kern.renouard_drop(0.6, 100.0, 0.0, 0.4) == 0.0
        assert kern.renouard_drop_dflow(0.6, 100.0, 0.0, 0.4) == 0.0
        assert kern.renouard_drop_ddiam(0.6, 100.0, 0.0, 0.4) == 0.0

    def test_dflow_reference_point(self, kern):
        d = kern.renouard_drop_dflow(0.6, 100.0, 0.0556, 0.4064)
        assert d == pytest.approx(3766062.0, rel=5e-3)

    def test_dflow_is_exponent_times_drop_over_flow(self, kern):
        rng = random.Random(7)
        for _ in range(200):
            flow = rng.uniform(1e-4, 2.0)
            diam = rng.uniform(0.02, 1.5)
            length = rng.uniform(1.0, 2000.0)
            drop = kern.renouard_drop(0.6, length, flow, diam)
            dflow = kern.renouard_drop_dflow(0.6, length, flow, diam)
            assert dflow == pytest.approx(1.82 * drop / flow, rel=1e-12)

    def test_power_law_scaling(self, kern):
        rng = random.Random(11)
        base = kern.renouard_drop(0.64, 320.0, 0.2, 0.25)
        for _ in range(100):
            k = rng.uniform(0.01, 50.0)
            scaled = kern.renouard_drop(0.64, 320.0, 0.2 * k, 0.25)
            assert scaled == pytest.approx(k ** 1.82 * base, rel=1e-12)

    def test_monotonicity(self, kern):
        rng = random.Random(3)
        for _ in range(200):
            flow = rng.uniform(1e-3, 1.0)
            diam = rng.uniform(0.05, 1.0)
            length = rng.uniform(10.0, 500.0)
            f0 = kern.renouard_drop(0.6, length, flow, diam)
            assert kern.renouard_drop(0.6, length, flow * 1.1, diam) > f0
            assert kern.renouard_drop(0.6, length * 1.1, flow, diam) > f0
            assert kern.renouard_drop(0.6, length, flow, diam * 1.1) < f0

    def test_domain_errors(self, kern):
        with pytest.raises(ValueError):
            kern.renouard_drop(0.6, 100.0, 0.1, 0.0)
        with pytest.raises(ValueError):
            kern.renouard_drop(0.6, 100.0, 0.1, -0.3)
        with pytest.raises(ValueError):
            kern.renouard_drop(0.6, 0.0, 0.1, 0.3)
        with pytest.raises(ValueError):
            kern.renouard_drop(0.6, 100.0, -0.1, 0.3)
        with pytest.raises(ValueError, match="flow magnitude must be >= 0 m3/s, got nan"):
            kern.renouard_drop(0.6, 100.0, math.nan, 0.1)


class TestReynolds:
    def test_reference_points(self, kern):
        re = kern.reynolds_number(1000.0, 0.00089, 0.0556, 0.4064)
        assert re == pytest.approx(195566.0, rel=1e-3)
        re = kern.reynolds_number(1000.0, 0.00089, 0.0139, 0.3048)
        assert re == pytest.approx(65189.0, rel=1e-3)

    def test_zero_flow(self, kern):
        assert kern.reynolds_number(1000.0, 0.00089, 0.0, 0.3) == 0.0

    def test_domain_errors(self, kern):
        with pytest.raises(ValueError):
            kern.reynolds_number(1000.0, 0.0, 0.1, 0.3)
        with pytest.raises(ValueError):
            kern.reynolds_number(1000.0, 0.00089, 0.1, 0.0)
        with pytest.raises(ValueError, match="flow magnitude must be >= 0 m3/s, got nan"):
            kern.reynolds_number(1000.0, 0.00089, math.nan, 0.3)
        with pytest.raises(ValueError, match="viscosity must be > 0 Pa\\*s, got nan"):
            kern.reynolds_number(1000.0, math.nan, 0.1, 0.3)


class TestColebrook:
    @pytest.mark.parametrize("re,rr,expected", [
        (195566.25, 4.92e-5, 0.01609),
        (65188.75, 6.56e-5, 0.01998),
        (5319401.99, 1.31e-4, 0.01290),
    ])
    def test_reference_points(self, kern, re, rr, expected):
        assert kern.colebrook_friction_factor(re, rr) == \
            pytest.approx(expected, abs=1e-5)

    def test_self_consistency(self, kern):
        # Substituting the returned factor back must reproduce the defining
        # relation to 1e-10 in 1/sqrt(lam) space.
        rng = random.Random(23)
        for _ in range(300):
            re = rng.uniform(4000.0, 1e8)
            rr = rng.uniform(0.0, 0.05)
            lam = kern.colebrook_friction_factor(re, rr)
            x = 1.0 / math.sqrt(lam)
            rhs = -2.0 * math.log10(2.51 * x / re + rr / 3.71)
            assert abs(x - rhs) <= 1e-10

    def test_laminar_branch(self, kern):
        assert kern.colebrook_friction_factor(1000.0, 1e-4) == 64.0 / 1000.0

    def test_blend_is_continuous(self, kern):
        rr = 1.3e-4
        low = kern.colebrook_friction_factor(2299.999, rr)
        at = kern.colebrook_friction_factor(2300.0, rr)
        assert at == pytest.approx(low, rel=1e-5)
        high = kern.colebrook_friction_factor(4000.0, rr)
        near = kern.colebrook_friction_factor(3999.999, rr)
        assert near == pytest.approx(high, rel=1e-5)

    def test_domain_errors(self, kern):
        with pytest.raises(ValueError):
            kern.colebrook_friction_factor(0.0, 1e-4)
        with pytest.raises(ValueError):
            kern.colebrook_friction_factor(1e5, -1e-4)
        with pytest.raises(ValueError, match="Reynolds number must be > 0, got nan"):
            kern.colebrook_friction_factor(math.nan, 1e-4)
        with pytest.raises(ValueError, match="relative roughness must be >= 0, got nan"):
            kern.colebrook_friction_factor(1e5, math.nan)
        with pytest.raises(ValueError, match="^Reynolds number must be finite, got inf$"):
            kern.colebrook_friction_factor(math.inf, 0.0)
        with pytest.raises(ValueError, match="^relative roughness must be finite, got inf$"):
            kern.colebrook_friction_factor(1e5, math.inf)
        with pytest.raises(ValueError, match="^Reynolds number must be finite, got inf$"):
            kern.colebrook_friction_factor(np.array([1e5, math.inf]), 1e-4)

    def test_three_steps_reach_the_root(self):
        # A 40-digit root of x = -2·log10(2.51·x/Re + rr/3.71), x = 1/sqrt(lam),
        # from turbulent Re to 1e12, 1e15 and 1e300, smooth to rr = 1.
        mpmath = pytest.importorskip("mpmath")
        re = np.concatenate([np.logspace(np.log10(4000.0), 12.0, 81), [1e15, 1e300]])
        rr = np.concatenate([[0.0], np.logspace(-8.0, 0.0, 33)])
        re, rr = (grid.ravel() for grid in np.meshgrid(re, rr))
        lam = kernels._colebrook_turbulent(re, rr)
        with mpmath.workdps(40):
            a, b = mpmath.mpf("2.51"), mpmath.mpf("3.71")
            for r, e, got in zip(re, rr, lam):
                r, e = mpmath.mpf(r), mpmath.mpf(e)
                x = mpmath.findroot(lambda x: x + 2 * mpmath.log10(a * x / r + e / b),
                                    1.0 / math.sqrt(got))
                assert abs(got * x * x - 1) <= 1e-15, (float(r), float(e))


class TestDarcyWeisbach:
    def test_reference_points(self, kern):
        drop = kern.darcy_weisbach_drop(0.01609, 100.0, 0.0556, 0.4064, 1000.0)
        assert drop == pytest.approx(363.19, rel=5e-3)
        drop = kern.darcy_weisbach_drop(0.01290, 100.0, 0.5667, 0.1524, 1000.0)
        assert drop == pytest.approx(4084604.0, rel=5e-3)

    def test_dflow_reference_point(self, kern):
        d = kern.darcy_weisbach_drop_dflow(0.01609, 100.0, 0.0556, 0.4064, 1000.0)
        assert d == pytest.approx(13074.9, rel=5e-3)

    def test_dflow_is_twice_drop_over_flow(self, kern):
        # The factor-two identity pinned at the fixture's pipe-12 state.
        drop = kern.darcy_weisbach_drop(0.01414, 100.0, 0.0833, 0.1524, 1000.0)
        dflow = kern.darcy_weisbach_drop_dflow(0.01414, 100.0, 0.0833, 0.1524, 1000.0)
        assert dflow == pytest.approx(2.0 * drop / 0.0833, rel=1e-12)
        assert dflow == pytest.approx(2.0 * 96832.36 / 0.0833, rel=5e-3)

    def test_zero_flow(self, kern):
        assert kern.darcy_weisbach_drop(0.02, 100.0, 0.0, 0.3, 1000.0) == 0.0
        assert kern.darcy_weisbach_drop_dflow(0.02, 100.0, 0.0, 0.3, 1000.0) == 0.0

    def test_domain_errors(self, kern):
        with pytest.raises(ValueError, match="pipe diameter must be > 0 m, got nan"):
            kern.darcy_weisbach_drop(0.02, 100.0, 0.1, math.nan, 1000.0)
        with pytest.raises(ValueError, match="pipe length must be > 0 m, got nan"):
            kern.darcy_weisbach_drop_dflow(0.02, math.nan, 0.1, 0.3, 1000.0)

    def test_monotonicity(self, kern):
        rng = random.Random(5)
        for _ in range(200):
            flow = rng.uniform(1e-3, 1.0)
            diam = rng.uniform(0.05, 1.0)
            length = rng.uniform(10.0, 500.0)
            f0 = kern.darcy_weisbach_drop(0.02, length, flow, diam, 1000.0)
            assert kern.darcy_weisbach_drop(0.02, length, flow * 1.1, diam, 1000.0) > f0
            assert kern.darcy_weisbach_drop(0.02, length * 1.1, flow, diam, 1000.0) > f0
            assert kern.darcy_weisbach_drop(0.02, length, flow, diam * 1.1, 1000.0) < f0


class TestVelocity:
    def test_gas_at_quarter_ratio(self, kern):
        v = kern.flow_velocity(0.25, 1228.19 / 3600.0, 0.4064)
        assert v == pytest.approx(0.66, abs=0.01)

    def test_water(self, kern):
        v = kern.flow_velocity(1.0, 3315.26 / 3600.0, 0.3048)
        assert v == pytest.approx(12.6, abs=0.1)

    def test_zero_flow(self, kern):
        assert kern.flow_velocity(0.25, 0.0, 0.3) == 0.0

    def test_domain_error(self, kern):
        with pytest.raises(ValueError):
            kern.flow_velocity(1.0, 0.1, 0.0)
        with pytest.raises(ValueError, match="pipe diameter must be > 0 m, got nan"):
            kern.flow_velocity(1.0, 0.1, math.nan)


# Argument generators per kernel, drawn across the regimes a solve passes
# through: zero flow, laminar, transition and turbulent water, gas.
def _flows(rng, n):
    flows = rng.uniform(1e-8, 2.0, n)
    flows[::5] = 0.0
    return flows


KERNEL_ARGS = {
    "renouard_drop": lambda rng, n: (0.6, rng.uniform(1.0, 2000.0, n),
                                     _flows(rng, n), rng.uniform(0.02, 1.5, n)),
    "renouard_drop_dflow": lambda rng, n: (0.6, rng.uniform(1.0, 2000.0, n),
                                           _flows(rng, n), rng.uniform(0.02, 1.5, n)),
    "renouard_drop_ddiam": lambda rng, n: (0.6, rng.uniform(1.0, 2000.0, n),
                                           _flows(rng, n), rng.uniform(0.02, 1.5, n)),
    "reynolds_number": lambda rng, n: (998.0, 0.00089, _flows(rng, n),
                                       rng.uniform(0.02, 1.5, n)),
    "colebrook_friction_factor": lambda rng, n: (
        np.concatenate([rng.uniform(1.0, 2300.0, n // 4),
                        rng.uniform(2300.0, 4000.0, n // 4),
                        [2300.0, 4000.0],
                        rng.uniform(4000.0, 1e8, n - 2 * (n // 4) - 2)]),
        rng.uniform(0.0, 0.05, n)),
    "darcy_weisbach_drop": lambda rng, n: (rng.uniform(0.008, 0.08, n),
                                           rng.uniform(1.0, 2000.0, n),
                                           _flows(rng, n),
                                           rng.uniform(0.02, 1.5, n), 998.0),
    "darcy_weisbach_drop_dflow": lambda rng, n: (rng.uniform(0.008, 0.08, n),
                                                 rng.uniform(1.0, 2000.0, n),
                                                 _flows(rng, n),
                                                 rng.uniform(0.02, 1.5, n), 998.0),
    "darcy_weisbach_drop_ddiam": lambda rng, n: (rng.uniform(0.008, 0.08, n),
                                                 rng.uniform(1.0, 2000.0, n),
                                                 _flows(rng, n),
                                                 rng.uniform(0.02, 1.5, n), 998.0),
    "flow_velocity": lambda rng, n: (0.25, _flows(rng, n), rng.uniform(0.02, 1.5, n)),
}

# Argument positions with a domain, and a value outside it.
BAD_ARGS = {
    "renouard_drop": {1: 0.0, 2: -1e-3, 3: -0.1},
    "renouard_drop_dflow": {1: -5.0, 2: -1e-3, 3: 0.0},
    "renouard_drop_ddiam": {1: 0.0, 2: -1e-3, 3: 0.0},
    "reynolds_number": {1: 0.0, 2: -1e-3, 3: 0.0},
    "colebrook_friction_factor": {0: 0.0, 1: -1e-4},
    "darcy_weisbach_drop": {1: 0.0, 2: -1e-3, 3: 0.0},
    "darcy_weisbach_drop_dflow": {1: 0.0, 2: -1e-3, 3: -0.2},
    "darcy_weisbach_drop_ddiam": {1: -1.0, 2: -1e-3, 3: 0.0},
    "flow_velocity": {1: -1e-3, 2: 0.0},
}


@pytest.mark.parametrize("name", sorted(KERNEL_ARGS))
def test_array_call_matches_scalar_calls(name):
    func = getattr(kernels, name)
    rng = np.random.default_rng(99)
    args = KERNEL_ARGS[name](rng, 40)
    n = max(np.size(a) for a in args)
    whole = func(*args)
    assert whole.shape == (n,)
    for i in range(n):
        one = func(*(a[i] if np.ndim(a) else a for a in args))
        if one == 0.0:
            assert whole[i] == 0.0
        else:
            assert abs(whole[i] - one) <= 1e-13 * abs(one)

    for position, bad in BAD_ARGS[name].items():
        broken = [np.array(a, dtype=float) if np.ndim(a) else a for a in args]
        if not np.ndim(broken[position]):
            broken[position] = np.full(n, float(broken[position]))
        for value in (bad, math.nan):
            broken[position][n // 2] = value
            with pytest.raises(ValueError):
                func(*broken)


@pytest.mark.parametrize("name", sorted(KERNEL_ARGS))
def test_empty_arrays_give_empty_results(name):
    # A network without loops hands the kernels an empty core.
    args = KERNEL_ARGS[name](np.random.default_rng(0), 4)
    result = getattr(kernels, name)(*(np.array([]) if np.ndim(a) else a for a in args))
    assert isinstance(result, np.ndarray) and result.shape == (0,)
