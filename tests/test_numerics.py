"""Dense solver: residual bounds, pivoting, equilibration, diagnostics."""

import tracemalloc

import numpy as np
import pytest

from loopflow.numerics import (
    SingularSystemError,
    condition_estimate,
    solve_linear,
)


def diagonally_dominant(n: int, seed: int):
    """A well-conditioned system whose rows range over twelve decades."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 9, size=(n, 1))
    return (rng.normal(size=(n, n)) + n * np.eye(n)) * scale, rng.normal(size=n) * scale[:, 0]


def unit_rows(a: np.ndarray, b: np.ndarray):
    """The system divided by each row's largest |entry|."""
    scale = np.abs(a).max(axis=1)
    return a / scale[:, None], b / scale


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 7.5])
        x = solve_linear(np.eye(3), b)
        assert np.allclose(x, b, rtol=0, atol=0)

    def test_diagonal(self):
        x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert x == pytest.approx([1.0, 2.0])

    def test_random_systems_meet_residual_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            x = solve_linear(a, b)
            residual = np.max(np.abs(a @ x - b))
            assert residual <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_badly_scaled_rows(self):
        # continuity-style unit rows mixed with 1e9-scale derivative rows
        a = np.array([[1.0, -1.0, 0.0],
                      [0.0, 1.0, -1.0],
                      [2.5e9, 1.1e9, 4.2e9]])
        b = np.array([0.1, 0.2, 3.3e9])
        x = solve_linear(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(12, 12)) + 12 * np.eye(12)
        b = rng.normal(size=12)
        x = solve_linear(a, b)
        perm = rng.permutation(12)
        x_perm = solve_linear(a[perm], b[perm])
        assert np.max(np.abs(x - x_perm)) <= 1e-10 * max(1.0, np.max(np.abs(x)))

    # The second matrix is singular only up to rounding: elimination leaves
    # a 1.1e-16 pivot, and a bare LAPACK solve returns entries near 1e16.
    @pytest.mark.parametrize("matrix", [[[1.0, 2.0], [2.0, 4.0]],
                                        [[0.1, 0.3], [0.3, 0.9]]],
                             ids=["exact", "rounding"])
    def test_singular_raises(self, matrix):
        with pytest.raises(SingularSystemError):
            solve_linear(matrix, [1.0, 2.0])

    def test_zero_row_raises(self):
        with pytest.raises(SingularSystemError):
            solve_linear([[0.0, 0.0], [1.0, 1.0]], [0.0, 2.0])

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError, match="rhs"):
            solve_linear(np.eye(2), [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            solve_linear([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0])

    # The matrix's finiteness is read off its row scales: a row's max or
    # min carries its NaN or inf.
    @pytest.mark.parametrize("matrix, rhs", [
        ([[1.0, 0.0], [0.0, np.nan]], [1.0, 1.0]),
        ([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0, -np.inf], [0.0, 1.0]], [1.0, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, np.inf]),
        ([[0.0, 0.0], [np.nan, 1.0]], [1.0, 1.0]),
    ], ids=["nan", "nan-first", "minus-inf", "rhs-nan", "rhs-inf", "zero-row-and-nan"])
    def test_non_finite_entries_raise(self, matrix, rhs):
        with pytest.raises(ValueError, match="non-finite") as raised:
            solve_linear(matrix, rhs)
        assert not isinstance(raised.value, SingularSystemError)

    # Entries and right sides near the float limit are finite: nothing
    # adds two of them, which could overflow.
    @pytest.mark.parametrize("rhs", [[1e308, -1e308], [-1.7e308, 1.7e308]])
    def test_entries_near_the_float_limit_are_finite(self, rhs):
        x = solve_linear([[1e308, 0.0], [0.0, -1e308]], rhs)
        assert x.tolist() == [rhs[0] / 1e308, rhs[1] / -1e308]

    # Only a system whose every row has unit scale skips the division: one
    # row above or below it makes `solve_linear` divide a copy, P²·8 bytes.
    @pytest.mark.parametrize("scale", [2.0, 0.5, 1e300, 1e-300])
    def test_one_row_off_unit_scale_is_divided(self, scale):
        n = 220
        a, b = unit_rows(*diagonally_dominant(n, seed=5))
        a[7] *= scale
        b[7] *= scale
        tracemalloc.start()
        try:
            x = solve_linear(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= n * n * 8
        assert (x == solve_linear(*unit_rows(a, b))).all()

    def test_empty_system_has_an_empty_solution(self):
        # The loop Jacobian of a network without loops.
        x = solve_linear(np.zeros((0, 0)), np.zeros(0))
        assert x.shape == (0,)

    def test_zero_row_is_named(self):
        with pytest.raises(SingularSystemError, match="^row 1 of the system matrix is zero$"):
            solve_linear([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 1.0, 1.0]],
                         [1.0, 1.0, 1.0])


class TestEquilibrationOnACopy:
    @pytest.mark.parametrize("prescaled", [False, True], ids=["raw", "unit-rows"])
    def test_caller_arrays_unchanged(self, prescaled):
        a, b = diagonally_dominant(30, seed=1)
        if prescaled:
            a, b = unit_rows(a, b)
        a_before, b_before = a.copy(), b.copy()
        solve_linear(a, b)
        assert (a == a_before).all() and (b == b_before).all()

    def test_prescaled_rows_give_the_same_solution(self):
        for seed in range(20):
            a, b = diagonally_dominant(25, seed)
            raw = solve_linear(a, b)
            assert (solve_linear(*unit_rows(a, b)) == raw).all()


class TestConditionEstimate:
    def test_identity(self):
        assert condition_estimate(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal_ratio(self):
        est = condition_estimate([[1.0, 0.0], [0.0, 1e9]])
        assert est == pytest.approx(1e9, rel=1e-6)

    @pytest.mark.parametrize("singular", [[[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))],
                             ids=["rank-one", "zero"])
    def test_exactly_singular_is_infinite(self, singular):
        assert condition_estimate(singular) == np.inf

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            condition_estimate([[1.0, 0.0], [0.0, value]])

    def test_fixture_system_is_finite(self, gas_network):
        matrix, _ = _first_fixture_system(gas_network)
        estimate = condition_estimate(matrix)
        assert np.isfinite(estimate) and estimate > 1.0


def test_first_fixture_pass_solves_to_known_flows(gas_network):
    # The stacked 15x15 system at the assumed starting pattern has the
    # second trace column as its solution.
    x = solve_linear(*_first_fixture_system(gas_network))
    flows_m3h = {pid: x[j] * 3600.0
                 for j, pid in enumerate(gas_network.pipe_ids)}
    assert flows_m3h[1] == pytest.approx(687.38, abs=1.0)
    assert flows_m3h[14] == pytest.approx(3163.80, abs=1.0)
    assert flows_m3h[8] == pytest.approx(-159.48, abs=1.0)


def _first_fixture_system(gas_network):
    from loopflow.model import FlowState, m3h_to_m3s
    from loopflow.solvers import (
        assemble_node_loop_system, evaluate_loops, select_basis,
    )

    flows = FlowState({pid: m3h_to_m3s(q) for pid, q
                       in gas_network.initial_flows_m3h.items()})
    basis = select_basis(gas_network)
    return assemble_node_loop_system(evaluate_loops(gas_network, basis, flows))
