"""LP core: matrix games, feasibility LPs, duality and equivariance checks."""

from fractions import Fraction

import numpy as np
import pytest

from setgames import MatrixGame, feasibility_lp, solve_matrix_game
from setgames.errors import CapacityError, InvalidInputError


def assert_solution_certifies(matrix, sol, tol=1e-8):
    matrix = np.asarray(matrix, dtype=float)
    p = np.asarray(sol.row_strategy, dtype=float)
    q = np.asarray(sol.col_strategy, dtype=float)
    assert p.min() >= -1e-12 and q.min() >= -1e-12
    assert abs(p.sum() - 1) < 1e-9 and abs(q.sum() - 1) < 1e-9
    assert abs(p @ matrix @ q - sol.value) < tol * (1 + abs(sol.value))
    # No pure deviation beats the mixtures.
    assert (matrix @ q).max() <= sol.value + tol * (1 + abs(sol.value))
    assert (p @ matrix).min() >= sol.value - tol * (1 + abs(sol.value))


class TestMatrixGames:
    def test_matching_pennies(self):
        sol = solve_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.row_strategy, [0.5, 0.5])
        assert np.allclose(sol.col_strategy, [0.5, 0.5])

    def test_single_target_game(self):
        # Row 2 dominates; column player must cover it, value 0.
        sol = solve_matrix_game(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.col_strategy[1] == pytest.approx(1.0, abs=1e-9)
        assert_solution_certifies([[0.0, 0.0], [1.0, 0.0]], sol)

    def test_one_by_one(self):
        sol = solve_matrix_game(np.array([[4.25]]))
        assert sol.value == 4.25
        assert sol.row_strategy[0] == 1.0 and sol.col_strategy[0] == 1.0

    def test_rectangular(self):
        m = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 3.0]])
        sol = solve_matrix_game(m)
        assert_solution_certifies(m, sol)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_certified(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(rng.integers(2, 30), rng.integers(2, 30)))
        assert_solution_certifies(m, solve_matrix_game(m))

    def test_duality_gap_large(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(200, 200))
        sol = solve_matrix_game(m)
        # Row player's optimum equals the negated column-player optimum of
        # the negated transpose.
        dual = solve_matrix_game(-m.T)
        assert abs(sol.value + dual.value) <= 1e-8 * (1 + abs(sol.value))
        assert_solution_certifies(m, sol)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(9, 7))
        base = solve_matrix_game(m)
        shifted = solve_matrix_game(m + 3.75)
        assert shifted.value == pytest.approx(base.value + 3.75, abs=1e-9)
        assert np.allclose(base.row_strategy, shifted.row_strategy, atol=1e-9)
        assert np.allclose(base.col_strategy, shifted.col_strategy, atol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(8, 8))
        base = solve_matrix_game(m)
        scaled = solve_matrix_game(2.5 * m)
        assert scaled.value == pytest.approx(2.5 * base.value, abs=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(15, 15))
        a = solve_matrix_game(m)
        b = solve_matrix_game(m.copy())
        assert a.value == b.value
        assert np.array_equal(a.row_strategy, b.row_strategy)
        assert np.array_equal(a.col_strategy, b.col_strategy)

    def test_exact_mode_matching_pennies(self):
        sol = solve_matrix_game([[1, -1], [-1, 1]], exact=True)
        assert sol.value == Fraction(0)
        assert sol.row_strategy == [Fraction(1, 2), Fraction(1, 2)]
        assert sol.col_strategy == [Fraction(1, 2), Fraction(1, 2)]

    def test_exact_mode_matches_float(self):
        rng = np.random.default_rng(9)
        m = rng.integers(-5, 6, size=(6, 5))
        exact = solve_matrix_game([[int(v) for v in row] for row in m], exact=True)
        approx = solve_matrix_game(m.astype(float))
        assert float(exact.value) == pytest.approx(approx.value, abs=1e-9)

    def test_exact_mode_stays_exact(self):
        sol = solve_matrix_game([[2, -1], [-1, 1]], exact=True)
        assert sol.value == Fraction(1, 5) and type(sol.value) is Fraction
        for strategy in (sol.row_strategy, sol.col_strategy):
            assert strategy == [Fraction(2, 5), Fraction(3, 5)]
            assert all(type(p) is Fraction for p in strategy)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            MatrixGame(np.array([[np.nan, 0.0]]))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            MatrixGame(np.zeros((4000, 3000)))


class TestFeasibilityLP:
    def test_box(self):
        result = feasibility_lp(
            [1.0], [([1.0], "<=", 1.0), ([1.0], ">=", 0.0)], n_vars=1, maximize=True)
        assert result.status == "optimal"
        assert result.x[0] == pytest.approx(1.0)

    def test_simplex_vertex(self):
        result = feasibility_lp(
            [-1.0, 1.0],
            [([1.0, 1.0], "==", 1.0), ([1.0, 0.0], ">=", 0.0), ([0.0, 1.0], ">=", 0.0)],
            n_vars=2, maximize=True)
        assert result.status == "optimal"
        assert np.allclose(result.x, [0.0, 1.0], atol=1e-9)
        assert result.objective_value == pytest.approx(1.0)

    def test_unbounded_reported(self):
        result = feasibility_lp([1.0], [([1.0], ">=", 0.0)], n_vars=1, maximize=True)
        assert result.status == "unbounded"

    def test_infeasible_with_farkas_certificate(self):
        # x1 + x2 = 2 and x1 + x2 = 1 cannot both hold for x >= 0.
        constraints = [([1.0, 1.0], "==", 2.0), ([1.0, 1.0], "==", 1.0)]
        result = feasibility_lp([0.0, 0.0], constraints, n_vars=2, nonneg=True)
        assert result.status == "infeasible"
        y = np.asarray(result.certificate, dtype=float)
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 1.0])
        assert np.all(y @ a <= 1e-9)
        assert y @ b > 1e-9

    def test_infeasible_exact_certificate(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(1, 3), Fraction(1, 3)]]
        b = [Fraction(2), Fraction(1)]
        result = feasibility_lp([0, 0], [(row, "==", rhs) for row, rhs in zip(a, b)],
                                n_vars=2, nonneg=True, exact=True)
        assert result.status == "infeasible"
        y = result.certificate
        assert all(type(v) is Fraction for v in y)
        assert all(sum(y[i] * a[i][j] for i in range(2)) <= 0 for j in range(2))
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0

    def test_nonneg_basic_solution(self):
        # Maximize total over the 3-simplex: basic optimum sits on a vertex.
        result = feasibility_lp(
            [1.0, 2.0, 3.0], [([1.0, 1.0, 1.0], "==", 1.0)], n_vars=3,
            nonneg=True, maximize=True)
        assert result.status == "optimal"
        assert result.objective_value == pytest.approx(3.0)
        assert np.count_nonzero(np.abs(result.x) > 1e-12) == 1

    def test_exact_mode(self):
        result = feasibility_lp(
            [Fraction(1)], [([Fraction(1)], "<=", Fraction(1, 3))],
            n_vars=1, nonneg=True, maximize=True, exact=True)
        assert result.status == "optimal"
        assert result.x[0] == Fraction(1, 3)
