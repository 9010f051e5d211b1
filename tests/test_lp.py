"""LP core: matrix games solved by one simplex each, with both players'
mixtures read from one tableau; duality and equivariance checks, and warm
starts from an earlier basis."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from setgames import MatrixGame, lp, solve_matrix_game
from setgames.errors import CapacityError, InvalidInputError, SolverFailureError

# The last restricted game of a network solve (5x6 grid, c=4, k=3): integer
# payoffs with range 236, on which two independent float solves returned
# strategies with a duality gap of 0.0105 at the right value.
NET_WIDE_GAME = Path(__file__).with_name("net_wide_restricted_39x59.json")


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
        # The row player's optimal mixture is not unique here (row 4 alone,
        # or rows 1 and 3 half each); the one read from the tableau is exact.
        half = Fraction(1, 2)
        m = [[1, 1, 0], [1, 1, 0], [0, 0, 1], [half, half, half]]
        sol = solve_matrix_game(m, exact=True)
        p, q = sol.row_strategy, sol.col_strategy
        assert all(type(x) is Fraction for x in [sol.value, *p, *q])
        assert sum(p) == 1 and sum(q) == 1 and min(p) >= 0 and min(q) >= 0
        best_row = max(sum(a * b for a, b in zip(row, q)) for row in m)
        best_col = min(sum(p[i] * m[i][j] for i in range(4)) for j in range(3))
        assert best_row == sol.value == best_col == half

    def test_mixtures_from_one_tableau_close_the_gap(self):
        data = json.loads(NET_WIDE_GAME.read_text())
        m = np.array(data["matrix"], dtype=float)
        assert m.shape == (39, 59) and m.max() - m.min() == 236
        sol = solve_matrix_game(m)
        p = np.asarray(sol.row_strategy)
        q = np.asarray(sol.col_strategy)
        assert sol.value == pytest.approx(data["value"], rel=1e-12)
        assert p.min() >= 0 and q.min() >= 0
        assert (m @ q).max() - (p @ m).min() <= 1e-9 * (m.max() - m.min())

    @pytest.mark.parametrize("exact", [False, True])
    def test_one_simplex_per_game(self, monkeypatch, exact):
        calls = []
        simplex = lp._simplex

        def counted(*args, **kwargs):
            calls.append(1)
            return simplex(*args, **kwargs)

        monkeypatch.setattr(lp, "_simplex", counted)
        rng = np.random.default_rng(12)
        for shape in [(1, 1), (3, 5), (6, 2)]:
            m = rng.integers(-4, 5, size=shape)
            solve_matrix_game(m.tolist() if exact else m.astype(float), exact=exact)
        assert len(calls) == 3

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            MatrixGame(np.array([[np.nan, 0.0]]))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            MatrixGame(np.zeros((4000, 3000)))

    def test_pivot_path_is_pinned(self):
        # The cold path runs no BLAS, so these counts and the final basis
        # hold on every platform.
        data = json.loads(NET_WIDE_GAME.read_text())
        m = np.array(data["matrix"], dtype=float)
        sol = solve_matrix_game(m)
        assert sol.pivots == 66
        assert sol.basis.members == (
            -1, 18, 27, 22, -21, 51, -7, -8, 44, 47, 42, 20, 45, -27, -15, 32, -25, 46, -19,
            16, 39, -13, 53, 29, 54, 14, 50, -3, 37, -6, 57, -32, -11, -17, 52, 28, 24, -39, 40)
        assert sol.value == pytest.approx(data["value"], rel=1e-12)
        exact = solve_matrix_game([[int(v) for v in row] for row in m[:12, :16]], exact=True)
        assert exact.pivots == 19
        assert exact.value == Fraction(391847654165169451, 2574149836328142)
        assert exact.basis.members == (-1, -5, 3, 2, -8, 12, 6, 10, 8, 14, -3, 7)

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_raises_when_no_row_can_leave(self, exact):
        # maximize z subject to -z + s = 1: z enters and nothing bounds it.
        num = Fraction if exact else float
        T = lp._array([[-1, 1, 1], [-1, 0, 0]], num)
        with pytest.raises(SolverFailureError):
            lp._simplex(T, [1])


class TestTieRules:
    @pytest.mark.parametrize("exact", [False, True])
    def test_pivot_leaves_an_exact_unit_column(self, exact):
        num = Fraction if exact else float
        ints = np.random.default_rng(3).integers(-9, 10, size=(5, 7))
        ints[2, 4] = 3
        T = lp._array(ints.tolist(), num) / 7
        before = T.copy()
        lp._pivot(T, 2, 4)
        unit = lp._array(np.eye(5)[:, 2], num)
        assert np.array_equal(T[:, 4], unit)
        expected = before - np.outer(before[:, 4], before[2] / before[2, 4])
        expected[2] = before[2] / before[2, 4]
        if exact:
            assert T.tolist() == expected.tolist()
        else:
            assert np.allclose(T, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_ratio_tie_leaves_the_smallest_basis_index(self, exact):
        # Column 0 enters; rows 0 and 1 tie at ratio 1, and row 1 holds the
        # smaller basis index, so it leaves although row 0 comes first.
        num = Fraction if exact else float
        T = lp._array([[1, 0, 1, 1], [1, 1, 0, 1], [-1, 0, 0, 0]], num)
        basis = np.array([2, 1])
        assert lp._simplex(T, basis) == 1
        assert basis.tolist() == [2, 0]

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_near_tie_is_a_tie_only_in_floats(self, exact):
        # Row 1's ratio exceeds row 0's by 1e-12: a near tie under the float
        # tolerance, so the smaller basis index (row 1) leaves; a Fraction
        # tableau ties only on equality, so row 0 leaves.
        num = Fraction if exact else float
        T = lp._array([[1, 0, 1, 1], [1, 1, 0, 1 + 1e-12], [-1, 0, 0, 0]], num)
        basis = np.array([2, 1])
        lp._simplex(T, basis)
        assert basis.tolist() == ([0, 1] if exact else [2, 0])

    def test_dual_simplex_near_tie_enters_the_most_negative_pivot(self):
        # Row 0 is infeasible; columns 0 and 1 tie at ratio 1, and column 1
        # has the more negative entry, so it enters although column 0 comes first.
        T = lp._array([[-1, -2, 1, -1], [1, 2, 0, 0]], float)
        basis = np.array([2])
        assert lp._dual_simplex(T, basis) == 1
        assert basis.tolist() == [1]
        assert T[0, -1] == 0.5


def _growth(kind):
    """Leading blocks of the 39x59 game, grown by rows, columns or both."""
    if kind == "rows":
        return [(r, 59) for r in range(3, 40, 6)] + [(39, 59)]
    if kind == "cols":
        return [(39, c) for c in range(5, 60, 9)] + [(39, 59)]
    return [(min(r, 39), min(c, 59)) for r, c in zip(range(4, 46, 6), range(6, 66, 9))]


class TestWarmStart:
    @pytest.mark.parametrize("kind", ["rows", "cols", "both"])
    def test_growth_order_matches_cold_with_fewer_pivots(self, kind):
        m = np.array(json.loads(NET_WIDE_GAME.read_text())["matrix"], dtype=float)
        start, warm_pivots, cold_pivots = None, 0, 0
        for rows, cols in _growth(kind):
            block = m[:rows, :cols]
            warm = solve_matrix_game(block, start=start)
            cold = solve_matrix_game(block)
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
            assert_solution_certifies(block, warm)
            start = warm.basis
            warm_pivots += warm.pivots
            cold_pivots += cold.pivots
        assert warm_pivots < cold_pivots

    def test_row_below_the_old_minimum_starts_from_the_slack_basis(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 5))
        m[5, 2] = m[:5].min() - 1.5  # the stored shift no longer suffices
        start = solve_matrix_game(m[:5]).basis
        warm = solve_matrix_game(m, start=start)
        cold = solve_matrix_game(m)
        assert warm.value == cold.value and warm.pivots == cold.pivots
        assert np.array_equal(warm.row_strategy, cold.row_strategy)
        assert np.array_equal(warm.col_strategy, cold.col_strategy)
        assert_solution_certifies(m, warm)

    def test_stuck_dual_simplex_starts_over_from_the_slack_basis(self, monkeypatch):
        m = np.array(json.loads(NET_WIDE_GAME.read_text())["matrix"], dtype=float)
        start = solve_matrix_game(m[:20, :30]).basis
        cold = solve_matrix_game(m)
        calls = []

        def stuck(T, basis):
            calls.append(T.shape)
            raise SolverFailureError("dual simplex stalled")

        monkeypatch.setattr(lp, "_dual_simplex", stuck)
        warm = solve_matrix_game(m, start=start)
        assert calls == [(40, 99)]
        assert warm.value == cold.value and warm.pivots == cold.pivots
        assert np.array_equal(warm.row_strategy, cold.row_strategy)
        assert np.array_equal(warm.col_strategy, cold.col_strategy)

    def test_rejects_exact_or_out_of_range_starts(self):
        m = [[1, -1], [-1, 1]]
        start = solve_matrix_game(np.array(m, dtype=float)).basis
        with pytest.raises(InvalidInputError):
            solve_matrix_game(m, exact=True, start=start)
        for members in [(2,), (~2,), (0, 1, ~0)]:
            with pytest.raises(InvalidInputError):
                solve_matrix_game(np.array(m, dtype=float), start=lp.Basis(members, 1.0))

    def test_rejects_repeated_members(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for members in [(0, 0), (~1, ~1)]:
            with pytest.raises(InvalidInputError):
                solve_matrix_game(m, start=lp.Basis(members, 2.0))

    @pytest.mark.parametrize("matrix, members", [
        ([[1.0, 1.0], [1.0, 1.0]], (0, 1)),  # equal columns
        ([[1.0, 1.0], [1.0, 2.0]], (~1,)),  # row 1 keeps its slack, which also takes row 0's place
    ])
    def test_singular_start_starts_over_from_the_slack_basis(self, matrix, members):
        m = np.array(matrix)
        warm = solve_matrix_game(m, start=lp.Basis(members, 0.0))
        cold = solve_matrix_game(m)
        assert warm.value == cold.value and warm.pivots == cold.pivots
        assert np.array_equal(warm.row_strategy, cold.row_strategy)
        assert np.array_equal(warm.col_strategy, cold.col_strategy)
        assert warm.basis == cold.basis

    def test_dual_simplex_raises_when_no_column_can_enter(self):
        # x + s = -1 has no solution with x, s >= 0, so no column can enter.
        T = lp._array([[1, 1, -1], [-1, 0, 0]], float)
        with pytest.raises(SolverFailureError):
            lp._dual_simplex(T, [1])

