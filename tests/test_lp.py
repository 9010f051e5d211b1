"""LP core: matrix games solved by one simplex each, with both players'
mixtures read from one tableau; duality and equivariance checks, and warm
starts from an earlier basis."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from setgames import expand_normal_form, lp, solve_compact, solve_matrix_game
from setgames.errors import CapacityError, InvalidInputError, SolverFailureError
from conftest import random_game

# The last restricted game of a network solve (5x6 grid, c=4, k=3): integer
# payoffs with range 236, on which two independent float solves returned
# strategies with a duality gap of 0.0105 at the right value.
NET_WIDE_GAME = Path(__file__).with_name("net_wide_restricted_39x59.json")
# A restricted game of a network solve (5x6 grid, c=4, k=3) and the start
# basis its round took from the round before, from which a dual simplex with
# no anti-cycling rule cycled until its iteration cap.
NET_WIDE_STALL = Path(__file__).with_name("net_wide_stall_46x55.json")


def digest(values):
    """Short hash of the exact bits of a float sequence."""
    return hashlib.sha256(" ".join(map(float.hex, map(float, values))).encode()).hexdigest()[:16]


def full_tableau(condensed, num):
    """The (m+1, n+m+1) tableau of a cold condensed one: slack unit columns inserted before the rhs."""
    m = condensed.shape[0] - 1
    slacks = lp._array(np.eye(m + 1, m, dtype=int).tolist(), num)
    return np.hstack([condensed[:, :-1], slacks, condensed[:, -1:]])


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
            solve_matrix_game(np.array([[np.nan, 0.0]]))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            solve_matrix_game(np.zeros((4000, 3000)))

    def test_pivot_path_is_pinned(self):
        # The cold path runs no BLAS, so these counts and the final basis
        # hold on every platform.
        data = json.loads(NET_WIDE_GAME.read_text())
        m = np.array(data["matrix"], dtype=float)
        sol = solve_matrix_game(m)
        assert sol.pivots == 66
        assert sol.basis == (
            -1, 18, 27, 22, -21, 51, -7, -8, 44, 47, 42, 20, 45, -27, -15, 32, -25, 46, -19,
            16, 39, -13, 53, 29, 54, 14, 50, -3, 37, -6, 57, -32, -11, -17, 52, 28, 24, -39, 40)
        assert sol.value == pytest.approx(data["value"], rel=1e-12)
        exact = solve_matrix_game([[int(v) for v in row] for row in m[:12, :16]], exact=True)
        assert exact.pivots == 19
        assert exact.value == Fraction(391847654165169451, 2574149836328142)
        assert exact.basis == (-1, -5, 3, 2, -8, 12, 6, 10, 8, 14, -3, 7)

    def test_cold_bits_are_pinned(self):
        # The bits of the full (m+1, n+m+1) tableau, which the condensed one keeps.
        m = np.array(json.loads(NET_WIDE_GAME.read_text())["matrix"], dtype=float)
        sol = solve_matrix_game(m)
        assert float.hex(sol.value) == "0x1.1c5df88808312p+7"
        assert digest(sol.row_strategy) == "b92bd5b273697fa7"
        assert digest(sol.col_strategy) == "f1b01a57b75dd75f"
        nf = expand_normal_form(random_game(np.random.default_rng(0), 6, 3, 3))
        assert nf.matrix.shape == (42, 42)
        sol = solve_matrix_game(nf.matrix)
        assert sol.pivots == 23
        assert float.hex(sol.value) == "-0x1.cb06ec951b9c0p-5"
        assert digest(sol.row_strategy) == "65b1f5080cc54f00"
        assert digest(sol.col_strategy) == "f6b21d8f00ee6d03"

    def test_cold_tableau_holds_no_slack_columns(self, monkeypatch):
        m = np.array(json.loads(NET_WIDE_GAME.read_text())["matrix"], dtype=float)
        start = solve_matrix_game(m[:20, :30]).basis
        shapes = []
        simplex = lp._simplex

        def recorded(T, basis, labels=None):
            shapes.append(T.shape)
            return simplex(T, basis, labels)

        monkeypatch.setattr(lp, "_simplex", recorded)
        solve_matrix_game(m)
        solve_matrix_game(m, start=start)  # a warm tableau keeps every column
        assert shapes == [(40, 60), (40, 99)]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("exact", [False, True])
    def test_cold_solve_matches_the_full_tableau(self, seed, exact):
        # Small integer games tie often; the condensed solve must pivot and
        # end exactly as the full tableau's simplex does.
        rng = np.random.default_rng(seed)
        ints = rng.integers(-3, 4, size=(rng.integers(2, 9), rng.integers(2, 9)))
        sol = solve_matrix_game(ints.tolist() if exact else ints.astype(float), exact=exact)
        num = Fraction if exact else float
        m, n = ints.shape
        cold = lp._array(np.zeros((m + 1, n + 1)), num)
        cold[:m, :n] = lp._array((ints + 1 - ints.min()).tolist(), num)
        cold[:m, -1], cold[m, :n] = num(1), num(-1)
        full, basis = full_tableau(cold, num), np.arange(n, n + m)
        assert lp._simplex(full, basis) == sol.pivots
        assert sol.basis == tuple(np.where(basis < n, basis, n + ~basis).tolist())
        w = full[m, n:-1] if exact else np.maximum(full[m, n:-1], 0.0)
        expected = w / num(w.sum())
        if exact:
            assert sol.row_strategy == expected.tolist()
        else:
            assert sol.row_strategy.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_raises_when_no_row_can_leave(self, exact):
        # maximize z subject to -z + s = 1: z enters and nothing bounds it.
        num = Fraction if exact else float
        T = lp._array([[-1, 1, 1], [-1, 0, 0]], num)
        with pytest.raises(SolverFailureError):
            lp._simplex(T, [1])
        # Condensed: only z's column is held, and the failure names variable 0.
        T = lp._array([[-1, 1], [-1, 0]], num)
        with pytest.raises(SolverFailureError) as failure:
            lp._simplex(T, np.array([1]), np.array([0]))
        assert failure.value.diagnostics["column"] == 0


class TestTieRules:
    @pytest.mark.parametrize("exact", [False, True])
    def test_pivot_leaves_an_exact_unit_column(self, exact):
        num = Fraction if exact else float
        ints = np.random.default_rng(3).integers(-9, 10, size=(5, 7))
        ints[2, 4] = 3
        T = lp._array(ints.tolist(), num) / 7
        before = T.copy()
        basis = np.zeros(4, dtype=np.intp)
        lp._pivot(T, basis, None, 2, 4)
        assert basis.tolist() == [0, 0, 4, 0]
        unit = lp._array(np.eye(5)[:, 2], num)
        assert np.array_equal(T[:, 4], unit)
        expected = before - np.outer(before[:, 4], before[2] / before[2, 4])
        expected[2] = before[2] / before[2, 4]
        if exact:
            assert T.tolist() == expected.tolist()
        else:
            assert np.allclose(T, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("exact", [False, True])
    def test_condensed_pivot_gives_the_full_tableau_bits(self, exact):
        # Variable 1 enters at row 2 and slack 5 leaves: its unit column takes
        # slot 1, and every held column gets the full tableau's bits.
        num = Fraction if exact else float
        ints = np.random.default_rng(4).integers(-9, 10, size=(5, 4))
        ints[2, 1] = 6
        condensed = lp._array(ints.tolist(), num) / 7
        full = full_tableau(condensed, num)
        full_basis, basis, labels = np.arange(3, 7), np.arange(3, 7), np.arange(3)
        lp._pivot(full, full_basis, None, 2, 1)
        lp._pivot(condensed, basis, labels, 2, 1)
        assert basis.tolist() == full_basis.tolist() == [3, 4, 1, 6]
        assert labels.tolist() == [0, 5, 2]
        held = full[:, [*labels, -1]]
        if exact:
            assert condensed.tolist() == held.tolist()
        else:
            assert condensed.tobytes() == np.ascontiguousarray(held).tobytes()

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_ratio_tie_leaves_the_smallest_basis_index(self, exact):
        # Column 0 enters; rows 0 and 1 tie at ratio 1, and row 1 holds the
        # smaller basis index, so it leaves although row 0 comes first.
        num = Fraction if exact else float
        T = lp._array([[1, 0, 1, 1], [1, 1, 0, 1], [-1, 0, 0, 0]], num)
        basis = np.array([2, 1])
        assert lp._simplex(T, basis) == 1
        assert basis.tolist() == [2, 0]
        # Condensed, the same LP holds column 0 only; variable 1 takes its slot.
        T = lp._array([[1, 1], [1, 1], [-1, 0]], num)
        basis, labels = np.array([2, 1]), np.array([0])
        assert lp._simplex(T, basis, labels) == 1
        assert basis.tolist() == [2, 0] and labels.tolist() == [1]

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
        T = lp._array([[1, 1], [1, 1 + 1e-12], [-1, 0]], num)
        basis, labels = np.array([2, 1]), np.array([0])
        lp._simplex(T, basis, labels)
        assert basis.tolist() == ([0, 1] if exact else [2, 0])
        assert labels.tolist() == ([2] if exact else [1])

    @pytest.mark.parametrize("exact", [False, True])
    def test_condensed_dantzig_tie_enters_the_smallest_variable(self, exact):
        # Slot 0 holds slack 2 and slot 1 variable 0, both at reduced cost -1:
        # variable 0 enters, as it would from the full tableau.
        num = Fraction if exact else float
        T = lp._array([[1, 1, 1], [-1, -1, 0]], num)
        basis, labels = np.array([1]), np.array([2, 0])
        assert lp._simplex(T, basis, labels) == 1
        assert basis.tolist() == [0] and labels.tolist() == [2, 1]

    @pytest.mark.parametrize("exact", [False, True])
    def test_condensed_bland_run_matches_the_full_tableau(self, exact):
        # Beale's example cycles under Dantzig's rule; after the degenerate
        # run the Bland pivots must pick variables by index, not by slot.
        num = Fraction if exact else float
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        condensed = lp._array([[quarter, -8, -1, 9, 0], [half, -12, -half, 3, 0],
                               [0, 0, 1, 0, 1], [-3 * quarter, 20, -half, 6, 0]], num)
        full = full_tableau(condensed, num)
        full_basis, basis, labels = np.arange(4, 7), np.arange(4, 7), np.arange(4)
        assert lp._simplex(full, full_basis) == lp._simplex(condensed, basis, labels) == 30
        assert basis.tolist() == full_basis.tolist() == [2, 4, 0]
        held = full[:, [*labels, -1]]
        if exact:
            assert condensed.tolist() == held.tolist()
        else:
            assert condensed.tobytes() == np.ascontiguousarray(held).tobytes()

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

    def test_row_below_the_old_minimum_still_starts_warm(self):
        # The grown matrix takes its own shift; the optimal basis does not
        # depend on it, so the start still saves pivots.
        rng = np.random.default_rng(21)
        m = rng.normal(size=(6, 5))
        m[5, 2] = m[:5].min() - 1.5
        start = solve_matrix_game(m[:5]).basis
        warm = solve_matrix_game(m, start=start)
        cold = solve_matrix_game(m)
        assert warm.pivots < cold.pivots
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
        assert_solution_certifies(m, warm)

    @pytest.mark.parametrize("seed", range(10))
    def test_growth_below_the_old_minimum_matches_cold(self, seed):
        # Rows and columns added each step hold entries below every earlier one.
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = rng.normal(size=(rows, cols))
        start = None
        for _ in range(6):
            new_rows, new_cols = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            grown = m.min() - rng.exponential(size=(rows + new_rows, cols + new_cols))
            grown[:rows, :cols] = m
            m, rows, cols = grown, *grown.shape
            warm = solve_matrix_game(m, start=start)
            cold = solve_matrix_game(m)
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
            assert_solution_certifies(m, warm)
            start = warm.basis

    @pytest.mark.usefixtures("unseeded")
    @pytest.mark.parametrize("seed", range(6))
    def test_only_the_first_restricted_round_starts_cold(self, monkeypatch, seed):
        # A cold tableau carries slot labels; a warm one does not.
        cold = []
        simplex = lp._simplex

        def recorded(T, basis, labels=None):
            cold.append(labels is not None)
            return simplex(T, basis, labels)

        monkeypatch.setattr(lp, "_simplex", recorded)
        trace = []
        solve_compact(random_game(np.random.default_rng(seed), 7, 3, 3), trace=trace)
        assert len(cold) == len(trace) > 1
        assert cold == [True] + [False] * (len(trace) - 1)

    def test_recorded_stall_solves_warm_under_blands_rule(self, monkeypatch):
        # Without Bland's rule the dual simplex cycled here for its whole
        # iteration cap (6,100 pivots) and the solve then started over cold.
        data = json.loads(NET_WIDE_STALL.read_text())
        m = np.array(data["matrix"], dtype=float)
        dual, runs = lp._dual_simplex, []

        def recorded(T, basis):
            runs.append(dual(T, basis))
            return runs[-1]

        monkeypatch.setattr(lp, "_dual_simplex", recorded)
        warm = solve_matrix_game(m, start=tuple(data["start"]))
        assert len(runs) == 1 and not warm.cold_restart
        assert warm.value == pytest.approx(data["value"], rel=1e-12)
        assert_solution_certifies(m, warm)

    @pytest.mark.usefixtures("unseeded")
    def test_trace_flags_the_rounds_that_restart_cold(self, monkeypatch):
        spec = random_game(np.random.default_rng(0), 7, 3, 3)
        trace = []
        solve_compact(spec, trace=trace)
        assert len(trace) > 1 and not any(rec["lp_cold_restart"] for rec in trace)

        def stuck(T, basis):
            raise SolverFailureError("dual simplex stalled", diagnostics={"pivots": 3})

        monkeypatch.setattr(lp, "_dual_simplex", stuck)
        trace = []
        solve_compact(spec, trace=trace)
        assert [rec["lp_cold_restart"] for rec in trace] == [False] + [True] * (len(trace) - 1)

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

    def test_fallback_counts_the_stuck_attempts_pivots(self, monkeypatch):
        # From this start the dual simplex pivots twice and then finds no
        # column to enter; the cold solve's pivots come on top of those two.
        matrix = [[-3, -3, 1, 2], [1, 0, -1, 2], [-3, -3, 2, 2], [-1, -1, 3, 3]]
        dual, stuck = lp._dual_simplex, []

        def recorded(T, basis):
            try:
                return dual(T, basis)
            except SolverFailureError as error:
                stuck.append(error.diagnostics["pivots"])
                raise

        monkeypatch.setattr(lp, "_dual_simplex", recorded)
        warm = solve_matrix_game(matrix, start=(1, ~0, 3))
        cold = solve_matrix_game(matrix)
        assert stuck == [2]
        assert warm.pivots == cold.pivots + 2
        assert warm.cold_restart and not cold.cold_restart
        assert warm.value == cold.value and warm.basis == cold.basis
        assert np.array_equal(warm.row_strategy, cold.row_strategy)
        assert np.array_equal(warm.col_strategy, cold.col_strategy)

    def test_singular_start_falls_back_with_no_extra_pivots(self, monkeypatch):
        # Columns 0 and 1 are equal, so a start holding both is singular and
        # the dual simplex never runs.
        matrix = [[2, 2, -1], [-1, -1, 3], [0, 0, 1]]
        monkeypatch.setattr(lp, "_dual_simplex", lambda T, basis: pytest.fail("warm start ran"))
        warm = solve_matrix_game(matrix, start=(0, 1))
        cold = solve_matrix_game(matrix)
        assert warm.pivots == cold.pivots and warm.value == cold.value

    def test_rejects_exact_or_out_of_range_starts(self):
        m = [[1, -1], [-1, 1]]
        start = solve_matrix_game(np.array(m, dtype=float)).basis
        with pytest.raises(InvalidInputError):
            solve_matrix_game(m, exact=True, start=start)
        for members in [(2,), (~2,), (0, 1, ~0)]:
            with pytest.raises(InvalidInputError):
                solve_matrix_game(np.array(m, dtype=float), start=members)

    def test_rejects_repeated_members(self):
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for members in [(0, 0), (~1, ~1)]:
            with pytest.raises(InvalidInputError):
                solve_matrix_game(m, start=members)

    def test_rejects_members_that_are_not_integers(self):
        # Read as integers they would be the valid start (1,).
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        for members in [(1.5,), (True,), np.array([1.0])]:
            with pytest.raises(InvalidInputError, match="start basis members must be integers"):
                solve_matrix_game(m, start=members)
        numpy_start, int_start = (solve_matrix_game(m, start=(one,)) for one in (np.int64(1), 1))
        assert (numpy_start.value, numpy_start.basis) == (int_start.value, int_start.basis)

    def test_rows_with_basic_slacks_get_no_row_weight(self):
        # Complementary slackness, exactly: a row whose slack is basic is not
        # tight, and the row mixture puts no weight on it. A warm tableau is
        # refactored, so its basic reduced costs keep round-off of order 1e-17.
        net_wide = np.array(json.loads(NET_WIDE_GAME.read_text())["matrix"], dtype=float)
        small = np.random.default_rng(0).integers(-3, 4, size=(30, 30)).astype(float)
        for m, growth in ((net_wide, _growth("both")), (small, [(r, r) for r in range(3, 31, 3)])):
            start = None
            for rows, cols in growth:
                solution = solve_matrix_game(m[:rows, :cols], start=start)
                slack_rows = [~member for member in solution.basis if member < 0]
                assert not solution.row_strategy[slack_rows].any()
                assert_solution_certifies(m[:rows, :cols], solution)
                start = solution.basis

    @pytest.mark.parametrize("matrix, members", [
        ([[1.0, 1.0], [1.0, 1.0]], (0, 1)),  # equal columns
        ([[1.0, 1.0], [1.0, 2.0]], (~1,)),  # row 1 keeps its slack, which also takes row 0's place
    ])
    def test_singular_start_starts_over_from_the_slack_basis(self, matrix, members):
        m = np.array(matrix)
        warm = solve_matrix_game(m, start=members)
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

