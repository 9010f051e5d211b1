"""LP core: matrix games solved by one simplex each, with both players'
mixtures read from one tableau; duality and equivariance checks, and warm
starts from an earlier basis. The solve, tie-rule and warm-start tests run
again with every tableau pivoting in product form (the ``InProductForm``
classes), and the two pivot paths are checked against each other."""

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


@pytest.fixture
def product_form(monkeypatch):
    """Every tableau pivots in product form, however small, float or Fraction."""
    monkeypatch.setattr(lp, "_product_form", lambda T: True)


def read_back(tableau):
    """The current (m+1, n+m+1) tableau, read a column at a time as the simplex reads it."""
    last = np.append(tableau.rhs, -tableau.objective)
    return np.column_stack([tableau.column(j) for j in range(tableau.rc.size)] + [last])


def net_wide_matrix():
    return np.array(json.loads(NET_WIDE_GAME.read_text())["matrix"], dtype=float)


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

    @pytest.mark.parametrize("matrix", [[], [[]], [1.0, 2.0], np.zeros((2, 2, 2))])
    def test_rejects_payoffs_that_are_not_a_nonempty_matrix(self, matrix):
        with pytest.raises(InvalidInputError, match="two-dimensional and non-empty"):
            solve_matrix_game(matrix)

    def test_simplex_raises_when_it_runs_out_of_iterations(self, monkeypatch):
        # A pivot that changes nothing leaves the same column entering forever.
        monkeypatch.setattr(lp._Tableau, "pivot", lambda self, i, j, c: None)
        with pytest.raises(SolverFailureError, match="did not terminate") as failure:
            solve_matrix_game([[1.0, 0.0], [0.0, 1.0]])
        assert failure.value.diagnostics["iterations"] == 50 * (2 + 4) + 1000

    def test_pivot_path_is_pinned(self):
        # The 39x59 tableau (3,960 cells) pivots in place and runs no BLAS,
        # so these counts and the final basis hold on every platform.
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
        # The bits of cold solves that pivot in place.
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

    def test_cold_and_warm_tableaux_hold_every_column(self, monkeypatch):
        m = net_wide_matrix()
        start = solve_matrix_game(m[:20, :30]).basis
        shapes = []
        simplex = lp._simplex

        def recorded(T, basis):
            shapes.append((T.rhs.size, T.rc.size))
            return simplex(T, basis)

        monkeypatch.setattr(lp, "_simplex", recorded)
        solve_matrix_game(m)
        solve_matrix_game(m, start=start)
        assert shapes == [(39, 98), (39, 98)]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("exact", [False, True])
    def test_cold_solve_matches_the_full_tableau(self, seed, exact):
        # Small integer games tie often; the solve must pivot and end exactly
        # as the simplex does on the full tableau built by hand: M's, or with
        # more rows than columns -M^T's, whose row mixture is M's column one.
        rng = np.random.default_rng(seed)
        ints = rng.integers(-3, 4, size=(rng.integers(2, 9), rng.integers(2, 9)))
        sol = solve_matrix_game(ints.tolist() if exact else ints.astype(float), exact=exact)
        tall = ints.shape[0] > ints.shape[1]
        game = -ints.T if tall else ints
        num = Fraction if exact else float
        m, n = game.shape
        full = lp._array(np.zeros((m + 1, n + m + 1)), num)
        full[:m, :n] = lp._array((game + 1 - game.min()).tolist(), num)
        full[:m, n:-1] = lp._array(np.eye(m), num)
        full[:m, -1], full[m, :n] = num(1), num(-1)
        tableau, basis = lp._Tableau(full), np.arange(n, n + m)
        assert lp._simplex(tableau, basis) == sol.pivots
        members = tuple(np.where(basis < n, basis, n + ~basis).tolist())
        assert sol.basis == (lp._complement(members, n, m) if tall else members)
        rc = tableau.rc.copy()
        rc[basis] = num(0)
        w = rc[n:] if exact else np.maximum(rc[n:], 0.0)
        expected = w / num(w.sum())
        mixture = sol.col_strategy if tall else sol.row_strategy
        if exact:
            assert mixture == expected.tolist()
        else:
            assert mixture.tobytes() == expected.tobytes()

    def test_tall_game_pivots_the_tableau_of_its_transpose(self, monkeypatch):
        # 5,000 rows and 20 columns: the solve pivots -M^T's (21, 5,021) tableau
        # rather than M's (5,001, 5,021) one, which would hold 25M cells.
        m = np.random.default_rng(0).normal(size=(5000, 20))
        dual = solve_matrix_game(-m.T)
        shapes, simplex = [], lp._simplex

        def recorded(T, basis):
            shapes.append((T.rhs.size, T.rc.size))
            return simplex(T, basis)

        monkeypatch.setattr(lp, "_simplex", recorded)
        sol = solve_matrix_game(m)
        assert shapes == [(20, 5020)]
        assert sol.value == -dual.value and sol.pivots == dual.pivots
        assert np.array_equal(sol.row_strategy, dual.col_strategy)
        assert np.array_equal(sol.col_strategy, dual.row_strategy)
        assert_solution_certifies(m, sol, tol=1e-12)

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_raises_when_no_row_can_leave(self, exact):
        # maximize z subject to -z + s = 1: z enters and nothing bounds it.
        # The failure names variable 0 and the objective reached.
        num = Fraction if exact else float
        T = lp._array([[-1, 1, 1], [-1, 0, 0]], num)
        with pytest.raises(SolverFailureError) as failure:
            lp._simplex(lp._Tableau(T), np.array([1]))
        assert failure.value.diagnostics["column"] == 0
        assert failure.value.diagnostics["objective"] == 0


class TestTieRules:
    @pytest.mark.parametrize("exact", [False, True])
    def test_pivot_leaves_an_exact_unit_column(self, exact):
        num = Fraction if exact else float
        ints = np.random.default_rng(3).integers(-9, 10, size=(5, 7))
        ints[2, 4] = 3
        T = lp._array(ints.tolist(), num) / 7
        before = T.copy()
        tableau = lp._Tableau(T)
        tableau.pivot(2, 4, tableau.column(4))
        after = read_back(tableau)
        unit = lp._array(np.eye(5)[:, 2], num)
        expected = before - np.outer(before[:, 4], before[2] / before[2, 4])
        expected[2] = before[2] / before[2, 4]
        if exact or not lp._product_form(T):
            assert np.array_equal(after[:, 4], unit)
        else:  # a float eta d = c - e_i rounds
            assert np.allclose(after[:, 4], unit, rtol=0, atol=1e-15)
        if exact:
            assert after.tolist() == expected.tolist()
        else:
            assert np.allclose(after, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_ratio_tie_leaves_the_smallest_basis_index(self, exact):
        # Column 0 enters; rows 0 and 1 tie at ratio 1, and row 1 holds the
        # smaller basis index, so it leaves although row 0 comes first.
        num = Fraction if exact else float
        T = lp._array([[1, 0, 1, 1], [1, 1, 0, 1], [-1, 0, 0, 0]], num)
        basis = np.array([2, 1])
        assert lp._simplex(lp._Tableau(T), basis) == 1
        assert basis.tolist() == [2, 0]

    @pytest.mark.parametrize("exact", [False, True])
    def test_simplex_near_tie_is_a_tie_only_in_floats(self, exact):
        # Row 1's ratio exceeds row 0's by 1e-12: a near tie under the float
        # tolerance, so the smaller basis index (row 1) leaves; a Fraction
        # tableau ties only on equality, so row 0 leaves.
        num = Fraction if exact else float
        T = lp._array([[1, 0, 1, 1], [1, 1, 0, 1 + 1e-12], [-1, 0, 0, 0]], num)
        basis = np.array([2, 1])
        lp._simplex(lp._Tableau(T), basis)
        assert basis.tolist() == ([0, 1] if exact else [2, 0])

    @pytest.mark.parametrize("exact", [False, True])
    def test_dantzig_tie_enters_the_smallest_variable(self, exact):
        # Variables 0 and 2 tie at reduced cost -1, and variable 2 has the
        # larger ratio-test pivot; variable 0 enters.
        num = Fraction if exact else float
        T = lp._array([[1, 1, 2, 1], [-1, 0, -1, 0]], num)
        basis = np.array([1])
        assert lp._simplex(lp._Tableau(T), basis) == 1
        assert basis.tolist() == [0]

    @pytest.mark.parametrize("exact", [False, True])
    def test_bland_run_ends_beales_cycle(self, exact):
        # Beale's example cycles under Dantzig's rule; after the degenerate
        # run the Bland pivots pick variables by index and reach the optimum.
        num = Fraction if exact else float
        basis = np.arange(4, 7)
        tableau = lp._Tableau(beale_tableau(num))
        assert lp._simplex(tableau, basis) == 30
        assert basis.tolist() == [2, 4, 0]
        assert tableau.objective == (Fraction(-5, 4) if exact else pytest.approx(-1.25, abs=1e-12))

    def test_dual_simplex_near_tie_enters_the_most_negative_pivot(self):
        # Row 0 is infeasible; columns 0 and 1 tie at ratio 1, and column 1
        # has the more negative entry, so it enters although column 0 comes first.
        T = lp._array([[-1, -2, 1, -1], [1, 2, 0, 0]], float)
        tableau, basis = lp._Tableau(T), np.array([2])
        assert lp._dual_simplex(tableau, basis) == 1
        assert basis.tolist() == [1]
        assert tableau.rhs[0] == 0.5


def beale_tableau(num):
    """Beale's LP, which cycles under Dantzig's rule, as a full tableau over the slack basis."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return lp._array([[quarter, -8, -1, 9, 1, 0, 0, 0], [half, -12, -half, 3, 0, 1, 0, 0],
                      [0, 0, 1, 0, 0, 0, 1, 1], [-3 * quarter, 20, -half, 6, 0, 0, 0, 0]], num)


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
        # A warm solve runs the dual simplex before the primal one; a cold one does not.
        cold, dual, simplex = [], lp._dual_simplex, lp._simplex
        warm = []

        def recorded_dual(T, basis):  # a stuck run, then a cold restart, counts as cold
            pivots = dual(T, basis)
            warm.append(1)
            return pivots

        def recorded(T, basis):
            cold.append(not warm)
            warm.clear()
            return simplex(T, basis)

        monkeypatch.setattr(lp, "_dual_simplex", recorded_dual)
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
            calls.append((T.rhs.size, T.rc.size))
            raise SolverFailureError("dual simplex stalled")

        monkeypatch.setattr(lp, "_dual_simplex", stuck)
        warm = solve_matrix_game(m, start=start)
        assert calls == [(39, 98)]
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

    def test_tall_solves_basis_starts_the_next_solve_warm(self):
        # A cold solve of a tall game returns the basis complementary to the one
        # of -M^T it pivoted to: the columns whose slack there is not basic, and
        # the slacks of the rows it gives no weight.
        m = -net_wide_matrix().T  # 59 x 39
        first = solve_matrix_game(m[:50, :30])
        slack_rows = [~member for member in first.basis if member < 0]
        assert len(first.basis) == 50 and slack_rows
        assert not first.row_strategy[slack_rows].any()
        warm, cold = solve_matrix_game(m, start=first.basis), solve_matrix_game(m)
        assert not warm.cold_restart and warm.pivots < cold.pivots
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        assert_solution_certifies(m, warm)

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
            lp._dual_simplex(lp._Tableau(T), np.array([1]))



@pytest.mark.usefixtures("product_form")
class TestMatrixGamesInProductForm(TestMatrixGames):
    """The solves above with product-form pivots. They read BLAS products, so
    the pins of the in-place bits give way to the value and the duality gap;
    an exact solve makes the same choices on either path."""

    test_rejects_nan = test_capacity_guard = None  # input checks build no tableau

    def test_pivot_path_is_pinned(self):
        data = json.loads(NET_WIDE_GAME.read_text())
        m = np.array(data["matrix"], dtype=float)
        sol = solve_matrix_game(m)
        # More pivots than the etas' fold point: the solve folds them into T once.
        assert sol.pivots > -(-40 * 99 // (40 + 99))
        assert sol.value == pytest.approx(data["value"], rel=1e-12)
        p, q = np.asarray(sol.row_strategy), np.asarray(sol.col_strategy)
        assert (m @ q).max() - (p @ m).min() <= 1e-9 * abs(m).max()
        exact = solve_matrix_game([[int(v) for v in row] for row in m[:12, :16]], exact=True)
        assert exact.pivots == 19
        assert exact.value == Fraction(391847654165169451, 2574149836328142)
        assert exact.basis == (-1, -5, 3, 2, -8, 12, 6, 10, 8, 14, -3, 7)

    def test_cold_bits_are_pinned(self):
        m = net_wide_matrix()
        assert solve_matrix_game(m).value == pytest.approx(float.fromhex("0x1.1c5df88808312p+7"),
                                                         rel=1e-12)
        nf = expand_normal_form(random_game(np.random.default_rng(0), 6, 3, 3))
        sol = solve_matrix_game(nf.matrix)
        assert sol.value == pytest.approx(float.fromhex("-0x1.cb06ec951b9c0p-5"), rel=1e-12)
        assert_solution_certifies(nf.matrix, sol, tol=1e-12)


@pytest.mark.usefixtures("product_form")
class TestTieRulesInProductForm(TestTieRules):
    """The tie rules above with product-form pivots."""


@pytest.mark.usefixtures("product_form")
class TestWarmStartInProductForm(TestWarmStart):
    """The warm starts above with product-form pivots."""

    # Input checks build no tableau.
    test_rejects_exact_or_out_of_range_starts = test_rejects_repeated_members = None
    test_rejects_members_that_are_not_integers = None


def paths(solve):
    """``solve()`` with in-place pivots, then with product-form ones."""
    in_place = solve()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_product_form", lambda T: True)
        return in_place, solve()


class TestPivotPaths:
    def test_size_rule_picks_the_path(self):
        # Past INPLACE_CELLS a float tableau keeps its own reduced costs and rhs
        # rather than views of T; a Fraction one of any size pivots in place.
        for cells, dtype, product in ((lp.INPLACE_CELLS, float, False),
                                      (lp.INPLACE_CELLS + 1, float, True),
                                      (lp.INPLACE_CELLS + 1, object, False)):
            T = np.zeros((1, cells), dtype)
            assert (lp._Tableau(T).rc.base is T) is not product

    @pytest.mark.parametrize("exact", [False, True])
    def test_product_form_pivots_match_in_place(self, exact):
        # Pivots on nonzero entries, past the fold point (ceil(8 * 15 / 23) = 6
        # etas): every column read, the reduced costs and the rhs agree.
        num = Fraction if exact else float
        rng = np.random.default_rng(4)
        T = lp._array(rng.integers(-9, 10, size=(8, 15)).tolist(), num) / 7
        pivots = [(i % 7, j) for i, j in enumerate(rng.permutation(14)[:11])]

        def pivoted():
            tableau = lp._Tableau(T.copy())
            for i, j in pivots:
                c = tableau.column(j)
                assert c[i] != 0
                tableau.pivot(i, j, c)
            return read_back(tableau)

        in_place, product = paths(pivoted)
        if exact:
            assert in_place.tolist() == product.tolist()
        else:
            assert np.allclose(in_place, product, rtol=1e-12, atol=1e-12)

    @pytest.mark.usefixtures("product_form")
    def test_product_form_reads_the_eager_reduced_costs_and_rhs(self):
        # Where a column read crosses the reduced costs, or a row read the rhs,
        # it returns those arrays, so an entering column's reduced cost is
        # exactly 0 after its pivot, as it is in place.
        rng = np.random.default_rng(5)
        tableau = lp._Tableau(rng.normal(size=(6, 12)))
        for i, j in zip([0, 3, 1, 4, 2, 0, 3, 4], [2, 7, 9, 0, 5, 10, 1, 3]):
            tableau.pivot(i, j, tableau.column(j))
            assert tableau.rc[j] == 0
            assert [tableau.row(r)[-1] for r in range(5)] == tableau.rhs.tolist()
            assert [tableau.column(k)[-1] for k in range(11)] == tableau.rc.tolist()

    @pytest.mark.parametrize("exact", [False, True])
    def test_bland_run_matches_in_place(self, exact):
        num = Fraction if exact else float

        def run():
            tableau, basis = lp._Tableau(beale_tableau(num)), np.arange(4, 7)
            return lp._simplex(tableau, basis), basis.tolist(), read_back(tableau)

        (pivots, basis, in_place), (product_pivots, product_basis, product) = paths(run)
        assert (pivots, basis) == (product_pivots, product_basis) == (30, [2, 4, 0])
        if exact:
            assert in_place.tolist() == product.tolist()
        else:
            assert np.allclose(in_place, product, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("exact", [False, True])
    def test_solves_agree(self, seed, exact):
        # An exact solve makes the same choices on both paths; a float one
        # reaches the same value, and each certifies on its own.
        rng = np.random.default_rng(seed)
        ints = rng.integers(-3, 4, size=(rng.integers(2, 20), rng.integers(2, 20)))
        matrix = ints.tolist() if exact else ints.astype(float)
        in_place, product = paths(lambda: solve_matrix_game(matrix, exact=exact))
        if exact:
            assert in_place == product
        else:
            assert product.value == pytest.approx(in_place.value, rel=1e-12, abs=1e-12)
            for sol in (in_place, product):
                assert_solution_certifies(ints, sol, tol=1e-12)

    def test_warm_solves_agree(self):
        m = net_wide_matrix()
        start = solve_matrix_game(m[:30, :45]).basis
        in_place, product = paths(lambda: solve_matrix_game(m, start=start))
        assert not in_place.cold_restart and not product.cold_restart
        assert product.value == pytest.approx(in_place.value, rel=1e-12)
        assert_solution_certifies(m, product, tol=1e-9)
