"""Dense-tableau simplex for finite zero-sum matrix games.

A game with payoff matrix M (rows maximize) is solved through the classic
reduction: shift M positive, then one LP

    maximize 1.z   subject to   M z + s = 1,  z, s >= 0,

from the slack basis or a given basis, yields the column player's optimal
mixture ``z / sum(z)`` and the game value ``1 / sum(z)`` minus the shift.
The row player's mixture is that LP's dual, read from the same final
tableau: the reduced costs w of the slack columns satisfy ``w M >= 1`` with
``sum(w) = sum(z)``, so ``w / sum(w)`` is optimal for the rows (Dantzig,
1951). One tableau per game, so both mixtures come from one basis. There is
no general LP solver; Carathéodory decompositions and hull checks are posed
as matrix games (:func:`setgames.compact.caratheodory_decompose`).

The tableau T is the full (m+1, n+m+1) one: row i < m a constraint row with
its rhs last, row m the reduced costs and minus the objective value, column j
variable j (the n structural columns, then the m slacks). Entering variable
by Dantzig's rule (most negative reduced cost, smallest variable index on
ties); after a run of degenerate pivots the rule switches to Bland's, which
cannot cycle. Leaving row by the minimum-ratio test, ties broken toward the
smallest basis index. The simplex loops read T only a column, a row, the
reduced costs or the rhs at a time (:class:`_Tableau`), so one set of rules
serves two ways to pivot. A float tableau of more than :data:`INPLACE_CELLS`
cells pivots in product form (Dantzig and Orchard-Hays, 1954): T stays as
built, each pivot appends one eta, and only the entering column and the leaving
row are read, at a cost that grows with the etas, not with T. Any other tableau
pivots in place, by one rank-1 update; ``x - x*1`` is exactly 0 in floats, so
from the slack basis the basic columns stay exact unit vectors. A cold solve of
a game with more rows than columns pivots the tableau of -M^T, n + 1 rows
rather than m + 1, and reads M's mixtures, value and complementary basis from it.

A float solve may start from the final basis of an earlier solve of a
leading block of M, as constraint generation does each round. A start is its
members alone: every solve shifts by its own matrix's ``1 - min(M)``, since
the optimal basis (the support columns and the slacks of the rows that lose)
is the same under every shift. The solve rebuilds the tableau from the start
plus the new rows' slacks with one linear solve, and lets a dual simplex
repair the rows left infeasible before the primal simplex prices the new
columns; it too switches to Bland's rule after a run of degenerate pivots.
Should that basis be singular, or the dual simplex get stuck on round-off,
the solve starts over from the slack basis, its ``pivots`` add the stuck
attempt's, and it sets ``cold_restart``. Every warm start refactors M:
extending the last round's final tableau instead let a 2.7e-9 pivot in a
degenerate 3x4 round leave errors of 2e-3 in it, and 6 of 12 net-small
operations then failed certification. The refactor leaves round-off in the
basic columns, which the pivots that follow see.

One engine serves both arithmetics. The tableau is a float64 array, or, with
``exact=True``, an object array of ``fractions.Fraction`` pivoted under zero
tolerances. At zero tolerance the same rules are exact: Dantzig's argmin,
ratio ties only when equal, a pivot is degenerate when its rhs is 0. Exact
results are Fractions (vectors as lists of Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InvalidInputError, SolverFailureError
from .setfunctions import _check_ints, _check_reals

MAX_GAME_CELLS = 10_000_000
# Pivoting thresholds of a float tableau; a Fraction tableau uses zero.
FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-8
# Float tableaux of more cells pivot in product form (:func:`_product_form`). A
# measured crossover (2-vCPU Xeon, numpy 2.4 with OpenBLAS on one thread): cold
# solves of random 40x40 and 48x48 integer games (3,321 and 4,753 cells) took
# 1.07x and 1.01x as long in product form, 64x64 ones (8,385) 0.90x, and the LP
# calls of a net-small pass took the same time at any limit from 2,048 to 8,192.
INPLACE_CELLS = 4096


@dataclass(frozen=True)
class GameSolution:
    """Minimax solution (probability vectors over rows/columns), final basis, pivots,
    and whether a warm start fell back to the slack basis (``cold_restart``).
    The basis is a tuple of members, ``j >= 0`` column j and ``~i`` row i's slack."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    basis: tuple
    pivots: int
    cold_restart: bool = False


# ---------------------------------------------------------------------------
# tableau engine, float64 or Fraction


_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _array(values, num):
    """``values`` as a float64 array, or as an object array of Fractions."""
    if num is float:
        return np.asarray(values, dtype=float)
    return _to_fraction(np.asarray(values, dtype=object))


def _result(a):
    """Float results stay arrays; exact ones are lists of Fractions."""
    return a.tolist() if a.dtype == object else a


def _product_form(T):
    """Whether T pivots in product form: a float tableau of more than :data:`INPLACE_CELLS`
    cells. A Fraction tableau always pivots in place; an object matrix product runs no
    BLAS, and its fold costs as many Fraction operations as the in-place pivots it
    replaces, so exact cold solves from 12x16 to 56x56 took 1.2x to 1.6x as long in
    product form (on the host above)."""
    return T.size > INPLACE_CELLS and T.dtype != object


class _Tableau:
    """The full tableau T as the simplex loops read it: :meth:`column`, :meth:`row`,
    and ``rc`` and ``rhs``, which every :meth:`pivot` updates in place.

    Outside :func:`_product_form` T pivots in place (``p = T[i] / c[i]``,
    ``T -= outer(c, p)``, ``T[i] = p``) and every read is a view. In it T stays as
    built: each pivot appends the eta ``d = c - e_i`` and p, the current tableau being
    T minus their outer products, and ``rc`` and ``rhs`` (with the objective) are
    updated eagerly and win over the etas where a read crosses them. Once the etas
    hold as many numbers as T, one matrix product folds them into it. Neither path
    depends on the arithmetic; an object (Fraction) product is exact.
    """

    def __init__(self, T):
        self._T, self._etas = T, 0
        self._last, self.rc = T[:, -1], T[-1, :-1]
        self._d = self._p = None
        if _product_form(T):
            self._last, self.rc = self._last.copy(), self.rc.copy()
            fold = -(-T.size // sum(T.shape))  # etas of sum(T.shape) numbers each
            self._d = np.empty((fold, T.shape[0]), T.dtype)
            self._p = np.empty((fold, T.shape[1]), T.dtype)
        self.rhs = self._last[:-1]

    @property
    def objective(self):
        return -self._last[-1]

    def column(self, j):
        c = self._T[:, j]
        if self._d is not None:
            c = c - self._p[:self._etas, j] @ self._d[:self._etas]
            c[-1] = self.rc[j]
        return c

    def row(self, i):
        r = self._T[i]
        if self._d is not None:
            r = r - self._d[:self._etas, i] @ self._p[:self._etas]
            r[-1] = self._last[i]
        return r

    def pivot(self, i, j, c):
        """Column j, read as c by :meth:`column`, enters at row i."""
        if self._d is None:
            p = self._T[i] / c[i]
            self._T -= np.multiply.outer(c, p)
            self._T[i] = p
            return
        r, k = self.row(i), self._etas
        r[j] = c[i]  # p[j] exactly 1, as in place, so rc[j] comes out 0
        p = r / c[i]
        self._d[k], self._p[k] = c, p
        self._d[k, i] -= 1
        self.rc -= c[-1] * p[:-1]
        self._last -= c * p[-1]
        self._last[i] = p[-1]
        self._etas += 1
        if self._etas == len(self._d):
            self._T -= self._d.T @ self._p
            self._etas = 0


def _simplex(T, basis):
    """Pivot :class:`_Tableau` T to optimality; returns the pivot count. The LP is
    bounded, so a column with no row to leave is a numerical failure and raises
    :class:`SolverFailureError`."""
    rc, rhs = T.rc, T.rhs  # every pivot writes them in place
    m = rhs.size
    feasibility, optimality = (0, 0) if rc.dtype == object else (FEASIBILITY_TOL, OPTIMALITY_TOL)
    bland, degenerate_run = False, 0
    max_iter = 50 * (m + rc.size) + 1000  # rows plus variables
    for pivots in range(max_iter):
        if bland:
            neg = (rc < -optimality).nonzero()[0]
            if neg.size == 0:
                return pivots
            col = neg[0]
        else:
            col = rc.argmin()
            if rc[col] >= -optimality:
                return pivots
        c = T.column(col)
        colvals = c[:m]
        rows = (colvals > feasibility).nonzero()[0]
        if rows.size == 0:
            raise SolverFailureError(
                "simplex found no leaving row in matrix game",
                diagnostics={"column": int(col), "objective": float(T.objective), "bland": bland},
            )
        row = rows[0]
        if rows.size > 1:
            ratios = rhs[rows] / colvals[rows]
            best = ratios.min()
            near = rows[ratios <= best + feasibility * (1 + abs(best))]
            row = near[basis[near].argmin()]
        if rhs[row] <= feasibility:
            degenerate_run += 1
            if degenerate_run > 20 + 2 * m:
                bland = True
        else:
            degenerate_run = 0
        basis[row] = col
        T.pivot(row, col, c)
    raise SolverFailureError(
        "simplex did not terminate in matrix game",
        diagnostics={"iterations": max_iter, "objective": float(T.objective), "bland": bland},
    )


def _dual_simplex(T, basis):
    """Pivot a float :class:`_Tableau` T to a feasible rhs; returns the pivot count. The
    most infeasible row leaves; only columns of feasible reduced cost enter, the largest
    pivot among near ties, then the smallest variable index. After a run of degenerate
    pivots (ratio 0) the rule switches to Bland's, which cannot cycle: the infeasible
    row of the smallest basic variable leaves and the smallest variable among the ratio
    ties enters."""
    rc, rhs = T.rc, T.rhs
    m, limit = rhs.size, 50 * (rc.size + 1) + 1000
    bland, degenerate_run = False, 0
    for pivots in range(limit + 1):
        row = rhs.argmin()
        if rhs[row] >= -FEASIBILITY_TOL:
            return pivots
        if bland:
            rows = (rhs < -FEASIBILITY_TOL).nonzero()[0]
            row = rows[basis[rows].argmin()]
        a = T.row(row)[:-1]
        cols = ((a < -FEASIBILITY_TOL) & (rc >= -OPTIMALITY_TOL)).nonzero()[0]
        if cols.size == 0 or pivots == limit:
            break
        ratios = np.maximum(rc[cols], 0) / -a[cols]
        best = ratios.min()
        near = cols[ratios <= best + FEASIBILITY_TOL * (1 + abs(best))]
        col = near[0] if bland else near[a[near].argmin()]
        degenerate_run = degenerate_run + 1 if best <= OPTIMALITY_TOL else 0
        bland = bland or degenerate_run > 20 + 2 * m
        basis[row] = col
        T.pivot(row, col, T.column(col))
    raise SolverFailureError("dual simplex stalled",
                             diagnostics={"pivots": pivots, "row": int(row)})


def _complement(basis, m, n):
    """M's basis complementary to ``basis``, an optimal one of -M^T: column j is basic
    where -M^T's row j keeps no slack, row i's slack where -M^T's column i is not basic.
    Row i holds its own slack or, in order, the next of those columns."""
    members = set(basis)
    columns = (j for j in range(n) if ~j not in members)
    return tuple(next(columns) if i in members else ~i for i in range(m))


def solve_matrix_game(matrix, *, exact: bool = False, start: tuple | None = None) -> GameSolution:
    """Optimal mixed strategies of a finite zero-sum game (rows maximize ``matrix``).

    Deterministic for a given matrix and ``start``, the ``basis`` of an earlier
    float solve of a leading block. In exact mode the matrix entries are taken
    as rationals and the result is exact: a Fraction value and lists of
    Fractions for the strategies. Entries that are not finite reals (a ``bool``
    is not one) raise :class:`InvalidInputError`, and so, in a float solve, does
    a range ``max - min`` past the float range, which the shifted tableau would overflow.
    """
    values = _check_reals(matrix, "payoff matrix entries")
    if values.ndim != 2 or values.size == 0:
        raise InvalidInputError("payoff matrix must be two-dimensional and non-empty")
    if values.size > MAX_GAME_CELLS:
        raise CapacityError(f"payoff matrix with {values.size} cells exceeds the guard")
    num = Fraction if exact else float
    values = _array(matrix, num) if exact else values
    m, n = values.shape
    if not (exact or np.isfinite(float(values.max()) - float(values.min()))):
        raise InvalidInputError("payoff matrix range max - min is past the float range")
    if start is not None:
        if exact:
            raise InvalidInputError("start basis: float only")
        members = _check_ints(start, "start basis members", -m, n - 1)
        if members.size > m or len(set(members.tolist())) < members.size:
            raise InvalidInputError("start basis: no repeats, at most one member per row")
    if start is None and m > n:  # -M^T's tableau has n + 1 rows, not m + 1
        dual = solve_matrix_game(-values.T, exact=exact)
        return GameSolution(-dual.value, dual.col_strategy, dual.row_strategy,
                            _complement(dual.basis, m, n), dual.pivots)
    shift = 1 - num(values.min())
    # max 1.z : (M + shift) z <= 1  ->  min -1.z from the slack identity basis
    T = _array(np.zeros((m + 1, n + m + 1)), num)
    T[:m, :n] = values + shift
    T[:m, n:-1] = _array(np.eye(m), num)
    T[:m, -1] = num(1)
    T[m, :n] = num(-1)
    basis, pivots = np.arange(n, n + m), 0
    if start is None:
        tableau = _Tableau(T)
    else:  # rebuild T from the start basis; its new rows keep their slacks
        basis[:members.size] = np.where(members >= 0, members, n + ~members)
        try:
            T[:m] = np.linalg.solve(T[:m, basis], T[:m])
            T[m] -= T[m, basis] @ T[:m]
            tableau = _Tableau(T)
            pivots = _dual_simplex(tableau, basis)
        except (np.linalg.LinAlgError, SolverFailureError) as error:  # singular or stuck: go cold
            cold, stuck = solve_matrix_game(matrix), getattr(error, "diagnostics", {})
            return replace(cold, pivots=cold.pivots + stuck.get("pivots", 0), cold_restart=True)
    pivots += _simplex(tableau, basis)
    z = _array(np.zeros(n), num)
    structural = basis < n
    z[basis[structural]] = tableau.rhs[structural]
    total = num(z.sum())
    if total <= 0:  # pragma: no cover - impossible for a positive matrix
        raise SolverFailureError("matrix-game LP returned a zero mixture")
    rc = tableau.rc
    rc[basis] = num(0)  # a refactored or product-form basic column may keep round-off here
    # Slack reduced costs are the dual; a float one may sit just below 0.
    w = rc[n:] if exact else np.maximum(rc[n:], 0.0)
    return GameSolution(1 / total - shift, _result(w / num(w.sum())), _result(z / total),
                        tuple(np.where(structural, basis, n + ~basis).tolist()), pivots)
