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

Row i < m of the tableau T holds a constraint row with its rhs last, row m
the reduced costs and minus the objective value. A cold T holds only the n
nonbasic columns, slot j holding variable ``labels[j]``, as in the
dictionary form of the simplex (Chvátal, 1983): ``x - x*1`` is exactly 0, so
the full (m+1, n+m+1) tableau's basic columns are exact unit vectors with
zero reduced cost, and a pivot writes the leaving variable's unit column
into the entering one's slot before the update; every held entry keeps the
full tableau's bits. Entering variable by Dantzig's rule (most negative
reduced cost, smallest variable index on ties); after a run of degenerate
pivots the rule switches to Bland's, which cannot cycle. Leaving row by the
minimum-ratio test, ties broken toward the smallest basis index. A pivot
costs one rank-1 update of T; on the small restricted games of a double
oracle its price is a handful of numpy calls, not arithmetic.

A float solve may start from the final basis of an earlier solve of a
leading block of M, as constraint generation does each round. A start is its
members alone: every solve shifts by its own matrix's ``1 - min(M)``, since
the optimal basis (the support columns and the slacks of the rows that lose)
is the same under every shift. The solve rebuilds the tableau from the start
plus the new rows' slacks with one linear solve, and lets a dual simplex
repair the rows left infeasible before the primal simplex prices the new
columns. Should that basis be singular, or the dual simplex get stuck on
round-off, the solve starts over from the slack basis. Every warm start
refactors M: extending the last round's final tableau instead let a 2.7e-9
pivot in a degenerate 3x4 round leave errors of 2e-3 in it, and 6 of 12
net-small operations then failed certification. A warm T keeps every column,
slot j holding variable j: the refactor leaves round-off in the basic columns
(``solve(B, B) != I`` in all 418 warm solves of a net-small pass, nonzero
basic reduced costs in 342), which the pivots that follow see.

One engine serves both arithmetics. The tableau is a float64 array, or, with
``exact=True``, an object array of ``fractions.Fraction`` pivoted under zero
tolerances. At zero tolerance the same rules are exact: Dantzig's argmin,
ratio ties only when equal, a pivot is degenerate when its rhs is 0. Exact
results are Fractions (vectors as lists of Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InvalidInputError, SolverFailureError

MAX_GAME_CELLS = 10_000_000
# Pivoting thresholds of a float tableau; a Fraction tableau uses zero.
FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-8


@dataclass(frozen=True)
class GameSolution:
    """Minimax solution (probability vectors over rows/columns), final basis, pivots.
    The basis is a tuple of members, ``j >= 0`` column j and ``~i`` row i's slack."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    basis: tuple
    pivots: int


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


def _pivot(T, basis, labels, row, col):
    """Slot col enters, ``basis[row]`` leaves: one rank-1 update. Column col of a full T
    (``labels`` None) comes out a unit vector; a cold T holds the leaver's column there."""
    c = T[:, col]
    if labels is None:
        basis[row] = col
    else:  # the leaving variable's unit column takes the slot
        c, T[:, col], T[row, col] = c.copy(), 0, 1
        basis[row], labels[col] = labels[col], basis[row]
    pr = T[row] / c[row]
    T -= np.multiply.outer(c, pr)
    T[row] = pr


def _simplex(T, basis, labels=None):
    """Pivot T to optimality; returns the pivot count. ``labels`` names each slot's
    variable in a cold T (None: slot j holds variable j). The LP is bounded, so a column
    with no row to leave is a numerical failure and raises :class:`SolverFailureError`."""
    m, ncols = T.shape[0] - 1, T.shape[1] - 1
    feasibility, optimality = (0, 0) if T.dtype == object else (FEASIBILITY_TOL, OPTIMALITY_TOL)
    rc, rhs = T[m, :ncols], T[:m, -1]  # views: every pivot writes T in place
    bland, degenerate_run = False, 0
    max_iter = 50 * (m + ncols + (0 if labels is None else m)) + 1000  # rows plus variables
    for pivots in range(max_iter):
        if bland:
            neg = (rc < -optimality).nonzero()[0]
            if neg.size == 0:
                return pivots
            col = neg[0] if labels is None else neg[labels[neg].argmin()]
        else:
            col = rc.argmin()
            if rc[col] >= -optimality:
                return pivots
            # Ties enter by variable index; argmin from either end differs only on a tie.
            if labels is not None and rc[::-1].argmin() != ncols - 1 - col:
                ties = (rc == rc[col]).nonzero()[0]
                col = ties[labels[ties].argmin()]
        colvals = T[:m, col]
        rows = (colvals > feasibility).nonzero()[0]
        if rows.size == 0:
            raise SolverFailureError(
                "simplex found no leaving row in matrix game",
                diagnostics={"column": int(col if labels is None else labels[col]),
                             "objective": float(-T[m, -1]), "bland": bland},
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
        _pivot(T, basis, labels, row, col)
    raise SolverFailureError(
        "simplex did not terminate in matrix game",
        diagnostics={"iterations": max_iter, "objective": float(-T[m, -1]), "bland": bland},
    )


def _dual_simplex(T, basis):
    """Pivot a full float T to a feasible rhs; returns the pivot count. Only
    columns of feasible reduced cost enter, the largest pivot among near ties,
    then the smallest variable index (slot = variable in a full tableau)."""
    m = T.shape[0] - 1
    rc, rhs = T[m, :-1], T[:m, -1]
    for pivots in range(50 * T.shape[1] + 1000):
        row = rhs.argmin()
        if rhs[row] >= -FEASIBILITY_TOL:
            return pivots
        a = T[row, :-1]
        cols = ((a < -FEASIBILITY_TOL) & (rc >= -OPTIMALITY_TOL)).nonzero()[0]
        if cols.size == 0:
            break
        ratios = np.maximum(rc[cols], 0) / -a[cols]
        best = ratios.min()
        near = cols[ratios <= best + FEASIBILITY_TOL * (1 + abs(best))]
        _pivot(T, basis, None, row, near[a[near].argmin()])
    raise SolverFailureError("dual simplex stalled",
                             diagnostics={"pivots": pivots, "row": int(row)})


def solve_matrix_game(matrix, *, exact: bool = False, start: tuple | None = None) -> GameSolution:
    """Optimal mixed strategies of a finite zero-sum game (rows maximize ``matrix``).

    Deterministic for a given matrix and ``start``, the ``basis`` of an earlier
    float solve of a leading block. In exact mode the matrix entries are taken
    as rationals and the result is exact: a Fraction value and lists of
    Fractions for the strategies.
    """
    values = np.asarray(matrix, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise InvalidInputError("payoff matrix must be two-dimensional and non-empty")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("payoff matrix contains non-finite entries")
    if values.size > MAX_GAME_CELLS:
        raise CapacityError(f"payoff matrix with {values.size} cells exceeds the guard")
    num = Fraction if exact else float
    values = _array(matrix, num) if exact else values
    m, n = values.shape
    warm = start is not None
    if warm:
        members = np.array(start, dtype=np.intp)
        if (exact or members.size > m or len(set(start)) < members.size
                or ((members < -m) | (members >= n)).any()):
            raise InvalidInputError("start basis: float only, no repeats, inside the matrix")
    shift = 1 - num(values.min())
    # max 1.z : (M + shift) z <= 1  ->  min -1.z from the slack identity basis
    T = _array(np.zeros((m + 1, n + 1 + (m if warm else 0))), num)
    T[:m, :n] = values + shift
    T[:m, -1] = num(1)
    T[m, :n] = num(-1)
    basis = np.arange(n, n + m)
    labels, pivots = (None if warm else np.arange(n)), 0
    if warm:  # rebuild T from the start basis; its new rows keep their slacks
        T[:m, n:-1] = np.eye(m)
        basis[:members.size] = np.where(members >= 0, members, n + ~members)
        try:
            T[:m] = np.linalg.solve(T[:m, basis], T[:m])
            T[m] -= T[m, basis] @ T[:m]
            pivots = _dual_simplex(T, basis)
        except (np.linalg.LinAlgError, SolverFailureError):  # singular or stuck: start cold
            return solve_matrix_game(matrix)
    pivots += _simplex(T, basis, labels)
    z = _array(np.zeros(n), num)
    structural = basis < n
    z[basis[structural]] = T[:m, -1][structural]
    total = num(z.sum())
    if total <= 0:  # pragma: no cover - impossible for a positive matrix
        raise SolverFailureError("matrix-game LP returned a zero mixture")
    rc = T[m, :-1] if labels is None else _array(np.zeros(n + m), num)
    if labels is not None:  # a variable without a column is basic, at reduced cost 0
        rc[labels] = T[m, :n]
    # Slack reduced costs are the dual; a float one may sit just below 0.
    w = rc[n:] if exact else np.maximum(rc[n:], 0.0)
    return GameSolution(1 / total - shift, _result(w / num(w.sum())), _result(z / total),
                        tuple(np.where(structural, basis, n + ~basis).tolist()), pivots)
