"""Dense-tableau simplex: finite zero-sum matrix games and small LPs.

Everything here solves the standard form

    minimize c . x   subject to   A x = b,  x >= 0,  b >= 0,

with a full tableau T of shape (m+1, ncols+1): row i < m holds the current
constraint row and its rhs in the last column, row m holds the reduced costs
and minus the current objective value. Entering variable by Dantzig's rule
(most negative reduced cost, first index on ties); after a run of degenerate
pivots the rule switches to Bland's, which cannot cycle. Leaving row by the
minimum-ratio test, ties broken toward the smallest basis index.

Matrix games are solved through the classic reduction: shift the matrix
positive, then ``max 1.z : M z <= 1, z >= 0`` yields the column player's
optimal mixture ``z / sum(z)`` and game value ``1 / sum(z)`` minus the shift.
The row player is the column player of the negated transpose, so one routine
serves both sides and the two optima double-check each other.

One engine serves both arithmetics. The tableau is a float64 array, or,
with ``exact=True`` on a public entry point, an object array of
``fractions.Fraction`` pivoted under zero tolerances. At zero tolerance the
same rules are exact: Dantzig's argmin, ratio ties only when equal, a pivot
is degenerate when its rhs is 0. Exact results are Fractions (vectors as
lists of Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InvalidInputError, SolverFailureError

MAX_GAME_CELLS = 10_000_000
MAX_LP_VARS = 10_000
MAX_LP_CONSTRAINTS = 100_000
# Pivoting thresholds of a float tableau; a Fraction tableau uses zero.
FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-8


@dataclass(frozen=True)
class MatrixGame:
    """Finite zero-sum game; the row player maximizes ``matrix``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise InvalidInputError("payoff matrix must be two-dimensional and non-empty")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("payoff matrix contains non-finite entries")
        if m.size > MAX_GAME_CELLS:
            raise CapacityError(f"payoff matrix with {m.size} cells exceeds the guard")


@dataclass(frozen=True)
class GameSolution:
    """Minimax solution; strategies are probability vectors over rows/columns."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


@dataclass(frozen=True)
class LPResult:
    """Outcome of a general LP solve.

    ``status`` is one of ``optimal``, ``infeasible``, ``unbounded``. For an
    infeasible system built from equality rows over nonnegative variables,
    ``certificate`` is a row-multiplier vector y with y.A <= 0 componentwise
    and y.b > 0 (a Farkas witness in the original row order and signs).
    """

    status: str
    x: np.ndarray | list | None = None
    objective_value: float | None = None
    certificate: np.ndarray | list | None = None


# ---------------------------------------------------------------------------
# tableau engine, float64 or Fraction


_to_fraction = np.frompyfunc(Fraction, 1, 1)


def _array(values, num):
    """``values`` as a float64 array, or as an object array of Fractions."""
    if num is float:
        return np.asarray(values, dtype=float)
    return _to_fraction(np.asarray(values, dtype=object))


def _num(a):
    """Scalar type of an LP array: Fraction for an object array, else float."""
    return Fraction if a.dtype == object else float


def _tolerances(a):
    """Feasibility and optimality thresholds for the arithmetic of ``a``."""
    return (Fraction(0), Fraction(0)) if a.dtype == object else (FEASIBILITY_TOL, OPTIMALITY_TOL)


def _result(a):
    """Float results stay arrays; exact ones are lists of Fractions."""
    return a.tolist() if a.dtype == object else a


def _pivot(T, row, col):
    num = _num(T)
    T[row] = T[row] / T[row, col]
    colv = T[:, col].copy()
    colv[row] = num(0)
    T -= np.outer(colv, T[row])
    T[:, col] = num(0)
    T[row, col] = num(1)


def _simplex(T, basis, ncols, context):
    """Run pivots until optimal or unbounded. T has shape (m+1, total+1)."""
    m = T.shape[0] - 1
    feasibility, optimality = _tolerances(T)
    bland = False
    degenerate_run = 0
    max_iter = 50 * (m + ncols) + 1000
    for _ in range(max_iter):
        rc = T[m, :ncols]
        if bland:
            neg = np.nonzero(rc < -optimality)[0]
            if neg.size == 0:
                return "optimal"
            col = int(neg[0])
        else:
            col = int(np.argmin(rc))
            if rc[col] >= -optimality:
                return "optimal"
        colvals = T[:m, col]
        rows = np.nonzero(colvals > feasibility)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / colvals[rows]
        best = ratios.min()
        near = rows[ratios <= best + feasibility * (1 + abs(best))]
        row = int(min(near, key=lambda r: basis[r]))
        if T[row, -1] <= feasibility:
            degenerate_run += 1
            if degenerate_run > 20 + 2 * m:
                bland = True
        else:
            degenerate_run = 0
        _pivot(T, row, col)
        basis[row] = col
    raise SolverFailureError(
        f"simplex did not terminate in {context}",
        diagnostics={"iterations": max_iter, "objective": float(-T[m, -1]), "bland": bland},
    )


def _price_out(T, basis, costs):
    """Recompute the reduced-cost row for the given costs and current basis."""
    m = T.shape[0] - 1
    T[m, :] = _num(T)(0)
    T[m, : costs.size] = costs
    for i, b in enumerate(basis):
        if b < costs.size and costs[b] != 0:
            T[m, :] -= costs[b] * T[i, :]


def _solve_standard(c, A, b, *, basis=None, context="lp"):
    """Minimize c.x over Ax = b, x >= 0 with b >= 0, in the arithmetic of ``A``.

    Returns (status, x, objective, farkas_y). ``basis`` may name an initial
    identity basis; otherwise phase 1 with artificial variables runs first.
    ``farkas_y`` is set only when status is "infeasible".
    """
    num = _num(A)
    feasibility, _ = _tolerances(A)
    m, ncols = A.shape

    if basis is None:
        total = ncols + m
        T = _array(np.zeros((m + 1, total + 1)), num)
        T[:m, :ncols] = A
        T[:m, ncols : ncols + m] = _array(np.eye(m), num)
        T[:m, -1] = b
        basis = list(range(ncols, ncols + m))
        phase1_cost = _array(np.concatenate([np.zeros(ncols), np.ones(m)]), num)
        _price_out(T, basis, phase1_cost)
        status = _simplex(T, basis, total, context + " phase 1")
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise SolverFailureError(f"phase 1 reported {status} in {context}")
        residual = -T[m, -1]
        scale = 1.0 + float(np.max(np.abs(b))) if b.size else 1.0
        if residual > feasibility * scale:
            return "infeasible", None, None, 1 - T[m, ncols : ncols + m]
        # Pivot leftover artificial variables out of the basis; rows that
        # cannot pivot are linearly dependent and get dropped.
        drop = []
        for i in range(m):
            if basis[i] >= ncols:
                nonzero = np.nonzero(np.abs(T[i, :ncols]) > feasibility)[0]
                if nonzero.size:
                    basis[i] = int(nonzero[0])
                    _pivot(T, i, basis[i])
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = np.vstack([T[keep], T[m : m + 1]])
            basis = [basis[i] for i in keep]
            m = len(keep)
        T = np.hstack([T[:, :ncols], T[:, -1:]])
    else:
        T = _array(np.zeros((m + 1, ncols + 1)), num)
        T[:m, :ncols] = A
        T[:m, -1] = b
        basis = list(basis)

    _price_out(T, basis, c)
    status = _simplex(T, basis, ncols, context + " phase 2")
    if status == "unbounded":
        return "unbounded", None, None, None
    x = _array(np.zeros(ncols), num)
    for i, bvar in enumerate(basis):
        if bvar < ncols:
            x[bvar] = T[i, -1]
    return "optimal", x, num(c @ x), None


# ---------------------------------------------------------------------------
# matrix games


def _one_side(matrix):
    """Column player's optimal mixture and the game value for ``matrix``."""
    num = _num(matrix)
    m, n = matrix.shape
    shift = 1 - num(matrix.min())
    shifted = matrix + shift
    # max 1.z : shifted z <= 1  ->  min -1.z with slack identity basis
    A = np.hstack([shifted, _array(np.eye(m), num)])
    b = _array(np.ones(m), num)
    c = _array(np.concatenate([-np.ones(n), np.zeros(m)]), num)
    status, x, _, _ = _solve_standard(
        c, A, b, basis=list(range(n, n + m)), context="matrix game"
    )
    if status != "optimal":  # pragma: no cover - bounded by construction
        raise SolverFailureError(f"matrix-game LP reported {status}")
    z = x[:n]
    total = num(z.sum())
    if total <= 0:  # pragma: no cover - impossible for a positive matrix
        raise SolverFailureError("matrix-game LP returned a zero mixture")
    return 1 / total - shift, z / total


def solve_matrix_game(game: MatrixGame | np.ndarray, *, exact: bool = False) -> GameSolution:
    """Optimal mixed strategies of a finite zero-sum game (rows maximize).

    Deterministic for a given matrix: pivot order is fixed, so repeated calls
    return identical strategies. In exact mode the matrix entries are taken
    as rationals and the result is exact: a Fraction value and lists of
    Fractions for the strategies.
    """
    matrix = game.matrix if isinstance(game, MatrixGame) else game
    if not isinstance(game, MatrixGame):
        MatrixGame(np.asarray(matrix, dtype=float))  # run the guards
    matrix = _array(matrix, Fraction if exact else float)
    value, col_strategy = _one_side(matrix)
    _, row_strategy = _one_side(-matrix.T)
    return GameSolution(value=value, row_strategy=_result(row_strategy),
                        col_strategy=_result(col_strategy))


# ---------------------------------------------------------------------------
# general small LPs


def feasibility_lp(objective, constraints, *, n_vars: int, maximize: bool = False,
                   nonneg: bool = False, exact: bool = False) -> LPResult:
    """Optimize a linear functional over linear constraints.

    Args:
        objective: length ``n_vars`` cost vector (may be all zeros for a pure
            feasibility check).
        constraints: iterables of ``(coeffs, sense, rhs)`` with sense one of
            ``"<="``, ``">="``, ``"=="``.
        n_vars: number of decision variables.
        maximize: flip the optimization direction.
        nonneg: restrict variables to x >= 0 instead of free.

    Returns an :class:`LPResult`; the solution point is always a basic one,
    so at most ``len(constraints)`` coordinates are nonzero when ``nonneg``.
    """
    constraints = list(constraints)
    if n_vars > MAX_LP_VARS or len(constraints) > MAX_LP_CONSTRAINTS:
        raise CapacityError("LP exceeds the size guard")
    num = Fraction if exact else float

    width = n_vars if nonneg else 2 * n_vars
    n_slack = sum(1 for _, sense, _ in constraints if sense in ("<=", ">="))
    A = _array(np.zeros((len(constraints), width + n_slack)), num)
    b = _array(np.zeros(len(constraints)), num)
    row_sign = _array(np.ones(len(constraints)), num)
    slack_at = 0
    identity_ok = []
    for i, (coeffs, sense, rhs) in enumerate(constraints):
        coeffs = _array(coeffs, num)
        if coeffs.size != n_vars:
            raise InvalidInputError(f"constraint {i} has {coeffs.size} coefficients, expected {n_vars}")
        if sense not in ("<=", ">=", "=="):
            raise InvalidInputError(f"unknown constraint sense {sense!r}")
        row = coeffs if nonneg else np.concatenate([coeffs, -coeffs])
        sign = num(-1) if rhs < 0 else num(1)
        A[i, :width] = sign * row
        b[i] = sign * num(rhs)
        row_sign[i] = sign
        if sense != "==":
            slack_col = width + slack_at
            slack_at += 1
            A[i, slack_col] = sign * num(1 if sense == "<=" else -1)
            if A[i, slack_col] > 0:
                identity_ok.append((i, slack_col))

    c = _array(np.zeros(A.shape[1]), num)
    obj = _array(objective, num)
    sgn = num(-1) if maximize else num(1)
    c[:n_vars] = sgn * obj
    if not nonneg:
        c[n_vars:width] = -sgn * obj

    basis = None
    if len(identity_ok) == len(constraints):
        basis = [col for _, col in sorted(identity_ok)]
    status, x, objective_value, farkas = _solve_standard(
        c, A, b, basis=basis, context="feasibility lp"
    )
    if status == "infeasible":
        return LPResult(status="infeasible", certificate=_result(farkas * row_sign))
    if status == "unbounded":
        return LPResult(status="unbounded")
    point = x[:n_vars] if nonneg else x[:n_vars] - x[n_vars:width]
    return LPResult(status="optimal", x=_result(point), objective_value=num(sgn * objective_value))
