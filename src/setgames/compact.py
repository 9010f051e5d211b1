"""Compact coordinates: support set, coordinate map, bilinear payoff, vertices.

The dense normal form has one row/column per subset, but its payoff matrix
factors through far fewer coordinates. Index a coordinate by each subset U in
the support set S and map strategies to 0/1 vectors:

    attacker A  ->  coords[U] = 1 iff U is contained in A
    defender D  ->  coords[U] = 1 iff U and D are disjoint

:func:`coordinates` maps a batch of pure strategies of one side in a single
broadcast. The two maps differ only by a complement: attack A and defense
``full ^ A`` have the same coordinates. Under a mixed strategy these
coordinates become the marginals
``Pr[attack covers U]`` and ``Pr[no defense touches U]``, and the expected
zero-sum payoff is the bilinear form

    sum_U b[U] pa[U] qd[U] - sum_U ca[U] pa[U] + sum_U cd[U] qd[U]

where b and ca are the interaction coefficients of the benefit and attacker
cost, truncated at c, and cd makes ``sum_U cd[U] 1{U disjoint from D}`` equal
the defender cost of every defense D of at most k targets. The conjugate
identity (Grabisch, Marichal and Roubens, Math. OR 2000) gives
``cd[U] = (-1)^|U| sum over V above U of m[V]`` from the cost's coefficients
m truncated at k, so cd too vanishes above k. :func:`build_compact_game`
runs b and ca (capped at c) as two rows of one transform, then m and its
superset sums; the support is a boolean mask and the vectors one take.
:func:`payoff_block` evaluates the form between stacked coordinate rows.

S always contains the empty set and all singletons. The singleton floor keeps
the defender map injective, so a defender vertex maps back to its pure
strategy by reading the n singleton coordinates (zero coordinate = defended).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidStrategyError,
    InvalidVertexError,
    NotInHullError,
)
from .games import GameSpec
from .lp import solve_matrix_game
from .oracles import PreparedOracle, _coordinates, partition_support, prepare
from .setfunctions import (SPARSITY_SCALE, GroundSet, _butterfly, _check_ints, _check_reals,
                           _layout, _transform)

HULL_TOL = 1e-7


@dataclass(frozen=True)
class SupportSet:
    """Ordered coordinate index: member masks ascending, singleton positions noted."""

    n: int
    members: tuple[int, ...]
    singleton_positions: tuple[int, ...] = field(repr=False, compare=False)
    member_array: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_members(cls, n: int, masks) -> "SupportSet":
        """The support of ``masks``, the empty set and the singletons; a mask that is not
        an integer (``bool`` included) in ``[0, 2^n)`` raises :class:`InvalidInputError`."""
        ground = GroundSet(n)
        masks = _check_ints(masks, "support members", 0, ground.size - 1).tolist()
        members = tuple(sorted({*masks, 0, *(1 << i for i in range(ground.n))}))
        singles = tuple(bisect_left(members, 1 << i) for i in range(ground.n))
        array = np.array(members, dtype=np.int64)
        array.flags.writeable = False
        return cls(n=ground.n, members=members, singleton_positions=singles, member_array=array)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The nonempty members grouped by :func:`~setgames.oracles.partition_support`,
        computed on first use and then shared by split oracle tables and callers."""
        return tuple(map(tuple, partition_support(self.member_array)))


@dataclass(frozen=True)
class CompactGame:
    """The three coefficient vectors of the bilinear payoff over a support."""

    support: SupportSet
    benefit_vec: np.ndarray
    attacker_cost_vec: np.ndarray
    defender_cost_vec: np.ndarray
    attacker_cap: int
    defender_cap: int

    @classmethod
    def from_coefficients(cls, spec: GameSpec, masks: np.ndarray, vectors) -> "CompactGame":
        """The game of a :func:`_coefficient_table`: the masks where a vector is nonzero, the
        empty set and the singletons; a vector per array, as BLAS rounds by alignment."""
        keep = (vectors != 0).any(axis=0) | (np.bitwise_count(masks) <= 1)
        return cls(SupportSet.from_members(spec.n, masks[keep]),
                   *map(np.copy, vectors[:, keep]), spec.attacker_cap, spec.defender_cap)

    @cached_property
    def oracle(self) -> PreparedOracle:
        """Both players' read-only oracle tables, from :func:`~setgames.oracles.prepare` on
        first use: shared with the last game prepared on an equal support and caps."""
        return prepare(self.support, self.attacker_cap, self.defender_cap)


def _coefficient_table(spec: GameSpec, exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Rows b, ca and cd (float64, or exact Fractions) over the ascending masks up to
    the widest cap of a nonzero row, at least 1; each row cut at its own cutoff."""
    n, parts = spec.n, []
    for functions, cap, rows in (((spec.benefit, spec.attacker_cost), spec.attacker_cap, slice(2)),
                                 ((spec.defender_cost,), spec.defender_cap, slice(2, 3))):
        sums = _transform(spec.ground, [(f.entries, f.default) for f in functions], cap,
                          signed=True, exact=exact)
        if sums is None:
            continue
        masks, table = sums
        tol = np.array([[0 if exact else SPARSITY_SCALE * f.max_abs()] for f in functions])
        table[abs(table) < tol] = 0
        if rows.start:  # cd: the superset sums of m, signed by the parity of the mask
            _butterfly(table, _layout(n, cap)[1], signed=False, superset=True)
            table[abs(table) < tol] = 0
            odd = np.bitwise_count(np.arange(1 << n) if masks is None else masks) & 1 == 1
            np.negative(table, out=table, where=odd & (table != 0))  # zeros stay +0.0
        parts.append((cap, rows, masks, table))
    host = _layout(n, max([1] + [cap for cap, *_ in parts]))[0]
    host = np.arange(1 << n) if host is None else host
    table = np.zeros((3, host.size), dtype=object if exact else float)
    for _, rows, masks, sums in parts:
        table[rows, slice(None) if sums.shape[1] == host.size else host.searchsorted(masks)] = sums
    return host, table


def build_compact_game(spec: GameSpec, *, exact: bool = False) -> CompactGame:
    """Compute the support set and coefficient vectors of ``spec``, with ``exact`` in
    Fractions: an exact game is for listing coefficients, the solver takes float games."""
    return CompactGame.from_coefficients(spec, *_coefficient_table(spec, exact))


def coordinates(masks, support: SupportSet, side: str) -> np.ndarray:
    """0/1 coordinates of pure strategies, one row per mask: ``1{U subset of A}``
    for each attack A when ``side`` is ``"attacker"``, ``1{U disjoint from D}``
    for each defense D when it is ``"defender"``.

    Raises :class:`InvalidStrategyError` for a mask that is not an integer
    (``bool`` included) in ``[0, 2^n)``; the caps are not checked here.
    """
    if side not in ("attacker", "defender"):
        raise InvalidInputError(f"side must be 'attacker' or 'defender', not {side!r}")
    array = _check_ints(masks, f"{side} masks", 0, (1 << support.n) - 1, InvalidStrategyError)
    return _coordinates(array, support.member_array, side == "defender").astype(float)


def _marginal(support: SupportSet, atoms, side: str) -> np.ndarray:
    """``sum_i p_i coordinates(mask_i)`` over ``(mask, p)`` atoms, summed atom
    by atom in order (a matrix product would round in another order); a probability
    that is not a finite real raises :class:`InvalidInputError`."""
    atoms = list(atoms)
    probs = _check_reals([p for _, p in atoms], "atom probabilities").reshape(-1, 1)
    return (probs * coordinates([m for m, _ in atoms], support, side)).sum(axis=0)


def marginal_attacker(support: SupportSet, atoms) -> np.ndarray:
    """Compact coordinates of a mixed attack: ``pa[U] = Pr[attack covers U]``."""
    return _marginal(support, atoms, "attacker")


def marginal_defender(support: SupportSet, atoms) -> np.ndarray:
    """Compact coordinates of a mixed defense: ``qd[U] = Pr[defense misses U]``."""
    return _marginal(support, atoms, "defender")


def payoff_block(game: CompactGame, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Bilinear payoffs ``(P diag(b)) Q^T - (P ca) 1^T + 1 (Q cd)^T``.

    Entry (i, j) is the zero-sum payoff at attack coordinates ``P[i]`` and
    defense coordinates ``Q[j]``.
    """
    return (
        (P * game.benefit_vec) @ Q.T
        - (P @ game.attacker_cost_vec)[:, None]
        + (Q @ game.defender_cost_vec)[None, :]
    )


def compact_value(game: CompactGame, pa: np.ndarray, qd: np.ndarray) -> float:
    """Bilinear zero-sum payoff at compact coordinate vectors.

    The 1x1 case of :func:`payoff_block`. On embedded pure strategies this
    reproduces the normal-form entry exactly; on marginals of mixed
    strategies it reproduces the expected payoff (coordinates of the empty
    set are 1 by construction). Raises :class:`InvalidInputError` unless both
    are vectors of finite reals, one per support member.
    """
    pa, qd = (_check_reals(v, "coordinates", (game.support.size,)) for v in (pa, qd))
    return float(payoff_block(game, pa[None, :], qd[None, :])[0, 0])


def vertex_to_strategy(coords, support: SupportSet) -> int:
    """Recover the defended set from a defender's coordinates in O(n).

    Reads only the n singleton coordinates: target i is defended exactly when
    coordinate {i} is 0. Inverse of the defender :func:`coordinates` for every
    defense. ``coords`` is indexed as given, not converted to an array.
    """
    if np.shape(coords) != (support.size,):
        raise InvalidVertexError(
            f"coordinates of shape {np.shape(coords)}, expected ({support.size},)")
    defense = 0
    for i, pos in enumerate(support.singleton_positions):
        c = coords[pos]
        if not (abs(c) <= 1e-9 or abs(c - 1.0) <= 1e-9):  # NaN is neither
            raise InvalidVertexError(f"coordinate for singleton {i + 1} is {c}, not 0/1")
        if c < 0.5:
            defense |= 1 << i
    return defense


def caratheodory_decompose(point: np.ndarray, vertices: np.ndarray) -> list[tuple[float, int]]:
    """Express ``point`` as a convex combination of at most dim+1 rows of
    ``vertices``, an (m, dim) array; returns ``(weight, row index)`` pairs.

    Solves one matrix game. Its columns are the vertices v_j and its rows the
    2 dim signed coordinates +-e_i, with payoff ``+-(v_j - point)_i``, so its
    value is the L-infinity distance from ``point`` to the hull of the
    vertices and the column player's mixture is the nearest combination.
    The game matrix has rank at most dim+1 (one more than the coordinates,
    for the positive shift of the LP), so the basic optimum puts positive
    weight on at most dim+1 vertices. Accepts when ``dim * distance`` is at
    most :data:`HULL_TOL`, which bounds the L1 residual by the same.

    Otherwise raises :class:`NotInHullError` carrying a separating functional
    ``(normal, offset)`` with ``normal @ v + offset <= 0`` for every vertex
    and ``normal @ point + offset > 0``, read from the row player's mixture:
    with ``u = p_plus - p_minus``, every vertex has ``u @ (v - point) >=
    distance``, so ``(-u, u @ point + distance / 2)`` separates.
    """
    point, vertices = _check_reals(point, "point"), _check_reals(vertices, "vertices")
    dim = point.size
    if point.ndim != 1 or vertices.shape[1:] != point.shape or not len(vertices):
        raise InvalidInputError(f"vertices of shape {vertices.shape} do not stack m >= 1 "
                                f"points of shape {point.shape}")
    offsets = vertices.T - point[:, None]  # dim x m
    solution = solve_matrix_game(np.vstack([offsets, -offsets]))
    distance = solution.value
    if dim * distance > HULL_TOL:
        u = solution.row_strategy[:dim] - solution.row_strategy[dim:]
        raise NotInHullError(
            f"point is not within {HULL_TOL} of the convex hull of {len(vertices)} vertices",
            certificate=(-u, float(u @ point + distance / 2)),
        )
    return [(float(w), j) for j, w in enumerate(solution.col_strategy) if w > 1e-12]
