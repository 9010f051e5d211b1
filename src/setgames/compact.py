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
m truncated at k, so cd too vanishes above k. The superset sums are one call
of the transform engine that computes m, with each mask's role in the
butterfly swapped, over the masks up to k. :func:`payoff_block` evaluates
the form between stacked coordinate rows, a whole payoff block at once.

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
from .setfunctions import SPARSITY_SCALE, MobiusTransform, _transform, moebius

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
        members = sorted(set(masks) | {0} | {1 << i for i in range(n)})
        singles = tuple(bisect_left(members, 1 << i) for i in range(n))
        array = np.array(members, dtype=np.int64)
        array.flags.writeable = False
        return cls(n=n, members=tuple(members), singleton_positions=singles, member_array=array)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The nonempty members grouped by :func:`~setgames.oracles.partition_support`,
        computed on first use and then shared by the oracle tables and callers."""
        return tuple(map(tuple, partition_support(self.members)))


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
    def from_coefficients(cls, coefficients, attacker_cap: int,
                          defender_cap: int) -> "CompactGame":
        """Assemble the game from the maps of :func:`interaction_coefficients`."""
        masks = set().union(*(c.entries for c in coefficients))
        support = SupportSet.from_members(coefficients[0].ground.n, masks)
        vectors = [np.zeros(support.size) for _ in coefficients]
        for vec, c in zip(vectors, coefficients):  # one binary search per map
            vec[np.searchsorted(support.member_array, list(c.entries))] = list(c.entries.values())
        return cls(support, *vectors, attacker_cap, defender_cap)

    @cached_property
    def oracle(self) -> PreparedOracle:
        """Both players' read-only oracle tables, built on first use and then shared."""
        return prepare(self.support, self.attacker_cap, self.defender_cap)


def interaction_coefficients(spec: GameSpec, *, exact: bool = False) -> tuple[MobiusTransform, ...]:
    """Benefit and attacker-cost coefficients up to c, and defender-cost
    coefficients up to k by the conjugate identity, as three
    :class:`MobiusTransform` maps. Sums below the transform cutoff are dropped."""
    b = moebius(spec.benefit, max_size=spec.attacker_cap, exact=exact)
    ca = moebius(spec.attacker_cost, max_size=spec.attacker_cap, exact=exact)
    cost, k = spec.defender_cost, spec.defender_cap
    tol = None if exact else SPARSITY_SCALE * cost.max_abs()
    # moebius(cost, max_size=k).entries, without checking the sums as a MobiusTransform
    m = _transform(spec.ground, cost.entries, cost.default, cap=k, signed=True, exact=exact,
                   drop_tol=tol)
    sums = _transform(spec.ground, m, 0, cap=k, signed=False, exact=exact, drop_tol=tol,
                      superset=True)
    cd = {u: -s if u.bit_count() % 2 else s for u, s in sums.items()}
    return b, ca, MobiusTransform(spec.ground, cd)


def build_compact_game(spec: GameSpec) -> CompactGame:
    """Compute the support set and coefficient vectors of ``spec``."""
    return CompactGame.from_coefficients(interaction_coefficients(spec), spec.attacker_cap,
                                         spec.defender_cap)


def coordinates(masks, support: SupportSet, side: str, cap: int | None = None) -> np.ndarray:
    """0/1 coordinates of pure strategies, one row per mask: ``1{U subset of A}``
    for each attack A when ``side`` is ``"attacker"``, ``1{U disjoint from D}``
    for each defense D when it is ``"defender"``.

    Raises :class:`InvalidStrategyError` for a mask that is not an integer
    (``bool`` included) in ``[0, 2^n)``, or that has more than ``cap`` targets.
    """
    if side not in ("attacker", "defender"):
        raise InvalidInputError(f"side must be 'attacker' or 'defender', not {side!r}")
    masks = list(masks)
    if not all(t is not bool and issubclass(t, (int, np.integer)) for t in set(map(type, masks))):
        raise InvalidStrategyError("pure strategies must be integer masks")
    for bad in (min(masks, default=0), max(masks, default=0)):
        if bad < 0 or bad >> support.n:
            raise InvalidStrategyError(f"{side} {bad:#x} is outside a ground set of {support.n}")
    array = np.array(masks, dtype=np.int64)
    if cap is not None:
        widest = max(array.tolist(), key=int.bit_count, default=0)
        if widest.bit_count() > cap:
            raise InvalidStrategyError(f"{side} {widest:#x} exceeds the cap {cap}")
    return _coordinates(array, support.member_array, side == "defender").astype(float)


def _marginal(support: SupportSet, atoms, side: str) -> np.ndarray:
    """``sum_i p_i coordinates(mask_i)`` over ``(mask, p)`` atoms, summed atom
    by atom in order (a matrix product would round in another order)."""
    atoms = list(atoms)
    probs = np.array([p for _, p in atoms], dtype=float).reshape(-1, 1)
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
    set are 1 by construction).
    """
    pa = np.asarray(pa, dtype=float)
    qd = np.asarray(qd, dtype=float)
    if pa.shape != (game.support.size,) or qd.shape != (game.support.size,):
        raise InvalidInputError(
            f"coordinate vectors must have length {game.support.size}")
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
    point = np.asarray(point, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
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
