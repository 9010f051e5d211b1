"""Best-response oracles over compact coordinates.

The defender oracle maximizes ``sum_U w[U] * 1{U disjoint from D}`` over
defenses of size at most k; the attacker oracle maximizes
``sum_U w[U] * 1{U subset of A}`` over attacks of size at most c. Writing
``x_i = 1`` when target i is left undefended turns the defender problem into
maximizing the polynomial ``sum_V w[V] prod_{i in V} x_i`` over binary x with
at least ``n - k`` ones, so the oracle is constrained pseudo-boolean
maximization and its difficulty is governed by the support structure.

One kernel serves both players. Both objectives split over the support's
components, the groups of members whose target unions are disjoint
(:func:`partition_support`): a strategy scores, in each component, what its
targets inside that component score there. Only the weights change between
calls, so ``prepare(support, attacker_cap, defender_cap)`` builds one
read-only table per side; a game's ``CompactGame.oracle`` builds them once,
on first use, for a solve and the certificate of its report. A table lists
every strategy of at most ``min(cap, width)`` targets inside each component,
grouped by (component, count) and ascending within a group, with its
incidence against the support members (the empty member counts in the first
component's rows). It is built by array operations from a listing cached per
(width, cap). A one-component table is plain enumeration of the capped
strategies; on an all-singleton support it picks the best single targets.

A call, ``attacker_oracle(prepared, weights)`` or
``defender_oracle(prepared, weights)``, takes only the weights aligned with
the support: one matrix-vector product, the best row of each (component,
count) group, and a knapsack over components that spends the cap. It
returns ``(mask, value)``, the best strategy, ties to the smallest, and its
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import TYPE_CHECKING

import numpy as np

from .bits import iter_bits, masks_up_to_size
from .errors import CapacityError, InvalidInputError

if TYPE_CHECKING:  # compact imports prepare and partition_support from here
    from .compact import SupportSet

ENUMERATION_GUARD = 50_000_000
_NO_MASK = np.iinfo(np.int64).max


@dataclass(frozen=True)
class PseudoBooleanProblem:
    """Maximize ``sum_V coeff[V] prod_{i in V} x_i`` with at least ``min_ones`` ones.

    ``x_i = 1`` means target i is left undefended; a defense D corresponds to
    ``x = full_mask ^ D``, and the objective value at that x equals the
    defender oracle objective at D.
    """

    terms: tuple[tuple[int, float], ...]
    n: int
    min_ones: int

    def evaluate(self, ones_mask: int) -> float:
        """Objective at the assignment whose ones are ``ones_mask``."""
        return float(sum(w for mask, w in self.terms if mask & ~ones_mask == 0))

    def solve_bruteforce(self) -> tuple[int, float]:
        """Exact optimum by enumeration, smallest defended mask on ties."""
        full = (1 << self.n) - 1
        cap = self.n - self.min_ones
        best_ones, best = -1, -np.inf
        for defense in masks_up_to_size(self.n, cap):
            ones = full ^ defense
            value = self.evaluate(ones)
            if value > best:
                best, best_ones = value, ones
        return best_ones, best


def to_pseudo_boolean(weights, cap: int, support: SupportSet) -> PseudoBooleanProblem:
    """Restate a defender oracle call as constrained polynomial maximization.

    Raises :class:`InvalidInputError` unless ``weights`` holds one finite
    weight per support member, as the oracles do."""
    weights = _checked(weights, support.size)
    terms = tuple((m, float(w)) for m, w in zip(support.members, weights))
    return PseudoBooleanProblem(terms=terms, n=support.n, min_ones=support.n - cap)


@dataclass(frozen=True)
class _Table:
    """One side's capped strategies per component and their member incidence.

    Rows come in segments, one per (component, count): components in
    partition order, counts ascending, strategies ascending within a
    segment. ``hits[j, t]`` is 1 when member t lies in the component of row
    j (the empty member in the first component) and ``U_t ⊆ strategies[j]``
    for attacks, ``U_t ∩ strategies[j] = ∅`` for defenses. Component c has
    ``sizes[c]`` segments, one per count from 0 to ``min(cap, width)``.
    """

    cap: int
    strategies: np.ndarray
    hits: np.ndarray
    segment: np.ndarray
    starts: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self):
        for array in (self.strategies, self.hits, self.segment, self.starts):
            array.setflags(write=False)

    def best(self, weights: np.ndarray) -> tuple[int, float]:
        """Highest-scoring strategy of at most ``cap`` targets and its score."""
        values = self.hits @ weights
        top = np.maximum.reduceat(values, self.starts)
        # The smallest strategy of each segment that reaches its maximum.
        tied = np.where(values == top[self.segment], self.strategies, _NO_MASK)
        masks = np.minimum.reduceat(tied, self.starts)
        return _separable_best(top.tolist(), masks.tolist(), self.sizes, self.cap)


def _coordinates(masks: np.ndarray, members: np.ndarray, defender: bool) -> np.ndarray:
    """Unchecked 0/1 map, a bool row per mask: ``U_t ⊆ A``, or ``U_t ∩ D = ∅`` (defender)."""
    meet = masks[:, None] & members
    return meet == 0 if defender else meet == members


@lru_cache(maxsize=32)
def _listing(width: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks of at most ``cap`` of ``width`` bits, by count and ascending
    within a count, and their counts; built once per (width, cap), read-only."""
    listing = sorted(masks_up_to_size(width, cap), key=int.bit_count)
    arrays = np.array([listing, list(map(int.bit_count, listing))], dtype=np.int64)
    arrays.flags.writeable = False
    return arrays[0], arrays[1]


def _tables(members, components, attacker_cap: int | None, defender_cap: int | None,
            ) -> tuple[_Table | None, _Table | None]:
    """Attack and defense tables over the members' ``components`` (their
    :func:`partition_support`) from the cached strategy listing of each cap.
    Sides whose caps list the same rows share them; ``hits`` masks their :func:`_coordinates`.

    A ``None`` cap skips its side. Raises :class:`CapacityError` when a table
    would exceed :data:`ENUMERATION_GUARD` cells.
    """
    components = components or [()]
    unions = [reduce(or_, c, 0) for c in components]
    widths = np.array([u.bit_count() for u in unions], dtype=np.int64)
    caps = [cap for cap in (attacker_cap, defender_cap) if cap is not None]
    for cap in caps:
        rows = sum(comb(int(w), t) for w in widths for t in range(min(cap, w) + 1))
        if rows * len(members) > ENUMERATION_GUARD:
            raise CapacityError(f"oracle table of {rows}x{len(members)} exceeds the guard")
    if not caps:
        return None, None
    widest = int(widths.max())
    targets = np.zeros((len(unions), widest), dtype=np.int64)
    for c, union in enumerate(unions):
        targets[c, :widths[c]] = list(iter_bits(union))
    masks = np.asarray(members, dtype=np.int64)
    # A member's component is the one whose union it meets (0 for the empty member).
    column = np.argmax(masks & np.array(unions)[:, None] != 0, axis=0) if len(unions) > 1 else None

    def listed(cap):
        # Each component takes the masks of the listing over the widest component's
        # bits that fit its width, in order, and maps local bit i onto its i-th target.
        local, count = _listing(widest, cap)
        comp, pos = np.nonzero(local < (1 << widths)[:, None])
        strategies = (((local[pos, None] >> np.arange(widest)) & 1) << targets[comp]).sum(axis=1)
        sizes = np.minimum(widths, cap) + 1
        segment = (np.cumsum(sizes) - sizes)[comp] + count[pos]
        fields = dict(strategies=strategies, segment=segment, sizes=tuple(sizes.tolist()),
                      starts=np.flatnonzero(np.diff(segment, prepend=-1)))
        return fields, None if column is None else column == comp[:, None]

    shared = {cap: listed(cap) for cap in {min(cap, widest) for cap in caps}}

    def table(cap, defender):
        if cap is None:
            return None
        fields, own = shared[min(cap, widest)]
        hits = _coordinates(fields["strategies"], masks, defender)
        if own is not None:
            hits &= own
        return _Table(cap=cap, hits=hits.astype(float), **fields)

    return table(attacker_cap, False), table(defender_cap, True)


@dataclass(frozen=True)
class PreparedOracle:
    """Both sides' oracle tables for one support and fixed caps; built by :func:`prepare`.

    A side whose cap was ``None`` has no table.
    """

    attacks: _Table | None
    defenses: _Table | None


def prepare(support: SupportSet, attacker_cap: int | None,
            defender_cap: int | None) -> PreparedOracle:
    """Build the oracle tables that depend only on the support and the caps.

    The tables split over the support's own partition,
    :attr:`~setgames.compact.SupportSet.components`. Passing ``None`` for a
    cap skips that side. Raises :class:`CapacityError` when a side's table
    would exceed :data:`ENUMERATION_GUARD` cells.
    """
    return PreparedOracle(*_tables(support.members, support.components, attacker_cap,
                                   defender_cap))


def _checked(weights, size: int) -> np.ndarray:
    """``weights`` as a float vector of ``size`` finite entries."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (size,):
        raise InvalidInputError(f"weights must have length {size}")
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError("oracle weights contain non-finite entries")
    return weights


def _best(table: _Table | None, weights, side: str) -> tuple[int, float]:
    """Check a call's weights against a prepared side, then run its kernel."""
    if table is None:
        raise InvalidInputError(f"the {side} side was not prepared")
    return table.best(_checked(weights, table.hits.shape[1]))


def attacker_oracle(prepared: PreparedOracle, weights) -> tuple[int, float]:
    """Best attack within the prepared cap against coordinate weights: ``(mask, value)``."""
    return _best(prepared.attacks, weights, "attacker")


def defender_oracle(prepared: PreparedOracle, weights) -> tuple[int, float]:
    """Best defense within the prepared cap against coordinate weights: ``(mask, value)``."""
    return _best(prepared.defenses, weights, "defender")


def partition_support(members) -> list[list[int]]:
    """Split support members into groups whose target unions are disjoint.

    Two members land in the same group when their masks intersect, directly
    or through a chain. The empty mask joins no group (it is a constant term).
    Groups come out sorted, ordered by their smallest member. Bit-parallel:
    ``reach[j]``, the union of the members holding target j, takes in its
    targets' reaches until it stops growing, at j's component; a member's
    group is its lowest target's component.
    """
    masks = np.sort(np.asarray(members, dtype=np.int64))
    masks = masks[masks.searchsorted(1):]
    if masks.size == 0:
        return []
    bits = np.arange(int(masks[-1]).bit_length())
    reach = np.bitwise_or.reduce(masks[:, None] & -(masks[:, None] >> bits & 1))
    while True:
        grown = np.bitwise_or.reduce(reach & -(reach[:, None] >> bits & 1), axis=1)
        if np.array_equal(grown, reach):
            break
        reach = grown
    groups: dict[int, list[int]] = {}
    for component, m in zip(reach[np.bitwise_count((masks & -masks) - 1)].tolist(),
                            masks.tolist()):
        groups.setdefault(component, []).append(m)
    return list(groups.values())


def _separable_best(values, masks, sizes, budget: int) -> tuple[int, float]:
    """Best strategy of at most ``budget`` targets over disjoint components.

    ``values`` and ``masks`` hold, component after component, the best value
    and mask of each component using exactly t of its targets, t from 0 to
    ``sizes[c] - 1``. A knapsack sweep over (component, count) combines
    them; ties resolve to the smallest mask overall.
    """
    # best_val[u], best_mask[u]: best combination so far using u targets.
    # Component unions are disjoint, so masks add without carries.
    at = sizes[0]
    best_val, best_mask = values[:at], masks[:at]
    for size in sizes[1:]:
        width = min(len(best_val) + size - 1, budget + 1)
        new_val, new_mask = [-np.inf] * width, [0] * width
        for u in range(len(best_val)):
            val, mask = best_val[u], best_mask[u]
            for t in range(min(size, width - u)):
                v, m = val + values[at + t], mask | masks[at + t]
                if v > new_val[u + t] or (v == new_val[u + t] and m < new_mask[u + t]):
                    new_val[u + t], new_mask[u + t] = v, m
        best_val, best_mask = new_val, new_mask
        at += size
    u = max(range(len(best_val)), key=lambda u: (best_val[u], -best_mask[u]))
    return best_mask[u], best_val[u]


def solve_separable(problem: PseudoBooleanProblem) -> tuple[int, float]:
    """Optimize a pseudo-boolean objective whose terms split into components.

    Partitions the terms and runs the defender oracle's kernel over them with
    defended-count budget ``n - min_ones``. Returns the ones mask and the
    optimal value.
    """
    members = [m for m, _ in problem.terms]
    _, defenses = _tables(members, partition_support(members), None, problem.n - problem.min_ones)
    defended, value = defenses.best(np.array([w for _, w in problem.terms], dtype=float))
    return ((1 << problem.n) - 1) ^ defended, value
