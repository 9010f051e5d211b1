"""Best-response oracles over compact coordinates.

The defender oracle maximizes ``sum_U w[U] * 1{U disjoint from D}`` over
defenses of size at most k; the attacker oracle maximizes
``sum_U w[U] * 1{U subset of A}`` over attacks of size at most c. Writing
``x_i = 1`` when target i is left undefended turns the defender problem into
maximizing the polynomial ``sum_V w[V] prod_{i in V} x_i`` over binary x with
at least ``n - k`` ones, so the oracle is constrained pseudo-boolean
maximization and its difficulty is governed by the support structure.

One kernel serves both players. Only the weights change between calls, so
``prepare(support, attacker_cap, defender_cap)`` builds one read-only table
per side, once per (support, caps); it is the one way to the tables,
:func:`solve_separable`'s too. It keeps the last tables it built, with the
seeded restricted game's parts once a solve asks (:attr:`PreparedOracle.seed`),
so the next game with an equal support and caps (a report's certificate, or
another game on the same support) shares them; ``prepare.cache_clear()`` frees them.

When both sides' whole listings are small, every strategy of at most the cap
over the support's n targets, times the support size, at most
:data:`WHOLE_CELLS` cells and within the guard, both tables list them as one
component: plain enumeration, no partition and no knapsack. Otherwise both
split over the support's components, the groups of members whose target
unions are disjoint (:func:`partition_support`, run only then): a strategy
scores, in each component, what its targets inside it score there. The split
keeps a large cap tractable, but hides from the double oracle's seed and
column pool every strategy that spans components. One side whole and the
other split would make the seeded restricted game tall and refactor its
whole basis every round. A table lists every strategy of at most
``min(cap, width)`` targets inside each component, grouped by (component,
count) and ascending within a group, with its incidence against the support
members (the empty member counts in the first component's rows), built by
array operations from the one listing of capped masks, cached per (n, cap) in
:mod:`setgames.bits`, its incidences by one ``&`` on int32 (masks of at most
30 targets fit), and the components by one stable sort.

A call, ``attacker_oracle(prepared, weights)`` or
``defender_oracle(prepared, weights)``, takes only the weights aligned with
the support: one matrix-vector product, the best row of each (component,
count) group, and a knapsack over components that spends the cap. It
returns ``(mask, value)``, the best strategy, ties to the smallest, and its
value. Given ``pool``, it returns ``(mask, value, runner_ups)``: also up to
``pool`` other strategies of one table row each (the other components
empty), with their values, ranked by the row's gain over its component's
empty row, ties to the smaller mask; on a one-component table, the next best
strategies. The double oracle adds those that improve alongside the best
response, a column pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from operator import itemgetter, or_

import numpy as np

from .bits import count_up_to_size, lookup, masks_up_to_size
from .errors import CapacityError, InvalidInputError
from .setfunctions import GroundSet, _check_int, _check_ints, _check_reals

ENUMERATION_GUARD = 50_000_000
# The largest whole table, in cells a side, that prepare builds in place of split ones.
WHOLE_CELLS = 50_000
_NO_MASK = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SupportSet:
    """Ordered coordinate index: the member masks, ascending, always with the empty set
    and all singletons. The singleton floor keeps the defender map injective, so a
    defense maps back from its n singleton coordinates (zero coordinate = defended)."""

    n: int
    members: tuple[int, ...]
    member_array: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_members(cls, n: int, masks) -> "SupportSet":
        """The support of ``masks``, the empty set and the singletons; a mask that is not
        an integer (``bool`` included) in ``[0, 2^n)`` raises :class:`InvalidInputError`."""
        ground = GroundSet(n)
        masks = _check_ints(masks, "support members", 0, ground.size - 1)
        array = np.union1d(masks, [0, *(1 << i for i in range(ground.n))])
        array.flags.writeable = False
        return cls(n=ground.n, members=tuple(array.tolist()), member_array=array)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The nonempty members grouped by :func:`partition_support`, computed
        on first use and then shared by split oracle tables and callers."""
        return tuple(map(tuple, partition_support(self.member_array)))


@dataclass(frozen=True)
class PseudoBooleanProblem:
    """Maximize ``sum_V coeff[V] prod_{i in V} x_i`` with at least ``min_ones`` ones.

    ``x_i = 1`` means target i is left undefended; a defense D corresponds to
    ``x = full_mask ^ D``, and the objective value at that x equals the
    defender oracle objective at D. A term mask outside ``[0, 2^n)``, a weight that
    is not a finite real or ``min_ones`` outside ``[0, n]`` raises :class:`InvalidInputError`.
    """

    terms: tuple[tuple[int, float], ...]
    n: int
    min_ones: int

    def __post_init__(self):
        n = GroundSet(self.n).n
        _check_ints([m for m, _ in self.terms], "term masks", 0, (1 << n) - 1)
        _check_reals([w for _, w in self.terms], "term weights")
        object.__setattr__(self, "min_ones", _check_int(self.min_ones, "min_ones", 0, n))

    def evaluate(self, ones_mask: int) -> float:
        """Objective at the assignment whose ones are ``ones_mask``."""
        return float(sum(w for mask, w in self.terms if mask & ~ones_mask == 0))

    def solve_bruteforce(self) -> tuple[int, float]:
        """Exact optimum by enumeration, smallest defended mask on ties."""
        full = (1 << self.n) - 1
        cap = self.n - self.min_ones
        best_ones, best = -1, -np.inf
        for defense in masks_up_to_size(self.n, cap).tolist():
            ones = full ^ defense
            value = self.evaluate(ones)
            if value > best:
                best, best_ones = value, ones
        return best_ones, best


def to_pseudo_boolean(weights, cap: int, support: SupportSet) -> PseudoBooleanProblem:
    """Restate a defender oracle call as constrained polynomial maximization.

    Raises :class:`InvalidInputError` unless ``weights`` holds one finite weight
    per support member, as the oracles do, and ``cap`` is an integer >= 0; a cap
    above n means n, as in :func:`prepare`."""
    weights = _check_reals(weights, "oracle weights", (support.size,)).tolist()
    cap = min(_check_int(cap, "defender cap"), support.n)
    return PseudoBooleanProblem(tuple(zip(support.members, weights)), support.n, support.n - cap)


@dataclass(frozen=True)
class _Table:
    """One side's capped strategies per component and their member incidence.

    Rows come in segments, one per (component, count): components in
    partition order, counts ascending, strategies ascending within a
    segment. ``hits[j, t]`` is 1 when member t lies in the component of row
    j (the empty member in the first component) and ``U_t ⊆ strategies[j]``
    for attacks, ``U_t ∩ strategies[j] = ∅`` for defenses. Component c has
    ``sizes[c]`` segments, one per count from 0 to ``min(cap, width)``.
    ``component[j]`` is row j's component and ``empty[c]`` component c's
    empty (count-0) row. ``distinct`` lists each strategy once, ascending.
    """

    cap: int
    strategies: np.ndarray
    hits: np.ndarray
    segment: np.ndarray
    starts: np.ndarray
    sizes: tuple[int, ...]
    component: np.ndarray
    empty: np.ndarray
    distinct: np.ndarray

    def __post_init__(self):
        for array in (self.strategies, self.hits, self.segment, self.starts, self.component,
                      self.empty, self.distinct):
            array.setflags(write=False)

    def best(self, weights: np.ndarray, pool: int = 0) -> tuple[int, float, list]:
        """Highest-scoring strategy of at most ``cap`` targets, its score, and
        up to ``pool`` runner-ups as ``(mask, score)`` pairs.

        A runner-up is one row, the other components kept empty, ranked by
        its gain over its component's empty row: highest first, ties to the
        smaller mask, the best strategy and repeats of the empty one left out.
        """
        values = self.hits @ weights
        top = np.maximum.reduceat(values, self.starts)
        # The smallest strategy of each segment that reaches its maximum.
        tied = np.where(values == top[self.segment], self.strategies, _NO_MASK)
        masks = np.minimum.reduceat(tied, self.starts)
        mask, value = _separable_best(top.tolist(), masks.tolist(), self.sizes, self.cap)
        if pool <= 0:
            return mask, value, []
        base = values[self.empty]
        gain = values - base[self.component]
        gain[self.empty[1:]] = -np.inf  # the empty strategy is ranked once
        # Every row whose gain reaches the (pool + 1)-th largest, then exact ranking.
        at = max(gain.size - pool - 1, 0)
        rows = np.flatnonzero((gain >= np.partition(gain, at)[at]) & (gain > -np.inf))
        rows = rows[np.lexsort((self.strategies[rows], -gain[rows]))]
        rows = rows[self.strategies[rows] != mask][:pool]
        total = float(base.sum())
        return mask, value, list(zip(self.strategies[rows].tolist(), (total + gain[rows]).tolist()))


def _coordinates(masks: np.ndarray, members: np.ndarray, defender: bool) -> np.ndarray:
    """Unchecked 0/1 map on int32, a bool row per mask: ``U_t ⊆ A``, or ``U_t ∩ D = ∅``."""
    masks, members = masks.astype(np.int32), members.astype(np.int32)
    meet = masks[:, None] & members
    return meet == 0 if defender else meet == members


def _tables(members, components, attacker_cap: int, defender_cap: int) -> tuple[_Table, _Table]:
    """Attack and defense tables over the members' ``components`` (their
    :func:`partition_support`, or one group of every nonempty member) from the
    one strategy listing of each cap; :func:`prepare` is the one caller.
    Sides whose caps list the same rows share them; ``hits`` masks their :func:`_coordinates`.

    Raises :class:`CapacityError` when a table would exceed
    :data:`ENUMERATION_GUARD` cells.
    """
    unions = [reduce(or_, c, 0) for c in components]
    widths = np.array([u.bit_count() for u in unions], dtype=np.int64)
    caps = (attacker_cap, defender_cap)
    for cap in caps:
        rows = sum(count_up_to_size(w, cap) for w in widths.tolist())
        if rows * len(members) > ENUMERATION_GUARD:
            raise CapacityError(f"oracle table of {rows}x{len(members)} exceeds the guard")
    widest = int(widths.max())
    targets = np.zeros((len(unions), widest), dtype=np.int64)
    for c, union in enumerate(unions):
        targets[c, :widths[c]] = np.flatnonzero(union >> np.arange(union.bit_length()) & 1)
    masks = np.asarray(members, dtype=np.int64)
    # inside[c, t]: member t is in component c, the one whose union it meets (the first
    # for the empty member).
    inside = masks & np.array(unions)[:, None] != 0
    inside[0] |= masks == 0

    def listed(cap):
        # The listing over the widest component's bits in count order. Each component takes
        # the masks that fit its width, in order, and maps local bit i onto its i-th target.
        listing = masks_up_to_size(widest, cap)
        local = listing[np.argsort(np.bitwise_count(listing), kind="stable")]
        count = np.bitwise_count(local)
        comp, pos = np.nonzero(local < (1 << widths)[:, None])
        strategies = (((local[pos, None] >> np.arange(widest)) & 1) << targets[comp]).sum(axis=1)
        sizes = np.minimum(widths, cap) + 1
        segment = (np.cumsum(sizes) - sizes)[comp] + count[pos]
        starts = np.flatnonzero(np.diff(segment, prepend=-1))
        empty = starts[np.cumsum(sizes) - sizes]
        # Only the empty strategy repeats, once per component after the first.
        fields = dict(strategies=strategies, segment=segment, sizes=tuple(sizes.tolist()),
                      starts=starts, component=comp, empty=empty,
                      distinct=np.sort(np.delete(strategies, empty[1:])))
        return fields, inside[comp]

    shared = {cap: listed(cap) for cap in {min(cap, widest) for cap in caps}}

    def table(cap, defender):
        fields, own = shared[min(cap, widest)]
        hits = _coordinates(fields["strategies"], masks, defender) & own
        return _Table(cap=cap, hits=hits.astype(float), **fields)

    return table(attacker_cap, False), table(defender_cap, True)


@dataclass(frozen=True)
class PreparedOracle:
    """Both sides' oracle tables for one support and fixed caps; built by :func:`prepare`."""

    support: SupportSet
    attacks: _Table
    defenses: _Table

    @cached_property
    def seed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The seeded restricted game's parts, built on first use and kept with the tables,
        read-only: the float coordinates P of the ``distinct`` attacks and Q of the defenses,
        and ``index[i, j]``, the position of ``a_i & ~d_j`` among the attacks. Its payoff's
        benefit part is ``(P @ b)[index]``: the attack ``A ∖ D`` covers exactly the members
        inside A and outside D, and it is listed, as a row's subsets lie in its component."""
        a, d, members = self.attacks.distinct, self.defenses.distinct, self.support.member_array
        seed = (_coordinates(a, members, False).astype(float),
                _coordinates(d, members, True).astype(float),
                lookup(a, np.arange(a.size), a[:, None] & ~d, self.support.n))
        for array in seed:
            array.setflags(write=False)
        return seed


@lru_cache(maxsize=1, typed=True)
def prepare(support: SupportSet, attacker_cap: int, defender_cap: int) -> PreparedOracle:
    """Build both sides' oracle tables, which depend only on the support and the caps.

    When, for each side, every strategy of at most its cap over the support's
    n targets times the support size is at most :data:`WHOLE_CELLS` cells
    and within :data:`ENUMERATION_GUARD`, both tables take the whole support
    as one component. Otherwise both split over the support's own partition,
    :attr:`SupportSet.components`. Raises
    :class:`CapacityError` when a side's table would exceed
    :data:`ENUMERATION_GUARD` cells, and :class:`InvalidInputError` unless both
    caps are integers >= 0; a cap above n means n.

    The last result is kept and returned, the same read-only object, for an equal
    ``(support, attacker_cap, defender_cap)`` with caps of the same types (a ``True``
    cap reaches the check): supports compare by ``(n, members)``. One entry bounds
    memory to the tables a solve holds anyway; ``prepare.cache_clear()`` frees them.
    """
    caps = _check_int(attacker_cap, "attacker cap"), _check_int(defender_cap, "defender cap")
    limit = min(WHOLE_CELLS, ENUMERATION_GUARD)
    whole = all(count_up_to_size(support.n, cap) * support.size <= limit for cap in caps)
    components = (support.members[1:],) if whole else support.components
    return PreparedOracle(support, *_tables(support.members, components, *caps))


def _best(table: _Table, weights, pool: int | None) -> tuple:
    """Check a call's weights and pool (an integer >= 0, or None), then run the side's kernel."""
    weights = _check_reals(weights, "oracle weights", table.hits.shape[1:])
    mask, value, runner_ups = table.best(weights, 0 if pool is None else _check_int(pool, "pool"))
    return (mask, value) if pool is None else (mask, value, runner_ups)


def attacker_oracle(prepared: PreparedOracle, weights, pool: int | None = None) -> tuple:
    """Best attack within the prepared cap against coordinate weights: ``(mask, value)``;
    given ``pool``, ``(mask, value, runner_ups)`` with up to ``pool`` ``(mask, value)`` pairs."""
    return _best(prepared.attacks, weights, pool)


def defender_oracle(prepared: PreparedOracle, weights, pool: int | None = None) -> tuple:
    """Best defense within the prepared cap against coordinate weights: ``(mask, value)``;
    given ``pool``, ``(mask, value, runner_ups)`` with up to ``pool`` ``(mask, value)`` pairs."""
    return _best(prepared.defenses, weights, pool)


def partition_support(members) -> list[list[int]]:
    """Split support members into groups whose target unions are disjoint.

    Two members land in the same group when their masks intersect, directly
    or through a chain. The empty mask joins no group (it is a constant term);
    a member that is not an integer >= 0 raises :class:`InvalidInputError`.
    Groups come out sorted, ordered by their smallest member. Bit-parallel:
    ``reach[j]``, the union of the members holding target j, takes in its
    targets' reaches until it stops growing, at j's component; a member's
    group is its lowest target's component, and one stable sort groups them.
    """
    masks = np.sort(_check_ints(members, "support members"))
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
    component = reach[np.bitwise_count((masks & -masks) - 1)]
    order = np.argsort(component, kind="stable")
    grouped, ordered = masks[order].tolist(), component[order]
    cuts = [0, *((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist(), len(grouped)]
    return sorted((grouped[a:b] for a, b in zip(cuts, cuts[1:])), key=itemgetter(0))


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
    """The ones mask and optimal value of a pseudo-boolean objective, by the defender
    oracle on :func:`prepare`'s tables at cap ``n - min_ones`` for the support of the
    term masks (repeats sum their weights; the empty set and singletons weigh 0)."""
    masks = np.array([m for m, _ in problem.terms], dtype=np.int64)
    support, cap = SupportSet.from_members(problem.n, masks), problem.n - problem.min_ones
    weights = np.zeros(support.size)
    np.add.at(weights, support.member_array.searchsorted(masks), [w for _, w in problem.terms])
    defended, value = defender_oracle(prepare(support, cap, cap), weights)
    return ((1 << problem.n) - 1) ^ defended, value
