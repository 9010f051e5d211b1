"""Best-response oracles over compact coordinates.

The defender oracle maximizes ``sum_U w[U] * 1{U disjoint from D}`` over
defenses of size at most k; the attacker oracle maximizes
``sum_U w[U] * 1{U subset of A}`` over attacks of size at most c. Writing
``x_i = 1`` when target i is left undefended turns the defender problem into
maximizing the polynomial ``sum_V w[V] prod_{i in V} x_i`` over binary x with
at least ``n - k`` ones, so the oracle is constrained pseudo-boolean
maximization and its difficulty is governed by the support structure.

Methods:
  * ``bruteforce``: enumerate all capped strategies.
  * ``additive``: support is singletons plus the empty set; pick the at most
    k most negative singleton weights.
  * ``separable``: the support splits into components whose target unions are
    disjoint; each component is enumerated on its own, and a knapsack sweep
    combines per-component optima when the cap binds across components.

Per-solve preparation: a solve fixes the support set and both caps, and only
the weights change from one oracle call to the next. :func:`prepare` builds
everything that depends on the support and the caps once: the component
partition (checked once, for the separable method), the resolved defender
method, and the capped candidate strategies in ascending order with their
boolean incidence with the support members. A call against a
:class:`PreparedOracle` is then a matrix-vector product and an argmax (the
separable method still enumerates each component per call). Both oracles
take ``prepared=``; without it they prepare for the single call, so every
call runs the same evaluation.

Ties everywhere resolve to the smallest strategy mask, so all methods return
identical strategies whenever their objective values tie exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bits import iter_bits, masks_up_to_size
from .compact import CompactVertex, SupportSet, embed_defender, embed_attacker
from .errors import CapacityError, InvalidInputError, OracleMismatchError, PartitionError

ENUMERATION_GUARD = 50_000_000
COMPONENT_ENUM_LIMIT = 25
AUTO_SEPARABLE_LIMIT = 20
METHODS = ("bruteforce", "additive", "separable")


@dataclass(frozen=True)
class OracleQuery:
    """Coordinate weights (aligned with a support set) and a cardinality cap."""

    weights: np.ndarray
    cap: int

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("oracle weights contain non-finite entries")


@dataclass(frozen=True)
class OracleResult:
    strategy: int
    value: float
    vertex: CompactVertex


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


def to_pseudo_boolean(query: OracleQuery, support: SupportSet) -> PseudoBooleanProblem:
    """Restate a defender oracle query as constrained polynomial maximization."""
    weights = np.asarray(query.weights, dtype=float)
    terms = tuple((m, float(w)) for m, w in zip(support.members, weights))
    return PseudoBooleanProblem(terms=terms, n=support.n, min_ones=support.n - query.cap)


@dataclass(frozen=True)
class _Candidates:
    """Strategies in ascending order and their incidence with member masks.

    ``hits[j, t]`` is ``U_t ⊆ strategies[j]`` for attacks and
    ``U_t ∩ strategies[j] = ∅`` for defenses, so ``hits @ weights`` scores
    every candidate at once.
    """

    strategies: np.ndarray
    hits: np.ndarray

    def best(self, weights: np.ndarray) -> tuple[int, float]:
        """Highest-scoring strategy and its score; the first (smallest) on ties."""
        values = self.hits @ weights
        j = int(np.argmax(values))
        return int(self.strategies[j]), float(values[j])


def _candidates(strategies, members, *, defender: bool) -> _Candidates:
    cand = np.asarray(strategies, dtype=np.int64)
    masks = np.asarray(members, dtype=np.int64)
    meet = cand[:, None] & masks[None, :]
    hits = (meet == 0) if defender else (meet == masks[None, :])
    return _Candidates(cand, hits)


def _enumerate(n: int, cap: int, members: int) -> list[int]:
    """``masks_up_to_size(n, cap)``, refused up front when its incidence is too big."""
    candidates = sum(comb(n, r) for r in range(min(cap, n) + 1))
    if candidates * members > ENUMERATION_GUARD:
        raise CapacityError(f"oracle enumeration of {candidates}x{members} exceeds the guard")
    return masks_up_to_size(n, cap)


@dataclass(frozen=True)
class PreparedOracle:
    """Oracle tables for one support set and fixed caps; built by :func:`prepare`.

    A side whose cap is ``None`` was not prepared. ``method`` is the resolved
    defender method and ``components`` the support's partition; ``defenses``
    is set only for ``bruteforce``.
    """

    support: SupportSet
    attacker_cap: int | None
    defender_cap: int | None
    method: str | None
    attacks: _Candidates | None
    defenses: _Candidates | None
    components: tuple[tuple[int, ...], ...] | None


def prepare(support: SupportSet, attacker_cap: int | None, defender_cap: int | None,
            method: str = "auto") -> PreparedOracle:
    """Build the oracle tables that depend only on the support and the caps.

    ``method`` picks the defender strategy: ``auto`` routes to the cheapest
    applicable one; ``additive`` raises :class:`OracleMismatchError` on a
    support with interactions; unknown names raise
    :class:`InvalidInputError`. Passing ``None`` for a cap skips that side.
    Raises :class:`CapacityError` when a candidate × member incidence would
    exceed :data:`ENUMERATION_GUARD` cells.
    """
    components = resolved = defenses = attacks = None
    if defender_cap is not None:
        components = tuple(tuple(c) for c in partition_support(support.members))
        resolved = _resolve_method(support, components, method)
        if resolved == "additive" and any(m.bit_count() > 1 for m in support.members):
            raise OracleMismatchError("additive oracle needs a singleton-only support")
        if resolved == "separable":
            _check_partition(support.members, components)
    caps = [c for c in (attacker_cap, defender_cap if resolved == "bruteforce" else None)
            if c is not None]
    if caps:
        # Both sides enumerate the same lattice: list it once up to the larger
        # cap and filter, which keeps the ascending order.
        lattice = _enumerate(support.n, max(caps), support.size)
        if attacker_cap is not None:
            attacks = _candidates([m for m in lattice if m.bit_count() <= attacker_cap],
                                  support.members, defender=False)
        if resolved == "bruteforce":
            defenses = _candidates([m for m in lattice if m.bit_count() <= defender_cap],
                                   support.members, defender=True)
    return PreparedOracle(support=support, attacker_cap=attacker_cap,
                          defender_cap=defender_cap, method=resolved, attacks=attacks,
                          defenses=defenses, components=components)


def _resolve_method(support: SupportSet, components, method: str) -> str:
    if method == "auto":
        if all(m.bit_count() <= 1 for m in support.members):
            return "additive"
        if len(components) >= 2:
            widest = max(_component_union(c).bit_count() for c in components)
            if widest <= AUTO_SEPARABLE_LIMIT:
                return "separable"
        return "bruteforce"
    if method not in METHODS:
        raise InvalidInputError(f"unknown oracle method {method!r}")
    return method


def _query_weights(query: OracleQuery, support: SupportSet, prepared: PreparedOracle,
                   prepared_cap: int | None, role: str) -> np.ndarray:
    weights = np.asarray(query.weights, dtype=float)
    if weights.shape != (support.size,):
        raise InvalidInputError(f"weights must have length {support.size}")
    if prepared.support != support:
        raise InvalidInputError("prepared oracle belongs to another support set")
    if prepared_cap != query.cap:
        raise InvalidInputError(
            f"{role} query cap {query.cap} differs from the prepared cap {prepared_cap}")
    return weights


def defender_oracle(query: OracleQuery, support: SupportSet, *, method: str = "auto",
                    prepared: PreparedOracle | None = None) -> OracleResult:
    """Best defense of size at most ``query.cap`` against coordinate weights.

    Without ``prepared``, the tables are built for this call from ``method``
    (see :func:`prepare`). With it, the table's resolved method runs and
    ``method`` is ignored; every method returns the same strategy and value.
    """
    if prepared is None:
        prepared = prepare(support, None, query.cap, method=method)
    weights = _query_weights(query, support, prepared, prepared.defender_cap, "defender")
    if prepared.method == "additive":
        return _defender_additive(query, support, weights)
    if prepared.method == "separable":
        defense, value = _separable_best(dict(zip(support.members, weights.tolist())),
                                         prepared.components, query.cap)
    else:
        defense, value = prepared.defenses.best(weights)
    return OracleResult(defense, value, embed_defender(defense, support))


def _defender_additive(query: OracleQuery, support: SupportSet, weights) -> OracleResult:
    base = float(weights[support.index[0]]) if 0 in support.index else 0.0
    singles = []
    for i in range(support.n):
        pos = support.index.get(1 << i)
        if pos is not None:
            singles.append((float(weights[pos]), i))
    value = base + sum(w for w, _ in singles)
    defense = 0
    picked = 0
    # Defending removes a singleton term, so take the most negative weights
    # first; index order on ties yields the smallest mask.
    for w, i in sorted(singles):
        if w >= 0 or picked == query.cap:
            break
        defense |= 1 << i
        value -= w
        picked += 1
    return OracleResult(defense, value, embed_defender(defense, support))


def attacker_oracle(query: OracleQuery, support: SupportSet, *,
                    prepared: PreparedOracle | None = None) -> OracleResult:
    """Best attack of size at most ``query.cap`` against coordinate weights."""
    if prepared is None:
        prepared = prepare(support, query.cap, None)
    weights = _query_weights(query, support, prepared, prepared.attacker_cap, "attacker")
    attack, value = prepared.attacks.best(weights)
    return OracleResult(attack, value, embed_attacker(attack, support))


def partition_support(members) -> list[list[int]]:
    """Split support members into groups whose target unions are disjoint.

    Two members land in the same group when their masks intersect, directly
    or through a chain: each member merges every group whose target union it
    meets. The empty mask joins no group (it is a constant term). Groups come
    out sorted, ordered by their smallest member.
    """
    groups: list[tuple[int, list[int]]] = []
    for m in members:
        if not m:
            continue
        union, merged, kept = m, [m], []
        for u, group in groups:
            if u & m:
                union |= u
                merged += group
            else:
                kept.append((u, group))
        groups = kept + [(union, merged)]
    return sorted((sorted(group) for _, group in groups), key=lambda group: group[0])


def _component_union(component) -> int:
    u = 0
    for m in component:
        u |= m
    return u


def _check_partition(members, components) -> None:
    """Raise unless ``components`` partitions the nonempty ``members`` with disjoint unions."""
    known = set(members)
    claimed: set[int] = set()
    for comp in components:
        for m in comp:
            if m == 0:
                continue
            if m in claimed:
                raise PartitionError(f"mask {m:#x} appears in two components")
            if m not in known:
                raise PartitionError(f"mask {m:#x} is not a term of the problem")
            claimed.add(m)
    missing = [m for m in members if m and m not in claimed]
    if missing:
        raise PartitionError(f"terms {missing} missing from the partition")
    unions = [_component_union(c) for c in components]
    for i in range(len(unions)):
        for j in range(i + 1, len(unions)):
            if unions[i] & unions[j]:
                raise PartitionError("component target unions overlap")
    for u in unions:
        if u.bit_count() > COMPONENT_ENUM_LIMIT:
            raise CapacityError(
                f"component with {u.bit_count()} targets exceeds the enumeration limit")


def _separable_best(term_weight: dict[int, float], components, budget: int,
                    ) -> tuple[int, float]:
    """Best defended mask of at most ``budget`` targets over a checked partition.

    Each component is enumerated exhaustively over its own targets; when the
    budget binds across components, a knapsack sweep over (component,
    defended count) combines the per-component optima. Ties resolve to the
    smallest defended mask overall.
    """
    # Per-component tables: best value and smallest defended submask for each
    # defended count.
    tables = []
    for comp in components:
        bits = list(iter_bits(_component_union(comp)))
        width = len(bits)
        best: list[tuple[float, int]] = [(-np.inf, 0)] * (width + 1)
        comp_terms = [(m, term_weight[m]) for m in comp if m]
        for local in range(1 << width):
            defended = 0
            for b_idx in range(width):
                if local >> b_idx & 1:
                    defended |= 1 << bits[b_idx]
            value = sum(w for m, w in comp_terms if m & defended == 0)
            count = local.bit_count()
            cur = best[count]
            if value > cur[0] or (value == cur[0] and defended < cur[1]):
                best[count] = (value, defended)
        tables.append(best)

    # Knapsack over components: maximize value, then minimize the defended
    # mask (component unions are disjoint, so masks add without carries).
    states: dict[int, tuple[float, int]] = {0: (0.0, 0)}
    for table in tables:
        nxt: dict[int, tuple[float, int]] = {}
        for used, (val, mask) in states.items():
            for t, (tval, tmask) in enumerate(table):
                if tval == -np.inf or used + t > budget:
                    continue
                cand = (val + tval, mask | tmask)
                cur = nxt.get(used + t)
                if cur is None or cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
                    nxt[used + t] = cand
        states = nxt

    best_val, best_mask = -np.inf, 0
    for val, mask in states.values():
        if val > best_val or (val == best_val and mask < best_mask):
            best_val, best_mask = val, mask
    return best_mask, float(best_val + term_weight.get(0, 0.0))


def solve_separable(problem: PseudoBooleanProblem, components: list[list[int]],
                    ) -> tuple[int, float]:
    """Optimize a pseudo-boolean objective whose terms split into components.

    Checks the partition, then solves it as the separable defender oracle
    does, with defended-count budget ``n - min_ones``. Returns the ones mask
    and the optimal value.
    """
    _check_partition([m for m, _ in problem.terms], components)
    defended, value = _separable_best(dict(problem.terms), components,
                                      problem.n - problem.min_ones)
    return ((1 << problem.n) - 1) ^ defended, value
