"""Network security games: graph values, failures, and separable approximation.

An attack removes nodes from a graph; the benefit of attacking the set U is
the drop in a network value measure,

    benefit(U) = T(G) - T(F(G without U)),

where T scores the surviving graph and F is a failure operator that may
propagate the damage before scoring. Benefits induced this way are genuinely
non-additive (disconnecting a path at one node changes what a second removal
is worth), which makes them the motivating input for the compact solver.

The approximation path computes the interaction coefficients of the induced
benefit, zeroes every coefficient with magnitude at most ``eps_c``, and
rebuilds the benefit from the survivors. Dropped coefficients perturb any
single payoff entry by at most ``2^c * eps_c``, so the game value moves by at
most ``2^(c+1) * eps_c``; meanwhile the surviving support usually splits into
small disjoint components. The best-response tables of the approximate game
(``CompactGame.oracle``) exploit them: they enumerate capped strategies
inside each component only, and each call spends the cap across components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from math import comb, isfinite
from operator import index

from .bits import iter_bits, masks_up_to_size
from .compact import CompactGame, interaction_coefficients
from .errors import CapacityError, FormatError, InvalidInputError
from .equilibrium import EquilibriumReport, SolverConfig, solve_compact
from .games import GameSpec
from .setfunctions import GroundSet, MobiusTransform, SetFunction, zeta

INDUCE_GUARD = 1_000_000


@dataclass(frozen=True)
class Network:
    """Simple undirected graph on nodes 1..node_count, stored as bit adjacency."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_values: tuple[float, ...] | None = None

    def __post_init__(self):
        # Node ids become masks through bit operations, so integer-like ids
        # (numpy integers included) are stored as plain ints.
        try:
            node_count = index(self.node_count)
            edges = [(index(u), index(v)) for u, v in self.edges]
        except TypeError:
            raise InvalidInputError("node count and edge endpoints must be integers") from None
        if any(isinstance(x, bool) for x in (self.node_count, *chain(*self.edges))):
            raise InvalidInputError("node count and edge endpoints must not be booleans")
        object.__setattr__(self, "node_count", node_count)
        if self.node_count < 1:
            raise InvalidInputError("network needs at least one node")
        seen = set()
        cleaned = []
        for u, v in edges:
            if not (1 <= u <= self.node_count and 1 <= v <= self.node_count):
                raise InvalidInputError(f"edge ({u}, {v}) outside node range")
            if u == v:
                raise InvalidInputError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            cleaned.append(key)
        object.__setattr__(self, "edges", tuple(sorted(cleaned)))
        if self.node_values is not None:
            if len(self.node_values) != self.node_count:
                raise InvalidInputError("node_values length must equal node_count")
            object.__setattr__(self, "node_values", tuple(float(v) for v in self.node_values))

    @property
    def full_mask(self) -> int:
        return (1 << self.node_count) - 1

    def adjacency_masks(self) -> list[int]:
        adj = [0] * (self.node_count + 1)
        for u, v in self.edges:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        return adj

    def values_or_unit(self) -> list[float]:
        if self.node_values is None:
            return [1.0] * self.node_count
        return list(self.node_values)


def components_of(adjacency: list[int], alive: int) -> list[int]:
    """Connected components of the surviving subgraph, as node masks."""
    comps = []
    remaining = alive
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            reach = 0
            for b in iter_bits(frontier):
                reach |= adjacency[b + 1] & alive
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


@dataclass(frozen=True)
class ValueFunction:
    """Relabeling-invariant score of a surviving graph.

    Kinds:
      * ``connected_pairs``: number of unordered node pairs joined by a path.
      * ``largest_component``: node count of the biggest component.
      * ``weighted_component_sum``: sum over components of (total node value
        in the component) ** exponent; with unit values and exponent 2 this
        is a scaled variant of pair connectivity.
    """

    kind: str = "connected_pairs"
    exponent: float = 2.0

    KINDS = ("connected_pairs", "largest_component", "weighted_component_sum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInputError(f"unknown value function {self.kind!r}")

    def evaluate(self, net: Network, alive: int) -> float:
        adjacency = net.adjacency_masks()
        comps = components_of(adjacency, alive)
        if self.kind == "connected_pairs":
            return float(sum(comb(c.bit_count(), 2) for c in comps))
        if self.kind == "largest_component":
            return float(max((c.bit_count() for c in comps), default=0))
        values = net.values_or_unit()
        total = 0.0
        for comp in comps:
            mass = sum(values[b] for b in iter_bits(comp))
            total += mass ** self.exponent
        return total


@dataclass(frozen=True)
class FailureOperator:
    """How damage spreads after the attacked nodes are removed.

    ``node_removal`` keeps the surviving subgraph as is. ``threshold_cascade``
    repeatedly removes any node whose fraction of surviving neighbors
    (relative to its degree in the intact network) falls below ``threshold``,
    until stable. Both are idempotent on their own output: a fixpoint of the
    removal condition stays a fixpoint.
    """

    kind: str = "node_removal"
    threshold: float | None = None

    KINDS = ("node_removal", "threshold_cascade")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInputError(f"unknown failure operator {self.kind!r}")
        if self.kind == "threshold_cascade":
            if self.threshold is None or not 0 < self.threshold <= 1:
                raise InvalidInputError("threshold_cascade needs a threshold in (0, 1]")

    def apply(self, net: Network, alive: int) -> int:
        if self.kind == "node_removal":
            return alive
        adjacency = net.adjacency_masks()
        current = alive
        while True:
            doomed = 0
            for b in iter_bits(current):
                base = adjacency[b + 1].bit_count()
                if base == 0:
                    continue
                surviving = (adjacency[b + 1] & current).bit_count()
                if surviving / base < self.threshold:
                    doomed |= 1 << b
            if not doomed:
                return current
            current &= ~doomed


def induce_benefit(net: Network, value_fn: ValueFunction, failure: FailureOperator,
                   attacker_cap: int) -> SetFunction:
    """Benefit of every attack of size at most the cap: value lost after failure."""
    n = net.node_count
    count = sum(comb(n, i) for i in range(min(attacker_cap, n) + 1))
    if count > INDUCE_GUARD:
        raise CapacityError(f"benefit induction over {count} subsets exceeds the guard")
    ground = GroundSet(n)
    baseline = value_fn.evaluate(net, net.full_mask)
    entries = {}
    for mask in masks_up_to_size(n, attacker_cap):
        alive = failure.apply(net, net.full_mask & ~mask)
        drop = baseline - value_fn.evaluate(net, alive)
        if drop != 0:
            entries[mask] = drop
    return SetFunction(ground, entries)


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of the coefficient-threshold approximation.

    ``game`` is the compact game of ``spec``, built from the kept coefficients.
    ``components`` partitions the surviving support's nonempty members into
    groups with pairwise disjoint target unions; ``error_bound`` is the
    guaranteed cap ``2^(c+1) * eps_c`` on the game-value perturbation. Every
    dropped coefficient had magnitude at most ``eps_c``.
    """

    spec: GameSpec
    game: CompactGame
    components: tuple[tuple[int, ...], ...]
    eps_c: float
    error_bound: float
    dropped_terms: int


def separable_approximation(benefit: SetFunction, attacker_cost: SetFunction,
                            defender_cost: SetFunction, eps_c: float, attacker_cap: int,
                            *, defender_cap: int | None = None) -> ApproxResult:
    """Zero out small benefit interactions and package the approximate game."""
    n = benefit.ground.n
    spec = GameSpec(benefit.ground, benefit, attacker_cost, defender_cost, attacker_cap,
                    n if defender_cap is None else defender_cap)
    error_bound = float(2 ** (attacker_cap + 1) * eps_c)
    if not (eps_c >= 0 and isfinite(error_bound)):
        raise InvalidInputError("eps_c must be nonnegative, with a finite bound 2^(c+1) * eps_c")
    coeffs, cost_a, cost_d = interaction_coefficients(spec)
    kept = MobiusTransform(benefit.ground,
                           {m: v for m, v in coeffs.entries.items() if abs(v) > eps_c})
    game = CompactGame.from_coefficients((kept, cost_a, cost_d), attacker_cap, spec.defender_cap)
    spec = replace(spec, benefit=zeta(kept, max_size=attacker_cap))
    return ApproxResult(
        spec=spec,
        game=game,
        components=game.support.components,
        eps_c=float(eps_c),
        error_bound=error_bound,
        dropped_terms=len(coeffs.entries) - len(kept.entries),
    )


def solve_network_game(net: Network, value_fn: ValueFunction, failure: FailureOperator,
                       attacker_cap: int, eps_c: float,
                       config: SolverConfig | None = None,
                       attacker_cost: SetFunction | None = None,
                       defender_cost: SetFunction | None = None,
                       trace: list | None = None,
                       defender_cap: int | None = None,
                       ) -> tuple[EquilibriumReport, ApproxResult]:
    """Induce the benefit, approximate, and solve.

    Costs default to zero, and ``defender_cap`` to every node. The returned
    report is the equilibrium of the approximated game; the true value lies
    within ``error_bound`` of it.
    """
    ground = GroundSet(net.node_count)
    benefit = induce_benefit(net, value_fn, failure, attacker_cap)
    zero = SetFunction(ground)
    approx = separable_approximation(
        benefit,
        attacker_cost if attacker_cost is not None else zero,
        defender_cost if defender_cost is not None else zero,
        eps_c,
        attacker_cap,
        defender_cap=defender_cap,
    )
    report = solve_compact(approx.spec, config, trace=trace, game=approx.game)
    return report, approx


def network_from_text(text: str) -> Network:
    """Parse the plain edge-list format: first line ``nodes N``, then ``u v`` lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("nodes"):
        raise FormatError("edge list must start with a 'nodes N' line")
    head = lines[0].split()
    if len(head) != 2 or not head[1].isdigit():
        raise FormatError(f"bad header line {lines[0]!r}, expected 'nodes N'")
    n = int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}, expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}: {exc}") from None
        edges.append((u, v))
    try:
        return Network(node_count=n, edges=tuple(edges))
    except InvalidInputError as exc:
        raise FormatError(str(exc)) from None
