"""Network security games: graph values, failures, and separable approximation.

An attack removes nodes from a graph; the benefit of attacking the set U is
the drop in a network value measure,

    benefit(U) = T(G) - T(F(G without U)),

where T scores the surviving graph and F is a failure operator that may
propagate the damage before scoring. Benefits induced this way are genuinely
non-additive (disconnecting a path at one node changes what a second removal
is worth), which makes them the motivating input for the compact solver.
Value functions and failures take one alive mask or an int64 array of them,
so the benefit of every attack of at most c targets comes from two batched
calls: components peel bit-parallel over all masks at once, and sizes come
from ``np.bitwise_count`` (numpy >= 2.0).

The approximation path computes the interaction coefficients of the induced
benefit, zeroes every coefficient with magnitude at most ``eps_c``, and
rebuilds the benefit from the survivors. Dropped coefficients perturb any
single payoff entry by at most ``2^c * eps_c``, so the game value moves by at
most ``2^(c+1) * eps_c``; meanwhile the surviving support usually splits into
small disjoint components. The best-response tables of the approximate game
(``CompactGame.oracle``) exploit them when the whole capped listing is large
(:func:`~setgames.oracles.prepare`): they enumerate capped strategies inside
each component only, and each call spends the cap across components.
Otherwise the solve lists whole strategies and never partitions the support.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import comb, isfinite

import numpy as np

from .bits import masks_up_to_size
from .compact import CompactGame, _coefficient_table
from .errors import CapacityError, FormatError, InvalidInputError
from .equilibrium import EquilibriumReport, SolverConfig, solve_compact
from .games import GameSpec
from .setfunctions import (
    GroundSet,
    MobiusTransform,
    SetFunction,
    _check_int,
    _check_ints,
    _check_reals,
    _entries,
    _finite_real,
    zeta,
)

INDUCE_GUARD = 1_000_000


@dataclass(frozen=True)
class Network:
    """Simple undirected graph on nodes 1..node_count, stored as bit adjacency."""

    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_values: tuple[float, ...] | None = None

    def __post_init__(self):
        # Node ids become masks through bit operations, so they are stored as plain ints.
        n = _check_int(self.node_count, "node count", 1)
        edges = [tuple(_check_int(end, "edge endpoint", 1, n) for end in (u, v))
                 for u, v in self.edges]
        for u, v in edges:
            if u == v:
                raise InvalidInputError(f"self-loop at node {u}")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", tuple(sorted({(min(e), max(e)) for e in edges})))
        if self.node_values is not None:
            if len(self.node_values) != self.node_count:
                raise InvalidInputError("node_values length must equal node_count")
            values = _check_reals(self.node_values, "node values").tolist()
            object.__setattr__(self, "node_values", tuple(values))

    @property
    def full_mask(self) -> int:
        return (1 << self.node_count) - 1

    def adjacency(self) -> np.ndarray:
        """Neighbor masks as int64: entry j holds the neighbors of node j + 1."""
        adjacency = [0] * self.node_count
        for u, v in self.edges:
            adjacency[u - 1] |= 1 << (v - 1)
            adjacency[v - 1] |= 1 << (u - 1)
        return np.array(adjacency, dtype=np.int64)


def _alive(net: Network, alive) -> np.ndarray:
    """One alive mask or an integer array of them, as a 1-D int64 array."""
    if net.node_count > 63:
        raise CapacityError(f"{net.node_count} nodes exceed the 63 bits of a mask array")
    return _check_ints(np.atleast_1d(np.asarray(alive)), "alive masks", 0, net.full_mask)


def _components(adjacency: np.ndarray, alive: np.ndarray):
    """Round r yields each alive mask's r-th component by lowest node (0 when none is
    left), peeled bit-parallel: seed the lowest node, grow by one masked OR per node."""
    remaining, nodes = alive, np.arange(len(adjacency))
    while remaining.any():
        comp = frontier = remaining & -remaining
        while frontier.any():
            reach = np.zeros_like(frontier)
            for j in np.flatnonzero(np.bitwise_or.reduce(frontier) >> nodes & 1):
                reach |= -((frontier >> j) & 1) & adjacency[j]
            frontier = reach & remaining & ~comp
            comp = comp | frontier
        yield comp
        remaining = remaining & ~comp


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
        if not _finite_real(self.exponent):
            raise InvalidInputError(f"exponent {self.exponent!r} is not a finite real number")

    def evaluate(self, net: Network, alive):
        """Score of the surviving graph: a ``float`` for one alive mask, an array for many."""
        masks = _alive(net, alive)
        score = np.zeros(masks.shape)
        values = net.node_values or (1.0,) * net.node_count
        past_range = f"value function {self.kind!r} scores past the float range"
        for comp in _components(net.adjacency(), masks):
            size = np.bitwise_count(comp).astype(np.int64)
            if self.kind == "connected_pairs":
                score += size * (size - 1) // 2
            elif self.kind == "largest_component":
                np.maximum(score, size, out=score)
            else:
                # Masses add node by node in ascending order; each distinct mass
                # takes Python's ** (numpy's power rounds some last bits apart).
                live = comp != 0
                with np.errstate(over="ignore"):  # an overflow shows as inf, caught below
                    mass = sum(((comp[live] >> j) & 1) * v for j, v in enumerate(values))
                if not np.isfinite(mass).all():
                    raise InvalidInputError(past_range)
                if np.any(mass < 0) and not float(self.exponent).is_integer():
                    raise InvalidInputError(f"negative component mass ** {self.exponent}")
                distinct, inverse = np.unique(mass, return_inverse=True)
                try:
                    powers = [m ** self.exponent for m in distinct.tolist()]
                except (OverflowError, ZeroDivisionError):
                    raise InvalidInputError(f"a component mass ** {self.exponent} "
                                            "is not a finite float") from None
                with np.errstate(over="ignore"):
                    score[live] += np.array(powers)[inverse]
        if not np.isfinite(score).all():
            raise InvalidInputError(past_range)
        return float(score[0]) if np.ndim(alive) == 0 else score


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
        if self.kind == "threshold_cascade" and not (
                _finite_real(self.threshold) and 0 < self.threshold <= 1):
            raise InvalidInputError("threshold_cascade needs a threshold in (0, 1]")

    def apply(self, net: Network, alive):
        """Surviving nodes: an ``int`` for one alive mask, an int64 array for many."""
        current = _alive(net, alive)
        adjacency = net.adjacency()
        degree = np.bitwise_count(adjacency)
        while self.kind == "threshold_cascade":
            doomed = np.zeros_like(current)
            for j in np.flatnonzero(degree):
                starved = np.bitwise_count(adjacency[j] & current) / degree[j] < self.threshold
                doomed |= starved.astype(np.int64) << j
            if not (current & doomed).any():
                break
            current &= ~doomed
        return int(current[0]) if np.ndim(alive) == 0 else current


def induce_benefit(net: Network, value_fn: ValueFunction, failure: FailureOperator,
                   attacker_cap: int) -> SetFunction:
    """Benefit of each attack of at most ``attacker_cap`` >= 0 targets: value lost after failure."""
    attacker_cap = _check_int(attacker_cap, "size cap")
    n = net.node_count
    count = sum(comb(n, i) for i in range(min(attacker_cap, n) + 1))
    if count > INDUCE_GUARD:
        raise CapacityError(f"benefit induction over {count} subsets exceeds the guard")
    ground = GroundSet(n)
    attacks = np.array(masks_up_to_size(n, attacker_cap), dtype=np.int64)
    surviving = failure.apply(net, net.full_mask & ~attacks)
    drop = value_fn.evaluate(net, net.full_mask) - value_fn.evaluate(net, surviving)
    kept = np.flatnonzero(drop != 0)
    return SetFunction(ground, dict(zip(attacks[kept].tolist(), drop[kept].tolist())))


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of the coefficient-threshold approximation.

    ``game`` is the compact game of ``spec``, built from the kept coefficients.
    ``error_bound`` is the guaranteed cap ``2^(c+1) * eps_c`` on the game-value
    perturbation. Every dropped coefficient had magnitude at most ``eps_c``.
    """

    spec: GameSpec
    game: CompactGame
    eps_c: float
    error_bound: float
    dropped_terms: int

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """``game.support.components``, partitioned when first read, as for ``net``'s printout."""
        return self.game.support.components


def separable_approximation(benefit: SetFunction, attacker_cost: SetFunction,
                            defender_cost: SetFunction, eps_c: float, attacker_cap: int,
                            *, defender_cap: int | None = None) -> ApproxResult:
    """Zero out small benefit interactions and package the approximate game."""
    spec = GameSpec(benefit.ground, benefit, attacker_cost, defender_cost, attacker_cap,
                    benefit.ground.n if defender_cap is None else defender_cap)
    if not (_finite_real(eps_c) and eps_c >= 0
            and isfinite(error_bound := float(2 ** (spec.attacker_cap + 1) * eps_c))):
        raise InvalidInputError("eps_c must be nonnegative, with a finite bound 2^(c+1) * eps_c")
    masks, table = _coefficient_table(spec)
    dropped = (table[0] != 0) & (np.abs(table[0]) <= eps_c)
    table[0, dropped] = 0.0
    game = CompactGame.from_coefficients(spec, masks, table)
    kept = MobiusTransform(benefit.ground, _entries(masks, table[0]))
    spec = replace(spec, benefit=zeta(kept, max_size=attacker_cap))
    return ApproxResult(spec=spec, game=game, eps_c=float(eps_c), error_bound=error_bound,
                        dropped_terms=int(dropped.sum()))


def solve_network_game(net: Network, value_fn: ValueFunction, failure: FailureOperator,
                       attacker_cap: int, eps_c: float, config: SolverConfig | None = None,
                       attacker_cost: SetFunction | None = None,
                       defender_cost: SetFunction | None = None, trace: list | None = None,
                       defender_cap: int | None = None) -> tuple[EquilibriumReport, ApproxResult]:
    """Induce the benefit, approximate, and solve.

    Costs default to zero, and ``defender_cap`` to every node. The returned
    report is the equilibrium of the approximated game; the true value lies
    within ``error_bound`` of it.
    """
    zero = SetFunction(GroundSet(net.node_count))
    approx = separable_approximation(
        induce_benefit(net, value_fn, failure, attacker_cap),
        zero if attacker_cost is None else attacker_cost,
        zero if defender_cost is None else defender_cost,
        eps_c, attacker_cap, defender_cap=defender_cap)
    return solve_compact(approx.spec, config, trace=trace, game=approx.game), approx


def network_from_text(text: str) -> Network:
    """Parse a graph file: JSON ``{"nodes": N, "edges": [[u, v], ...], "values": [...]}``
    (edges and values optional) if it starts with ``{``, else an edge list of a ``nodes N``
    line and ``u v`` lines, ``#`` comments skipped. Raises :class:`FormatError`."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
        if not isinstance(doc, dict) or "nodes" not in doc:
            raise FormatError("graph JSON needs a 'nodes' field")
        n, edges, values = doc["nodes"], doc.get("edges", []), doc.get("values")
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges):
            raise FormatError("graph 'edges' must be a list of [u, v] pairs")
        if values is not None and not isinstance(values, list):
            raise FormatError("graph 'values' must be a list of numbers")
    else:
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        if not lines or not lines[0].lower().startswith("nodes"):
            raise FormatError("edge list must start with a 'nodes N' line")
        head = lines[0].split()
        if len(head) != 2 or not head[1].isdigit():
            raise FormatError(f"bad header line {lines[0]!r}, expected 'nodes N'")
        n, edges, values = int(head[1]), [], None
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise FormatError(f"bad edge line {ln!r}, expected 'u v'")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise FormatError(f"bad edge line {ln!r}: {exc}") from None
    try:
        return Network(node_count=n, edges=edges, node_values=values)
    except InvalidInputError as exc:
        raise FormatError(str(exc)) from None
