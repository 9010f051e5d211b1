"""Seeded workload instances, the timed operation, and its correctness gate.

An operation carries one game from its inputs to a certified equilibrium:

* network instances: ``induce_benefit`` -> ``separable_approximation`` with a
  binding defender cap -> ``solve_compact`` -> certification;
* dense game instances: ``solve_compact`` -> certification.

Certification (:func:`gate`) recomputes both best-response gaps and the
payoff at the reported mixtures, and checks the reported mixtures and value
against a dense reference built during set-up. An operation fails when the
library raises a ``SetGameError`` or when any check of the gate does not
hold.

Every library call goes through the ``setgames`` package namespace at call
time, so the timing wrappers of :mod:`tracer` see it when they are installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

import setgames as sg
from setgames.errors import SetGameError

# Gaps and value errors are judged relative to the instance's payoff scale.
GAP_TOL = 1e-6

DENSE_SCALES = (1e-6, 1.0, 1e6)


@dataclass(frozen=True)
class DenseReference:
    """The dense normal form of a game at unit payoff scale, built in set-up.

    ``value`` is the brute-force game value when one is available. The float
    brute-force solve does not terminate on the network normal forms of this
    benchmark, so network references carry the matrix only; the gate then
    certifies the reported mixtures against the matrix directly.
    """

    matrix: np.ndarray
    attacker_index: dict
    defender_index: dict
    value: float | None


@dataclass(frozen=True)
class NetInstance:
    """A network game: graph, caps and threshold; benefit is induced per run.

    ``benefit`` is the exact induced benefit, computed in set-up; the gate
    uses it to check the approximation bound at the reported mixtures.
    """

    label: str
    net: sg.Network
    attacker_cap: int
    defender_cap: int
    eps_c: float
    scale: float
    benefit: sg.SetFunction
    reference: DenseReference | None
    factor: float = 1.0


@dataclass(frozen=True)
class GameInstance:
    """A game given directly by its utilities."""

    label: str
    spec: sg.GameSpec
    scale: float
    reference: DenseReference | None
    factor: float  # payoffs are the reference game's times this factor


@dataclass(frozen=True)
class Outcome:
    """Result of one operation.

    ``reason`` is ``None`` when the gate passed. ``fingerprint`` holds every
    deterministic output, so two passes over the same instance must produce
    equal fingerprints. ``rounds`` and ``added_vertices`` come from
    ``solve_compact``'s round log and are kept for failed operations too.
    """

    label: str
    reason: str | None
    fingerprint: tuple
    rounds: int
    added_vertices: int
    converged: bool | None


# ---------------------------------------------------------------------------
# generators


def grid_network(rng: np.random.Generator, rows: int, cols: int) -> sg.Network:
    """rows x cols grid graph with node labels drawn as a seeded permutation.

    Labels are converted to Python ints: ``Network`` calls ``.bit_length()``
    on node ids and fails on numpy integers.
    """
    n = rows * cols
    label = [int(x) + 1 for x in rng.permutation(n)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((label[u], label[u + 1]))
            if r + 1 < rows:
                edges.append((label[u], label[u + cols]))
    return sg.Network(node_count=n, edges=tuple(edges))


def random_set_function(rng, n, cap, scale=1.0) -> sg.SetFunction:
    """Normal random values on every nonempty subset of size at most ``cap``."""
    entries = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() <= cap:
            entries[mask] = float(rng.normal()) * scale
    return sg.SetFunction(sg.GroundSet(n), entries)


def random_game(rng, n, c, k) -> sg.GameSpec:
    """Dense random benefit plus both costs, as the test suite's generator."""
    return sg.GameSpec(
        ground=sg.GroundSet(n),
        benefit=random_set_function(rng, n, c),
        attacker_cost=random_set_function(rng, n, c, scale=0.3),
        defender_cost=random_set_function(rng, n, k, scale=0.3),
        attacker_cap=c,
        defender_cap=k,
    )


def scaled_game(spec: sg.GameSpec, factor: float) -> sg.GameSpec:
    """The same game with every payoff multiplied by ``factor``."""

    def scale(fn):
        return sg.SetFunction(fn.ground, {m: v * factor for m, v in fn.entries.items()},
                              default=fn.default * factor)

    return sg.GameSpec(ground=spec.ground, benefit=scale(spec.benefit),
                       attacker_cost=scale(spec.attacker_cost),
                       defender_cost=scale(spec.defender_cost),
                       attacker_cap=spec.attacker_cap, defender_cap=spec.defender_cap)


def payoff_scale(spec: sg.GameSpec) -> float:
    return max(spec.benefit.max_abs(), spec.attacker_cost.max_abs(),
               spec.defender_cost.max_abs())


# ---------------------------------------------------------------------------
# workloads

# (rows, cols, attacker cap c, defender cap k, eps_c, count)
NET_SMALL = ((3, 4, 2, 2, 0.5, 6), (4, 5, 2, 2, 2.0, 6))
NET_WIDE = ((5, 6, 4, 3, 20.0, 2),)
DENSE = dict(n=10, c=3, k=3)

# Normal forms above this many cells get no dense reference.
REFERENCE_CELLS = 250_000


def dense_reference(spec: sg.GameSpec, value: float | None = None) -> DenseReference:
    nf = sg.expand_normal_form(spec)
    return DenseReference(
        matrix=nf.matrix,
        attacker_index={m: i for i, m in enumerate(nf.attacker_strategies)},
        defender_index={m: j for j, m in enumerate(nf.defender_strategies)},
        value=value,
    )


def _net_instances(rng, ladder) -> list[NetInstance]:
    out = []
    value_fn = sg.ValueFunction()
    for rows, cols, c, k, eps, count in ladder:
        for i in range(count):
            net = grid_network(rng, rows, cols)
            scale = value_fn.evaluate(net, net.full_mask)
            reference = None
            n = rows * cols
            cells = sum(comb(n, j) for j in range(c + 1)) * sum(comb(n, j) for j in range(k + 1))
            benefit = induce(net, c)
            if cells <= REFERENCE_CELLS:
                reference = dense_reference(approximate(benefit, c, k, eps).spec)
            out.append(NetInstance(f"grid{rows}x{cols}-c{c}k{k}-eps{eps:g}#{i}", net,
                                   c, k, eps, scale, benefit, reference))
    return out


def _dense_instances(rng, games: int, scales: tuple) -> list[GameInstance]:
    out = []
    for i in range(games):
        base = random_game(rng, DENSE["n"], DENSE["c"], DENSE["k"])
        # The value scales linearly with the payoffs; float brute force is
        # itself wrong at large scales, so the reference is taken at x1.
        reference = dense_reference(base, sg.solve_bruteforce(base).value)
        for factor in scales:
            spec = scaled_game(base, factor)
            out.append(GameInstance(f"dense{i}x{factor:g}", spec, payoff_scale(spec),
                                    reference, factor))
    return out


WORKLOADS = {
    "net-small": lambda rng: _net_instances(rng, NET_SMALL),
    "net-wide": lambda rng: _net_instances(rng, NET_WIDE),
    "dense": lambda rng: _dense_instances(rng, 48, (1.0,)),
    "dense-scaled": lambda rng: _dense_instances(rng, 32, DENSE_SCALES),
}


def build(workload: str, seed: int) -> list:
    """Set-up: the workload's instances and their references, from the seed."""
    return WORKLOADS[workload](np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# the operation


def induce(net: sg.Network, c: int) -> sg.SetFunction:
    """Connected-pairs benefit under node removal, for attacks of size <= c."""
    return sg.induce_benefit(net, sg.ValueFunction(), sg.FailureOperator(), c)


def approximate(benefit: sg.SetFunction, c: int, k: int, eps: float) -> sg.ApproxResult:
    """The benefit thresholded at ``eps``, zero costs, defender cap ``k``."""
    zero = sg.SetFunction(benefit.ground)
    return sg.separable_approximation(benefit, zero, zero, eps, c, defender_cap=k)


def gate(instance, spec: sg.GameSpec, report: sg.EquilibriumReport) -> str | None:
    """Certify a reported equilibrium; returns the failure reasons, or None."""
    tol = GAP_TOL * instance.scale
    reasons = []
    if not report.converged:
        reasons.append("converged=False")
    game = sg.build_compact_game(spec)
    attacker_gap, defender_gap = sg.best_response_gap(spec, report, game)
    if attacker_gap > tol:
        reasons.append(f"attacker gap {attacker_gap:.3g} > {tol:.3g}")
    if defender_gap > tol:
        reasons.append(f"defender gap {defender_gap:.3g} > {tol:.3g}")
    at_mixtures = sg.compact_value(
        game,
        sg.marginal_attacker(game.support, report.attacker.atoms),
        sg.marginal_defender(game.support, report.defender.atoms),
    )
    if abs(report.value - at_mixtures) > tol:
        reasons.append(f"value {report.value!r} != {at_mixtures!r} at the mixtures")
    if instance.reference is not None:
        reasons += _dense_check(instance.reference, instance.factor, report, tol)
    if isinstance(instance, NetInstance):
        # Thresholding moves each payoff entry by at most 2^c * eps_c, so the
        # exact game's payoff at the reported mixtures stays that close.
        exact = sum(pa * pd * instance.benefit.value(a & ~d)
                    for a, pa in report.attacker.atoms for d, pd in report.defender.atoms)
        bound = 2 ** instance.attacker_cap * instance.eps_c + tol
        if abs(exact - report.value) > bound:
            reasons.append(f"exact payoff {exact!r} is {abs(exact - report.value):.3g} from"
                           f" the value, over the approximation bound {bound:.3g}")
    return "; ".join(reasons) or None


def _dense_check(ref: DenseReference, factor: float, report, tol: float) -> list[str]:
    """Check the report against the dense normal form scaled by ``factor``."""
    p = np.zeros(len(ref.attacker_index))
    q = np.zeros(len(ref.defender_index))
    for vec, index, mix in ((p, ref.attacker_index, report.attacker),
                            (q, ref.defender_index, report.defender)):
        for mask, prob in mix.atoms:
            if mask not in index:
                return [f"atom {mask:#x} is not a legal strategy"]
            vec[index[mask]] = prob
    payoff = factor * float(p @ ref.matrix @ q)
    reasons = []
    if abs(report.value - payoff) > tol:
        reasons.append(f"value {report.value!r} != dense payoff {payoff!r}")
    attacker_best = factor * float(np.max(ref.matrix @ q))
    defender_best = factor * float(np.min(p @ ref.matrix))
    if attacker_best - payoff > tol or payoff - defender_best > tol:
        reasons.append(f"dense gaps {attacker_best - payoff:.3g}, {payoff - defender_best:.3g}"
                       f" > {tol:.3g}")
    if ref.value is not None and abs(report.value - factor * ref.value) > tol:
        reasons.append(f"value {report.value!r} != reference {factor * ref.value!r}")
    return reasons


def solve(instance, log: list) -> tuple[sg.GameSpec, sg.EquilibriumReport]:
    """The solve half of an operation; ``log`` receives the round records."""
    if isinstance(instance, NetInstance):
        c = instance.attacker_cap
        spec = approximate(induce(instance.net, c), c, instance.defender_cap,
                           instance.eps_c).spec
    else:
        spec = instance.spec
    return spec, sg.solve_compact(spec, trace=log)


def _added_vertices(log: list) -> int:
    eps = sg.SolverConfig().eps_gap
    added = 0
    for record in log:
        if record["attacker_gap"] > eps:
            added += len(record["added_attacks"])
        if record["defender_gap"] > eps:
            added += len(record["added_defenses"])
    return added


def run_operation(instance) -> Outcome:
    """Solve and certify one instance; a ``SetGameError`` is a failure."""
    log: list = []
    try:
        spec, report = solve(instance, log)
        reason = gate(instance, spec, report)
    except SetGameError as exc:
        reason = f"{type(exc).__name__}: {exc}"
        return Outcome(instance.label, reason, (reason, len(log)), len(log),
                       _added_vertices(log), None)
    fingerprint = (reason, report.value, report.attacker.atoms, report.defender.atoms,
                   report.iterations, report.oracle_calls, report.support_size,
                   report.converged, len(log))
    return Outcome(instance.label, reason, fingerprint, len(log), _added_vertices(log),
                   report.converged)
