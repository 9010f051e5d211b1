"""Equilibrium computation: brute force and constraint generation.

:func:`solve_bruteforce` expands the dense normal form and solves it as one
matrix game; it is the ground truth for everything else at desk scale.

:func:`solve_compact` never materializes the normal form. It runs a double
oracle over compact coordinates: keep finite sets of embedded attacker and
defender vertices, solve the restricted matrix game between them, then ask
each side's best-response oracle whether any pure strategy beats the current
restricted optimum by more than the gap tolerance. Improving vertices are
added and the loop repeats; since vertex sets only grow inside finite spaces,
termination is guaranteed. On convergence the restricted mixtures are optimal
for the full game, and each vertex maps back to its pure strategy, so both
mixed strategies come out for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compact import (
    CompactGame,
    build_compact_game,
    compact_value,
    marginal_attacker,
    marginal_defender,
    vertex_to_strategy,
)
from .errors import CapacityError, SolverFailureError
from .games import GameSpec, MixedStrategy, expand_normal_form
from .lp import DEFAULT_TOLERANCES, Tolerances, solve_matrix_game
from .oracles import OracleQuery, attacker_oracle, defender_oracle, prepare

SUPPORT_GUARD = 10_000
# At most this many oracle calls per side and round: one against the
# opponent's mixture and one against each of its BR_BATCH - 1 heaviest
# pure vertices.
BR_BATCH = 4


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the constraint-generation solve."""

    eps_gap: float = 1e-7
    max_iterations: int | None = None  # default 10 * support size + 100
    lp_tol: Tolerances = DEFAULT_TOLERANCES


@dataclass(frozen=True)
class EquilibriumReport:
    """Solution summary: value, both mixtures, and solve diagnostics."""

    value: float
    defender: MixedStrategy
    attacker: MixedStrategy
    iterations: int
    support_size: int
    oracle_calls: int
    converged: bool


def solve_bruteforce(spec: GameSpec, *, tol: Tolerances = DEFAULT_TOLERANCES,
                     exact: bool = False) -> EquilibriumReport:
    """Exact equilibrium via the dense normal form; the reference solver."""
    nf = expand_normal_form(spec)
    solution = solve_matrix_game(nf.matrix, tol=tol, exact=exact)
    attacker = MixedStrategy.from_pairs(zip(nf.attacker_strategies, map(float, solution.row_strategy)))
    defender = MixedStrategy.from_pairs(zip(nf.defender_strategies, map(float, solution.col_strategy)))
    return EquilibriumReport(
        value=float(solution.value),
        defender=defender,
        attacker=attacker,
        iterations=1,
        support_size=0,
        oracle_calls=0,
        converged=True,
    )


def _mixture_from_vertices(weights, vertices) -> MixedStrategy:
    pairs = []
    for w, v in zip(weights, vertices):
        if w <= 0:
            continue
        strategy = vertex_to_strategy(v) if v.role == "defender" else v.origin
        pairs.append((strategy, float(w)))
    return MixedStrategy.from_pairs(pairs)


def _check_atom_bound(side, weights, support):
    """A basic restricted optimum uses at most ``support.size`` vertices."""
    atoms = int(np.count_nonzero(weights > 0))
    if atoms > support.size:
        raise SolverFailureError(
            f"restricted {side} mixture has {atoms} atoms, more than the support size",
            diagnostics={"side": side, "atoms": atoms, "support_size": support.size},
        )


def solve_compact(spec: GameSpec, config: SolverConfig | None = None,
                  trace: list | None = None, game: CompactGame | None = None) -> EquilibriumReport:
    """Double-oracle solve over compact coordinates.

    Starts from the empty-set vertex on both sides, alternates restricted
    matrix-game solves with best-response oracle calls, and stops when
    neither player can improve by more than ``config.eps_gap``. The oracle
    tables are prepared once from the support and caps; ``game`` is the
    prepared compact game of ``spec``, built here if not given. If ``trace``
    is a list, one record per round is appended with the restricted value,
    both gaps, and the vertices added.

    Each mixture has at most ``|S|`` atoms (``S`` the support): the
    restricted payoff matrix factors through the ``|S|`` compact coordinates,
    so its rank is at most ``|S|`` and a basic LP optimum puts positive
    weight on at most that many vertices. A restricted mixture that breaks
    the bound raises :class:`SolverFailureError`.
    """
    config = config or SolverConfig()
    game = game or build_compact_game(spec)
    support = game.support
    if support.size > SUPPORT_GUARD:
        raise CapacityError(f"support of size {support.size} exceeds the guard")
    prepared = prepare(support, spec.attacker_cap, spec.defender_cap)
    max_rounds = config.max_iterations
    if max_rounds is None:
        max_rounds = 10 * support.size + 100

    attack_vertices = [game.embed_attacker(0)]
    defense_vertices = [game.embed_defender(0)]
    attack_seen = {0}
    defense_seen = {0}
    payoff = np.array([[compact_value(game, attack_vertices[0].coords,
                                      defense_vertices[0].coords)]])

    oracle_calls = 0
    rounds = 0
    converged = False
    row_mix = np.array([1.0])
    col_mix = np.array([1.0])
    value = float(payoff[0, 0])

    while rounds < max_rounds:
        rounds += 1
        solution = solve_matrix_game(payoff, tol=config.lp_tol)
        row_mix = np.asarray(solution.row_strategy, dtype=float)
        col_mix = np.asarray(solution.col_strategy, dtype=float)
        value = float(solution.value)

        pa = sum(w * v.coords for w, v in zip(row_mix, attack_vertices))
        qd = sum(w * v.coords for w, v in zip(col_mix, defense_vertices))

        # Best responses against the opponent's mixture, plus responses to
        # the heaviest pure vertices of that mixture to harvest extra
        # violated columns per round.
        attack_targets = [qd]
        defense_targets = [pa]
        heavy_d = np.argsort(-col_mix)[: BR_BATCH - 1]
        attack_targets += [defense_vertices[j].coords for j in heavy_d if col_mix[j] > 0]
        heavy_a = np.argsort(-row_mix)[: BR_BATCH - 1]
        defense_targets += [attack_vertices[j].coords for j in heavy_a if row_mix[j] > 0]

        attacker_gap = -np.inf
        new_attacks = {}
        for target in attack_targets:
            w = game.benefit_vec * target - game.attacker_cost_vec
            br = attacker_oracle(OracleQuery(w, spec.attacker_cap), support, prepared=prepared)
            oracle_calls += 1
            if target is qd:
                attacker_gap = br.value + float(game.defender_cost_vec @ qd) - value
            if br.strategy not in attack_seen:
                new_attacks.setdefault(br.strategy, br)

        defender_gap = -np.inf
        new_defenses = {}
        for target in defense_targets:
            w = -(game.benefit_vec * target + game.defender_cost_vec)
            br = defender_oracle(OracleQuery(w, spec.defender_cap), support, prepared=prepared)
            oracle_calls += 1
            if target is pa:
                defender_gap = value - (-br.value - float(game.attacker_cost_vec @ pa))
            if br.strategy not in defense_seen:
                new_defenses.setdefault(br.strategy, br)

        if trace is not None:
            trace.append({
                "iteration": rounds,
                "restricted_value": value,
                "attacker_gap": float(attacker_gap),
                "defender_gap": float(defender_gap),
                "attacker_vertices": len(attack_vertices),
                "defender_vertices": len(defense_vertices),
                "added_attacks": sorted(new_attacks),
                "added_defenses": sorted(new_defenses),
            })

        if attacker_gap <= config.eps_gap and defender_gap <= config.eps_gap:
            converged = True
            break

        grew = False
        if attacker_gap > config.eps_gap:
            for br in new_attacks.values():
                attack_seen.add(br.strategy)
                new_row = np.array([[compact_value(game, br.vertex.coords, v.coords)
                                     for v in defense_vertices]])
                payoff = np.vstack([payoff, new_row])
                attack_vertices.append(br.vertex)
                grew = True
        if defender_gap > config.eps_gap:
            for br in new_defenses.values():
                defense_seen.add(br.strategy)
                new_col = np.array([[compact_value(game, v.coords, br.vertex.coords)]
                                    for v in attack_vertices])
                payoff = np.hstack([payoff, new_col])
                defense_vertices.append(br.vertex)
                grew = True
        if not grew:
            # No vertex left to add: the restricted game already contains
            # both best responses, so the gaps are numerical residue.
            converged = attacker_gap <= 10 * config.eps_gap and defender_gap <= 10 * config.eps_gap
            break

    _check_atom_bound("attacker", row_mix, support)
    _check_atom_bound("defender", col_mix, support)

    return EquilibriumReport(
        value=value,
        defender=_mixture_from_vertices(col_mix, defense_vertices),
        attacker=_mixture_from_vertices(row_mix, attack_vertices),
        iterations=rounds,
        support_size=support.size,
        oracle_calls=oracle_calls,
        converged=converged,
    )


def best_response_gap(spec: GameSpec, report: EquilibriumReport,
                      game: CompactGame | None = None) -> tuple[float, float]:
    """Exact improvement available to each player against the report's mixtures.

    Recomputed from scratch through the oracles, so it certifies a solution
    without trusting the path that produced it. Both gaps within tolerance
    means the pair is an equilibrium of the zero-sum-equivalent game (and so
    of the original game).
    """
    game = game or build_compact_game(spec)
    support = game.support
    prepared = prepare(support, spec.attacker_cap, spec.defender_cap)
    pa = marginal_attacker(support, report.attacker.atoms)
    qd = marginal_defender(support, report.defender.atoms)
    current = compact_value(game, pa, qd)

    w_att = game.benefit_vec * qd - game.attacker_cost_vec
    br_att = attacker_oracle(OracleQuery(w_att, spec.attacker_cap), support, prepared=prepared)
    attacker_best = br_att.value + float(game.defender_cost_vec @ qd)

    w_def = -(game.benefit_vec * pa + game.defender_cost_vec)
    br_def = defender_oracle(OracleQuery(w_def, spec.defender_cap), support, prepared=prepared)
    defender_best = -br_def.value - float(game.attacker_cost_vec @ pa)

    return attacker_best - current, current - defender_best
