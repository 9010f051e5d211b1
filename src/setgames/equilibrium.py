"""Equilibrium computation: brute force and constraint generation.

:func:`solve_bruteforce` expands the dense normal form and solves it as one
matrix game; it is the ground truth for everything else at desk scale.

:func:`solve_compact` never materializes the normal form. It runs a double
oracle over compact coordinates. The restricted game is two strategy lists
with their stacked coordinates P (attacks) and Q (defenses), and its payoff
matrix is :func:`~setgames.compact.payoff_block` of the two. Each round
solves it and asks each side's oracle for a best response at the restricted
optimum; a side whose response beats it by more than the gap tolerance asks
again at a smoothed point (Wentges smoothing, :data:`SMOOTHING`): at most two
queries per side and round. New attacks add one block of rows against Q,
new defenses one block of columns against P; as the lists only grow inside
finite spaces, the solve terminates. The stop rule reads the gaps at the
optimum alone, so on convergence the restricted mixtures are optimal for the
full game. :func:`best_response_gap` certifies a report with the same steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compact import (
    CompactGame,
    build_compact_game,
    compact_value,
    coordinates,
    marginal_attacker,
    marginal_defender,
    payoff_block,
)
from .errors import CapacityError, SolverFailureError
from .games import GameSpec, MixedStrategy, expand_normal_form
from .lp import solve_matrix_game
from .oracles import attacker_oracle, defender_oracle

SUPPORT_GUARD = 10_000
# Weight of the last round's smoothed point (round 1: none) against the round's
# restricted optimum in its smoothed query point; 0 queries the optimum only.
SMOOTHING = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the constraint-generation solve."""

    eps_gap: float = 1e-7
    max_iterations: int | None = None  # default 10 * support size + 100


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


def solve_bruteforce(spec: GameSpec, *, exact: bool = False) -> EquilibriumReport:
    """Exact equilibrium via the dense normal form; the reference solver."""
    nf = expand_normal_form(spec)
    solution = solve_matrix_game(nf.matrix, exact=exact)
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


def _attacker_response(game, qd, current):
    """Best attack against defense coordinates ``qd`` and its gain over payoff ``current``."""
    w = game.benefit_vec * qd - game.attacker_cost_vec
    attack, value = attacker_oracle(game.oracle, w)
    return attack, value + float(game.defender_cost_vec @ qd) - current


def _defender_response(game, pa, current):
    """Best defense against attack coordinates ``pa`` and its gain under payoff ``current``."""
    w = -(game.benefit_vec * pa + game.defender_cost_vec)
    defense, value = defender_oracle(game.oracle, w)
    return defense, current + (value + float(game.attacker_cost_vec @ pa))


def _responses(respond, value, eps_gap, game, point, smoothed, known):
    """One side's round: ``respond`` at ``point``, the opponent's restricted
    optimum in compact coordinates, gives the side's gap over ``value``, which
    alone decides the stop rule. Only when the gap exceeds ``eps_gap`` also
    respond at the ``smoothed`` point, unless it equals ``point``. Returns the
    gap, the strategies the round adds (those not in ``known``, in discovery
    order; none for a side within tolerance), and the number of oracle calls."""
    best, gap = respond(game, point, value)
    if gap <= eps_gap:
        return gap, [], 1
    again = not np.array_equal(smoothed, point)
    found = [best, respond(game, smoothed, value)[0]] if again else [best]
    return gap, [s for s in dict.fromkeys(found) if s not in known], len(found)


def _check_atom_bound(side, weights, support):
    """A basic restricted optimum uses at most ``support.size`` strategies."""
    atoms = int(np.count_nonzero(weights > 0))
    if atoms > support.size:
        raise SolverFailureError(
            f"restricted {side} mixture has {atoms} atoms, more than the support size",
            diagnostics={"side": side, "atoms": atoms, "support_size": support.size},
        )


def solve_compact(spec: GameSpec, config: SolverConfig | None = None,
                  trace: list | None = None, game: CompactGame | None = None) -> EquilibriumReport:
    """Double-oracle solve over compact coordinates.

    Starts from the empty attack and the empty defense, alternates restricted
    matrix-game solves with best-response oracle calls, and stops when
    neither player can improve by more than ``config.eps_gap``. Each round's
    restricted game is the last one with rows added at the bottom and
    columns at the right, so its solve starts from the last round's optimal
    basis: a dual simplex repairs the rows of the new attacks, then the
    primal simplex prices the new defenses. ``game`` is the compact game of
    ``spec``, built here if not given; the oracles run on its tables
    (:attr:`~setgames.compact.CompactGame.oracle`), so a certificate given
    the same game reuses them. If ``trace`` is a list, one record per
    round is appended with the restricted value, both gaps, the strategy
    counts, the LP's pivots, the oracle calls of both sides, and the
    strategies the round adds.

    Each mixture has at most ``|S|`` atoms (``S`` the support): the
    restricted payoff matrix factors through the ``|S|`` compact coordinates,
    so its rank is at most ``|S|``. A basic LP optimum puts positive weight
    on at most that many columns, and its dual, read from the same tableau,
    on at most as many rows. A restricted mixture that breaks
    the bound raises :class:`SolverFailureError`.
    """
    config = config or SolverConfig()
    game = game or build_compact_game(spec)
    support = game.support
    if support.size > SUPPORT_GUARD:
        raise CapacityError(f"support of size {support.size} exceeds the guard")
    max_rounds = config.max_iterations
    if max_rounds is None:
        max_rounds = 10 * support.size + 100

    attacks, defenses = [0], [0]
    P = coordinates(attacks, support, "attacker")
    Q = coordinates(defenses, support, "defender")
    payoff = payoff_block(game, P, Q)

    oracle_calls = 0
    rounds = 0
    converged = False
    row_mix = np.array([1.0])
    col_mix = np.array([1.0])
    value = float(payoff[0, 0])
    basis = None

    while rounds < max_rounds:
        rounds += 1
        solution = solve_matrix_game(payoff, start=basis)
        basis = solution.basis
        row_mix = np.asarray(solution.row_strategy, dtype=float)
        col_mix = np.asarray(solution.col_strategy, dtype=float)
        value = float(solution.value)

        points = (col_mix @ Q, row_mix @ P)
        smoothed = points if rounds == 1 else tuple(
            SMOOTHING * c + (1 - SMOOTHING) * x for c, x in zip(smoothed, points))
        attacker_gap, new_attacks, calls_a = _responses(
            _attacker_response, value, config.eps_gap, game, points[0], smoothed[0], attacks)
        defender_gap, new_defenses, calls_d = _responses(
            _defender_response, value, config.eps_gap, game, points[1], smoothed[1], defenses)
        oracle_calls += calls_a + calls_d

        if trace is not None:
            trace.append({
                "iteration": rounds,
                "restricted_value": value,
                "attacker_gap": float(attacker_gap),
                "defender_gap": float(defender_gap),
                "attacker_vertices": len(attacks),
                "defender_vertices": len(defenses),
                "lp_pivots": solution.pivots,
                "oracle_calls": calls_a + calls_d,
                "added_attacks": sorted(new_attacks),
                "added_defenses": sorted(new_defenses),
            })

        if attacker_gap <= config.eps_gap and defender_gap <= config.eps_gap:
            converged = True
            break
        if not new_attacks and not new_defenses:
            # No strategy left to add: the restricted game already contains
            # both best responses, so the gaps are numerical residue.
            converged = attacker_gap <= 10 * config.eps_gap and defender_gap <= 10 * config.eps_gap
            break
        if new_attacks:
            rows = coordinates(new_attacks, support, "attacker")
            payoff = np.vstack([payoff, payoff_block(game, rows, Q)])
            P = np.vstack([P, rows])
            attacks += new_attacks
        if new_defenses:
            cols = coordinates(new_defenses, support, "defender")
            payoff = np.hstack([payoff, payoff_block(game, P, cols)])
            Q = np.vstack([Q, cols])
            defenses += new_defenses

    _check_atom_bound("attacker", row_mix, support)
    _check_atom_bound("defender", col_mix, support)

    return EquilibriumReport(
        value=value,
        defender=MixedStrategy.from_pairs(zip(defenses, col_mix)),
        attacker=MixedStrategy.from_pairs(zip(attacks, row_mix)),
        iterations=rounds,
        support_size=support.size,
        oracle_calls=oracle_calls,
        converged=converged,
    )


def best_response_gap(spec: GameSpec, report: EquilibriumReport,
                      game: CompactGame | None = None) -> tuple[float, float]:
    """Exact improvement available to each player against the report's mixtures.

    Fresh oracle calls against the report's mixtures, on the game's read-only
    tables: the solve's own when it was given the same game (rebuilding them
    by the same code checks nothing more; an independent check needs exact
    arithmetic). Both gaps within tolerance means the pair is an equilibrium
    of the zero-sum-equivalent game (and so of the original game).
    """
    game = game or build_compact_game(spec)
    pa = marginal_attacker(game.support, report.attacker.atoms)
    qd = marginal_defender(game.support, report.defender.atoms)
    current = compact_value(game, pa, qd)
    return _attacker_response(game, qd, current)[1], _defender_response(game, pa, current)[1]
