"""Equilibrium computation: brute force and constraint generation.

:func:`solve_bruteforce` expands the dense normal form and solves it as one
matrix game; it is the ground truth for everything else at desk scale.

:func:`solve_compact` never materializes the normal form. It runs a double
oracle over compact coordinates. The restricted game is two strategy lists
with their stacked coordinates P (attacks) and Q (defenses). It starts from
the oracle tables' distinct strategies when that game is small (:data:`SEED_CELLS`;
:attr:`~setgames.oracles.PreparedOracle.seed`), else from the empty attack and
defense; blocks added later are :func:`~setgames.compact.payoff_block`. Each round
solves it and takes one best-response step (:func:`_gains`): one oracle
query per side at the restricted optimum ranks the side's best response and,
unseeded, :data:`POOL` runner-ups (a column pool) by their gain over the
restricted value. A side whose gap beats the gap tolerance adds each listed
strategy that does too and is new. New attacks add one block of rows against Q,
new defenses one block of columns against P; as the lists only grow inside
finite spaces, the solve terminates. A round that adds nothing ends it, and
the gaps at the optimum alone decide convergence, so then the restricted
mixtures are optimal for the full game. :func:`best_response_gap` certifies
a report by the same step without runner-ups.
"""

from __future__ import annotations

import itertools
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
from .errors import CapacityError, InvalidInputError, SolverFailureError
from .games import GameSpec, MixedStrategy, expand_normal_form
from .lp import solve_matrix_game
from .oracles import attacker_oracle, defender_oracle
from .setfunctions import _finite_real

SUPPORT_GUARD = 10_000
# Runner-ups per oracle query; those that also beat the restricted value by
# more than the gap tolerance join the best response. 0 adds the best only.
POOL = 8
# The restricted game starts as the oracle tables' whole game, one cold LP,
# when its distinct attacks times distinct defenses are at most this many.
SEED_CELLS = 40_000


@dataclass(frozen=True)
class SolverConfig:
    """The gap tolerance of the constraint-generation solve, finite and positive, else
    :class:`InvalidInputError`. No round limit: :func:`solve_compact` stops by itself."""

    eps_gap: float = 1e-7

    def __post_init__(self):
        if not (_finite_real(self.eps_gap) and self.eps_gap > 0):
            raise InvalidInputError(f"eps_gap must be finite and positive, got {self.eps_gap!r}")


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


def solve_bruteforce(spec: GameSpec) -> EquilibriumReport:
    """Equilibrium of the dense normal form as one matrix game; the reference solver."""
    nf = expand_normal_form(spec)
    solution = solve_matrix_game(nf.matrix)
    return EquilibriumReport(
        value=float(solution.value),
        defender=_mixture(nf.defender_strategies, solution.col_strategy),
        attacker=_mixture(nf.attacker_strategies, solution.row_strategy),
        iterations=1,
        support_size=0,
        oracle_calls=0,
        converged=True,
    )


def _mixture(strategies, weights):
    """:meth:`MixedStrategy.from_pairs` of the strategies of weight above 1e-12, in order;
    NaN and infinite weights are kept, so it raises on them."""
    keep = np.flatnonzero((weights > 1e-12) | ~np.isfinite(weights))
    return MixedStrategy.from_pairs(zip([strategies[i] for i in keep], weights[keep].tolist()))


def _gains(game, pa, qd, current, pool=0):
    """One oracle query per side at the marginals ``pa`` (attacks) and ``qd``
    (defenses): the attacker's and the defender's ``(strategy, gain)`` lists
    over payoff ``current``, best response first, then up to ``pool`` runner-ups."""
    attack = attacker_oracle(game.oracle, game.benefit_vec * qd - game.attacker_cost_vec, pool)
    defense = defender_oracle(game.oracle, -(game.benefit_vec * pa + game.defender_cost_vec), pool)
    cost_d, cost_a = float(game.defender_cost_vec @ qd), float(game.attacker_cost_vec @ pa)
    return ([(a, v + cost_d - current) for a, v in [attack[:2], *attack[2]]],
            [(d, current + (v + cost_a)) for d, v in [defense[:2], *defense[2]]])


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

    Starts from the oracle tables' game, every distinct strategy the tables
    list on each side, when it has at most :data:`SEED_CELLS` cells (its payoff
    read through :attr:`~setgames.oracles.PreparedOracle.seed`), and from the
    empty attack and the empty defense otherwise. Each round solves
    the restricted matrix game and queries each side's oracle once, for
    :data:`POOL` runner-ups too when unseeded (a runner-up is one table row,
    and the seeded game holds every row). The first round that adds nothing
    ends the solve, converged if both gaps are within ``10 * eps_gap``; the
    lists only grow inside finite capped spaces, so that round comes. A side
    adds nothing when its gap is within ``config.eps_gap`` or its best
    response is already in the game. A one-component table lists every
    capped strategy, so its seeded solve stops after the first round. Each
    round's restricted game is the last one with rows added at the bottom
    and columns at the right, so its solve starts from the last round's
    optimal basis: a dual simplex repairs the rows of the new attacks, then
    the primal simplex prices the new defenses. ``game`` is the compact game of
    ``spec``, built here if not given; the oracles run on its tables
    (:attr:`~setgames.compact.CompactGame.oracle`), so a certificate given
    the same game, or one of an equal support and caps, reuses them. If
    ``trace`` is a list, one record per round is appended with the
    restricted value, both gaps, the strategy counts, the LP's pivots and
    whether its warm start fell back cold, the oracle calls of both sides
    (always 2), and the strategies the round adds.

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

    tables = (game.oracle.attacks, game.oracle.defenses)
    if tables[0].distinct.size * tables[1].distinct.size <= SEED_CELLS:
        attacks, defenses = (table.distinct.tolist() for table in tables)
        pool = 0  # every runner-up is one table row, already in the seeded game
        P, Q, index = game.oracle.seed  # benefit(A \ D) is the compact benefit at A \ D
        payoff = ((P @ game.benefit_vec)[index] - (P @ game.attacker_cost_vec)[:, None]
                  + (Q @ game.defender_cost_vec)[None, :])
    else:
        attacks, defenses, pool = [0], [0], POOL
        P, Q = coordinates(attacks, support, "attacker"), coordinates(defenses, support, "defender")
        payoff = payoff_block(game, P, Q)

    basis = None
    for rounds in itertools.count(1):
        solution = solve_matrix_game(payoff, start=basis)
        basis = solution.basis
        row_mix = np.asarray(solution.row_strategy, dtype=float)
        col_mix = np.asarray(solution.col_strategy, dtype=float)
        value = float(solution.value)

        gains = _gains(game, row_mix @ P, col_mix @ Q, value, pool)
        gaps = [side[0][1] for side in gains]
        new_attacks, new_defenses = (
            [s for s, gain in side if gain > config.eps_gap and s not in known]
            if gap > config.eps_gap else []
            for side, gap, known in zip(gains, gaps, (attacks, defenses)))

        if trace is not None:
            trace.append({
                "iteration": rounds,
                "restricted_value": value,
                "attacker_gap": gaps[0],
                "defender_gap": gaps[1],
                "attacker_vertices": len(attacks),
                "defender_vertices": len(defenses),
                "lp_pivots": solution.pivots,
                "lp_cold_restart": solution.cold_restart,
                "oracle_calls": 2,
                "added_attacks": sorted(new_attacks),
                "added_defenses": sorted(new_defenses),
            })

        if not new_attacks and not new_defenses:
            # Each side is within tolerance, or its best response is already
            # in the game and its gap numerical residue.
            converged = max(gaps) <= 10 * config.eps_gap
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
        defender=_mixture(defenses, col_mix),
        attacker=_mixture(attacks, row_mix),
        iterations=rounds,
        support_size=support.size,
        oracle_calls=2 * rounds,
        converged=converged,
    )


def best_response_gap(spec: GameSpec, report: EquilibriumReport,
                      game: CompactGame | None = None) -> tuple[float, float]:
    """Exact improvement available to each player against the report's mixtures.

    The solve's best-response step, without runner-ups, against the report's
    mixtures on the game's read-only tables: the solve's own when it was
    given the same game, or a game of an equal support and caps prepared last
    (rebuilding them by the same code checks nothing more; an independent
    check needs exact arithmetic). Both gaps within tolerance means the pair
    is an equilibrium of the zero-sum-equivalent game (and so of the original
    game). Compact coordinates can read a zero gap past a cap, so every atom
    is checked first: a mask outside the ground set raises
    :class:`InvalidInputError`, one past its side's cap :class:`InvalidStrategyError`.
    """
    for mask, _ in report.attacker.atoms:
        spec.check_attack(mask)
    for mask, _ in report.defender.atoms:
        spec.check_defense(mask)
    game = game or build_compact_game(spec)
    pa = marginal_attacker(game.support, report.attacker.atoms)
    qd = marginal_defender(game.support, report.defender.atoms)
    attacks, defenses = _gains(game, pa, qd, compact_value(game, pa, qd))
    return attacks[0][1], defenses[0][1]
