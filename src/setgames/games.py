"""Game specification and the dense normal form.

A game puts an attacker and a defender on a common ground set of targets.
Pure strategies are subsets; a play (A, D) succeeds on ``A minus D`` and
yields

    attacker:  benefit(A \\ D) - attacker_cost(A)
    defender: -benefit(A \\ D) - defender_cost(D)

The equilibria of this non-zero-sum pair coincide with those of the single
zero-sum matrix ``benefit(A \\ D) - attacker_cost(A) + defender_cost(D)``,
because the two payoffs differ from it only by terms each player cannot
influence. :func:`expand_normal_form` materializes that matrix for small
instances and :func:`verify_ne_equivalence` checks a strategy pair against
the original non-zero-sum payoffs, so equilibria computed on the zero-sum
side can be certified independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bits import count_up_to_size, lookup, masks_up_to_size
from .errors import CapacityError, InvalidInputError, InvalidStrategyError
from .setfunctions import GroundSet, SetFunction, _check_int, _dense, _finite_real

NORMAL_FORM_GUARD = 10_000_000


@dataclass(frozen=True)
class GameSpec:
    """A full game: ground set, utilities, and per-player cardinality caps.

    ``attacker_cap`` (c) and ``defender_cap`` (k) bound the size of each
    side's pure strategies; caps equal to n give the complete power-set
    strategy spaces; a cap outside ``[0, n]`` or not an integer (a ``bool``
    is not one) raises :class:`InvalidInputError`, and numpy integer caps
    are stored as ``int``. Utilities must be defined (entries plus default)
    on all subsets up to the relevant cap.
    """

    ground: GroundSet
    benefit: SetFunction
    attacker_cost: SetFunction
    defender_cost: SetFunction
    attacker_cap: int
    defender_cap: int

    def __post_init__(self):
        for name, fn in (("benefit", self.benefit), ("attacker_cost", self.attacker_cost),
                         ("defender_cost", self.defender_cost)):
            if fn.ground.n != self.ground.n:
                raise InvalidInputError(f"{name} is defined on a different ground set")
            if fn.value(0) != 0:
                warnings.warn(
                    f"{name} has a nonzero value {fn.value(0)} on the empty set; "
                    "it is kept but acts as a constant offset",
                    stacklevel=2,
                )
        for name in ("attacker_cap", "defender_cap"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 0, self.ground.n))

    @property
    def n(self) -> int:
        return self.ground.n

    def check_attack(self, mask: int) -> None:
        mask = self.ground.check_mask(mask)
        if mask.bit_count() > self.attacker_cap:
            raise InvalidStrategyError(
                f"attack {mask:#x} has {mask.bit_count()} targets, cap is {self.attacker_cap}")

    def check_defense(self, mask: int) -> None:
        mask = self.ground.check_mask(mask)
        if mask.bit_count() > self.defender_cap:
            raise InvalidStrategyError(
                f"defense {mask:#x} has {mask.bit_count()} targets, cap is {self.defender_cap}")


@dataclass(frozen=True)
class NormalForm:
    """Dense zero-sum-equivalent matrix; rows attack, columns defend.

    Strategies are listed in ascending mask order and
    ``matrix[i, j] = benefit(A_i \\ D_j) - attacker_cost(A_i) + defender_cost(D_j)``.
    """

    attacker_strategies: tuple[int, ...]
    defender_strategies: tuple[int, ...]
    matrix: np.ndarray


def _dense_tables(spec: GameSpec):
    """Both strategy lists, the ``benefit(A \\ D)`` table and both cost vectors, each
    utility read at its strategies' masks, and at A \\ D by :func:`~setgames.bits.lookup`."""
    caps = spec.attacker_cap, spec.defender_cap
    na, nd = (count_up_to_size(spec.n, cap) for cap in caps)
    if na * nd > NORMAL_FORM_GUARD:
        raise CapacityError(f"normal form with {na}x{nd} cells exceeds the guard")
    a, d = (masks_up_to_size(spec.n, cap) for cap in caps)
    hit = lookup(a, _dense(spec.benefit, False, a), a[:, None] & ~d, spec.n)  # A \ D attacks
    cost_a, cost_d = _dense(spec.attacker_cost, False, a), _dense(spec.defender_cost, False, d)
    return a.tolist(), d.tolist(), hit, cost_a, cost_d


def expand_normal_form(spec: GameSpec) -> NormalForm:
    """Materialize the zero-sum-equivalent payoff matrix for a small game."""
    rows, cols, hit, cost_a, cost_d = _dense_tables(spec)
    matrix = hit - cost_a[:, None] + cost_d[None, :]
    return NormalForm(tuple(rows), tuple(cols), matrix)


@dataclass(frozen=True)
class MixedStrategy:
    """A distribution over pure strategies as (mask, probability) atoms.

    A mask that is not a non-negative integer (``bool`` included), a
    probability that is not a finite positive real (``bool`` included), or a
    total off 1 by more than 1e-9, raises :class:`InvalidInputError`.
    """

    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        total = 0.0
        for mask, prob in self.atoms:
            mask = _check_int(mask, "atom mask")
            if not (_finite_real(prob) and prob > 0):
                raise InvalidInputError(f"atom {mask:#x} has probability {prob}, "
                                        "not finite and positive")
            total += prob
        if self.atoms and abs(total - 1.0) > 1e-9:
            raise InvalidInputError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def from_pairs(cls, pairs) -> "MixedStrategy":
        """Merge duplicates, drop atoms of probability 1e-12 or less, and renormalize."""
        merged: dict[int, float] = {}
        for mask, prob in pairs:
            if not _finite_real(prob):
                raise InvalidInputError(f"atom probability {prob!r} is not a finite real")
            merged[mask] = merged.get(mask, 0.0) + float(prob)
        kept = {m: p for m, p in merged.items() if p > 1e-12}
        total = sum(kept.values())
        if total <= 0:
            raise InvalidInputError("mixed strategy has no mass left after filtering")
        return cls(tuple((m, p / total) for m, p in sorted(kept.items())))

    def as_vector(self, strategy_masks) -> np.ndarray:
        """Probability vector aligned with ``strategy_masks``."""
        index = {m: i for i, m in enumerate(strategy_masks)}
        vec = np.zeros(len(index))
        for mask, prob in self.atoms:
            if mask not in index:
                raise InvalidStrategyError(f"atom {mask:#x} is not a legal pure strategy here")
            vec[index[mask]] = prob
        return vec


def verify_ne_equivalence(spec: GameSpec, attacker_mix: MixedStrategy,
                          defender_mix: MixedStrategy, eps: float) -> bool:
    """True iff the pair is an eps-equilibrium of the original two-payoff game.

    Checks that no pure deviation improves either player's expected payoff in
    the non-zero-sum game by more than ``eps``. This is the independent check
    that a solution computed on the zero-sum-equivalent matrix really is an
    equilibrium of the game as specified.
    """
    rows, cols, hit, cost_a, cost_d = _dense_tables(spec)
    attacker_payoff = hit - cost_a[:, None]
    defender_payoff = -hit - cost_d[None, :]

    p = attacker_mix.as_vector(rows)
    q = defender_mix.as_vector(cols)
    attacker_now = float(p @ attacker_payoff @ q)
    attacker_best = float(np.max(attacker_payoff @ q))
    defender_now = float(p @ defender_payoff @ q)
    defender_best = float(np.max(p @ defender_payoff))
    return attacker_best <= attacker_now + eps and defender_best <= defender_now + eps
