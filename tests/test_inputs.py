"""Every integer and real input of the library follows one rule each.

An integer is a non-``bool`` integral number, numpy integers too; a real is a
finite non-``bool`` real number, numpy floats and integers too. Each entry
point below refuses ``True``, a string, NaN and infinities, and ``1.5`` where
an integer is due, with the error class it documents. The oracle and LP entries
read a batch of reals by one rule too, and refuse integers out of their range.
"""

import numpy as np
import pytest

from setgames import (
    FailureOperator,
    GameSpec,
    GroundSet,
    MixedStrategy,
    Network,
    PseudoBooleanProblem,
    SetFunction,
    SolverConfig,
    SupportSet,
    ValueFunction,
    attacker_oracle,
    build_compact_game,
    compact_value,
    coordinates,
    defender_oracle,
    induce_benefit,
    marginal_attacker,
    moebius,
    partition_support,
    separable_approximation,
    solve_matrix_game,
    to_pseudo_boolean,
)
from setgames.oracles import prepare
from setgames.errors import InvalidInputError, InvalidStrategyError

GROUND = GroundSet(2)
ZERO = SetFunction(GROUND)
BENEFIT = SetFunction(GROUND, {1: 1.0, 2: 1.0, 3: 3.0})
PATH = Network(2, ((1, 2),))


SUPPORT = SupportSet.from_members(2, [3])  # members 0, 1, 2, 3
WEIGHTS = [1.0, 0.0, 0.0, 0.0]
ONES = [1.0] * 4


def spec(attacker_cap=1, defender_cap=1):
    return GameSpec(GROUND, BENEFIT, ZERO, ZERO, attacker_cap, defender_cap)


GAME = build_compact_game(spec(2))  # over SUPPORT's members


# Each entry point takes the value 1 when it is valid there.
REALS = {
    "set function value": lambda v: SetFunction(GROUND, {1: v}),
    "set function default": lambda v: SetFunction(GROUND, default=v),
    "cascade threshold": lambda v: FailureOperator("threshold_cascade", v),
    "eps_c": lambda v: separable_approximation(BENEFIT, ZERO, ZERO, v, 1),
    "atom probability": lambda v: MixedStrategy(((0, v),)),
    "pair probability": lambda v: MixedStrategy.from_pairs([(0, v)]),
    "eps_gap": lambda v: SolverConfig(eps_gap=v),
    "node value": lambda v: Network(1, (), (v,)),
    "payoff entry": lambda v: solve_matrix_game([[v, 0]]),
    "oracle weight": lambda v: defender_oracle(prepare(SUPPORT, 1, 1), [v, 0, 0, 0]),
    "term weight": lambda v: PseudoBooleanProblem(((1, v),), 2, 0),
    "coordinate": lambda v: compact_value(GAME, [v, 1, 1, 1], ONES),
    "marginal probability": lambda v: marginal_attacker(SUPPORT, [(1, v)]),
}
INTEGERS = {
    "ground set size": GroundSet,
    "attacker cap": lambda v: spec(attacker_cap=v),
    "defender cap": lambda v: spec(defender_cap=v),
    "mask": GROUND.check_mask,
    "set function key": lambda v: SetFunction(GROUND, {v: 1.0}),
    "atom mask": lambda v: MixedStrategy(((v, 1.0),)),
    "support member": lambda v: SupportSet.from_members(2, [v]),
    "strategy mask": lambda v: coordinates([v], SupportSet.from_members(2, []), "attacker"),
    "node count": lambda v: Network(v, ()),
    "edge endpoint": lambda v: Network(2, ((v, 2),)),
    "alive mask": lambda v: ValueFunction().evaluate(PATH, v),
    "transform cap": lambda v: moebius(BENEFIT, max_size=v),
    "benefit cap": lambda v: induce_benefit(PATH, ValueFunction(), FailureOperator(), v),
    "oracle attacker cap": lambda v: prepare(SUPPORT, v, 1),
    "oracle defender cap": lambda v: prepare(SUPPORT, 1, v),
    "oracle pool": lambda v: attacker_oracle(prepare(SUPPORT, 1, 1), WEIGHTS, pool=v),
    "pseudo-boolean cap": lambda v: to_pseudo_boolean(WEIGHTS, v, SUPPORT),
    "term mask": lambda v: PseudoBooleanProblem(((v, 1.0),), 2, 0),
    "min_ones": lambda v: PseudoBooleanProblem((), 2, v),
    "pseudo-boolean n": lambda v: PseudoBooleanProblem((), v, 0),
    "partition member": lambda v: partition_support([v, 2]),
}
# Integers out of range and strings that are not numbers.
REFUSED = {
    "negative oracle cap": lambda: prepare(SUPPORT, -1, 2),
    "negative pseudo-boolean cap": lambda: to_pseudo_boolean(WEIGHTS, -1, SUPPORT),
    "term mask past n": lambda: PseudoBooleanProblem(((8, 1.0),), 2, 0),
    "min_ones past n": lambda: PseudoBooleanProblem(((1, 1.0),), 2, 5),
    "negative partition member": lambda: partition_support([-1, 2]),
    "bool cap after an equal int cap": lambda: (prepare(SUPPORT, 1, 1), prepare(SUPPORT, True, 1)),
    "word in a payoff matrix": lambda: solve_matrix_game([[1, "a"]]),
    "word as an oracle weight": lambda: attacker_oracle(prepare(SUPPORT, 1, 1), ["a", 0, 0, 0]),
    "word as a coordinate": lambda: compact_value(GAME, ONES, [1, "a", 1, 1]),
    "word as a probability": lambda: marginal_attacker(SUPPORT, [(1, "x")]),
}
ERRORS = {"strategy mask": InvalidStrategyError}
BAD = [True, "1", float("nan"), float("inf"), -float("inf")]
CASES = [(name, call, bad) for name, call in REALS.items() for bad in BAD] + [
    (name, call, bad) for name, call in INTEGERS.items() for bad in [*BAD, 1.5]]
GOODS = [(name, call, good) for name, call in REALS.items()
         for good in (np.int64(1), np.float64(1.0))] + [
    (name, call, np.int64(1)) for name, call in INTEGERS.items()]


@pytest.mark.parametrize("name, call, bad", CASES,
                         ids=[f"{name}-{bad!r}" for name, _, bad in CASES])
def test_bad_numbers_are_refused(name, call, bad):
    with pytest.raises(ERRORS.get(name, InvalidInputError)):
        call(bad)


@pytest.mark.parametrize("name, call, good", GOODS,
                         ids=[f"{name}-{good!r}" for name, _, good in GOODS])
def test_numpy_numbers_are_accepted(name, call, good):
    call(good)


@pytest.mark.parametrize("name", REFUSED)
def test_out_of_range_and_words_are_refused(name):
    with pytest.raises(InvalidInputError):
        REFUSED[name]()


def test_caps_above_n_mean_n():
    support = SupportSet.from_members(4, [0b0011])
    w = np.arange(support.size, dtype=float) - 3
    assert to_pseudo_boolean(w, 9, support) == to_pseudo_boolean(w, 4, support)
    assert to_pseudo_boolean(w, 9, support).min_ones == 0
    assert defender_oracle(prepare(support, 9, 9), w) == defender_oracle(prepare(support, 4, 4), w)
