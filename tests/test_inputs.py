"""Every integer and real input of the library follows one rule each.

An integer is a non-``bool`` integral number, numpy integers too; a real is a
finite non-``bool`` real number, numpy floats and integers too. Each entry
point below refuses ``True``, a string, NaN and infinities, and ``1.5`` where
an integer is due, with the error class it documents.
"""

import numpy as np
import pytest

from setgames import (
    FailureOperator,
    GameSpec,
    GroundSet,
    MixedStrategy,
    Network,
    SetFunction,
    SolverConfig,
    SupportSet,
    ValueFunction,
    coordinates,
    induce_benefit,
    moebius,
    separable_approximation,
)
from setgames.errors import InvalidInputError, InvalidStrategyError

GROUND = GroundSet(2)
ZERO = SetFunction(GROUND)
BENEFIT = SetFunction(GROUND, {1: 1.0, 2: 1.0, 3: 3.0})
PATH = Network(2, ((1, 2),))


def spec(attacker_cap=1, defender_cap=1):
    return GameSpec(GROUND, BENEFIT, ZERO, ZERO, attacker_cap, defender_cap)


# Each entry point takes the value 1 when it is valid there.
REALS = {
    "set function value": lambda v: SetFunction(GROUND, {1: v}),
    "set function default": lambda v: SetFunction(GROUND, default=v),
    "value function exponent": lambda v: ValueFunction("weighted_component_sum", v),
    "cascade threshold": lambda v: FailureOperator("threshold_cascade", v),
    "eps_c": lambda v: separable_approximation(BENEFIT, ZERO, ZERO, v, 1),
    "atom probability": lambda v: MixedStrategy(((0, v),)),
    "pair probability": lambda v: MixedStrategy.from_pairs([(0, v)]),
    "eps_gap": lambda v: SolverConfig(eps_gap=v),
    "node value": lambda v: Network(1, (), (v,)),
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
    "max_iterations": lambda v: SolverConfig(max_iterations=v),
    "node count": lambda v: Network(v, ()),
    "edge endpoint": lambda v: Network(2, ((v, 2),)),
    "alive mask": lambda v: ValueFunction().evaluate(PATH, v),
    "transform cap": lambda v: moebius(BENEFIT, max_size=v),
    "benefit cap": lambda v: induce_benefit(PATH, ValueFunction(), FailureOperator(), v),
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
