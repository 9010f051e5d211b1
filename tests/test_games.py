"""Game model: payoffs, normal form, equilibrium verification."""

import numpy as np
import pytest

from setgames import (
    GameSpec,
    GroundSet,
    MixedStrategy,
    SetFunction,
    expand_normal_form,
    solve_bruteforce,
    verify_ne_equivalence,
)
from setgames.errors import CapacityError, InvalidInputError, InvalidStrategyError
from conftest import random_game


def make_spec(n, benefit, cost_a=None, cost_d=None, c=None, k=None):
    g = GroundSet(n)
    zero = SetFunction(g)
    return GameSpec(
        ground=g,
        benefit=SetFunction(g, benefit),
        attacker_cost=SetFunction(g, cost_a or {}),
        defender_cost=SetFunction(g, cost_d or {}),
        attacker_cap=n if c is None else c,
        defender_cap=n if k is None else k,
    )


def entry(spec, attack, defense):
    """The normal form's payoff at the pure pair (attack, defense)."""
    nf = expand_normal_form(spec)
    return nf.matrix[nf.attacker_strategies.index(attack), nf.defender_strategies.index(defense)]


class TestPurePayoff:
    """The zero-sum payoff of a pure pair, read from the normal form, and the
    strategy checks on the masks of a pair."""

    def test_attack_equals_defense_nets_nothing(self):
        spec = make_spec(2, {0b01: 3.0, 0b10: 1.0, 0b11: 4.0})
        for mask in range(4):
            assert entry(spec, mask, mask) == 0.0

    def test_hand_computed(self):
        # benefit{1} - cost_a{1} + cost_d{2} = 1 - 0.3 + 0.2
        spec = make_spec(2, {0b01: 1.0}, cost_a={0b01: 0.3}, cost_d={0b10: 0.2})
        assert entry(spec, 0b01, 0b10) == pytest.approx(0.9)

    def test_empty_attack(self):
        spec = make_spec(2, {0b01: 1.0}, cost_d={0b10: 0.2})
        assert entry(spec, 0, 0b10) == pytest.approx(0.2)

    def test_cap_violation(self):
        spec = make_spec(3, {0b001: 1.0}, c=1, k=1)
        with pytest.raises(InvalidStrategyError):
            spec.check_attack(0b011)
        with pytest.raises(InvalidStrategyError):
            spec.check_defense(0b011)

    @pytest.mark.parametrize("mask", [1.5, 1.0, True, np.bool_(True), "1", None])
    def test_rejects_masks_that_are_not_integers(self, mask):
        # bool is an int subclass, so True must be rejected by type, not read as mask 1.
        spec = make_spec(2, {0b01: 1.0})
        for check in (spec.check_attack, spec.check_defense):
            with pytest.raises(InvalidInputError, match="mask must be an integer"):
                check(mask)
        spec.check_attack(np.int64(1))
        spec.check_defense(np.uint8(0))


class TestNormalForm:
    def test_single_target(self):
        spec = make_spec(1, {0b1: 1.0})
        nf = expand_normal_form(spec)
        assert nf.attacker_strategies == (0, 1)
        assert nf.defender_strategies == (0, 1)
        assert nf.matrix.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_zero_game(self):
        nf = expand_normal_form(make_spec(2, {}))
        assert not nf.matrix.any()

    def test_matching_pennies_structure(self):
        spec = make_spec(2, {0b01: 1.0, 0b10: 1.0}, c=1, k=1)
        nf = expand_normal_form(spec)
        # Rows/cols are empty, {1}, {2}; the nonempty block is 0 on the
        # diagonal and 1 off it.
        sub = nf.matrix[1:, 1:]
        assert sub.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_matches_pure_payoff_everywhere(self):
        rng = np.random.default_rng(2)
        spec = random_game(rng, 4, 2, 3)
        nf = expand_normal_form(spec)
        for i, a in enumerate(nf.attacker_strategies):
            for j, d in enumerate(nf.defender_strategies):
                # matrix = benefit - cost_a + cost_d, entry by entry
                assert nf.matrix[i, j] == pytest.approx(
                    spec.benefit.value(a & ~d) - spec.attacker_cost.value(a)
                    + spec.defender_cost.value(d), abs=1e-12)

    def test_strategy_mask_lookup_matches_pure_payoff_everywhere(self):
        # The 13x79 normal form of n = 12, c = 1, k = 2 is smaller than a
        # 2^n table, so each utility is read at its strategies' masks.
        spec = random_game(np.random.default_rng(2), 12, 1, 2)
        nf = expand_normal_form(spec)
        assert nf.matrix.size < spec.ground.size
        for i, a in enumerate(nf.attacker_strategies):
            for j, d in enumerate(nf.defender_strategies):
                assert nf.matrix[i, j] == (spec.benefit.value(a & ~d) - spec.attacker_cost.value(a)
                                           + spec.defender_cost.value(d))

    def test_size_guard(self):
        spec = make_spec(24, {})
        with pytest.raises(CapacityError):
            expand_normal_form(spec)

    def test_warns_on_nonzero_empty_set(self):
        g = GroundSet(2)
        with pytest.warns(UserWarning):
            GameSpec(g, SetFunction(g, {0: 1.0}), SetFunction(g), SetFunction(g), 2, 2)


class TestGameSpec:
    @pytest.mark.parametrize("bad", [1.5, 2.0, True])
    @pytest.mark.parametrize("side", ["c", "k"])
    def test_rejects_caps_that_are_not_integers(self, bad, side):
        with pytest.raises(InvalidInputError):
            make_spec(3, {0b001: 1.0}, **{side: bad})

    def test_rejects_utilities_on_another_ground_set(self):
        g, other = GroundSet(2), GroundSet(3)
        with pytest.raises(InvalidInputError, match="attacker_cost is defined on a different"):
            GameSpec(g, SetFunction(g), SetFunction(other), SetFunction(g), 1, 1)

    def test_numpy_integer_caps_are_stored_as_int(self):
        spec = make_spec(3, {0b001: 1.0}, c=np.int64(2), k=np.uint8(1))
        assert (spec.attacker_cap, spec.defender_cap) == (2, 1)
        assert type(spec.attacker_cap) is int and type(spec.defender_cap) is int


class TestMixedStrategy:
    def test_from_pairs_merges_and_normalizes(self):
        mix = MixedStrategy.from_pairs([(1, 0.25), (2, 0.5), (1, 0.25)])
        assert mix.atoms == ((1, 0.5), (2, 0.5))

    def test_from_pairs_needs_mass_left(self):
        for pairs in ([], [(1, 1e-13), (2, 0.0)]):
            with pytest.raises(InvalidInputError, match="no mass left"):
                MixedStrategy.from_pairs(pairs)

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            MixedStrategy(((1, 0.5), (2, 0.2)))

    @pytest.mark.parametrize("prob", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
    def test_rejects_probabilities_that_are_not_finite_and_positive(self, prob):
        # NaN fails both `prob <= 0` and the sum test, so it needs its own check.
        with pytest.raises(InvalidInputError, match="not finite and positive"):
            MixedStrategy(((1, prob), (2, 1.0)))

    @pytest.mark.parametrize("mask", [1.5, 1.0, True, np.bool_(True), -1, np.int64(-1)])
    def test_rejects_masks_that_are_not_non_negative_integers(self, mask):
        with pytest.raises(InvalidInputError, match="atom mask must be"):
            MixedStrategy(((mask, 1.0),))
        with pytest.raises(InvalidInputError, match="atom mask must be"):
            MixedStrategy.from_pairs([(0, 0.5), (mask, 0.5)])

    def test_accepts_numpy_integer_masks(self):
        for kind in (np.int64, np.int32, np.uint8):
            assert MixedStrategy(((kind(2), 1.0),)).atoms == ((2, 1.0),)

    def test_as_vector(self):
        mix = MixedStrategy(((0, 0.25), (2, 0.75)))
        assert mix.as_vector([0, 1, 2]).tolist() == [0.25, 0.0, 0.75]
        with pytest.raises(InvalidStrategyError):
            mix.as_vector([0, 1])


class TestVerifyNE:
    def test_bruteforce_equilibrium_passes(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            spec = random_game(rng, n, n, n)
            report = solve_bruteforce(spec)
            assert verify_ne_equivalence(spec, report.attacker, report.defender, 1e-6)

    def test_uniform_on_matching_pennies(self):
        spec = make_spec(2, {0b01: 1.0, 0b10: 1.0}, c=1, k=1)
        mix = MixedStrategy(((0b01, 0.5), (0b10, 0.5)))
        assert verify_ne_equivalence(spec, mix, mix, 1e-9)

    def test_strict_deviation_fails(self):
        spec = make_spec(2, {0b01: 1.0, 0b10: 1.0}, c=1, k=1)
        attacker = MixedStrategy(((0b01, 1.0),))
        defender = MixedStrategy(((0b10, 1.0),))  # defends the wrong target
        assert not verify_ne_equivalence(spec, attacker, defender, 0.4)


class TestRankBound:
    def test_rank_at_most_support_size(self):
        from setgames import build_compact_game
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            spec = random_game(rng, n, n, n, sparse=True)
            support = build_compact_game(spec).support
            nf = expand_normal_form(spec)
            norm = np.linalg.norm(nf.matrix, 2)
            if norm == 0:
                continue
            rank = np.linalg.matrix_rank(nf.matrix, tol=1e-8 * norm)
            assert rank <= support.size
