"""Oracles: hand examples, exhaustive references, pseudo-boolean equivalence, preparation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgames import (
    OracleQuery,
    SupportSet,
    attacker_oracle,
    defender_oracle,
    embed_defender,
    partition_support,
    solve_compact,
    solve_separable,
    to_pseudo_boolean,
)
from setgames import oracles
from setgames.errors import CapacityError, InvalidInputError, PartitionError

from conftest import random_game


def weights_for(support, mapping):
    w = np.zeros(support.size)
    for mask, value in mapping.items():
        w[support.index[mask]] = value
    return w


class TestDefenderOracle:
    def test_additive_undefends_positive_weights(self):
        n = 4
        support = SupportSet.from_members(n, [])
        w = weights_for(support, {0: 1.5, 0b0001: 2.0, 0b0010: -1.0, 0b0100: 3.0, 0b1000: -0.5})
        got = defender_oracle(OracleQuery(w, n), support)
        assert got.strategy == 0b1010  # defend exactly the negative weights
        assert got.value == pytest.approx(1.5 + 2.0 + 3.0)

    def test_constant_objective_breaks_ties_to_empty(self):
        support = SupportSet.from_members(3, [])
        w = weights_for(support, {0: 5.0})
        got = defender_oracle(OracleQuery(w, 3), support)
        assert got.strategy == 0
        assert got.value == 5.0

    def test_pair_weight_forces_targeted_defense(self):
        support = SupportSet.from_members(3, [0b011])
        w = weights_for(support, {0b011: 4.0, 0b100: -1.0})
        got = defender_oracle(OracleQuery(w, 1), support)
        assert got.strategy == 0b100
        assert got.value == 4.0

    def test_cap_zero_forces_empty(self):
        support = SupportSet.from_members(3, [])
        w = weights_for(support, {0b001: -9.0})
        got = defender_oracle(OracleQuery(w, 0), support)
        assert got.strategy == 0

    def test_value_is_max_over_embedded_vertices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            extra = [int(rng.integers(1, 1 << n)) for _ in range(3)]
            support = SupportSet.from_members(n, extra)
            w = rng.normal(size=support.size)
            cap = int(rng.integers(0, n + 1))
            got = defender_oracle(OracleQuery(w, cap), support)
            best = max(
                float(w @ embed_defender(d, support).coords)
                for d in range(1 << n) if d.bit_count() <= cap)
            assert got.value == pytest.approx(best, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_methods_agree_on_integer_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n)) for _ in range(2)])
        w = rng.integers(-4, 5, size=support.size).astype(float)
        cap = int(rng.integers(0, n + 1))
        query = OracleQuery(w, cap)
        ones, value = to_pseudo_boolean(query, support).solve_bruteforce()
        got = defender_oracle(query, support)
        assert got.value == value
        assert got.strategy == ((1 << n) - 1) ^ ones

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 5
            support = SupportSet.from_members(n, [int(rng.integers(1, 32)) for _ in range(3)])
            w = rng.normal(size=support.size)
            values = [defender_oracle(OracleQuery(w, k), support).value for k in range(n + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestAttackerOracle:
    def test_zero_weights(self):
        support = SupportSet.from_members(3, [])
        got = attacker_oracle(OracleQuery(np.zeros(support.size), 2), support)
        assert got.strategy == 0
        assert got.value == 0.0

    def test_picks_heavier_singleton(self):
        support = SupportSet.from_members(2, [])
        w = weights_for(support, {0: 0.5, 0b01: 1.0, 0b10: 2.0})
        got = attacker_oracle(OracleQuery(w, 1), support)
        assert got.strategy == 0b10
        assert got.value == pytest.approx(2.5)

    def test_interaction_reward_pulls_in_both(self):
        support = SupportSet.from_members(2, [0b11])
        w = weights_for(support, {0: 1.0, 0b01: -1.0, 0b10: -1.0, 0b11: 10.0})
        got = attacker_oracle(OracleQuery(w, 2), support)
        assert got.strategy == 0b11
        assert got.value == pytest.approx(9.0)

    def test_exhaustive_match(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n))])
            w = rng.normal(size=support.size)
            cap = int(rng.integers(0, n + 1))
            got = attacker_oracle(OracleQuery(w, cap), support)
            masks = support.member_array
            best = max(
                (float(w @ ((masks & a) == masks)), -a)
                for a in range(1 << n) if a.bit_count() <= cap)
            assert got.value == pytest.approx(best[0], abs=1e-12)


class TestPseudoBoolean:
    def test_min_ones_accounting(self):
        support = SupportSet.from_members(4, [0b0011])
        problem = to_pseudo_boolean(OracleQuery(np.zeros(support.size), 4), support)
        assert problem.min_ones == 0  # cap = n degenerates to unconstrained
        problem = to_pseudo_boolean(OracleQuery(np.zeros(support.size), 1), support)
        assert problem.min_ones == 3

    def test_singleton_support_is_linear(self):
        support = SupportSet.from_members(3, [])
        problem = to_pseudo_boolean(OracleQuery(np.ones(support.size), 3), support)
        assert all(mask.bit_count() <= 1 for mask, _ in problem.terms)

    def test_pairwise_support_is_quadratic(self):
        support = SupportSet.from_members(3, [0b011, 0b110])
        problem = to_pseudo_boolean(OracleQuery(np.ones(support.size), 3), support)
        assert max(mask.bit_count() for mask, _ in problem.terms) == 2

    def test_objective_matches_defender_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n)) for _ in range(2)])
            w = rng.normal(size=support.size)
            cap = int(rng.integers(0, n + 1))
            problem = to_pseudo_boolean(OracleQuery(w, cap), support)
            masks = support.member_array
            full = (1 << n) - 1
            for defense in range(1 << n):
                direct = float(w @ ((masks & defense) == 0))
                assert problem.evaluate(full ^ defense) == pytest.approx(direct, abs=1e-12)

    def test_solve_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n))])
            w = rng.integers(-4, 5, size=support.size).astype(float)
            cap = int(rng.integers(0, n + 1))
            query = OracleQuery(w, cap)
            problem = to_pseudo_boolean(query, support)
            ones, value = problem.solve_bruteforce()
            oracle = defender_oracle(query, support)
            assert value == oracle.value
            assert ((1 << n) - 1) ^ ones == oracle.strategy


class TestSeparable:
    def test_partition_groups_by_shared_targets(self):
        members = [0, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b00011, 0b11000]
        parts = partition_support(members)
        assert len(parts) == 3
        as_sets = [set(p) for p in parts]
        assert {0b00001, 0b00010, 0b00011} in as_sets
        assert {0b00100} in as_sets
        assert {0b01000, 0b10000, 0b11000} in as_sets

    def test_non_disjoint_components_rejected(self):
        support = SupportSet.from_members(3, [0b011])
        problem = to_pseudo_boolean(OracleQuery(np.ones(support.size), 3), support)
        bad = [[0b001, 0b011], [0b010, 0b100]]  # unions overlap on target 2
        with pytest.raises(PartitionError):
            solve_separable(problem, bad)

    def test_two_pair_components(self):
        # +4 pair stays whole; the -4 pair gets one variable zeroed.
        support = SupportSet.from_members(4, [0b0011, 0b1100])
        w = weights_for(support, {0b0011: 4.0, 0b1100: -4.0, 0: 1.0})
        problem = to_pseudo_boolean(OracleQuery(w, 4), support)
        ones, value = solve_separable(problem, partition_support(support.members))
        assert value == pytest.approx(1.0 + 4.0 + 0.0)
        assert ones & 0b0011 == 0b0011  # +4 component untouched
        assert ones & 0b1100 != 0b1100  # -4 component broken

    def test_matches_bruteforce_including_caps(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            groups = [0b111, 0b11000, 0b1100000]
            extra = [m for m in groups if m < (1 << n)]
            support = SupportSet.from_members(n, extra)
            w = rng.integers(-5, 6, size=support.size).astype(float)
            cap = int(rng.integers(0, n + 1))
            query = OracleQuery(w, cap)
            ones, value = to_pseudo_boolean(query, support).solve_bruteforce()
            got = defender_oracle(query, support)
            assert got.value == value
            assert got.strategy == ((1 << n) - 1) ^ ones

    def test_all_singleton_components_reduce_to_additive(self):
        rng = np.random.default_rng(6)
        support = SupportSet.from_members(5, [])
        w = rng.integers(-5, 6, size=support.size).astype(float)
        for cap in range(6):
            query = OracleQuery(w, cap)
            ones, value = to_pseudo_boolean(query, support).solve_bruteforce()
            got = defender_oracle(query, support)
            assert got.value == value
            assert got.strategy == 0b11111 ^ ones


def random_supports(rng):
    """Block, singleton-only and general supports, in turn."""
    for trial in range(60):
        n = int(rng.integers(2, 9))
        kind = trial % 3
        if kind == 0:
            extra, used = [], 0
            while used < n:
                width = int(rng.integers(1, min(3, n - used) + 1))
                extra.append(((1 << width) - 1) << used)
                used += width
        elif kind == 1:
            extra = []
        else:
            extra = [int(rng.integers(1, 1 << n)) for _ in range(3)]
        yield SupportSet.from_members(n, extra)


class TestPrepared:
    def test_prepared_calls_match_one_shot_calls_and_enumeration(self):
        rng = np.random.default_rng(7)
        for support in random_supports(rng):
            n = support.n
            a_cap, d_cap = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
            table = oracles.prepare(support, a_cap, d_cap)
            masks = support.member_array
            for _ in range(3):
                # Narrow integer weights keep sums exact and make ties common.
                w = rng.integers(-2, 3, size=support.size).astype(float)
                attack = OracleQuery(w, a_cap)
                one_shot = attacker_oracle(attack, support)
                best = max((float(w @ ((masks & a) == masks)), -a)
                           for a in range(1 << n) if a.bit_count() <= a_cap)
                assert (one_shot.value, -one_shot.strategy) == best
                got = attacker_oracle(attack, support, prepared=table)
                assert (got.strategy, got.value) == (one_shot.strategy, one_shot.value)

                defense = OracleQuery(w, d_cap)
                ones, value = to_pseudo_boolean(defense, support).solve_bruteforce()
                one_shot = defender_oracle(defense, support)
                got = defender_oracle(defense, support, prepared=table)
                assert (got.strategy, got.value) == (one_shot.strategy, one_shot.value)
                assert (got.strategy, got.value) == (((1 << n) - 1) ^ ones, value)

    def test_prepare_rejects_mismatches(self):
        support = SupportSet.from_members(3, [0b011])
        w = np.zeros(support.size)
        table = oracles.prepare(support, 2, 2)
        with pytest.raises(InvalidInputError):
            attacker_oracle(OracleQuery(w, 1), support, prepared=table)
        with pytest.raises(InvalidInputError):
            defender_oracle(OracleQuery(w, 3), support, prepared=table)
        attacker_only = oracles.prepare(support, 2, None)
        with pytest.raises(InvalidInputError):
            defender_oracle(OracleQuery(w, 2), support, prepared=attacker_only)

    def test_guard_raises_at_preparation(self, monkeypatch):
        support = SupportSet.from_members(4, [0b0011])
        monkeypatch.setattr(oracles, "ENUMERATION_GUARD", 10)
        with pytest.raises(CapacityError):
            oracles.prepare(support, 2, None)
        with pytest.raises(CapacityError):
            oracles.prepare(support, None, 2)

    def test_guard_bounds_the_per_component_table(self, monkeypatch):
        # Four disjoint 3-target blocks: the capped lattice over all 12
        # targets has 299 strategies, the per-component table 32 rows.
        n, cap = 12, 3
        support = SupportSet.from_members(n, [0b111 << (3 * b) for b in range(4)])
        monkeypatch.setattr(oracles, "ENUMERATION_GUARD", 100 * support.size)
        table = oracles.prepare(support, cap, cap)
        masks = support.member_array
        strategies = [s for s in range(1 << n) if s.bit_count() <= cap]
        attacks = (np.array(strategies)[:, None] & masks) == masks
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.integers(-2, 3, size=support.size).astype(float)
            got = attacker_oracle(OracleQuery(w, cap), support, prepared=table)
            values = attacks @ w
            j = int(np.argmax(values))
            assert (got.strategy, got.value) == (strategies[j], values[j])
            query = OracleQuery(w, cap)
            ones, value = to_pseudo_boolean(query, support).solve_bruteforce()
            got = defender_oracle(query, support, prepared=table)
            assert (got.strategy, got.value) == (((1 << n) - 1) ^ ones, value)

    def test_solve_prepares_once(self, monkeypatch):
        calls = {"partition_support": 0, "masks_up_to_size": 0}

        def counted(name):
            fn = getattr(oracles, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(oracles, name, counted(name))
        spec = random_game(np.random.default_rng(8), 6, 3, 3)
        report = solve_compact(spec)
        assert report.converged and report.oracle_calls > 10
        assert calls["partition_support"] <= 1
        assert calls["masks_up_to_size"] <= 1
