"""Oracles: hand examples, exhaustive references, pseudo-boolean equivalence, preparation."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgames import (
    FailureOperator,
    PseudoBooleanProblem,
    SupportSet,
    ValueFunction,
    attacker_oracle,
    best_response_gap,
    build_compact_game,
    coordinates,
    defender_oracle,
    partition_support,
    solve_compact,
    solve_network_game,
    solve_separable,
    to_pseudo_boolean,
)
from setgames import cli, oracles
from setgames.errors import CapacityError, InvalidInputError

from conftest import random_game, random_graph


def weights_for(support, mapping):
    w = np.zeros(support.size)
    for mask, value in mapping.items():
        w[support.members.index(mask)] = value
    return w


def defend(support, w, cap):
    return defender_oracle(oracles.prepare(support, None, cap), w)


def attack(support, w, cap):
    return attacker_oracle(oracles.prepare(support, cap, None), w)


class TestDefenderOracle:
    def test_additive_undefends_positive_weights(self):
        n = 4
        support = SupportSet.from_members(n, [])
        w = weights_for(support, {0: 1.5, 0b0001: 2.0, 0b0010: -1.0, 0b0100: 3.0, 0b1000: -0.5})
        defense, value = defend(support, w, n)
        assert defense == 0b1010  # defend exactly the negative weights
        assert value == pytest.approx(1.5 + 2.0 + 3.0)

    def test_constant_objective_breaks_ties_to_empty(self):
        support = SupportSet.from_members(3, [])
        w = weights_for(support, {0: 5.0})
        defense, value = defend(support, w, 3)
        assert defense == 0
        assert value == 5.0

    def test_pair_weight_forces_targeted_defense(self):
        support = SupportSet.from_members(3, [0b011])
        w = weights_for(support, {0b011: 4.0, 0b100: -1.0})
        defense, value = defend(support, w, 1)
        assert defense == 0b100
        assert value == 4.0

    def test_cap_zero_forces_empty(self):
        support = SupportSet.from_members(3, [])
        w = weights_for(support, {0b001: -9.0})
        defense, _ = defend(support, w, 0)
        assert defense == 0

    def test_value_is_max_over_embedded_vertices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            extra = [int(rng.integers(1, 1 << n)) for _ in range(3)]
            support = SupportSet.from_members(n, extra)
            w = rng.normal(size=support.size)
            cap = int(rng.integers(0, n + 1))
            _, value = defend(support, w, cap)
            defenses = [d for d in range(1 << n) if d.bit_count() <= cap]
            best = max(float(w @ q) for q in coordinates(defenses, support, "defender"))
            assert value == pytest.approx(best, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_methods_agree_on_integer_weights(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n)) for _ in range(2)])
        w = rng.integers(-4, 5, size=support.size).astype(float)
        cap = int(rng.integers(0, n + 1))
        ones, value = to_pseudo_boolean(w, cap, support).solve_bruteforce()
        assert defend(support, w, cap) == (((1 << n) - 1) ^ ones, value)

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 5
            support = SupportSet.from_members(n, [int(rng.integers(1, 32)) for _ in range(3)])
            w = rng.normal(size=support.size)
            values = [defend(support, w, k)[1] for k in range(n + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestAttackerOracle:
    def test_zero_weights(self):
        support = SupportSet.from_members(3, [])
        assert attack(support, np.zeros(support.size), 2) == (0, 0.0)

    def test_picks_heavier_singleton(self):
        support = SupportSet.from_members(2, [])
        w = weights_for(support, {0: 0.5, 0b01: 1.0, 0b10: 2.0})
        mask, value = attack(support, w, 1)
        assert mask == 0b10
        assert value == pytest.approx(2.5)

    def test_interaction_reward_pulls_in_both(self):
        support = SupportSet.from_members(2, [0b11])
        w = weights_for(support, {0: 1.0, 0b01: -1.0, 0b10: -1.0, 0b11: 10.0})
        mask, value = attack(support, w, 2)
        assert mask == 0b11
        assert value == pytest.approx(9.0)

    def test_exhaustive_match(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n))])
            w = rng.normal(size=support.size)
            cap = int(rng.integers(0, n + 1))
            _, value = attack(support, w, cap)
            masks = support.member_array
            best = max(
                (float(w @ ((masks & a) == masks)), -a)
                for a in range(1 << n) if a.bit_count() <= cap)
            assert value == pytest.approx(best[0], abs=1e-12)


class TestPseudoBoolean:
    def test_min_ones_accounting(self):
        support = SupportSet.from_members(4, [0b0011])
        problem = to_pseudo_boolean(np.zeros(support.size), 4, support)
        assert problem.min_ones == 0  # cap = n degenerates to unconstrained
        problem = to_pseudo_boolean(np.zeros(support.size), 1, support)
        assert problem.min_ones == 3

    def test_rejects_bad_weights(self):
        support = SupportSet.from_members(3, [])  # 4 members
        for bad in (np.zeros(2), np.zeros(9), np.zeros((1, 4)), [0.0, np.nan, 0.0, 0.0],
                    [0.0, 0.0, np.inf, 0.0]):
            with pytest.raises(InvalidInputError):
                to_pseudo_boolean(bad, 2, support)

    def test_singleton_support_is_linear(self):
        support = SupportSet.from_members(3, [])
        problem = to_pseudo_boolean(np.ones(support.size), 3, support)
        assert all(mask.bit_count() <= 1 for mask, _ in problem.terms)

    def test_pairwise_support_is_quadratic(self):
        support = SupportSet.from_members(3, [0b011, 0b110])
        problem = to_pseudo_boolean(np.ones(support.size), 3, support)
        assert max(mask.bit_count() for mask, _ in problem.terms) == 2

    def test_objective_matches_defender_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            support = SupportSet.from_members(n, [int(rng.integers(1, 1 << n)) for _ in range(2)])
            w = rng.normal(size=support.size)
            cap = int(rng.integers(0, n + 1))
            problem = to_pseudo_boolean(w, cap, support)
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
            ones, value = to_pseudo_boolean(w, cap, support).solve_bruteforce()
            defense, oracle_value = defend(support, w, cap)
            assert value == oracle_value
            assert ((1 << n) - 1) ^ ones == defense


class TestSeparable:
    def test_partition_groups_by_shared_targets(self):
        members = [0, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b00011, 0b11000]
        parts = partition_support(members)
        assert len(parts) == 3
        as_sets = [set(p) for p in parts]
        assert {0b00001, 0b00010, 0b00011} in as_sets
        assert {0b00100} in as_sets
        assert {0b01000, 0b10000, 0b11000} in as_sets

    def test_partition_matches_a_union_find_reference(self):
        def reference(members):
            parent = {}

            def find(t):
                while parent.setdefault(t, t) != t:
                    t = parent[t]
                return t

            for m in members:  # union every target of a member with its lowest one
                for t in range(m.bit_length()):
                    if m >> t & 1:
                        parent[find(t)] = find((m & -m).bit_length() - 1)
            groups = {}
            for m in sorted(members):
                if m:
                    groups.setdefault(find((m & -m).bit_length() - 1), []).append(m)
            return sorted(groups.values(), key=lambda group: group[0])

        rng = np.random.default_rng(17)
        sizes = []
        for _ in range(300):
            n = int(rng.integers(1, 31))
            members = {0} if rng.random() < 0.3 else set()
            for _ in range(int(rng.integers(0, 30))):
                size = min(n, int(rng.integers(1, 4)))
                members.add(sum(1 << int(t) for t in rng.choice(n, size, replace=False)))
            members = list(members)
            rng.shuffle(members)
            parts = partition_support(members)
            assert parts == reference(members)
            assert all(type(m) is int for part in parts for m in part)
            sizes.append(len(parts))
        assert partition_support([]) == partition_support([0]) == []
        assert min(sizes) == 0 and max(sizes) >= 8

    def test_two_pair_components(self):
        # +4 pair stays whole; the -4 pair gets one variable zeroed.
        support = SupportSet.from_members(4, [0b0011, 0b1100])
        w = weights_for(support, {0b0011: 4.0, 0b1100: -4.0, 0: 1.0})
        ones, value = solve_separable(to_pseudo_boolean(w, 4, support))
        assert value == pytest.approx(1.0 + 4.0 + 0.0)
        assert ones & 0b0011 == 0b0011  # +4 component untouched
        assert ones & 0b1100 != 0b1100  # -4 component broken

    def test_random_multi_component_problems_match_bruteforce(self):
        rng = np.random.default_rng(10)
        components = []
        for _ in range(200):
            n = int(rng.integers(2, 10))
            # Disjoint blocks of targets, some left out of every term, each
            # with a few random nonempty submasks; a constant term at times.
            masks, used = set(), 0
            while used < n:
                width = int(rng.integers(1, min(3, n - used) + 1))
                if rng.random() < 0.8:
                    masks |= {int(rng.integers(1, 1 << width)) << used
                              for _ in range(int(rng.integers(1, 4)))}
                used += width
            if rng.random() < 0.5:
                masks.add(0)
            weights = rng.integers(-5, 6, size=len(masks)).astype(float)
            problem = PseudoBooleanProblem(
                terms=tuple(zip(sorted(masks), weights.tolist())), n=n,
                min_ones=int(rng.integers(0, n + 1)))
            components.append(len(partition_support(sorted(masks))))
            assert solve_separable(problem) == problem.solve_bruteforce()
        assert max(components) >= 3

    def test_matches_bruteforce_including_caps(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            groups = [0b111, 0b11000, 0b1100000]
            extra = [m for m in groups if m < (1 << n)]
            support = SupportSet.from_members(n, extra)
            w = rng.integers(-5, 6, size=support.size).astype(float)
            cap = int(rng.integers(0, n + 1))
            ones, value = to_pseudo_boolean(w, cap, support).solve_bruteforce()
            assert defend(support, w, cap) == (((1 << n) - 1) ^ ones, value)

    def test_all_singleton_components_reduce_to_additive(self):
        rng = np.random.default_rng(6)
        support = SupportSet.from_members(5, [])
        w = rng.integers(-5, 6, size=support.size).astype(float)
        for cap in range(6):
            ones, value = to_pseudo_boolean(w, cap, support).solve_bruteforce()
            assert defend(support, w, cap) == (0b11111 ^ ones, value)


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


# One oracle-table build partitions the support once and builds both sides'
# tables in one call. (The strategy listing is cached per width and cap, so
# calls into it do not count builds.)
ONE_BUILD = {"partition_support": 1, "_tables": 1}


@pytest.fixture
def table_builds(monkeypatch):
    """Calls into the two steps of an oracle-table build, counted by name.

    The partition is counted in every setgames module that binds it, so a
    caller that partitions the same support again (as ``setgames net`` once
    did for the components it prints) counts too; the table build in the
    oracles, its only caller."""
    calls = dict.fromkeys(ONE_BUILD, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    partition = oracles.partition_support
    wrapper = counted("partition_support", partition)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "setgames" and \
                getattr(module, "partition_support", None) is partition:
            monkeypatch.setattr(module, "partition_support", wrapper)
    monkeypatch.setattr(oracles, "_tables", counted("_tables", oracles._tables))
    return calls


class TestPrepared:
    def test_prepared_calls_match_one_shot_calls_and_enumeration(self):
        # A one-shot table is prepared for its side alone; the shared table
        # lists both sides' strategies from one enumeration.
        rng = np.random.default_rng(7)
        for support in random_supports(rng):
            n = support.n
            a_cap, d_cap = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
            table = oracles.prepare(support, a_cap, d_cap)
            masks = support.member_array
            for _ in range(3):
                # Narrow integer weights keep sums exact and make ties common.
                w = rng.integers(-2, 3, size=support.size).astype(float)
                one_shot = attack(support, w, a_cap)
                best = max((float(w @ ((masks & a) == masks)), -a)
                           for a in range(1 << n) if a.bit_count() <= a_cap)
                assert (one_shot[1], -one_shot[0]) == best
                assert attacker_oracle(table, w) == one_shot

                ones, value = to_pseudo_boolean(w, d_cap, support).solve_bruteforce()
                one_shot = defend(support, w, d_cap)
                got = defender_oracle(table, w)
                assert got == one_shot
                assert got == (((1 << n) - 1) ^ ones, value)

    def test_table_rows_are_coordinates_masked_to_their_component(self):
        rng = np.random.default_rng(10)
        for support in random_supports(rng):
            n = support.n
            member_comp = np.zeros(support.size, dtype=int)  # the empty member is in 0
            for c, group in enumerate(support.components):
                member_comp[[support.members.index(m) for m in group]] = c
            a_cap, d_cap = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
            prepared = oracles.prepare(support, a_cap, d_cap)
            for table, side in ((prepared.attacks, "attacker"), (prepared.defenses, "defender")):
                row_comp = np.repeat(np.arange(len(table.sizes)), table.sizes)[table.segment]
                own = row_comp[:, None] == member_comp[None, :]
                expected = coordinates(table.strategies.tolist(), support, side) * own
                assert table.hits.dtype == expected.dtype
                assert np.array_equal(table.hits, expected)

    def test_calls_reject_bad_weights_and_unprepared_sides(self):
        support = SupportSet.from_members(3, [0b011])
        table = oracles.prepare(support, 2, 2)
        for oracle in (attacker_oracle, defender_oracle):
            assert oracle(table, np.zeros(support.size)) == (0, 0.0)
            with pytest.raises(InvalidInputError):
                oracle(table, np.zeros(support.size - 1))
            with pytest.raises(InvalidInputError):
                oracle(table, np.zeros((1, support.size)))
            for bad in (np.nan, np.inf):
                w = np.zeros(support.size)
                w[2] = bad
                with pytest.raises(InvalidInputError):
                    oracle(table, w)
        with pytest.raises(InvalidInputError):
            defender_oracle(oracles.prepare(support, 2, None), np.zeros(support.size))
        with pytest.raises(InvalidInputError):
            attacker_oracle(oracles.prepare(support, None, 2), np.zeros(support.size))

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
            values = attacks @ w
            j = int(np.argmax(values))
            assert attacker_oracle(table, w) == (strategies[j], values[j])
            ones, value = to_pseudo_boolean(w, cap, support).solve_bruteforce()
            assert defender_oracle(table, w) == (((1 << n) - 1) ^ ones, value)

    def test_tables_are_read_only(self):
        game = build_compact_game(random_game(np.random.default_rng(8), 4, 2, 2))
        assert game.oracle is game.oracle
        for table in (game.oracle.attacks, game.oracle.defenses):
            for array in (table.strategies, table.hits, table.segment, table.starts):
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_cold_and_warm_listing_give_equal_tables_and_reports(self):
        # The strategy listing is cached per (width, cap): a build that fills
        # the cache and one that reads it must agree in every table and report.
        spec = random_game(np.random.default_rng(8), 6, 3, 2)
        oracles._listing.cache_clear()
        cold, warm = build_compact_game(spec), build_compact_game(spec)
        cold_tables = (cold.oracle.attacks, cold.oracle.defenses)
        assert oracles._listing.cache_info().misses == 2
        for got, want in zip((warm.oracle.attacks, warm.oracle.defenses), cold_tables):
            assert (got.cap, got.sizes) == (want.cap, want.sizes)
            for name in ("strategies", "hits", "segment", "starts"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert oracles._listing.cache_info().hits == 2
        assert solve_compact(spec, game=warm) == solve_compact(spec, game=cold)
        local, count = oracles._listing(6, 3)
        with pytest.raises(ValueError):
            local[0] = 1
        with pytest.raises(ValueError):
            count[0] = 1

    def test_solve_prepares_once(self, table_builds):
        # The solve and the certificate of its report share the game's tables.
        spec = random_game(np.random.default_rng(8), 6, 3, 3)
        game = build_compact_game(spec)
        report = solve_compact(spec, game=game)
        assert report.converged and report.oracle_calls > 10
        best_response_gap(spec, report, game)
        assert table_builds == ONE_BUILD

    def test_network_solve_and_certificate_prepare_once(self, table_builds):
        net = random_graph(np.random.default_rng(3), 7)
        report, approx = solve_network_game(net, ValueFunction(), FailureOperator(), 2, 0.1,
                                            defender_cap=2)
        assert report.converged
        best_response_gap(approx.spec, report, approx.game)
        assert table_builds == ONE_BUILD

    @pytest.mark.parametrize("command", [
        ["solve", "{game}"],
        ["net", "{graph}", "--c", "2", "--k", "1", "--eps-c", "0.5"],
    ])
    def test_cli_prepares_once(self, table_builds, tmp_path, capsys, command):
        game, graph = tmp_path / "game.json", tmp_path / "graph.txt"
        game.write_text(cli.format_game_json(random_game(np.random.default_rng(8), 6, 3, 3)))
        graph.write_text("nodes 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n2 5\n")
        assert cli.main([arg.format(game=game, graph=graph) for arg in command]) == 0
        assert table_builds == ONE_BUILD

