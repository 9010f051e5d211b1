"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they happen). Every tolerance is pinned here; nothing
is calibrated at runtime.
"""

import time
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest

from setgames import (
    GameSpec,
    GroundSet,
    SetFunction,
    SupportSet,
    attacker_oracle,
    build_compact_game,
    compact_value,
    coordinates,
    defender_oracle,
    expand_normal_form,
    induce_benefit,
    moebius,
    solve_bruteforce,
    solve_compact,
    solve_network_game,
    to_pseudo_boolean,
    verify_ne_equivalence,
    vertex_to_strategy,
    zeta,
    FailureOperator,
    ValueFunction,
)
from setgames.oracles import prepare
from conftest import additive_game, random_game, random_graph, random_set_function, split_tables


def report(number, text):
    print(f"[acceptance] criterion {number}: PASS ({text})")


class TestCriterion1TransformRoundtrip:
    def test_roundtrip_500_random_functions(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for trial in range(500):
            n = int(rng.integers(1, 13))
            scale = float(10.0 ** rng.integers(-2, 3))
            f = random_set_function(rng, n, scale=scale)
            back = zeta(moebius(f))
            worst = max(abs(back.value(m) - f.value(m)) for m in range(1 << n))
            assert worst <= 1e-9, f"trial {trial}: roundtrip error {worst}"
        # Rational mode: the roundtrip is exact, not just close.
        for trial in range(25):
            n = int(rng.integers(1, 9))
            g = GroundSet(n)
            f = SetFunction(g, {m: Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 13)))
                                for m in range(1, 1 << n)})
            back = zeta(moebius(f, exact=True), exact=True)
            assert all(back.value(m) == f.value(m) for m in range(1 << n))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        report(1, f"500 roundtrips within 1e-9, exact mode exact, {elapsed:.1f}s")


class TestCriterion2DecompositionIdentity:
    def test_compact_value_reproduces_payoffs(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            spec = random_game(rng, n, n, n, sparse=bool(rng.integers(0, 2)))
            game = build_compact_game(spec)
            nf = expand_normal_form(spec)
            attack_vertices = coordinates(nf.attacker_strategies, game.support, "attacker")
            defense_vertices = coordinates(nf.defender_strategies, game.support, "defender")
            for i, va in enumerate(attack_vertices):
                for j, vd in enumerate(defense_vertices):
                    got = compact_value(game, va, vd)
                    worst = max(worst, abs(got - nf.matrix[i, j]))
            assert worst <= 1e-9, f"decomposition error {worst}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
        report(2, f"100 games, all pure pairs within 1e-9 (worst {worst:.2e}), {elapsed:.1f}s")


class TestCriterion3RankBound:
    def test_numerical_rank_at_most_support_size(self):
        rng = np.random.default_rng(1003)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(3, 9))
            spec = random_game(rng, n, n, n, sparse=True)
            support = build_compact_game(spec).support
            nf = expand_normal_form(spec)
            norm = np.linalg.norm(nf.matrix, 2)
            if norm == 0:
                continue
            rank = int(np.linalg.matrix_rank(nf.matrix, tol=1e-8 * norm))
            assert rank <= support.size, f"rank {rank} > support {support.size}"
            checked += 1
        assert checked >= 45
        report(3, f"{checked} sparse games, rank(M) <= support size at 1e-8 cutoff")


class TestCriterion4EquilibriumEquivalence:
    def test_compact_matches_bruteforce(self):
        start = time.perf_counter()
        rng = np.random.default_rng(1004)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            caps = (1, 2, n)
            c = int(caps[rng.integers(0, 3)])
            k = int(caps[rng.integers(0, 3)])
            spec = random_game(rng, n, c, k, sparse=bool(rng.integers(0, 2)))
            reference = solve_bruteforce(spec)
            result = solve_compact(spec)
            diff = abs(result.value - reference.value)
            assert diff <= 1e-6, f"trial {trial} (n={n} c={c} k={k}): value off by {diff}"
            assert verify_ne_equivalence(spec, result.attacker, result.defender, 1e-5), (
                f"trial {trial}: compact mixtures are not a 1e-5 equilibrium")
            assert verify_ne_equivalence(spec, reference.attacker, reference.defender, 1e-5)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
        report(4, f"200 games within 1e-6 and 1e-5-equilibrium checked, {elapsed:.1f}s")


class TestCriterion5VertexMapping:
    def test_roundtrip_exhaustive_and_linear_cost(self):
        # Exhaustive inversion over every defense for each n up to 12.
        for n in range(1, 13):
            support = SupportSet.from_members(n, [])
            seen = set()
            vertices = coordinates(range(1 << n), support, "defender")
            for defense in range(1 << n):
                got = vertex_to_strategy(vertices[defense], support)
                assert got == defense
                seen.add(got)
            assert len(seen) == 1 << n

        # Cost model: count the coordinates the mapping reads. Reading exactly
        # the n singleton coordinates is linear in n; any superlinear mapping
        # reads more than n of them for some n below.
        for n in (6, 12, 24):
            support = SupportSet.from_members(n, [])
            vertex = coordinates([(1 << n) // 3], support, "defender")[0]
            coords = vertex.view(_CountingCoords)
            assert vertex_to_strategy(coords, support) == (1 << n) // 3
            assert coords.reads == n, f"n={n}: read {coords.reads} coordinates, expected {n}"
        report(5, "exhaustive inverse up to n=12; reads exactly n coordinates for n in 6, 12, 24")


class _CountingCoords(np.ndarray):
    """Coordinate vector that counts the elements read through indexing."""

    reads = 0

    def __getitem__(self, key):
        out = super().__getitem__(key)
        self.reads += np.size(out)
        return out


class TestCriterion6PseudoBooleanEquivalence:
    def test_three_routes_agree_exactly(self):
        rng = np.random.default_rng(1006)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            extras = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(0, 4)))]
            support = SupportSet.from_members(n, extras)
            # Integer weights keep every summation route bit-identical, so
            # value equality can be exact and ties are real ties.
            weights = rng.integers(-9, 10, size=support.size).astype(float)
            cap = int(rng.integers(0, n + 1))
            problem = to_pseudo_boolean(weights, cap, support)
            ones, pb_value = problem.solve_bruteforce()
            pb_defense = ((1 << n) - 1) ^ ones

            vertex_best, vertex_defense = -np.inf, None
            defenses = [d for d in range(1 << n) if d.bit_count() <= cap]
            for defense, vertex in zip(defenses, coordinates(defenses, support, "defender")):
                value = float(weights @ vertex)
                if value > vertex_best:
                    vertex_best, vertex_defense = value, defense

            oracle_defense, oracle_value = defender_oracle(prepare(support, cap, cap), weights)

            assert pb_value == vertex_best == oracle_value, f"trial {trial}"
            assert pb_defense == vertex_defense == oracle_defense, f"trial {trial}"
        report(6, "100 weight vectors: polynomial, vertex, and oracle optima identical")


class TestCriterion7AdditiveDegeneration:
    def test_support_floor_and_additive_oracle(self):
        rng = np.random.default_rng(1007)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            spec = additive_game(rng, n, n, n)
            support = build_compact_game(spec).support
            expected = tuple(sorted({0} | {1 << i for i in range(n)}))
            assert support.members == expected, f"trial {trial}: support {support.members}"
            weights = rng.integers(-9, 10, size=support.size).astype(float)
            cap = int(rng.integers(0, n + 1))
            fast_defense, fast_value = defender_oracle(prepare(support, cap, cap), weights)
            ones, value = to_pseudo_boolean(weights, cap, support).solve_bruteforce()
            assert fast_value == value and fast_defense == ((1 << n) - 1) ^ ones
        # The singleton support drives the full solve to the same value.
        for _ in range(10):
            spec = additive_game(rng, 5, 5, 5)
            reference = solve_bruteforce(spec)
            result = solve_compact(spec)
            assert abs(result.value - reference.value) <= 1e-6
        report(7, "100 additive games: floor support exact, oracle == exhaustive enumeration")


class TestCriterion8ApproximationBound:
    def test_value_error_within_bound(self):
        # The defender guards one node (k = 1), so the value is nonzero on
        # almost every graph and the bound is tested against a real error.
        start = time.perf_counter()
        rng = np.random.default_rng(1008)
        cap, k = 2, 1
        vf = ValueFunction("connected_pairs")
        fop = FailureOperator("node_removal")
        nonzero, worst = 0, 0.0
        for trial in range(50):
            n = int(rng.integers(4, 9))
            net = random_graph(rng, n, p=float(rng.uniform(0.3, 0.7)))
            benefit = induce_benefit(net, vf, fop, cap)
            zero = SetFunction(GroundSet(n))
            exact_value = solve_bruteforce(
                GameSpec(GroundSet(n), benefit, zero, zero, cap, k)).value
            nonzero += abs(exact_value) > 1e-9

            coeffs = moebius(benefit, max_size=cap)
            magnitudes = [abs(v) for v in coeffs.entries.values()]
            top = max(magnitudes, default=1.0)
            eps_c = float(rng.uniform(0.0, top))
            result, approx = solve_network_game(net, vf, fop, cap, eps_c, defender_cap=k)
            bound = 2 ** (cap + 1) * eps_c
            assert approx.error_bound == pytest.approx(bound)
            diff = abs(exact_value - result.value)
            assert diff <= bound + 1e-9, (
                f"trial {trial}: |{exact_value} - {result.value}| = {diff} > {bound}")
            worst = max(worst, diff / bound if bound > 0 else 0.0)

            exact_result, _ = solve_network_game(net, vf, fop, cap, 0.0, defender_cap=k)
            assert abs(exact_result.value - exact_value) <= 1e-6
        assert nonzero >= 45, f"only {nonzero} of 50 exact values are nonzero"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
        report(8, f"50 graphs, k={k}: {nonzero} nonzero values, |exact - approx| <= "
                  f"2^(c+1) eps_c (worst ratio {worst:.2f}), eps_c=0 exact, {elapsed:.1f}s")


def check_both_oracles(weights, cap, support, trial):
    """Both oracles equal exhaustive enumeration, value and strategy."""
    n = support.n
    prepared = prepare(support, cap, cap)
    ones, value = to_pseudo_boolean(weights, cap, support).solve_bruteforce()
    defense, defense_value = defender_oracle(prepared, weights)
    assert defense_value == value, f"trial {trial}"
    assert defense == ((1 << n) - 1) ^ ones, f"trial {trial}"
    # Attacks in ascending order, so argmax keeps the smallest on ties.
    attacks = [a for a in range(1 << n) if a.bit_count() <= cap]
    masks = support.member_array
    values = ((np.array(attacks)[:, None] & masks) == masks) @ weights
    best = int(np.argmax(values))
    attack, attack_value = attacker_oracle(prepared, weights)
    assert attack_value == values[best], f"trial {trial}"
    assert attack == attacks[best], f"trial {trial}"


class TestCriterion9OracleConsistency:
    def test_methods_agree_with_bruteforce(self):
        rng = np.random.default_rng(1009)
        instances = []
        # 100 separable-applicable instances: several disjoint blocks.
        for trial in range(100):
            n = int(rng.integers(4, 11))
            blocks, used = [], 0
            while used < n:
                width = int(rng.integers(1, min(4, n - used) + 1))
                if width > 1:
                    blocks.append(((1 << width) - 1) << used)
                used += width
            support = SupportSet.from_members(n, blocks)
            weights = rng.integers(-9, 10, size=support.size).astype(float)
            instances.append((weights, int(rng.integers(0, n + 1)), support))
        # 100 additive-applicable instances: singleton supports.
        for trial in range(100):
            n = int(rng.integers(2, 11))
            support = SupportSet.from_members(n, [])
            weights = rng.integers(-9, 10, size=support.size).astype(float)
            instances.append((weights, int(rng.integers(0, n + 1)), support))
        # Every listing here is small, so the default rule gives whole tables;
        # split tables answer by the knapsack across the support's components.
        components = {}
        for rule, name in ((nullcontext, "whole"), (split_tables, "split")):
            with rule():
                for trial, (weights, cap, support) in enumerate(instances):
                    check_both_oracles(weights, cap, support, trial)
                    components[name] = max(components.get(name, 0),
                                           len(prepare(support, cap, cap).defenses.sizes))
        assert components == {"whole": 1, "split": 10}
        report(9, "200 instances: both oracles match exhaustive enumeration, ties included, "
                  "on whole tables (1 component) and on split tables (up to "
                  f"{components['split']} components)")
