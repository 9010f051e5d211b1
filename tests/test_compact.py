"""Compact coordinates: support, coordinate map, bilinear identity, vertices."""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from setgames import (
    GroundSet,
    SetFunction,
    build_compact_game,
    caratheodory_decompose,
    compact_value,
    coordinates,
    expand_normal_form,
    marginal_attacker,
    marginal_defender,
    vertex_to_strategy,
)
from setgames import compact
from setgames.errors import (
    InvalidInputError,
    InvalidStrategyError,
    InvalidVertexError,
    NotInHullError,
)
from conftest import random_game, random_set_function
from test_games import make_spec


class TestBuildSupport:
    def test_additive_benefit_gives_floor_support(self):
        weights = {0b001: 1.0, 0b010: 2.0, 0b100: -0.5}
        entries = {m: sum(w for b, w in weights.items() if m & b) for m in range(8)}
        spec = make_spec(3, entries)
        support = build_compact_game(spec).support
        assert support.members == (0, 1, 2, 4)

    def test_interaction_enters_support(self):
        spec = make_spec(2, {0b01: 1.0, 0b10: 2.0, 0b11: 5.0})
        support = build_compact_game(spec).support
        assert support.members == (0, 1, 2, 3)

    def test_zero_game_keeps_floor(self):
        spec = make_spec(3, {})
        support = build_compact_game(spec).support
        assert support.members == (0, 1, 2, 4)

    def test_capped_game_only_small_benefit_sets(self):
        rng = np.random.default_rng(0)
        spec = random_game(rng, 5, 2, 5, costs=False)
        support = build_compact_game(spec).support
        assert all(m.bit_count() <= 2 for m in support.members)
        # Defender-cost coefficients stop at k like the others stop at c.
        spec = replace(random_game(rng, 6, 2, 2),
                       defender_cost=random_set_function(rng, 6, scale=0.3))
        assert max(m.bit_count() for m in build_compact_game(spec).support.members) == 2

    def test_uncapped_defender_cost_never_walks_submasks(self):
        # With k = n the superset sums take one O(n 2^n) butterfly in numpy,
        # so the package runs a few Python lines per coefficient; a walk
        # below each of the 2^n coefficients would run 3^n = 194 * 2^n.
        n = 13
        spec = random_game(np.random.default_rng(3), n, 1, n)
        package = os.path.dirname(compact.__file__)
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if not frame.f_code.co_filename.startswith(package):
                return None
            lines += event == "line"
            return count

        previous = sys.gettrace()
        sys.settrace(count)
        try:
            game = compact.build_compact_game(spec)
        finally:
            sys.settrace(previous)
        assert game.support.members[-1] == (1 << n) - 1 and game.defender_cost_vec[-1] != 0
        assert lines < 40 * 2 ** n


def attack_row(mask, support):
    return coordinates([mask], support, "attacker")[0]


def defense_row(mask, support):
    return coordinates([mask], support, "defender")[0]


class TestEmbeddings:
    def test_attacker_empty(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert attack_row(0, support).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_attacker_full(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert attack_row(0b11, support).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_attacker_single(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert attack_row(0b01, support).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_defender_empty_is_all_ones(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert defense_row(0, support).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_defender_single(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert defense_row(0b01, support).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_defender_full_keeps_only_empty_coord(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert defense_row(0b11, support).tolist() == [1.0, 0.0, 0.0, 0.0]


class TestCoordinates:
    def test_matches_per_mask_formula_on_random_supports(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            support = compact.SupportSet.from_members(
                n, [int(m) for m in rng.integers(0, 1 << n, size=int(rng.integers(0, 6)))])
            masks = [int(m) for m in rng.integers(0, 1 << n, size=int(rng.integers(0, 12)))]
            P = coordinates(masks, support, "attacker")
            Q = coordinates(np.array(masks, dtype=np.int64), support, "defender")
            assert P.shape == Q.shape == (len(masks), support.size)
            assert P.dtype == Q.dtype == np.float64
            for i, mask in enumerate(masks):
                for t, u in enumerate(support.members):
                    assert P[i, t] == float(u & mask == u)
                    assert Q[i, t] == float(u & mask == 0)

    def test_attack_and_complement_defense_share_coordinates(self):
        # U is inside A exactly when U misses full ^ A, so the two maps agree
        # up to a complement and coordinates alone cannot tell the sides apart.
        for n in (1, 3, 5):
            support = compact.SupportSet.from_members(n, [(1 << n) - 1, 0b11 & ((1 << n) - 1)])
            masks = list(range(1 << n))
            full = (1 << n) - 1
            assert np.array_equal(coordinates(masks, support, "attacker"),
                                  coordinates([full ^ m for m in masks], support, "defender"))

    @pytest.mark.parametrize("mask", [-1, 1 << 3, 1 << 40, 1 << 70, True, False,
                                      np.bool_(True), 1.0, "1"])
    @pytest.mark.parametrize("side", ["attacker", "defender"])
    def test_rejects_masks_outside_the_ground_set(self, mask, side):
        support = compact.SupportSet.from_members(3, [])
        with pytest.raises(InvalidStrategyError):
            coordinates([mask], support, side)
        with pytest.raises(InvalidStrategyError):
            coordinates([0b1, mask], support, side)

    def test_accepts_numpy_integers(self):
        support = compact.SupportSet.from_members(3, [])
        expected = coordinates([5, 2], support, "attacker")
        for kind in (np.int64, np.int32, np.uint8, np.uint64):
            assert np.array_equal(coordinates([kind(5), kind(2)], support, "attacker"), expected)
            assert np.array_equal(
                coordinates(np.array([5, 2], dtype=kind), support, "attacker"), expected)

    @pytest.mark.parametrize("members", [[-1], [8], [-1, 64]])
    def test_support_rejects_members_outside_the_ground_set(self, members):
        with pytest.raises(InvalidInputError, match=r"support members must be in \[0, 7\]"):
            compact.SupportSet.from_members(3, members)

    def test_rejects_unknown_side(self):
        support = compact.SupportSet.from_members(2, [])
        with pytest.raises(InvalidInputError):
            coordinates([1], support, "both")

    def test_marginals_reject_masks_outside_the_ground_set(self):
        support = compact.SupportSet.from_members(3, [])
        with pytest.raises(InvalidStrategyError):
            marginal_attacker(support, [(-1, 1.0)])
        with pytest.raises(InvalidStrategyError):
            marginal_defender(support, [(0b1, 0.5), (1 << 5, 0.5)])

    def test_marginals_match_one_atom_at_a_time_bit_for_bit(self):
        # The reference adds each atom's weighted 0/1 row in atom order; a
        # matrix product would round the same sums in another order.
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            support = compact.SupportSet.from_members(
                n, [int(m) for m in rng.integers(0, 1 << n, size=3)])
            masks = [int(m) for m in rng.integers(0, 1 << n, size=int(rng.integers(0, 40)))]
            probs = rng.dirichlet(np.ones(len(masks))).tolist() if masks else []
            atoms = list(zip(masks, probs))
            for side, marginal in (("attacker", marginal_attacker),
                                   ("defender", marginal_defender)):
                reference = np.zeros(support.size)
                for mask, prob in atoms:
                    reference += prob * coordinates([mask], support, side)[0]
                got = marginal(support, atoms)
                assert np.array_equal(got.view(np.int64), reference.view(np.int64))


class TestCompactValue:
    def test_reproduces_normal_form_exhaustively(self):
        rng = np.random.default_rng(1)
        for capped in [False] * 10 + [True] * 10:
            n = int(rng.integers(2, 5))
            if capped:
                # Caps below n; the defender cost also has values above k,
                # which no legal defense reads.
                c, k = (int(x) for x in rng.integers(0, n, size=2))
                spec = replace(random_game(rng, n, c, k),
                               defender_cost=random_set_function(rng, n, scale=0.3))
            else:
                spec = random_game(rng, n, n, n)
            game = build_compact_game(spec)
            nf = expand_normal_form(spec)
            P = coordinates(nf.attacker_strategies, game.support, "attacker")
            Q = coordinates(nf.defender_strategies, game.support, "defender")
            assert np.allclose(compact.payoff_block(game, P, Q), nf.matrix, rtol=0, atol=1e-9)
            for i, pa in enumerate(P):
                for j, qd in enumerate(Q):
                    assert compact_value(game, pa, qd) == pytest.approx(nf.matrix[i, j], abs=1e-9)

    def test_zero_game_is_zero(self):
        spec = make_spec(3, {})
        game = build_compact_game(spec)
        rng = np.random.default_rng(2)
        pa = rng.random(game.support.size)
        qd = rng.random(game.support.size)
        assert compact_value(game, pa, qd) == 0.0

    def test_matching_pennies_uniform_value(self):
        spec = make_spec(2, {0b01: 1.0, 0b10: 1.0}, c=1, k=1)
        game = build_compact_game(spec)
        pa = marginal_attacker(game.support, [(0b01, 0.5), (0b10, 0.5)])
        qd = marginal_defender(game.support, [(0b01, 0.5), (0b10, 0.5)])
        assert pa.tolist() == [1.0, 0.5, 0.5]
        assert qd.tolist() == [1.0, 0.5, 0.5]
        assert compact_value(game, pa, qd) == pytest.approx(0.5)

    def test_bilinear_extension_matches_matrix_bilinear_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            spec = random_game(rng, n, n, n)
            game = build_compact_game(spec)
            nf = expand_normal_form(spec)
            p = rng.dirichlet(np.ones(len(nf.attacker_strategies)))
            q = rng.dirichlet(np.ones(len(nf.defender_strategies)))
            pa = marginal_attacker(game.support, zip(nf.attacker_strategies, p))
            qd = marginal_defender(game.support, zip(nf.defender_strategies, q))
            assert compact_value(game, pa, qd) == pytest.approx(
                float(p @ nf.matrix @ q), abs=1e-9)

    def test_linear_in_each_argument(self):
        rng = np.random.default_rng(4)
        spec = random_game(rng, 3, 3, 3)
        game = build_compact_game(spec)
        size = game.support.size
        x1, x2, y = rng.random(size), rng.random(size), rng.random(size)
        a, b = 0.3, 0.7
        left = compact_value(game, a * x1 + b * x2, y)
        right = a * compact_value(game, x1, y) + b * compact_value(game, x2, y)
        # Linear in pa only when the qd-side term scales with the mixture
        # weights; with a+b=1 the affine offset cancels.
        assert left == pytest.approx(right, abs=1e-9)


class TestVertexMapping:
    def test_roundtrip_exhaustive(self):
        spec = make_spec(4, {0b1010: 2.0, 0b0110: -1.0})
        support = build_compact_game(spec).support
        Q = coordinates(range(16), support, "defender")
        for defense in range(16):
            assert vertex_to_strategy(Q[defense], support) == defense

    def test_all_ones_is_empty_defense(self):
        support = build_compact_game(make_spec(3, {})).support
        assert vertex_to_strategy(defense_row(0, support), support) == 0

    def test_zero_singletons_is_full_defense(self):
        support = build_compact_game(make_spec(3, {})).support
        assert vertex_to_strategy(defense_row(0b111, support), support) == 0b111

    def test_distinct_defenses_distinct_vertices(self):
        support = build_compact_game(make_spec(3, {0b111: 1.0})).support
        seen = {tuple(row) for row in coordinates(range(8), support, "defender")}
        assert len(seen) == 8

    def test_attacker_rows_read_as_complement_defenses(self):
        # An attack's coordinates are those of the complementary defense, so
        # the mapping reads an attack row A back as full ^ A.
        support = build_compact_game(make_spec(2, {})).support
        for attack in range(4):
            assert vertex_to_strategy(attack_row(attack, support), support) == 0b11 ^ attack

    def test_rejects_fractional_coords(self):
        support = build_compact_game(make_spec(2, {})).support
        with pytest.raises(InvalidVertexError):
            vertex_to_strategy(defense_row(1, support) * 0.5, support)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coords(self, bad):
        support = build_compact_game(make_spec(2, {})).support
        row = defense_row(1, support)
        row[support.singleton_positions[1]] = bad
        with pytest.raises(InvalidVertexError):
            vertex_to_strategy(row, support)

    def test_rejects_coords_of_the_wrong_length(self):
        support = build_compact_game(make_spec(2, {})).support
        row = defense_row(1, support)
        for bad in (row[:-1], np.append(row, 1.0), row[None, :], []):
            with pytest.raises(InvalidVertexError):
                vertex_to_strategy(bad, support)


class TestCaratheodory:
    def test_vertex_decomposes_to_itself(self):
        support = build_compact_game(make_spec(3, {})).support
        vertices = coordinates(range(8), support, "defender")
        out = caratheodory_decompose(vertices[3], vertices)
        assert len(out) == 1
        weight, index = out[0]
        assert weight == pytest.approx(1.0)
        assert index == 3

    def test_midpoint(self):
        support = build_compact_game(make_spec(2, {})).support
        vertices = coordinates([0b01, 0b10], support, "defender")
        mid = 0.5 * (vertices[0] + vertices[1])
        out = caratheodory_decompose(mid, vertices)
        weights = sorted(w for w, _ in out)
        assert weights == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_atom_bound(self):
        rng = np.random.default_rng(5)
        support = build_compact_game(make_spec(4, {})).support
        vertices = coordinates(range(16), support, "defender")
        weights = rng.dirichlet(np.ones(16))
        point = weights @ vertices
        out = caratheodory_decompose(point, vertices)
        assert len(out) <= support.size + 1
        rebuilt = sum(w * vertices[j] for w, j in out)
        assert np.allclose(rebuilt, point, atol=1e-7)

    def test_not_in_hull_raises_with_certificate(self):
        support = build_compact_game(make_spec(2, {})).support
        vertices = coordinates([0b01, 0b10], support, "defender")
        outside = defense_row(0, support)  # the no-defense vertex
        with pytest.raises(NotInHullError) as err:
            caratheodory_decompose(outside, vertices)
        normal, offset = err.value.certificate
        for v in vertices:
            assert normal @ v + offset <= 1e-9
        assert normal @ outside + offset > 1e-9

    def test_tolerance_bounds_the_l1_residual(self):
        # Off by 3e-8 in each of 5 coordinates: L-infinity 3e-8 but L1 1.5e-7,
        # over HULL_TOL, so the point is rejected; off by 1e-9 it is accepted.
        support = build_compact_game(make_spec(4, {})).support
        vertices = coordinates([0b0101], support, "defender")
        assert support.size == 5
        with pytest.raises(NotInHullError):
            caratheodory_decompose(vertices[0] + 3e-8, vertices)
        out = caratheodory_decompose(vertices[0] + 1e-9, vertices)
        assert out == [(pytest.approx(1.0), 0)]

    def test_rejects_mismatched_shapes(self):
        support = build_compact_game(make_spec(2, {})).support
        vertices = coordinates(range(4), support, "defender")
        point = vertices.mean(axis=0)
        for bad_point, bad_vertices in ((point[:-1], vertices), (point, vertices[:, :-1]),
                                        (point, vertices[0]), (point, vertices[None]),
                                        (point[None], vertices), (point, vertices[:0]),
                                        (point, [])):
            with pytest.raises(InvalidInputError):
                caratheodory_decompose(bad_point, bad_vertices)

    def test_solver_output_decomposes_end_to_end(self):
        # Optimal defender marginals decompose back over the defenses'
        # coordinates and map to a legal mixed strategy.
        from setgames import solve_compact
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            spec = random_game(rng, n, n, n)
            report = solve_compact(spec)
            game = build_compact_game(spec)
            qd = marginal_defender(game.support, report.defender.atoms)
            vertices = coordinates(range(1 << n), game.support, "defender")
            out = caratheodory_decompose(qd, vertices)
            rebuilt = sum(w * vertices[j] for w, j in out)
            assert np.allclose(rebuilt, qd, atol=1e-7)
            total = 0.0
            for w, j in out:
                d = vertex_to_strategy(vertices[j], game.support)
                assert d == j
                assert d.bit_count() <= spec.defender_cap
                total += w
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_no_vertex_in_hull_of_others(self):
        # Every defense's coordinates form a true vertex: not decomposable over the rest.
        for n in (2, 3):
            spec = make_spec(n, {(1 << n) - 1: 1.5})
            support = build_compact_game(spec).support
            vertices = coordinates(range(1 << n), support, "defender")
            for i, v in enumerate(vertices):
                with pytest.raises(NotInHullError):
                    caratheodory_decompose(v, np.delete(vertices, i, axis=0))
