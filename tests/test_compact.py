"""Compact coordinates: support, embeddings, bilinear identity, vertices."""

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
    embed_attacker,
    embed_defender,
    expand_normal_form,
    marginal_attacker,
    marginal_defender,
    vertex_to_strategy,
)
from setgames import compact
from setgames.errors import InvalidStrategyError, InvalidVertexError, NotInHullError
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
            cd = compact.interaction_coefficients(spec)[2]
        finally:
            sys.settrace(previous)
        assert max(cd.entries) == (1 << n) - 1
        assert lines < 40 * 2 ** n


class TestEmbeddings:
    def test_attacker_empty(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        v = embed_attacker(0, support)
        assert v.coords.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_attacker_full(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        v = embed_attacker(0b11, support)
        assert v.coords.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_attacker_single(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        v = embed_attacker(0b01, support)
        assert v.coords.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_defender_empty_is_all_ones(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert embed_defender(0, support).coords.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_defender_single(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert embed_defender(0b01, support).coords.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_defender_full_keeps_only_empty_coord(self):
        support = build_compact_game(make_spec(2, {0b11: 1.0})).support
        assert embed_defender(0b11, support).coords.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_cap_enforced(self):
        support = build_compact_game(make_spec(3, {0b1: 1.0})).support
        with pytest.raises(InvalidStrategyError):
            embed_attacker(0b111, support, cap=2)


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
            P = np.array([embed_attacker(a, game.support).coords for a in nf.attacker_strategies])
            Q = np.array([embed_defender(d, game.support).coords for d in nf.defender_strategies])
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
        for defense in range(16):
            v = embed_defender(defense, support)
            assert vertex_to_strategy(v) == defense

    def test_all_ones_is_empty_defense(self):
        support = build_compact_game(make_spec(3, {})).support
        v = embed_defender(0, support)
        assert vertex_to_strategy(v) == 0

    def test_zero_singletons_is_full_defense(self):
        support = build_compact_game(make_spec(3, {})).support
        v = embed_defender(0b111, support)
        assert vertex_to_strategy(v) == 0b111

    def test_distinct_defenses_distinct_vertices(self):
        support = build_compact_game(make_spec(3, {0b111: 1.0})).support
        seen = {tuple(embed_defender(d, support).coords) for d in range(8)}
        assert len(seen) == 8

    def test_rejects_attacker_vertex(self):
        support = build_compact_game(make_spec(2, {})).support
        with pytest.raises(InvalidVertexError):
            vertex_to_strategy(embed_attacker(1, support))

    def test_rejects_fractional_coords(self):
        support = build_compact_game(make_spec(2, {})).support
        v = embed_defender(1, support)
        bad = type(v)(support=support, coords=v.coords * 0.5, origin=1, role="defender")
        with pytest.raises(InvalidVertexError):
            vertex_to_strategy(bad)


class TestCaratheodory:
    def test_vertex_decomposes_to_itself(self):
        support = build_compact_game(make_spec(3, {})).support
        vertices = [embed_defender(d, support) for d in range(8)]
        target = vertices[3].coords.astype(float)
        out = caratheodory_decompose(target, vertices)
        assert len(out) == 1
        weight, vertex = out[0]
        assert weight == pytest.approx(1.0)
        assert vertex.origin == 3

    def test_midpoint(self):
        support = build_compact_game(make_spec(2, {})).support
        v1 = embed_defender(0b01, support)
        v2 = embed_defender(0b10, support)
        mid = 0.5 * (v1.coords + v2.coords)
        out = caratheodory_decompose(mid, [v1, v2])
        weights = sorted(w for w, _ in out)
        assert weights == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_atom_bound(self):
        rng = np.random.default_rng(5)
        support = build_compact_game(make_spec(4, {})).support
        vertices = [embed_defender(d, support) for d in range(16)]
        weights = rng.dirichlet(np.ones(16))
        point = sum(w * v.coords for w, v in zip(weights, vertices))
        out = caratheodory_decompose(point, vertices)
        assert len(out) <= support.size + 1
        rebuilt = sum(w * v.coords for w, v in out)
        assert np.allclose(rebuilt, point, atol=1e-7)

    def test_not_in_hull_raises_with_certificate(self):
        support = build_compact_game(make_spec(2, {})).support
        vertices = [embed_defender(d, support) for d in [0b01, 0b10]]
        outside = embed_defender(0, support).coords  # the no-defense vertex
        with pytest.raises(NotInHullError) as err:
            caratheodory_decompose(outside, vertices)
        normal, offset = err.value.certificate
        for v in vertices:
            assert normal @ v.coords + offset <= 1e-9
        assert normal @ outside + offset > 1e-9

    def test_tolerance_bounds_the_l1_residual(self):
        # Off by 3e-8 in each of 5 coordinates: L-infinity 3e-8 but L1 1.5e-7,
        # over HULL_TOL, so the point is rejected; off by 1e-9 it is accepted.
        support = build_compact_game(make_spec(4, {})).support
        vertex = embed_defender(0b0101, support)
        assert support.size == 5
        with pytest.raises(NotInHullError):
            caratheodory_decompose(vertex.coords + 3e-8, [vertex])
        out = caratheodory_decompose(vertex.coords + 1e-9, [vertex])
        assert [(w, v.origin) for w, v in out] == [(pytest.approx(1.0), 0b0101)]

    def test_solver_output_decomposes_end_to_end(self):
        # Optimal defender marginals decompose back over embedded defenses
        # and map to a legal mixed strategy.
        from setgames import solve_compact
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            spec = random_game(rng, n, n, n)
            report = solve_compact(spec)
            game = build_compact_game(spec)
            qd = marginal_defender(game.support, report.defender.atoms)
            vertices = [embed_defender(d, game.support) for d in range(1 << n)]
            out = caratheodory_decompose(qd, vertices)
            rebuilt = sum(w * v.coords for w, v in out)
            assert np.allclose(rebuilt, qd, atol=1e-7)
            total = 0.0
            for w, v in out:
                d = vertex_to_strategy(v)
                assert d.bit_count() <= spec.defender_cap
                total += w
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_no_vertex_in_hull_of_others(self):
        # Every embedded defense is a true vertex: not decomposable over the rest.
        for n in (2, 3):
            spec = make_spec(n, {(1 << n) - 1: 1.5})
            support = build_compact_game(spec).support
            vertices = [embed_defender(d, support) for d in range(1 << n)]
            for i, v in enumerate(vertices):
                others = vertices[:i] + vertices[i + 1:]
                with pytest.raises(NotInHullError):
                    caratheodory_decompose(v.coords.astype(float), others)
