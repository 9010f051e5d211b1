"""Solvers: brute force reference, constraint generation, gap certificates."""

import gc
import json
import warnings
import weakref
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgames import (
    EquilibriumReport,
    GameSpec,
    GroundSet,
    MixedStrategy,
    SetFunction,
    SolverConfig,
    SupportSet,
    best_response_gap,
    build_compact_game,
    coordinates,
    expand_normal_form,
    solve_bruteforce,
    solve_compact,
    verify_ne_equivalence,
    zeta,
)
from setgames import equilibrium, oracles
from setgames.bits import count_up_to_size, masks_up_to_size, targets_of
from setgames.cli import main, parse_game_json
from setgames.compact import payoff_block
from setgames.equilibrium import _check_atom_bound
from setgames.errors import (CapacityError, InvalidInputError, InvalidStrategyError,
                             SolverFailureError)
from conftest import additive_game, random_game, split_tables
from test_games import make_spec


# A dense n = 10, c = k = 3 game: its 176x176 table game is within SEED_CELLS.
DENSE_N10 = Path(__file__).resolve().parent / "golden" / "dense_n10.json"
# random_game(default_rng(0), 11, 3, 3): its 232x232 table game is above SEED_CELLS.
DENSE_N11 = Path(__file__).resolve().parent / "golden" / "dense_n11.json"


def scaled(spec, factor):
    """``spec`` with every utility multiplied by ``factor``."""
    def times(f):
        return SetFunction(f.ground, {m: v * factor for m, v in f.entries.items()},
                           f.default * factor)
    return replace(spec, benefit=times(spec.benefit), attacker_cost=times(spec.attacker_cost),
                   defender_cost=times(spec.defender_cost))


def game_document(spec):
    """``spec`` as a game file; its utilities must default to 0."""
    def records(f):
        return [{"set": list(targets_of(m)), "value": v} for m, v in sorted(f.entries.items())]
    return json.dumps({"n": spec.n, "c": spec.attacker_cap, "k": spec.defender_cap,
                       "benefit": records(spec.benefit),
                       "cost_attacker": records(spec.attacker_cost),
                       "cost_defender": records(spec.defender_cost)})


@pytest.fixture
def pools(monkeypatch):
    """The ``pool`` argument of every oracle query a solve makes, in order."""
    asked = []

    def recording(oracle):
        return lambda prepared, weights, pool=None: asked.append(pool) or oracle(
            prepared, weights, pool)

    for name in ("attacker_oracle", "defender_oracle"):
        monkeypatch.setattr(equilibrium, name, recording(getattr(equilibrium, name)))
    return asked


def matching_pennies():
    return make_spec(2, {0b01: 1.0, 0b10: 1.0}, c=1, k=1)


class TestBruteforce:
    def test_matching_pennies(self):
        report = solve_bruteforce(matching_pennies())
        assert report.value == pytest.approx(0.5)
        assert dict(report.defender.atoms) == {0b01: pytest.approx(0.5), 0b10: pytest.approx(0.5)}
        assert dict(report.attacker.atoms) == {0b01: pytest.approx(0.5), 0b10: pytest.approx(0.5)}

    def test_zero_game(self):
        report = solve_bruteforce(make_spec(3, {}))
        assert report.value == 0.0

    def test_costly_attack_stays_home(self):
        spec = make_spec(1, {0b1: 1.0}, cost_a={0b1: 2.0}, c=1, k=1)
        report = solve_bruteforce(spec)
        assert report.value == pytest.approx(0.0)
        assert report.attacker.atoms == ((0, 1.0),)

    def test_gaps_certify(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            spec = random_game(rng, 4, 2, 2)
            report = solve_bruteforce(spec)
            a_gap, d_gap = best_response_gap(spec, report)
            assert a_gap <= 1e-8 and d_gap <= 1e-8

    def test_normal_form_past_the_dense_table_limit(self):
        # n = 25 is past MAX_DENSE, so no 2^n table of a utility can be built;
        # the 26x26 normal form reads each one at its strategies' masks.
        rng = np.random.default_rng(5)
        n = 25
        benefit = {1 << i: float(rng.uniform(1, 3)) for i in range(n)}
        benefit[0b11] = 9.0  # above the attacker cap: never read
        cost_a = {1 << i: float(rng.uniform(0, 0.5)) for i in range(n)}
        cost_d = {1 << i: float(rng.uniform(0, 0.5)) for i in range(n)}
        spec = make_spec(n, benefit, cost_a=cost_a, cost_d=cost_d, c=1, k=1)
        nf = expand_normal_form(spec)
        assert nf.matrix.shape == (26, 26)
        assert nf.matrix[1, 2] == benefit[1] - cost_a[1] + cost_d[2]
        assert nf.matrix[1, 1] == -cost_a[1] + cost_d[1]
        reference = solve_bruteforce(spec)
        report = solve_compact(spec)
        assert report.converged
        assert report.value == pytest.approx(reference.value, rel=1e-9)
        assert verify_ne_equivalence(spec, report.attacker, report.defender, 1e-7)
        assert verify_ne_equivalence(spec, reference.attacker, reference.defender, 1e-7)


class TestSolverConfig:
    @pytest.mark.parametrize("eps_gap", [float("inf"), float("nan"), -1e-7, 0.0, True, "1e-7"])
    def test_rejects_bad_gap_tolerance(self, eps_gap):
        with pytest.raises(InvalidInputError):
            SolverConfig(eps_gap=eps_gap)

    def test_accepts_good_values(self):
        spec = random_game(np.random.default_rng(1), 5, 2, 2)
        for config in (SolverConfig(eps_gap=1e-3), SolverConfig(eps_gap=np.float64(1e-9))):
            assert solve_compact(spec, config).converged


class TestCompactSolver:
    def test_matching_pennies(self):
        report = solve_compact(matching_pennies())
        assert report.converged
        assert report.value == pytest.approx(0.5, abs=1e-7)
        assert dict(report.defender.atoms) == {0b01: pytest.approx(0.5), 0b10: pytest.approx(0.5)}

    def test_matches_bruteforce_on_random_games(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            caps = [1, 2, n]
            c = caps[rng.integers(0, 3)]
            k = caps[rng.integers(0, 3)]
            spec = random_game(rng, n, c, k, sparse=bool(rng.integers(0, 2)))
            reference = solve_bruteforce(spec)
            report = solve_compact(spec)
            assert report.converged, f"trial {trial} did not converge"
            assert report.value == pytest.approx(reference.value, abs=1e-6)
            assert verify_ne_equivalence(spec, report.attacker, report.defender, 1e-5)

    def test_additive_game_with_full_cover(self):
        rng = np.random.default_rng(2)
        spec = additive_game(rng, 5, 5, 5, costs=False)
        reference = solve_bruteforce(spec)
        report = solve_compact(spec)
        assert report.value == pytest.approx(reference.value, abs=1e-7)

    def test_strategy_caps_respected(self):
        rng = np.random.default_rng(3)
        spec = random_game(rng, 5, 2, 1)
        report = solve_compact(spec)
        assert all(m.bit_count() <= 2 for m, _ in report.attacker.atoms)
        assert all(m.bit_count() <= 1 for m, _ in report.defender.atoms)

    def test_atom_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            spec = random_game(rng, 5, 5, 5, sparse=True)
            report = solve_compact(spec)
            assert len(report.attacker.atoms) <= report.support_size
            assert len(report.defender.atoms) <= report.support_size

    def test_atom_bound_violation_raises(self):
        support = SupportSet.from_members(2, [])  # {}, {1}, {2}
        _check_atom_bound("attacker", np.array([0.5, 0.0, 0.25, 0.25]), support)
        with pytest.raises(SolverFailureError) as info:
            _check_atom_bound("defender", np.full(4, 0.25), support)
        assert info.value.diagnostics == {"side": "defender", "atoms": 4, "support_size": 3}

    def test_gap_certificate(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_game(rng, int(rng.integers(2, 6)), 2, 2)
            report = solve_compact(spec)
            a_gap, d_gap = best_response_gap(spec, report)
            assert a_gap <= 1e-6 and d_gap <= 1e-6

    @pytest.mark.parametrize("attacker, defender", [
        (((0b11, 1.0),), ((0b01, 1.0),)),  # an attack on two targets, c = 1
        (((0b01, 0.5), (0b10, 0.5)), ((0b11, 1.0),)),  # a defense of two targets, k = 1
    ])
    def test_certificate_rejects_atoms_over_the_caps(self, attacker, defender):
        # Both pairs read gaps (0, 0) or better on the compact coordinates, yet
        # neither is a pair of legal mixtures.
        spec = make_spec(2, {0b01: 1.0, 0b10: 1.0, 0b11: 10.0}, c=1, k=1)
        report = EquilibriumReport(value=0.0, defender=MixedStrategy(defender),
                                   attacker=MixedStrategy(attacker), iterations=1,
                                   support_size=0, oracle_calls=0, converged=True)
        with pytest.raises(InvalidStrategyError):
            best_response_gap(spec, report)
        with pytest.raises(InvalidStrategyError):
            verify_ne_equivalence(spec, report.attacker, report.defender, 1e-9)

    def test_defender_cost_past_the_dense_limit(self):
        # n=26 is past the dense-table limit; with k=2 the defender cost is
        # transformed only up to pairs, and its value on a triple is never read.
        rng = np.random.default_rng(8)
        n = 26
        benefit = {1 << i: float(rng.uniform(1, 3)) for i in range(n)}
        cost_d = {1 << i: float(rng.uniform(0, 0.5)) for i in range(n)}
        for i in range(0, n - 1, 2):
            benefit[0b11 << i] = benefit[1 << i] + benefit[2 << i] + float(rng.uniform(-1, 1))
            cost_d[0b11 << i] = cost_d[1 << i] + cost_d[2 << i] - 0.1
        cost_d[0b111] = 5.0
        spec = make_spec(n, benefit, cost_d=cost_d, c=2, k=2)
        assert max(m.bit_count() for m in build_compact_game(spec).support.members) == 2
        report = solve_compact(spec)
        assert report.converged
        a_gap, d_gap = best_response_gap(spec, report)
        assert a_gap <= 1e-7 and d_gap <= 1e-7

    @pytest.mark.usefixtures("unseeded")
    def test_small_gaps_still_add_strategies(self):
        # At 1e-4 of unit scale the round gaps fall between eps_gap and
        # 1e3 * eps_gap, so a solve that adds strategies only past a larger
        # gap stops early and far from the equilibrium. Seeded, this game
        # would be whole in round 1 and add nothing.
        spec = scaled(random_game(np.random.default_rng(0), 10, 3, 3), 1e-4)
        game = build_compact_game(spec)
        report = solve_compact(spec, game=game)
        assert report.converged
        assert max(best_response_gap(spec, report, game)) <= 1e-9 * 1e-4

    def test_gap_past_ten_eps_gap_is_not_converged(self, monkeypatch, tmp_path, capsys):
        # The attacker's oracle reports a gap of 1e-5 (100 * eps_gap) on the empty
        # attack, which is always in the restricted game, so the solve stops
        # there: not converged, and the CLI's solve and verify exit 3.
        real = equilibrium._gains

        def stuck(game, pa, qd, current, pool=0):
            return [(0, 1e-5)], real(game, pa, qd, current, pool)[1]

        monkeypatch.setattr(equilibrium, "_gains", stuck)
        spec = random_game(np.random.default_rng(0), 10, 3, 3)
        assert not solve_compact(spec).converged
        path = tmp_path / "game.json"
        path.write_text(game_document(spec))
        for command in ("solve", "verify"):
            assert main([command, str(path)]) == 3
            assert capsys.readouterr() == (
                "", "solver failure: constraint generation did not converge\n")

    def test_support_guard_stops_the_solve(self):
        # Every one of the 10,903 sets of at most 4 of 23 targets has a coefficient.
        g = GroundSet(23)
        masks = masks_up_to_size(23, 4)[1:].tolist()
        values = np.random.default_rng(0).uniform(1.0, 2.0, len(masks)).tolist()
        benefit = zeta(SetFunction(g, dict(zip(masks, values))), max_size=4)
        spec = GameSpec(g, benefit, SetFunction(g), SetFunction(g), 4, 1)
        with pytest.raises(CapacityError, match="support of size 10903 exceeds the guard"):
            solve_compact(spec)

    def test_small_one_component_game_solves_in_one_round(self):
        # A one-component table lists every capped strategy, so the seeded
        # first round is the whole game and both oracles certify it.
        spec = random_game(np.random.default_rng(3), 6, 2, 2)
        game = build_compact_game(spec)
        assert len(game.support.components) == 1
        tables = (game.oracle.attacks, game.oracle.defenses)
        rows, cols = (np.unique(table.strategies).size for table in tables)
        assert (rows, cols) == (count_up_to_size(6, 2), count_up_to_size(6, 2))
        assert rows * cols <= equilibrium.SEED_CELLS
        trace = []
        report = solve_compact(spec, trace=trace, game=game)
        assert report.converged and report.iterations == len(trace) == 1
        assert (trace[0]["attacker_vertices"], trace[0]["defender_vertices"]) == (rows, cols)
        assert report.value == pytest.approx(solve_bruteforce(spec).value, rel=1e-9, abs=1e-9)
        assert max(best_response_gap(spec, report, game)) <= SolverConfig().eps_gap

    @pytest.mark.usefixtures("split")
    def test_seed_lists_each_table_strategy_once(self):
        # A multi-component table repeats the empty strategy per component;
        # the seed holds it once, and the strategies that span components
        # are left to the oracles. (Whole tables would list them all.)
        spec = additive_game(np.random.default_rng(4), 6, 2, 2)
        game = build_compact_game(spec)
        assert len(game.support.components) == 6
        trace = []
        report = solve_compact(spec, trace=trace, game=game)
        assert report.converged
        for table, key in ((game.oracle.attacks, "attacker_vertices"),
                           (game.oracle.defenses, "defender_vertices")):
            assert trace[0][key] == np.unique(table.strategies).size == 7 < table.strategies.size
            assert np.array_equal(table.distinct, np.unique(table.strategies))

    @pytest.mark.usefixtures("split")
    def test_seeded_solves_ask_for_no_runner_ups(self, monkeypatch, pools):
        # Every runner-up is one table row, and the seeded game holds every
        # row; an unseeded solve of the same game asks for the pool. Split
        # tables keep the seeded solve past one round.
        spec = additive_game(np.random.default_rng(4), 6, 2, 2)  # 6 components
        seeded = solve_compact(spec)
        assert seeded.converged and seeded.iterations > 1
        assert pools == [0] * seeded.oracle_calls
        pools.clear()
        monkeypatch.setattr(equilibrium, "SEED_CELLS", 0)
        assert solve_compact(spec).converged
        assert set(pools) == {equilibrium.POOL}

    def test_report_mixtures_leave_out_zero_weights_only(self):
        # Weights of 1e-12 or less are dropped before from_pairs; NaN and
        # infinities are not, so the mixture still raises on them.
        weights = np.array([0.5, 0.0, -1e-13, 1e-12, 0.5])
        assert equilibrium._mixture([5, 4, 3, 2, 1], weights) == MixedStrategy(((1, 0.5), (5, 0.5)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError, match="not a finite real"):
                equilibrium._mixture([1, 2], np.array([1.0, bad]))

    def test_dense_table_game_solves_in_one_round(self, pools):
        # The 176x176 table game is within the limit: one cold LP on every
        # capped strategy, certified by both oracles with no runner-ups.
        spec = parse_game_json(DENSE_N10.read_text())
        game = build_compact_game(spec)
        trace = []
        report = solve_compact(spec, trace=trace, game=game)
        assert report.converged and report.iterations == len(trace) == 1
        assert (trace[0]["attacker_vertices"], trace[0]["defender_vertices"]) == (176, 176)
        assert pools == [0, 0]
        assert report.value == pytest.approx(solve_bruteforce(spec).value, rel=1e-9, abs=1e-9)
        assert max(best_response_gap(spec, report, game)) <= SolverConfig().eps_gap

    def test_game_over_the_seed_limit_starts_from_the_empty_pair(self):
        spec = parse_game_json(DENSE_N11.read_text())
        assert spec == random_game(np.random.default_rng(0), 11, 3, 3)
        game = build_compact_game(spec)
        rows, cols = (np.unique(table.strategies).size
                      for table in (game.oracle.attacks, game.oracle.defenses))
        assert rows * cols > equilibrium.SEED_CELLS
        trace = []
        report = solve_compact(spec, trace=trace, game=game)
        assert report.converged and report.iterations == len(trace) > 1
        assert (trace[0]["attacker_vertices"], trace[0]["defender_vertices"]) == (1, 1)
        assert trace[0]["lp_pivots"] == 1
        assert max(best_response_gap(spec, report, game)) <= SolverConfig().eps_gap

    @pytest.mark.usefixtures("unseeded")
    def test_trace_records_monotone_bounds(self):
        rng = np.random.default_rng(6)
        spec = random_game(rng, 5, 5, 5)
        trace = []
        report = solve_compact(spec, trace=trace)
        assert report.converged
        assert len(trace) == report.iterations
        # Attacker best response vs the defender mixture upper-bounds the
        # value; the defender side lower-bounds it. Running bounds shrink.
        uppers = np.minimum.accumulate(
            [rec["restricted_value"] + rec["attacker_gap"] for rec in trace])
        lowers = np.maximum.accumulate(
            [rec["restricted_value"] - rec["defender_gap"] for rec in trace])
        assert all(u + 1e-9 >= l for u, l in zip(uppers, lowers))
        assert lowers[-1] - 1e-6 <= report.value <= uppers[-1] + 1e-6
        # Each round records its LP's pivots; the first, cold 1x1 solve takes one.
        pivots = [rec["lp_pivots"] for rec in trace]
        assert all(isinstance(p, int) and p >= 0 for p in pivots) and pivots[0] == 1

    @pytest.mark.usefixtures("unseeded")
    def test_trace_growth_matches_added_strategies(self):
        # Each round's strategy counts grow by exactly the previous round's
        # added strategies, and a side within tolerance adds none.
        # n = 8 keeps every game past 2 rounds with the column pool.
        rng = np.random.default_rng(7)
        eps = SolverConfig().eps_gap
        specs = [random_game(rng, 8, c, k) for c, k in [(5, 5), (3, 2), (2, 3)]]
        # A game whose sides fall within tolerance one at a time.
        specs.append(random_game(np.random.default_rng(0), 8, 5, 5))
        one_sided = 0
        for spec in specs:
            trace = []
            report = solve_compact(spec, trace=trace)
            assert report.converged and len(trace) > 2
            one_sided += sum((rec["attacker_gap"] > eps) != (rec["defender_gap"] > eps)
                             for rec in trace)
            attacks, defenses = [0], [0]
            for rec in trace:
                assert rec["attacker_vertices"] == len(attacks)
                assert rec["defender_vertices"] == len(defenses)
                assert rec["attacker_gap"] > eps or not rec["added_attacks"]
                assert rec["defender_gap"] > eps or not rec["added_defenses"]
                attacks += rec["added_attacks"]
                defenses += rec["added_defenses"]
            assert len(set(attacks)) == len(attacks)
            assert len(set(defenses)) == len(defenses)
        assert one_sided > 0

    @pytest.mark.usefixtures("unseeded")
    def test_trace_counts_oracle_calls(self):
        # Exactly one query per side and round, at the restricted optimum,
        # whether or not the side has a gap.
        rng = np.random.default_rng(9)
        eps = SolverConfig().eps_gap
        for c, k in [(5, 5), (3, 2), (2, 3), (3, 3)]:
            trace = []
            report = solve_compact(random_game(rng, 6, c, k), trace=trace)
            assert report.converged and len(trace) > 2
            calls = [rec["oracle_calls"] for rec in trace]
            assert sum(calls) == report.oracle_calls
            assert calls[0] == 2
            assert all(calls_in_round == 2 for calls_in_round in calls)
            assert trace[-1]["attacker_gap"] <= eps and trace[-1]["defender_gap"] <= eps
            assert calls[-1] == 2

    @pytest.mark.usefixtures("unseeded")
    def test_pool_cuts_rounds(self, monkeypatch):
        # POOL = 0 adds the best responses only: the solves still converge
        # and certify, but take more rounds than with the runner-ups.
        eps = SolverConfig().eps_gap

        def total_rounds():
            rng = np.random.default_rng(0)
            rounds = 0
            for _ in range(8):
                spec = random_game(rng, 7, 3, 3)
                game = build_compact_game(spec)
                report = solve_compact(spec, game=game)
                assert report.converged
                assert max(best_response_gap(spec, report, game)) <= eps
                rounds += report.iterations
            return rounds

        pooled = total_rounds()
        monkeypatch.setattr(equilibrium, "POOL", 0)
        assert total_rounds() > pooled


class TestSeed:
    """The seeded restricted game: its coordinates and ``A & ~D`` index are
    built once per prepared oracle and cached with the tables."""

    @pytest.mark.parametrize("make, split, searched", [
        # Whole tables; 2^10 positions fit in the 176x176 cells, so a table places them.
        (lambda: parse_game_json(DENSE_N10.read_text()), False, False),
        (lambda: random_game(np.random.default_rng(3), 6, 2, 2), False, False),
        # Split tables, over 6 one-target components and over components of 7, 3 and 1
        # members (15x15 cells, 2^7 positions).
        (lambda: additive_game(np.random.default_rng(4), 6, 2, 2), True, True),
        (lambda: random_game(np.random.default_rng(1), 7, 2, 2, sparse=True, costs=False),
         True, False),
        # 17x17 cells against 2^16 positions: binary search.
        (lambda: random_game(np.random.default_rng(6), 16, 1, 1), False, True),
    ], ids=["dense_n10", "whole", "split-additive", "split-sparse", "searched"])
    def test_seeded_payoff_is_the_bilinear_form(self, monkeypatch, make, split, searched):
        payoffs = []

        def recording(payoff, **kwargs):
            payoffs.append(payoff)
            return solve(payoff, **kwargs)

        solve = equilibrium.solve_matrix_game
        monkeypatch.setattr(equilibrium, "solve_matrix_game", recording)
        spec = make()
        with split_tables() if split else nullcontext():
            game = build_compact_game(spec)
            assert solve_compact(spec, game=game).converged
            tables = (game.oracle.attacks, game.oracle.defenses)
            P, Q, index = game.oracle.seed
        # A split table repeats the empty strategy once per component after the first.
        assert (tables[0].distinct.size < tables[0].strategies.size) == split
        assert (1 << spec.n > index.size) == searched
        assert np.array_equal(P, coordinates(tables[0].distinct, game.support, "attacker"))
        assert np.array_equal(Q, coordinates(tables[1].distinct, game.support, "defender"))
        expected = payoff_block(game, P, Q)
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(payoffs[0] - expected).max() <= 1e-12 * scale

    def test_games_on_one_support_share_a_read_only_seed_until_the_cache_clears(self):
        spec = random_game(np.random.default_rng(3), 6, 2, 2)
        first, second = build_compact_game(spec), build_compact_game(scaled(spec, 2.0))
        assert first.support == second.support and first is not second
        seed = first.oracle.seed
        assert second.oracle.seed is seed
        for array in seed:
            assert not array.flags.writeable
        kept = weakref.ref(seed[0])
        oracles.prepare.cache_clear()
        assert build_compact_game(spec).oracle.seed is not seed
        del first, second, seed
        gc.collect()
        assert kept() is None


def relabeled(spec, perm):
    """``spec`` with target ``i + 1`` renamed ``perm[i] + 1``."""
    def move(mask):
        return sum(1 << perm[i] for i in range(spec.n) if mask >> i & 1)

    def f(fn):
        return SetFunction(fn.ground, {move(m): v for m, v in fn.entries.items()}, fn.default)
    return replace(spec, benefit=f(spec.benefit), attacker_cost=f(spec.attacker_cost),
                   defender_cost=f(spec.defender_cost))


def shifted(spec, constant):
    """``spec`` with ``constant`` added to the benefit of every set, the empty one too."""
    fn, masks = spec.benefit, masks_up_to_size(spec.n, spec.attacker_cap).tolist()
    entries = {m: fn.value(m) + constant for m in masks}
    with warnings.catch_warnings():  # a nonzero value on the empty set warns
        warnings.simplefilter("ignore")
        return replace(spec, benefit=SetFunction(fn.ground, entries, fn.default + constant))


def with_unused_target(spec):
    """``spec`` on one more target, which no utility depends on and both caps allow."""
    ground, full = GroundSet(spec.n + 1), (1 << spec.n) - 1

    def f(fn, cap):
        masks = masks_up_to_size(spec.n + 1, cap).tolist()
        return SetFunction(ground, {m: fn.value(m & full) for m in masks}, fn.default)
    return GameSpec(ground, f(spec.benefit, spec.attacker_cap),
                    f(spec.attacker_cost, spec.attacker_cap),
                    f(spec.defender_cost, spec.defender_cap), spec.attacker_cap, spec.defender_cap)


class TestMetamorphicRelations:
    """Relations that need no reference solver: each transformed game's value
    is the original's (plus the constant), up to what the two reports leave
    uncertified (their best-response gaps) and rounding."""

    @given(st.integers(0, 10_000), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_value_follows_relabeling_a_benefit_constant_and_an_unused_target(
            self, seed, seeded, split):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        spec = random_game(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                           sparse=bool(rng.integers(2)))
        constant = float(rng.uniform(-3, 3))
        games = [(spec, 0.0), (relabeled(spec, rng.permutation(n).tolist()), 0.0),
                 (shifted(spec, constant), constant), (with_unused_target(spec), 0.0)]
        with pytest.MonkeyPatch.context() as patch, split_tables() if split else nullcontext():
            if not seeded:
                patch.setattr(equilibrium, "SEED_CELLS", 0)
            values, slack = [], []
            for game_spec, offset in games:
                game = build_compact_game(game_spec)
                report = solve_compact(game_spec, game=game)
                assert report.converged
                values.append(report.value - offset)
                slack.append(max(0.0, *best_response_gap(game_spec, report, game)))
        scale = max(1.0, abs(constant), *(np.abs(f.to_dense()).max()
                                          for f in (spec.benefit, spec.attacker_cost,
                                                    spec.defender_cost)))
        for value, gap in zip(values[1:], slack[1:]):
            assert abs(value - values[0]) <= gap + slack[0] + 1e-12 * scale
