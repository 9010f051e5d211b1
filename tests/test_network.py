"""Network games: value functions, failures, induced benefits, approximation."""

import warnings
from math import comb

import numpy as np
import pytest

from setgames import (
    FailureOperator,
    GameSpec,
    GroundSet,
    Network,
    SetFunction,
    ValueFunction,
    induce_benefit,
    moebius,
    network_from_text,
    separable_approximation,
    solve_bruteforce,
    solve_network_game,
)
from setgames.bits import masks_up_to_size
from setgames.errors import CapacityError, FormatError, InvalidInputError
from setgames.network import _components


def path3():
    return Network(3, ((1, 2), (2, 3)))


def components(net, alive):
    """Components of one alive mask from the batched peel, as Python ints."""
    return [int(comp[0]) for comp in _components(net.adjacency(), np.array([alive]))]


def grid(rows, cols):
    node = lambda r, c: r * cols + c + 1  # noqa: E731
    edges = [(node(r, c), node(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(node(r, c), node(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Network(rows * cols, tuple(edges))


def reference_benefit(net, value_fn, failure, cap):
    """Induced benefit by a per-mask Python search: cascade rounds on node sets,
    then components by depth-first search from each lowest unvisited node, with
    component values summed in ascending node order."""
    nodes = range(1, net.node_count + 1)
    neighbors = {v: set() for v in nodes}
    for u, v in net.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    values = net.node_values or (1.0,) * net.node_count

    def fail(alive):
        while failure.kind == "threshold_cascade":
            doomed = {v for v in alive if neighbors[v]
                      and len(neighbors[v] & alive) / len(neighbors[v]) < failure.threshold}
            if not doomed:
                break
            alive = alive - doomed
        return alive

    def score(alive):
        comps, seen = [], set()
        for start in sorted(alive):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                for w in neighbors[stack.pop()] & alive - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            comps.append(sorted(comp))
        if value_fn.kind == "connected_pairs":
            return float(sum(comb(len(c), 2) for c in comps))
        if value_fn.kind == "largest_component":
            return float(max((len(c) for c in comps), default=0))
        total = 0.0
        for comp in comps:
            total += sum(values[v - 1] for v in comp) ** value_fn.exponent
        return total

    baseline = score(set(nodes))
    entries = {}
    for mask in masks_up_to_size(net.node_count, cap):
        drop = baseline - score(fail({v for v in nodes if not mask >> (v - 1) & 1}))
        if drop != 0:
            entries[mask] = drop
    return entries


class TestNetwork:
    def test_dedupes_and_sorts_edges(self):
        net = Network(3, ((2, 1), (1, 2), (2, 3)))
        assert net.edges == ((1, 2), (2, 3))

    def test_numpy_integer_ids(self):
        path = ((1, 2), (2, 3), (3, 4))
        net = Network(np.int64(4), tuple((np.int64(u), np.int64(v)) for u, v in path))
        assert net == Network(4, path)
        assert all(type(x) is int for edge in net.edges for x in edge)
        vf, fop = ValueFunction("connected_pairs"), FailureOperator("node_removal")
        expected = induce_benefit(Network(4, path), vf, fop, 2)
        assert induce_benefit(net, vf, fop, 2).entries == expected.entries
        with pytest.raises(InvalidInputError):
            Network(4, ((1, 2.0),))
        for edges in ([(1, 2, 3)], [(1,)], 5, [7]):  # not pairs, or not a collection of them
            with pytest.raises(InvalidInputError, match="edges must be pairs"):
                Network(2, edges)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            Network(2, ((1, 1),))

    def test_components(self):
        net = Network(5, ((1, 2), (4, 5)))
        comps = components(net, net.full_mask)
        assert sorted(c.bit_count() for c in comps) == [1, 2, 2]
        # A batch peels one component per mask and round, by lowest node.
        rounds = list(_components(net.adjacency(), np.array([0b11011, 0b10100, 0])))
        assert [r.tolist() for r in rounds] == [[0b00011, 0b00100, 0], [0b11000, 0b10000, 0]]

    def test_rejects_bad_node_values(self):
        for bad in ((1.0, float("nan"), 1.0), (1.0, float("inf"), 1.0), (1.0, True, 1.0),
                    (1.0, "2", 1.0), (1.0, 2.0), (1.0, 10**400, 1.0), 5, "abc"):
            with pytest.raises(InvalidInputError):
                Network(3, ((1, 2),), node_values=bad)
        with pytest.raises(InvalidInputError, match="node_values length"):
            Network(1, (), 5)  # a number, not a sequence of them

    def test_edge_list_parsing(self):
        net = network_from_text("nodes 3\n1 2\n2 3\n")
        assert net == path3()
        with pytest.raises(FormatError):
            network_from_text("1 2\n")
        with pytest.raises(FormatError):
            network_from_text("nodes 3\n1 2 3\n")
        with pytest.raises(FormatError, match="bad header line 'nodes x'"):
            network_from_text("nodes x\n1 2\n")
        with pytest.raises(FormatError, match="bad edge line '1 b': invalid literal"):
            network_from_text("nodes 3\n1 b\n")

    def test_json_and_edge_list_give_equal_networks(self):
        edges = "[[1, 2], [2, 3], [3, 1], [3, 4], [4, 5]]"
        as_json = network_from_text(f' {{"nodes": 5, "edges": {edges}}}')
        as_edges = network_from_text("# triangle and tail\nnodes 5\n1 2\n2 3\n3 1\n3 4\n4 5\n")
        assert as_json == as_edges == Network(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
        weighted = network_from_text('{"nodes": 2, "edges": [[2, 1]], "values": [1, 2.5]}')
        assert weighted == Network(2, ((1, 2),), (1.0, 2.5))

    @pytest.mark.parametrize("text, message", [
        ('{"nodes": 3,\n bad}', "invalid JSON at line 2"),
        ('{"edges": []}', "needs a 'nodes' field"),
        ('{"nodes": 3, "edges": 5}', "'edges' must be a list"),
        ('{"nodes": 3, "edges": [[1, 2, 3]]}', "'edges' must be a list"),
        ('{"nodes": 3, "edges": [[1, 2]], "values": 5}', "'values' must be a list"),
        ('{"nodes": 3, "edges": [[1.5, 2]]}', "edge endpoint must be an integer"),
        ('{"nodes": 2, "values": [1]}', "node_values length"),
        ('{"nodes": 1, "values": [1%s]}' % ("0" * 400), "within the float range"),
    ])
    def test_bad_graph_json_is_a_format_error(self, text, message):
        with pytest.raises(FormatError, match=message):
            network_from_text(text)


class TestValueFunctions:
    def test_connected_pairs_path(self):
        vf = ValueFunction("connected_pairs")
        net = path3()
        assert vf.evaluate(net, 0b111) == 3.0
        assert vf.evaluate(net, 0b101) == 0.0  # middle node gone
        assert vf.evaluate(net, 0b011) == 1.0

    def test_edgeless_graph_scores_zero(self):
        vf = ValueFunction("connected_pairs")
        net = Network(4, ())
        assert vf.evaluate(net, 0b1111) == 0.0

    def test_largest_component(self):
        vf = ValueFunction("largest_component")
        net = Network(5, ((1, 2), (2, 3), (4, 5)))
        assert vf.evaluate(net, 0b11111) == 3.0
        assert vf.evaluate(net, 0) == 0.0

    def test_weighted_component_sum(self):
        vf = ValueFunction("weighted_component_sum", exponent=2.0)
        net = Network(3, ((1, 2),), node_values=(2.0, 1.0, 5.0))
        assert vf.evaluate(net, 0b111) == pytest.approx(9.0 + 25.0)

    def test_relabeling_invariance(self):
        vf = ValueFunction("connected_pairs")
        a = Network(4, ((1, 2), (2, 3)))
        b = Network(4, ((4, 3), (3, 2)))  # same path, relabeled
        assert vf.evaluate(a, 0b1111) == vf.evaluate(b, 0b1111)

    def test_scalar_call_is_a_batch_of_one(self):
        net = Network(5, ((1, 2), (2, 3), (4, 5)), node_values=(0.5, 1.0, 2.0, 3.0, 0.25))
        masks = np.arange(1 << 5)
        fops = (FailureOperator(), FailureOperator("threshold_cascade", threshold=0.5))
        for vf in (ValueFunction(kind) for kind in ValueFunction.KINDS):
            scores = vf.evaluate(net, masks)
            assert all(type(vf.evaluate(net, m)) is float for m in (0, 0b10110, np.int64(7)))
            assert scores.tolist() == [vf.evaluate(net, m) for m in range(1 << 5)]
            assert vf.evaluate(net, 0) == 0.0 and scores[0] == 0.0
        for fop in fops:
            assert type(fop.apply(net, 0b10110)) is int
            assert fop.apply(net, masks).tolist() == [fop.apply(net, m) for m in range(1 << 5)]

    def test_rejects_bad_alive_masks(self):
        vf, net = ValueFunction(), path3()
        for bad in (-1, 0b1000, np.array([1.0]), True):
            with pytest.raises(InvalidInputError):
                vf.evaluate(net, bad)

    def test_rejects_unknown_kinds(self):
        with pytest.raises(InvalidInputError, match="unknown value function 'diameter'"):
            ValueFunction("diameter")
        with pytest.raises(InvalidInputError, match="unknown failure operator 'flood'"):
            FailureOperator("flood")

    def test_more_than_63_nodes_do_not_fit_a_mask_array(self):
        net = Network(64, ((1, 64),))
        for call in (ValueFunction().evaluate, FailureOperator().apply):
            with pytest.raises(CapacityError, match="64 nodes exceed the 63 bits"):
                call(net, 0)

    def test_rejects_non_finite_exponent(self):
        for bad in (float("nan"), float("inf"), "2"):
            with pytest.raises(InvalidInputError):
                ValueFunction("weighted_component_sum", exponent=bad)

    def test_negative_mass_under_fractional_exponent_raises(self):
        # A negative component mass has no real power 1.5 (Python gives a complex).
        net = Network(3, ((1, 2), (2, 3)), node_values=(-1.0, 2.0, 0.5))
        vf = ValueFunction("weighted_component_sum", exponent=1.5)
        with pytest.raises(InvalidInputError):
            induce_benefit(net, vf, FailureOperator(), 2)
        # An integer exponent keeps negative masses real.
        squared = ValueFunction("weighted_component_sum", exponent=2.0)
        assert squared.evaluate(net, 0b001) == 1.0

    @pytest.mark.parametrize("values, exponent", [
        ((1e200, 1e200), 2.0),  # Python's ** overflows
        ((0.0, 0.0), -1.0),  # 0.0 ** -1 divides by zero
    ])
    def test_out_of_range_powers_raise_invalid_input(self, values, exponent):
        net = Network(2, ((1, 2),), node_values=values)
        vf = ValueFunction("weighted_component_sum", exponent=exponent)
        for alive in (0b11, np.array([0b11, 0b01])):
            with pytest.raises(InvalidInputError, match="not a finite float"):
                vf.evaluate(net, alive)
        with pytest.raises(InvalidInputError):
            induce_benefit(net, vf, FailureOperator(), 1)

    @pytest.mark.parametrize("edges, exponent", [
        (((1, 2),), 1.0),  # the component mass overflows
        (((1, 2),), -1.0),  # and would score inf ** -1 = 0
        ((), 1.0),  # each component in range, their sum not
    ])
    def test_score_past_the_float_range_raises_without_warnings(self, edges, exponent):
        net = Network(2, edges, node_values=(1e308, 1e308))
        vf = ValueFunction("weighted_component_sum", exponent=exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidInputError, match="weighted_component_sum"):
                vf.evaluate(net, net.full_mask)
            with pytest.raises(InvalidInputError, match="weighted_component_sum"):
                induce_benefit(net, vf, FailureOperator(), 1)


class TestFailureOperators:
    def test_node_removal_is_identity(self):
        fop = FailureOperator("node_removal")
        assert fop.apply(path3(), 0b101) == 0b101

    def test_cascade_removes_starved_nodes(self):
        # Star 1-2, 1-3, 1-4: removing the hub starves every leaf at
        # threshold 1 (each leaf loses its only neighbor).
        net = Network(4, ((1, 2), (1, 3), (1, 4)))
        fop = FailureOperator("threshold_cascade", threshold=1.0)
        assert fop.apply(net, 0b1110) == 0

    def test_cascade_iterates_to_fixpoint(self):
        # Path 1-2-3-4 with threshold 1: removing node 1 starves 2, then 3, then 4.
        net = Network(4, ((1, 2), (2, 3), (3, 4)))
        fop = FailureOperator("threshold_cascade", threshold=1.0)
        assert fop.apply(net, 0b1110) == 0

    def test_cascade_idempotent(self):
        rng = np.random.default_rng(0)
        fop = FailureOperator("threshold_cascade", threshold=0.6)
        for _ in range(20):
            n = 6
            edges = tuple(
                (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                if rng.random() < 0.5)
            net = Network(n, edges)
            alive = int(rng.integers(0, 1 << n))
            once = fop.apply(net, alive)
            assert fop.apply(net, once) == once

    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            FailureOperator("threshold_cascade", threshold=0.0)
        with pytest.raises(InvalidInputError):
            FailureOperator("threshold_cascade")


class TestInduceBenefit:
    def test_path3_hand_counts(self):
        benefit = induce_benefit(path3(), ValueFunction("connected_pairs"),
                                 FailureOperator("node_removal"), 2)
        assert benefit.value(0b010) == 3.0
        assert benefit.value(0b001) == 2.0
        assert benefit.value(0b101) == 3.0
        assert benefit.value(0) == 0.0

    def test_edgeless_graph_zero_benefit(self):
        benefit = induce_benefit(Network(3, ()), ValueFunction("connected_pairs"),
                                 FailureOperator("node_removal"), 3)
        assert all(v == 0 for v in benefit.entries.values())

    @pytest.mark.parametrize("kind", ValueFunction.KINDS)
    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_matches_per_mask_reference(self, kind, threshold):
        from conftest import random_graph
        rng = np.random.default_rng(4)
        fop = FailureOperator("threshold_cascade" if threshold else "node_removal", threshold)
        nets = [random_graph(rng, int(rng.integers(3, 10)), p=0.35) for _ in range(6)]
        nets.append(grid(4, 5))  # a component wider than 16 nodes
        nets += [Network(n.node_count, n.edges,
                         tuple(rng.uniform(0.1, 3.0, n.node_count).tolist())) for n in nets[:3]]
        for exponent in (2.0, 1.5) if kind == "weighted_component_sum" else (2.0,):
            vf = ValueFunction(kind, exponent=exponent)
            for net in nets:
                cap = 2 if net.node_count > 10 else 3
                benefit = induce_benefit(net, vf, fop, cap)
                assert list(benefit.entries.items()) == \
                    list(reference_benefit(net, vf, fop, cap).items())

    @pytest.mark.parametrize("cap", [-1, 1.5, True])
    def test_rejects_caps_that_are_not_nonnegative_integers(self, cap):
        with pytest.raises(InvalidInputError, match="size cap"):
            induce_benefit(path3(), ValueFunction(), FailureOperator(), cap)

    def test_guard_stops_induction_before_listing(self):
        # 7,666,240 attacks of at most 5 of 63 nodes.
        with pytest.raises(CapacityError, match="over 7666240 subsets exceeds the guard"):
            induce_benefit(Network(63, ()), ValueFunction(), FailureOperator(), 5)

    def test_triangle_symmetry(self):
        benefit = induce_benefit(Network(3, ((1, 2), (1, 3), (2, 3))),
                                 ValueFunction("connected_pairs"),
                                 FailureOperator("node_removal"), 1)
        assert [benefit.value(1 << i) for i in range(3)] == [2.0, 2.0, 2.0]


class TestSeparableApproximation:
    def zero(self):
        return SetFunction(GroundSet(3))

    def path3_benefit(self):
        return induce_benefit(path3(), ValueFunction("connected_pairs"),
                              FailureOperator("node_removal"), 2)

    def test_no_threshold_drops_nothing(self):
        approx = separable_approximation(self.path3_benefit(), self.zero(), self.zero(), 0.0, 2)
        assert approx.dropped_terms == 0
        assert approx.error_bound == 0.0

    def test_pair_coefficients_and_moderate_threshold(self):
        coeffs = moebius(self.path3_benefit(), max_size=2)
        assert coeffs.value(0b011) == pytest.approx(-2.0)
        assert coeffs.value(0b110) == pytest.approx(-2.0)
        assert coeffs.value(0b101) == pytest.approx(-1.0)
        approx = separable_approximation(self.path3_benefit(), self.zero(), self.zero(), 1.5, 2)
        assert approx.dropped_terms == 1  # only the {1,3} interaction
        assert len(approx.components) == 1  # {1,2} and {2,3} chain through node 2

    def test_full_truncation(self):
        approx = separable_approximation(self.path3_benefit(), self.zero(), self.zero(), 2.5, 2)
        assert len(approx.components) == 3
        assert all(len(c) == 1 for c in approx.components)
        assert approx.error_bound == pytest.approx(20.0)

    def test_components_have_disjoint_unions(self):
        rng = np.random.default_rng(1)
        from conftest import random_graph
        for _ in range(10):
            net = random_graph(rng, 6)
            benefit = induce_benefit(net, ValueFunction("connected_pairs"),
                                     FailureOperator("node_removal"), 2)
            zero = SetFunction(GroundSet(6))
            approx = separable_approximation(benefit, zero, zero, float(rng.random()), 2)
            unions = []
            for comp in approx.components:
                u = 0
                for m in comp:
                    u |= m
                unions.append(u)
            for i in range(len(unions)):
                for j in range(i + 1, len(unions)):
                    assert unions[i] & unions[j] == 0

    def test_monotone_dropping(self):
        benefit = self.path3_benefit()
        zero = self.zero()
        dropped = [separable_approximation(benefit, zero, zero, e, 2).dropped_terms
                   for e in (0.0, 0.5, 1.5, 2.1, 3.5)]
        assert dropped == sorted(dropped)

    def test_pair_interactions_nonpositive_for_connected_pairs(self):
        # Connected-pairs value with plain removal: joining two nodes of the
        # same component never helps the attacker superadditively.
        rng = np.random.default_rng(2)
        nets = [Network(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5))),
                Network(4, ((1, 2), (2, 3), (3, 4)))]
        for net in nets:
            benefit = induce_benefit(net, ValueFunction("connected_pairs"),
                                     FailureOperator("node_removal"), 2)
            coeffs = moebius(benefit, max_size=2)
            comps = components(net, net.full_mask)
            for mask, value in coeffs.entries.items():
                if mask.bit_count() == 2:
                    same = any(mask & c == mask for c in comps)
                    if same:
                        assert value <= 1e-9


class TestSolveNetworkGame:
    def test_exact_solve_matches_bruteforce(self):
        report, approx = solve_network_game(
            path3(), ValueFunction("connected_pairs"), FailureOperator("node_removal"),
            1, 0.0)
        reference = solve_bruteforce(approx.spec)
        assert report.value == pytest.approx(reference.value, abs=1e-7)

    def test_huge_threshold_degenerates_to_additive(self):
        report, approx = solve_network_game(
            path3(), ValueFunction("connected_pairs"), FailureOperator("node_removal"),
            2, 100.0)
        assert all(m.bit_count() <= 1 for m in
                   {mask for comp in approx.components for mask in comp})
        assert report.converged

    def test_error_bound_holds(self):
        from conftest import random_graph
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(4, 7))
            net = random_graph(rng, n)
            vf = ValueFunction("connected_pairs")
            fop = FailureOperator("node_removal")
            benefit = induce_benefit(net, vf, fop, 2)
            coeffs = moebius(benefit, max_size=2)
            pair_mags = sorted(abs(v) for m, v in coeffs.entries.items() if m.bit_count() == 2)
            eps = pair_mags[len(pair_mags) // 2] if pair_mags else 0.1
            zero = SetFunction(GroundSet(n))
            exact_spec = GameSpec(GroundSet(n), benefit, zero, zero, 2, n)
            exact_value = solve_bruteforce(exact_spec).value
            report, approx = solve_network_game(net, vf, fop, 2, eps)
            assert abs(exact_value - report.value) <= approx.error_bound + 1e-9
