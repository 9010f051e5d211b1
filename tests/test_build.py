"""The array-native game build against per-mask references, bit for bit.

Each reference below computes, one mask at a time in plain Python floats,
what the transforms, the compact game and the oracle tables are defined to
hold, in the same order of float operations: the butterfly adds (or
subtracts) the mask without a target into the mask with it, one target after
another. Equal floats are compared by their bits, dictionaries by their key
order too. Exact mode is checked against the definitions themselves, summed
in Fractions.
"""

import warnings
from fractions import Fraction
from functools import reduce
from operator import or_

import numpy as np
from hypothesis import given, settings, strategies as st

from setgames import GameSpec, GroundSet, SetFunction, build_compact_game
from setgames.oracles import partition_support
from setgames.setfunctions import SPARSITY_SCALE

from conftest import split_tables


def reference_max_abs(f):
    scale = abs(f.default)
    for v in f.entries.values():
        scale = max(scale, abs(v))
    return scale


def reference_transform(n, values, default, cap, *, signed, tol, superset=False):
    family = [m for m in range(1 << n) if m.bit_count() <= cap]
    table = {m: float(values.get(m, default)) for m in family}
    for bit in range(n):
        for m in family:
            if m >> bit & 1:
                hi, lo = (m ^ 1 << bit, m) if superset else (m, m ^ 1 << bit)
                table[hi] = table[hi] - table[lo] if signed else table[hi] + table[lo]
    return {m: v for m, v in table.items() if (abs(v) >= tol if tol else v != 0)}


def reference_coefficients(spec):
    c, k = spec.attacker_cap, spec.defender_cap
    out = []
    for f, cap in ((spec.benefit, c), (spec.attacker_cost, c)):
        out.append(reference_transform(spec.n, f.entries, f.default, cap, signed=True,
                                       tol=SPARSITY_SCALE * reference_max_abs(f)))
    f = spec.defender_cost
    tol = SPARSITY_SCALE * reference_max_abs(f)
    m = reference_transform(spec.n, f.entries, f.default, k, signed=True, tol=tol)
    sums = reference_transform(spec.n, m, 0, k, signed=False, tol=tol, superset=True)
    out.append({u: -s if u.bit_count() % 2 else s for u, s in sums.items()})
    return out


def reference_table(n, members, cap, defender):
    """Rows by component, then count, then ascending strategy; the empty
    member counts in the first component. These are the split tables, which
    every support gets under :func:`~conftest.split_tables`."""
    components = partition_support(members) or [[]]
    owner = {m: c for c, group in enumerate(components) for m in group}
    strategies, hits, segment, sizes = [], [], [], []
    for c, group in enumerate(components):
        union = reduce(or_, group, 0)
        size = min(cap, union.bit_count()) + 1
        for count in range(size):
            for s in range(1 << n):
                if s & ~union == 0 and s.bit_count() == count:
                    strategies.append(s)
                    segment.append(sum(sizes) + count)
                    hits.append([float(owner.get(u, 0) == c and
                                       (u & s == 0 if defender else u & s == u))
                                 for u in members])
        sizes.append(size)
    starts = [j for j in range(len(segment)) if j == 0 or segment[j] != segment[j - 1]]
    return {"strategies": np.array(strategies, dtype=np.int64),
            "hits": np.array(hits, dtype=float).reshape(len(strategies), len(members)),
            "segment": np.array(segment, dtype=np.int64),
            "starts": np.array(starts, dtype=np.int64), "sizes": tuple(sizes)}


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


@st.composite
def set_functions(draw, n):
    """Zero, or sparse or dense entries (masks above any cap included) with a
    default that is zero or not."""
    number = st.floats(-4, 4, allow_subnormal=False) | st.integers(-3, 3).map(float)
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if kind == "zero":
        return SetFunction(GroundSet(n))
    if kind == "sparse":
        entries = draw(st.dictionaries(st.integers(0, (1 << n) - 1), number, max_size=6))
    else:
        size = draw(st.integers(0, n))
        entries = {m: draw(number) for m in range(1, 1 << n) if m.bit_count() <= size}
    return SetFunction(GroundSet(n), entries, default=draw(st.just(0.0) | number))


@st.composite
def game_specs(draw):
    """Caps c < k, c = k and c > k, and k = n over c < n (the network games' default)."""
    n = draw(st.integers(1, 10))
    functions = [draw(set_functions(n)) for _ in range(3)]
    c = draw(st.integers(0, n))
    k = draw(st.just(n) | st.integers(0, n))
    with warnings.catch_warnings():  # a nonzero value on the empty set warns
        warnings.simplefilter("ignore")
        return GameSpec(GroundSet(n), *functions, c, k)


def exact_coefficients(spec):
    """The maps by their definitions, mask by mask, in Fractions: b and ca sum
    f(V) (-1)^|U minus V| over V below U, up to c; cd(U) is (-1)^|U| times the
    sum of the cost's coefficients m(W) over the W above U of at most k
    targets, with m summed like b up to k. Only nonzero values are kept."""
    n, c, k = spec.n, spec.attacker_cap, spec.defender_cap
    full = (1 << n) - 1

    def below(u):
        v = u
        while True:
            yield v
            if v == 0:
                return
            v = (v - 1) & u

    def moebius(f, cap):
        value = [Fraction(f(v)) for v in range(1 << n)]
        return {u: sum(-value[v] if (u ^ v).bit_count() % 2 else value[v] for v in below(u))
                for u in range(1 << n) if u.bit_count() <= cap}

    m = moebius(spec.defender_cost, k)
    cd = {u: (-1) ** u.bit_count() * sum(m.get(u | w, 0) for w in below(full ^ u)) for u in m}
    maps = moebius(spec.benefit, c), moebius(spec.attacker_cost, c), cd
    return [{u: v for u, v in sorted(map_.items()) if v} for map_ in maps]


@given(game_specs())
@settings(max_examples=150, deadline=None)
def test_build_matches_per_mask_reference(spec):
    want = reference_coefficients(spec)
    with split_tables():
        game = build_compact_game(spec)
        tables = game.oracle
    members = sorted(set().union(*want) | {0} | {1 << i for i in range(spec.n)})
    assert game.support.members == tuple(members)
    vectors = (game.benefit_vec, game.attacker_cost_vec, game.defender_cost_vec)
    for vec, ref in zip(vectors, want):
        assert same_array(vec, np.array([float(ref.get(m, 0)) for m in members]))

    for table, cap, defender in ((tables.attacks, spec.attacker_cap, False),
                                 (tables.defenses, spec.defender_cap, True)):
        ref = reference_table(spec.n, members, cap, defender)
        assert table.cap == cap and table.sizes == ref.pop("sizes")
        for name, array in ref.items():
            assert same_array(getattr(table, name), array), name


@given(game_specs())
@settings(max_examples=60, deadline=None)
def test_exact_coefficients_match_their_definitions(spec):
    game = build_compact_game(spec, exact=True)
    want = exact_coefficients(spec)
    assert game.support.members == \
        tuple(sorted(set().union(*want) | {0} | {1 << i for i in range(spec.n)}))
    for vec, ref in zip((game.benefit_vec, game.attacker_cost_vec, game.defender_cost_vec), want):
        got = {m: v for m, v in zip(game.support.members, vec) if v}
        assert list(got.items()) == list(ref.items())
        assert all(type(m) is int and type(v) is Fraction for m, v in got.items())
