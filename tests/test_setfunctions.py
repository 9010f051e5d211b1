"""Transforms: hand-checked values, roundtrips, sparsity, linearity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setgames import GroundSet, SetFunction, moebius, zeta
from setgames.errors import CapacityError, InvalidInputError
from setgames.setfunctions import _butterfly, _dense, _entries, _layout


def dense_values(f):
    return [f.value(m) for m in range(f.ground.size)]


class TestMoebius:
    def test_hand_computed_two_targets(self):
        # Alternating sums by hand: coeff{1,2} = 5 - 1 - 2 + 0 = 2.
        g = GroundSet(2)
        f = SetFunction(g, {0b01: 1.0, 0b10: 2.0, 0b11: 5.0})
        mc = moebius(f)
        assert mc.entries == {0b01: 1.0, 0b10: 2.0, 0b11: 2.0}

    def test_additive_function_has_singleton_support(self):
        g = GroundSet(4)
        weights = [0.3, -1.2, 0.0, 2.5]
        entries = {m: sum(w for i, w in enumerate(weights) if m >> i & 1)
                   for m in range(1, 16)}
        mc = moebius(SetFunction(g, entries))
        assert set(mc.entries) <= {1 << i for i in range(4)}
        for i, w in enumerate(weights):
            assert mc.value(1 << i) == pytest.approx(w, abs=1e-12)

    def test_constant_function_collapses_to_empty_set(self):
        g = GroundSet(3)
        f = SetFunction(g, {}, default=4.5)
        mc = moebius(f)
        assert mc.entries == {0: 4.5}

    def test_truncated_matches_dense_on_small_sets(self):
        rng = np.random.default_rng(7)
        g = GroundSet(5)
        f = SetFunction(g, {m: float(rng.normal()) for m in range(1, 32)})
        full = moebius(f)
        part = moebius(f, max_size=2)
        assert set(part.entries) <= {m for m in range(32) if m.bit_count() <= 2}
        for m in part.entries:
            assert part.value(m) == pytest.approx(full.value(m), abs=1e-12)

    def test_rejects_nan(self):
        g = GroundSet(2)
        with pytest.raises(InvalidInputError):
            SetFunction(g, {1: float("nan")})

    @pytest.mark.parametrize("entries, default", [({1: 10**400}, 0), ({}, -(10**400))])
    def test_integers_past_the_float_range_stay_exact(self, entries, default):
        # An integer is finite, so the function holds it; only a float
        # table refuses it, and exact mode keeps it.
        f = SetFunction(GroundSet(2), entries, default)
        for call in (f.to_dense, lambda: moebius(f), lambda: moebius(f, max_size=1)):
            with pytest.raises(InvalidInputError, match="past the float range"):
                call()
        big = 10**400 if entries else -(10**400)
        assert moebius(f, exact=True).value(0b01) == (big if entries else 0)
        assert moebius(f, exact=True).value(0) == (0 if entries else big)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_ground_set_size_must_be_an_integer(self, n):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            GroundSet(n)

    def test_numpy_integer_ground_set_size_is_stored_as_int(self):
        assert type(GroundSet(np.int64(3)).n) is int and GroundSet(np.uint8(3)) == GroundSet(3)

    @pytest.mark.parametrize("transform", [moebius, zeta])
    @pytest.mark.parametrize("cap", [-1, 1.5, True])
    def test_rejects_caps_that_are_not_nonnegative_integers(self, transform, cap):
        for f in (SetFunction(GroundSet(3), {0b11: 1.0}), SetFunction(GroundSet(3))):
            with pytest.raises(InvalidInputError, match="size cap"):
                transform(f, max_size=cap)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("transform", [moebius, zeta])
    @pytest.mark.parametrize("cap", [None, 2])
    def test_overflow_raises_the_library_error(self, transform, cap):
        # Finite values whose sums at {1, 2} pass the float range: -3e308 and 3e308.
        f = SetFunction(GroundSet(3), {0b01: 1.5e308, 0b10: 1.5e308})
        with pytest.raises(InvalidInputError, match="non-finite value in set function"):
            transform(f, max_size=cap)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            GroundSet(31)
        f = SetFunction(GroundSet(26), {1: 1.0})
        with pytest.raises(CapacityError):
            moebius(f)


class TestMaskKeys:
    """Entry keys must be integral masks of the ground set. Interaction
    coefficients are set functions too, so the rule holds for them."""

    @pytest.mark.parametrize("cls", [SetFunction])
    def test_bool_key_is_rejected(self, cls):
        # numpy reads table[True] = v as a write to the whole table.
        with pytest.raises(InvalidInputError, match="True"):
            cls(GroundSet(3), {True: 2.0})
        with pytest.raises(InvalidInputError):
            cls(GroundSet(3), {np.True_: 2.0})

    @pytest.mark.parametrize("cls", [SetFunction])
    def test_fractional_key_is_rejected(self, cls):
        # Once dropped by the capped transform and an IndexError on the full one.
        with pytest.raises(InvalidInputError, match="1.5"):
            cls(GroundSet(3), {1: 1.0, 1.5: 2.0})

    @pytest.mark.parametrize("cls", [SetFunction])
    def test_string_key_is_rejected(self, cls):
        with pytest.raises(InvalidInputError, match="'1'"):
            cls(GroundSet(3), {"1": 2.0})

    @pytest.mark.parametrize("cls", [SetFunction])
    def test_out_of_range_key_is_named(self, cls):
        with pytest.raises(InvalidInputError, match=r"mask must be in \[0, 7\], got 8"):
            cls(GroundSet(3), {1: 1.0, np.int64(8): 2.0})
        with pytest.raises(InvalidInputError, match=r"mask must be in \[0, 7\], got -1"):
            cls(GroundSet(3), {-1: 2.0})

    @pytest.mark.parametrize("cls", [SetFunction])
    def test_non_real_values_are_rejected(self, cls):
        # Strings read as floats and complex values broke a later transform.
        for bad in ("a", "1.5", 1 + 2j, None, [1.0], np.float32("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="at mask 1"):
                cls(GroundSet(2), {0: 1.0, 1: bad})
        for good in (2, 2.5, Fraction(1, 3), np.float32(0.5), np.int64(3), np.float64(2.0)):
            assert cls(GroundSet(2), {1: good}).entries == {1: good}
        with pytest.raises(InvalidInputError, match="default"):
            SetFunction(GroundSet(2), default=1j)

    def test_numpy_int_keys_are_stored_as_int(self):
        g = GroundSet(3)
        f = SetFunction(g, {np.int64(1): 2.0, np.uint8(3): 5.0, 4: 1.0})
        assert list(f.entries) == [1, 3, 4]
        assert all(type(m) is int for m in f.entries)
        plain = SetFunction(g, {1: 2.0, 3: 5.0, 4: 1.0})
        for cap in (1, 3):
            assert moebius(f, max_size=cap) == moebius(plain, max_size=cap)
        coeffs = SetFunction(g, {np.int32(2): 1.0})
        assert list(coeffs.entries) == [2] and type(next(iter(coeffs.entries))) is int


class TestZeta:
    def test_inverse_of_hand_example(self):
        g = GroundSet(2)
        mc = SetFunction(g, {0b01: 1.0, 0b10: 2.0, 0b11: 2.0})
        f = zeta(mc)
        assert dense_values(f) == [0.0, 1.0, 2.0, 5.0]

    def test_zero_transform(self):
        f = zeta(SetFunction(GroundSet(3), {}))
        assert all(v == 0 for v in dense_values(f))

    def test_negative_coefficient_sum(self):
        # f({1,2}) = coeff{1} + coeff{1,2} = 1 - 2 = -1
        g = GroundSet(2)
        f = zeta(SetFunction(g, {0b01: 1.0, 0b11: -2.0}))
        assert f.value(0b11) == -1.0

    @given(st.lists(st.floats(-100, 100), min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_dense(self, values):
        g = GroundSet(4)
        f = SetFunction(g, {m: values[m] for m in range(16)})
        back = zeta(moebius(f))
        scale = max(1.0, f.max_abs())
        for m in range(16):
            assert abs(back.value(m) - f.value(m)) < 1e-9 * scale

    def test_roundtrip_exact_mode(self):
        g = GroundSet(4)
        rng = np.random.default_rng(3)
        f = SetFunction(g, {m: Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9)))
                            for m in range(1, 16)})
        back = zeta(moebius(f, exact=True), exact=True)
        for m in range(16):
            assert back.value(m) == f.value(m)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_roundtrip_exact_mode_capped(self, cap):
        g = GroundSet(5)
        rng = np.random.default_rng(cap)
        f = SetFunction(g, {m: Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9)))
                            for m in range(1, 32)}, default=Fraction(1, 3))
        mc = moebius(f, max_size=cap, exact=True)
        back = zeta(mc, max_size=cap, exact=True)
        assert all(isinstance(v, Fraction) for v in mc.entries.values())
        assert all(isinstance(v, Fraction) for v in back.entries.values())
        for m in range(32):
            if m.bit_count() <= cap:
                assert back.value(m) == f.value(m)

    @pytest.mark.parametrize("max_size", [None, 2])
    def test_float_and_exact_agree_on_integers(self, max_size):
        g = GroundSet(5)
        rng = np.random.default_rng(11)
        f = SetFunction(g, {m: float(rng.integers(-9, 10)) for m in range(32)})
        mf, mx = moebius(f, max_size=max_size), moebius(f, max_size=max_size, exact=True)
        zf, zx = zeta(mf, max_size=max_size), zeta(mx, max_size=max_size, exact=True)
        assert mf.entries == mx.entries and zf.entries == zx.entries
        assert all(isinstance(v, float) for v in [*mf.entries.values(), *zf.entries.values()])
        assert all(isinstance(v, Fraction) for v in [*mx.entries.values(), *zx.entries.values()])

    @pytest.mark.parametrize("exact", [False, True])
    def test_unstored_coefficients_count_the_default(self, exact):
        # Each of the 2^|U| submasks of U adds the default 1.
        f = zeta(SetFunction(GroundSet(4), {}, default=1), exact=exact)
        assert dense_values(f) == [2 ** m.bit_count() for m in range(16)]
        assert dense_values(moebius(f, exact=exact)) == [1] * 16

    def test_truncated_zeta(self):
        g = GroundSet(4)
        mc = SetFunction(g, {0b0001: 1.0, 0b0011: 2.0, 0b0111: 9.0})
        f = zeta(mc, max_size=2)
        assert f.value(0b0011) == 3.0
        assert f.value(0b0111) == 0.0  # not materialized above the cap


class TestEngine:
    @given(st.data(), st.integers(1, 6), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_lattice_sums_match_definitions(self, data, n, signed, superset, exact):
        # Every mask of at most cap targets U gets the sum of f(V) over the V
        # below U (or above U and of at most cap targets), times
        # (-1)^|U xor V| when signed. Stored zeros, values above the cap and
        # a nonzero default all occur.
        cap = data.draw(st.integers(0, n))
        number = st.fractions(-4, 4, max_denominator=6) if exact else st.floats(-4, 4)
        values = data.draw(st.dictionaries(st.integers(0, (1 << n) - 1),
                                           st.just(0) | number, max_size=1 << n))
        default = data.draw(st.just(0) | number)
        masks, pairs = _layout(n, cap)
        table = _dense(SetFunction(GroundSet(n), values, default), exact, masks)[None]
        _butterfly(table, pairs, signed=signed, superset=superset)
        got = _entries(masks, table[0])
        family = [m for m in range(1 << n) if m.bit_count() <= cap]
        scale = sum(abs(Fraction(v)) for v in [default, *values.values()])
        assert set(got) <= set(family)
        for u in family:
            want = sum((-1 if signed and (u ^ v).bit_count() % 2 else 1)
                       * Fraction(values.get(v, default))
                       for v in family if (v | u == v if superset else v & u == v))
            if exact:
                assert got.get(u, 0) == want and (u in got) == (want != 0)
                assert all(isinstance(x, Fraction) for x in got.values())
            else:
                assert abs(got.get(u, 0.0) - float(want)) <= 1e-12 * max(scale, 1)
                assert all(isinstance(x, float) for x in got.values())


class TestLinearityAndSparsity:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = GroundSet(4)
        f = SetFunction(g, {m: float(rng.normal()) for m in range(16)})
        h = SetFunction(g, {m: float(rng.normal()) for m in range(16)})
        alpha, beta = float(rng.normal()), float(rng.normal())
        combo = SetFunction(g, {m: alpha * f.value(m) + beta * h.value(m) for m in range(16)})
        mc, mf, mh = moebius(combo), moebius(f), moebius(h)
        for m in range(16):
            expect = alpha * mf.value(m) + beta * mh.value(m)
            assert mc.value(m) == pytest.approx(expect, abs=1e-9)

    def test_sparsification_threshold_kills_float_noise(self):
        # Additive values built from floats leave ~1e-16 residue on pairs;
        # the relative cutoff must drop it.
        g = GroundSet(3)
        w = [0.1, 0.2, 0.7]
        entries = {m: sum(v for i, v in enumerate(w) if m >> i & 1) for m in range(8)}
        mc = moebius(SetFunction(g, entries))
        assert set(mc.entries) == {0b001, 0b010, 0b100}
