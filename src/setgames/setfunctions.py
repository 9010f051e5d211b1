"""Set functions over bitmask subsets and their interaction transforms.

A set function assigns a value to every subset of {1, .., n}; subsets are
bitmask integers (see :mod:`setgames.bits`). The forward transform

    moebius(f)(U) = sum over V below U of (-1)^|U minus V| f(V)

isolates the pure interaction weight of each combination of targets, and the
inverse

    zeta(coeffs)(U) = sum over V below U of coeffs(V)

rebuilds the set function. The two differ only in the sign, so one engine
computes both, over float64 or, in exact mode, over ``Fraction`` values. It
is Yates's butterfly: one pass per target adds (or subtracts) the value of
each mask without the target into the same mask with it. The masks of at
most ``cap`` targets are closed under removing a target, so the pass stays
exact when trimmed to them (Bjorklund, Husfeldt, Kaski and Koivisto,
"Trimmed Moebius inversion and graphs of bounded degree", STACS 2008). With
cap >= n the pass runs in place over an array of all 2^n values in
O(n 2^n); otherwise over the ascending masks up to the cap, pairing each
mask with the same mask minus one target. The rest is array code too:
entries are validated by key type, smallest and largest key and one float
array, the table is filled by a binary search of the keys into the masks,
and sums are read out with ``tolist()``. Exact mode runs the same steps on
an object array, so its Fraction arithmetic still goes mask by mask.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Rational, Real

import numpy as np

from .bits import masks_up_to_size
from .errors import CapacityError, InvalidInputError

MAX_GROUND = 30
MAX_DENSE = 24

# Relative cutoff under which transform coefficients are treated as exact
# zeros. Alternating sums of floats leave ~1e-16 residue on additive inputs;
# without the cutoff their support would spuriously cover the whole lattice.
SPARSITY_SCALE = 1e-12


def _check_value(value, where: str) -> None:
    if not isinstance(value, Real) or not isinstance(value, Rational) and not math.isfinite(value):
        raise InvalidInputError(f"set function value {value!r} {where} is not a finite real")


def _checked_entries(ground: GroundSet, entries: dict) -> dict:
    """``entries`` as they are if one array check passes (int keys, smallest and
    largest in range, plain finite float or int values). Else keys are normalized
    with :func:`operator.index` and the first bad key or value raises."""
    try:
        keys = np.fromiter(entries, np.int64, len(entries))
        values = np.fromiter(entries.values(), float, len(entries))
        if not entries or set(map(type, entries)) == {int} and 0 <= keys.min() and \
                keys.max() < ground.size and set(map(type, entries.values())) <= \
                {float, int, np.float64} and np.isfinite(values).all():
            return entries
    except (TypeError, ValueError, OverflowError):  # keys or values that do not read as numbers
        pass
    checked = {}
    for key, value in entries.items():
        if isinstance(key, bool) or not hasattr(type(key), "__index__"):
            raise InvalidInputError(f"mask {key!r} is not an integer")
        mask = operator.index(key)
        ground.check_mask(mask)
        _check_value(value, f"at mask {mask}")
        checked[mask] = value
    return checked


@dataclass(frozen=True)
class GroundSet:
    """The target universe {1, .., n}; subsets live in [0, 2^n) as bitmasks."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"ground set needs at least one target, got n={self.n}")
        if self.n > MAX_GROUND:
            raise CapacityError(f"n={self.n} exceeds the bitmask limit of {MAX_GROUND}")

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask < self.size:
            raise InvalidInputError(f"mask {mask} out of range for n={self.n}")


@dataclass(frozen=True)
class SetFunction:
    """A function on subsets, stored as a mask -> value map plus a default.

    Lookups of unstored masks return ``default`` (normally 0), so a sparse
    entry map together with the default defines the function on the whole
    lattice. Instances are treated as immutable after construction.
    """

    ground: GroundSet
    entries: dict[int, float] = field(default_factory=dict)
    default: float = 0.0

    def __post_init__(self):
        _check_value(self.default, "as default")
        object.__setattr__(self, "entries", _checked_entries(self.ground, self.entries))

    def value(self, mask: int):
        return self.entries.get(mask, self.default)

    __call__ = value

    def max_abs(self) -> float:
        """Largest absolute value among stored entries and the default."""
        return max(map(abs, [self.default, *self.entries.values()]))

    def to_dense(self) -> np.ndarray:
        """Values on all 2^n subsets as a float array indexed by mask."""
        return _dense(self.ground, self.entries, self.default, exact=False)


@dataclass(frozen=True)
class MobiusTransform:
    """Interaction coefficients of a set function; only nonzeros are stored."""

    ground: GroundSet
    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.ground, self.entries))

    def value(self, mask: int):
        return self.entries.get(mask, 0)

    __call__ = value


def _dense(ground: GroundSet, values: dict, default, exact: bool,
           masks: np.ndarray | None = None) -> np.ndarray:
    """The function at the ascending ``masks``, or at all 2^n masks when None,
    with unstored masks reading ``default``, as float64 or (exact) Fractions.
    A binary search places the stored keys; keys above the cap drop out."""
    if masks is None and ground.n > MAX_DENSE:
        raise CapacityError(f"dense table for n={ground.n} exceeds the limit of {MAX_DENSE}")
    cast, dtype = (Fraction, object) if exact else (float, float)
    table = np.full(ground.size if masks is None else len(masks), cast(default), dtype=dtype)
    at = np.fromiter(values, np.int64, len(values))
    fill = np.fromiter(map(cast, values.values()), dtype, len(values))
    if masks is not None:
        slot = np.searchsorted(masks, at)
        found = masks.take(slot, mode="clip") == at
        at, fill = slot[found], fill[found]
    table[at] = fill
    return table


@lru_cache(maxsize=32)
def _capped_layout(n: int, cap: int) -> tuple[np.ndarray, tuple]:
    """The masks of at most ``cap`` of n targets, ascending, and for each bit
    the positions of the masks that hold it paired with the positions of the
    same masks without it. Built once per (n, cap) and shared read-only."""
    masks = np.array(masks_up_to_size(n, cap), dtype=np.int64)
    pairs = []
    for bit in range(n):
        hi = np.flatnonzero(masks >> bit & 1)
        lo = np.searchsorted(masks, masks[hi] ^ (1 << bit))
        hi.flags.writeable = lo.flags.writeable = False
        pairs.append((hi, lo))
    masks.flags.writeable = False
    return masks, tuple(pairs)


def _transform(ground: GroundSet, values: dict, default, *, cap: int | None, signed: bool,
               exact: bool, drop_tol: float | None, superset: bool = False) -> dict:
    """Lattice sums of the function ``values`` (unstored masks read ``default``).

    Each subset U of at most ``cap`` targets (of any size when ``cap`` is
    None) gets the sum over V below U of f(V), with the sign (-1)^|U minus V|
    when ``signed`` (the Moebius transform) and without it otherwise (the
    zeta transform). ``superset`` sums over the V above U of at most ``cap``
    targets instead. Sums are kept when nonzero and, if ``drop_tol`` is
    given, at least ``drop_tol`` in magnitude. ``exact`` converts every value
    to a Fraction first. A function with no nonzero value gives ``{}`` at once.
    """
    if not default and not any(values.values()):
        return {}
    n = ground.n
    combine = np.subtract if signed else np.add
    if cap is None or cap >= n:
        masks, table = None, _dense(ground, values, default, exact)
        for bit in range(n):
            half = table.reshape(-1, 2, 1 << bit)
            hi, lo = half[:, 1, :], half[:, 0, :]
            if superset:
                hi, lo = lo, hi
            combine(hi, lo, out=hi)
    else:
        masks, pairs = _capped_layout(n, cap)
        table = _dense(ground, values, default, exact, masks)
        for hi, lo in pairs:
            if superset:
                hi, lo = lo, hi
            table[hi] = combine(table[hi], table[lo])
    if not exact and not np.all(np.isfinite(table)):
        raise InvalidInputError("non-finite value in set function")
    kept = np.flatnonzero(np.abs(table) >= drop_tol if drop_tol else table != 0)
    return dict(zip((kept if masks is None else masks[kept]).tolist(), table[kept].tolist()))


def moebius(f: SetFunction, *, max_size: int | None = None, drop_tol: float | None = None,
            exact: bool = False) -> MobiusTransform:
    """Interaction coefficients of ``f``.

    Args:
        f: set function defined (entries plus default) on the whole lattice,
            or at least on all subsets of size <= ``max_size``.
        max_size: if given and below n, compute coefficients only for
            subsets of at most this many targets, by the butterfly trimmed
            to them. Otherwise the butterfly runs over all 2^n subsets in
            O(n 2^n), which requires n <= 24.
        drop_tol: absolute cutoff below which coefficients are discarded as
            zeros. Defaults to 1e-12 times the largest absolute value of
            ``f``. Ignored in exact mode, where only exact zeros are dropped.
        exact: compute with rational arithmetic; values are converted to
            Fractions and results are exact.
    """
    if exact:
        drop_tol = None
    elif drop_tol is None:
        drop_tol = SPARSITY_SCALE * f.max_abs()
    entries = _transform(f.ground, f.entries, f.default, cap=max_size, signed=True,
                         exact=exact, drop_tol=drop_tol)
    return MobiusTransform(f.ground, entries)


def zeta(coeffs: MobiusTransform, *, max_size: int | None = None,
         exact: bool = False) -> SetFunction:
    """Rebuild the set function whose interaction coefficients are ``coeffs``.

    Inverse of :func:`moebius`: the value at U is the sum of coefficients over
    all submasks of U. With ``max_size`` below n only subsets up to that size
    are materialized, by the same trimmed butterfly as :func:`moebius`.
    """
    entries = _transform(coeffs.ground, coeffs.entries, 0, cap=max_size, signed=False,
                         exact=exact, drop_tol=None)
    return SetFunction(coeffs.ground, entries)


def restrict_cardinality(f: SetFunction, cap: int) -> SetFunction:
    """Drop entries on subsets larger than ``cap``."""
    if not 0 <= cap <= f.ground.n:
        raise InvalidInputError(f"cap {cap} is outside [0, {f.ground.n}]")
    kept = {m: v for m, v in f.entries.items() if m.bit_count() <= cap}
    return SetFunction(f.ground, kept, default=f.default)
