"""Set functions over bitmask subsets and their interaction transforms.

A set function assigns a value to every subset of {1, .., n}; subsets are
bitmask integers (see :mod:`setgames.bits`). The forward transform

    moebius(f)(U) = sum over V below U of (-1)^|U minus V| f(V)

isolates the pure interaction weight of each combination of targets, and the
inverse

    zeta(coeffs)(U) = sum over V below U of coeffs(V)

rebuilds the set function. The two differ only in the sign, so one engine
computes both, over float64 or, in exact mode, over ``Fraction`` values. It
is Yates's butterfly on a table with a row per function: one pass per target
adds (or subtracts) the value of each mask without the target into the same
mask with it. The masks of at most ``cap`` targets are closed under removing
a target, so the pass stays exact when trimmed to them (Bjorklund, Husfeldt,
Kaski and Koivisto, "Trimmed Moebius inversion and graphs of bounded degree",
STACS 2008). With cap >= n it runs in place over all 2^n values in O(n 2^n);
otherwise over the ascending masks up to the cap, pairing each mask with the
same mask minus one target. An all-zero function is not transformed. Entries
are validated by key type, smallest and largest key and one float array, a
table is filled by a binary search of the keys into the masks, and maps are
read out with ``tolist()``. Exact mode runs the same steps on an object
array, so its Fraction arithmetic still goes mask by mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Integral, Rational, Real

import numpy as np

from .bits import masks_up_to_size
from .errors import CapacityError, InvalidInputError

MAX_GROUND = 30
MAX_DENSE = 24

# Relative cutoff under which transform coefficients are treated as exact
# zeros. Alternating sums of floats leave ~1e-16 residue on additive inputs;
# without the cutoff their support would spuriously cover the whole lattice.
SPARSITY_SCALE = 1e-12


def _integer_type(kind: type) -> bool:
    return kind is int or kind is not bool and issubclass(kind, Integral)  # int: no ABC lookup


def _check_int(value, what: str, low: int = 0, high: int | None = None,
               error: type[Exception] = InvalidInputError) -> int:
    """``value`` as an ``int``, by the library's one rule for integer input: an
    ``Integral`` (numpy integers too) that is not a ``bool``, in ``[low, high]``
    (no upper bound when ``high`` is None). Else raises ``error`` naming ``what``."""
    if not _integer_type(type(value)):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < low or high is not None and value > high:
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{what} must be {bound}, got {value}")
    return int(value)


def _check_ints(values, what: str, low: int = 0, high: int | None = None,
                error: type[Exception] = InvalidInputError) -> np.ndarray:
    """``values`` as a new int64 array, by the rule of :func:`_check_int` read once
    per batch: from the dtype of an ndarray, else from the set of element types;
    then the smallest and largest value are checked against the bounds."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise error(f"{what} must be integers")
        ends = (values.min(), values.max()) if values.size else ()
    else:
        values = list(values)
        if not all(map(_integer_type, set(map(type, values)))):
            raise error(f"{what} must be integers")
        ends = (min(values), max(values)) if values else ()
    for end in ends:
        _check_int(end, what, low, high, error)
    return np.array(values, dtype=np.int64)


def _real_type(kind: type) -> bool:
    return kind is float or kind is not bool and issubclass(kind, Real)  # float: no ABC lookup


def _finite_real(value) -> bool:
    """The library's one rule for real input: a ``numbers.Real`` that is not a
    ``bool`` and is finite. A ``Rational`` (an int, or a ``Fraction`` in exact
    mode) is finite by type and is never converted to float, which could overflow."""
    if type(value) is float:  # the common case, without the ABC lookups
        return math.isfinite(value)
    return _real_type(type(value)) and (isinstance(value, Rational) or math.isfinite(value))


def _check_reals(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a float64 array, of ``shape`` if given, by the rule of :func:`_finite_real`
    read once per batch: element types from the dtype of an integer or float ndarray, else
    from the set of them; then one ``isfinite``. Else raises :class:`InvalidInputError`."""
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in "fiu"
    if not numeric:
        values = np.asarray(values, dtype=object)
    if shape is not None and values.shape != shape:
        raise InvalidInputError(f"{what} must have shape {shape}, not {values.shape}")
    if numeric or all(map(_real_type, set(map(type, values.flat)))):
        try:
            values = np.asarray(values, dtype=float)
        except OverflowError:  # an integer past the float range
            raise InvalidInputError(f"{what} must be within the float range") from None
        if np.isfinite(values).all():
            return values
    raise InvalidInputError(f"{what} must be finite real numbers, not booleans")


def _check_value(value, where: str) -> None:
    if not _finite_real(value):
        raise InvalidInputError(f"set function value {value!r} {where} is not a finite real")


def _checked_entries(ground: GroundSet, entries: dict) -> dict:
    """``entries`` as they are if one array check passes (int keys, smallest and
    largest in range, plain finite float or int values). Else keys are normalized
    by :meth:`GroundSet.check_mask` and the first bad key or value raises."""
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
        mask = ground.check_mask(key)
        _check_value(value, f"at mask {mask}")
        checked[mask] = value
    return checked


@dataclass(frozen=True)
class GroundSet:
    """The target universe {1, .., n}; subsets live in [0, 2^n) as bitmasks."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _check_int(self.n, "ground set size", 1))
        if self.n > MAX_GROUND:
            raise CapacityError(f"n={self.n} exceeds the bitmask limit of {MAX_GROUND}")

    @property
    def size(self) -> int:
        return 1 << self.n

    def check_mask(self, mask: int) -> int:
        """``mask`` as an ``int``; raises :class:`InvalidInputError` unless it is an
        integer (not a ``bool``) in ``[0, 2^n)``."""
        return _check_int(mask, "mask", 0, self.size - 1)


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
    try:
        table = np.full(ground.size if masks is None else len(masks), cast(default), dtype=dtype)
        fill = np.fromiter(map(cast, values.values()) if exact else values.values(), dtype,
                           len(values))
    except OverflowError:  # an integer past the float range; a Fraction holds it
        raise InvalidInputError("set function value is past the float range") from None
    at = np.fromiter(values, np.int64, len(values))
    if masks is not None:
        slot = np.searchsorted(masks, at)
        found = masks.take(slot, mode="clip") == at
        at, fill = slot[found], fill[found]
    table[at] = fill
    return table


@lru_cache(maxsize=32)
def _layout(n: int, cap: int | None, rows: int = 1) -> tuple[np.ndarray | None, tuple | None]:
    """The masks of at most ``cap`` < n of n targets, ascending, and per bit the flat positions,
    in a table of ``rows`` rows over them, of the masks that hold the bit and of the same masks
    without it; read-only. ``(None, None)``: all 2^n masks in order, for a cap of None or >= n."""
    if cap is None or cap >= n:
        return None, None
    masks = np.array(masks_up_to_size(n, cap), dtype=np.int64)
    offsets, pairs = np.arange(rows)[:, None] * masks.size, []
    for bit in range(n):
        hi = np.flatnonzero(masks >> bit & 1)
        lo = np.searchsorted(masks, masks[hi] ^ (1 << bit))
        pairs.append(((hi + offsets).ravel(), (lo + offsets).ravel()))
    for array in (masks, *(a for pair in pairs for a in pair)):
        array.flags.writeable = False
    return masks, tuple(pairs)


def _butterfly(table: np.ndarray, pairs: tuple | None, *, signed: bool,
               superset: bool = False) -> None:
    """In place in each row of a contiguous :func:`_layout` table, U gets the sum of f(V) over
    V below U (above, if ``superset``), times (-1)^|U - V| if ``signed``; non-finite raises."""
    combine = np.subtract if signed else np.add
    if pairs is None:
        for bit in range(table.shape[1].bit_length() - 1):
            half = table.reshape(len(table), -1, 2, 1 << bit)
            hi, lo = (half[:, :, 0], half[:, :, 1]) if superset else (half[:, :, 1], half[:, :, 0])
            combine(hi, lo, out=hi)
    else:
        flat = table.reshape(-1)
        for hi, lo in pairs:
            hi, lo = (lo, hi) if superset else (hi, lo)
            flat[hi] = combine(flat[hi], flat[lo])
    if table.dtype != object and not np.all(np.isfinite(table)):
        raise InvalidInputError("non-finite value in set function")


def _transform(ground: GroundSet, functions, cap: int | None, *, signed: bool, exact: bool):
    """:func:`_layout` masks and :func:`_butterfly` sums of ``(values, default)``
    functions, a row each, in float64 or Fractions; None at once if all are zero."""
    if cap is not None:
        _check_int(cap, "size cap")
    if not any(default or any(values.values()) for values, default in functions):
        return None
    masks, pairs = _layout(ground.n, cap, len(functions))
    table = np.array([_dense(ground, *function, exact, masks) for function in functions])
    _butterfly(table, pairs, signed=signed)
    return masks, table


def _entries(masks: np.ndarray | None, row: np.ndarray) -> dict:
    """A row over ``masks`` (None: all) as a map of its nonzero values."""
    kept = np.flatnonzero(row != 0)
    return dict(zip((kept if masks is None else masks[kept]).tolist(), row[kept].tolist()))


def moebius(f: SetFunction, *, max_size: int | None = None, exact: bool = False) -> MobiusTransform:
    """Interaction coefficients of ``f``.

    Args:
        f: set function defined (entries plus default) on the whole lattice,
            or at least on all subsets of size <= ``max_size``.
        max_size: if given (an integer >= 0, else :class:`InvalidInputError`)
            and below n, compute coefficients only for subsets of at most
            this many targets, by the butterfly trimmed to them. Otherwise
            the butterfly runs over all 2^n subsets in O(n 2^n), which
            requires n <= 24.
        exact: compute with rational arithmetic; values are converted to
            Fractions and results are exact.

    Float coefficients below :data:`SPARSITY_SCALE` times the largest
    absolute value of ``f`` are dropped as zeros; exact mode drops only
    exact zeros.
    """
    sums = _transform(f.ground, [(f.entries, f.default)], max_size, signed=True, exact=exact)
    if sums is None:
        return MobiusTransform(f.ground)
    masks, table = sums
    if not exact:
        table[abs(table) < SPARSITY_SCALE * f.max_abs()] = 0
    return MobiusTransform(f.ground, _entries(masks, table[0]))


def zeta(coeffs: MobiusTransform, *, max_size: int | None = None,
         exact: bool = False) -> SetFunction:
    """Rebuild the set function whose interaction coefficients are ``coeffs``.

    Inverse of :func:`moebius`: the value at U is the sum of coefficients over
    all submasks of U. With ``max_size`` below n only subsets up to that size
    are materialized, by the same trimmed butterfly as :func:`moebius`.
    """
    sums = _transform(coeffs.ground, [(coeffs.entries, 0)], max_size, signed=False, exact=exact)
    return SetFunction(coeffs.ground, {} if sums is None else _entries(sums[0], sums[1][0]))
