"""Set functions over bitmask subsets and their interaction transforms.

A set function assigns a value to every subset of {1, .., n}; subsets are
bitmask integers (see :mod:`setgames.bits`). The forward transform

    moebius(f)(U) = sum over V below U of (-1)^|U minus V| f(V)

isolates the pure interaction weight of each combination of targets, and the
inverse

    zeta(coeffs)(U) = sum over V below U of coeffs(V)

rebuilds the set function. The two differ only in the sign, so one engine
computes both, over float64 or, in exact mode, over ``Fraction`` values. On
the dense lattice it runs an in-place butterfly over an array of all 2^n
values (a float64 array or an object array of Fractions) in O(n 2^n); when
only subsets up to a cardinality cap are needed it sums directly over
submasks instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bits import masks_up_to_size, submasks
from .errors import CapacityError, InvalidInputError

MAX_GROUND = 30
MAX_DENSE = 24

# Relative cutoff under which transform coefficients are treated as exact
# zeros. Alternating sums of floats leave ~1e-16 residue on additive inputs;
# without the cutoff their support would spuriously cover the whole lattice.
SPARSITY_SCALE = 1e-12


def _check_finite(value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidInputError(f"non-finite value {value!r} in set function")


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
        _check_finite(self.default)
        for mask, value in self.entries.items():
            self.ground.check_mask(mask)
            _check_finite(value)

    def value(self, mask: int):
        return self.entries.get(mask, self.default)

    __call__ = value

    def max_abs(self) -> float:
        """Largest absolute value among stored entries and the default."""
        scale = abs(self.default)
        for v in self.entries.values():
            scale = max(scale, abs(v))
        return scale

    def to_dense(self) -> np.ndarray:
        """Values on all 2^n subsets as a float array indexed by mask."""
        return _dense(self.ground, self.entries, self.default, exact=False)

    def is_zero(self) -> bool:
        return self.default == 0 and all(v == 0 for v in self.entries.values())


@dataclass(frozen=True)
class MobiusTransform:
    """Interaction coefficients of a set function; only nonzeros are stored."""

    ground: GroundSet
    entries: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for mask, value in self.entries.items():
            self.ground.check_mask(mask)
            _check_finite(value)

    def value(self, mask: int):
        return self.entries.get(mask, 0)

    __call__ = value


def _dense(ground: GroundSet, values: dict, default, exact: bool) -> np.ndarray:
    """All 2^n values as a float64 array, or an object array of Fractions."""
    if ground.n > MAX_DENSE:
        raise CapacityError(f"dense table for n={ground.n} exceeds the limit of {MAX_DENSE}")
    cast = Fraction if exact else float
    dense = np.full(ground.size, cast(default), dtype=object if exact else float)
    for mask, v in values.items():
        dense[mask] = cast(v)
    return dense


def _transform(ground: GroundSet, values: dict, default, *, max_size: int | None,
               signed: bool, exact: bool, drop_tol: float | None) -> dict:
    """Submask sums of the function ``values`` (unstored masks read ``default``).

    Each subset U gets the sum over V below U of f(V), with the sign
    (-1)^|U minus V| when ``signed`` (the Moebius transform) and without it
    otherwise (the zeta transform). Sums are kept when nonzero and, if
    ``drop_tol`` is given, at least ``drop_tol`` in magnitude. ``exact``
    converts every value to a Fraction first.
    """
    n = ground.n
    if max_size is not None and max_size < n:
        entries = {}
        for mask in masks_up_to_size(n, max_size):
            bits = mask.bit_count()
            acc = Fraction(0) if exact else 0.0
            for sub in submasks(mask):
                term = values.get(sub, default)
                if exact:
                    term = Fraction(term)
                acc += -term if signed and (bits - sub.bit_count()) % 2 else term
            if acc != 0 and (drop_tol is None or abs(acc) >= drop_tol):
                entries[mask] = acc
        return entries

    dense = _dense(ground, values, default, exact)
    if not exact and not np.all(np.isfinite(dense)):
        raise InvalidInputError("non-finite value in set function")
    combine = np.subtract if signed else np.add
    for i in range(n):
        half = dense.reshape(-1, 2, 1 << i)
        combine(half[:, 1, :], half[:, 0, :], out=half[:, 1, :])
    keep = np.abs(dense) >= drop_tol if drop_tol is not None and drop_tol > 0 else dense != 0
    return {int(m): dense[m] if exact else float(dense[m]) for m in np.nonzero(keep)[0]}


def moebius(f: SetFunction, *, max_size: int | None = None, drop_tol: float | None = None,
            exact: bool = False) -> MobiusTransform:
    """Interaction coefficients of ``f``.

    Args:
        f: set function defined (entries plus default) on the whole lattice,
            or at least on all subsets of size <= ``max_size``.
        max_size: if given, compute coefficients only for subsets of at most
            this many targets, by direct submask sums. Otherwise the dense
            O(n 2^n) scan is used, which requires n <= 24.
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
    entries = _transform(f.ground, f.entries, f.default, max_size=max_size, signed=True,
                         exact=exact, drop_tol=drop_tol)
    return MobiusTransform(f.ground, entries)


def zeta(coeffs: MobiusTransform, *, max_size: int | None = None,
         exact: bool = False) -> SetFunction:
    """Rebuild the set function whose interaction coefficients are ``coeffs``.

    Inverse of :func:`moebius`: the value at U is the sum of coefficients over
    all submasks of U. With ``max_size`` only subsets up to that size are
    materialized.
    """
    entries = _transform(coeffs.ground, coeffs.entries, 0, max_size=max_size, signed=False,
                         exact=exact, drop_tol=None)
    return SetFunction(coeffs.ground, entries)


def restrict_cardinality(f: SetFunction, cap: int) -> SetFunction:
    """Drop entries on subsets larger than ``cap``."""
    if not 0 <= cap <= f.ground.n:
        raise InvalidInputError(f"cap {cap} is outside [0, {f.ground.n}]")
    kept = {m: v for m, v in f.entries.items() if m.bit_count() <= cap}
    return SetFunction(f.ground, kept, default=f.default)
