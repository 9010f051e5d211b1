"""Bitmask helpers for subsets of {1, .., n}.

Target ``i`` occupies bit ``i - 1``, so the subset {1, 3} is the mask 0b101.
Masks compare in plain integer order, which is the canonical ordering used
throughout the library. Every layer's strategy space, the masks of at most a
cap of n targets, is listed by :func:`masks_up_to_size` and counted by
:func:`count_up_to_size`, and nowhere else; :func:`lookup` reads values at listed masks.
"""

from functools import lru_cache
from math import comb

import numpy as np


def mask_of(targets) -> int:
    """Bitmask for an iterable of 1-based target indices."""
    mask = 0
    for t in targets:
        mask |= 1 << (t - 1)
    return mask


def targets_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based target indices stored in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def count_up_to_size(n: int, cap: int) -> int:
    """How many masks over n bits have at most ``cap`` bits set."""
    return sum(comb(n, t) for t in range(min(cap, n) + 1))


@lru_cache(maxsize=32)
def masks_up_to_size(n: int, cap: int) -> np.ndarray:
    """All masks over n bits with at most ``cap`` >= 0 bits set, ascending: a read-only
    int64 array, built once per (n, cap). Each mask of t bits gains one bit above its
    highest to give those of t + 1 bits (Knuth, TAOCP 4A, §7.2.1.3), then one sort."""
    masks, free = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    layers = [masks]
    for _ in range(min(cap, n)):
        # free[i]: the lowest bit above masks[i]'s highest; it extends by each of free[i]..n-1.
        spans = n - free
        bit = np.arange(spans.sum()) - np.repeat(np.cumsum(spans) - spans - free, spans)
        masks, free = np.repeat(masks, spans) | 1 << bit, bit + 1
        layers.append(masks)
    listing = np.sort(np.concatenate(layers))
    listing.flags.writeable = False
    return listing


def lookup(listing: np.ndarray, values: np.ndarray, masks: np.ndarray, n: int) -> np.ndarray:
    """``values[i]``, given at ``listing[i]`` (ascending masks over n bits), read at ``masks``,
    all listed: through a 2^n table while it has no more entries than ``masks``, else by
    binary search."""
    if 1 << n > masks.size:
        return values[listing.searchsorted(masks)]
    table = np.empty(1 << n, dtype=values.dtype)
    table[listing] = values
    return table[masks]
