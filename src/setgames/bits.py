"""Bitmask helpers for subsets of {1, .., n}.

Target ``i`` occupies bit ``i - 1``, so the subset {1, 3} is the mask 0b101.
Masks compare in plain integer order, which is the canonical ordering used
throughout the library.
"""

from itertools import combinations


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


def masks_up_to_size(n: int, cap: int) -> list[int]:
    """All masks over n bits with at most ``cap`` bits set, ascending."""
    out = []
    for r in range(min(cap, n) + 1):
        for combo in combinations(range(n), r):
            m = 0
            for b in combo:
                m |= 1 << b
            out.append(m)
    out.sort()
    return out
