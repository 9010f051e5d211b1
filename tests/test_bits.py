"""Mask helpers."""

from itertools import combinations

import numpy as np

from setgames.bits import count_up_to_size, mask_of, masks_up_to_size, targets_of


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 0b101
    assert targets_of(0b101) == (1, 3)
    assert targets_of(0) == ()


def test_masks_up_to_size():
    # Against the combinations of each count, for every n <= 8 and cap 0..n+1.
    for n in range(1, 9):
        for cap in range(n + 2):
            want = sorted(mask_of(b + 1 for b in combo)
                          for size in range(min(cap, n) + 1)
                          for combo in combinations(range(n), size))
            got = masks_up_to_size(n, cap)
            assert got.tolist() == want
            assert got.dtype == np.int64 and not got.flags.writeable
            assert count_up_to_size(n, cap) == got.size
