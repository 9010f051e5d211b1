"""Mask helpers."""

from setgames.bits import mask_of, masks_up_to_size, targets_of


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 0b101
    assert targets_of(0b101) == (1, 3)
    assert targets_of(0) == ()


def test_masks_up_to_size():
    assert masks_up_to_size(3, 0) == [0]
    assert masks_up_to_size(3, 1) == [0, 1, 2, 4]
    assert len(masks_up_to_size(4, 4)) == 16
    got = masks_up_to_size(4, 2)
    assert got == sorted(got)
    assert all(m.bit_count() <= 2 for m in got)
