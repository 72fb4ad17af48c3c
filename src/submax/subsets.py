"""The set codec: bitmasks for subsets of a ground set {0, ..., n-1}.

Subsets travel through the toolkit as bitmasks, bit u set meaning element u
is in the set; every oracle also accepts an iterable of indices.  A mask
array is int64 up to ``MAX_MASK_BITS`` elements and holds Python ints (an
``object`` array) above that.  This module alone converts between sets and
bit rows: :func:`masks_from_bits` packs, :func:`bits_from_masks` unpacks,
both at any n.  Inside a batch kernel, int64 masks may be narrowed to
:func:`word`, the smallest integer type that holds n bits, so that the
kernel's temporaries take 1, 2 or 4 bytes per entry instead of 8.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

# int64 bitmask batches hold at most 62 elements: shifting 1 by 63 overflows
MAX_MASK_BITS = 62

# masks per oracle call on large batches: the row family's kernel builds
# (block, rows) temporaries of word(n) entries, which stay cache-sized at
# this length (with word-sized temporaries, 1 << 11 to 1 << 13 tie and
# 1 << 14 is slower at n = 16)
MASK_BLOCK = 1 << 12

_POP_CHUNK = 11
_POP_LUT = np.array([bin(i).count("1") for i in range(1 << _POP_CHUNK)], dtype=np.int64)


def as_mask(subset: int | Iterable[int], n: int) -> int:
    """Normalize a subset (bitmask or iterable of element indices) to a bitmask."""
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask} out of range for ground set of size {n}")
        return mask
    mask = 0
    for u in subset:
        u = int(u)
        if not 0 <= u < n:
            raise ValueError(f"element {u} out of range for ground set of size {n}")
        mask |= 1 << u
    return mask


def indices(mask: int) -> list[int]:
    """Sorted element indices of a bitmask."""
    return np.flatnonzero(bits_from_masks(mask, int(mask).bit_length())).tolist()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def word(n: int) -> np.dtype:
    """The narrowest mask type that holds n <= ``MAX_MASK_BITS`` bits: uint8,
    uint16 or uint32 up to 32 elements, int64 above.  Casting int64 masks
    over n elements to it keeps every bit."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Vectorized popcount of non-negative int64 masks: one 11-bit table
    lookup per chunk up to the bit length of the largest mask (six cover all
    63 value bits)."""
    m = np.asarray(masks).astype(np.int64, copy=False)
    count = np.zeros(m.shape, dtype=np.int64)
    for shift in range(0, int(m.max(initial=0)).bit_length(), _POP_CHUNK):
        count += _POP_LUT[(m >> shift) & 2047]
    return count


def mask_array(masks, n: int) -> np.ndarray:
    """Masks over n elements as an array: int64 up to ``MAX_MASK_BITS``
    elements, Python ints in an object array above."""
    return np.asarray(masks, dtype=np.int64 if n <= MAX_MASK_BITS else object)


def masks_from_bits(bits: np.ndarray) -> np.ndarray:
    """Pack boolean rows (..., n) into masks, bit u = column u, at any n (see
    :func:`mask_array`); a 1-D row gives one mask."""
    n = bits.shape[-1]
    powers = mask_array([1 << u for u in range(n)], n)
    return bits.astype(np.int64).astype(powers.dtype, copy=False) @ powers


def bits_from_masks(masks, n: int) -> np.ndarray:
    """0/1 int64 rows (..., n) of masks over n elements, column u = bit u:
    the inverse of :func:`masks_from_bits`, at any n."""
    bits = (mask_array(masks, n)[..., None] >> np.arange(n, dtype=np.int64)) & 1
    return bits.astype(np.int64, copy=False)
