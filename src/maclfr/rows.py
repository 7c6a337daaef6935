"""Packed rows and machine words.

A row is values of one width side by side in a plain int, value i at bit
i * width, as the engine's subfile, key, payload and demand rows are.
_join and _cut pack and unpack rows; _join shifts a short row in value by
value and joins a longer one pairwise.  Decode moves rows through machine
words: _words and _wide turn values into an array of 64-bit words and
back, each value a fixed number of words, and _widen and _narrow do the
same straight from and to a row, by byte slices when the width is a whole
number of bytes.  _gather reads an array at a list of places in one C
call, the step every decode lane takes.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from operator import itemgetter
from typing import Sequence

# Words hold each value low word first; a big-endian host swaps each
# word's bytes to read them as one little-endian int.
_SWAPPED = sys.byteorder == "big"


def _join(values: Sequence[int], width: int) -> int:
    """The values side by side, value i at bit i * width.  Up to 16 values
    are joined by shifts, last value first, and a longer row pairwise,
    neighbours at each step, so that no step copies a growing int once
    per value.  Shifts are faster up to about 13 values of 1,920 bits, and
    past 64 values of at most 64 bits."""
    if len(values) <= 16:
        acc = 0
        for v in reversed(values):
            acc = acc << width | v
        return acc
    while len(values) > 1:
        joined = [lo | hi << width for lo, hi in zip(values[::2], values[1::2])]
        if len(values) & 1:
            joined.append(values[-1])
        values, width = joined, 2 * width
    return values[0] if values else 0


def _cut(value: int, count: int, width: int) -> list[int]:
    """The inverse of _join: count values of width bits, value i at bit
    i * width.  Blocks of 32 values are cut out first, so that each value
    is shifted out of a short int."""
    mask, step = (1 << width) - 1, 32 * width
    values: list[int] = []
    for at in range(0, count * width, step):
        block = value >> at & ((1 << step) - 1)
        values += [block >> (i * width) & mask
                   for i in range(min(32, count - at // width))]
    return values


def _combinations(images: Sequence[int], coeffs: Sequence[int]) -> list[int]:
    """For each coefficient vector, the XOR of the images whose bit is 1,
    from subset-XOR tables (the "four Russians" method): a table per group
    of b images holds the XOR of each subset of the group, so a vector
    takes one look-up per group.  b grows with the number of vectors."""
    b = max(1, len(coeffs).bit_length() - 3)
    combos = [0] * len(coeffs)
    for at in range(0, len(images), b):
        table = [0]
        for image in images[at:at + b]:
            table += [x ^ image for x in table]
        mask = len(table) - 1
        combos = [x ^ table[d >> at & mask] for x, d in zip(combos, coeffs)]
    return combos


def _words(values: Sequence[int], width: int) -> array:
    """The values as machine words, width words each, low word first."""
    if width == 1:
        return array("Q", values)
    words = array("Q", b"".join([v.to_bytes(8 * width, "little")
                                 for v in values]))
    if _SWAPPED:
        words.byteswap()
    return words


def _wide(words: array) -> int:
    """The inverse of _words: the words as one int, word i at bit 64 i."""
    if _SWAPPED:
        words = array("Q", words)
        words.byteswap()
    return int.from_bytes(words, "little")


def _widen(row: int, count: int, bits: int, width: int) -> array:
    """The inverse of _narrow: count pieces of bits each, piece i at bit
    i bits, as machine words, width words a piece."""
    if bits % 8:
        return _words(_cut(row, count, bits), width)
    size = bits // 8
    data = (row & ((1 << count * bits) - 1)).to_bytes(count * size, "little")
    out = bytearray(count * 8 * width)
    for i in range(size):
        out[i::8 * width] = data[i::size]
    words = array("Q", out)
    if _SWAPPED:
        words.byteswap()
    return words


def _images(row: int, count: int, n: int, bits: int, width: int) -> list[int]:
    """The n file images of a row of count pieces of each file, file
    by file in turn: image i holds file i's pieces width words apart."""
    if width > 1:
        values = _cut(row, count * n, bits)
        return [_join(values[i::n], 64 * width) for i in range(n)]
    words = _widen(row, count * n, bits, 1)
    return [_wide(words[i::n]) for i in range(n)]


def _narrow(words: Sequence[int], width: int, bits: int) -> int:
    """Pieces of width machine words each as one int, piece i at bit
    i bits: by byte slices when bits is a whole number of bytes."""
    words = array("Q", words)
    if bits % 8:
        return _join(words if width == 1 else _cut(
            _wide(words), len(words) // width, 64 * width), bits)
    if _SWAPPED:
        words.byteswap()
    data, size = words.tobytes(), bits // 8
    out = bytearray(len(words) // width * size)
    for i in range(size):
        out[i::size] = data[i::8 * width]
    return int.from_bytes(out, "little")


def _gather(values: Sequence, places: Sequence[int]) -> tuple:
    """The values at the places, in turn."""
    if len(places) > 1:
        return itemgetter(*places)(values)
    return tuple(values[at] for at in places)


def _listed(lane: array, listed: Sequence[int] | None, count: int,
            words: int = 1) -> array:
    """The places the lane holds for the listed user ranks, in turn: count
    places a rank, every rank in order when listed is None.  With pieces
    of several words, each place of a piece becomes its words' places."""
    if listed is not None:
        lane = array("I", chain.from_iterable(
            lane[u * count:(u + 1) * count] for u in listed))
    if words > 1:
        lane = array("I", (at * words + i for at in lane
                           for i in range(words)))
    return lane
