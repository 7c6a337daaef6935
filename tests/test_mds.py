"""Erasure code checks.

The decoding oracle is exhaustive: every k-subset of coded blocks must
reproduce every key tried, and any k - 1 blocks must leave at least one
symbol free (checked through the leakage of the missing dimension).
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from maclfr.errors import DomainError, IntegrityError, UsageError
from maclfr.mds import (MdsCode, build_code, coded_block_bit_length,
                        decode_key, encode_key, subkey_bit_length)

SHAPES = ((1, 1), (2, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 4),
          (7, 3), (8, 5))


@pytest.mark.parametrize("length,dimension", SHAPES)
def test_every_k_subset_decodes(length, dimension):
    code = build_code(length, dimension)
    rng = random.Random(length * 31 + dimension)
    for key_bits in (1, 7, 16, 33):
        for _ in range(5):
            key = rng.getrandbits(key_bits)
            blocks = encode_key(key, key_bits, code)
            assert len(blocks) == length
            assert all(0 <= b < 1 << coded_block_bit_length(key_bits, code)
                       for b in blocks)
            for cols in combinations(range(1, length + 1), dimension):
                chosen = [(p, blocks[p - 1]) for p in cols]
                assert decode_key(chosen, code, key_bits) == key


def test_systematic_blocks_are_the_subkeys():
    code = build_code(5, 3)
    key = 0b101100111
    blocks = encode_key(key, 9, code)
    sub = subkey_bit_length(9, code)
    mask = (1 << sub) - 1
    for i in range(3):
        assert blocks[i] & mask == (key >> (i * sub)) & mask


def test_single_parity_shape_is_the_xor():
    # n = k + 1 uses one binary parity block: the XOR of the sub-keys.
    code = build_code(3, 2)
    assert code.field.exponent == 1
    blocks = encode_key(0b1011, 4, code)
    assert blocks[2] == blocks[0] ^ blocks[1]
    assert subkey_bit_length(4, code) == 2
    assert coded_block_bit_length(4, code) == 2


def test_repetition_shape_copies_the_key():
    code = build_code(4, 1)
    for b in encode_key(0b110, 3, code):
        assert b == 0b110


def test_identity_shape_is_plain_chopping():
    # Sub-key i is bits [2i, 2i + 2) of the key, first bit least significant.
    code = build_code(3, 3)
    assert list(encode_key(0b110101, 6, code)) == [0b01, 0b01, 0b11]


def test_generator_is_systematic_with_invertible_parity_part():
    code = build_code(7, 3)
    for i in range(3):
        for j in range(3):
            assert code.generator[i][j] == (1 if i == j else 0)
    assert all(v for row in code.generator for v in row[3:])


def test_fewer_than_k_blocks_leave_the_key_free():
    # For each (k-1)-subset there must exist two keys with identical coded
    # blocks on those positions: the code cannot determine the key from
    # k - 1 blocks.  Exhaustive over 1-symbol keys.
    code = build_code(5, 2)
    nbits = code.symbol_bits * 2
    for cols in combinations(range(1, 6), 1):
        seen = {}
        collision = False
        for value in range(1 << nbits):
            view = tuple(encode_key(value, nbits, code)[p - 1] for p in cols)
            if view in seen:
                collision = True
                break
            seen[view] = value
        assert collision, cols


def test_decode_validation():
    code = build_code(4, 2)
    blocks = encode_key(0b1101, 4, code)
    with pytest.raises(DomainError):
        decode_key([(1, blocks[0])], code, 4)
    with pytest.raises(DomainError):
        decode_key([(1, blocks[0]), (1, blocks[0])], code, 4)
    with pytest.raises(DomainError):
        decode_key([(1, blocks[0]), (9, blocks[1])], code, 4)
    wide = 1 << coded_block_bit_length(4, code)  # a row carries no length
    with pytest.raises(DomainError, match="block at 2 does not fit"):
        decode_key([(1, blocks[0]), (2, wide)], code, 4)
    with pytest.raises(DomainError):
        build_code(2, 3)
    with pytest.raises(UsageError):
        code.column(5)


def test_encode_and_decode_check_widths():
    code = build_code(5, 3)
    blocks = encode_key(0b101100111, 9, code)
    picked = [(p, blocks[p - 1]) for p in (2, 4, 5)]
    with pytest.raises(DomainError):
        encode_key(1 << 9, 9, code)
    wide = 1 << coded_block_bit_length(9, code)
    with pytest.raises(DomainError):
        decode_key([(2, wide)] + picked[1:], code, 9)


def test_singular_submatrix_rejected():
    # A deliberately broken generator (repeated column) must fail decoding
    # with an integrity error rather than return garbage.
    from maclfr.gf import binary_field
    broken = MdsCode(3, 2, binary_field(2),
                     ((1, 0, 1), (0, 1, 0)))
    blocks = encode_key(0b1111, 4, broken)
    with pytest.raises(IntegrityError):
        decode_key([(1, blocks[0]), (3, blocks[2])], broken, 4)


CAUCHY_SHAPES = tuple((n, k) for n, k in SHAPES if k >= 2 and n >= k + 2)


def symbols_of(value: int, width: int, count: int) -> list[int]:
    return [(value >> (i * width)) & ((1 << width) - 1) for i in range(count)]


def packed(symbols, width: int) -> int:
    return sum(v << (i * width) for i, v in enumerate(symbols))


def solve_symbol(field, matrix, rhs):
    """Gauss-Jordan over the field for one symbol: matrix @ u = rhs."""
    k = len(matrix)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot = next(i for i in range(col, k) if rows[i][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [field.mul(inv, v) for v in rows[col]]
        for i in range(k):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a ^ field.mul(f, b) for a, b in zip(rows[i], rows[col])]
    return [row[k] for row in rows]


@pytest.mark.parametrize("length,dimension", CAUCHY_SHAPES)
def test_packed_coding_matches_a_per_symbol_reference(length, dimension):
    code = build_code(length, dimension)
    assert code.field.exponent > 1
    field, m, k = code.field, code.symbol_bits, dimension
    rng = random.Random(length * 7 + dimension)
    for key_bits in (1, 16, 45):
        sub_bits = subkey_bit_length(key_bits, code)
        count = coded_block_bit_length(key_bits, code) // m
        key = rng.getrandbits(key_bits)
        subkeys = [symbols_of((key >> (i * sub_bits))
                              & ((1 << sub_bits) - 1), m, count)
                   for i in range(k)]
        blocks = encode_key(key, key_bits, code)
        for j in range(length):
            expected = []
            for s in range(count):
                acc = 0
                for i in range(k):
                    acc ^= field.mul(code.generator[i][j], subkeys[i][s])
                expected.append(acc)
            assert blocks[j] == packed(expected, m)
        # Decoding arbitrary received blocks solves each symbol's system.
        for cols in combinations(range(1, length + 1), k):
            received = [rng.getrandbits(count * m) for _ in cols]
            matrix = [code.column(p) for p in cols]
            ys = [symbols_of(b, m, count) for b in received]
            solved = [solve_symbol(field, matrix, [y[s] for y in ys])
                      for s in range(count)]
            value = 0
            for i in range(k):
                sub = packed([solved[s][i] for s in range(count)], m)
                value |= (sub & ((1 << sub_bits) - 1)) << (i * sub_bits)
            value &= (1 << key_bits) - 1
            pairs = list(zip(cols, received))
            assert decode_key(pairs, code, key_bits) == value
