"""Bit string invariants, mostly as hypothesis properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclfr.bits import BitBlock
from maclfr.errors import DomainError, UsageError


def blocks(max_length: int = 64):
    return st.integers(0, max_length).flatmap(
        lambda n: st.builds(BitBlock, st.integers(0, (1 << n) - 1),
                            st.just(n)))


@given(blocks())
def test_bytes_round_trip(b):
    data = b.to_bytes()
    assert len(data) == (b.length + 7) // 8
    assert int.from_bytes(data, "little") == b.value


@given(blocks())
def test_xor_group_laws(b):
    zero = BitBlock.zeros(b.length)
    assert b ^ zero == b
    assert b ^ b == zero


def test_first_bit_is_least_significant():
    b = BitBlock(0b01101, 5)
    assert [(b.value >> i) & 1 for i in range(5)] == [1, 0, 1, 1, 0]
    assert b.to_bytes() == bytes([0b01101])


def test_byte_order_is_little_endian():
    # Bit 8 (the 9th bit) must land in the second byte's low position.
    b = BitBlock(1 << 8, 9)
    assert b.to_bytes() == bytes([0, 1])


def test_validation_errors():
    with pytest.raises(DomainError):
        BitBlock(8, 3)
    with pytest.raises(DomainError):
        BitBlock(-1, 3)
    with pytest.raises(DomainError):
        BitBlock(0, -1)
    with pytest.raises(UsageError):
        BitBlock(0, 8) ^ BitBlock(0, 9)


def test_random_block_is_reproducible():
    assert BitBlock.random(random.Random(1), 40) == BitBlock.random(
        random.Random(1), 40)
    assert BitBlock.random(random.Random(1), 0) == BitBlock.zeros(0)
