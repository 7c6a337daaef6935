"""Secret sharing checks.

Reconstruction is cross-checked against hand-solved polynomial systems,
and the secrecy statement (any r - 1 shares carry nothing) against the
exhaustive conditional-distribution enumerator.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclfr.errors import DomainError, ResourceLimitError, UsageError
from maclfr.gf import binary_field, exponent_for_share_count
from maclfr.shamir import (ShareSet, canonical_evaluation_points,
                           leakage_check, reconstruct, split)


def field_for(share_count: int):
    return binary_field(exponent_for_share_count(share_count))


def drawn_planes(rng: random.Random, secret_bits: int, share_count: int,
                 field) -> list[int]:
    """share_count - 1 uniform coefficient planes for a secret of
    secret_bits."""
    symbols = -(-secret_bits // field.exponent)
    return [rng.getrandbits(symbols * field.exponent)
            for _ in range(share_count - 1)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 48), st.integers(0, 2 ** 32))
def test_split_reconstruct_round_trip(share_count, secret_bits, seed):
    field = field_for(share_count)
    rng = random.Random(seed)
    secret = rng.getrandbits(secret_bits)
    shares = split(secret, secret_bits, share_count, field,
                   drawn_planes(rng, secret_bits, share_count, field))
    assert shares.share_count == share_count
    assert reconstruct(shares) == secret
    # Rebuilding the set from its share values must not change anything.
    rebuilt = ShareSet(field, secret_bits, tuple(shares.shares))
    assert reconstruct(rebuilt) == secret


def test_share_values_match_hand_evaluation():
    # One 2-bit symbol in GF(4), polynomial s + c x evaluated at 1 and 2:
    # share1 = s ^ c, share2 = s ^ (c * x) with x = 0b10.
    field = binary_field(2)
    shares = split(0b11, 2, 2, field, coefficients=[0b01])
    assert shares.share_bits == 2
    assert shares.shares[0] == 0b11 ^ 0b01
    assert shares.shares[1] == 0b11 ^ field.mul(0b01, 0b10)
    assert reconstruct(shares) == 0b11


def test_single_share_is_the_secret():
    field = field_for(1)
    shares = split(0b1011, 4, 1, field)
    assert (shares.shares, shares.share_bits) == ((0b1011,), 4)
    assert reconstruct(shares) == 0b1011


def test_fewer_than_all_shares_reveal_nothing_exhaustively():
    # Every proper subset of shares has a secret-independent distribution
    # when the blinding coefficients are uniform.
    for share_count, num_symbols in ((2, 2), (3, 1)):
        field = field_for(share_count)
        for size in range(1, share_count):
            for positions in combinations(range(1, share_count + 1), size):
                dists = leakage_check(num_symbols, share_count, field,
                                      positions)
                reference = None
                for secret, counter in dists.items():
                    if reference is None:
                        reference = counter
                    assert counter == reference, (positions, secret)


def test_all_shares_determine_the_secret():
    # With every share observed the map secret -> share tuple is injective,
    # so full observation is the opposite of the leakage case.  Checked by
    # explicit reconstruction over all coefficient choices.
    field = binary_field(2)
    for secret_value in range(4):
        for c in range(4):
            shares = split(secret_value, 2, 2, field, coefficients=[c])
            assert reconstruct(shares) == secret_value


def test_tail_padding_is_dropped():
    # 3 secret bits in GF(4) symbols occupy 2 symbols = 4 bits of shares.
    field = binary_field(2)
    shares = split(0b101, 3, 2, field,
                   drawn_planes(random.Random(0), 3, 2, field))
    assert shares.share_bits == 4
    assert reconstruct(shares) == 0b101


def test_split_checks_the_secret_width():
    field = binary_field(2)
    planes = drawn_planes(random.Random(1), 5, 3, field)
    with pytest.raises(DomainError):
        split(1 << 5, 5, 3, field, planes)


def test_validation_errors():
    field = binary_field(2)
    with pytest.raises(UsageError):
        split(0b1, 2, 2, field)  # no coefficient planes
    with pytest.raises(UsageError):
        split(0b1, 2, 2, field, coefficients=[1, 2])  # one plane per blind
    with pytest.raises(DomainError):
        split(0b1, 2, 2, field, coefficients=[1 << 2])  # wider than 1 symbol
    with pytest.raises(DomainError):
        split(0b1, 2, 2, field, coefficients=[-1])
    with pytest.raises(DomainError):
        canonical_evaluation_points(field, 4)
    with pytest.raises(DomainError):
        canonical_evaluation_points(field, 0)
    with pytest.raises(DomainError):
        ShareSet(field, 2, (0, 1 << 2))  # a share wider than the secret's


def test_share_set_derives_its_count_and_width_and_checks_shares():
    field = binary_field(2)
    shares = ShareSet(field, 3, (0b1011, 0b0110, 0))
    assert (shares.share_count, shares.share_bits) == (3, 4)
    with pytest.raises(DomainError, match="shares must fit in 2 symbols"):
        ShareSet(field, 3, (0b1011, 1 << 4))
    with pytest.raises(DomainError, match="shares must fit"):
        ShareSet(field, 3, (-1,))
    with pytest.raises(DomainError, match="4 shares need a field of order"):
        ShareSet(field, 3, (0, 0, 0, 0))
    with pytest.raises(DomainError, match="share count must be positive"):
        ShareSet(field, 3, ())


def test_leakage_check_guards():
    field = binary_field(2)
    with pytest.raises(UsageError):
        leakage_check(1, 2, field, (1, 1))
    with pytest.raises(UsageError):
        leakage_check(1, 2, field, (3,))
    with pytest.raises(UsageError):
        leakage_check(1, 2, field, (1, 2))
    with pytest.raises(ResourceLimitError):
        leakage_check(8, 3, field, (1,), cap=10)


def test_reconstruct_inverts_split_for_small_share_counts():
    # Lagrange weights are computed once per reconstruct; every symbol of
    # a multi-symbol secret must still come back, for r = 1 ... 4.
    rng = random.Random(4)
    for share_count in range(1, 5):
        field = field_for(share_count)
        for secret_bits in (1, field.exponent, 5 * field.exponent + 1):
            for _ in range(20):
                secret = rng.getrandbits(secret_bits)
                shares = split(secret, secret_bits, share_count, field,
                               drawn_planes(rng, secret_bits, share_count,
                                            field))
                assert reconstruct(shares) == secret, (share_count, secret)


def test_lagrange_weights_interpolate_at_zero():
    field = binary_field(3)
    xs = (1, 2, 5)
    weights = field.lagrange_weights_at_zero(xs)
    for coeffs in ((0, 0, 0), (7, 1, 0), (3, 5, 6)):
        values = [field.poly_eval(coeffs, x) for x in xs]
        acc = 0
        for y, w in zip(values, weights):
            acc ^= field.mul(y, w)
        assert acc == coeffs[0]
    for bad in ((1, 1), (0, 2), (1, 8)):
        with pytest.raises(DomainError):
            field.lagrange_weights_at_zero(bad)


def symbols_of(value: int, width: int, count: int) -> list[int]:
    return [(value >> (i * width)) & ((1 << width) - 1) for i in range(count)]


def packed(symbols, width: int) -> int:
    return sum(v << (i * width) for i, v in enumerate(symbols))


def test_packed_split_and_reconstruct_match_a_per_symbol_reference():
    # Shares evaluated symbol by symbol with poly_eval, and the secret
    # interpolated symbol by symbol with mul, for r = 1 ... 4.
    rng = random.Random(8)
    for share_count in range(1, 5):
        field = field_for(share_count)
        l = field.exponent
        points = canonical_evaluation_points(field, share_count)
        weights = field.lagrange_weights_at_zero(points)
        for secret_bits in (1, l, 7 * l + 1):
            count = -(-secret_bits // l)
            secret = rng.getrandbits(secret_bits)
            rows = [tuple(rng.randrange(field.order)
                          for _ in range(share_count - 1))
                    for _ in range(count)]
            planes = [packed([row[b] for row in rows], l)
                      for b in range(share_count - 1)]
            shares = split(secret, secret_bits, share_count, field,
                           coefficients=planes)
            assert shares.share_bits == count * l
            sym = symbols_of(secret, l, count)
            for j, x in enumerate(points, 1):
                expected = [field.poly_eval((v,) + row, x)
                            for v, row in zip(sym, rows)]
                assert shares.shares[j - 1] == packed(expected, l)
            # Reconstruction of arbitrary share values, consistent or not.
            blocks = tuple(rng.getrandbits(count * l) for _ in points)
            columns = [symbols_of(b, l, count) for b in blocks]
            expected = []
            for s in range(count):
                acc = 0
                for column, w in zip(columns, weights):
                    acc ^= field.mul(column[s], w)
                expected.append(acc)
            rebuilt = reconstruct(ShareSet(field, secret_bits, blocks))
            value = packed(expected, l) & ((1 << secret_bits) - 1)
            assert rebuilt == value
