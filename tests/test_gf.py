"""Field arithmetic checks.

The multiplication oracle here is an LSB-first xtime-chain multiplier
(accumulate, shift, conditionally reduce on overflow), written
independently of the library's MSB-first Horner over packed symbols,
so the two can disagree if either is wrong.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclfr.errors import DomainError
from maclfr.gf import (MAX_EXPONENT, binary_field,
                       canonical_reduction_poly, exponent_for_share_count,
                       is_irreducible)

SMALL_EXPONENTS = (1, 2, 3, 4)


def xtime_mul(a: int, b: int, poly: int, exponent: int) -> int:
    """Schoolbook GF(2^l) product: double a and reduce on overflow."""
    acc = 0
    for _ in range(exponent):
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> exponent:
            a ^= poly
    return acc


def brute_force_irreducible(poly: int) -> bool:
    """Degree-d poly is irreducible iff no product of two smaller monic
    polynomials reproduces it (full double loop, no early structure)."""
    degree = poly.bit_length() - 1
    for da in range(1, degree):
        for a in range(1 << da, 1 << (da + 1)):
            for b in range(1 << (degree - da), 1 << (degree - da + 1)):
                prod = 0
                x = a
                bb = b
                while bb:
                    if bb & 1:
                        prod ^= x
                    x <<= 1
                    bb >>= 1
                if prod == poly:
                    return False
    return True


@pytest.mark.parametrize("exponent", SMALL_EXPONENTS)
def test_field_axioms_exhaustive(exponent):
    f = binary_field(exponent)
    values = range(f.order)
    for a in values:
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in values:
            assert f.mul(a, b) == f.mul(b, a)


@pytest.mark.parametrize("exponent", (1, 2, 3))
def test_distributivity_and_associativity_exhaustive(exponent):
    f = binary_field(exponent)
    values = range(f.order)
    for a in values:
        for b in values:
            for c in values:
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("exponent", SMALL_EXPONENTS)
def test_table_multiplication_matches_xtime_exhaustive(exponent):
    f = binary_field(exponent)
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == xtime_mul(a, b, f.reduction_poly, exponent)


@pytest.mark.parametrize("exponent", (8, 12, 16))
def test_table_multiplication_matches_xtime_sampled(exponent):
    f = binary_field(exponent)
    rng = random.Random(exponent)
    for _ in range(2000):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        assert f.mul(a, b) == xtime_mul(a, b, f.reduction_poly, exponent)


@pytest.mark.parametrize("exponent", range(1, MAX_EXPONENT + 1))
def test_packed_multiply_matches_symbolwise_mul(exponent):
    f = binary_field(exponent)
    rng = random.Random(exponent)
    constants = [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(40)]
    for c in constants:
        count = rng.randrange(0, 13)
        symbols = [rng.randrange(f.order) for _ in range(count)]
        symbols[:1] = [f.order - 1] * min(count, 1)  # a top bit to reduce
        packed = sum(v << (i * exponent) for i, v in enumerate(symbols))
        expected = sum(f.mul(c, v) << (i * exponent)
                       for i, v in enumerate(symbols))
        assert f.mul_packed(c, packed, count) == expected, (c, symbols)
    with pytest.raises(DomainError):
        f.mul_packed(f.order, 1, 1)
    with pytest.raises(DomainError):
        f.mul_packed(1, 1 << exponent, 1)


def test_canonical_polynomials_are_minimal():
    # Lowest weight first, then lowest value, among irreducibles of the
    # degree, per the independent factoring oracle.
    for exponent in (1, 2, 3, 4, 5, 8):
        poly = canonical_reduction_poly(exponent)
        assert brute_force_irreducible(poly)
        key = (bin(poly).count("1"), poly)
        for cand in range(1 << exponent, 1 << (exponent + 1)):
            if (bin(cand).count("1"), cand) < key:
                assert not brute_force_irreducible(cand)


def test_is_irreducible_matches_brute_force():
    for poly in range(0b100, 1 << 7):
        assert is_irreducible(poly) == brute_force_irreducible(poly), bin(poly)


def test_known_product_in_gf8():
    # In GF(2^3) mod x^3 + x + 1: x * x^2 = x^3 = x + 1.
    f = binary_field(3)
    assert f.reduction_poly == 0b1011
    assert f.mul(0b010, 0b100) == 0b011


def test_inverse_of_zero_rejected():
    f = binary_field(4)
    with pytest.raises(DomainError):
        f.inv(0)
    with pytest.raises(DomainError):
        f.mul(f.order, 1)


def test_reducible_polynomial_rejected():
    with pytest.raises(DomainError):
        binary_field(0)
    with pytest.raises(DomainError):
        binary_field(MAX_EXPONENT + 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_interpolation_recovers_constant_term(data):
    exponent = data.draw(st.integers(2, 6))
    f = binary_field(exponent)
    degree = data.draw(st.integers(1, min(4, f.order - 2)))
    coeffs = [data.draw(st.integers(0, f.order - 1)) for _ in range(degree + 1)]
    xs = data.draw(st.permutations(range(1, f.order)))[:degree + 1]
    constant = 0
    for x, weight in zip(xs, f.lagrange_weights_at_zero(xs)):
        constant ^= f.mul(weight, f.poly_eval(coeffs, x))
    assert constant == coeffs[0]


def test_interpolation_rejects_bad_abscissas():
    f = binary_field(3)
    with pytest.raises(DomainError):
        f.lagrange_weights_at_zero([1, 1])
    with pytest.raises(DomainError):
        f.lagrange_weights_at_zero([0])
    with pytest.raises(DomainError):
        f.lagrange_weights_at_zero([1, f.order])


def test_exponent_for_share_count_is_minimal():
    for count in range(1, 200):
        l = exponent_for_share_count(count)
        assert count < (1 << l), "count many nonzero points must fit"
        assert l == 1 or count >= (1 << (l - 1)), "one bit fewer must not fit"
    with pytest.raises(DomainError):
        exponent_for_share_count(0)
