"""Binary extension field arithmetic GF(2^l).

Elements are plain ints in [0, 2^l) holding polynomial-basis coordinates:
bit j of the int is the coefficient of x^j, so the constant term sits in
the least significant bit.  A BinaryField instance fixes the exponent and
exposes arithmetic on raw ints modulo the exponent's one reduction
polynomial, canonical_reduction_poly(): the lowest-weight, then
lowest-value, irreducible polynomial of the degree, found once by search
with exhaustive trial division.

Every product goes through mul_packed, which multiplies each symbol of an
int of packed l-bit symbols by one constant with shifts and XORs: Shamir
shares and MDS blocks are scaled a whole block at a time, and a single
product is the one-symbol case.  Inversion is a power, a^(2^l - 2).
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import DomainError

MAX_EXPONENT = 16


# ---- polynomial helpers on raw masks ----

def _polymod(a: int, m: int) -> int:
    """Remainder of mask a modulo mask m over GF(2)."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial division; intended for degrees up to MAX_EXPONENT."""
    degree = poly.bit_length() - 1
    if degree < 1:
        return False
    if degree > MAX_EXPONENT:
        raise DomainError(f"irreducibility check limited to degree {MAX_EXPONENT}")
    for d in range(1, degree // 2 + 1):
        for divisor in range(1 << d, 1 << (d + 1)):
            if _polymod(poly, divisor) == 0:
                return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_reduction_poly(exponent: int) -> int:
    """Lowest-weight, then lowest-value, irreducible polynomial of the degree."""
    if not 1 <= exponent <= MAX_EXPONENT:
        raise DomainError(f"exponent must be in [1, {MAX_EXPONENT}], got {exponent}")
    candidates = sorted(range(1 << exponent, 1 << (exponent + 1)),
                        key=lambda m: (bin(m).count("1"), m))
    for mask in candidates:
        if is_irreducible(mask):
            return mask
    raise DomainError(f"no irreducible polynomial of degree {exponent}")  # unreachable


class BinaryField:
    """GF(2^exponent) modulo the canonical reduction polynomial; the
    arithmetic methods take and return raw ints."""

    def __init__(self, exponent: int):
        self.reduction_poly = canonical_reduction_poly(exponent)
        self.exponent = exponent
        self.order = 1 << exponent

    # ---- raw int arithmetic ----

    def _check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise DomainError(f"value {a} outside field of order {self.order}")
        return a

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self.mul_packed(a, b, 1)

    def inv(self, a: int) -> int:
        """a^(2^l - 2) by square-and-multiply.  It calls mul_packed, not
        mul, so that a count of mul calls counts only callers' products."""
        self._check(a)
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        acc, e = 1, self.order - 2
        while e:
            if e & 1:
                acc = self.mul_packed(acc, a, 1)
            a = self.mul_packed(a, a, 1)
            e >>= 1
        return acc

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def mul_packed(self, c: int, packed: int, symbols: int) -> int:
        """c times each of the `symbols` l-bit symbols packed in one int,
        symbol s at bits [s l, (s + 1) l).

        Horner over the bits of c, where each step multiplies every symbol
        by x at once (Blomer et al., "An XOR-based erasure-resilient coding
        scheme", 1995): shift the block up a bit and reduce the symbols
        whose top bit was set, so the block costs a few big-int operations
        per bit of c instead of one product per symbol.
        """
        self._check(c)
        l = self.exponent
        if packed < 0 or packed >> (symbols * l):
            raise DomainError(f"value does not fit in {symbols} symbols")
        tops = ((1 << (symbols * l)) - 1) // (self.order - 1) << (l - 1)
        low = self.reduction_poly ^ self.order
        acc = 0
        for bit in range(c.bit_length() - 1, -1, -1):
            hi = acc & tops
            acc = ((acc ^ hi) << 1) ^ ((hi >> (l - 1)) * low)
            if (c >> bit) & 1:
                acc ^= packed
        return acc

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate coeffs[0] + coeffs[1] x + ... by Horner's rule."""
        self._check(x)
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ self._check(c)
        return acc

    def lagrange_weights_at_zero(self, xs: Sequence[int]) -> tuple[int, ...]:
        """Weights c_i with p(0) = sum_i c_i p(x_i) for every polynomial p
        of degree < len(xs).

        The abscissas must be distinct and nonzero; zero would make the
        polynomial's own constant term one of the inputs, which no caller
        here wants.
        """
        xs = [self._check(x) for x in xs]
        if len(set(xs)) != len(xs):
            raise DomainError("duplicate interpolation abscissas")
        if any(x == 0 for x in xs):
            raise DomainError("interpolation abscissas must be nonzero")
        weights = []
        for i, xi in enumerate(xs):
            weight = 1
            for j, xj in enumerate(xs):
                if j != i:
                    weight = self.mul(weight, self.div(xj, xj ^ xi))
            weights.append(weight)
        return tuple(weights)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BinaryField)
                and other.exponent == self.exponent
                and other.reduction_poly == self.reduction_poly)

    def __hash__(self) -> int:
        return hash((self.exponent, self.reduction_poly))

    def __repr__(self) -> str:
        return f"BinaryField(2^{self.exponent}, poly={self.reduction_poly:#b})"


@functools.lru_cache(maxsize=None)
def binary_field(exponent: int) -> BinaryField:
    """Shared instance of GF(2^exponent) with the canonical reduction poly."""
    return BinaryField(exponent)


def exponent_for_share_count(share_count: int) -> int:
    """Smallest l with share_count < 2^l, so that l-bit symbols admit
    share_count distinct nonzero evaluation points."""
    if share_count < 1:
        raise DomainError(f"share count must be positive, got {share_count}")
    return share_count.bit_length()
