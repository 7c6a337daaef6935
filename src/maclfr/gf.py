"""Binary extension field arithmetic GF(2^l).

Elements are plain ints in [0, 2^l) holding polynomial-basis coordinates:
bit j of the int is the coefficient of x^j, so the constant term sits in
the least significant bit.  A BinaryField instance fixes the exponent and
the reduction polynomial and exposes arithmetic on raw ints.

Multiplication and inversion go through log/antilog tables built from a
generator of the multiplicative group, which is plenty for the exponents
used here (l <= 16).  Shamir shares and MDS blocks are instead scaled a
whole block at a time: mul_packed multiplies every symbol of an int of
packed l-bit symbols by one constant with shifts and XORs.  Reduction
polynomials are validated irreducible by exhaustive trial division.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .errors import DomainError

MAX_EXPONENT = 16

# Canonical reduction polynomials for the small fields that appear in the
# schemes.  Larger exponents fall back to a search for the lexicographically
# first lowest-weight irreducible polynomial, which reproduces these entries.
_CANONICAL = {
    1: 0b10,        # x
    2: 0b111,       # x^2 + x + 1
    3: 0b1011,      # x^3 + x + 1
    4: 0b10011,     # x^4 + x + 1
}


# ---- polynomial helpers on raw masks ----

def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] masks."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


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
    if exponent in _CANONICAL:
        return _CANONICAL[exponent]
    candidates = sorted(range(1 << exponent, 1 << (exponent + 1)),
                        key=lambda m: (bin(m).count("1"), m))
    for mask in candidates:
        if is_irreducible(mask):
            return mask
    raise DomainError(f"no irreducible polynomial of degree {exponent}")  # unreachable


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class BinaryField:
    """GF(2^exponent) with a fixed reduction polynomial; the arithmetic
    methods take and return raw ints."""

    def __init__(self, exponent: int, reduction_poly: int | None = None):
        if not 1 <= exponent <= MAX_EXPONENT:
            raise DomainError(
                f"exponent must be in [1, {MAX_EXPONENT}], got {exponent}")
        if reduction_poly is None:
            reduction_poly = canonical_reduction_poly(exponent)
        if reduction_poly.bit_length() - 1 != exponent:
            raise DomainError(
                f"reduction polynomial degree {reduction_poly.bit_length() - 1} "
                f"does not match exponent {exponent}")
        if not is_irreducible(reduction_poly):
            raise DomainError(f"reduction polynomial {reduction_poly:#b} is reducible")
        self.exponent = exponent
        self.reduction_poly = reduction_poly
        self.order = 1 << exponent
        self._build_tables()

    def _mul_slow(self, a: int, b: int) -> int:
        return _polymod(_clmul(a, b), self.reduction_poly)

    def _build_tables(self) -> None:
        group = self.order - 1
        gen = None
        factors = _prime_factors(group) if group > 1 else []
        for cand in range(1, self.order):
            if all(self._pow_slow(cand, group // p) != 1 for p in factors):
                gen = cand
                break
        assert gen is not None
        exp = [0] * group
        log = [0] * self.order
        acc = 1
        for i in range(group):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_slow(acc, gen)
        assert acc == 1, "generator order mismatch"
        self._exp = exp
        self._log = log

    def _pow_slow(self, a: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_slow(acc, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return acc

    # ---- raw int arithmetic ----

    def _check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise DomainError(f"value {a} outside field of order {self.order}")
        return a

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if a == 0 or b == 0:
            return 0
        group = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % group]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DomainError("zero has no multiplicative inverse")
        if self.order == 2:
            return 1
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def mul_packed(self, c: int, packed: int, symbols: int) -> int:
        """c times each of the `symbols` l-bit symbols packed in one int,
        symbol s at bits [s l, (s + 1) l).

        Horner over the bits of c, where each step multiplies every symbol
        by x at once (Blomer et al., "An XOR-based erasure-resilient coding
        scheme", 1995): shift the block up a bit and reduce the symbols
        whose top bit was set, so the block costs a few big-int operations
        per bit of c instead of one table lookup per symbol.
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
