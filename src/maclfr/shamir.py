"""Threshold secret sharing for superposed keys.

An r-of-r Shamir split over GF(2^l): the secret bit string is chopped into
l-bit symbols (zero padded at the tail) and each symbol becomes the
constant term of an independent uniform polynomial of degree r - 1.  Share
j is the evaluation at the j-th canonical point, which is simply the field
element of value j; minimality of l (r < 2^l) guarantees the points
1..r are distinct and nonzero.  All r shares reconstruct the secret by
interpolating each symbol's constant term, while any r - 1 of them are
statistically independent of it.  r = 1 degenerates to storing the secret
verbatim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import DomainError, ResourceLimitError, UsageError
from .gf import BinaryField

DEFAULT_LEAKAGE_CAP = 1 << 24


def canonical_evaluation_points(field: BinaryField, share_count: int
                                ) -> tuple[int, ...]:
    """The first share_count nonzero elements in value order: 1, 2, ..."""
    if share_count < 1:
        raise DomainError(f"share count must be positive, got {share_count}")
    if share_count >= field.order:
        raise DomainError(
            f"{share_count} shares need a field of order > {share_count}, "
            f"got {field.order}")
    return tuple(range(1, share_count + 1))


@dataclass(frozen=True)
class ShareSet:
    """The shares of one secret at the canonical points, share j an int of
    packed l-bit symbols (symbol s at bits [s l, (s + 1) l)): the secret
    padded to whole symbols."""

    field: BinaryField
    secret_bits: int
    shares: tuple[int, ...]  # shares[j-1] = share j

    def __post_init__(self) -> None:
        canonical_evaluation_points(self.field, self.share_count)
        bits = self.share_bits
        if any(s < 0 or s >> bits for s in self.shares):
            l = self.field.exponent
            raise DomainError(f"shares must fit in {bits // l} symbols")

    @property
    def share_count(self) -> int:
        return len(self.shares)

    @property
    def share_bits(self) -> int:
        l = self.field.exponent
        return -(-self.secret_bits // l) * l


def split(secret: int, bits: int, share_count: int, field: BinaryField,
          coefficients: Sequence[int] = ()) -> ShareSet:
    """Split the secret of bits into share_count shares.

    The coefficients of the hiding polynomials come as planes, one per
    blind b = 0 .. share_count - 2, each holding coefficient b of symbol s
    at bits [s l, (s + 1) l); share_count == 1 takes none, the polynomial
    being the constant itself.  Horner's rule then evaluates every
    symbol's polynomial at once, scaling the packed block by the point.
    """
    if secret < 0 or secret >> bits:
        raise DomainError(f"secret does not fit in {bits} bits")
    points = canonical_evaluation_points(field, share_count)
    l = field.exponent
    symbols = -(-bits // l)
    planes = list(coefficients)
    if len(planes) != share_count - 1:
        raise UsageError(
            f"expected {share_count - 1} coefficient planes, got {len(planes)}")
    for plane in planes:
        if plane < 0 or plane >> (symbols * l):
            raise DomainError(f"coefficient plane {plane:#x} does not fit "
                              f"{symbols} symbols of GF({field.order})")
    shares = []
    for x in points:
        acc = 0
        for plane in reversed(planes):
            acc = field.mul_packed(x, acc ^ plane, symbols)
        shares.append(acc ^ secret)
    return ShareSet(field, bits, tuple(shares))


def reconstruct(shares: ShareSet) -> int:
    """Interpolate every symbol's constant term and drop the tail padding.

    The Lagrange weights at zero of the canonical points are derived once
    per call: a row of many secrets, side by side, is one call.
    """
    field = shares.field
    weights = field.lagrange_weights_at_zero(
        canonical_evaluation_points(field, shares.share_count))
    symbols = shares.share_bits // field.exponent
    acc = 0
    for y, weight in zip(shares.shares, weights):
        acc ^= field.mul_packed(weight, y, symbols)
    return acc & ((1 << shares.secret_bits) - 1)


def leakage_check(num_symbols: int, share_count: int, field: BinaryField,
                  observed_positions: Sequence[int],
                  cap: int = DEFAULT_LEAKAGE_CAP
                  ) -> dict[tuple[int, ...], Counter]:
    """Conditional distribution of an observed share subset given the secret.

    Enumerates every secret and every coefficient assignment, and returns,
    for each secret (as a symbol tuple), the counts of observed share
    tuples.  Secrecy holds iff the counters are identical across secrets.
    Exhaustive by design, so the state space is capped.
    """
    positions = tuple(observed_positions)
    if len(set(positions)) != len(positions):
        raise UsageError("observed positions must be distinct")
    if any(not 1 <= p <= share_count for p in positions):
        raise UsageError(f"positions {positions} outside [1, {share_count}]")
    if len(positions) > share_count - 1:
        raise UsageError("observe at most share_count - 1 positions")
    points = canonical_evaluation_points(field, share_count)
    blinds = share_count - 1
    secret_space = field.order ** num_symbols
    coeff_space = field.order ** (num_symbols * blinds)
    if secret_space * coeff_space > cap:
        raise ResourceLimitError(
            f"leakage enumeration of {secret_space * coeff_space} states "
            f"exceeds cap {cap}")
    out: dict[tuple[int, ...], Counter] = {}
    for secret in product(range(field.order), repeat=num_symbols):
        counter: Counter = Counter()
        for coeffs in product(range(field.order), repeat=num_symbols * blinds):
            rows = [coeffs[k * blinds:(k + 1) * blinds]
                    for k in range(num_symbols)]
            observed = tuple(
                tuple(field.poly_eval((sym,) + tuple(row), points[p - 1])
                      for sym, row in zip(secret, rows))
                for p in positions)
            counter[observed] += 1
        out[secret] = counter
    return out
