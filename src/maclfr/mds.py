"""Systematic MDS erasure codes for split security keys.

A key is cut into k sub-keys and encoded into n coded blocks such that any
k of them recover the key.  The generator is systematic, [I_k | P], with
every square submatrix of P nonsingular, which is exactly the MDS
condition for the systematic form.  Three shapes admit a binary P and are
special cased so the coded blocks need no symbol padding at all:

* k == n: identity (nothing to protect against),
* n == k + 1: single parity block, the XOR of all sub-keys,
* k == 1: repetition.

Everything else uses a Cauchy parity block over the smallest canonical
field with order > n.  Construction verifies the MDS property exhaustively
for n <= 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import DomainError, IntegrityError, UsageError
from .gf import BinaryField, binary_field

VERIFY_LIMIT = 12


@dataclass(frozen=True)
class MdsCode:
    length: int      # n, coded blocks
    dimension: int   # k, sub-keys
    field: BinaryField
    generator: tuple[tuple[int, ...], ...]  # k rows by n columns

    @property
    def symbol_bits(self) -> int:
        return self.field.exponent

    def column(self, index: int) -> tuple[int, ...]:
        """Generator column for coded block `index` (1-based)."""
        if not 1 <= index <= self.length:
            raise UsageError(f"column {index} outside [1, {self.length}]")
        return tuple(row[index - 1] for row in self.generator)


def _solve(field: BinaryField, matrix: list[list[int]], rhs: list[list[int]]
           ) -> list[list[int]] | None:
    """Gaussian elimination; returns matrix^-1 @ rhs or None if singular."""
    k = len(matrix)
    aug = [matrix[i][:] + rhs[i][:] for i in range(k)]
    width = len(aug[0])
    for col in range(k):
        pivot = next((i for i in range(col, k) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, v) for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [aug[i][j] ^ field.mul(factor, aug[col][j])
                          for j in range(width)]
    return [row[k:] for row in aug]


def _verify_mds(code: MdsCode) -> None:
    for cols in combinations(range(1, code.length + 1), code.dimension):
        sub = [[code.generator[i][c - 1] for c in cols]
               for i in range(code.dimension)]
        if _solve(code.field, sub, [[1 if i == j else 0
                                     for j in range(code.dimension)]
                                    for i in range(code.dimension)]) is None:
            raise DomainError(f"generator is not MDS: columns {cols} singular")


def field_exponent(length: int, dimension: int) -> int:
    """The exponent of the field build_code(length, dimension) codes over:
    1 for the binary shapes, else the smallest l with 2^l > length."""
    return 1 if dimension in (1, length - 1, length) else length.bit_length()


def build_code(length: int, dimension: int) -> MdsCode:
    if not 1 <= dimension <= length:
        raise DomainError(
            f"need 1 <= dimension <= length, got ({length}, {dimension})")
    n, k = length, dimension
    field = binary_field(field_exponent(n, k))
    if k == n:
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(k)]
        code = MdsCode(n, k, field, tuple(tuple(r) for r in rows))
    elif n == k + 1:
        rows = [[1 if j == i else 0 for j in range(k)] + [1] for i in range(k)]
        code = MdsCode(n, k, field, tuple(tuple(r) for r in rows))
    elif k == 1:
        code = MdsCode(n, k, field, ((1,) * n,))
    else:
        # Cauchy block: rows indexed by 0..k-1, columns by k..n-1, entry
        # 1 / (x_i + y_j); distinct values keep every minor nonsingular.
        rows = []
        for i in range(k):
            parity = [field.inv(i ^ y) for y in range(k, n)]
            rows.append([1 if j == i else 0 for j in range(k)] + parity)
        code = MdsCode(n, k, field, tuple(tuple(r) for r in rows))
    if n <= VERIFY_LIMIT:
        _verify_mds(code)
    return code


def subkey_bit_length(key_bits: int, code: MdsCode) -> int:
    """Sub-key size before symbol alignment: ceil(key_bits / k)."""
    return -(-key_bits // code.dimension)


def coded_block_bit_length(key_bits: int, code: MdsCode) -> int:
    """Stored size of each coded block: the sub-key padded to whole symbols."""
    m = code.symbol_bits
    return -(-subkey_bit_length(key_bits, code) // m) * m


def encode_key(key: int, key_bits: int, code: MdsCode) -> tuple[int, ...]:
    """Cut the key of key_bits into k sub-keys and emit the n coded blocks.

    Sub-keys are zero padded to whole field symbols before the matrix
    product, so each coded block is coded_block_bit_length(...) bits; with
    the binary special cases that equals the raw sub-key size.  Each block
    is a sum of packed sub-keys scaled by generator entries.
    """
    if key < 0 or key >> key_bits:
        raise DomainError(f"key does not fit in {key_bits} bits")
    k = code.dimension
    sub_bits = subkey_bit_length(key_bits, code)
    symbols = -(-sub_bits // code.symbol_bits)
    mask = (1 << sub_bits) - 1
    subkeys = [(key >> (i * sub_bits)) & mask for i in range(k)]
    return tuple(_combine(code.field, code.column(j), subkeys, symbols)
                 for j in range(1, code.length + 1))


def _combine(field: BinaryField, coeffs: Sequence[int], packed: Sequence[int],
             symbols: int) -> int:
    """sum_i coeffs[i] * packed[i], symbol by symbol."""
    acc = 0
    for c, v in zip(coeffs, packed):
        if c:
            acc ^= field.mul_packed(c, v, symbols)
    return acc


def decoding_matrix(code: MdsCode, positions: Sequence[int]
                    ) -> tuple[tuple[int, ...], ...]:
    """The inverse of the generator columns at the received positions:
    row i gives sub-key i as a combination of the received blocks.
    Solved once per code and positions."""
    return _inverse(code, tuple(positions))


@lru_cache(maxsize=None)
def _inverse(code: MdsCode, positions: tuple[int, ...]
             ) -> tuple[tuple[int, ...], ...]:
    k = code.dimension
    matrix = [list(code.column(p)) for p in positions]  # rows = received blocks
    identity = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    solved = _solve(code.field, matrix, identity)
    if solved is None:
        raise IntegrityError(f"coded blocks at {list(positions)} do not "
                             "determine the key (singular system)")
    return tuple(tuple(row) for row in solved)


def decode_key(blocks: Sequence[tuple[int, int]], code: MdsCode,
               key_bits: int) -> int:
    """Recover the key from any k (column index, coded block) pairs, each
    block an int of coded_block_bit_length(key_bits, code) bits."""
    k = code.dimension
    if len(blocks) != k:
        raise DomainError(f"need exactly {k} blocks, got {len(blocks)}")
    positions = [p for p, _ in blocks]
    if len(set(positions)) != k:
        raise DomainError(f"duplicate block positions {positions}")
    sub_bits = subkey_bit_length(key_bits, code)
    expected = coded_block_bit_length(key_bits, code)
    for p, b in blocks:
        if not 1 <= p <= code.length:
            raise DomainError(f"position {p} outside [1, {code.length}]")
        if b < 0 or b >> expected:
            raise DomainError(f"block at {p} does not fit {expected} bits")
    received = [b for _, b in blocks]
    symbols = expected // code.symbol_bits
    mask = (1 << sub_bits) - 1
    key = 0
    for i, row in enumerate(decoding_matrix(code, positions)):
        subkey = _combine(code.field, row, received, symbols)
        key |= (subkey & mask) << (i * sub_bits)
    return key & ((1 << key_bits) - 1)
