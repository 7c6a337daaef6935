"""Fixed-length bit strings.

Everything the schemes move around (files, subfiles, keys, key shares,
transmission payloads) is a bit string of known length, so we wrap a plain
int in a small immutable value type instead of juggling (value, length)
pairs by hand.  Bit i of the string is bit i of the int, i.e. the first
bit is the least significant one.  Byte serialization follows the same
order: bit i lands in byte i // 8, position i % 8, and any padding bits
in the last byte are zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError, UsageError


@dataclass(frozen=True)
class BitBlock:
    """An immutable bit string of fixed length."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise DomainError(f"negative bit length {self.length}")
        if self.value < 0 or self.value >> self.length:
            raise DomainError(
                f"value does not fit in {self.length} bits: {self.value:#x}"
            )

    # ---- constructors ----

    @classmethod
    def zeros(cls, length: int) -> "BitBlock":
        return cls(0, length)

    @classmethod
    def random(cls, rng: random.Random, length: int) -> "BitBlock":
        return cls(rng.getrandbits(length) if length else 0, length)

    # ---- accessors ----

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.length + 7) // 8, "little")

    # ---- combinators ----

    def __xor__(self, other: "BitBlock") -> "BitBlock":
        if not isinstance(other, BitBlock):
            return NotImplemented
        if other.length != self.length:
            raise UsageError(
                f"xor of mismatched lengths {self.length} and {other.length}"
            )
        return BitBlock(self.value ^ other.value, self.length)

    def __repr__(self) -> str:  # keep failure output short
        return f"BitBlock({self.length}b:{self.value:x})"

