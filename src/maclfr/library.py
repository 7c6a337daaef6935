"""Server library, subpacketization, and demand vectors.

The server holds N files of F bits each.  For a topology with subfile
indices T (the t-subsets of caches), every file is split into
binom(C, t) subfiles of ceil(F / binom(C, t)) bits; the file is zero
padded up to the subfile grid, and reassembly truncates the padding away.

A demand is a GF(2) coefficient vector over the files: the user wants the
bitwise XOR of the files with coefficient 1.  Because subpacketization is
a fixed bit-slicing, demanding a combination of files and combining the
matching subfiles commute; the schemes and the verification oracles both
lean on that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .bits import BitBlock
from .errors import DomainError, UsageError
from .topology import CacheSet, TopologySpec


@dataclass(frozen=True)
class FileLibrary:
    files: tuple[BitBlock, ...]

    def __post_init__(self) -> None:
        if not self.files:
            raise DomainError("library must contain at least one file")
        bits = self.files[0].length
        if bits < 1:
            raise DomainError("files must be at least one bit long")
        if any(f.length != bits for f in self.files):
            raise DomainError("all files must have the same length")

    @property
    def num_files(self) -> int:
        return len(self.files)

    @property
    def file_bits(self) -> int:
        return self.files[0].length

    def file(self, index: int) -> BitBlock:
        """1-based lookup, matching the 1-based file subscripts used throughout."""
        if not 1 <= index <= self.num_files:
            raise UsageError(f"file index {index} outside [1, {self.num_files}]")
        return self.files[index - 1]

    @classmethod
    def random(cls, rng: random.Random, num_files: int, file_bits: int
               ) -> "FileLibrary":
        return cls(tuple(BitBlock.random(rng, file_bits) for _ in range(num_files)))


@dataclass(frozen=True)
class DemandVector:
    """GF(2) file coefficients requested by one user.

    coeffs packs the N coefficients as an int, bit i-1 holding the
    coefficient of file i.
    """

    user: CacheSet
    coeffs: int
    num_files: int

    def __post_init__(self) -> None:
        if self.coeffs < 0 or self.coeffs >> self.num_files:
            raise DomainError(
                f"coefficients {self.coeffs:#x} do not fit {self.num_files} files")

    def coefficient(self, file_index: int) -> int:
        if not 1 <= file_index <= self.num_files:
            raise UsageError(f"file index {file_index} out of range")
        return (self.coeffs >> (file_index - 1)) & 1

    def supported_files(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.num_files) if self.coeffs >> i & 1)

    @classmethod
    def one_hot(cls, user: CacheSet, file_index: int, num_files: int
                ) -> "DemandVector":
        if not 1 <= file_index <= num_files:
            raise UsageError(f"file index {file_index} out of range")
        return cls(user, 1 << (file_index - 1), num_files)

    @classmethod
    def from_string(cls, user: CacheSet, text: str, num_files: int
                    ) -> "DemandVector":
        """Parse "0110..." with the file-1 coefficient first."""
        if len(text) != num_files or set(text) - {"0", "1"}:
            raise UsageError(
                f"demand line must be {num_files} chars over 0/1, got {text!r}")
        coeffs = 0
        for i, ch in enumerate(text):
            coeffs |= (ch == "1") << i
        return cls(user, coeffs, num_files)


@dataclass(frozen=True)
class SubfileTable:
    """All subfiles of all files for one topology, one image per file: the
    subfile of rank k (lex order of T) sits at bit k * subfile_bits, so a
    file's image is its value with the padding bits above it."""

    topo: TopologySpec
    file_bits: int
    subfile_bits: int
    images: tuple[int, ...]  # images[file-1]

    def __post_init__(self) -> None:
        width = self.topo.num_subfile_indices * self.subfile_bits
        if any(image < 0 or image >> width for image in self.images):
            raise UsageError(f"subfile table holds an image wider than "
                             f"{width} bits")

    def _image(self, file_index: int) -> int:
        """1-based lookup, as FileLibrary.file."""
        if not 1 <= file_index <= len(self.images):
            raise UsageError(
                f"file index {file_index} outside [1, {len(self.images)}]")
        return self.images[file_index - 1]

    def subfile(self, file_index: int, index_set: CacheSet) -> BitBlock:
        """The file's subfile T, at T's place in the lex subfile indices."""
        image, sb = self._image(file_index), self.subfile_bits
        try:
            k = self.topo.subfile_indices().index(index_set)
        except ValueError:
            raise UsageError(f"{index_set} is not a subfile index of "
                             f"{self.topo}") from None
        return BitBlock((image >> (k * sb)) & ((1 << sb) - 1), sb)

    def reassemble(self, file_index: int) -> BitBlock:
        """The file's image with the zero padding dropped."""
        bits = self.file_bits
        return BitBlock(self._image(file_index) & ((1 << bits) - 1), bits)


def subfile_bit_length(file_bits: int, topo: TopologySpec) -> int:
    return -(-file_bits // topo.num_subfile_indices)


def subpacketize(library: FileLibrary, topo: TopologySpec) -> SubfileTable:
    return SubfileTable(topo, library.file_bits,
                        subfile_bit_length(library.file_bits, topo),
                        tuple([f.value for f in library.files]))


def linear_combination(demand: DemandVector, library: FileLibrary) -> BitBlock:
    """The XOR of the demanded files; the ground truth every decode must hit."""
    if demand.num_files != library.num_files:
        raise UsageError(
            f"demand covers {demand.num_files} files, library has "
            f"{library.num_files}")
    acc = BitBlock.zeros(library.file_bits)
    for i in demand.supported_files():
        acc ^= library.files[i - 1]
    return acc


# ---- demand batteries ----

def parse_demand_file(text: str, topo: TopologySpec, num_files: int
                      ) -> tuple[DemandVector, ...]:
    """One line per user, lex user order, each line N chars over {0,1}."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    users = topo.users()
    if len(lines) != len(users):
        raise UsageError(
            f"expected {len(users)} demand lines (one per user), got {len(lines)}")
    return tuple(DemandVector.from_string(u, ln, num_files)
                 for u, ln in zip(users, lines))


def random_demands(topo: TopologySpec, num_files: int, rng: random.Random
                   ) -> tuple[DemandVector, ...]:
    return tuple(DemandVector(u, rng.getrandbits(num_files), num_files)
                 for u in topo.users())


def cycling_one_hot_demands(topo: TopologySpec, num_files: int
                            ) -> tuple[DemandVector, ...]:
    """User k demands file (k mod N) + 1; a fixed battery with every user active."""
    return tuple(DemandVector.one_hot(u, (k % num_files) + 1, num_files)
                 for k, u in enumerate(topo.users()))


def demands_by_user(demands: Sequence[DemandVector]) -> dict[CacheSet, DemandVector]:
    out: dict[CacheSet, DemandVector] = {}
    for d in demands:
        if d.user in out:
            raise UsageError(f"duplicate demand for user {d.user}")
        out[d.user] = d
    return out
