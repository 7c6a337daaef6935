"""Placement, delivery, and decoding for the five retrieval schemes.

All five kinds run one engine.  Subfiles indexed by t-subsets are
replicated into the caches they name, and one payload is broadcast per
(t + r)-subset S, built so that the user on every r-subset g of S
extracts its missing piece indexed by S minus g.  The kinds differ in two
facts only, both read off SchemeKind: whether demands travel masked, and
where the one-time key that protects each payload is stored.

* lfr     -- no key, cleartext demands; payloads are plain XORs of the
             demanded combinations.  The keyless baseline.
* s-lfr   -- every cache named in S stores the payload key whole: content
             security against eavesdroppers, but demands travel in clear.
* is-lfr  -- the key is cut into r sub-keys and MDS coded into t + r
             blocks, one per cache in S; any user inside S still collects
             r blocks and recovers the key, while the key share of memory
             shrinks by a factor of r.
* sp-lfr  -- content security plus demand privacy.  Users send demands
             masked by one-time pads; the induced per-user keys are
             superposed with the payload keys and stored as threshold
             shares across the user's caches.
* p-lfr   -- sp-lfr with the payload keys pinned to zero: privacy without
             content security, at the same memory.  Also admits the
             degenerate broadcast mode that ships the whole library and
             needs no cache at all: the engine's one special case.

Randomness is drawn from seeded streams in the one canonical order of
randomness_order(), so a (config, seed) pair determines every artifact.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Mapping, Sequence

from .bits import BitBlock
from .errors import DomainError, IntegrityError, UsageError
from .gf import BinaryField, binary_field, exponent_for_share_count
from .library import (DemandVector, FileLibrary, SubfileTable, demands_by_user,
                      linear_combination, random_demands, subfile_bit_length,
                      subpacketize)
from .mds import (MdsCode, build_code, coded_block_bit_length, decode_key,
                  decoding_matrix, encode_key, subkey_bit_length)
from .shamir import ShareSet, canonical_evaluation_points, reconstruct, split
from .topology import CacheSet, TopologySpec, share_index_of_cache

# The interpreter's built-in SHA-256, as random takes its SHA-512: hashlib
# would map OpenSSL's libcrypto, megabytes of memory, to hash a seed.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

MAX_SEED = (1 << 64) - 1


class SchemeKind(str, Enum):
    SP_LFR = "sp-lfr"
    P_LFR = "p-lfr"
    S_LFR = "s-lfr"
    IS_LFR = "is-lfr"
    LFR = "lfr"

    @property
    def masks_demands(self) -> bool:
        """Demands leave the user only as one-time-padded vectors; the
        payload keys then travel as threshold shares of superposed keys."""
        return self in (SchemeKind.SP_LFR, SchemeKind.P_LFR)

    @property
    def has_payload_keys(self) -> bool:
        """Payload keys carry entropy (p-lfr draws them but pins them to zero)."""
        return self in (SchemeKind.SP_LFR, SchemeKind.S_LFR, SchemeKind.IS_LFR)

    @property
    def stores_keys_whole(self) -> bool:
        return self is SchemeKind.S_LFR

    @property
    def stores_keys_coded(self) -> bool:
        return self is SchemeKind.IS_LFR


@dataclass(frozen=True)
class SchemeConfig:
    topo: TopologySpec
    num_files: int
    file_bits: int
    kind: SchemeKind
    seed: int = 0
    broadcast: bool = False

    def __post_init__(self) -> None:
        if self.num_files < 1:
            raise DomainError(f"need at least one file, got {self.num_files}")
        if self.file_bits < 1:
            raise DomainError(f"files must have at least one bit")
        if not 0 <= self.seed <= MAX_SEED:
            raise UsageError(f"seed must fit in 64 bits, got {self.seed}")
        if self.broadcast and self.kind is not SchemeKind.P_LFR:
            raise UsageError("broadcast mode exists only for p-lfr")

    @cached_property
    def subfile_bits(self) -> int:
        return subfile_bit_length(self.file_bits, self.topo)

    @cached_property
    def key_field(self) -> BinaryField:
        """Field for threshold shares: smallest with more elements than shares."""
        return binary_field(exponent_for_share_count(self.topo.access_degree))

    @cached_property
    def key_code(self) -> MdsCode:
        """The (t + r, r) erasure code used by is-lfr key placement, built
        and checked once per config."""
        return build_code(self.topo.replication + self.topo.access_degree,
                          self.topo.access_degree)

    @cached_property
    def share_block_bits(self) -> int:
        """A threshold share of one subfile-sized key, symbol aligned."""
        l = self.key_field.exponent
        return -(-self.subfile_bits // l) * l


def derive_rng(seed: int, purpose: str) -> random.Random:
    """Independent deterministic stream per purpose; stable across runs."""
    digest = sha256(f"maclfr:{purpose}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "little"))


# ---- per-topology index lists ----

@functools.lru_cache(maxsize=None)
def _indices(topo: TopologySpec) -> tuple[Mapping, ...]:
    """The index lists every round walks, built once per topology.

    rank maps each subfile index T to its position in lex order.  rows
    maps each user g to the subfile indices it does not reach, in lex
    order: its slots, whose keys and shares sit side by side in a row.
    slots maps (g, T), lex in (g, T), to the rank of T and the transmission
    S = g + T that carries g's piece T.  members maps each transmission S,
    in lex order, to the triples (g, S minus g, its rank) of the users g
    inside S; senders, the same as (rank of g, rank of S minus g).  stored
    lists per cache the (rank, T) naming it, lex in T: its subfiles' order,
    each T's files in turn.
    """
    rank = {T: k for k, T in enumerate(topo.subfile_indices())}
    rows = {g: tuple(T for T in rank if not set(g) & set(T))
            for g in topo.users()}
    slots = {(g, T): (rank[T], tuple(sorted(g + T)))
             for g, row in rows.items() for T in row}
    members, senders, users = {}, [], list(rows)
    for S in topo.transmission_indices():
        rests = [(g, tuple(c for c in S if c not in g))
                 for g in combinations(S, topo.access_degree)]
        members[S] = tuple((g, rest, rank[rest]) for g, rest in rests)
        senders.append(tuple((users.index(g), rank[rest]) for g, rest in rests))
    stored = tuple(tuple((k, T) for T, k in rank.items() if c in T)
                   for c in range(1, topo.num_caches + 1))
    return (MappingProxyType(rank), MappingProxyType(slots),
            MappingProxyType(members), MappingProxyType(rows), stored, tuple(senders))


def _combination(images: Sequence[int], coeffs: int) -> int:
    """XOR of the images of the files whose coefficient is 1."""
    acc = 0
    for i, image in enumerate(images):
        if (coeffs >> i) & 1:
            acc ^= image
    return acc


def _sized(block: BitBlock, bits: int, what: str, label) -> int:
    """The block's value, once its length is checked."""
    if block.length != bits:
        raise UsageError(
            f"{what} {label} has {block.length} bits, expected {bits}")
    return block.value


# ---- server randomness ----

def _join(values: Sequence[int], width: int) -> int:
    """The values side by side, value i at bit i * width.  Neighbours are
    joined pairwise, so no step copies a growing int once per value."""
    while len(values) > 1:
        joined = [lo | hi << width for lo, hi in zip(values[::2], values[1::2])]
        if len(values) & 1:
            joined.append(values[-1])
        values, width = joined, 2 * width
    return values[0] if values else 0


def _cut(value: int, count: int, width: int) -> list[int]:
    """The inverse of _join: count values of width bits, value i at bit
    i * width.  Blocks of 32 values are cut out first, so that each value
    is shifted out of a short int."""
    mask, step = (1 << width) - 1, 32 * width
    values: list[int] = []
    for at in range(0, count * width, step):
        block = value >> at & ((1 << step) - 1)
        values += [block >> (i * width) & mask
                   for i in range(min(32, count - at // width))]
    return values


def randomness_order(cfg: SchemeConfig) -> list[tuple[str, int, int]]:
    """Every value the server draws before a round, as runs (tag, count,
    bits) in the canonical order; draw() takes count getrandbits(bits) per
    run, run by run.

    The "key" run holds one payload key per transmission index, in lex
    order, for every kind but lfr; p-lfr draws them and then pins them to
    zero, which keeps the rest of its stream aligned with sp-lfr.  When
    demands are masked, the "mask" run holds one mask vector per user, in
    lex order, and the "coef" run the share coefficients: the symbols of
    every slot, lex in (user, index), in turn, and the r - 1 blinds of each
    symbol in turn, so value k (r - 1) + b is blind b of symbol k.
    """
    topo = cfg.topo
    runs = []
    if cfg.kind is not SchemeKind.LFR:
        runs.append(("key", topo.num_transmissions, cfg.subfile_bits))
    if cfg.kind.masks_demands:
        runs.append(("mask", topo.num_users, cfg.num_files))
        l = cfg.key_field.exponent
        symbols = len(_indices(topo)[1]) * (cfg.share_block_bits // l)
        runs.append(("coef", symbols * (topo.access_degree - 1), l))
    return runs


def _planes(cfg: SchemeConfig, coefs: Sequence[int]) -> tuple[int, ...]:
    """The coef run's values as the r - 1 planes split() takes: plane b
    holds blind b of symbol k at bit k l.  Without masked demands, none."""
    blinds = cfg.topo.access_degree - 1 if cfg.kind.masks_demands else 0
    l = cfg.key_field.exponent
    return tuple(_join(coefs[b::blinds], l) for b in range(blinds))


@dataclass(frozen=True)
class ServerRandomness:
    """Everything the server draws before a round, as packed rows.

    payload_keys holds the key of transmission rank s, lex in S, at bit
    s subfile_bits; it is zero under p-lfr, whose keys are pinned, and
    under lfr.  mask_vectors holds the mask of user rank u at bit u N, and
    is zero unless demands are masked.  share_coefficients are the
    round's r - 1 planes, one per blind, as the one split() of placement
    takes them: plane b holds blind b of the coef run's symbol k at bit
    k l, so each slot's symbols sit in a block of share_block_bits, lex
    in (g, T).  r = 1 has no planes.
    """

    payload_keys: int
    mask_vectors: int
    share_coefficients: tuple[int, ...]

    @classmethod
    def draw(cls, cfg: SchemeConfig, rng: random.Random) -> "ServerRandomness":
        """Draw every run of randomness_order(cfg), in that order, and join
        each run into its row; p-lfr's drawn keys are dropped."""
        runs = {tag: [rng.getrandbits(bits) for _ in range(count)]
                for tag, count, bits in randomness_order(cfg)}
        keys = runs["key"] if cfg.kind.has_payload_keys else ()
        return cls(_join(keys, cfg.subfile_bits),
                   _join(runs.get("mask", ()), cfg.num_files),
                   _planes(cfg, runs.get("coef", ())))


@dataclass(frozen=True)
class RandomnessLayout:
    """Bit layout of the entropy behind ServerRandomness.

    The verification oracles enumerate server randomness exhaustively; this
    maps an integer to the ServerRandomness it encodes.  Runs are the
    randomness_order() runs that carry entropy and reach the view, low
    bits first, value i of a run at bit i * bits in it: the key and mask
    runs are their rows.  The transmission reads the key and mask runs
    only; an observer also sees its caches' shares, which read all three.
    p-lfr's pinned payload keys are left out, and so is every run of
    broadcast mode, which sends no masked demand and stores no key, even
    though draw() consumes stream bits for them.  A run left out unpacks
    as zero.
    """

    cfg: SchemeConfig
    runs: tuple[tuple[str, int, int], ...]
    total_bits: int

    @classmethod
    def for_config(cls, cfg: SchemeConfig, observers: bool = True
                   ) -> "RandomnessLayout":
        """The runs that reach an observer's view, or with observers=False
        those that reach the transmission: the coef run is left out."""
        runs = () if cfg.broadcast else tuple(
            run for run in randomness_order(cfg)
            if (run[0] != "key" or cfg.kind.has_payload_keys)
            and (run[0] != "coef" or observers))
        return cls(cfg, runs, sum(count * bits for _, count, bits in runs))

    @cached_property
    def _plan(self) -> tuple:
        """The shift and mask of the key, mask and coef rows in a value,
        (0, 0) for a run left out, and the function that deals the coef
        row into planes: the row itself at r = 2, cut and dealt at r > 2,
        zero planes without a coef run."""
        at, rows = 0, {}
        for tag, count, bits in self.runs:
            rows[tag] = (at, (1 << count * bits) - 1)
            at += count * bits
        cfg = self.cfg
        blinds = cfg.topo.access_degree - 1 if cfg.kind.masks_demands else 0
        coefs = next((run[1:] for run in self.runs if run[0] == "coef"), (0, 0))
        zeros = (0,) * blinds
        if not coefs[0]:
            deal = lambda row: zeros
        elif blinds == 1:
            deal = lambda row: (row,)
        else:
            deal = lambda row: _planes(cfg, _cut(row, *coefs))
        return (*(rows.get(tag, (0, 0)) for tag in ("key", "mask", "coef")),
                deal)

    def unpack(self, value: int) -> ServerRandomness:
        """Slice out each run's row by _plan; only the coef run is cut into
        values, to be dealt into its planes, and only when r > 2."""
        if value < 0 or value >> self.total_bits:
            raise DomainError(f"value does not fit in {self.total_bits} bits")
        (k, keys), (m, masks), (c, coefs), deal = self._plan
        return ServerRandomness(value >> k & keys, value >> m & masks,
                                deal(value >> c & coefs))


# ---- placement / delivery artifacts ----

@dataclass(frozen=True)
class CacheContent:
    """Everything one cache stores: subfiles plus scheme-specific key material."""

    index: int
    subfiles: Mapping[tuple[int, CacheSet], BitBlock]
    key_shares: Mapping[tuple[CacheSet, CacheSet], BitBlock]
    whole_keys: Mapping[CacheSet, BitBlock]
    coded_subkeys: Mapping[CacheSet, BitBlock]

    @property
    def stored_bits(self) -> int:
        return (sum(b.length for b in self.subfiles.values())
                + sum(b.length for b in self.key_shares.values())
                + sum(b.length for b in self.whole_keys.values())
                + sum(b.length for b in self.coded_subkeys.values()))


@dataclass(frozen=True)
class PlacementResult:
    caches: tuple[CacheContent, ...]
    randomness: ServerRandomness  # never leaves the server in clear
    memory: Fraction  # per-cache size in files; identical across caches
    table: SubfileTable  # the placed library's subfiles, for delivery


@dataclass(frozen=True)
class DeliveryTranscript:
    """Everything that crosses the broadcast link in one round."""

    cfg: SchemeConfig
    payloads: Mapping[CacheSet, BitBlock]
    masked_demands: Mapping[CacheSet, int]
    cleartext_demands: Mapping[CacheSet, int]
    broadcast_files: tuple[BitBlock, ...] | None

    @property
    def rate(self) -> Fraction:
        """Broadcast load in files: the whole library in broadcast mode,
        otherwise one subfile-sized payload per (t + r)-subset."""
        cfg = self.cfg
        if cfg.broadcast:
            return Fraction(cfg.num_files)
        return Fraction(cfg.topo.num_transmissions,
                        cfg.topo.num_subfile_indices)

    @property
    def payload_bits(self) -> int:
        total = sum(b.length for b in self.payloads.values())
        if self.broadcast_files:
            total += sum(b.length for b in self.broadcast_files)
        return total


@dataclass(frozen=True)
class SimulationResult:
    cfg: SchemeConfig
    library: FileLibrary
    demands: tuple[DemandVector, ...]
    placement: PlacementResult
    transcript: DeliveryTranscript
    decoded: Mapping[CacheSet, BitBlock]
    expected: Mapping[CacheSet, BitBlock]

    @property
    def ok(self) -> bool:
        return all(self.decoded[g] == self.expected[g] for g in self.decoded)


# ---- the engine ----

class Scheme:
    """Placement, delivery and decoding for every kind of a config.

    The arithmetic runs on plain ints: a file's subfiles sit side by side
    in one int, the subfile of rank k at bit k * subfile_bits, so one XOR
    combines a subfile index's worth of every file at once.  Key shares go
    by row, not by slot: superposed keys sit side by side at stride
    share_block_bits, as the drawn coefficient planes lay them out, so one
    split places every slot of the round, and one reconstruct recovers
    every masked key of a user from its caches' share rows; likewise one
    decode_key recovers the is-lfr keys of every slot whose user's caches
    sit at the same positions in S.  Decode is one row function for the
    round, decode_rows, which builds each cache's file images and
    combinations once per call and keeps none of them.  BitBlocks appear
    only where blocks enter and leave.
    """

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        self.topo = cfg.topo
        self.kind = cfg.kind
        (self._rank, self._slots, self._members, self._rows,
         stored, self._senders) = _indices(cfg.topo)
        # Each cache's subfiles, by (rank, T): none in broadcast mode.
        self._stored = tuple(() for _ in stored) if cfg.broadcast else stored
        self._sent_rank = {S: s for s, S in enumerate(self._members)}
        self._user_rank = {g: u for u, g in enumerate(self._rows)}
        # The key and mask rows' widths: zero for the kinds without them.
        self._widths = (
            cfg.topo.num_transmissions * cfg.subfile_bits
            if cfg.kind.has_payload_keys else 0,
            cfg.topo.num_users * cfg.num_files if cfg.kind.masks_demands else 0)
        # The CacheContent field of the kind's key material; its entries' bits.
        self._key_store, self._key_bits = (
            ("key_shares", cfg.share_block_bits) if cfg.kind.masks_demands
            else ("coded_subkeys", coded_block_bit_length(
                cfg.subfile_bits, cfg.key_code)) if cfg.kind.stores_keys_coded
            else ("whole_keys", cfg.subfile_bits))
        self._inverses: dict[tuple[int, ...], tuple] = {}

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        """Lagrange weights at zero of the canonical share points: every
        user's r shares sit at the same points."""
        field = self.cfg.key_field
        return field.lagrange_weights_at_zero(
            canonical_evaluation_points(field, self.topo.access_degree))

    @cached_property
    def _key_places(self) -> tuple[dict, ...]:
        """Per cache, the labels of its key material by place in its key
        row, as key_rows lays it out: the slot (g, T) of each user g of
        the cache, lex in (g, T), under sp-lfr and p-lfr; each S naming the
        cache, lex, under s-lfr and is-lfr; none for lfr or broadcast mode."""
        kind, places = self.kind, [{} for _ in range(self.topo.num_caches)]
        labels = ([(slot, slot[0]) for slot in self._slots]
                  if kind.masks_demands and not self.cfg.broadcast else
                  [(S, S) for S in self._members]
                  if kind.stores_keys_whole or kind.stores_keys_coded else [])
        for label, named in labels:
            for c in named:
                places[c - 1][label] = len(places[c - 1])
        return tuple(places)

    # -- placement --

    def place(self, library: FileLibrary,
              randomness: ServerRandomness | None = None) -> PlacementResult:
        cfg = self.cfg
        if (library.num_files, library.file_bits) != (cfg.num_files, cfg.file_bits):
            raise UsageError(
                f"library shape ({library.num_files}, {library.file_bits}) does "
                f"not match config ({cfg.num_files}, {cfg.file_bits})")
        if randomness is None:
            randomness = ServerRandomness.draw(cfg, derive_rng(cfg.seed, "placement"))
        table = subpacketize(library, self.topo)
        sb = table.subfile_bits
        piece = (1 << sb) - 1
        # One block per (file, T), shared by the caches that hold it.
        blocks = [] if cfg.broadcast else [
            [BitBlock((image >> (k * sb)) & piece, sb) for image in table.images]
            for k in range(len(self._rank))]
        subfiles = [{(i, T): block for k, T in held
                     for i, block in enumerate(blocks[k], 1)}
                    for held in self._stored]
        caches = self._place_keys(randomness, subfiles, table)
        sizes = {c.stored_bits for c in caches}
        if len(sizes) != 1:
            raise IntegrityError(
                f"placement is not symmetric across caches: sizes {sorted(sizes)}")
        memory = Fraction(sizes.pop(), cfg.file_bits)
        if self.kind.has_payload_keys and cfg.num_files >= self.topo.num_users:
            # The converse for secure delivery assumes every user can demand
            # a distinct file, so it binds only for N >= K; below that the
            # key material may legitimately dip under it.
            bound = Fraction(comb(self.topo.num_caches, self.topo.access_degree),
                             self.topo.num_caches)
            if memory < bound:
                raise IntegrityError(f"secure placement of {memory} files is "
                                     f"under the memory bound {bound}")
        return PlacementResult(tuple(caches), randomness, memory, table)

    def _place_keys(self, randomness: ServerRandomness,
                    subfiles: list[dict[tuple[int, CacheSet], BitBlock]],
                    table: SubfileTable) -> list[CacheContent]:
        """Store each cache's key material, cut from its key row: threshold
        shares of the superposed keys, whole payload keys, MDS-coded ones,
        or nothing."""
        contents, bits = [], self._key_bits
        rows = self.key_rows(randomness, table)
        for c, (places, (row, _)) in enumerate(zip(self._key_places, rows)):
            stores: dict = {"key_shares": {}, "whole_keys": {},
                            "coded_subkeys": {}}
            stores[self._key_store] = {label: BitBlock(v, bits) for label, v
                                       in zip(places, _cut(row, len(places), bits))}
            contents.append(CacheContent(c + 1, subfiles[c], **stores))
        return contents

    def _check_rows(self, randomness: ServerRandomness) -> None:
        """Reject a key or mask row wider than the run it packs."""
        keys, masks = self._widths
        if randomness.payload_keys >> keys or randomness.mask_vectors >> masks:
            raise UsageError("a payload key or mask row is wider than its run")

    def subfile_rows(self, table: SubfileTable) -> list[tuple[int, int]]:
        """Each cache's subfiles as one row (value, width), in the order
        the cache stores them: lex in T, each T's files in turn."""
        sb = table.subfile_bits
        piece = (1 << sb) - 1
        rows = [[(image >> (k * sb)) & piece for k, _ in held
                 for image in table.images] for held in self._stored]
        return [(_join(row, sb), len(row) * sb) for row in rows]

    def key_rows(self, randomness: ServerRandomness, table: SubfileTable
                 ) -> list[tuple[int, int]]:
        """Each cache's key material as one row (value, width), in the
        order the cache stores it.

        Under sp-lfr and p-lfr, a cache's row is, for each user holding it
        in lex order, the user's cut of the round's one split share row,
        whose secrets are the superposed keys D[g, T], lex in (g, T): the
        key of S = g + T plus g's mask combination of subfile T.  Under
        s-lfr it is the whole payload key of each S naming the cache, lex
        in S, and under is-lfr the cache's MDS-coded block of each such S.
        lfr and broadcast mode store no key: every row is empty.
        """
        self._check_rows(randomness)
        cfg = self.cfg
        keys = randomness.payload_keys
        sb, n = cfg.subfile_bits, cfg.num_files
        piece = (1 << sb) - 1
        pieces: list[list[int]] = [[] for _ in range(self.topo.num_caches)]
        bits = self._key_bits
        if self.kind.masks_demands and not cfg.broadcast:
            wb = cfg.share_block_bits
            # _combination reads the low N bits of the shifted row: g's mask.
            masked = {g: _combination(table.images,
                                      randomness.mask_vectors >> (u * n))
                      for u, g in enumerate(self._rows)}
            # The g-mask combination of subfile index T, on the key of S.
            superposed = [(keys >> (self._sent_rank[S] * sb)
                           ^ masked[g] >> (k * sb)) & piece
                          for (g, _), (k, S) in self._slots.items()]
            # One split for the round: the slot keys side by side, lex in
            # (g, T) at stride wb as the coefficient planes are, so that
            # each user's row is contiguous.
            shares = split(BitBlock(_join(superposed, wb), len(superposed) * wb),
                           self.topo.access_degree, cfg.key_field,
                           coefficients=randomness.share_coefficients).shares
            # Each user's row has C(C - r, t) slots; user rank u's is cut u.
            bits = len(superposed) // len(self._rows) * wb
            for u, g in enumerate(self._rows):
                for c, share in zip(g, shares):  # share j to g's j-th cache
                    pieces[c - 1].append(share >> (u * bits) & (1 << bits) - 1)
        elif self.kind.stores_keys_whole or self.kind.stores_keys_coded:
            for s, S in enumerate(self._members):
                key = BitBlock((keys >> (s * sb)) & piece, sb)
                blocks = (encode_key(key, cfg.key_code)
                          if self.kind.stores_keys_coded else [key] * len(S))
                for c, block in zip(S, blocks):  # block j to S's j-th cache
                    pieces[c - 1].append(block.value)
        return [(_join(row, bits), len(row) * bits) for row in pieces]

    # -- delivery --

    def deliver(self, randomness: ServerRandomness, table: SubfileTable,
                demands: Sequence[DemandVector]) -> DeliveryTranscript:
        """The broadcast for the checked demands, cut from the rows of
        transmission_row: it reads no cache."""
        cfg = self.cfg
        if ((table.topo, table.file_bits, table.subfile_bits, len(table.images))
                != (self.topo, cfg.file_bits, cfg.subfile_bits, cfg.num_files)):
            raise UsageError("subfile table does not match the configuration")
        self._check_rows(randomness)
        by_user = demands_by_user(demands)
        missing = [g for g in self.topo.users() if g not in by_user]
        if missing:
            raise UsageError(f"missing demands for users {missing}")
        for d in demands:
            if d.num_files != cfg.num_files:
                raise UsageError("demand width does not match the library")
            if d.user not in self._rows:
                raise UsageError(f"{d.user} is not a user of this topology")
        n, users, members = cfg.num_files, self._rows, self._members
        payloads, sent = self.transmission_row(randomness, table, sum(
            by_user[g].coeffs << (u * n) for u, g in enumerate(users)))
        if cfg.broadcast:
            fb = cfg.file_bits
            return DeliveryTranscript(cfg, {}, {}, {}, tuple(
                BitBlock(v, fb) for v in _cut(payloads, n, fb)))
        sb, sent = cfg.subfile_bits, dict(zip(users, _cut(sent, len(users), n)))
        masked, clear = (sent, {}) if self.kind.masks_demands else ({}, sent)
        return DeliveryTranscript(cfg, {S: BitBlock(v, sb) for S, v in zip(
            members, _cut(payloads, len(members), sb))}, masked, clear, None)

    def transmission_row(self, randomness: ServerRandomness,
                         table: SubfileTable, demand_row: int
                         ) -> tuple[int, int]:
        """The broadcast as rows (payload_row, sent_row), unchecked, from
        the randomness and the subfiles alone.  The demand and sent rows
        hold user rank u's demand, as sent, at bit u N, as the mask row
        does; payload_row, transmission rank s's payload at bit s
        subfile_bits.  In broadcast mode it is the library, file by file."""
        n, sb = self.cfg.num_files, table.subfile_bits
        if self.cfg.broadcast:
            return _join([table.reassemble(i).value for i in range(1, n + 1)],
                         self.cfg.file_bits), 0
        sent = demand_row ^ randomness.mask_vectors
        # _combination reads the low N bits of the shifted row: u's demand.
        combos = [_combination(table.images, sent >> (u * n))
                  for u in range(len(self._rows))]
        piece, payloads = (1 << sb) - 1, []
        for senders in self._senders:
            acc = 0
            for u, k in senders:
                acc ^= combos[u] >> (k * sb)
            payloads.append(acc & piece)
        return randomness.payload_keys ^ _join(payloads, sb), sent

    # -- decoding --

    def decode(self, user: CacheSet, caches: Sequence[CacheContent],
               transcript: DeliveryTranscript,
               demand: DemandVector | None = None) -> BitBlock:
        """The user's demanded combination, checked, by decode_rows.  The
        caches act as one subfile store, filled in the order given, so a
        later copy of a subfile wins; key material comes from each cache's
        own store.  What the user reads, and only that, is checked in lex
        order of T."""
        if user not in self.topo.users():
            raise UsageError(f"{user} is not a user of this topology")
        by_index = {c.index: c for c in caches}
        if set(by_index) != set(user):
            raise UsageError(
                f"decode needs exactly the caches {user}, got {sorted(by_index)}")
        demand = self._resolve_demand(user, transcript, demand)
        if self.cfg.broadcast:
            if transcript.broadcast_files is None:
                raise IntegrityError("broadcast transcript lacks the library")
            return linear_combination(demand,
                                      FileLibrary(transcript.broadcast_files))
        kind, n, sb = self.kind, self.cfg.num_files, self.cfg.subfile_bits
        sent = (transcript.masked_demands if kind.masks_demands
                else transcript.cleartext_demands)
        lacking = [(1 << n) - 1] * len(self._rank)  # per rank, files not held
        subfiles: dict = {}
        contents = list(by_index.values())
        for at, content in enumerate(contents):
            for (i, T), block in content.subfiles.items():
                if T not in self._rank or not 1 <= i <= n:
                    continue
                if block.length == sb:
                    subfiles[(i, T)] = block
                    lacking[self._rank[T]] &= ~(1 << (i - 1))
                elif all((i, T) not in later.subfiles
                         for later in contents[at + 1:]):
                    raise UsageError(f"subfile ({i}, {T}) has {block.length} "
                                     f"bits, expected {sb}")
        readers = (() if kind is SchemeKind.LFR else
                   user[:1] if kind.stores_keys_whole else user)
        for T, k in self._rank.items():
            slot = self._slots.get((user, T))
            if slot is None:
                _check_reach(demand.coeffs & lacking[k], T)
                continue
            S = slot[1]
            payload = transcript.payloads.get(S)
            if payload is None:
                raise IntegrityError(f"transcript lacks the payload for {S}")
            label = (user, T) if kind.masks_demands else S
            stores = [getattr(by_index[c], self._key_store) for c in readers]
            for c, store in zip(readers, stores):
                if label not in store:
                    raise IntegrityError(
                        f"cache {c} lacks the key material for {label}")
            for c, store in zip(readers, stores):
                block = store[label]
                if block.length != self._key_bits and not kind.stores_keys_whole:
                    raise DomainError(
                        f"share block of {block.length} bits, expected "
                        f"{self._key_bits}" if kind.masks_demands else
                        f"block at {share_index_of_cache(S, c)} has "
                        f"{block.length} bits, expected {self._key_bits}")
            _sized(payload, sb, "payload", S)
            if kind.stores_keys_whole:
                _sized(stores[0][S], sb, "key of payload", S)
            for other, rest, j in self._members[S]:
                if other == user:
                    continue
                coeffs = sent.get(other)
                if coeffs is None:
                    what = "masked demand" if kind.masks_demands else "demand"
                    raise IntegrityError(f"transcript lacks the {what} of {other}")
                _check_reach(coeffs & lacking[j], rest)
        held = [replace(by_index[c], subfiles=subfiles) for c in user]
        return self._decode_placed(self._cache_rows(held), transcript,
                                   [demand])[0]

    def decode_rows(self, users: Sequence[CacheSet], payload_row: int,
                    sent_row: int, demand_row: int,
                    subfile_rows: Sequence[tuple[int, int]],
                    key_rows: Sequence[tuple[int, int]]) -> list[int]:
        """Each listed user's demanded combination as a file row, unchecked.

        payload_row and sent_row are transmission_row's, and demand_row
        holds user rank u's own demand at bit u N.  Entry c - 1 of
        subfile_rows and key_rows is cache c's row as subfile_rows and
        key_rows lay it out; only the listed users' caches are read, and a
        user's caches must agree on every piece two of them hold.  Each
        call builds its caches' file images and combinations once and
        keeps none.  In broadcast mode the payload row is the library.
        """
        cfg = self.cfg
        n, sb, piece = cfg.num_files, cfg.subfile_bits, (1 << cfg.subfile_bits) - 1
        if cfg.broadcast:
            files = _cut(payload_row, n, cfg.file_bits)
            return [_combination(files, demand_row >> (self._user_rank[g] * n))
                    for g in users]
        # Per cache read, its file images (the piece of rank k at bit k sb)
        # and its combination of each user's demand as sent.
        sent, caches = _cut(sent_row, len(self._rows), n), {}
        for c in {c for g in users for c in g}:
            stored = self._stored[c - 1]
            values = _cut(subfile_rows[c - 1][0], len(stored) * n, sb)
            at = [k * sb for k, _ in stored]
            files = [sum(v << a for v, a in zip(values[i::n], at))
                     for i in range(n)]
            caches[c] = files, [_combination(files, d) for d in sent]
        decoded = []
        for g, keys in zip(users, self._keys(users, key_rows)):
            u = self._user_rank[g]
            value, held = 0, [0] * len(sent)  # held: what g's caches hold
            for c in g:
                files, combos = caches[c]
                value |= _combination(files, demand_row >> (u * n))
                held = [h | x for h, x in zip(held, combos)]
            slots = [self._slots[(g, T)] for T in self._rows[g]]
            # payload ^ key ^ the other senders' combinations leaves the piece.
            for (k, S), key in zip(slots, keys):
                s = self._sent_rank[S]
                acc = payload_row >> (s * sb) ^ key
                for v, j in self._senders[s]:
                    if v != u:
                        acc ^= held[v] >> (j * sb)
                value |= (acc & piece) << (k * sb)
            decoded.append(value & ((1 << cfg.file_bits) - 1))
        return decoded

    def _keys(self, users: Sequence[CacheSet],
              key_rows: Sequence[tuple[int, int]]) -> list[list[int]]:
        """Each listed user's keys on the payloads of its slots, lex in T,
        from its caches' key rows: reconstructed at once from the user's
        cuts of the share rows, read whole, or MDS decoded; zero for lfr."""
        if self.kind.stores_keys_coded:
            return self._coded_keys(users, key_rows)
        cfg, places, bits = self.cfg, self._key_places, self._key_bits
        keys = []
        for g in users:
            count = len(self._rows[g])
            if self.kind.masks_demands:
                # g's cut of a cache's row starts at its first slot's share.
                first, width = (g, self._rows[g][0]), count * bits
                shares = ShareSet(cfg.key_field, width, tuple(
                    key_rows[c - 1][0] >> (places[c - 1][first] * bits)
                    & ((1 << width) - 1) for c in g))
                keys.append(_cut(reconstruct(shares, self._weights).value,
                                 count, bits))
            elif self.kind.stores_keys_whole:
                row, at = key_rows[g[0] - 1][0], places[g[0] - 1]
                keys.append([row >> (at[self._slots[(g, T)][1]] * bits)
                             for T in self._rows[g]])
            else:
                keys.append([0] * count)
        return keys

    def _coded_keys(self, users: Sequence[CacheSet],
                    key_rows: Sequence[tuple[int, int]]) -> list[list[int]]:
        """is-lfr's keys, one decode_key per class of slots whose user's
        caches sit at the same positions in S.  A class's blocks from each
        position sit side by side in one block, so its sub-key rows hold
        the class's sub-keys side by side, each padded to a block."""
        cfg, places, bits = self.cfg, self._key_places, self._key_bits
        code, block = cfg.key_code, (1 << bits) - 1
        sub_bits = subkey_bit_length(cfg.subfile_bits, code)
        sub_mask, key_mask = (1 << sub_bits) - 1, (1 << cfg.subfile_bits) - 1
        keys = [[0] * len(self._rows[g]) for g in users]
        classes: dict[tuple[int, ...], list] = {}
        for u, g in enumerate(users):
            for i, T in enumerate(self._rows[g]):
                S = self._slots[(g, T)][1]
                classes.setdefault(tuple(share_index_of_cache(S, c) for c in g),
                                   []).append((u, i, g, S))
        for positions, slots in classes.items():
            if positions not in self._inverses:
                self._inverses[positions] = decoding_matrix(code, positions)
            width = len(slots) * bits
            blocks = [BitBlock(_join([key_rows[g[j] - 1][0]
                                      >> (places[g[j] - 1][S] * bits) & block
                                      for _, _, g, S in slots], bits), width)
                      for j in range(len(positions))]
            wide = decode_key(list(zip(positions, blocks)), code,
                              code.dimension * width,
                              self._inverses[positions]).value
            # Sub-key row h holds each slot's sub-key h at stride bits.
            subkeys = zip(*(_cut(wide >> (h * width), len(slots), bits)
                            for h in range(code.dimension)))
            for (u, i, _, _), parts in zip(slots, subkeys):
                keys[u][i] = sum((p & sub_mask) << (h * sub_bits)
                                 for h, p in enumerate(parts)) & key_mask
        return keys

    def _cache_rows(self, caches: Sequence[CacheContent]) -> tuple:
        """The subfile rows and the key rows, entry c - 1 for cache c, that
        the given caches hold, as decode_rows reads them.  A cache not
        given has empty rows, an entry a cache lacks reads zero, and each
        entry is cut to its width."""
        n, sb = self.cfg.num_files, self.cfg.subfile_bits
        rows = [((0, 0), (0, 0))] * self.topo.num_caches
        for content in caches:
            c = content.index
            named = [(i, T) for _, T in self._stored[c - 1] for i in range(1, n + 1)]
            rows[c - 1] = (_row(content.subfiles, named, sb),
                           _row(getattr(content, self._key_store),
                                self._key_places[c - 1], self._key_bits))
        return tuple(zip(*rows))

    def _decode_placed(self, cache_rows: tuple,
                       transcript: DeliveryTranscript,
                       demands: Sequence[DemandVector]) -> list[BitBlock]:
        """decode_rows for each demand's user at once, on _cache_rows' rows
        and the rows the transcript holds.  An entry it lacks reads zero,
        and each entry is cut to its width."""
        cfg = self.cfg
        n, sb, fb = cfg.num_files, cfg.subfile_bits, cfg.file_bits
        sent = (transcript.masked_demands if self.kind.masks_demands
                else transcript.cleartext_demands)
        payload_row = (_join([b.value for b in transcript.broadcast_files], fb)
                       if cfg.broadcast else
                       _row(transcript.payloads, self._members, sb)[0])
        sent_row = _join([sent.get(g, 0) & ((1 << n) - 1) for g in self._rows], n)
        demand_row = sum(d.coeffs << (self._user_rank[d.user] * n) for d in demands)
        return [BitBlock(v, fb) for v in self.decode_rows(
            [d.user for d in demands], payload_row, sent_row, demand_row,
            *cache_rows)]

    def _resolve_demand(self, user, transcript, demand) -> DemandVector:
        if self.kind.masks_demands:
            if demand is None:
                raise UsageError(
                    f"{self.kind.value} decoding needs the user's own demand")
        else:
            carried = transcript.cleartext_demands.get(user)
            if carried is None:
                raise IntegrityError(f"transcript lacks the demand of {user}")
            if demand is None:
                demand = DemandVector(user, carried, self.cfg.num_files)
            elif demand.coeffs != carried:
                raise UsageError("supplied demand disagrees with the transcript")
        if demand.user != user:
            raise UsageError(f"demand belongs to {demand.user}, not {user}")
        if demand.num_files != self.cfg.num_files:
            raise UsageError("demand width does not match the library")
        return demand


def _check_reach(missing: int, T: CacheSet) -> None:
    """Raise for the lowest file, if any, in the bit mask `missing` at T."""
    if missing:
        i = (missing & -missing).bit_length()
        raise IntegrityError(f"subfile ({i}, {T}) not in reach")


def _row(store: Mapping, labels, bits: int) -> tuple[int, int]:
    """The store's blocks under the labels side by side, each cut to bits,
    as (value, width); a label the store lacks reads zero."""
    values = [store[label].value & ((1 << bits) - 1) if label in store else 0
              for label in labels]
    return _join(values, bits), len(values) * bits


def simulate(cfg: SchemeConfig, library: FileLibrary | None = None,
             demands: Sequence[DemandVector] | None = None,
             randomness: ServerRandomness | None = None) -> SimulationResult:
    """One full round: place, deliver, decode every user, compare to truth."""
    scheme = Scheme(cfg)
    if library is None:
        library = FileLibrary.random(derive_rng(cfg.seed, "library"),
                                     cfg.num_files, cfg.file_bits)
    if demands is None:
        demands = random_demands(cfg.topo, cfg.num_files,
                                 derive_rng(cfg.seed, "demands"))
    placement = scheme.place(library, randomness)
    transcript = scheme.deliver(placement.randomness, placement.table, demands)
    by_user = demands_by_user(demands)
    users = cfg.topo.users()
    decoded = scheme._decode_placed(scheme._cache_rows(placement.caches),
                                    transcript, [by_user[g] for g in users])
    return SimulationResult(cfg, library, tuple(demands), placement, transcript,
                            dict(zip(users, decoded)),
                            {g: linear_combination(by_user[g], library)
                             for g in users})
