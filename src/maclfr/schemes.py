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
Every user decodes through Scheme.decode, which checks the round once:
bad arguments raise UsageError, and caches or a transcript that fail a
structural check raise IntegrityError.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import comb
from typing import Mapping, Sequence

from .bits import BitBlock
from .errors import DomainError, IntegrityError, UsageError
from .gf import BinaryField, binary_field, exponent_for_share_count
from .indexing import _decode_plan, _indices, _store_labels
from .library import (DemandVector, FileLibrary, SubfileTable, demands_by_user,
                      linear_combination, random_demands, subfile_bit_length,
                      subpacketize)
from .mds import (MdsCode, build_code, coded_block_bit_length, decode_key,
                  encode_key, subkey_bit_length)
from .rows import (_combinations, _cut, _gather, _images, _join, _listed,
                   _narrow, _wide, _widen, _words)
from .shamir import ShareSet, reconstruct, split
from .topology import CacheSet, TopologySpec

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
            raise DomainError(
                f"files must have at least one bit, got {self.file_bits}")
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


def _combination(images: Sequence[int], coeffs: int) -> int:
    """XOR of the images of the files whose coefficient is 1."""
    acc = 0
    for i, image in enumerate(images):
        if (coeffs >> i) & 1:
            acc ^= image
    return acc


# ---- server randomness ----

def randomness_order(cfg: SchemeConfig) -> list[tuple[str, int, int]]:
    """Every value the server draws before a round, as runs (tag, count,
    bits) in the canonical order; draw() takes count getrandbits(bits) per
    run, run by run, or the same stream as one getrandbits(32 count) for
    the coef run (test_draw_takes_the_stream_of_one_call_per_value).

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


def _planes(cfg: SchemeConfig, row: int, count: int, width: int
            ) -> tuple[int, ...]:
    """The coef run's count values as the r - 1 planes split() takes:
    plane b holds blind b of symbol k at bit k l.  Value i is the top l
    bits of the row's width-bit unit i.  The row is written out in binary,
    unit count - 1 first, and one slice a bit position cuts a plane's
    digits out of every (r - 1)-th unit.  Without masked demands, none."""
    blinds = cfg.topo.access_degree - 1 if cfg.kind.masks_demands else 0
    l, planes = cfg.key_field.exponent, []
    digits = format(row, f"0{count * width}b").encode()
    for b in range(blinds):
        plane = bytearray(l * (count // blinds))
        for j in range(l):
            plane[j::l] = digits[(blinds - 1 - b) * width + j::blinds * width]
        planes.append(int(plane, 2))
    return tuple(planes)


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
        each run into its row; p-lfr's drawn keys are dropped.  CPython's
        Mersenne Twister serves getrandbits(l) as the top l bits of its
        next 32-bit word and getrandbits(32 n) as its next n words, the
        first lowest, so the coef run is one getrandbits(32 count)
        (test_draw_takes_the_stream_of_one_call_per_value pins it)."""
        rows: dict = {}
        for tag, count, bits in randomness_order(cfg):
            u = -(-bits // 8)  # the coef run: the top u bytes of each word
            rows[tag] = _planes(cfg, int.from_bytes(memoryview(
                rng.getrandbits(32 * count).to_bytes(4 * count, "little")
            ).cast("BH"[u - 1])[4 // u - 1::4 // u], "little"), count, 8 * u
            ) if tag == "coef" else _join(
                [rng.getrandbits(bits) for _ in range(count)], bits)
        return cls(rows["key"] if cfg.kind.has_payload_keys else 0,
                   rows.get("mask", 0), rows.get("coef", ()))


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
        row into planes: the row itself at r = 2, _planes' at r > 2, zero
        planes without a coef run."""
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
            deal = lambda row: _planes(cfg, row, *coefs)
        return (*(rows.get(tag, (0, 0)) for tag in ("key", "mask", "coef")),
                deal)

    def unpack(self, value: int) -> ServerRandomness:
        """Slice out each run's row by _plan; only the coef run is dealt
        into its planes, and only when r > 2."""
        if value < 0 or value >> self.total_bits:
            raise DomainError(f"value does not fit in {self.total_bits} bits")
        (k, keys), (m, masks), (c, coefs), deal = self._plan
        return ServerRandomness(value >> k & keys, value >> m & masks,
                                deal(value >> c & coefs))


# ---- placement / delivery artifacts ----

_KEY_STORES = ("key_shares", "whole_keys", "coded_subkeys")


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
        stores = [getattr(self, store) for store in ("subfiles",) + _KEY_STORES]
        return sum(len(s) * s.bits if isinstance(s, _Store)
                   else sum(b.length for b in s.values()) for s in stores)


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
    every masked key of the decoded users from their caches' share rows;
    likewise one decode_key recovers the is-lfr keys of every slot whose
    user's caches sit at the same positions in S.  Decode has one path:
    decode checks the round once, whole, and decode_rows, one row function
    on the topology's _DecodePlan, decodes it.  A Scheme holds only what
    __init__ built, tables of its config, and keeps none of a round; mds
    caches the MDS inverses.  Placed and delivered stores are held as their
    rows, so a BitBlock is cut only where a store is read by label, and
    decode builds one per demand.
    """

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        self.topo = cfg.topo
        self.kind = cfg.kind
        (self._rank, _, self._members, self._rows,
         stored, self._senders) = _indices(cfg.topo)
        # Per cache, its subfiles by (rank, T) and by label: none in broadcast.
        empty = tuple(() for _ in stored)
        self._stored, self._subfile_places = (
            (empty, empty) if cfg.broadcast
            else (stored, _store_labels(cfg.topo, cfg.num_files, "subfiles")))
        self._user_rank = {g: u for u, g in enumerate(self._rows)}
        # The key and mask rows' widths: zero for the kinds without them.
        self._widths = (
            cfg.topo.num_transmissions * cfg.subfile_bits
            if cfg.kind.has_payload_keys else 0,
            cfg.topo.num_users * cfg.num_files if cfg.kind.masks_demands else 0)
        # The CacheContent field of the kind's key material, its entries'
        # bits, and per cache its entries' labels in key_rows' row order:
        # none for lfr or broadcast mode.
        self._key_store, self._key_bits = (
            ("key_shares", cfg.share_block_bits) if cfg.kind.masks_demands
            else ("coded_subkeys", coded_block_bit_length(
                cfg.subfile_bits, cfg.key_code))
            if cfg.kind.stores_keys_coded
            else ("whole_keys", cfg.subfile_bits))
        self._key_places = empty if (
            cfg.broadcast or cfg.kind is SchemeKind.LFR) else _store_labels(
            cfg.topo, cfg.num_files, self._key_store)

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
        # Per subfile index T, every file's piece T in turn: a cache's row
        # joins the pieces of the T naming it, lex in T.
        pieces = [] if cfg.broadcast else [
            _join([(image >> (k * sb)) & piece for image in table.images], sb)
            for k in range(len(self._rank))]
        subfiles = [_blocks(_join([pieces[k] for k, _ in held],
                                  cfg.num_files * sb), labels, sb)
                    for labels, held in zip(self._subfile_places, self._stored)]
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
                    subfiles: list[Mapping], table: SubfileTable
                    ) -> list[CacheContent]:
        """Store each cache's key material, cut from its key row: threshold
        shares of the superposed keys, whole payload keys, MDS-coded ones,
        or nothing."""
        return [self._content(c, stores, row) for c, (stores, (row, _)) in
                enumerate(zip(subfiles, self.key_rows(randomness, table)), 1)]

    def _content(self, c: int, subfiles: Mapping, key_row: int
                 ) -> CacheContent:
        """Cache c with the subfiles and its key material cut from its key
        row: with _blocks, the inverse of _cache_rows."""
        stores: dict = {store: {} for store in _KEY_STORES}
        stores[self._key_store] = _blocks(key_row, self._key_places[c - 1],
                                          self._key_bits)
        return CacheContent(c, subfiles, **stores)

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

        Under sp-lfr and p-lfr, one split shares the round's superposed
        keys D[g, T], lex in (g, T) at stride share_block_bits as the
        coefficient planes lay them out: the key of S = g + T plus g's
        mask combination of subfile T.  A cache's row is, for each user g
        holding it in lex order, g's cut of share j, where the cache is
        g's j-th; the topology's _DecodePlan gives the ranks behind every
        key and cut.  Under s-lfr it is the whole payload key of each S
        naming the cache, lex in S, and under is-lfr the cache's MDS-coded
        block of each such S.  lfr and broadcast mode store no key: every
        row is empty.
        """
        self._check_rows(randomness)
        cfg = self.cfg
        keys = randomness.payload_keys
        sb, n = cfg.subfile_bits, cfg.num_files
        piece = (1 << sb) - 1
        if self.kind.masks_demands and not cfg.broadcast:
            wb, K = cfg.share_block_bits, len(self._rows)
            plan = _decode_plan(self.topo)
            # _combination reads the low N bits of the shifted row: u's mask.
            masked = [_combination(table.images, randomness.mask_vectors
                                   >> (u * n)) for u in range(K)]
            superposed = [(keys >> (s * sb) ^ masked[u] >> (k * sb)) & piece
                          for s, u, k in zip(plan.sends, plan.owners,
                                             plan.ranks)]
            shares = split(_join(superposed, wb), len(superposed) * wb,
                           self.topo.access_degree, cfg.key_field,
                           coefficients=randomness.share_coefficients).shares
            bits = len(superposed) // K * wb  # a cut: one user's slots
            cut = (1 << bits) - 1
            cuts = [share >> (u * bits) & cut for share in shares
                    for u in range(K)]
            return [(_join([cuts[x] for x in at], bits), len(at) * bits)
                    for at in plan.holds]
        pieces: list[list[int]] = [[] for _ in range(self.topo.num_caches)]
        bits, M = self._key_bits, len(self._members)
        if self.kind.stores_keys_whole or self.kind.stores_keys_coded:
            whole = _cut(keys, M, sb)
            rows = repeat(whole)
            if self.kind.stores_keys_coded:
                # Sub-key i of every key side by side at the block stride,
                # as _coded_keys decodes a class: one encode_key codes all.
                code = cfg.key_code
                k, sub = code.dimension, subkey_bit_length(sb, code)
                subkeys = _cut(_join(whole, k * sub), k * M, sub)
                rows = [_cut(row, M, bits) for row in encode_key(_join(
                    [_join(subkeys[i::k], bits) for i in range(k)], M * bits),
                    k * M * bits, code)]
            for s, S in enumerate(self._members):
                for c, row in zip(S, rows):  # block j to S's j-th cache
                    pieces[c - 1].append(row[s])
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
        by_user = self._by_user(demands)
        missing = [g for g in self.topo.users() if g not in by_user]
        if missing:
            raise UsageError(f"missing demands for users {missing}")
        return self._transcript(*self.transmission_row(randomness, table, sum(
            by_user[g].coeffs << (u * cfg.num_files)
            for u, g in enumerate(self._rows))))

    def _transcript(self, payload_row: int, sent_row: int
                    ) -> DeliveryTranscript:
        """The transcript of transmission_row's rows: with _blocks, the
        inverse of _transcript_rows."""
        cfg, users, n = self.cfg, self._rows, self.cfg.num_files
        if cfg.broadcast:
            return _library(cfg, payload_row)
        sent = dict(zip(users, _cut(sent_row, len(users), n)))
        masked, clear = (sent, {}) if self.kind.masks_demands else ({}, sent)
        return DeliveryTranscript(cfg, _blocks(payload_row, self._members,
                                               cfg.subfile_bits),
                                  masked, clear, None)

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

    def _by_user(self, demands: Sequence[DemandVector]
                 ) -> dict[CacheSet, DemandVector]:
        """The demands by user, each of a user of the topology, once, at
        width N, or UsageError."""
        for d in demands:
            if d.num_files != self.cfg.num_files:
                raise UsageError("demand width does not match the library")
            if d.user not in self._user_rank:
                raise UsageError(f"{d.user} is not a user of this topology")
        return demands_by_user(demands)

    # -- decoding --

    def decode(self, caches: Sequence[CacheContent],
               transcript: DeliveryTranscript,
               demands: Sequence[DemandVector]) -> list[BitBlock]:
        """Each demand's user's combination, in the order of demands, by
        decode_rows, once the round is checked whole.  UsageError: a
        demand of no user, of a user twice or not N files wide; caches not
        distinct caches of the topology that hold every cache of each
        demanded user; a cleartext demand the transcript does not carry.
        IntegrityError: a store that does not hold exactly its labels at
        their widths; a transcript of another config, or that holds a
        section the round does not send, or lacks a payload, a sent demand
        under 2^N of some user, or in broadcast mode a file of F bits."""
        lacking = ({c for g in self._by_user(demands) for c in g}
                   - {content.index for content in caches})
        if lacking:
            raise UsageError(f"decode needs the caches {sorted(lacking)} too")
        return self._decode_placed(self._cache_rows(caches), transcript,
                                   demands)

    def decode_rows(self, users: Sequence[CacheSet], payload_row: int,
                    sent_row: int, demand_row: int,
                    subfile_rows: Sequence[tuple[int, int]],
                    key_rows: Sequence[tuple[int, int]]) -> list[int]:
        """Each listed user's demanded combination as a file row, unchecked.

        payload_row and sent_row are transmission_row's, and demand_row
        holds user rank u's own demand at bit u N.  Entry c - 1 of
        subfile_rows and key_rows is cache c's row as subfile_rows and
        key_rows lay it out; only the listed users' caches are read, and a
        user's caches must agree on every piece two of them hold.  In
        broadcast mode the payload row is the library.

        The places come from the topology's _DecodePlan.  Each read cache
        combines its own H pieces per file by every sent demand, and by
        its listed users' own demands, into machine words, w a piece.
        Each lane is then one gather over the listed users' slots, XORed
        into a row of payload ^ key, and one last gather lays each user's
        pieces out lex in rank.
        """
        cfg = self.cfg
        n, sb = cfg.num_files, cfg.subfile_bits
        if cfg.broadcast:
            files = _cut(payload_row, n, cfg.file_bits)
            return [_combination(files, demand_row >> (self._user_rank[g] * n))
                    for g in users]
        plan, K, R = _decode_plan(self.topo), len(self._rows), len(self._rank)
        r, H, P = self.topo.access_degree, plan.per_cache, plan.per_user
        w = -(-sb // 64)  # machine words a piece
        ranks = [self._user_rank[g] for g in users]
        listed = None if ranks == list(range(K)) else ranks
        # payload ^ key ^ the other senders' pieces leaves each slot's piece.
        payloads = _widen(payload_row, len(self._members), sb, w)
        row = _wide(array("Q", _gather(payloads, _listed(plan.sends, listed,
                                                         P, w)))) ^ _wide(
            _words(list(chain.from_iterable(self._keys(users, key_rows))), w))
        # Cache c's combination by sender v sits at ((c - 1) K + v) H in
        # held, and by its j-th user u's own demand at u r + j in own.
        readers: dict[int, dict[int, int]] = {}
        for u, g in zip(ranks, users):
            for j, c in enumerate(g):
                readers.setdefault(c, {})[u] = j
        sent, own, span = _cut(sent_row, K, n), [0] * (K * r), H * w
        held = array("Q", [0]) * (len(self._stored) * K * span)
        for c, mine in readers.items():
            combos = _combinations(
                _images(subfile_rows[c - 1][0], H, n, sb, w),
                sent + [demand_row >> (u * n) & ((1 << n) - 1) for u in mine])
            held[(c - 1) * K * span:c * K * span] = _words(combos[:K], span)
            for (u, j), combo in zip(mine.items(), combos[K:]):
                own[u * r + j] = combo
        for lane in plan.lanes:
            row ^= _wide(array("Q", _gather(held, _listed(lane, listed, P, w))))
        del held
        # The output words: the own combinations, then each user's slots.
        slots, width = _words([row], len(ranks) * P * w), P * w
        if listed is not None:
            listed_slots, slots = slots, array("Q", [0]) * (K * width)
            for at, u in enumerate(listed):
                slots[u * width:(u + 1) * width] = listed_slots[
                    at * width:(at + 1) * width]
        out, mask = _words(own, span) + slots, (1 << cfg.file_bits) - 1
        return [_narrow(_gather(out, _listed(plan.pieces[u * R:(u + 1) * R],
                                             None, R, w)), w, sb) & mask
                for u in ranks]

    def _keys(self, users: Sequence[CacheSet],
              key_rows: Sequence[tuple[int, int]]) -> list[list[int]]:
        """Each listed user's keys on the payloads of its slots, lex in T,
        from its caches' key rows: reconstructed at once from the listed
        users' cuts of the share rows, read whole, or MDS decoded; zero
        for lfr."""
        cfg, bits, plan = self.cfg, self._key_bits, _decode_plan(self.topo)
        P, r = plan.per_user, self.topo.access_degree
        ranks = [self._user_rank[g] for g in users]
        if self.kind.masks_demands:
            # Share j holds every listed user's cut of its j-th cache's row,
            # side by side; g's cut starts at its first slot's share.
            width = P * bits
            shares = ShareSet(cfg.key_field, len(users) * width, tuple(
                _join([key_rows[g[j] - 1][0] >> (plan.cuts[u * r + j] * bits)
                       & ((1 << width) - 1) for g, u in zip(users, ranks)],
                      width) for j in range(r)))
            piece = (1 << cfg.subfile_bits) - 1  # a share block pads a key
            keys = [key & piece for key in _cut(
                reconstruct(shares), len(users) * P, bits)]
            return [keys[at * P:(at + 1) * P] for at in range(len(users))]
        if not self.kind.stores_keys_whole and not self.kind.stores_keys_coded:
            return [[0] * P for _ in users]
        # Every cache's entries, Q each, at (c - 1) Q.
        Q = len(self._key_places[0])
        entries = list(chain.from_iterable(_cut(row, Q, bits)
                                           for row, _ in key_rows))
        if self.kind.stores_keys_whole:
            keys = _gather(entries, _listed(plan.keys[0], ranks, P))
            return [list(keys[at * P:(at + 1) * P])
                    for at in range(len(users))]
        return self._coded_keys(ranks, entries)

    def _coded_keys(self, ranks: Sequence[int],
                    entries: Sequence[int]) -> list[list[int]]:
        """is-lfr's keys of the users of the listed ranks, one decode_key
        per position class of the plan: a class's blocks from each
        position sit side by side in one block, so its sub-key rows hold
        the class's sub-keys side by side, each padded to a block."""
        cfg, bits, plan = self.cfg, self._key_bits, _decode_plan(self.topo)
        code, P = cfg.key_code, plan.per_user
        sub_bits = subkey_bit_length(cfg.subfile_bits, code)
        sub_mask, key_mask = (1 << sub_bits) - 1, (1 << cfg.subfile_bits) - 1
        keys, wanted = [0] * (len(self._rows) * P), sorted(set(ranks))
        every = wanted == list(range(len(self._rows)))
        for positions, slots, begins in plan.classes:
            if not every:
                slots = array("I", chain.from_iterable(
                    slots[begins[u]:begins[u + 1]] for u in wanted))
            if not slots:
                continue
            width = len(slots) * bits
            blocks = [_join(_gather(entries, _gather(at, slots)), bits)
                      for at in plan.keys]
            wide = decode_key(list(zip(positions, blocks)), code,
                              code.dimension * width)
            # Sub-key row h holds each slot's sub-key h at stride bits.
            found = [0] * len(slots)
            for h in range(code.dimension):
                found = [k | (p & sub_mask) << (h * sub_bits) for k, p in zip(
                    found, _cut(wide >> (h * width), len(slots), bits))]
            for x, key in zip(slots, found):
                keys[x] = key & key_mask
        return [keys[u * P:(u + 1) * P] for u in ranks]

    def _cache_rows(self, caches: Sequence[CacheContent]) -> tuple:
        """The subfile rows and the key rows, entry c - 1 for cache c, that
        the given caches hold, checked as decode says, as decode_rows reads
        them; a cache not given has empty rows."""
        sb, C = self.cfg.subfile_bits, self.topo.num_caches
        rows: list = [None] * C
        for content in caches:
            c = content.index
            if not 1 <= c <= C or rows[c - 1] is not None:
                raise UsageError(f"cache {c} is out of range or given twice")
            if any(getattr(content, store) for store in _KEY_STORES
                   if store != self._key_store):
                raise IntegrityError(f"cache {c} holds another kind's keys")
            rows[c - 1] = (
                _row(content.subfiles, self._subfile_places[c - 1], sb,
                     f"cache {c}", "subfile"),
                _row(getattr(content, self._key_store),
                     self._key_places[c - 1], self._key_bits, f"cache {c}",
                     "the key material for"))
        return tuple(zip(*(row or ((0, 0), (0, 0)) for row in rows)))

    def _transcript_rows(self, transcript: DeliveryTranscript) -> tuple:
        """The payload row and the sent row, as (value, width), that the
        transcript holds, checked as decode says; in broadcast mode the
        payload row is the library and the sent row is empty."""
        cfg, users, n = self.cfg, self._rows, self.cfg.num_files
        what, name = (("masked demand", "masked_demands")
                      if self.kind.masks_demands else
                      ("demand", "cleartext_demands"))
        sends = ("broadcast_files",) if cfg.broadcast else ("payloads", name)
        if transcript.cfg != cfg:
            raise IntegrityError("the transcript is of another configuration")
        for section in ("payloads", "masked_demands", "cleartext_demands",
                        "broadcast_files"):
            if section not in sends and getattr(transcript, section):
                raise IntegrityError(f"the transcript holds {section}, which "
                                     f"this round does not send")
        if cfg.broadcast:
            return _row(dict(enumerate(transcript.broadcast_files or (), 1)),
                        range(1, n + 1), cfg.file_bits, "broadcast transcript",
                        "file"), (0, 0)
        sent = getattr(transcript, name)
        values = [sent.get(g, -1) for g in users]
        bad = [g for g, v in zip(users, values) if v < 0 or v >> n]
        if bad or len(sent) != len(users):
            raise IntegrityError(
                f"transcript lacks a {what} of {bad[0]} under 2^{n}"
                if bad else f"transcript holds a {what} of no user")
        return (_row(transcript.payloads, self._members, cfg.subfile_bits,
                     "transcript", "the payload for"),
                (_join(values, n), len(users) * n))

    def _decode_placed(self, cache_rows: tuple,
                       transcript: DeliveryTranscript,
                       demands: Sequence[DemandVector]) -> list[BitBlock]:
        """decode_rows for each demand's user at once, on _cache_rows' rows
        and _transcript_rows', checked as decode says."""
        (payload_row, _), (sent_row, _) = self._transcript_rows(transcript)
        n, ranks = self.cfg.num_files, self._user_rank
        if not self.kind.masks_demands and any(
                sent_row >> (ranks[d.user] * n) & ((1 << n) - 1) != d.coeffs
                for d in demands):
            raise UsageError("a demand disagrees with the transcript")
        demand_row = sum(d.coeffs << (ranks[d.user] * n) for d in demands)
        return [BitBlock(v, self.cfg.file_bits) for v in self.decode_rows(
            [d.user for d in demands], payload_row, sent_row, demand_row,
            *cache_rows)]


def _row(store: Mapping, labels, bits: int, owner: str,
         what: str) -> tuple[int, int]:
    """The store's blocks under the labels side by side, as (value,
    width).  The store must hold exactly the labels, each block bits long,
    or IntegrityError names the first fault.  A row-backed store of the
    labels and bits, as placement and delivery fill one, is its row."""
    if isinstance(store, _Store) and store.bits == bits and (
            store.labels is labels or store.labels == labels):
        return store.row, len(labels) * bits
    blocks = [store[label] for label in labels if label in store]
    values = [block.value for block in blocks if block.length == bits]
    if len(values) != len(labels) or len(store) != len(labels):
        known = set(labels)
        raise IntegrityError(next(chain(
            (f"{owner} lacks {what} {label}"
             for label in labels if label not in store),
            (f"{owner} holds {what} {label}, not one of its labels"
             if label not in known else f"{owner} holds {what} {label} of "
             f"{block.length} bits, expected {bits}"
             for label, block in store.items()
             if label not in known or block.length != bits))))
    return (_narrow(values, 1, bits) if bits <= 64 else _join(values, bits),
            len(values) * bits)


class _Store(Mapping):
    """A read-only store held as its row: the i-th label's block is the
    bits-wide value at bit i * bits.  Iteration and len read the labels;
    the first read of a block, values() or items() cuts the whole row
    into BitBlocks, once, and keeps them."""

    def __init__(self, labels: Sequence, bits: int, row: int):
        self.labels, self.bits, self.row = labels, bits, row

    @cached_property
    def _held(self) -> dict:
        return dict(zip(self.labels, [BitBlock(v, self.bits) for v in
                                      _cut(self.row, len(self.labels),
                                           self.bits)]))

    def __getitem__(self, label) -> BitBlock:
        return self._held[label]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def values(self):
        return self._held.values()

    def items(self):
        return self._held.items()

    def __repr__(self) -> str:
        return repr(self._held)


def _blocks(row: int, labels: Sequence, bits: int) -> _Store:
    """The inverse of _row: the row as a store of blocks of bits, one a
    label, in turn; IntegrityError for a row wider than those blocks."""
    if row >> (len(labels) * bits):
        raise IntegrityError(f"a row wider than {len(labels)} blocks of "
                             f"{bits} bits")
    return _Store(labels, bits, row)


def _library(cfg: SchemeConfig, row: int) -> DeliveryTranscript:
    """The broadcast mode transcript of a library row, file i at bit
    (i - 1) F."""
    return DeliveryTranscript(cfg, {}, {}, {}, tuple(
        _blocks(row, range(1, cfg.num_files + 1), cfg.file_bits).values()))


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
    decoded = scheme.decode(placement.caches, transcript,
                            [by_user[g] for g in users])
    return SimulationResult(cfg, library, tuple(demands), placement, transcript,
                            dict(zip(users, decoded)),
                            {g: linear_combination(by_user[g], library)
                             for g in users})
