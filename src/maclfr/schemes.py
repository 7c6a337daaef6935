"""Placement, delivery, and decoding for the five retrieval schemes.

All five schemes share the combinatorial layout: subfiles indexed by
t-subsets are replicated into the caches they name, and one payload is
broadcast per (t + r)-subset S, built so that the user on every r-subset
g of S extracts its missing piece indexed by S minus g.  They differ in
what protects the payloads and the demands:

* lfr     -- nothing; payloads are plain XORs of demanded combinations.
             The keyless baseline.
* s-lfr   -- each payload is masked by a one-time key, and every cache
             named in S stores that key whole.  Content-secure against
             eavesdroppers, but demands travel in clear.
* is-lfr  -- like s-lfr, except each key is cut into r sub-keys and MDS
             coded into t + r blocks, one per cache in S; any user inside
             S still collects r blocks and recovers the key, while the
             key share of memory shrinks by a factor of r.
* sp-lfr  -- content security plus demand privacy.  Users send demands
             masked by one-time pads; the induced per-user keys are
             superposed with the payload keys and stored as threshold
             shares across the user's caches.
* p-lfr   -- sp-lfr with the payload keys pinned to zero: privacy without
             content security, at the same memory.  Also admits the
             degenerate broadcast mode that ships the whole library and
             needs no cache at all.

Randomness is drawn from seeded streams in a fixed canonical order, so a
(config, seed) pair fully determines every artifact.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

from .bits import BitBlock, concat_blocks
from .errors import DomainError, IntegrityError, UsageError
from .gf import BinaryField, binary_field, exponent_for_share_count
from .library import (DemandVector, FileLibrary, SubfileTable, demands_by_user,
                      linear_combination, subfile_bit_length, subpacketize)
from .mds import MdsCode, build_code, decode_key, encode_key
from .shamir import reconstruct, share_set_from_blocks, split
from .topology import CacheSet, TopologySpec, share_index_of_cache

MAX_SEED = (1 << 64) - 1


class SchemeKind(str, Enum):
    SP_LFR = "sp-lfr"
    P_LFR = "p-lfr"
    S_LFR = "s-lfr"
    IS_LFR = "is-lfr"
    LFR = "lfr"

    @property
    def masks_demands(self) -> bool:
        """Demands leave the user only as one-time-padded vectors."""
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

    @property
    def subfile_bits(self) -> int:
        return subfile_bit_length(self.file_bits, self.topo)

    @property
    def key_field(self) -> BinaryField:
        """Field for threshold shares: smallest with more elements than shares."""
        return binary_field(exponent_for_share_count(self.topo.access_degree))

    @cached_property
    def key_code(self) -> MdsCode:
        """The (t + r, r) erasure code used by is-lfr key placement, built
        and checked once per config."""
        return build_code(self.topo.replication + self.topo.access_degree,
                          self.topo.access_degree)

    @property
    def share_block_bits(self) -> int:
        """A threshold share of one subfile-sized key, symbol aligned."""
        l = self.key_field.exponent
        return -(-self.subfile_bits // l) * l


def derive_rng(seed: int, purpose: str) -> random.Random:
    """Independent deterministic stream per purpose; stable across runs."""
    digest = hashlib.sha256(f"maclfr:{purpose}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "little"))


# ---- server randomness ----

@dataclass(frozen=True)
class ServerRandomness:
    """Everything the server draws before a round.

    payload_keys has an entry per transmission index for every kind that
    masks payloads (all zero under p-lfr); mask_vectors and
    share_coefficients exist only when demands are masked.
    """

    payload_keys: Mapping[CacheSet, BitBlock]
    mask_vectors: Mapping[CacheSet, int]
    share_coefficients: Mapping[tuple[CacheSet, CacheSet], tuple[tuple[int, ...], ...]]

    @classmethod
    def draw(cls, cfg: SchemeConfig, rng: random.Random) -> "ServerRandomness":
        """Draw in the canonical order: payload keys (lex transmission index),
        mask vectors (lex user), then share coefficients (lex (user, index),
        symbol by symbol).  p-lfr draws payload keys and then pins them to
        zero, which keeps the remaining stream aligned with sp-lfr."""
        topo = cfg.topo
        kind = cfg.kind
        payload_keys: dict[CacheSet, BitBlock] = {}
        if kind.has_payload_keys or kind is SchemeKind.P_LFR:
            for S in topo.transmission_indices():
                block = BitBlock.random(rng, cfg.subfile_bits)
                if kind is SchemeKind.P_LFR:
                    block = BitBlock.zeros(cfg.subfile_bits)
                payload_keys[S] = block
        mask_vectors: dict[CacheSet, int] = {}
        share_coefficients: dict[tuple[CacheSet, CacheSet],
                                 tuple[tuple[int, ...], ...]] = {}
        if kind.masks_demands:
            for g in topo.users():
                mask_vectors[g] = rng.getrandbits(cfg.num_files)
            l = cfg.key_field.exponent
            blinds = topo.access_degree - 1
            symbols = cfg.share_block_bits // l
            for g in topo.users():
                for T in topo.subfile_indices():
                    if set(g) & set(T):
                        continue
                    share_coefficients[(g, T)] = tuple(
                        tuple(rng.getrandbits(l) for _ in range(blinds))
                        for _ in range(symbols))
        return cls(payload_keys, mask_vectors, share_coefficients)


@dataclass(frozen=True)
class RandomnessLayout:
    """Bit layout of the entropy behind ServerRandomness.

    The verification oracles enumerate server randomness exhaustively; this
    maps an integer to the ServerRandomness it encodes.  Entries follow the
    canonical draw order.  Note p-lfr has no payload-key entropy: those
    blocks are constants, not draws, even though draw() consumes stream
    bits for them.
    """

    cfg: SchemeConfig
    entries: tuple[tuple[object, int], ...]
    total_bits: int

    @classmethod
    def for_config(cls, cfg: SchemeConfig) -> "RandomnessLayout":
        topo = cfg.topo
        kind = cfg.kind
        entries: list[tuple[object, int]] = []
        if kind.has_payload_keys:
            for S in topo.transmission_indices():
                entries.append((("key", S), cfg.subfile_bits))
        if kind.masks_demands:
            for g in topo.users():
                entries.append((("mask", g), cfg.num_files))
            l = cfg.key_field.exponent
            blinds = topo.access_degree - 1
            symbols = cfg.share_block_bits // l
            for g in topo.users():
                for T in topo.subfile_indices():
                    if set(g) & set(T):
                        continue
                    for s in range(symbols):
                        for b in range(blinds):
                            entries.append((("coef", g, T, s, b), l))
        return cls(cfg, tuple(entries), sum(bits for _, bits in entries))

    def unpack(self, value: int) -> ServerRandomness:
        if value < 0 or value >> self.total_bits:
            raise DomainError(f"value does not fit in {self.total_bits} bits")
        cfg = self.cfg
        topo = cfg.topo
        payload_keys: dict[CacheSet, BitBlock] = {}
        mask_vectors: dict[CacheSet, int] = {}
        coefs: dict[tuple[CacheSet, CacheSet], list[list[int]]] = {}
        if cfg.kind.masks_demands:
            # Pre-create every coefficient row so that r = 1 (no blinding
            # coefficients at all) still yields the empty rows split() expects.
            l = cfg.key_field.exponent
            blinds = topo.access_degree - 1
            symbols = cfg.share_block_bits // l
            for g in topo.users():
                for T in topo.subfile_indices():
                    if not set(g) & set(T):
                        coefs[(g, T)] = [[0] * blinds for _ in range(symbols)]
        offset = 0
        for label, bits in self.entries:
            chunk = (value >> offset) & ((1 << bits) - 1)
            offset += bits
            tag = label[0]
            if tag == "key":
                payload_keys[label[1]] = BitBlock(chunk, bits)
            elif tag == "mask":
                mask_vectors[label[1]] = chunk
            else:
                _, g, T, s, b = label
                coefs[(g, T)][s][b] = chunk
        if cfg.kind is SchemeKind.P_LFR:
            payload_keys = {S: BitBlock.zeros(cfg.subfile_bits)
                            for S in topo.transmission_indices()}
        share_coefficients = {key: tuple(tuple(row) for row in rows)
                              for key, rows in coefs.items()}
        return ServerRandomness(payload_keys, mask_vectors, share_coefficients)


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

    def memory_files(self, file_bits: int) -> Fraction:
        return Fraction(self.stored_bits, file_bits)


@dataclass(frozen=True)
class ServerSecrets:
    """Server-side state that never leaves the server in clear."""

    randomness: ServerRandomness
    induced_keys: Mapping[tuple[CacheSet, CacheSet], BitBlock]
    superposed_keys: Mapping[tuple[CacheSet, CacheSet], BitBlock]


@dataclass(frozen=True)
class PlacementResult:
    caches: tuple[CacheContent, ...]
    secrets: ServerSecrets
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
    rate: Fraction

    @property
    def payload_bits(self) -> int:
        total = sum(b.length for b in self.payloads.values())
        if self.broadcast_files:
            total += sum(b.length for b in self.broadcast_files)
        return total

    @property
    def demand_bits(self) -> int:
        return (len(self.masked_demands) + len(self.cleartext_demands)) \
            * self.cfg.num_files


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


# ---- scheme implementations ----

def _merge_disjoint(a: CacheSet, b: CacheSet) -> CacheSet:
    return tuple(sorted(a + b))


class Scheme:
    """Base class: subfile placement and the plumbing common to all kinds."""

    kind: SchemeKind

    def __init__(self, cfg: SchemeConfig):
        if cfg.kind is not self.kind:
            raise UsageError(f"config kind {cfg.kind.value} does not match "
                             f"{self.kind.value}")
        self.cfg = cfg
        self.topo = cfg.topo

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
        subfiles: list[dict[tuple[int, CacheSet], BitBlock]] = [
            {} for _ in range(self.topo.num_caches)]
        if not cfg.broadcast:
            for T in self.topo.subfile_indices():
                for i in range(1, cfg.num_files + 1):
                    block = table.subfile(i, T)
                    for c in T:
                        subfiles[c - 1][(i, T)] = block
        caches, secrets = self._place_keys(randomness, subfiles, table)
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
        return PlacementResult(tuple(caches), secrets, memory, table)

    def _place_keys(self, randomness: ServerRandomness,
                    subfiles: list[dict[tuple[int, CacheSet], BitBlock]],
                    table: SubfileTable
                    ) -> tuple[list[CacheContent], ServerSecrets]:
        raise NotImplementedError

    def _bare_caches(self, subfiles, key_shares=None, whole=None, coded=None
                     ) -> list[CacheContent]:
        def pick(source, c):
            return source[c] if source is not None else {}

        return [CacheContent(c + 1, subfiles[c], pick(key_shares, c),
                             pick(whole, c), pick(coded, c))
                for c in range(self.topo.num_caches)]

    # -- delivery --

    def deliver(self, secrets: ServerSecrets, table: SubfileTable,
                demands: Sequence[DemandVector]) -> DeliveryTranscript:
        cfg = self.cfg
        if table.topo != self.topo or table.file_bits != cfg.file_bits:
            raise UsageError("subfile table does not match the configuration")
        by_user = demands_by_user(demands)
        missing = [g for g in self.topo.users() if g not in by_user]
        if missing:
            raise UsageError(f"missing demands for users {missing}")
        for d in demands:
            if d.num_files != cfg.num_files:
                raise UsageError("demand width does not match the library")
        return self._deliver(secrets, table, by_user)

    def _deliver(self, secrets, table, by_user) -> DeliveryTranscript:
        raise NotImplementedError

    def _combination_payload(self, table: SubfileTable, S: CacheSet,
                             coeffs_of: Mapping[CacheSet, int]) -> BitBlock:
        """XOR over users g inside S of the g-demanded combination of the
        subfile indexed by S minus g; the workhorse payload of every kind."""
        acc = BitBlock.zeros(table.subfile_bits)
        for g in combinations(S, self.topo.access_degree):
            rest = tuple(c for c in S if c not in g)
            coeffs = coeffs_of[g]
            for i in range(1, self.cfg.num_files + 1):
                if (coeffs >> (i - 1)) & 1:
                    acc ^= table.subfile(i, rest)
        return acc

    def _rate(self) -> Fraction:
        return Fraction(self.topo.num_transmissions, self.topo.num_subfile_indices)

    # -- decoding --

    def decode(self, user: CacheSet, caches: Sequence[CacheContent],
               transcript: DeliveryTranscript,
               demand: DemandVector | None = None) -> BitBlock:
        if user not in self.topo.users():
            raise UsageError(f"{user} is not a user of this topology")
        by_index = {c.index: c for c in caches}
        if set(by_index) != set(user):
            raise UsageError(
                f"decode needs exactly the caches {user}, got {sorted(by_index)}")
        demand = self._resolve_demand(user, transcript, demand)
        return self._decode(user, by_index, transcript, demand)

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
        return demand

    def _decode(self, user, by_index, transcript, demand) -> BitBlock:
        raise NotImplementedError

    def _accessible_subfiles(self, by_index) -> dict[tuple[int, CacheSet], BitBlock]:
        store: dict[tuple[int, CacheSet], BitBlock] = {}
        for content in by_index.values():
            store.update(content.subfiles)
        return store

    def _local_combination(self, store, coeffs: int, T: CacheSet) -> BitBlock:
        acc = BitBlock.zeros(self.cfg.subfile_bits)
        for i in range(1, self.cfg.num_files + 1):
            if (coeffs >> (i - 1)) & 1:
                block = store.get((i, T))
                if block is None:
                    raise IntegrityError(f"subfile ({i}, {T}) not in reach")
                acc ^= block
        return acc

    def _payload(self, transcript, S: CacheSet) -> BitBlock:
        block = transcript.payloads.get(S)
        if block is None:
            raise IntegrityError(f"transcript lacks the payload for {S}")
        return block

    def _assemble(self, user: CacheSet, store, demand: DemandVector,
                  recovered: Mapping[CacheSet, BitBlock]) -> BitBlock:
        """Stitch the demanded combination back together subfile by subfile."""
        pieces = []
        for T in self.topo.subfile_indices():
            if set(user) & set(T):
                pieces.append(self._local_combination(store, demand.coeffs, T))
            else:
                pieces.append(recovered[T])
        return concat_blocks(pieces).truncate(self.cfg.file_bits)


class SpLfrScheme(Scheme):
    """Threshold-shared superposed keys, masked demands."""

    kind = SchemeKind.SP_LFR

    def _induced_key(self, randomness: ServerRandomness, table: SubfileTable,
                     g: CacheSet, T: CacheSet) -> BitBlock:
        """The mask-induced key: the g-mask combination of subfile index T."""
        acc = BitBlock.zeros(self.cfg.subfile_bits)
        mask = randomness.mask_vectors[g]
        for i in range(1, self.cfg.num_files + 1):
            if (mask >> (i - 1)) & 1:
                acc ^= table.subfile(i, T)
        return acc

    def _place_keys(self, randomness, subfiles, table):
        cfg = self.cfg
        topo = self.topo
        field = cfg.key_field
        r = topo.access_degree
        induced: dict[tuple[CacheSet, CacheSet], BitBlock] = {}
        superposed: dict[tuple[CacheSet, CacheSet], BitBlock] = {}
        key_shares: list[dict[tuple[CacheSet, CacheSet], BitBlock]] = [
            {} for _ in range(topo.num_caches)]
        for g in topo.users():
            for T in topo.subfile_indices():
                if set(g) & set(T):
                    continue
                induced_key = self._induced_key(randomness, table, g, T)
                payload_key = randomness.payload_keys[_merge_disjoint(g, T)]
                superposed_key = induced_key ^ payload_key
                induced[(g, T)] = induced_key
                superposed[(g, T)] = superposed_key
                shares = split(superposed_key, r, field,
                               coefficients=randomness.share_coefficients[(g, T)])
                for c in g:
                    j = share_index_of_cache(g, c)
                    key_shares[c - 1][(g, T)] = shares.share_block(j)
        caches = self._bare_caches(subfiles, key_shares=key_shares)
        return caches, ServerSecrets(randomness, induced, superposed)

    def _deliver(self, secrets, table, by_user):
        randomness = secrets.randomness
        masked = {g: by_user[g].coeffs ^ randomness.mask_vectors[g]
                  for g in self.topo.users()}
        payloads = {}
        for S in self.topo.transmission_indices():
            payloads[S] = (randomness.payload_keys[S]
                           ^ self._combination_payload(table, S, masked))
        return DeliveryTranscript(self.cfg, payloads, masked, {}, None, self._rate())

    def _superposed_from_shares(self, user, by_index, T) -> BitBlock:
        blocks = []
        for c in user:
            block = by_index[c].key_shares.get((user, T))
            if block is None:
                raise IntegrityError(f"cache {c} lacks the share for {(user, T)}")
            blocks.append(block)
        shares = share_set_from_blocks(blocks, self.cfg.key_field,
                                       self.cfg.subfile_bits)
        return reconstruct(shares)

    def _decode(self, user, by_index, transcript, demand):
        store = self._accessible_subfiles(by_index)
        recovered: dict[CacheSet, BitBlock] = {}
        for T in self.topo.subfile_indices():
            if set(user) & set(T):
                continue
            S = _merge_disjoint(user, T)
            acc = self._payload(transcript, S)
            acc ^= self._superposed_from_shares(user, by_index, T)
            for other in combinations(S, self.topo.access_degree):
                if other == user:
                    continue
                rest = tuple(c for c in S if c not in other)
                masked = transcript.masked_demands.get(other)
                if masked is None:
                    raise IntegrityError(f"transcript lacks the masked demand "
                                         f"of {other}")
                acc ^= self._local_combination(store, masked, rest)
            recovered[T] = acc
        return self._assemble(user, store, demand, recovered)


class PLfrScheme(SpLfrScheme):
    """sp-lfr with zero payload keys; optionally a pure broadcast."""

    kind = SchemeKind.P_LFR

    def _place_keys(self, randomness, subfiles, table):
        if self.cfg.broadcast:
            return self._bare_caches(subfiles), ServerSecrets(randomness, {}, {})
        return super()._place_keys(randomness, subfiles, table)

    def _deliver(self, secrets, table, by_user):
        if self.cfg.broadcast:
            files = tuple(table.reassemble(i)
                          for i in range(1, self.cfg.num_files + 1))
            return DeliveryTranscript(self.cfg, {}, {}, {}, files,
                                      Fraction(self.cfg.num_files))
        return super()._deliver(secrets, table, by_user)

    def _decode(self, user, by_index, transcript, demand):
        if self.cfg.broadcast:
            if transcript.broadcast_files is None:
                raise IntegrityError("broadcast transcript lacks the library")
            return linear_combination(demand,
                                      FileLibrary(transcript.broadcast_files))
        return super()._decode(user, by_index, transcript, demand)


class SLfrScheme(Scheme):
    """Whole payload keys in every member cache, cleartext demands."""

    kind = SchemeKind.S_LFR

    def _place_keys(self, randomness, subfiles, table):
        whole: list[dict[CacheSet, BitBlock]] = [
            {} for _ in range(self.topo.num_caches)]
        for S in self.topo.transmission_indices():
            key = randomness.payload_keys[S]
            for c in S:
                whole[c - 1][S] = key
        caches = self._bare_caches(subfiles, whole=whole)
        return caches, ServerSecrets(randomness, {}, {})

    def _deliver(self, secrets, table, by_user):
        randomness = secrets.randomness
        clear = {g: by_user[g].coeffs for g in self.topo.users()}
        payloads = {}
        for S in self.topo.transmission_indices():
            payloads[S] = (randomness.payload_keys[S]
                           ^ self._combination_payload(table, S, clear))
        return DeliveryTranscript(self.cfg, payloads, {}, clear, None, self._rate())

    def _payload_key(self, user, by_index, S: CacheSet) -> BitBlock:
        content = by_index[user[0]]
        key = content.whole_keys.get(S)
        if key is None:
            raise IntegrityError(f"cache {user[0]} lacks the key for {S}")
        return key

    def _decode(self, user, by_index, transcript, demand):
        store = self._accessible_subfiles(by_index)
        recovered: dict[CacheSet, BitBlock] = {}
        for T in self.topo.subfile_indices():
            if set(user) & set(T):
                continue
            S = _merge_disjoint(user, T)
            acc = self._payload(transcript, S) ^ self._payload_key(user, by_index, S)
            for other in combinations(S, self.topo.access_degree):
                if other == user:
                    continue
                rest = tuple(c for c in S if c not in other)
                coeffs = transcript.cleartext_demands.get(other)
                if coeffs is None:
                    raise IntegrityError(f"transcript lacks the demand of {other}")
                acc ^= self._local_combination(store, coeffs, rest)
            recovered[T] = acc
        return self._assemble(user, store, demand, recovered)


class IsLfrScheme(SLfrScheme):
    """s-lfr with MDS-coded key placement: one coded block per member cache."""

    kind = SchemeKind.IS_LFR

    def _place_keys(self, randomness, subfiles, table):
        code = self.cfg.key_code
        coded: list[dict[CacheSet, BitBlock]] = [
            {} for _ in range(self.topo.num_caches)]
        for S in self.topo.transmission_indices():
            blocks = encode_key(randomness.payload_keys[S], code)
            for c in S:
                coded[c - 1][S] = blocks[share_index_of_cache(S, c) - 1]
        caches = self._bare_caches(subfiles, coded=coded)
        return caches, ServerSecrets(randomness, {}, {})

    def _payload_key(self, user, by_index, S):
        code = self.cfg.key_code
        pairs = []
        for c in user:
            block = by_index[c].coded_subkeys.get(S)
            if block is None:
                raise IntegrityError(f"cache {c} lacks its coded block for {S}")
            pairs.append((share_index_of_cache(S, c), block))
        return decode_key(pairs, code, self.cfg.subfile_bits)


class LfrScheme(Scheme):
    """The keyless baseline: plain combination payloads, cleartext demands."""

    kind = SchemeKind.LFR

    def _place_keys(self, randomness, subfiles, table):
        return self._bare_caches(subfiles), ServerSecrets(randomness, {}, {})

    def _deliver(self, secrets, table, by_user):
        clear = {g: by_user[g].coeffs for g in self.topo.users()}
        payloads = {S: self._combination_payload(table, S, clear)
                    for S in self.topo.transmission_indices()}
        return DeliveryTranscript(self.cfg, payloads, {}, clear, None, self._rate())

    def _decode(self, user, by_index, transcript, demand):
        store = self._accessible_subfiles(by_index)
        recovered: dict[CacheSet, BitBlock] = {}
        for T in self.topo.subfile_indices():
            if set(user) & set(T):
                continue
            S = _merge_disjoint(user, T)
            acc = self._payload(transcript, S)
            for other in combinations(S, self.topo.access_degree):
                if other == user:
                    continue
                rest = tuple(c for c in S if c not in other)
                coeffs = transcript.cleartext_demands.get(other)
                if coeffs is None:
                    raise IntegrityError(f"transcript lacks the demand of {other}")
                acc ^= self._local_combination(store, coeffs, rest)
            recovered[T] = acc
        return self._assemble(user, store, demand, recovered)


_SCHEME_CLASSES = {cls.kind: cls for cls in
                   (SpLfrScheme, PLfrScheme, SLfrScheme, IsLfrScheme, LfrScheme)}


def scheme_for(cfg: SchemeConfig) -> Scheme:
    return _SCHEME_CLASSES[cfg.kind](cfg)


def simulate(cfg: SchemeConfig, library: FileLibrary | None = None,
             demands: Sequence[DemandVector] | None = None,
             randomness: ServerRandomness | None = None) -> SimulationResult:
    """One full round: place, deliver, decode every user, compare to truth."""
    scheme = scheme_for(cfg)
    if library is None:
        library = FileLibrary.random(derive_rng(cfg.seed, "library"),
                                     cfg.num_files, cfg.file_bits)
    if demands is None:
        rng = derive_rng(cfg.seed, "demands")
        demands = tuple(DemandVector(g, rng.getrandbits(cfg.num_files),
                                     cfg.num_files)
                        for g in cfg.topo.users())
    placement = scheme.place(library, randomness)
    transcript = scheme.deliver(placement.secrets, placement.table, demands)
    by_user = demands_by_user(demands)
    decoded = {}
    expected = {}
    for g in cfg.topo.users():
        member_caches = [placement.caches[c - 1] for c in g]
        decoded[g] = scheme.decode(g, member_caches, transcript, by_user[g])
        expected[g] = linear_combination(by_user[g], library)
    return SimulationResult(cfg, library, tuple(demands), placement,
                            transcript, decoded, expected)
