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
import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .bits import BitBlock
from .errors import DomainError, IntegrityError, UsageError
from .gf import BinaryField, binary_field, exponent_for_share_count
from .library import (DemandVector, FileLibrary, SubfileTable, demands_by_user,
                      linear_combination, subfile_bit_length, subpacketize)
from .mds import MdsCode, build_code, decode_key, decoding_matrix, encode_key
from .shamir import (canonical_evaluation_points, reconstruct,
                     share_set_from_blocks, split)
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


# ---- per-topology index lists ----

@functools.lru_cache(maxsize=None)
def _indices(topo: TopologySpec) -> tuple[Mapping, Mapping, Mapping]:
    """The index lists every round walks, built once per topology.

    rank maps each subfile index T to its position in lex order.  slots
    maps (g, T), for every user g and subfile index T it does not reach,
    lex in (g, T), to the rank of T and the transmission S = g + T that
    carries g's piece T.  members maps each transmission S, in lex order,
    to the triples (g, S minus g, its rank) of the users g inside S.
    """
    rank = {T: k for k, T in enumerate(topo.subfile_indices())}
    slots = {(g, T): (rank[T], tuple(sorted(g + T)))
             for g in topo.users() for T in topo.subfile_indices()
             if not set(g) & set(T)}
    members = {}
    for S in topo.transmission_indices():
        rests = [(g, tuple(c for c in S if c not in g))
                 for g in combinations(S, topo.access_degree)]
        members[S] = tuple((g, rest, rank[rest]) for g, rest in rests)
    return (MappingProxyType(rank), MappingProxyType(slots),
            MappingProxyType(members))


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

def randomness_order(cfg: SchemeConfig) -> Iterator[tuple[tuple, int]]:
    """Every value the server draws before a round, as (label, bits) in
    the canonical order; draw() takes one getrandbits(bits) per entry.

    Payload keys come first, in lex transmission index, for every kind but
    lfr; p-lfr draws them and then pins them to zero, which keeps the rest
    of its stream aligned with sp-lfr.  Mask vectors follow in lex user,
    then share coefficients in lex (user, index), symbol by symbol and
    blind by blind.
    """
    topo = cfg.topo
    if cfg.kind is not SchemeKind.LFR:
        for S in topo.transmission_indices():
            yield ("key", S), cfg.subfile_bits
    if cfg.kind.masks_demands:
        for g in topo.users():
            yield ("mask", g), cfg.num_files
        l = cfg.key_field.exponent
        blinds = topo.access_degree - 1
        for g, T in _indices(topo)[1]:
            for s in range(cfg.share_block_bits // l):
                for b in range(blinds):
                    yield ("coef", g, T, s, b), l


@dataclass(frozen=True)
class ServerRandomness:
    """Everything the server draws before a round.

    payload_keys has an entry per transmission index for every kind that
    masks payloads (all zero under p-lfr); mask_vectors and
    share_coefficients exist only when demands are masked.  The share
    coefficients of a slot (g, T) are packed as split() takes them: one
    plane per blind, symbol s's coefficient at bits [s l, (s + 1) l).
    """

    payload_keys: Mapping[CacheSet, BitBlock]
    mask_vectors: Mapping[CacheSet, int]
    share_coefficients: Mapping[tuple[CacheSet, CacheSet], tuple[int, ...]]

    @classmethod
    def draw(cls, cfg: SchemeConfig, rng: random.Random) -> "ServerRandomness":
        """Draw every entry of randomness_order(cfg), in that order."""
        return cls._from_entries(cfg, ((label, rng.getrandbits(bits))
                                      for label, bits in randomness_order(cfg)))

    @classmethod
    def _from_entries(cls, cfg: SchemeConfig,
                     values: Iterable[tuple[tuple, int]]) -> "ServerRandomness":
        """Assemble labelled values of randomness_order(cfg) entries.

        Payload keys of a kind without key entropy are zero whether or not
        their entries are given.
        """
        topo = cfg.topo
        kind = cfg.kind
        payload_keys: dict[CacheSet, BitBlock] = {}
        if kind is SchemeKind.P_LFR:
            zero = BitBlock.zeros(cfg.subfile_bits)
            payload_keys = {S: zero for S in topo.transmission_indices()}
        mask_vectors: dict[CacheSet, int] = {}
        planes: dict[tuple[CacheSet, CacheSet], list[int]] = {}
        if kind.masks_demands:
            # Pre-create every slot so that r = 1 (no blinding coefficients
            # at all) still yields the empty plane list split() expects.
            blinds = topo.access_degree - 1
            planes = {slot: [0] * blinds for slot in _indices(topo)[1]}
        l = cfg.key_field.exponent
        for label, value in values:
            tag = label[0]
            if tag == "key":
                if kind.has_payload_keys:
                    payload_keys[label[1]] = BitBlock(value, cfg.subfile_bits)
            elif tag == "mask":
                mask_vectors[label[1]] = value
            else:
                _, g, T, s, b = label
                planes[(g, T)][b] |= value << (s * l)
        share_coefficients = {slot: tuple(p) for slot, p in planes.items()}
        return cls(payload_keys, mask_vectors, share_coefficients)


@dataclass(frozen=True)
class RandomnessLayout:
    """Bit layout of the entropy behind ServerRandomness.

    The verification oracles enumerate server randomness exhaustively; this
    maps an integer to the ServerRandomness it encodes.  Entries are the
    randomness_order() entries that carry entropy, so p-lfr's pinned
    payload keys are left out even though draw() consumes stream bits for
    them.
    """

    cfg: SchemeConfig
    entries: tuple[tuple[tuple, int], ...]
    total_bits: int

    @classmethod
    def for_config(cls, cfg: SchemeConfig) -> "RandomnessLayout":
        entries = tuple((label, bits) for label, bits in randomness_order(cfg)
                        if label[0] != "key" or cfg.kind.has_payload_keys)
        return cls(cfg, entries, sum(bits for _, bits in entries))

    def unpack(self, value: int) -> ServerRandomness:
        if value < 0 or value >> self.total_bits:
            raise DomainError(f"value does not fit in {self.total_bits} bits")
        chunks = []
        for label, bits in self.entries:
            chunks.append((label, value & ((1 << bits) - 1)))
            value >>= bits
        return ServerRandomness._from_entries(self.cfg, chunks)


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
class ServerSecrets:
    """Server-side state that never leaves the server in clear."""

    randomness: ServerRandomness
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
    combines a subfile index's worth of every file at once.  BitBlocks
    appear only where blocks enter and leave.
    """

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        self.topo = cfg.topo
        self.kind = cfg.kind
        self._rank, self._slots, self._members = _indices(cfg.topo)
        self._inverses: dict[tuple[int, ...], tuple] = {}

    @cached_property
    def _weights(self) -> tuple[int, ...]:
        """Lagrange weights at zero of the canonical share points: every
        user's r shares sit at the same points."""
        field = self.cfg.key_field
        return field.lagrange_weights_at_zero(
            canonical_evaluation_points(field, self.topo.access_degree))

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
            sb = table.subfile_bits
            piece = (1 << sb) - 1
            for T, k in self._rank.items():
                for i, image in enumerate(table.images, 1):
                    block = BitBlock((image >> (k * sb)) & piece, sb)
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
        """Store each cache's key material: threshold shares of the
        superposed keys, whole payload keys, MDS-coded ones, or nothing."""
        cfg = self.cfg
        kind = self.kind
        keys = randomness.payload_keys
        caches = range(self.topo.num_caches)
        key_shares: list[dict] = [{} for _ in caches]
        whole: list[dict] = [{} for _ in caches]
        coded: list[dict] = [{} for _ in caches]
        superposed: dict[tuple[CacheSet, CacheSet], BitBlock] = {}
        if kind.masks_demands and not cfg.broadcast:
            field = cfg.key_field
            r = self.topo.access_degree
            sb = table.subfile_bits
            piece = (1 << sb) - 1
            masked = {g: _combination(table.images, mask)
                      for g, mask in randomness.mask_vectors.items()}
            for (g, T), (k, S) in self._slots.items():
                # The g-mask combination of subfile index T, on the key.
                key = BitBlock(_sized(keys[S], sb, "payload key", S)
                               ^ ((masked[g] >> (k * sb)) & piece), sb)
                superposed[(g, T)] = key
                shares = split(key, r, field,
                               coefficients=randomness.share_coefficients[(g, T)])
                for c in g:
                    j = share_index_of_cache(g, c)
                    key_shares[c - 1][(g, T)] = shares.share_block(j)
        elif kind.stores_keys_whole:
            for S in self.topo.transmission_indices():
                for c in S:
                    whole[c - 1][S] = keys[S]
        elif kind.stores_keys_coded:
            for S in self.topo.transmission_indices():
                blocks = encode_key(keys[S], cfg.key_code)
                for c in S:
                    coded[c - 1][S] = blocks[share_index_of_cache(S, c) - 1]
        contents = [CacheContent(c + 1, subfiles[c], key_shares[c], whole[c],
                                 coded[c]) for c in caches]
        return contents, ServerSecrets(randomness, superposed)

    # -- delivery --

    def deliver(self, secrets: ServerSecrets, table: SubfileTable,
                demands: Sequence[DemandVector]) -> DeliveryTranscript:
        cfg = self.cfg
        if ((table.topo, table.file_bits, table.subfile_bits, len(table.images))
                != (self.topo, cfg.file_bits, cfg.subfile_bits, cfg.num_files)):
            raise UsageError("subfile table does not match the configuration")
        by_user = demands_by_user(demands)
        missing = [g for g in self.topo.users() if g not in by_user]
        if missing:
            raise UsageError(f"missing demands for users {missing}")
        for d in demands:
            if d.num_files != cfg.num_files:
                raise UsageError("demand width does not match the library")
        if cfg.broadcast:
            files = tuple(table.reassemble(i)
                          for i in range(1, cfg.num_files + 1))
            return DeliveryTranscript(cfg, {}, {}, {}, files)
        randomness = secrets.randomness
        if self.kind.masks_demands:
            sent = {g: by_user[g].coeffs ^ randomness.mask_vectors[g]
                    for g in self.topo.users()}
        else:
            sent = {g: by_user[g].coeffs for g in self.topo.users()}
        # Per S: its key, then over users g inside S the
        # g-sent combination of the subfile indexed by S minus g.
        sb = table.subfile_bits
        piece = (1 << sb) - 1
        combos = {g: _combination(table.images, coeffs)
                  for g, coeffs in sent.items()}
        keyed = self.kind.has_payload_keys  # p-lfr's keys are all zero
        payloads = {}
        for S, members in self._members.items():
            acc = (_sized(randomness.payload_keys[S], sb, "payload key", S)
                   if keyed else 0)
            for g, _, k in members:
                acc ^= (combos[g] >> (k * sb)) & piece
            payloads[S] = BitBlock(acc, sb)
        masked, clear = (sent, {}) if self.kind.masks_demands else ({}, sent)
        return DeliveryTranscript(cfg, payloads, masked, clear, None)

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
        if self.cfg.broadcast:
            if transcript.broadcast_files is None:
                raise IntegrityError("broadcast transcript lacks the library")
            return linear_combination(demand,
                                      FileLibrary(transcript.broadcast_files))
        masks = self.kind.masks_demands
        sent = transcript.masked_demands if masks else transcript.cleartext_demands
        sb = self.cfg.subfile_bits
        piece = (1 << sb) - 1
        images, lacking = self._reach(by_index.values())
        # Combinations by coefficient vector, for this call only: another
        # user's vector recurs on every transmission the two share.
        combos: dict[int, int] = {}
        own = demand.coeffs
        value = 0
        reached = 0  # the bits of the pieces the user's caches hold
        for T, k in self._rank.items():
            slot = self._slots.get((user, T))
            if slot is None:
                if own & lacking[k]:
                    _unreachable(own & lacking[k], T)
                reached |= piece << (k * sb)
                continue
            # payload ^ key ^ the other users' combinations leaves the piece.
            S = slot[1]
            payload = transcript.payloads.get(S)
            if payload is None:
                raise IntegrityError(f"transcript lacks the payload for {S}")
            key = self._user_key(user, by_index, S, T)
            acc = _sized(payload, sb, "payload", S)
            if key is not None:
                acc ^= _sized(key, sb, "key of payload", S)
            for other, rest, j in self._members[S]:
                if other == user:
                    continue
                coeffs = sent.get(other)
                if coeffs is None:
                    what = "masked demand" if masks else "demand"
                    raise IntegrityError(f"transcript lacks the {what} of {other}")
                if coeffs & lacking[j]:
                    _unreachable(coeffs & lacking[j], rest)
                combo = combos.get(coeffs)
                if combo is None:
                    combo = combos[coeffs] = _combination(images, coeffs)
                acc ^= (combo >> (j * sb)) & piece
            value |= acc << (k * sb)
        value |= _combination(images, own) & reached
        bits = self.cfg.file_bits
        return BitBlock(value & ((1 << bits) - 1), bits)

    def _reach(self, contents: Iterable[CacheContent]
               ) -> tuple[list[int], list[int]]:
        """The subfiles the caches hold, as one image per file (rank k at
        k * subfile_bits), and per rank the files they lack, one bit per
        file.  A later cache's copy wins, as in a merged store."""
        store: dict[tuple[int, CacheSet], BitBlock] = {}
        for content in contents:
            store.update(content.subfiles)
        sb = self.cfg.subfile_bits
        n = self.cfg.num_files
        rank = self._rank
        images = [0] * n
        held = [0] * len(rank)
        for (i, T), block in store.items():
            k = rank.get(T)
            if k is None or not 1 <= i <= n:
                continue
            if block.length != sb:
                raise UsageError(f"subfile ({i}, {T}) has {block.length} bits, "
                                 f"expected {sb}")
            images[i - 1] |= block.value << (k * sb)
            held[k] |= 1 << (i - 1)
        every = (1 << n) - 1
        return images, [every ^ h for h in held]

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

    def _user_key(self, user: CacheSet, by_index: Mapping[int, CacheContent],
                  S: CacheSet, T: CacheSet) -> BitBlock | None:
        """The key on payload S as the user's caches hold it: reconstructed
        from threshold shares, read whole, or MDS decoded; None for lfr."""
        cfg = self.cfg
        if self.kind.masks_demands:
            blocks = [_held(by_index[c].key_shares, (user, T), c) for c in user]
            return reconstruct(share_set_from_blocks(blocks, cfg.key_field,
                                                     cfg.subfile_bits),
                               self._weights)
        if self.kind.stores_keys_whole:
            return _held(by_index[user[0]].whole_keys, S, user[0])
        if self.kind.stores_keys_coded:
            pairs = [(share_index_of_cache(S, c),
                      _held(by_index[c].coded_subkeys, S, c)) for c in user]
            positions = tuple(p for p, _ in pairs)
            inverse = self._inverses.get(positions)
            if inverse is None:
                inverse = self._inverses[positions] = decoding_matrix(
                    cfg.key_code, positions)
            return decode_key(pairs, cfg.key_code, cfg.subfile_bits, inverse)
        return None


def _unreachable(missing: int, T: CacheSet) -> None:
    """Raise for the lowest file in the bit mask `missing` at index T."""
    i = (missing & -missing).bit_length()
    raise IntegrityError(f"subfile ({i}, {T}) not in reach")


def _held(store: Mapping, label, cache: int) -> BitBlock:
    block = store.get(label)
    if block is None:
        raise IntegrityError(f"cache {cache} lacks the key material for {label}")
    return block


def simulate(cfg: SchemeConfig, library: FileLibrary | None = None,
             demands: Sequence[DemandVector] | None = None,
             randomness: ServerRandomness | None = None) -> SimulationResult:
    """One full round: place, deliver, decode every user, compare to truth."""
    scheme = Scheme(cfg)
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
