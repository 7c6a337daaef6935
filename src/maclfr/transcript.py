"""Serialization of simulation artifacts.

Two formats: a compact binary container holding the configuration, every
cache's contents, and the delivery transcript; and a JSON rendering of the
same data with hex-encoded blocks for eyeballing.  Both are byte-exact
functions of their inputs (entries are written in canonical sorted order,
block padding bits are zero), so identical (config, seed) runs serialize
identically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bits import BitBlock
from .errors import IntegrityError
from .schemes import (CacheContent, DeliveryTranscript, SchemeConfig, SchemeKind,
                      SimulationResult)
from .topology import CacheSet, TopologySpec

MAGIC = b"MALF"
VERSION = 1
# After the magic and the "H" version: kind code, broadcast flag, C, r, t,
# N, F and seed.
_HEADER = "BBHHHIQQ"

_KIND_CODES = {kind: i for i, kind in enumerate(SchemeKind)}
_KIND_FROM_CODE = {i: kind for kind, i in _KIND_CODES.items()}


@dataclass(frozen=True)
class SimulationArtifact:
    cfg: SchemeConfig
    caches: tuple[CacheContent, ...]
    transcript: DeliveryTranscript


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def pack(self, fmt: str, *values) -> None:
        self.parts.append(struct.pack("<" + fmt, *values))

    def subset(self, s: CacheSet) -> None:
        self.parts.append(struct.pack("<B%dH" % len(s), len(s), *s))

    def block(self, b: BitBlock) -> None:
        self.pack("Q", b.length)
        self.parts.append(b.to_bytes())

    def done(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise IntegrityError("truncated artifact")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values if len(values) > 1 else values[0]

    def subset(self) -> CacheSet:
        size = self.unpack("B")
        return tuple(self.unpack("H") for _ in range(size))

    def block(self) -> BitBlock:
        length = self.unpack("Q")
        nbytes = (length + 7) // 8
        if self.pos + nbytes > len(self.data):
            raise IntegrityError("truncated artifact")
        raw = self.data[self.pos:self.pos + nbytes]
        self.pos += nbytes
        return BitBlock.from_bytes(raw, length)


def artifact_to_bytes(cfg: SchemeConfig, caches: Sequence[CacheContent],
                      transcript: DeliveryTranscript) -> bytes:
    w = _Writer()
    w.parts.append(MAGIC)
    topo = cfg.topo
    w.pack("H" + _HEADER, VERSION, _KIND_CODES[cfg.kind], int(cfg.broadcast),
           topo.num_caches, topo.access_degree, topo.replication,
           cfg.num_files, cfg.file_bits, cfg.seed)

    w.pack("H", len(caches))
    for cache in caches:
        w.pack("H", cache.index)
        w.pack("I", len(cache.subfiles))
        for (i, T) in sorted(cache.subfiles):
            w.pack("I", i)
            w.subset(T)
            w.block(cache.subfiles[(i, T)])
        w.pack("I", len(cache.key_shares))
        for (g, T) in sorted(cache.key_shares):
            w.subset(g)
            w.subset(T)
            w.block(cache.key_shares[(g, T)])
        w.pack("I", len(cache.whole_keys))
        for S in sorted(cache.whole_keys):
            w.subset(S)
            w.block(cache.whole_keys[S])
        w.pack("I", len(cache.coded_subkeys))
        for S in sorted(cache.coded_subkeys):
            w.subset(S)
            w.block(cache.coded_subkeys[S])

    w.pack("I", len(transcript.payloads))
    for S in sorted(transcript.payloads):
        w.subset(S)
        w.block(transcript.payloads[S])
    w.pack("I", len(transcript.masked_demands))
    for g in sorted(transcript.masked_demands):
        w.subset(g)
        w.block(BitBlock(transcript.masked_demands[g], cfg.num_files))
    w.pack("I", len(transcript.cleartext_demands))
    for g in sorted(transcript.cleartext_demands):
        w.subset(g)
        w.block(BitBlock(transcript.cleartext_demands[g], cfg.num_files))
    files = transcript.broadcast_files or ()
    w.pack("I", len(files))
    for f in files:
        w.block(f)
    return w.done()


def artifact_from_bytes(data: bytes) -> SimulationArtifact:
    r = _Reader(data)
    if r.data[:4] != MAGIC:
        raise IntegrityError("bad magic; not a simulation artifact")
    r.pos = 4
    version = r.unpack("H")
    if version != VERSION:
        raise IntegrityError(f"unsupported artifact version {version}")
    code, broadcast, C, ar, t, N, F, seed = r.unpack(_HEADER)
    kind = _KIND_FROM_CODE.get(code)
    if kind is None:
        raise IntegrityError("unknown scheme kind code")
    cfg = SchemeConfig(TopologySpec(C, ar, t), N, F, kind, seed,
                       bool(broadcast))

    cache_count = r.unpack("H")
    caches = []
    for _ in range(cache_count):
        index = r.unpack("H")
        subfiles = {}
        for _ in range(r.unpack("I")):
            i = r.unpack("I")
            T = r.subset()
            subfiles[(i, T)] = r.block()
        key_shares = {}
        for _ in range(r.unpack("I")):
            g = r.subset()
            T = r.subset()
            key_shares[(g, T)] = r.block()
        whole = {}
        for _ in range(r.unpack("I")):
            S = r.subset()
            whole[S] = r.block()
        coded = {}
        for _ in range(r.unpack("I")):
            S = r.subset()
            coded[S] = r.block()
        caches.append(CacheContent(index, subfiles, key_shares, whole, coded))

    payloads = {}
    for _ in range(r.unpack("I")):
        S = r.subset()
        payloads[S] = r.block()
    masked = {}
    for _ in range(r.unpack("I")):
        g = r.subset()
        masked[g] = r.block().value
    clear = {}
    for _ in range(r.unpack("I")):
        g = r.subset()
        clear[g] = r.block().value
    broadcast_files = tuple(r.block() for _ in range(r.unpack("I")))
    if r.pos != len(r.data):
        raise IntegrityError("trailing bytes after artifact")
    rate = (Fraction(cfg.num_files) if broadcast
            else Fraction(cfg.topo.num_transmissions,
                          cfg.topo.num_subfile_indices))
    transcript = DeliveryTranscript(cfg, payloads, masked, clear,
                                    broadcast_files or None, rate)
    return SimulationArtifact(cfg, tuple(caches), transcript)


# ---- JSON rendering ----

def _block_json(b: BitBlock) -> dict:
    return {"bits": b.length, "hex": b.to_bytes().hex()}


def artifact_to_json(cfg: SchemeConfig, caches: Sequence[CacheContent],
                     transcript: DeliveryTranscript) -> str:
    doc = {
        "format": "maclfr-artifact",
        "version": VERSION,
        "config": {
            "scheme": cfg.kind.value,
            "C": cfg.topo.num_caches,
            "r": cfg.topo.access_degree,
            "t": cfg.topo.replication,
            "N": cfg.num_files,
            "F": cfg.file_bits,
            "seed": cfg.seed,
            "broadcast": cfg.broadcast,
        },
        "caches": [
            {
                "index": cache.index,
                "subfiles": [
                    {"file": i, "T": list(T), **_block_json(b)}
                    for (i, T), b in sorted(cache.subfiles.items())],
                "key_shares": [
                    {"user": list(g), "T": list(T), **_block_json(b)}
                    for (g, T), b in sorted(cache.key_shares.items())],
                "whole_keys": [
                    {"S": list(S), **_block_json(b)}
                    for S, b in sorted(cache.whole_keys.items())],
                "coded_subkeys": [
                    {"S": list(S), **_block_json(b)}
                    for S, b in sorted(cache.coded_subkeys.items())],
            }
            for cache in caches],
        "delivery": {
            "rate": f"{transcript.rate.numerator}/{transcript.rate.denominator}",
            "payloads": [
                {"S": list(S), **_block_json(b)}
                for S, b in sorted(transcript.payloads.items())],
            "masked_demands": [
                {"user": list(g), **_block_json(BitBlock(v, cfg.num_files))}
                for g, v in sorted(transcript.masked_demands.items())],
            "cleartext_demands": [
                {"user": list(g), **_block_json(BitBlock(v, cfg.num_files))}
                for g, v in sorted(transcript.cleartext_demands.items())],
            "broadcast_files": [
                _block_json(b) for b in (transcript.broadcast_files or ())],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def simulation_to_bytes(result: SimulationResult) -> bytes:
    return artifact_to_bytes(result.cfg, result.placement.caches,
                             result.transcript)


def simulation_to_json(result: SimulationResult) -> str:
    return artifact_to_json(result.cfg, result.placement.caches,
                            result.transcript)
