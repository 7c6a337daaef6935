"""Serialization of simulation artifacts.

Two formats: a compact binary container holding the configuration, every
cache's contents, and the delivery transcript; and a JSON rendering of the
same data with hex-encoded blocks for eyeballing.  Both walk one table of
sections, SECTIONS, so they carry the same entries.  Both are byte-exact
functions of their inputs (entries are written in canonical sorted order,
block padding bits are zero), so identical (config, seed) runs serialize
identically.

Each section is rendered in one step.  Its entries are sorted once and
split into columns, one per key field plus the blocks; each column is
encoded at once, a distinct cache subset once per artifact.  The binary
writer then joins each entry's encoded fields into one bytes; the JSON
writer fills one template of the whole section with a single %, and
joins the whole document once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Sequence

from .bits import BitBlock
from .errors import DomainError, IntegrityError, UsageError
from .schemes import (CacheContent, DeliveryTranscript, SchemeConfig, SchemeKind,
                      SimulationResult)
from .topology import CacheSet, TopologySpec

MAGIC = b"MALF"
VERSION = 1
# After the magic and the "H" version: kind code, broadcast flag, C, r, t,
# N, F and seed.  Then the "H" cache count, and per cache its "H" index.
_HEADER = "BBHHHIQQ"

# The sections in file order: each cache's four stores, then the four parts
# of the delivery.  Each is named after its CacheContent or
# DeliveryTranscript attribute and its JSON key, and lists its key fields;
# the third column marks values held as N-bit ints, written as N-bit
# blocks.  A section is an "I" count, then per entry in sorted key order
# its key fields and its block, a "Q" bit length and the bytes.  A "file"
# field is an "I"; every other field is a cache subset, a "B" size and
# that many "H" members.  A one-field key is the bare field.  A keyless
# section is a list kept in order, None when empty.
SECTIONS = (
    ("subfiles", ("file", "T"), False),
    ("key_shares", ("user", "T"), False),
    ("whole_keys", ("S",), False),
    ("coded_subkeys", ("S",), False),
    ("payloads", ("S",), False),
    ("masked_demands", ("user",), True),
    ("cleartext_demands", ("user",), True),
    ("broadcast_files", (), False),
)
_CACHE_SECTIONS = SECTIONS[:4]
_DELIVERY_SECTIONS = SECTIONS[4:]

_KIND_CODES = {kind: i for i, kind in enumerate(SchemeKind)}
_KIND_FROM_CODE = {i: kind for kind, i in _KIND_CODES.items()}


@dataclass(frozen=True)
class SimulationArtifact:
    cfg: SchemeConfig
    caches: tuple[CacheContent, ...]
    transcript: DeliveryTranscript


def _columns(holder, name: str, fields: tuple[str, ...], ints: bool,
             num_files: int) -> tuple[list, list[BitBlock]]:
    """One section's entries in file order, sorted once: a column of
    values per key field, and the column of blocks."""
    values = getattr(holder, name)
    if not fields:
        return [], list(values or ())
    keys = sorted(values)
    blocks = list(map(values.__getitem__, keys))
    if ints:
        blocks = [BitBlock(v, num_files) for v in blocks]
    if len(fields) == 1:
        return [keys], blocks
    return list(zip(*keys)) or [()] * len(fields), blocks


def _memo(column, memo: dict, render) -> list:
    """The column rendered value by value, each distinct value once per memo."""
    for value in set(column).difference(memo):
        memo[value] = render(value)
    return list(map(memo.__getitem__, column))


# ---- binary container ----

_U16 = struct.Struct("<H").pack
_U32 = struct.Struct("<I").pack
_U64 = struct.Struct("<Q").pack


def _write(parts: list[bytes], holder, name, fields, ints, num_files,
           subsets: dict[CacheSet, bytes]) -> None:
    """One section, field by field: each key field and block is encoded
    as a column, then each entry goes in as one joined bytes.  subsets
    holds each cache subset's packing, once per artifact."""
    columns, blocks = _columns(holder, name, fields, ints, num_files)
    encoded = [
        list(map(_U32, column)) if f == "file" else _memo(
            column, subsets,
            lambda s: struct.pack("<B%dH" % len(s), len(s), *s))
        for f, column in zip(fields, columns)]
    encoded.append([_U64(b.length) + b.to_bytes() for b in blocks])
    parts.append(_U32(len(blocks)))
    parts.extend(map(b"".join, zip(*encoded)))


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = len(MAGIC)

    def unpack(self, fmt: str):
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise IntegrityError("truncated artifact")
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values if len(values) > 1 else values[0]

    def field(self, name: str):
        if name == "file":
            return self.unpack("I")
        return tuple(self.unpack("H") for _ in range(self.unpack("B")))

    def block(self) -> BitBlock:
        length = self.unpack("Q")
        nbytes = (length + 7) // 8
        if self.pos + nbytes > len(self.data):
            raise IntegrityError("truncated artifact")
        raw = self.data[self.pos:self.pos + nbytes]
        self.pos += nbytes
        return BitBlock.from_bytes(raw, length)

    def section(self, fields: tuple[str, ...], ints: bool):
        count = self.unpack("I")
        if not fields:
            return tuple(self.block() for _ in range(count)) or None
        entries = {}
        for _ in range(count):
            key = tuple(self.field(f) for f in fields)
            b = self.block()
            entries[key if len(key) > 1 else key[0]] = b.value if ints else b
        return entries


def artifact_to_bytes(cfg: SchemeConfig, caches: Sequence[CacheContent],
                      transcript: DeliveryTranscript) -> bytes:
    topo = cfg.topo
    parts = [MAGIC,
             struct.pack("<H" + _HEADER, VERSION, _KIND_CODES[cfg.kind],
                         int(cfg.broadcast), topo.num_caches,
                         topo.access_degree, topo.replication,
                         cfg.num_files, cfg.file_bits, cfg.seed),
             _U16(len(caches))]
    subsets: dict[CacheSet, bytes] = {}
    for cache in caches:
        parts.append(_U16(cache.index))
        for section in _CACHE_SECTIONS:
            _write(parts, cache, *section, cfg.num_files, subsets)
    for section in _DELIVERY_SECTIONS:
        _write(parts, transcript, *section, cfg.num_files, subsets)
    return b"".join(parts)


def artifact_from_bytes(data: bytes) -> SimulationArtifact:
    r = _Reader(data)
    if data[:len(MAGIC)] != MAGIC:
        raise IntegrityError("bad magic; not a simulation artifact")
    version = r.unpack("H")
    if version != VERSION:
        raise IntegrityError(f"unsupported artifact version {version}")
    code, broadcast, C, ar, t, N, F, seed = r.unpack(_HEADER)
    kind = _KIND_FROM_CODE.get(code)
    if kind is None:
        raise IntegrityError("unknown scheme kind code")
    if broadcast not in (0, 1):
        raise IntegrityError(f"broadcast flag {broadcast} is neither 0 nor 1")
    try:
        cfg = SchemeConfig(TopologySpec(C, ar, t), N, F, kind, seed,
                           bool(broadcast))
    except (DomainError, UsageError) as exc:
        raise IntegrityError(f"header describes no valid configuration: "
                             f"{exc}") from exc
    caches = []
    for _ in range(r.unpack("H")):
        index = r.unpack("H")
        caches.append(CacheContent(index, **{
            name: r.section(fields, ints)
            for name, fields, ints in _CACHE_SECTIONS}))
    delivery = {name: r.section(fields, ints)
                for name, fields, ints in _DELIVERY_SECTIONS}
    if r.pos != len(data):
        raise IntegrityError("trailing bytes after artifact")
    if (cfg.broadcast != (delivery["broadcast_files"] is not None)
            or (cfg.broadcast and delivery["payloads"])):
        raise IntegrityError("the broadcast flag disagrees with the "
                             "transcript body")
    return SimulationArtifact(cfg, tuple(caches),
                              DeliveryTranscript(cfg, **delivery))


# ---- JSON rendering ----
#
# The text json.dumps(doc, indent=2, sort_keys=True) gives for the artifact
# document, written without building the document: json's C encoder takes
# no indent, and the pure-Python one walks every entry's dict.  Each value
# is rendered at its indent, pad, as a list of fragments, and the document
# is joined once.  A section is rendered in one step: a column of text per
# member of its entries fills one template of the whole section.

def _json_list(rows: Sequence[list[str]], pad: str,
               brackets: str = "[]") -> list[str]:
    """The rows, each a list of fragments, as one list of fragments."""
    if not rows:
        return [brackets]
    inner = "\n" + pad + "  "
    out = [brackets[0] + inner]
    for row in rows:
        out += row
        out.append("," + inner)
    out[-1] = "\n" + pad + brackets[1]
    return out


def _json_object(members: dict[str, list[str]], pad: str) -> list[str]:
    return _json_list([[f'"{k}": ', *v] for k, v in sorted(members.items())],
                      pad, "{}")


def _json_section(holder, name, fields, ints, num_files, pad,
                  subsets: dict[str, dict[CacheSet, str]]) -> str:
    """One section's entries; subsets holds, per indent, each cache
    subset's list as rendered there, once per subset and indent."""
    columns, blocks = _columns(holder, name, fields, ints, num_files)
    if not blocks:
        return "[]"
    field_pad = pad + "    "
    memo = subsets.setdefault(field_pad, {})
    members = {"bits": [b.length for b in blocks],
               "hex": [b.to_bytes().hex() for b in blocks]}
    for f, column in zip(fields, columns):
        members[f] = column if f == "file" else _memo(
            column, memo,
            lambda s: "".join(_json_list([[str(c)] for c in s], field_pad)))
    row = "".join(_json_object({f: ['"%s"' if f == "hex" else "%s"]
                                for f in members}, pad + "  "))
    # The section's template lays the entries out as _json_list does rows;
    # the members' values go in interleaved, in the row's sorted order.
    inner = "\n" + pad + "  "
    template = ("[" + inner + ("," + inner).join([row] * len(blocks))
                + "\n" + pad + "]")
    order = sorted(members)
    values = [None] * (len(order) * len(blocks))
    for i, f in enumerate(order):
        values[i::len(order)] = members[f]
    return template % tuple(values)


def artifact_to_json(cfg: SchemeConfig, caches: Sequence[CacheContent],
                     transcript: DeliveryTranscript) -> str:
    N = cfg.num_files
    rate = transcript.rate
    subsets: dict[str, dict[CacheSet, str]] = {}
    config = {"scheme": cfg.kind.value, "C": cfg.topo.num_caches,
              "r": cfg.topo.access_degree, "t": cfg.topo.replication,
              "N": N, "F": cfg.file_bits, "seed": cfg.seed,
              "broadcast": cfg.broadcast}
    caches_text = _json_list([_json_object({
        "index": [str(cache.index)],
        **{s[0]: [_json_section(cache, *s, N, " " * 6, subsets)]
           for s in _CACHE_SECTIONS}}, " " * 4) for cache in caches], "  ")
    delivery = _json_object({
        "rate": [f'"{rate.numerator}/{rate.denominator}"'],
        **{s[0]: [_json_section(transcript, *s, N, " " * 4, subsets)]
           for s in _DELIVERY_SECTIONS}}, "  ")
    doc = _json_object({
        "format": ['"maclfr-artifact"'],
        "version": [str(VERSION)],
        "config": _json_object({k: [json.dumps(v)]
                                for k, v in config.items()}, "  "),
        "caches": caches_text,
        "delivery": delivery}, "")
    doc.append("\n")
    return "".join(doc)


def simulation_to_bytes(result: SimulationResult) -> bytes:
    return artifact_to_bytes(result.cfg, result.placement.caches,
                             result.transcript)


def simulation_to_json(result: SimulationResult) -> str:
    return artifact_to_json(result.cfg, result.placement.caches,
                            result.transcript)
