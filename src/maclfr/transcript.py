"""Serialization of simulation artifacts.

Two formats: a compact binary container holding the configuration, every
cache's contents, and the delivery transcript; and a JSON rendering of the
same data with hex-encoded blocks for eyeballing.  Both walk one table of
sections, SECTIONS, so they carry the same entries.  Both are byte-exact
functions of their inputs (entries are written in canonical sorted order,
block padding bits are zero), so identical (config, seed) runs serialize
identically.

Each section is rendered in one step from its placing: the places that
sort its entries, and per key field its distinct values and each entry's
place among them, so a distinct value is encoded once (a cache subset
once per artifact) and each column is one gather.  The render plan holds,
per topology and file count, the placing of each store placement fills.
Any store keyed otherwise (subfiles read back in sorted order, stores
built by hand, a label missing or foreign) and every delivery section is
placed afresh, its keys sorted once.  A binary entry is joined into one
bytes, a JSON section from one list of fragments.
"""

from __future__ import annotations

import functools
import json
import struct
from array import array
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .bits import BitBlock
from .errors import DomainError, IntegrityError, UsageError
from .indexing import _store_labels
from .rows import _gather
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


def _placing(labels: Sequence, width: int) -> tuple:
    """A store's placing, keyed by the labels in their order: (labels,
    order, columns), order the places that sort them, None if sorted, and
    per key field of width, its distinct values, sorted, and their places."""
    code = "H" if len(labels) <= 1 << 16 else "I"
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = [labels[at] for at in order]
    columns = []
    for column in [keys] if width == 1 else zip(*keys):
        distinct = sorted(set(column))
        at = {value: k for k, value in enumerate(distinct)}
        columns.append((distinct, array(code, map(at.__getitem__, column))))
    return (labels, None if order == list(range(len(labels)))
            else array(code, order), columns)


@functools.lru_cache(maxsize=None)
def _render_plan(topo: TopologySpec, num_files: int) -> tuple[tuple, ...]:
    """Per cache, the placings of the stores placement fills, as arrays."""
    return tuple(zip(*([_placing(labels, len(fields)) for labels in
                        _store_labels(topo, num_files, name)]
                       for name, fields, _ in _CACHE_SECTIONS)))


def _plan_for(cfg: SchemeConfig, caches: Sequence[CacheContent]) -> tuple:
    """The render plan's placings per cache for caches in place that hold at
    least its N t C(C, t) subfile labels and C(C, r) C(C - r, t) slots."""
    C, r, t = cfg.topo.num_caches, cfg.topo.access_degree, cfg.topo.replication
    held = [len(getattr(c, s[0])) for c in caches for s in _CACHE_SECTIONS]
    if [c.index for c in caches] != list(range(1, C + 1)) or sum(held) < max(
            cfg.num_files * t * comb(C, t), comb(C, r) * comb(C - r, t)):
        return ((None,) * len(_CACHE_SECTIONS),) * len(caches)
    return _render_plan(cfg.topo, cfg.num_files)


def _columns(holder, name: str, fields: tuple[str, ...], ints: bool,
             num_files: int, placing: tuple | None) -> tuple[list, list]:
    """A section's key columns and blocks in file order: by the placing if
    the store holds just its labels, in their order, else by a fresh one."""
    values = getattr(holder, name)
    if not fields:
        return [], list(values or ())
    if placing is None or tuple(values) != placing[0]:
        placing = _placing(tuple(values), len(fields))
    _, order, columns = placing
    blocks = (list(values.values()) if order is None
              else _gather(list(values.values()), order))
    if ints:
        blocks = [BitBlock(v, num_files) for v in blocks]
    return columns, blocks


def _memo(values, memo: dict, render) -> list:
    """Distinct values rendered, each once per memo."""
    return [memo[v] if v in memo else memo.setdefault(v, render(v))
            for v in values]


# ---- binary container ----

_U16 = struct.Struct("<H").pack
_U32 = struct.Struct("<I").pack
_U64 = struct.Struct("<Q").pack


def _write(parts: list[bytes], holder, name, fields, ints, num_files,
           subsets: dict[CacheSet, bytes], placing=None) -> None:
    """One section, field by field: each key field and block is encoded
    as a column, then each entry goes in as one joined bytes.  subsets
    holds each cache subset's packing, once per artifact."""
    columns, blocks = _columns(holder, name, fields, ints, num_files, placing)
    encoded = [_gather(
        list(map(_U32, values)) if f == "file" else _memo(
            values, subsets,
            lambda s: struct.pack("<B%dH" % len(s), len(s), *s)), places)
        for f, (values, places) in zip(fields, columns)]
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

    def block(self, width: int | None) -> BitBlock:
        length = self.unpack("Q")
        if width not in (None, length):
            raise IntegrityError(f"a block of {length} bits, not {width}")
        nbytes = (length + 7) // 8
        if self.pos + nbytes > len(self.data):
            raise IntegrityError("truncated artifact")
        raw = self.data[self.pos:self.pos + nbytes]
        self.pos += nbytes
        return BitBlock.from_bytes(raw, length)

    def section(self, fields: tuple[str, ...], ints: bool, cfg: SchemeConfig):
        """One section's entries: demands of N bits, broadcast files of F."""
        n = self.unpack("I")
        if not fields:
            return tuple(self.block(cfg.file_bits) for _ in range(n)) or None
        entries = {}
        for _ in range(n):
            key = tuple(self.field(f) for f in fields)
            b = self.block(cfg.num_files if ints else None)
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
    for cache, placings in zip(caches, _plan_for(cfg, caches)):
        parts.append(_U16(cache.index))
        for section, placing in zip(_CACHE_SECTIONS, placings):
            _write(parts, cache, *section, cfg.num_files, subsets, placing)
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
            name: r.section(fields, ints, cfg)
            for name, fields, ints in _CACHE_SECTIONS}))
    delivery = {name: r.section(fields, ints, cfg)
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
# member of its entries is interleaved with the text of a row around them.

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
                  subsets: dict[str, dict[CacheSet, str]], placing=None) -> str:
    """One section's entries; subsets holds, per indent, each cache
    subset's list as rendered there, once per subset and indent."""
    columns, blocks = _columns(holder, name, fields, ints, num_files, placing)
    if not blocks:
        return "[]"
    field_pad = pad + "    "
    memo = subsets.setdefault(field_pad, {})
    members = {"bits": [str(b.length) for b in blocks],
               "hex": [b.to_bytes().hex() for b in blocks]}
    for f, (values, places) in zip(fields, columns):
        members[f] = _gather(list(map(str, values)) if f == "file" else _memo(
            values, memo,
            lambda s: "".join(_json_list([[str(c)] for c in s], field_pad))),
            places)
    # The section as one list of fragments: a row's text, split around its
    # members' values in sorted order, laid out as _json_list lays out rows.
    order, inner = sorted(members), "\n" + pad + "  "
    text = "".join(_json_object({f: ['"\0"' if f == "hex" else "\0"]
                                 for f in order}, pad + "  ")).split("\0")
    text[-1], close = text[-1] + "," + inner, text[-1] + "\n" + pad + "]"
    step = 2 * len(order) + 1
    out = [None] * (step * len(blocks))
    for i in range(step):
        out[i::step] = (members[order[i // 2]] if i % 2
                        else [text[i // 2]] * len(blocks))
    out[0], out[-1] = "[" + inner + out[0], close
    return "".join(out)


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
        **{s[0]: [_json_section(cache, *s, N, " " * 6, subsets, placing)]
           for s, placing in zip(_CACHE_SECTIONS, placings)}}, " " * 4)
        for cache, placings in zip(caches, _plan_for(cfg, caches))], "  ")
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
