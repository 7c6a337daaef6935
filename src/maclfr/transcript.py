"""Serialization of simulation artifacts.

Two formats carry a round's configuration, every cache's contents and the
delivery transcript.  transcript.bin is packed rows: per cache its subfile
row and its key row as Scheme._cache_rows packs them, then the payload
row and the sent row of Scheme._transcript_rows, so it holds exactly the
rounds Scheme.decode accepts, and reading it back cuts each row by the
store labels that placement and delivery cut it by.  transcript.json is
per label, with hex-encoded blocks for eyeballing: a store held as its
row is rendered from one conversion of the row to bytes, each block
padded to whole bytes, and any other store block by block.  Both are
byte-exact functions of their inputs (rows and blocks are zero padded,
JSON entries written in canonical sorted order), so identical (config,
seed) runs serialize identically.

Each JSON section is rendered in one step from its placing: the places
that sort its entries, and per key field its distinct values and each
entry's place among them, so a distinct value is rendered once (a cache
subset once per indent) and each column is one gather.  The render plan
holds, per topology and file count, the placing of each store placement
fills.  Any store keyed otherwise (stores built by hand, a label missing
or foreign) and every delivery section is placed afresh, its keys sorted
once, and a section is joined from one list of fragments.
"""

from __future__ import annotations

import functools
import json
import struct
from array import array
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Sequence

from .bits import BitBlock
from .errors import DomainError, IntegrityError, UsageError
from .indexing import _store_labels
from .rows import _cut, _gather, _join
from .schemes import (CacheContent, DeliveryTranscript, Scheme, SchemeConfig,
                      SchemeKind, SimulationResult, _blocks, _library,
                      _Store)
from .topology import CacheSet, TopologySpec

MAGIC = b"MALF"
VERSION = 2
# transcript.json keeps its own version: its layout has not changed.
JSON_VERSION = 1
# After the magic: the version, kind code, broadcast flag, C, r, t, N, F,
# seed and the cache count, C.  The rows start at _ROWS.
_HEADER = struct.Struct("<HBBHHHIQQH")
_ROWS = len(MAGIC) + _HEADER.size

# The JSON document's sections in order: each cache's four stores, then
# the four parts of the delivery.  Each is named after its CacheContent or
# DeliveryTranscript attribute and its JSON key, and lists its key fields;
# the third column marks values held as N-bit ints, rendered as N-bit
# blocks.  A "file" field is an int and every other field a cache subset;
# a one-field key is the bare field.  A keyless section is a list kept in
# order, None when empty.
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

_KINDS = tuple(SchemeKind)  # by their code


@dataclass(frozen=True)
class SimulationArtifact:
    cfg: SchemeConfig
    caches: tuple[CacheContent, ...]
    transcript: DeliveryTranscript


# ---- binary container ----
#
# After the header and the cache count, per cache, 1 to C in turn, its
# index as a 16-bit row, its subfile row and its key row; then the payload
# row and the sent row, or in broadcast mode the library and an empty row.
# A row of w bits is its ceil(w / 8) bytes, little-endian, with zero
# padding bits.  Every width follows from the header, so no row carries a
# length.

def artifact_to_bytes(cfg: SchemeConfig, caches: Sequence[CacheContent],
                      transcript: DeliveryTranscript) -> bytes:
    """The rows of a round: stores or a transcript that Scheme.decode
    refuses raise its IntegrityError, and caches that are not every cache
    of the topology raise UsageError."""
    topo, scheme = cfg.topo, Scheme(cfg)
    C = topo.num_caches
    subfile_rows, key_rows = scheme._cache_rows(caches)
    if len(caches) != C:
        raise UsageError(f"an artifact holds all {C} caches, not {len(caches)}")
    rows = [row for c in range(C)
            for row in ((c + 1, 16), subfile_rows[c], key_rows[c])]
    rows += scheme._transcript_rows(transcript)
    return b"".join([MAGIC, _HEADER.pack(
        VERSION, _KINDS.index(cfg.kind), int(cfg.broadcast), C,
        topo.access_degree, topo.replication, cfg.num_files, cfg.file_bits,
        cfg.seed, C), *(v.to_bytes(-(-w // 8), "little") for v, w in rows)])


def _config(data: bytes) -> SchemeConfig:
    """The configuration the header describes, or IntegrityError."""
    if data[:len(MAGIC)] != MAGIC:
        raise IntegrityError("bad magic; not a simulation artifact")
    if len(data) < _ROWS:
        raise IntegrityError("truncated artifact")
    version, code, broadcast, C, ar, t, N, F, seed, count = (
        _HEADER.unpack_from(data, len(MAGIC)))
    if version != VERSION:
        raise IntegrityError(f"unsupported artifact version {version}")
    if code >= len(_KINDS):
        raise IntegrityError("unknown scheme kind code")
    if broadcast not in (0, 1):
        raise IntegrityError(f"broadcast flag {broadcast} is neither 0 nor 1")
    try:
        cfg = SchemeConfig(TopologySpec(C, ar, t), N, F, _KINDS[code], seed,
                           bool(broadcast))
    except (DomainError, UsageError) as exc:
        raise IntegrityError(f"header describes no valid configuration: "
                             f"{exc}") from exc
    if count != C:
        raise IntegrityError(f"an artifact of {count} caches, not C = {C}")
    return cfg


def _least_bits(cfg: SchemeConfig) -> int:
    """The fewest bits the rows of a round of cfg take, from binomials
    alone, an entry a bit at least: every cache's subfiles and keys, every
    payload and every user's sent demand, or the library."""
    C, r, t = cfg.topo.num_caches, cfg.topo.access_degree, cfg.topo.replication
    N, users, sent = cfg.num_files, comb(C, r), comb(C, t + r)
    keys = (r * users * comb(C - r, t) if cfg.kind.masks_demands else
            (t + r) * sent if cfg.kind.has_payload_keys else 0)
    return N * cfg.file_bits if cfg.broadcast else (
        (N * t * comb(C, t) + sent) * cfg.subfile_bits + users * N + keys)


def artifact_from_bytes(data: bytes) -> SimulationArtifact:
    """The inverse of artifact_to_bytes: each row cut by the labels that
    placement and delivery cut it by.  IntegrityError for any data that is
    not the rows of a round of the config its header describes."""
    cfg = _config(data)
    C, n, sb = cfg.topo.num_caches, cfg.num_files, cfg.subfile_bits
    # Checked before any table of the topology is built, so that the
    # tables a header asks for hold no more entries than the data has bits.
    if 8 * (len(data) - _ROWS) < _least_bits(cfg):
        raise IntegrityError("the artifact is shorter than the rows its "
                             "header implies")
    # A broadcast round's caches are empty and its payload row is the
    # library: reading it needs no table of the topology.
    scheme = None if cfg.broadcast else Scheme(cfg)
    widths = ((16, 0, 0) * C + (n * cfg.file_bits, 0) if scheme is None else
              (16, len(scheme._subfile_places[0]) * sb,
               len(scheme._key_places[0]) * scheme._key_bits) * C
              + (len(scheme._members) * sb, len(scheme._rows) * n))
    ends = list(accumulate((-(-w // 8) for w in widths), initial=_ROWS))
    if ends[-1] != len(data):
        raise IntegrityError(f"an artifact of {len(data)} bytes, not the "
                             f"{ends[-1]} its header implies")
    rows = [int.from_bytes(data[a:b], "little") for a, b in zip(ends, ends[1:])]
    padded = [w for row, w in zip(rows, widths) if row >> w]
    if padded:
        raise IntegrityError(f"a row of {padded[0]} bits with a padding bit set")
    if rows[:3 * C:3] != list(range(1, C + 1)):
        raise IntegrityError("the caches are not 1 to C in turn")
    if scheme is None:
        return SimulationArtifact(cfg, tuple(
            CacheContent(c, {}, {}, {}, {}) for c in range(1, C + 1)),
            _library(cfg, rows[-2]))
    return SimulationArtifact(cfg, tuple(
        scheme._content(c, _blocks(subfiles, scheme._subfile_places[c - 1],
                                   sb), keys)
        for c, subfiles, keys in zip(range(1, C + 1), rows[1:3 * C:3],
                                     rows[2:3 * C:3])),
        scheme._transcript(*rows[3 * C:]))


# ---- JSON rendering ----
#
# The text json.dumps(doc, indent=2, sort_keys=True) gives for the artifact
# document, written without building the document: json's C encoder takes
# no indent, and the pure-Python one walks every entry's dict.  Each value
# is rendered at its indent, pad, as a list of fragments, and the document
# is joined once.  A section is rendered in one step: a column of text per
# member of its entries is interleaved with the text of a row around them.

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
    """One section's entries in sorted key order: by the placing if the
    store holds just its labels, in their order, else by a fresh one.
    subsets holds, per indent, each cache subset's list as rendered there,
    once per subset and indent."""
    values = getattr(holder, name)
    if fields and (placing is None or tuple(values) != placing[0]):
        placing = _placing(tuple(values), len(fields))
    _, order, columns = placing if fields else (None, None, [])
    count = len(values or ())
    if not count:
        return "[]"
    if isinstance(values, _Store):
        bits, size = values.bits, -(-values.bits // 8)
        row = values.row if bits % 8 == 0 else _join(
            _cut(values.row, count, bits), 8 * size)
        hexes = row.to_bytes(count * size, "little").hex(" ", -size).split()
        lengths = [str(bits)] * count
    else:
        blocks = list(values.values() if fields else values)
        if ints:
            blocks = [BitBlock(v, num_files) for v in blocks]
        hexes = [b.to_bytes().hex() for b in blocks]
        lengths = [str(b.length) for b in blocks]
    if order is not None:
        hexes, lengths = _gather(hexes, order), _gather(lengths, order)
    field_pad = pad + "    "
    memo = subsets.setdefault(field_pad, {})
    members = {"bits": lengths, "hex": hexes}
    for f, (values, places) in zip(fields, columns):
        members[f] = _gather(list(map(str, values)) if f == "file" else [
            memo[s] if s in memo else memo.setdefault(s, "".join(
                _json_list([[str(c)] for c in s], field_pad)))
            for s in values], places)
    # The section as one list of fragments: a row's text, split around its
    # members' values in sorted order, laid out as _json_list lays out rows.
    order, inner = sorted(members), "\n" + pad + "  "
    text = "".join(_json_object({f: ['"\0"' if f == "hex" else "\0"]
                                 for f in order}, pad + "  ")).split("\0")
    text[-1], close = text[-1] + "," + inner, text[-1] + "\n" + pad + "]"
    step = 2 * len(order) + 1
    out = [None] * (step * count)
    for i in range(step):
        out[i::step] = (members[order[i // 2]] if i % 2
                        else [text[i // 2]] * count)
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
        "version": [str(JSON_VERSION)],
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
