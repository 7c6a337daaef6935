"""Serialization of simulation artifacts.

Two formats carry a round's configuration, every cache's contents and the
delivery transcript, both written from the rows decode checks: per cache,
1 to C, its subfile row and its key row as Scheme._cache_rows packs them,
then the payload row and the sent row of Scheme._transcript_rows.  So both
writers refuse, with decode's errors, every round Scheme.decode refuses.
transcript.bin is those rows, and reading it back cuts each row by the
store labels that placement and delivery cut it by.  transcript.json is
per label, with hex-encoded blocks, each padded to whole bytes.  Both are
byte-exact functions of the round (rows and blocks are zero padded, JSON
entries in canonical sorted order), so identical (config, seed) runs
serialize identically.

Each JSON section is rendered in one step from its row and the placing of
its labels: the places that sort them, and per key field its distinct
values and each entry's place among them, so a distinct value is rendered
once (a cache subset once per indent) and each column is one gather.  The
render plan holds the placings, per topology, file count and section.
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

from .errors import DomainError, IntegrityError, UsageError
from .indexing import _indices, _store_labels
from .rows import _cut, _gather, _join
from .schemes import (CacheContent, DeliveryTranscript, Scheme, SchemeConfig,
                      SchemeKind, SimulationResult, _blocks, _library)
from .topology import CacheSet, TopologySpec

MAGIC = b"MALF"
VERSION = 2
# transcript.json keeps its own version: its layout has not changed.
JSON_VERSION = 1
# After the magic: the version, kind code, broadcast flag, C, r, t, N, F,
# seed and the cache count, C.  The rows start at _ROWS.
_HEADER = struct.Struct("<HBBHHHIQQH")
_ROWS = len(MAGIC) + _HEADER.size

# The JSON document's sections in order, each cache's four stores, then
# the four parts of the delivery, by their CacheContent or
# DeliveryTranscript attribute and JSON key, with their key fields.  A
# "file" field is an int and every other field a cache subset; a one-field
# key is the bare field.  A keyless section is a list kept in order.
SECTIONS = {"subfiles": ("file", "T"), "key_shares": ("user", "T"),
            "whole_keys": ("S",), "coded_subkeys": ("S",), "payloads": ("S",),
            "masked_demands": ("user",), "cleartext_demands": ("user",),
            "broadcast_files": ()}
_CACHE_SECTIONS = tuple(SECTIONS)[:4]

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

def _checked_rows(cfg: SchemeConfig, caches: Sequence[CacheContent],
                  transcript: DeliveryTranscript) -> tuple:
    """The scheme, each cache's subfile and key rows, 1 to C, and the
    payload and sent rows, as (value, width): stores or a transcript that
    Scheme.decode refuses raise its IntegrityError, and caches that are
    not every cache of the topology raise UsageError."""
    scheme, C = Scheme(cfg), cfg.topo.num_caches
    subfile_rows, key_rows = scheme._cache_rows(caches)
    if len(caches) != C:
        raise UsageError(f"an artifact holds all {C} caches, not {len(caches)}")
    return (scheme, list(zip(subfile_rows, key_rows)),
            scheme._transcript_rows(transcript))


def artifact_to_bytes(cfg: SchemeConfig, caches: Sequence[CacheContent],
                      transcript: DeliveryTranscript) -> bytes:
    """The rows of a round, as _checked_rows checks them."""
    _, cache_rows, sent = _checked_rows(cfg, caches, transcript)
    topo, C = cfg.topo, cfg.topo.num_caches
    rows = [row for c, held in enumerate(cache_rows, 1)
            for row in ((c, 16), *held)] + list(sent)
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
    """The placing of a row's labels: (order, columns), order the places
    that sort them, None if sorted, and per key field of width, its
    distinct values, sorted, and their places."""
    code = "H" if len(labels) <= 1 << 16 else "I"
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = [labels[at] for at in order]
    columns = []
    for column in [keys] if width == 1 else zip(*keys):
        distinct = sorted(set(column))
        at = {value: k for k, value in enumerate(distinct)}
        columns.append((distinct, array(code, map(at.__getitem__, column))))
    return (None if order == list(range(len(labels)))
            else array(code, order), columns)


@functools.lru_cache(maxsize=None)
def _render_plan(topo: TopologySpec, num_files: int, name: str
                 ) -> tuple[tuple, ...]:
    """The placings of a keyed section's rows, as arrays: per cache, of
    its store's placement labels, or one of the payload row, by the lex
    transmission indices, or of the sent row, by the lex users."""
    _, _, members, users, *_ = _indices(topo)
    rows = ([tuple(members)] if name == "payloads" else [tuple(users)]
            if name.endswith("demands") else _store_labels(topo, num_files,
                                                           name))
    return tuple(_placing(labels, len(SECTIONS[name])) for labels in rows)


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


def _json_section(row: tuple[int, int], bits: int, placing: tuple,
                  fields: tuple, pad: str,
                  subsets: dict[str, dict[CacheSet, str]]) -> str:
    """One section's entries in sorted key order: the row's values of bits
    each, value i labelled by the placing's label i.  subsets holds, per
    indent, each cache subset's list as rendered there, once each."""
    value, width = row
    count, size = width // bits, -(-bits // 8)
    if not count:
        return "[]"
    if bits % 8:
        value = _join(_cut(value, count, bits), 8 * size)
    hexes = value.to_bytes(count * size, "little").hex(" ", -size).split()
    order, columns = placing
    field_pad = pad + "    "
    memo = subsets.setdefault(field_pad, {})
    members = {"hex": hexes if order is None else _gather(hexes, order)}
    for f, (values, places) in zip(fields, columns):
        members[f] = _gather(list(map(str, values)) if f == "file" else [
            memo[s] if s in memo else memo.setdefault(s, "".join(
                _json_list([[str(c)] for c in s], field_pad)))
            for s in values], places)
    # The section as one list of fragments: a row's text, bits in place and
    # split around its other members' values in sorted order, laid out as
    # _json_list lays out rows.
    order, inner = sorted(members), "\n" + pad + "  "
    text = "".join(_json_object({"bits": [str(bits)], **{
        f: ['"\0"' if f == "hex" else "\0"] for f in order}},
        pad + "  ")).split("\0")
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
    """The rows artifact_to_bytes writes, per label, as _checked_rows
    checks them."""
    scheme, cache_rows, (payload_row, sent_row) = _checked_rows(
        cfg, caches, transcript)
    N, sb = cfg.num_files, cfg.subfile_bits
    subsets: dict[str, dict[CacheSet, str]] = {}

    def sections(names, held: dict, at: int, pad: str) -> dict:
        """The named sections' text: held maps a section to its row and
        its entries' width, and every other section is empty."""
        out = {}
        for name in names:
            row, bits = held.get(name, ((0, 0), 1))
            placing = (_render_plan(cfg.topo, N, name)[at]
                       if row[1] and SECTIONS[name] else (None, ()))
            out[name] = [_json_section(row, bits, placing, SECTIONS[name],
                                       pad, subsets)]
        return out

    caches_text = _json_list([_json_object({"index": [str(c)], **sections(
        _CACHE_SECTIONS, {"subfiles": (subfiles, sb),
                          scheme._key_store: (keys, scheme._key_bits)},
        c - 1, " " * 6)}, " " * 4)
        for c, (subfiles, keys) in enumerate(cache_rows, 1)], "  ")
    sent = "masked_demands" if cfg.kind.masks_demands else "cleartext_demands"
    delivery = _json_object({
        "rate": ['"%d/%d"' % transcript.rate.as_integer_ratio()], **sections(
            tuple(SECTIONS)[4:],
            {"broadcast_files": (payload_row, cfg.file_bits)} if cfg.broadcast
            else {"payloads": (payload_row, sb), sent: (sent_row, N)},
            0, " " * 4)}, "  ")
    config = {"scheme": cfg.kind.value, "C": cfg.topo.num_caches,
              "r": cfg.topo.access_degree, "t": cfg.topo.replication,
              "N": N, "F": cfg.file_bits, "seed": cfg.seed,
              "broadcast": cfg.broadcast}
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
