"""Artifact container round trips and corruption detection."""

from __future__ import annotations

import functools
import json
import random
import re
import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from maclfr import indexing, transcript
from maclfr.bits import BitBlock
from maclfr.errors import DomainError, IntegrityError, UsageError
from maclfr.indexing import _store_labels
from maclfr.schemes import (CacheContent, DeliveryTranscript, Scheme,
                            SchemeConfig, SchemeKind, simulate)
from maclfr.topology import TopologySpec
from maclfr.transcript import (MAGIC, SimulationArtifact, artifact_from_bytes,
                               artifact_to_bytes, artifact_to_json,
                               simulation_to_bytes, simulation_to_json)
from maclfr.verify import tiny_sweep_topologies


def result_for(kind: SchemeKind, broadcast: bool = False):
    cfg = SchemeConfig(TopologySpec(3, 2, 1), 3, 6, kind, seed=4,
                       broadcast=broadcast)
    if broadcast:
        cfg = SchemeConfig(TopologySpec(3, 2, 0), 3, 6, kind, seed=4,
                           broadcast=True)
    return simulate(cfg)


@pytest.mark.parametrize("kind", tuple(SchemeKind))
def test_binary_round_trip(kind):
    result = result_for(kind)
    blob = simulation_to_bytes(result)
    artifact = artifact_from_bytes(blob)
    assert artifact.cfg == result.cfg
    assert artifact.caches == result.placement.caches
    assert artifact.transcript == result.transcript
    # Re-serializing the parsed artifact reproduces the bytes.
    again = artifact_to_bytes(artifact.cfg, artifact.caches,
                              artifact.transcript)
    assert again == blob


def test_broadcast_round_trip():
    result = result_for(SchemeKind.P_LFR, broadcast=True)
    artifact = artifact_from_bytes(simulation_to_bytes(result))
    assert artifact.transcript.broadcast_files == result.library.files
    assert artifact.transcript.rate == result.transcript.rate


def test_serialization_is_deterministic():
    a = simulation_to_bytes(result_for(SchemeKind.SP_LFR))
    b = simulation_to_bytes(result_for(SchemeKind.SP_LFR))
    assert a == b
    assert (simulation_to_json(result_for(SchemeKind.SP_LFR))
            == simulation_to_json(result_for(SchemeKind.SP_LFR)))


def test_json_document_shape():
    result = result_for(SchemeKind.IS_LFR)
    doc = json.loads(simulation_to_json(result))
    assert doc["format"] == "maclfr-artifact"
    assert doc["config"]["scheme"] == "is-lfr"
    assert doc["config"]["C"] == 3
    assert len(doc["caches"]) == 3
    assert doc["delivery"]["rate"] == "1/3"
    payloads = doc["delivery"]["payloads"]
    assert len(payloads) == result.cfg.topo.num_transmissions
    assert all(set(p) == {"S", "bits", "hex"} for p in payloads)
    # Coded key blocks appear only on this kind; shares and whole keys not.
    assert all(c["coded_subkeys"] for c in doc["caches"])
    assert all(not c["key_shares"] and not c["whole_keys"]
               for c in doc["caches"])


@pytest.mark.parametrize("broadcast, flag", ((False, 2), (False, 255),
                                             (False, 1), (True, 0),
                                             (True, 2)))
def test_broadcast_flag_must_be_a_bit_that_matches_the_body(broadcast, flag):
    # Byte 7 is the broadcast flag.  A value other than 0 or 1 is not a
    # flag; 1 over payloads, or 0 over broadcast files, implies rows of
    # other widths than the body holds.
    blob = bytearray(simulation_to_bytes(result_for(SchemeKind.P_LFR,
                                                    broadcast)))
    assert blob[7] == int(broadcast)
    blob[7] = flag
    with pytest.raises(IntegrityError, match="broadcast flag" if flag > 1
                       else "not the [0-9]+ its header implies"):
        artifact_from_bytes(bytes(blob))


def test_corruption_is_detected():
    blob = simulation_to_bytes(result_for(SchemeKind.S_LFR))
    with pytest.raises(IntegrityError):
        artifact_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(IntegrityError):
        artifact_from_bytes(blob[:4] + b"\xff\xff" + blob[6:])  # bad version
    with pytest.raises(IntegrityError):
        artifact_from_bytes(blob[:-3])  # truncation
    with pytest.raises(IntegrityError):
        artifact_from_bytes(blob + b"\x00")  # trailing garbage
    bad_kind = blob[:6] + bytes([250]) + blob[7:]
    with pytest.raises(IntegrityError):
        artifact_from_bytes(bad_kind)


def test_artifact_type_is_reusable():
    result = result_for(SchemeKind.LFR)
    artifact = SimulationArtifact(result.cfg, result.placement.caches,
                                  result.transcript)
    blob = artifact_to_bytes(artifact.cfg, artifact.caches,
                             artifact.transcript)
    assert blob.startswith(MAGIC)
    assert artifact_from_bytes(blob) == artifact


# The fixed header after the magic and version: kind code, broadcast flag,
# C, r, t, N, F and seed.
HEADER = struct.Struct("<BBHHHIQQ")
HEADER_AT = len(MAGIC) + 2


def with_header(blob: bytes, **changes) -> bytes:
    names = ("code", "broadcast", "C", "r", "t", "N", "F", "seed")
    fields = dict(zip(names, HEADER.unpack_from(blob, HEADER_AT)))
    fields.update(changes)
    return (blob[:HEADER_AT] + HEADER.pack(*fields.values())
            + blob[HEADER_AT + HEADER.size:])


@pytest.mark.parametrize("changes", [
    {"r": 9},  # access degree beyond C = 3
    {"broadcast": 1},  # broadcast mode on sp-lfr
    {"N": 0},  # no files
])
def test_header_of_no_valid_configuration_is_an_integrity_error(changes):
    blob = simulation_to_bytes(result_for(SchemeKind.SP_LFR))
    with pytest.raises(IntegrityError) as info:
        artifact_from_bytes(with_header(blob, **changes))
    assert isinstance(info.value.__cause__, (DomainError, UsageError))


@pytest.mark.parametrize("kind", tuple(SchemeKind))
def test_random_corruption_raises_only_integrity_errors(kind):
    # Silent acceptance is allowed; any error raised must be IntegrityError,
    # and an artifact that parses must render in both formats, its rows
    # the very bytes it was read from.
    blob = simulation_to_bytes(result_for(kind))
    rng = random.Random(f"corrupt:{kind.value}")
    for _ in range(2000):
        data = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        try:
            artifact = artifact_from_bytes(bytes(data))
        except IntegrityError:
            continue
        parts = (artifact.cfg, artifact.caches, artifact.transcript)
        assert artifact_to_bytes(*parts) == bytes(data)
        artifact_to_json(*parts)


@pytest.mark.parametrize("cfg, width", [
    # The masked-demand row, three users of N = 2 bits, last in the file.
    (SchemeConfig(TopologySpec(3, 2, 1), 2, 6, SchemeKind.SP_LFR, seed=4), 6),
    # The broadcast-file row, three files of F = 6 bits, before an empty
    # sent row.
    (SchemeConfig(TopologySpec(3, 2, 0), 3, 6, SchemeKind.P_LFR, seed=4,
                  broadcast=True), 18),
], ids=("masked-demand", "broadcast-file"))
def test_a_row_with_a_padding_bit_set_is_an_integrity_error(cfg, width):
    # With its top bit set, the demand row would give a demand of 2^N and
    # the file row a file past F bits.
    blob = simulation_to_bytes(simulate(cfg))
    assert blob[-1] >> (width % 8) == 0
    artifact_from_bytes(blob)
    with pytest.raises(IntegrityError, match=f"{width} bits with a padding"):
        artifact_from_bytes(blob[:-1] + bytes([blob[-1] | 0x80]))


def doctored(how: str):
    """A placed round's transcript under another config, or with one
    section it must not hold."""
    broadcast = how.startswith("broadcast")
    kind = (SchemeKind.P_LFR if broadcast else SchemeKind.SP_LFR
            if how == "cleartext" else SchemeKind.S_LFR)
    result = simulate(SchemeConfig(TopologySpec(3, 2, 1), 3, 6, kind, seed=4,
                                   broadcast=broadcast))
    sent = result.transcript
    if how == "lfr-config":
        return result, replace(sent, cfg=replace(result.cfg,
                                                 kind=SchemeKind.LFR))
    return result, replace(sent, **{
        "masked": {"masked_demands": {(9, 9): 5}},
        "cleartext": {"cleartext_demands": dict(sent.masked_demands)},
        "files": {"broadcast_files": (BitBlock(0, 6),) * 3},
        "broadcast-payloads": {"payloads": {(1, 2, 3): BitBlock(0, 6)}},
        "broadcast-demands": {"masked_demands": {(1, 2): 5}},
    }[how])


@pytest.mark.parametrize("how, match", [
    ("lfr-config", "another configuration"),
    ("masked", "holds masked_demands"),
    ("cleartext", "holds cleartext_demands"),
    ("files", "holds broadcast_files"),
    ("broadcast-payloads", "holds payloads"),
    ("broadcast-demands", "holds masked_demands"),
])
def test_a_transcript_of_another_round_is_refused_by_decode_and_writer(
        how, match):
    # An s-lfr transcript under the lfr config, or with a masked demand of
    # no user, decoded without complaint while decode read only the fields
    # of its kind.
    result, transcript = doctored(how)
    caches = result.placement.caches
    with pytest.raises(IntegrityError, match=match):
        Scheme(result.cfg).decode(caches, transcript, result.demands)
    with pytest.raises(IntegrityError, match=match):
        artifact_to_bytes(result.cfg, caches, transcript)


# Every kind on the tiny sweep, at r = 1, r = 4 and engine-c10's shape,
# and p-lfr in broadcast mode.
ROUND_TRIP_CASES = [(kind, C, r, t, False) for kind in SchemeKind
                    for C, r, t in (*tiny_sweep_topologies(), (4, 1, 2),
                                    (5, 4, 1), (10, 3, 3))]
ROUND_TRIP_CASES += [(SchemeKind.P_LFR, C, r, t, True)
                     for C, r, t in ((3, 2, 0), (3, 2, 1), (4, 1, 2))]


@pytest.mark.parametrize("kind,C,r,t,broadcast", ROUND_TRIP_CASES)
def test_the_rows_read_back_to_the_placed_round(kind, C, r, t, broadcast):
    topo = TopologySpec(C, r, t)
    N, F = (20, 1920) if C == 10 else (3, 2 * topo.num_subfile_indices + 1)
    result = simulate(SchemeConfig(topo, N, F, kind, seed=2,
                                   broadcast=broadcast))
    blob = simulation_to_bytes(result)
    artifact = artifact_from_bytes(blob)
    assert artifact.cfg == result.cfg
    assert artifact.caches == result.placement.caches
    assert artifact.transcript == result.transcript
    assert artifact_to_bytes(artifact.cfg, artifact.caches,
                             artifact.transcript) == blob


@pytest.mark.parametrize("broadcast", (False, True))
def test_a_header_of_a_topology_the_body_cannot_hold_builds_no_table(
        broadcast):
    # Changed to 40 caches, the header implies rows the 3-cache body does
    # not hold; the reader refuses it before it builds a table of the
    # topology, whose users alone would number C(40, 20).
    blob = simulation_to_bytes(result_for(SchemeKind.P_LFR, broadcast))
    blob = with_header(blob, C=40, r=20, t=10)
    count = HEADER_AT + HEADER.size
    blob = blob[:count] + struct.pack("<H", 40) + blob[count + 2:]
    built = indexing._indices.cache_info().misses
    with pytest.raises(IntegrityError, match="header implies"):
        artifact_from_bytes(blob)
    assert indexing._indices.cache_info().misses == built


def twin_entries(entries, fields, width=None) -> list[dict]:
    """The JSON entries a section of parsed artifact should render to."""
    if not fields:
        entries = {i: b for i, b in enumerate(entries or ())}
    out = []
    for key, value in sorted(entries.items()):
        block = BitBlock(value, width) if width else value
        parts = key if len(fields) > 1 else (key,)
        out.append({**{f: p if f == "file" else list(p)
                       for f, p in zip(fields, parts)},
                    "bits": block.length, "hex": block.to_bytes().hex()})
    return out


TWIN_CASES = [(kind, C, r, t, False) for kind in SchemeKind
              for C, r, t in ((3, 2, 1), (4, 2, 1), (4, 1, 2), (5, 3, 1))]
TWIN_CASES.append((SchemeKind.P_LFR, 3, 2, 0, True))


@pytest.mark.parametrize("kind,C,r,t,broadcast", TWIN_CASES)
def test_json_twin_carries_the_container_entries(kind, C, r, t, broadcast):
    topo = TopologySpec(C, r, t)
    # F off the subfile grid, so the last subfile carries padding bits.
    cfg = SchemeConfig(topo, 3, 2 * topo.num_subfile_indices + 1, kind,
                       seed=5, broadcast=broadcast)
    result = simulate(cfg)
    artifact = artifact_from_bytes(simulation_to_bytes(result))
    doc = json.loads(simulation_to_json(result))
    assert len(doc["caches"]) == len(artifact.caches)
    for rendered, cache in zip(doc["caches"], artifact.caches):
        assert rendered["index"] == cache.index
        assert rendered["subfiles"] == twin_entries(cache.subfiles,
                                                    ("file", "T"))
        assert rendered["key_shares"] == twin_entries(cache.key_shares,
                                                      ("user", "T"))
        assert rendered["whole_keys"] == twin_entries(cache.whole_keys, ("S",))
        assert rendered["coded_subkeys"] == twin_entries(cache.coded_subkeys,
                                                         ("S",))
    delivery, transcript = doc["delivery"], artifact.transcript
    assert delivery["payloads"] == twin_entries(transcript.payloads, ("S",))
    assert delivery["masked_demands"] == twin_entries(
        transcript.masked_demands, ("user",), cfg.num_files)
    assert delivery["cleartext_demands"] == twin_entries(
        transcript.cleartext_demands, ("user",), cfg.num_files)
    assert delivery["broadcast_files"] == twin_entries(
        transcript.broadcast_files, ())
    assert bool(transcript.broadcast_files) == broadcast


# The JSON document as the container's first rendering built it: a dict
# handed to json.dumps.  Kept here as the reference any faster emitter
# must match byte for byte.
REFERENCE_CACHE_SECTIONS = (
    ("subfiles", ("file", "T"), False),
    ("key_shares", ("user", "T"), False),
    ("whole_keys", ("S",), False),
    ("coded_subkeys", ("S",), False),
)
REFERENCE_DELIVERY_SECTIONS = (
    ("payloads", ("S",), False),
    ("masked_demands", ("user",), True),
    ("cleartext_demands", ("user",), True),
    ("broadcast_files", (), False),
)


def reference_section(holder, name, fields, ints, num_files) -> list[dict]:
    values = getattr(holder, name)
    if not fields:
        return [{"bits": b.length, "hex": b.to_bytes().hex()}
                for b in values or ()]
    out = []
    for key, value in sorted(values.items()):
        b = BitBlock(value, num_files) if ints else value
        parts = key if len(fields) > 1 else (key,)
        entry = {f: p if f == "file" else list(p)
                 for f, p in zip(fields, parts)}
        entry.update(bits=b.length, hex=b.to_bytes().hex())
        out.append(entry)
    return out


def reference_json(result) -> str:
    cfg, N = result.cfg, result.cfg.num_files
    rate = result.transcript.rate
    doc = {
        "format": "maclfr-artifact",
        "version": 1,
        "config": {"scheme": cfg.kind.value, "C": cfg.topo.num_caches,
                   "r": cfg.topo.access_degree, "t": cfg.topo.replication,
                   "N": N, "F": cfg.file_bits, "seed": cfg.seed,
                   "broadcast": cfg.broadcast},
        "caches": [
            {"index": cache.index,
             **{s[0]: reference_section(cache, *s, N)
                for s in REFERENCE_CACHE_SECTIONS}}
            for cache in result.placement.caches],
        "delivery": {
            "rate": f"{rate.numerator}/{rate.denominator}",
            **{s[0]: reference_section(result.transcript, *s, N)
               for s in REFERENCE_DELIVERY_SECTIONS}},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Every kind plus p-lfr broadcast, at t = 0 (empty T lists), r = 1 and
# two shapes in between: the golden presets cover none of these.
BYTE_IDENTITY_CASES = [(kind, C, r, t, False) for kind in SchemeKind
                       for C, r, t in ((3, 2, 1), (3, 3, 0), (4, 1, 2),
                                       (5, 3, 1))]
BYTE_IDENTITY_CASES += [(SchemeKind.P_LFR, C, r, t, True)
                        for C, r, t in ((3, 2, 1), (3, 3, 0), (4, 1, 2),
                                        (5, 3, 1))]


@pytest.mark.parametrize("kind,C,r,t,broadcast", BYTE_IDENTITY_CASES)
def test_json_matches_the_reference_document_byte_for_byte(kind, C, r, t,
                                                          broadcast):
    topo = TopologySpec(C, r, t)
    # F off the subfile grid, so the last subfile carries padding bits.
    cfg = SchemeConfig(topo, 3, 2 * topo.num_subfile_indices + 1, kind,
                       seed=7, broadcast=broadcast)
    result = simulate(cfg)
    assert simulation_to_json(result) == reference_json(result)


def test_json_matches_the_reference_document_at_ten_caches():
    cfg = SchemeConfig(TopologySpec(10, 3, 3), 20, 1920, SchemeKind.SP_LFR,
                       seed=3)
    result = simulate(cfg)
    assert simulation_to_json(result) == reference_json(result)


# Every kind on the tiny sweep with 1-, 2- and 3-bit subfiles, at r = 1
# and at C = 10 (16-bit subfiles), and p-lfr in broadcast mode.
STORE_CASES = [(kind, C, r, t, False) for kind in SchemeKind
               for C, r, t in (*tiny_sweep_topologies(), (4, 1, 2), (10, 3, 3))]
STORE_CASES += [(SchemeKind.P_LFR, 3, 2, 1, True)]
CACHE_STORES = ("subfiles", "key_shares", "whole_keys", "coded_subkeys")


def placed_labels(cfg: SchemeConfig, c: int, store: str) -> list:
    """The labels cache c's store holds, in placement order, from the
    topology alone."""
    topo, N = cfg.topo, cfg.num_files
    key_store = ("key_shares" if cfg.kind.masks_demands else "coded_subkeys"
                 if cfg.kind.stores_keys_coded else "whole_keys"
                 if cfg.kind.stores_keys_whole else None)
    if cfg.broadcast or store not in ("subfiles", key_store):
        return []
    if store == "subfiles":
        return [(i, T) for T in topo.subfile_indices() if c in T
                for i in range(1, N + 1)]
    if store == "key_shares":
        return [(g, T) for g in topo.users() if c in g
                for T in topo.subfile_indices() if not set(g) & set(T)]
    return [S for S in topo.transmission_indices() if c in S]


@pytest.mark.parametrize("kind,C,r,t,broadcast", STORE_CASES)
def test_placed_stores_read_and_render_as_their_dicts(kind, C, r, t,
                                                      broadcast):
    topo = TopologySpec(C, r, t)
    b = topo.num_subfile_indices
    for N, F in ([(20, 1920)] if C == 10 else [(3, b), (2, 2 * b), (3, 3 * b)]):
        result = simulate(SchemeConfig(topo, N, F, kind, seed=5,
                                       broadcast=broadcast))
        cfg, caches = result.cfg, result.placement.caches
        held = [(getattr(content, name), placed_labels(cfg, content.index,
                                                       name))
                for content in caches for name in CACHE_STORES]
        held.append((result.transcript.payloads, [] if broadcast else
                     list(topo.transmission_indices())))
        for store, labels in held:
            plain = dict(store)
            assert store == plain and plain == store
            assert list(store) == list(plain) == labels
            assert len(store) == len(labels)
            with pytest.raises(KeyError):
                store[(0, ())]
            assert (0, ()) not in store
        plain_caches = tuple(replace(content, **{
            name: dict(getattr(content, name)) for name in CACHE_STORES})
            for content in caches)
        plain_transcript = replace(result.transcript,
                                   payloads=dict(result.transcript.payloads))
        assert artifact_to_json(cfg, plain_caches, plain_transcript) == (
            simulation_to_json(result))
        assert artifact_to_bytes(cfg, plain_caches, plain_transcript) == (
            simulation_to_bytes(result))


# Hand-built artifacts: no scheme places these, so they reach what the
# engine never makes.  Blocks of mixed lengths (zero, one, off the byte
# grid, several bytes) share a section, keys go in against sorted order,
# subsets of every size mix, and whole sections are empty.  Broadcast
# files are cut to F bits.  Only the JSON writer renders them: the rows
# hold just what decode accepts.
def hand_built(broadcast: bool = False, demands=None) -> SimulationArtifact:
    kind = SchemeKind.P_LFR
    cfg = SchemeConfig(TopologySpec(3, 2, 1), 3, 6, kind, seed=11,
                       broadcast=broadcast)
    lengths = (0, 1, 7, 8, 9, 70)
    blocks = [BitBlock((1 << n) - 1 - (n // 3 if n > 1 else 0), n)
              for n in lengths]
    subsets = [(3,), (), (1, 2, 3), (2,), (1, 3), (1,)]
    caches = (
        CacheContent(2,
                     {(i, T): b for i, T, b in reversed(list(zip(
                         (1, 3, 2, 70000, 1, 2), subsets, blocks)))},
                     {((2, 3), (1,)): blocks[5], ((1, 2), ()): blocks[0],
                      ((1, 2), (3,)): blocks[3]},
                     {}, {(2, 3): blocks[2], (1, 2): blocks[4]}),
        CacheContent(1, {}, {}, {S: b for S, b in zip(reversed(subsets),
                                                     blocks)}, {}),
        CacheContent(3, {}, {}, {}, {}),
    )
    if demands is None:
        demands = {(2, 3): 5, (1, 3): 0, (1, 2): 7}
    transcript = DeliveryTranscript(
        cfg, {} if broadcast else {S: b for S, b in zip(subsets, blocks)},
        demands, {(1, 2): 3} if broadcast else {},
        tuple(BitBlock(b.value % 64, 6) for b in blocks[::-1])
        if broadcast else None)
    return SimulationArtifact(cfg, caches, transcript)


@functools.lru_cache(maxsize=None)
def placed_round(C: int):
    """A placed round whose stores are the engine's, in placement order."""
    topo = TopologySpec(C, 3, 3) if C == 10 else TopologySpec(C, 2, 1)
    kind = SchemeKind.SP_LFR if C == 10 else SchemeKind.IS_LFR
    return simulate(SchemeConfig(topo, 20 if C == 10 else 3,
                                 1920 if C == 10 else 13, kind, seed=6))


def reshaped(how: str, C: int) -> SimulationArtifact:
    """placed_round(C) with every cache's filled stores rebuilt: in
    shuffled order, or in placement order with one label dropped or with
    a foreign label, the next cache's first one it lacks, added halfway."""
    result = placed_round(C)
    caches, rng = result.placement.caches, random.Random(f"{how}:{C}")
    rebuilt = []
    for c, cache in enumerate(caches):
        stores = {}
        for name in ("subfiles", "key_shares", "whole_keys", "coded_subkeys"):
            entries = list(getattr(cache, name).items())
            if entries and how == "shuffled":
                rng.shuffle(entries)
            elif entries and how == "dropped":
                del entries[rng.randrange(len(entries))]
            elif entries:
                other = getattr(caches[(c + 1) % len(caches)], name)
                foreign = next(e for e in other.items()
                               if e[0] not in getattr(cache, name))
                entries.insert(len(entries) // 2, foreign)
            stores[name] = dict(entries)
        rebuilt.append(CacheContent(cache.index, **stores))
    return SimulationArtifact(result.cfg, tuple(rebuilt), result.transcript)


def as_result(artifact: SimulationArtifact):
    """The fields of a SimulationResult that reference_json reads."""
    return SimpleNamespace(cfg=artifact.cfg, transcript=artifact.transcript,
                           placement=SimpleNamespace(caches=artifact.caches))


@pytest.mark.parametrize("case", (False, True, *(
    f"{how}-{C}" for C in (4, 10) for how in ("shuffled", "dropped",
                                              "foreign"))))
def test_hand_built_artifact_matches_the_reference_and_round_trips(case):
    # A bool is hand_built's broadcast flag; else reshaped's "how-C".
    how, C = (None, 0) if isinstance(case, bool) else case.split("-")
    artifact = hand_built(case) if how is None else reshaped(how, int(C))
    parts = (artifact.cfg, artifact.caches, artifact.transcript)
    text = artifact_to_json(*parts)
    assert text == reference_json(as_result(artifact))
    if how == "shuffled":
        # The placed round's entries: its very bytes and text.
        blob = artifact_to_bytes(*parts)
        assert artifact_from_bytes(blob) == artifact
        placed = placed_round(int(C))
        assert blob == simulation_to_bytes(placed)
        assert text == simulation_to_json(placed)
        return
    # Stores that are not exactly their labels: the writer refuses them
    # with the IntegrityError decode raises, naming the fault.
    with pytest.raises(IntegrityError) as decoded:
        Scheme(artifact.cfg).decode(artifact.caches, artifact.transcript, [])
    fault = {None: "another kind's keys", "dropped": "lacks subfile",
             "foreign": "not one of its labels"}[how]
    assert fault in str(decoded.value)
    with pytest.raises(IntegrityError, match=re.escape(str(decoded.value))):
        artifact_to_bytes(*parts)


@pytest.mark.parametrize("coeffs", (8, 1 << 40, -1))
def test_demand_wider_than_the_library_is_a_domain_error(coeffs):
    artifact = hand_built(demands={(1, 3): 1, (1, 2): coeffs})
    parts = (artifact.cfg, artifact.caches, artifact.transcript)
    with pytest.raises(DomainError):
        artifact_to_json(*parts)
    # The binary writer packs the sent row as decode does, and refuses the
    # demand with decode's IntegrityError.
    result = simulate(artifact.cfg)
    transcript = replace(result.transcript, masked_demands={
        **result.transcript.masked_demands, (1, 2): coeffs})
    caches = result.placement.caches
    for write in (lambda: artifact_to_bytes(result.cfg, caches, transcript),
                  lambda: Scheme(result.cfg).decode(caches, transcript,
                                                    result.demands)):
        with pytest.raises(IntegrityError,
                           match=r"masked demand of \(1, 2\) under 2\^3"):
            write()


def test_the_ten_cache_render_plan_holds_arrays_not_entries():
    # The plan lives as long as the process: engine-c10's peak memory
    # carries it.  The labels it reads, which placement keeps, come first.
    topo = TopologySpec(10, 3, 3)
    for name, _, _ in transcript._CACHE_SECTIONS:
        _store_labels(topo, 20, name)
    tracemalloc.start()
    try:
        plan = transcript._render_plan.__wrapped__(topo, 20)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (labels, order, ((files, at), _)), shares = plan[0][:2]
    assert len(plan) == 10 and len(labels) == 20 * 36 == len(order) == len(at)
    assert order.typecode == "H" and files == list(range(1, 21))
    assert shares[1] is None  # key stores are placed in sorted order
    assert kept <= 1 << 18 and peak <= 1 << 19


@pytest.mark.parametrize("C, r, t, N, held", [
    (3, 2, 1, 10 ** 4, 0),  # a header's N over empty caches
    (10, 5, 1, 1, 1),  # 1,260 slots over one subfile a cache
])
def test_the_writers_build_no_plan_larger_than_the_caches(C, r, t, N, held):
    # The plan would hold N t C(C, t) subfile labels and r C(C, r) C(C-r, t)
    # slot labels, whatever the caches hold: too many here, so none is built.
    cfg = SchemeConfig(TopologySpec(C, r, t), N, 6, SchemeKind.LFR)
    caches = tuple(CacheContent(c, {(1, (c,)): BitBlock(1, 6)} if held else {},
                                {}, {}, {}) for c in range(1, C + 1))
    parts = (cfg, caches, DeliveryTranscript(cfg, {}, {}, {}, None))
    built = transcript._render_plan.cache_info().misses
    assert json.loads(artifact_to_json(*parts))["config"]["N"] == N
    assert transcript._render_plan.cache_info().misses == built
    # The rows hold only stores that are exactly their labels.
    with pytest.raises(IntegrityError, match="cache 1 (lacks|holds) subfile"):
        artifact_to_bytes(*parts)


def test_json_peak_memory_stays_near_the_text_length():
    # The document is joined once, from one fragment per section and the
    # separators between them: its peak holds the fragments and the text,
    # about two copies, where nested joins held about four.
    cfg = SchemeConfig(TopologySpec(7, 3, 2), 4, 84, SchemeKind.SP_LFR, seed=1)
    result = simulate(cfg)
    tracemalloc.start()
    try:
        text = simulation_to_json(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 100_000
    assert peak <= 2.5 * len(text)
