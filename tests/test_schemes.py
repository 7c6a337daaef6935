"""Scheme behavior: placement shape, delivery, decoding, and the exact
reduction identities between the five kinds.

Memory is cross-checked two ways: the measured bit count of the placed
caches against the closed-form corner point, which is derived from
counting arguments and never looks at a placement.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

from maclfr import cli, indexing, mds, schemes
from maclfr.analysis import point
from maclfr.bits import BitBlock
from maclfr.errors import DomainError, IntegrityError, UsageError
from maclfr.gf import BinaryField, binary_field
from maclfr.library import (DemandVector, FileLibrary, cycling_one_hot_demands,
                            linear_combination, random_demands, subpacketize)
from maclfr.schemes import (CacheContent, RandomnessLayout, Scheme,
                            SchemeConfig, SchemeKind, ServerRandomness, _cut,
                            _join, derive_rng, simulate)
from maclfr.mds import MdsCode, decode_key
from maclfr.topology import TopologySpec, share_index_of_cache
from maclfr.transcript import artifact_to_bytes
from maclfr.verify import check_correctness, tiny_config, tiny_sweep_topologies

SRC = Path(__file__).resolve().parents[1] / "src"
ALL_KINDS = tuple(SchemeKind)
SWEEP = ((3, 2, 0), (3, 2, 1), (3, 3, 0), (4, 2, 1), (4, 2, 2), (4, 3, 1),
         (5, 2, 2), (5, 3, 1))


def aligned_file_bits(cfg_topo: TopologySpec, kind: SchemeKind) -> int:
    """Smallest F that is a whole number of bits per subfile, share symbol,
    and coded symbol, so measured memory matches the unpadded closed form."""
    b = cfg_topo.num_subfile_indices
    r = cfg_topo.access_degree
    l = r.bit_length()
    factor = 1
    if kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR):
        factor = l
    if kind is SchemeKind.IS_LFR:
        n = r + cfg_topo.replication
        code_bits = 1 if n <= r + 1 or r == 1 else next(
            m for m in range(1, 17) if (1 << m) > n)
        factor = r * code_bits
    return b * factor


def config(kind: SchemeKind, C: int, r: int, t: int, N: int = 3,
           F: int | None = None, seed: int = 0) -> SchemeConfig:
    topo = TopologySpec(C, r, t)
    if F is None:
        F = aligned_file_bits(topo, kind)
    return SchemeConfig(topo, N, F, kind, seed=seed)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t", SWEEP)
def test_every_user_decodes_its_combination(kind, C, r, t):
    for seed in (0, 1):
        result = simulate(config(kind, C, r, t, seed=seed))
        assert result.ok, (kind, C, r, t, seed)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t,F", ((4, 1, 2, 31), (5, 4, 1, 22)))
def test_every_user_decodes_at_one_and_four_caches_per_user(kind, C, r, t, F):
    # F = 22 at (5, 4, 1) gives 5-bit subfiles in 6-bit share blocks.
    for seed in (0, 1):
        result = simulate(config(kind, C, r, t, F=F, seed=seed))
        assert result.ok, (kind, C, r, t, seed)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t", SWEEP)
def test_measured_memory_and_rate_match_closed_forms(kind, C, r, t):
    cfg = config(kind, C, r, t, N=comb(C, r))  # N >= K keeps the bound armed
    result = simulate(cfg)
    expected = point(kind, C, r, t, cfg.num_files, cfg.file_bits)
    assert result.placement.memory == expected.memory
    assert result.transcript.rate == expected.rate
    # Rate in bits: the payload volume equals rate * F at aligned F.
    payload_bits = sum(b.length for b in result.transcript.payloads.values())
    assert Fraction(payload_bits, cfg.file_bits) == expected.rate


@pytest.mark.parametrize("C", range(3, 8))
def test_measured_memory_equals_the_point_at_every_file_size(C):
    # The F-dependent mode charges what placement stores, padding and all:
    # every kind, every (r, t), N = 2 and F one to three times the subfile
    # count, where is-lfr's coded blocks pad to whole symbols.
    for r in range(1, C + 1):
        for t in range(C - r + 1):
            for F in (comb(C, t), 2 * comb(C, t), 3 * comb(C, t)):
                for kind in ALL_KINDS:
                    cfg = config(kind, C, r, t, N=2, F=F)
                    library = FileLibrary.random(derive_rng(0, "library"), 2, F)
                    assert Scheme(cfg).place(library).memory == point(
                        kind, C, r, t, 2, F).memory, (kind, C, r, t, F)


def test_placement_is_symmetric_and_demand_independent():
    cfg = config(SchemeKind.SP_LFR, 4, 2, 1)
    scheme = Scheme(cfg)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    randomness = ServerRandomness.draw(cfg, derive_rng(0, "placement"))
    first = scheme.place(lib, randomness)
    again = scheme.place(lib, randomness)
    assert first == again
    sizes = {c.stored_bits for c in first.caches}
    assert len(sizes) == 1


def test_subfile_replication_matches_indices():
    cfg = config(SchemeKind.LFR, 4, 2, 2)
    result = simulate(cfg)
    for cache in result.placement.caches:
        for (i, T) in cache.subfiles:
            assert cache.index in T
    table = subpacketize(result.library, cfg.topo)
    for T in cfg.topo.subfile_indices():
        for c in T:
            cache = result.placement.caches[c - 1]
            for i in range(1, cfg.num_files + 1):
                assert cache.subfiles[(i, T)] == table.subfile(i, T)


# ---- reduction identities ----

def test_zero_keyed_variant_matches_masked_scheme_exactly():
    # p-lfr is sp-lfr with payload keys pinned to zero: with identical mask
    # and coefficient draws, caches and transcripts agree bit for bit.
    sp_cfg = config(SchemeKind.SP_LFR, 4, 2, 1)
    p_cfg = replace(sp_cfg, kind=SchemeKind.P_LFR)
    lib = FileLibrary.random(derive_rng(3, "library"), sp_cfg.num_files,
                             sp_cfg.file_bits)
    demands = random_demands(sp_cfg.topo, sp_cfg.num_files, random.Random(5))
    p_rand = ServerRandomness.draw(p_cfg, derive_rng(1, "placement"))
    assert p_rand.payload_keys == 0
    sp_rand = ServerRandomness(0, p_rand.mask_vectors, p_rand.share_coefficients)
    sp = simulate(sp_cfg, library=lib, demands=demands, randomness=sp_rand)
    p = simulate(p_cfg, library=lib, demands=demands, randomness=p_rand)
    assert sp.transcript.payloads == p.transcript.payloads
    assert sp.transcript.masked_demands == p.transcript.masked_demands
    for a, b in zip(sp.placement.caches, p.placement.caches):
        assert a == b
    assert sp.ok and p.ok


def test_whole_and_coded_key_schemes_share_the_transcript():
    # s-lfr and is-lfr differ only in how the keys are stored; delivery is
    # identical for identical key draws.
    s_cfg = config(SchemeKind.S_LFR, 4, 2, 1, F=24)
    is_cfg = replace(s_cfg, kind=SchemeKind.IS_LFR)
    lib = FileLibrary.random(derive_rng(7, "library"), s_cfg.num_files, 24)
    demands = random_demands(s_cfg.topo, s_cfg.num_files, random.Random(11))
    randomness = ServerRandomness.draw(s_cfg, derive_rng(2, "placement"))
    s = simulate(s_cfg, library=lib, demands=demands, randomness=randomness)
    i = simulate(is_cfg, library=lib, demands=demands, randomness=randomness)
    assert s.transcript.payloads == i.transcript.payloads
    assert s.transcript.cleartext_demands == i.transcript.cleartext_demands
    assert s.decoded == i.decoded
    assert s.ok and i.ok


def test_keyless_payload_is_the_plain_combination_xor():
    # For one-hot demands at r = 1 every payload is the classic XOR of the
    # members' demanded subfiles, computed here directly from the table.
    cfg = config(SchemeKind.LFR, 4, 1, 2, N=4, F=12)
    demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    result = simulate(cfg, demands=demands)
    table = subpacketize(result.library, cfg.topo)
    wanted = {g[0]: d.supported_files()[0] for g, d in zip(cfg.topo.users(),
                                                           demands)}
    for S in cfg.topo.transmission_indices():
        expected = BitBlock.zeros(cfg.subfile_bits)
        for c in S:
            rest = tuple(x for x in S if x != c)
            expected ^= table.subfile(wanted[c], rest)
        assert result.transcript.payloads[S] == expected
    assert result.ok


def test_masked_payload_unmasks_to_the_keyless_one():
    # Stripping the payload key from an sp-lfr payload leaves the keyless
    # payload of the masked demands: the masking is an affine offset, not a
    # different combination rule.
    cfg = config(SchemeKind.SP_LFR, 3, 2, 1, N=2)
    lib = FileLibrary.random(derive_rng(1, "library"), cfg.num_files,
                             cfg.file_bits)
    demands = random_demands(cfg.topo, cfg.num_files, random.Random(13))
    randomness = ServerRandomness.draw(cfg, derive_rng(4, "placement"))
    sp = simulate(cfg, library=lib, demands=demands, randomness=randomness)
    lfr = Scheme(replace(cfg, kind=SchemeKind.LFR))
    placement = lfr.place(lib)
    masked = tuple(DemandVector(g, coeffs, cfg.num_files)
                   for g, coeffs in sp.transcript.masked_demands.items())
    keyless = lfr.deliver(placement.randomness, placement.table, masked)
    sb = cfg.subfile_bits
    for s, S in enumerate(cfg.topo.transmission_indices()):
        key = BitBlock(randomness.payload_keys >> (s * sb) & (1 << sb) - 1, sb)
        assert sp.transcript.payloads[S] ^ key == keyless.payloads[S]


# ---- randomness plumbing ----

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_randomness_layout_units(kind):
    cfg = config(kind, 3, 2, 1, N=2)
    layout = RandomnessLayout.for_config(cfg)
    zero = layout.unpack(0)
    assert (zero.payload_keys, zero.mask_vectors) == (0, 0)
    drawn = ServerRandomness.draw(cfg, derive_rng(0, "placement"))
    # The rows: a key per transmission (none without entropy), a mask per
    # user (none without masked demands).
    keys = cfg.topo.num_transmissions * cfg.subfile_bits
    masks = cfg.topo.num_users * cfg.num_files
    assert 0 <= drawn.payload_keys < (1 << keys if kind.has_payload_keys else 1)
    assert 0 <= drawn.mask_vectors < (1 << masks if kind.masks_demands else 1)
    # r = 2: one plane of three slots, each user missing one index.
    planes = 1 if kind.masks_demands else 0
    assert len(zero.share_coefficients) == planes
    assert len(drawn.share_coefficients) == planes
    assert all(p == 0 for p in zero.share_coefficients)
    assert all(0 <= p < 1 << 3 * cfg.share_block_bits
               for p in drawn.share_coefficients)
    if kind is SchemeKind.P_LFR:
        # Pinned keys are constants, not entropy.
        assert all(tag != "key" for tag, _, _ in layout.runs)
    with pytest.raises(DomainError):
        layout.unpack(1 << layout.total_bits)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t", ((3, 2, 1), (4, 1, 2), (4, 3, 1)))
def test_draw_agrees_with_layout_unpack(kind, C, r, t):
    # draw() and unpack() read one canonical order: replaying the placement
    # stream run by run, count getrandbits(bits) per layout run, and
    # unpacking the packed value rebuilds exactly what draw() returns.
    # p-lfr's pinned keys are drawn and dropped, so the replay consumes
    # them first.  Both streams then agree on the next value, so draw()
    # takes neither more nor fewer values than the runs name.
    cfg = config(kind, C, r, t, N=2)
    layout = RandomnessLayout.for_config(cfg)
    for seed in (0, 1, 2):
        replay = derive_rng(seed, "placement")
        if kind is SchemeKind.P_LFR:
            for _ in cfg.topo.transmission_indices():
                replay.getrandbits(cfg.subfile_bits)
        value, offset = 0, 0
        for _, count, bits in layout.runs:
            for _ in range(count):
                value |= replay.getrandbits(bits) << offset
                offset += bits
        assert offset == layout.total_bits
        rng = derive_rng(seed, "placement")
        drawn = ServerRandomness.draw(cfg, rng)
        assert layout.unpack(value) == drawn
        assert rng.getrandbits(64) == replay.getrandbits(64)


def drawn_by_value(cfg, rng) -> ServerRandomness:
    """draw() as its docstring states it: count getrandbits(bits) a run,
    run by run; the key and mask values side by side, p-lfr's keys
    dropped, and plane b every (r - 1)-th coef value from the b-th on."""
    runs = {tag: [rng.getrandbits(bits) for _ in range(count)]
            for tag, count, bits in schemes.randomness_order(cfg)}
    joined = lambda values, bits: sum(v << (i * bits)
                                      for i, v in enumerate(values))
    blinds, l = cfg.topo.access_degree - 1, cfg.key_field.exponent
    coefs = runs.get("coef", [])
    return ServerRandomness(
        joined(runs.get("key", []), cfg.subfile_bits)
        if cfg.kind.has_payload_keys else 0,
        joined(runs.get("mask", []), cfg.num_files),
        tuple(joined(coefs[b::blinds], l) for b in range(blinds))
        if coefs else ())


DRAW_SHAPES = [*((C, r, t, 2, None) for C, r, t in tiny_sweep_topologies()),
               (5, 2, 2, 3, None), (10, 3, 3, 20, 1920),
               *((r, r, 0, 2, 13) for r in range(4, 9)),
               *((r + 1, r, 1, 3, 29) for r in range(4, 9)),
               (256, 256, 0, 2, 7), (600, 600, 0, 2, 7)]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t,N,F", DRAW_SHAPES)
def test_draw_takes_the_stream_of_one_call_per_value(kind, C, r, t, N, F):
    # draw() takes the coef run in one getrandbits(32 count), which is
    # count getrandbits(l) in CPython's Mersenne Twister: the same values
    # and the same generator state after, at l = 2 to 4, 9 and 10.
    cfg = config(kind, C, r, t, N=N, F=F)
    for seed in (0, 1):
        rng, replay = derive_rng(seed, "placement"), derive_rng(seed, "placement")
        assert ServerRandomness.draw(cfg, rng) == drawn_by_value(cfg, replay)
        assert rng.getstate() == replay.getstate()


@pytest.mark.parametrize("width", (1, 2, 3, 16, 64, 65, 1920))
@pytest.mark.parametrize("count", (*range(41), 100, 1000))
def test_join_places_values_side_by_side(count, width):
    # Short rows join by shifts and longer ones pairwise: both ways OR
    # value i in at bit i * width, an over-wide value too.
    rng = derive_rng(count, f"join:{width}")
    values = [rng.getrandbits(width) for _ in range(count)]
    expected = over = 0
    for i, v in enumerate(values):
        expected |= v << (i * width)
        over |= (v << 1 | 1) << (i * width)
    assert _join(values, width) == expected
    assert _cut(_join(values, width), count, width) == values
    assert _join([v << 1 | 1 for v in values], width) == over
    if width <= 64:  # machine words, as _narrow passes them
        assert _join(array("Q", values), width) == expected


@pytest.mark.parametrize("kind", (SchemeKind.SP_LFR, SchemeKind.P_LFR))
@pytest.mark.parametrize("C,r,t", ((3, 2, 1), (4, 3, 1)))
def test_place_rejects_coefficient_planes_of_the_wrong_count_or_width(kind, C,
                                                                      r, t):
    cfg = config(kind, C, r, t, N=2)
    scheme = Scheme(cfg)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    drawn = ServerRandomness.draw(cfg, derive_rng(0, "placement"))
    planes = drawn.share_coefficients
    assert len(planes) == r - 1
    with pytest.raises(UsageError, match=re.escape(
            f"expected {r - 1} coefficient planes, got {r - 2}")):
        scheme.place(lib, replace(drawn, share_coefficients=planes[1:]))
    # The round: every user's slots, one per index out of its reach.
    width = comb(C, r) * comb(C - r, t) * cfg.share_block_bits
    wide = (planes[0] | 1 << width,) + planes[1:]
    with pytest.raises(DomainError, match="does not fit"):
        scheme.place(lib, replace(drawn, share_coefficients=wide))
    assert scheme.place(lib, drawn).caches == scheme.place(lib).caches


@pytest.mark.parametrize("kind", (SchemeKind.SP_LFR, SchemeKind.P_LFR))
def test_place_takes_no_coefficient_planes_at_one_cache_per_user(kind):
    cfg = config(kind, 4, 1, 2, N=2)
    scheme = Scheme(cfg)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    drawn = ServerRandomness.draw(cfg, derive_rng(0, "placement"))
    assert drawn.share_coefficients == ()
    assert scheme.place(lib, drawn).caches == scheme.place(lib).caches
    with pytest.raises(UsageError, match=re.escape(
            "expected 0 coefficient planes, got 1")):
        scheme.place(lib, replace(drawn, share_coefficients=(0,)))


def test_randomness_draw_is_deterministic():
    cfg = config(SchemeKind.SP_LFR, 3, 2, 1)
    a = ServerRandomness.draw(cfg, derive_rng(9, "placement"))
    b = ServerRandomness.draw(cfg, derive_rng(9, "placement"))
    assert a == b
    c = ServerRandomness.draw(cfg, derive_rng(10, "placement"))
    assert a != c


def test_derive_rng_separates_purposes():
    assert derive_rng(0, "a").random() != derive_rng(0, "b").random()
    assert derive_rng(0, "a").random() == derive_rng(0, "a").random()


@pytest.mark.parametrize("seed, purpose", [
    (0, "library"), (7, "placement"), ((1 << 64) - 1, "row-views"),
    (12345, "affinity-probes")])
def test_derive_rng_is_the_sha256_derivation(seed, purpose):
    # derive_rng hashes with the interpreter's built-in SHA-256; the stream
    # must be the one hashlib's SHA-256 of the same text seeds.
    import hashlib
    digest = hashlib.sha256(f"maclfr:{purpose}:{seed}".encode()).digest()
    expected = random.Random(int.from_bytes(digest[:16], "little"))
    assert derive_rng(seed, purpose).getrandbits(256) == expected.getrandbits(256)


# ---- broadcast corner ----

def test_broadcast_mode_ships_the_library():
    topo = TopologySpec(3, 2, 0)
    cfg = SchemeConfig(topo, 3, 7, SchemeKind.P_LFR, broadcast=True)
    result = simulate(cfg)
    assert result.placement.memory == 0
    assert result.transcript.rate == Fraction(3)
    assert result.transcript.broadcast_files == result.library.files
    assert result.ok
    with pytest.raises(UsageError):
        SchemeConfig(topo, 3, 7, SchemeKind.S_LFR, broadcast=True)


def test_broadcast_decode_needs_the_library_on_the_link():
    cfg = SchemeConfig(TopologySpec(3, 2, 1), 3, 6, SchemeKind.P_LFR,
                       broadcast=True)
    result = simulate(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    demand = next(d for d in result.demands if d.user == user)
    files = result.transcript.broadcast_files
    for doctored, message in (
            (None, "broadcast transcript lacks file 1"),
            (files[:2], "broadcast transcript lacks file 3"),
            (files[:2] + (BitBlock.zeros(7),),
             "broadcast transcript holds file 3 of 7 bits, expected 6")):
        with pytest.raises(IntegrityError, match=f"^{re.escape(message)}$"):
            Scheme(cfg).decode(caches, replace(
                result.transcript, broadcast_files=doctored), [demand])


# ---- error paths ----

def test_cleartext_kind_carries_the_demand():
    # The transcript carries each cleartext demand; decode checks the
    # caller's demand against it.
    cfg = config(SchemeKind.LFR, 3, 2, 1)
    result = simulate(cfg)
    scheme = Scheme(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    carried = DemandVector(user, result.transcript.cleartext_demands[user],
                           cfg.num_files)
    assert scheme.decode(caches, result.transcript,
                         [carried]) == [result.expected[user]]
    conflicting = replace(carried, coeffs=carried.coeffs ^ 1)
    with pytest.raises(UsageError, match="^a demand disagrees with the "
                       "transcript$"):
        scheme.decode(caches, result.transcript, [conflicting])


def test_doctored_transcript_is_detected():
    cfg = config(SchemeKind.S_LFR, 3, 2, 1)
    result = simulate(cfg)
    scheme = Scheme(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    gutted = replace(result.transcript, payloads={})
    with pytest.raises(IntegrityError):
        scheme.decode(caches, gutted, result.demands[:1])
    silent = replace(result.transcript, cleartext_demands={})
    with pytest.raises(IntegrityError):
        scheme.decode(caches, silent, result.demands[:1])


@pytest.mark.parametrize("kind", (SchemeKind.SP_LFR, SchemeKind.IS_LFR))
def test_a_round_builds_blocks_only_for_what_is_read_by_label(kind,
                                                              monkeypatch):
    # Placed and delivered stores are held as their rows: place, deliver
    # and the binary writer build no BitBlock, decode builds one per
    # demand, and the first read of a store by label cuts that store once.
    cfg = config(kind, 5, 2, 2)
    library = FileLibrary.random(derive_rng(1, "library"), cfg.num_files,
                                 cfg.file_bits)
    demands = random_demands(cfg.topo, cfg.num_files, derive_rng(1, "demands"))
    scheme, built, real = Scheme(cfg), [], BitBlock.__post_init__

    def counted(block):
        built.append(block)
        real(block)

    def blocks_built(step):
        del built[:]
        return step(), len(built)

    monkeypatch.setattr(BitBlock, "__post_init__", counted)
    placement, count = blocks_built(lambda: scheme.place(library))
    assert count == 0
    transcript, count = blocks_built(lambda: scheme.deliver(
        placement.randomness, placement.table, demands))
    assert count == 0
    _, count = blocks_built(lambda: artifact_to_bytes(
        cfg, placement.caches, transcript))
    assert count == 0
    decoded, count = blocks_built(lambda: scheme.decode(
        placement.caches, transcript, demands))
    assert count == len(demands) == len(cfg.topo.users())
    assert decoded == [linear_combination(d, library) for d in demands]
    cache = placement.caches[0]
    for store in (cache.subfiles, getattr(cache, scheme._key_store),
                  transcript.payloads):
        first, second = list(store)[:2]
        _, count = blocks_built(lambda: store[first])
        assert count == len(store)
        _, count = blocks_built(lambda: (store[second], store[first],
                                         list(store.values())))
        assert count == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stores_of_another_width_are_refused_as_their_dicts_are(kind):
    # Caches placed at 2-bit subfiles, decoded by a scheme of 3-bit ones
    # on the same topology: the row-backed stores take the checked path
    # and raise what plain dict copies of them raise.
    topo = TopologySpec(4, 2, 1)
    b = topo.num_subfile_indices
    narrow, wide = (simulate(SchemeConfig(topo, 3, F, kind, seed=2))
                    for F in (2 * b, 3 * b))
    caches = narrow.placement.caches
    plain = [replace(c, **{name: dict(getattr(c, name)) for name in (
        "subfiles", "key_shares", "whole_keys", "coded_subkeys")})
        for c in caches]
    messages = []
    for held in (caches, plain):
        with pytest.raises(IntegrityError) as error:
            Scheme(wide.cfg).decode(held, wide.transcript, wide.demands)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert "of 2 bits, expected 3" in messages[0]


def test_a_row_wider_than_its_blocks_is_an_integrity_error():
    labels = ("a", "b", "c")
    store = schemes._blocks(0b10_01_11, labels, 2)
    assert dict(store) == {"a": BitBlock(3, 2), "b": BitBlock(1, 2),
                           "c": BitBlock(2, 2)}
    for row in (1 << 6, -1):
        with pytest.raises(IntegrityError, match="a row wider than 3 blocks"):
            schemes._blocks(row, labels, 2)


def decode_setup(kind: SchemeKind, C: int = 4, r: int = 2, t: int = 1,
                 own: int | None = None):
    """A round where every user demands every file (user (1, 2) demands
    `own` if given), and the pieces user (1, 2) needs to decode."""
    cfg = config(kind, C, r, t)
    users = cfg.topo.users()
    full = (1 << cfg.num_files) - 1
    demands = tuple(DemandVector(g, own if own is not None and k == 0
                                 else full, cfg.num_files)
                    for k, g in enumerate(users))
    result = simulate(cfg, demands=demands)
    user = users[0]
    caches = [result.placement.caches[c - 1] for c in user]
    return Scheme(cfg), result, user, caches, demands[0]


def strip(caches, cache_index, field, label):
    """The caches with one entry removed from one cache's store."""
    out = []
    for content in caches:
        if content.index == cache_index:
            held = dict(getattr(content, field))
            del held[label]
            content = replace(content, **{field: held})
        out.append(content)
    return out


def test_decode_reports_a_missing_own_subfile():
    scheme, result, user, caches, demand = decode_setup(SchemeKind.LFR)
    gutted = strip(caches, 2, "subfiles", (1, (2,)))
    with pytest.raises(IntegrityError,
                       match=re.escape("cache 2 lacks subfile (1, (2,))")):
        scheme.decode(gutted, result.transcript, [demand])


def test_decode_reports_a_subfile_another_combination_needs():
    # User (1, 2) demands nothing, so only the other users' combinations
    # on its transmissions read the stripped subfile.
    scheme, result, user, caches, demand = decode_setup(SchemeKind.S_LFR,
                                                        own=0)
    [decoded] = scheme.decode(caches, result.transcript, [demand])
    assert decoded.value == 0
    gutted = strip(caches, 2, "subfiles", (3, (2,)))
    with pytest.raises(IntegrityError,
                       match=re.escape("cache 2 lacks subfile (3, (2,))")):
        scheme.decode(gutted, result.transcript, [demand])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decode_reports_a_missing_payload(kind):
    scheme, result, user, caches, demand = decode_setup(kind)
    payloads = dict(result.transcript.payloads)
    del payloads[(1, 2, 4)]
    gutted = replace(result.transcript, payloads=payloads)
    with pytest.raises(IntegrityError, match=re.escape(
            "transcript lacks the payload for (1, 2, 4)")):
        scheme.decode(caches, gutted, [demand])


@pytest.mark.parametrize("kind,field,cache,label", (
    (SchemeKind.SP_LFR, "key_shares", 2, ((1, 2), (3,))),
    (SchemeKind.P_LFR, "key_shares", 1, ((1, 2), (4,))),
    (SchemeKind.S_LFR, "whole_keys", 1, (1, 2, 3)),
    (SchemeKind.IS_LFR, "coded_subkeys", 2, (1, 2, 4)),
))
def test_decode_reports_missing_key_material(kind, field, cache, label):
    scheme, result, user, caches, demand = decode_setup(kind)
    gutted = strip(caches, cache, field, label)
    with pytest.raises(IntegrityError, match=re.escape(
            f"cache {cache} lacks the key material for {label}")):
        scheme.decode(gutted, result.transcript, [demand])


@pytest.mark.parametrize("kind,field,what", (
    (SchemeKind.SP_LFR, "masked_demands", "masked demand"),
    (SchemeKind.P_LFR, "masked_demands", "masked demand"),
    (SchemeKind.S_LFR, "cleartext_demands", "demand"),
    (SchemeKind.IS_LFR, "cleartext_demands", "demand"),
    (SchemeKind.LFR, "cleartext_demands", "demand"),
))
def test_decode_reports_a_missing_demand_of_another_user(kind, field, what):
    scheme, result, user, caches, demand = decode_setup(kind)
    sent = dict(getattr(result.transcript, field))
    del sent[(1, 3)]
    gutted = replace(result.transcript, **{field: sent})
    with pytest.raises(IntegrityError, match=re.escape(
            f"transcript lacks a {what} of (1, 3) under 2^3")):
        scheme.decode(caches, gutted, [demand])


def test_blocks_of_the_wrong_length_are_rejected():
    # A block of another width in a cache or the transcript is data that
    # fails a structural check.
    scheme, result, user, caches, demand = decode_setup(SchemeKind.S_LFR)
    sb = result.cfg.subfile_bits
    held = dict(caches[1].subfiles)
    held[(1, (2,))] = BitBlock.zeros(sb + 1)
    stretched = [caches[0], replace(caches[1], subfiles=held)]
    with pytest.raises(IntegrityError, match=re.escape(
            f"cache 2 holds subfile (1, (2,)) of {sb + 1} bits, "
            f"expected {sb}")):
        scheme.decode(stretched, result.transcript, [demand])
    payloads = dict(result.transcript.payloads)
    payloads[(1, 2, 3)] = BitBlock.zeros(sb + 1)
    with pytest.raises(IntegrityError, match=re.escape(
            f"transcript holds the payload for (1, 2, 3) of {sb + 1} bits")):
        scheme.decode(caches, replace(result.transcript, payloads=payloads),
                      [demand])
    # A key or mask row wider than its run, at delivery and at placement.
    randomness = result.placement.randomness
    topo, cfg = result.cfg.topo, result.cfg
    for wide_row in (
            replace(randomness, payload_keys=randomness.payload_keys
                    | 1 << topo.num_transmissions * cfg.subfile_bits),
            replace(randomness, mask_vectors=1 << topo.num_users * cfg.num_files)):
        with pytest.raises(UsageError, match="wider than its run"):
            scheme.deliver(wide_row, result.placement.table, result.demands)
        with pytest.raises(UsageError, match="wider than its run"):
            scheme.place(result.library, wide_row)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decode_rejects_a_demand_of_another_width(kind):
    # A wider sp-lfr demand once decoded, its extra coefficient ignored.
    scheme, result, user, caches, demand = decode_setup(kind)
    wider = replace(demand, num_files=demand.num_files + 1)
    with pytest.raises(UsageError, match=re.escape(
            "demand width does not match the library")):
        scheme.decode(caches, result.transcript, [wider])


def test_decode_reports_the_wrong_caches():
    scheme, result, user, caches, demand = decode_setup(SchemeKind.SP_LFR)
    with pytest.raises(UsageError, match=re.escape(
            "decode needs the caches [2] too")):
        scheme.decode(caches[:1], result.transcript, [demand])
    with pytest.raises(UsageError, match="is not a user"):
        scheme.decode(caches, result.transcript,
                      [replace(demand, user=(1, 2, 3))])


def plant(caches, cache_index, entries, field="subfiles"):
    """The caches with entries added to, or replaced in, one cache's
    store (its subfiles unless another field is named)."""
    return [replace(content, **{field: {**getattr(content, field), **entries}})
            if content.index == cache_index else content
            for content in caches]


def with_sent(field, doctor):
    """A transcript doctor that rewrites its sent demands of field."""
    return lambda transcript: replace(
        transcript, **{field: doctor(dict(getattr(transcript, field)))})


# Malformed rounds that no test above names, for user (1, 2) of
# decode_setup at C=4 r=2 t=1, N=3: (case, kind, caches doctor, transcript
# doctor, demands doctor, error class, message).
MALFORMED = [
    ("foreign-subfile", SchemeKind.LFR,
     lambda caches: plant(caches, 1, {(1, (2,)): caches[1].subfiles[1, (2,)]}),
     None, None, IntegrityError,
     "cache 1 holds subfile (1, (2,)), not one of its labels"),
    ("subfile-of-no-file", SchemeKind.IS_LFR,
     lambda caches: plant(caches, 2, {(0, (2,)): caches[1].subfiles[1, (2,)]}),
     None, None, IntegrityError,
     "cache 2 holds subfile (0, (2,)), not one of its labels"),
    ("foreign-key-share", SchemeKind.SP_LFR,
     lambda caches: plant(caches, 1, {((2, 3), (4,)): caches[0].key_shares[
         (1, 2), (3,)]}, "key_shares"), None, None, IntegrityError,
     "cache 1 holds the key material for ((2, 3), (4,)), not one of its "
     "labels"),
    ("another-kind-s-keys", SchemeKind.S_LFR,
     lambda caches: plant(caches, 2, {((1, 2), (3,)): BitBlock.zeros(1)},
                          "key_shares"), None, None, IntegrityError,
     "cache 2 holds another kind's keys"),
    ("cache-index-zero", SchemeKind.P_LFR,
     lambda caches: [replace(caches[0], index=0), *caches], None, None,
     UsageError,
     "cache 0 is out of range or given twice"),
    ("cache-index-past-C", SchemeKind.IS_LFR,
     lambda caches: [*caches, replace(caches[0], index=5)], None, None,
     UsageError,
     "cache 5 is out of range or given twice"),
    ("cache-given-twice", SchemeKind.S_LFR, lambda caches: caches + caches[1:],
     None, None, UsageError, "cache 2 is out of range or given twice"),
    ("wide-sent-demand", SchemeKind.SP_LFR, None,
     with_sent("masked_demands", lambda sent: {**sent, (2, 4): 8}), None,
     IntegrityError, "transcript lacks a masked demand of (2, 4) under 2^3"),
    ("sent-demand-of-no-user", SchemeKind.LFR, None,
     with_sent("cleartext_demands", lambda sent: {**sent, (1, 5): 1}), None,
     IntegrityError, "transcript holds a demand of no user"),
    ("user-demanded-twice", SchemeKind.P_LFR, None, None,
     lambda demand: [demand, demand], UsageError,
     "duplicate demand for user (1, 2)"),
    ("demand-of-another-user", SchemeKind.S_LFR, None, None,
     lambda demand: [demand, DemandVector((3, 4), 0, 3)], UsageError,
     "decode needs the caches [3, 4] too"),
]


@pytest.mark.parametrize("case,kind,caches_doctor,transcript_doctor,"
                         "demands_doctor,error,message", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_decode_rejects_a_malformed_round(case, kind, caches_doctor,
                                          transcript_doctor, demands_doctor,
                                          error, message):
    # A fault in the caches' contents or the transcript is IntegrityError
    # (exit 2), a fault in the caller's arguments UsageError (exit 4).
    scheme, result, user, caches, demand = decode_setup(kind)
    caches = caches_doctor(caches) if caches_doctor else caches
    transcript = (transcript_doctor(result.transcript) if transcript_doctor
                  else result.transcript)
    demands = demands_doctor(demand) if demands_doctor else [demand]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        scheme.decode(caches, transcript, demands)
    assert type(raised.value) is error
    assert next(code for classes, code in cli._EXIT_CODES
                if isinstance(raised.value, classes)) == (
        2 if error is IntegrityError else 4)


def key_fault_setup(kind: SchemeKind):
    """decode_setup's round and a decode call of user (1, 2), whose
    missing pieces are indexed (3,) and (4,), on payloads (1, 2, 3) and
    (1, 2, 4)."""
    scheme, result, user, caches, demand = decode_setup(kind)

    def decode(held, transcript=result.transcript):
        return scheme.decode(held, transcript, [demand])
    return result, caches, decode


@pytest.mark.parametrize("kind", (SchemeKind.SP_LFR, SchemeKind.P_LFR))
def test_decode_raises_key_share_faults_at_their_index(kind):
    # Each fault names its cache and its slot; of two, the one a cache's
    # store lists first: a missing share before one of the wrong width.
    result, caches, decode = key_fault_setup(kind)
    bits = result.cfg.share_block_bits
    early, late = ((1, 2), (3,)), ((1, 2), (4,))
    wide = BitBlock.zeros(bits + 1)
    long_late = plant(caches, 2, {late: wide}, "key_shares")
    with pytest.raises(IntegrityError, match=re.escape(
            f"cache 2 holds the key material for {late} of {bits + 1} bits, "
            f"expected {bits}")):
        decode(long_late)
    with pytest.raises(IntegrityError, match=re.escape(
            f"cache 2 lacks the key material for {early}")):
        decode(strip(long_late, 2, "key_shares", early))


def test_decode_reports_a_stripped_key_share_under_python_optimize():
    # -O strips assert statements: each fault must still be raised, with
    # the same class and message.
    script = textwrap.dedent("""
        from dataclasses import replace
        from maclfr.schemes import Scheme, SchemeConfig, SchemeKind, simulate
        from maclfr.topology import TopologySpec
        cfg = SchemeConfig(TopologySpec(4, 2, 1), 3, 24, SchemeKind.SP_LFR)
        result = simulate(cfg)
        user = (1, 2)
        caches = [result.placement.caches[c - 1] for c in user]
        held = dict(caches[1].key_shares)
        del held[(user, (3,))]
        stripped = [caches[0], replace(caches[1], key_shares=held)]
        for doctored in (stripped, [replace(caches[0], index=0)] + caches,
                         caches[:1]):
            try:
                Scheme(cfg).decode(doctored, result.transcript,
                                   result.demands[:1])
            except Exception as error:
                print(type(error).__name__, error)
        """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "IntegrityError cache 2 lacks the key material for ((1, 2), (3,))",
        "UsageError cache 0 is out of range or given twice",
        "UsageError decode needs the caches [2] too"]


def test_decode_raises_coded_block_faults_at_their_index():
    result, caches, decode = key_fault_setup(SchemeKind.IS_LFR)
    bits = caches[1].coded_subkeys[(1, 2, 4)].length
    long_late = plant(caches, 2, {(1, 2, 4): BitBlock.zeros(bits + 1)},
                      "coded_subkeys")
    with pytest.raises(IntegrityError, match=re.escape(
            f"cache 2 holds the key material for (1, 2, 4) of {bits + 1} "
            f"bits, expected {bits}")):
        decode(long_late)
    with pytest.raises(IntegrityError, match=re.escape(
            "cache 1 lacks the key material for (1, 2, 3)")):
        decode(strip(long_late, 1, "coded_subkeys", (1, 2, 3)))


def test_decode_raises_whole_key_faults_at_their_index():
    result, caches, decode = key_fault_setup(SchemeKind.S_LFR)
    sb = result.cfg.subfile_bits
    long_late = plant(caches, 1, {(1, 2, 4): BitBlock.zeros(sb + 1)},
                      "whole_keys")
    with pytest.raises(IntegrityError, match=re.escape(
            f"cache 1 holds the key material for (1, 2, 4) of {sb + 1} bits, "
            f"expected {sb}")):
        decode(long_late)
    with pytest.raises(IntegrityError, match=re.escape(
            "cache 1 lacks the key material for (1, 2, 3)")):
        decode(strip(long_late, 1, "whole_keys", (1, 2, 3)))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t", ((4, 2, 1), (5, 3, 1), (5, 4, 1)))
def test_decode_is_the_same_for_the_caches_in_any_order(kind, C, r, t):
    # The shares' Lagrange weights differ at r = 2 and r = 4, so a cache
    # weighted by its place in the list, not its share index, would show.
    result = simulate(config(kind, C, r, t))
    scheme = Scheme(result.cfg)
    for g, demand in zip(result.cfg.topo.users(), result.demands):
        held = [result.placement.caches[c - 1] for c in g]
        for order in permutations(held):
            assert scheme.decode(list(order), result.transcript,
                                 [demand]) == [result.expected[g]], (g, order)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_scheme_decodes_placements_in_turn(kind):
    # Whatever decode keeps per cache must not carry over to another
    # placement, whether the placements alternate by round or by user.
    # Both rounds are of one config, their library and randomness drawn
    # from the streams of seeds 0 and 1.
    cfg = config(kind, 4, 2, 1)
    rounds = [simulate(cfg, FileLibrary.random(
        derive_rng(seed, "library"), cfg.num_files, cfg.file_bits),
        randomness=ServerRandomness.draw(cfg, derive_rng(seed, "placement")))
        for seed in (0, 1)]
    assert rounds[0].placement.caches != rounds[1].placement.caches
    scheme = Scheme(rounds[0].cfg)

    def check(result, g, demand):
        held = [result.placement.caches[c - 1] for c in g]
        assert scheme.decode(held, result.transcript,
                             [demand]) == [result.expected[g]]
    for result in (rounds[0], rounds[1], rounds[0]):
        for g, demand in zip(result.cfg.topo.users(), result.demands):
            check(result, g, demand)
    for n, g in enumerate(rounds[0].cfg.topo.users()):
        for result in (rounds[0], rounds[1], rounds[0]):
            check(result, g, result.demands[n])


def server_rows_decode(scheme, result, users):
    """decode_rows for the users on the round's rows as the server lays
    them out: transmission_row, subfile_rows and key_rows."""
    n, table = result.cfg.num_files, result.placement.table
    randomness = result.placement.randomness
    by_user = {d.user: d.coeffs for d in result.demands}
    demand_row = _join([by_user[g] for g in result.cfg.topo.users()], n)
    payload_row, sent_row = scheme.transmission_row(randomness, table,
                                                    demand_row)
    return scheme.decode_rows(users, payload_row, sent_row, demand_row,
                              scheme.subfile_rows(table),
                              scheme.key_rows(randomness, table))


def assert_decode_rows_equal_decode(result):
    """decode_rows on the server's rows equals the slot-by-slot reference
    on them, and decode on the placed caches and the transcript equals
    both, for every user at once, for the users reversed, and for one
    user given only its own caches."""
    scheme, users = Scheme(result.cfg), result.cfg.topo.users()
    _, rows = server_rows(result)
    values = server_rows_decode(scheme, result, users)
    assert values == slot_by_slot_decode_rows(scheme, users, *rows)
    by_user = {d.user: d for d in result.demands}
    caches, transcript = result.placement.caches, result.transcript
    decoded = scheme.decode(caches, transcript, [by_user[g] for g in users])
    assert decoded == [BitBlock(v, result.cfg.file_bits) for v in values]
    assert decoded == [result.decoded[g] for g in users] == [
        result.expected[g] for g in users]
    assert scheme.decode(caches[::-1], transcript, [
        by_user[g] for g in users[::-1]]) == decoded[::-1]
    g = users[-1]
    assert scheme.decode([caches[c - 1] for c in g], transcript,
                         [by_user[g]]) == decoded[-1:]
    # The users may come in any order, and any subset of them.
    assert server_rows_decode(scheme, result, users[::-1]) == values[::-1]
    assert server_rows_decode(scheme, result, users[1:2]) == values[1:2]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t", tiny_sweep_topologies())
def test_decode_rows_equals_decode_on_the_tiny_sweep(kind, C, r, t):
    for cfg in (tiny_config(kind, C, r, t), config(kind, C, r, t, seed=1)):
        assert_decode_rows_equal_decode(simulate(cfg))


def test_decode_rows_equals_decode_in_broadcast_mode():
    cfg = SchemeConfig(TopologySpec(3, 2, 1), 3, 7, SchemeKind.P_LFR,
                       broadcast=True)
    for seed in (0, 1):
        assert_decode_rows_equal_decode(simulate(replace(cfg, seed=seed)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decode_rows_equals_decode_at_ten_caches(kind):
    assert_decode_rows_equal_decode(
        simulate(config(kind, 10, 3, 3, N=20, F=1920, seed=1)))


def slot_by_slot_coded_keys(result) -> list[list[int]]:
    """is-lfr's key of each user's slots, lex in T, by decode_key of the
    blocks the user's caches hold, one slot at a time."""
    cfg, caches = result.cfg, result.placement.caches
    keys = []
    for g in cfg.topo.users():
        keys.append([])
        for T in cfg.topo.subfile_indices():
            if set(T) & set(g):
                continue
            S = tuple(sorted(g + T))
            blocks = [(share_index_of_cache(S, c),
                       caches[c - 1].coded_subkeys[S].value) for c in g]
            keys[-1].append(decode_key(blocks, cfg.key_code, cfg.subfile_bits))
    return keys


def counting_decode_key(monkeypatch) -> list:
    """Record every call of decode_key that the schemes module makes."""
    calls, real = [], schemes.decode_key

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(schemes, "decode_key", counted)
    return calls


# The tiny sweep, r = 1 (a repetition code), n = k + 1 (t = 1, one parity
# block) and C = 10, each with F off the symbol grid, so sub-keys pad.
CODED_KEY_SHAPES = [*((C, r, t, 3, None) for C, r, t in tiny_sweep_topologies()),
                    (4, 1, 2, 3, 13), (5, 1, 3, 2, 31), (5, 2, 1, 3, 51),
                    (5, 3, 1, 3, 23), (10, 3, 3, 20, 1920), (10, 3, 3, 4, 1201)]


@pytest.mark.parametrize("C,r,t,N,F", CODED_KEY_SHAPES)
def test_coded_keys_equal_decode_key_slot_by_slot(C, r, t, N, F, monkeypatch):
    cfg = config(SchemeKind.IS_LFR, C, r, t, N=N, F=F, seed=3)
    result, scheme = simulate(cfg), Scheme(cfg)
    key_rows = scheme.key_rows(result.placement.randomness,
                               result.placement.table)
    expected = slot_by_slot_coded_keys(result)
    users = cfg.topo.users()
    calls = counting_decode_key(monkeypatch)
    assert scheme._keys(users, key_rows) == expected
    # One call per class of slots by where the user's caches sit in S.
    classes = {tuple(share_index_of_cache(tuple(sorted(g + T)), c) for c in g)
               for g in users for T in cfg.topo.subfile_indices()
               if not set(T) & set(g)}
    assert len(calls) == len(classes) <= comb(t + r, r)
    # Any subset of the users, in any order, gets the same keys.
    assert scheme._keys(users[::-1], key_rows) == expected[::-1]
    assert scheme._keys(users[1:2], key_rows) == expected[1:2]


def test_a_ten_cache_round_decodes_is_lfr_keys_once_per_position_class(
        monkeypatch):
    # At C = 10, r = 3, t = 3 the 120 users hold 4,200 slots; a user's
    # three caches sit at one of C(6, 3) = 20 position triples in S.
    calls = counting_decode_key(monkeypatch)
    result = simulate(config(SchemeKind.IS_LFR, 10, 3, 3, N=20, F=1920,
                             seed=1))
    assert result.ok
    assert len(calls) == comb(6, 3)


def slot_by_slot_key_rows(cfg, randomness, table) -> list[tuple[int, int]]:
    """The masking kinds' key rows, one split per slot (g, T), lex: the
    key of S = g + T XOR subfile T of g's mask combination, on the slot's
    cut of each coefficient plane; share j goes to g's j-th cache, each
    cache's shares in lex user order."""
    topo, n = cfg.topo, cfg.num_files
    sb, wb = cfg.subfile_bits, cfg.share_block_bits
    sent, indices = topo.transmission_indices(), topo.subfile_indices()
    piece, rows, x = (1 << sb) - 1, [[] for _ in range(topo.num_caches)], 0
    for u, g in enumerate(topo.users()):
        mask = randomness.mask_vectors >> (u * n)
        for T in indices:
            if set(T) & set(g):
                continue
            S = tuple(sorted(g + T))
            key = randomness.payload_keys >> (sent.index(S) * sb) & piece
            for i, image in enumerate(table.images):
                if mask >> i & 1:
                    key ^= image >> (indices.index(T) * sb) & piece
            planes = [plane >> (x * wb) & ((1 << wb) - 1)
                      for plane in randomness.share_coefficients]
            shares = schemes.split(key, sb, len(g), cfg.key_field,
                                   coefficients=planes).shares
            for c, share in zip(g, shares):
                rows[c - 1].append(share)
            x += 1
    return [(sum(v << (i * wb) for i, v in enumerate(row)), len(row) * wb)
            for row in rows]


MASKED_KEY_SHAPES = [*((C, r, t, 2, None) for C, r, t in tiny_sweep_topologies()),
                     (5, 2, 2, 3, None), (10, 3, 3, 20, 1920)]


@pytest.mark.parametrize("kind", (SchemeKind.SP_LFR, SchemeKind.P_LFR))
@pytest.mark.parametrize("C,r,t,N,F", MASKED_KEY_SHAPES)
def test_masked_key_rows_equal_one_split_per_slot(kind, C, r, t, N, F):
    cfg = config(kind, C, r, t, N=N, F=F, seed=4)
    randomness = ServerRandomness.draw(cfg, derive_rng(5, "placement"))
    table = subpacketize(FileLibrary.random(derive_rng(6, "library"), N,
                                            cfg.file_bits), cfg.topo)
    expected = slot_by_slot_key_rows(cfg, randomness, table)
    # The plan key_rows reads is built once per topology and shared by
    # every Scheme on it, and key_rows leaves the Scheme as __init__ built it.
    plan = indexing._decode_plan(cfg.topo)
    cached = indexing._decode_plan.cache_info()
    for scheme in (Scheme(cfg), Scheme(replace(cfg, seed=9))):
        before = dict(vars(scheme))
        assert scheme.key_rows(randomness, table) == expected
        assert vars(scheme) == before
    now = indexing._decode_plan.cache_info()
    assert (now.hits, now.misses) == (cached.hits + 2, cached.misses)
    assert indexing._decode_plan(cfg.topo) is plan


def transmission_by_transmission_coded_key_rows(cfg, randomness
                                                 ) -> list[tuple[int, int]]:
    """is-lfr's key rows, one encode_key per transmission S, lex: block j
    of S's key to S's j-th cache, each cache's blocks in lex S order."""
    topo, sb, code = cfg.topo, cfg.subfile_bits, cfg.key_code
    bits = mds.coded_block_bit_length(sb, code)
    rows = [[] for _ in range(topo.num_caches)]
    for s, S in enumerate(topo.transmission_indices()):
        key = randomness.payload_keys >> (s * sb) & ((1 << sb) - 1)
        for c, block in zip(S, mds.encode_key(key, sb, code)):
            rows[c - 1].append(block)
    return [(sum(v << (i * bits) for i, v in enumerate(row)), len(row) * bits)
            for row in rows]


@pytest.mark.parametrize("C,r,t,N,F", list(dict.fromkeys(
    MASKED_KEY_SHAPES + CODED_KEY_SHAPES)))
def test_coded_key_rows_equal_one_encode_per_transmission(C, r, t, N, F,
                                                          monkeypatch):
    cfg = config(SchemeKind.IS_LFR, C, r, t, N=N, F=F, seed=4)
    randomness = ServerRandomness.draw(cfg, derive_rng(5, "placement"))
    table = subpacketize(FileLibrary.random(derive_rng(6, "library"), N,
                                            cfg.file_bits), cfg.topo)
    expected = transmission_by_transmission_coded_key_rows(cfg, randomness)
    # One encode_key codes every key of the round, and key_rows leaves the
    # Scheme as __init__ built it.
    calls, real = [], schemes.encode_key
    monkeypatch.setattr(schemes, "encode_key",
                        lambda *args: calls.append(args) or real(*args))
    for scheme in (Scheme(cfg), Scheme(replace(cfg, seed=9))):
        before = dict(vars(scheme))
        assert scheme.key_rows(randomness, table) == expected
        assert vars(scheme) == before
    assert len(calls) == 2


def slot_by_slot_decode_rows(scheme, users, payload_row, sent_row,
                             demand_row, subfile_rows, key_rows):
    """decode_rows as a plain per-slot loop: each read cache's file images
    (the piece of rank k at bit k sb) and its combination of every sent
    demand, then, slot by slot, each other sender's piece shifted out of
    the combinations the user's caches hold."""
    cfg = scheme.cfg
    n, sb = cfg.num_files, cfg.subfile_bits
    piece, ranks = (1 << sb) - 1, scheme._user_rank
    if cfg.broadcast:
        files = schemes._cut(payload_row, n, cfg.file_bits)
        return [schemes._combination(files, demand_row >> (ranks[g] * n))
                for g in users]
    sent, caches = schemes._cut(sent_row, len(scheme._rows), n), {}
    for c in {c for g in users for c in g}:
        stored = scheme._stored[c - 1]
        values = schemes._cut(subfile_rows[c - 1][0], len(stored) * n, sb)
        files = [sum(v << (k * sb) for v, (k, _) in zip(values[i::n], stored))
                 for i in range(n)]
        caches[c] = files, [schemes._combination(files, d) for d in sent]
    decoded, slots = [], indexing._indices(scheme.topo)[1]
    for g, keys in zip(users, scheme._keys(users, key_rows)):
        u, value, held = ranks[g], 0, [0] * len(sent)
        for c in g:
            files, combos = caches[c]
            value |= schemes._combination(files, demand_row >> (u * n))
            held = [h | x for h, x in zip(held, combos)]
        for T, key in zip(scheme._rows[g], keys):
            k, S = slots[(g, T)]
            s = list(scheme._members).index(S)
            acc = payload_row >> (s * sb) ^ key
            for v, j in scheme._senders[s]:
                if v != u:
                    acc ^= held[v] >> (j * sb)
            value |= (acc & piece) << (k * sb)
        decoded.append(value & ((1 << cfg.file_bits) - 1))
    return decoded


def server_rows(result):
    """The round's rows as the server lays them out, and the scheme."""
    scheme, n = Scheme(result.cfg), result.cfg.num_files
    table, randomness = result.placement.table, result.placement.randomness
    by_user = {d.user: d.coeffs for d in result.demands}
    demand_row = _join([by_user[g] for g in result.cfg.topo.users()], n)
    payload_row, sent_row = scheme.transmission_row(randomness, table,
                                                    demand_row)
    return scheme, (payload_row, sent_row, demand_row,
                    scheme.subfile_rows(table),
                    scheme.key_rows(randomness, table))


def user_lists(users):
    """Every user, none, one twice among others, reversed, and a subset."""
    return [users, [], [users[-1], users[0], users[-1]], users[::-1],
            users[1::2]]


# sb = 1, 63, 64, 65, 130 and 136 bits (pieces of one, two and three
# words, in whole bytes or not), F off the grid, r = 1, t = 0, one user
# for all caches, and C = 11, whose plan needs 32-bit places.
REFERENCE_SHAPES = [*((4, 2, 1, 3, 4 * sb) for sb in (1, 63, 64, 65, 130, 136)),
                    (4, 2, 1, 2, 4 * 65 - 3), (3, 1, 1, 3, 9), (4, 1, 2, 2, 37),
                    (3, 2, 0, 3, 5), (4, 3, 0, 2, 11), (3, 3, 0, 2, 7),
                    (5, 2, 2, 3, 40), (11, 2, 4, 2, 331)]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t,N,F", REFERENCE_SHAPES)
def test_decode_rows_equals_the_slot_by_slot_reference(kind, C, r, t, N, F):
    result = simulate(config(kind, C, r, t, N=N, F=F, seed=2))
    assert result.ok
    scheme, rows = server_rows(result)
    users = result.cfg.topo.users()
    expected = [result.expected[g].value for g in users]
    for listed in user_lists(users):
        decoded = scheme.decode_rows(listed, *rows)
        assert decoded == slot_by_slot_decode_rows(scheme, listed, *rows)
        assert decoded == [expected[users.index(g)] for g in listed]


def test_decode_rows_equals_the_slot_by_slot_reference_in_broadcast_mode():
    cfg = SchemeConfig(TopologySpec(3, 2, 1), 3, 7, SchemeKind.P_LFR,
                       seed=1, broadcast=True)
    result = simulate(cfg)
    scheme, rows = server_rows(result)
    for listed in user_lists(cfg.topo.users()):
        assert scheme.decode_rows(listed, *rows) == slot_by_slot_decode_rows(
            scheme, listed, *rows)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t,N,F", [(4, 2, 1, 3, 260), (5, 2, 2, 3, 40),
                                       (4, 1, 2, 2, 37), (10, 3, 3, 20, 1920)])
def test_decode_rows_reads_only_the_listed_users_caches(kind, C, r, t, N, F):
    # Random bits in every row of every cache outside the listed users'
    # caches leave each listed user's combination as it was.
    result = simulate(config(kind, C, r, t, N=N, F=F, seed=4))
    scheme, (*transmitted, subfile_rows, key_rows) = server_rows(result)
    users, rng = result.cfg.topo.users(), random.Random(5)
    for listed in ([users[0]], users[1:3], [users[-1], users[0]]):
        read = {c for g in listed for c in g}
        noisy = [[(row if c in read else rng.getrandbits(width), width)
                  for c, (row, width) in enumerate(rows, 1)]
                 for rows in (subfile_rows, key_rows)]
        decoded = scheme.decode_rows(listed, *transmitted, *noisy)
        assert decoded == scheme.decode_rows(listed, *transmitted,
                                             subfile_rows, key_rows)
        assert decoded == [result.expected[g].value for g in listed]
        assert decoded == slot_by_slot_decode_rows(scheme, listed,
                                                   *transmitted, *noisy)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t,N,F", [(4, 2, 1, 3, 20), (4, 3, 1, 2, 21),
                                       (4, 2, 1, 2, 257)])
def test_decode_rows_equals_the_reference_on_random_key_rows(kind, C, r, t,
                                                             N, F):
    # Key rows of random bits, padding bits of share blocks included:
    # decode_rows and the reference read the same keys and cut each
    # piece to sb bits.
    result = simulate(config(kind, C, r, t, N=N, F=F, seed=6))
    scheme, (*transmitted, subfile_rows, key_rows) = server_rows(result)
    rng = random.Random(7)
    noisy = [(rng.getrandbits(width), width) for _, width in key_rows]
    for listed in user_lists(result.cfg.topo.users()):
        assert scheme.decode_rows(listed, *transmitted, subfile_rows,
                                  noisy) == slot_by_slot_decode_rows(
            scheme, listed, *transmitted, subfile_rows, noisy)


def test_the_ten_cache_decode_plan_takes_at_most_a_mebibyte():
    # The plan lives as long as the process: engine-c10's peak memory
    # carries it.  Its tables of other topologies are built first.
    topo = TopologySpec(10, 3, 3)
    schemes._indices(topo)
    indexing._key_labels(topo, "sent")
    tracemalloc.start()
    try:
        plan = schemes._decode_plan.__wrapped__(topo)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(plan.lanes) == comb(6, 3) - 1 and plan.sends.typecode == "H"
    assert len(plan.sends) == 120 * 35 and len(plan.pieces) == 120 * 120
    assert kept <= peak <= 1 << 20


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_scheme_keeps_nothing_of_a_placement(kind):
    # Whatever a Scheme decodes, it holds only what __init__ built.
    cfg = config(kind, 4, 2, 1)
    result, scheme = simulate(cfg), Scheme(cfg)
    before = set(vars(scheme))
    server_rows_decode(scheme, result, cfg.topo.users())
    for g, demand in zip(cfg.topo.users(), result.demands):
        scheme.decode([result.placement.caches[c - 1] for c in g],
                      result.transcript, [demand])
    assert set(vars(scheme)) == before
    assert not hasattr(scheme, "_images")


def test_share_weights_once_a_decode_and_mds_inverses_once(monkeypatch):
    # An sp-lfr and an is-lfr round, each decoded by simulate and by two
    # more Schemes, derive the Lagrange weights once per decode of all six
    # users and each inverse once per (code, positions) in the process.
    # A singular position set raises on every call: the cache keeps no
    # exception.
    configs = [config(kind, 4, 2, 2)
               for kind in (SchemeKind.SP_LFR, SchemeKind.IS_LFR)]
    code = configs[1].key_code  # built and checked before the count
    derived = Counter()
    weights, solve = BinaryField.lagrange_weights_at_zero, mds._solve
    monkeypatch.setattr(
        BinaryField, "lagrange_weights_at_zero",
        lambda field, xs: derived.update([(field, len(xs))])
        or weights(field, xs))
    monkeypatch.setattr(
        mds, "_solve", lambda field, matrix, rhs: derived.update(
            [tuple(map(tuple, matrix))]) or solve(field, matrix, rhs))
    mds._inverse.cache_clear()
    for cfg in configs:
        result = simulate(cfg)
        for scheme in (Scheme(cfg), Scheme(cfg)):
            assert server_rows_decode(scheme, result, cfg.topo.users()) == [
                result.expected[g].value for g in cfg.topo.users()]
    classes = indexing._decode_plan(configs[1].topo).classes
    assert len(classes) == comb(4, 2) and derived == Counter(
        {(configs[0].key_field, 2): 3}
        | {tuple(code.column(p) for p in positions): 1
           for positions, _, _ in classes})
    broken = MdsCode(3, 2, binary_field(2), ((1, 0, 1), (0, 1, 0)))
    for _ in range(2):
        with pytest.raises(IntegrityError):
            mds.decoding_matrix(broken, [1, 3])


def test_deliver_validates_demands():
    cfg = config(SchemeKind.LFR, 3, 2, 1)
    scheme = Scheme(cfg)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    placement = scheme.place(lib)
    table = subpacketize(lib, cfg.topo)
    demands = random_demands(cfg.topo, cfg.num_files, random.Random(0))
    with pytest.raises(UsageError):
        scheme.deliver(placement.randomness, table, demands[:-1])
    bad_width = (replace(demands[0], num_files=cfg.num_files + 1),) + demands[1:]
    with pytest.raises(UsageError):
        scheme.deliver(placement.randomness, table, bad_width)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_demand_of_no_user_is_an_error(kind):
    # deliver once dropped it silently, and check_correctness died on it
    # with a bare IndexError.
    cfg = config(kind, 3, 2, 1)
    demands = random_demands(cfg.topo, cfg.num_files, random.Random(0))
    stranger = demands + (DemandVector((7, 9), 1, cfg.num_files),)
    with pytest.raises(UsageError, match=re.escape(
            "(7, 9) is not a user of this topology")):
        simulate(cfg, demands=stranger)
    with pytest.raises(UsageError, match=re.escape("(7, 9) is not a user")):
        check_correctness(cfg, [stranger])


def test_deliver_rejects_a_table_of_another_library_shape():
    # A table short of a file once delivered payload 0 for a demand of the
    # missing file, where the true payload is that file's subfile.
    cfg = config(SchemeKind.LFR, 3, 2, 1, N=3)
    scheme = Scheme(cfg)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    placement = scheme.place(lib)
    demands = tuple(DemandVector.one_hot(g, 3, cfg.num_files)
                    for g in cfg.topo.users())
    short = subpacketize(FileLibrary(lib.files[:2]), cfg.topo)
    with pytest.raises(UsageError, match="does not match the configuration"):
        scheme.deliver(placement.randomness, short, demands)
    narrow = replace(placement.table, subfile_bits=cfg.subfile_bits + 1)
    with pytest.raises(UsageError, match="does not match the configuration"):
        scheme.deliver(placement.randomness, narrow, demands)


def test_config_validation():
    topo = TopologySpec(3, 2, 1)
    with pytest.raises(DomainError):
        SchemeConfig(topo, 0, 3, SchemeKind.LFR)
    with pytest.raises(DomainError, match="got 0"):
        SchemeConfig(topo, 2, 0, SchemeKind.LFR)
    with pytest.raises(UsageError):
        SchemeConfig(topo, 2, 3, SchemeKind.LFR, seed=-1)


def test_place_rejects_mismatched_library():
    cfg = config(SchemeKind.LFR, 3, 2, 1)
    scheme = Scheme(cfg)
    with pytest.raises(UsageError):
        scheme.place(FileLibrary.random(random.Random(0), cfg.num_files + 1,
                                        cfg.file_bits))


def test_decoded_value_is_the_linear_combination():
    # End to end against the whole-file oracle, including the zero demand.
    cfg = config(SchemeKind.IS_LFR, 4, 2, 1, N=4)
    users = cfg.topo.users()
    demands = tuple(DemandVector(g, coeffs, 4)
                    for g, coeffs in zip(users, (0, 1, 0b1111, 0b1010, 0b0110,
                                                 0b1001)))
    result = simulate(cfg, demands=demands)
    for g, d in zip(users, demands):
        assert result.decoded[g] == linear_combination(d, result.library)
    assert result.ok


def test_key_code_is_built_once_per_config():
    cfg = config(SchemeKind.IS_LFR, 4, 2, 1)
    assert cfg.key_code is cfg.key_code
    assert (cfg.key_code.length, cfg.key_code.dimension) == (3, 2)


def test_placement_carries_the_table_delivery_uses():
    cfg = config(SchemeKind.S_LFR, 4, 2, 1)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    placement = Scheme(cfg).place(lib)
    assert placement.table == subpacketize(lib, cfg.topo)


def test_asymmetric_placement_is_an_error(monkeypatch):
    # Raised explicitly, so the check survives python -O.
    honest = Scheme._place_keys

    def lopsided(self, randomness, subfiles, table):
        caches = honest(self, randomness, subfiles, table)
        extra = dict(caches[0].whole_keys)
        extra[("extra",)] = BitBlock.zeros(1)
        caches[0] = replace(caches[0], whole_keys=extra)
        return caches

    monkeypatch.setattr(Scheme, "_place_keys", lopsided)
    cfg = config(SchemeKind.S_LFR, 3, 2, 1)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    with pytest.raises(IntegrityError, match="symmetric"):
        Scheme(cfg).place(lib)


def test_secure_placement_under_the_memory_floor_is_an_error(monkeypatch):
    def keyless(self, randomness, subfiles, table):
        return [CacheContent(c + 1, held, {}, {}, {})
                for c, held in enumerate(subfiles)]

    monkeypatch.setattr(Scheme, "_place_keys", keyless)
    cfg = config(SchemeKind.S_LFR, 3, 2, 0)  # t = 0: no subfiles either
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    with pytest.raises(IntegrityError, match="memory bound"):
        Scheme(cfg).place(lib)
