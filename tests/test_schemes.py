"""Scheme behavior: placement shape, delivery, decoding, and the exact
reduction identities between the five kinds.

Memory is cross-checked two ways: the measured bit count of the placed
caches against the closed-form corner point, which is derived from
counting arguments and never looks at a placement.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from maclfr.analysis import point
from maclfr.bits import BitBlock
from maclfr.errors import DomainError, IntegrityError, UsageError
from maclfr.library import (DemandVector, FileLibrary, cycling_one_hot_demands,
                            linear_combination, random_demands, subpacketize)
from maclfr.schemes import (CacheContent, RandomnessLayout, Scheme,
                            SchemeConfig, SchemeKind, ServerRandomness,
                            ServerSecrets, derive_rng, simulate)
from maclfr.topology import TopologySpec

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
@pytest.mark.parametrize("C,r,t", SWEEP)
def test_measured_memory_and_rate_match_closed_forms(kind, C, r, t):
    cfg = config(kind, C, r, t, N=comb(C, r))  # N >= K keeps the bound armed
    result = simulate(cfg)
    expected = point(kind, C, r, t, cfg.num_files, cfg.file_bits)
    assert result.placement.memory == expected.memory
    assert result.transcript.rate == expected.rate
    # Rate in bits: the payload volume equals rate * F at aligned F.
    assert (Fraction(result.transcript.payload_bits, cfg.file_bits)
            == expected.rate)


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
    sp_rand = ServerRandomness(
        {S: BitBlock.zeros(sp_cfg.subfile_bits)
         for S in sp_cfg.topo.transmission_indices()},
        p_rand.mask_vectors, p_rand.share_coefficients)
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
    keyless = lfr.deliver(placement.secrets, placement.table, masked)
    for S in cfg.topo.transmission_indices():
        assert (sp.transcript.payloads[S] ^ randomness.payload_keys[S]
                == keyless.payloads[S])


# ---- randomness plumbing ----

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_randomness_layout_units(kind):
    cfg = config(kind, 3, 2, 1, N=2)
    layout = RandomnessLayout.for_config(cfg)
    zero = layout.unpack(0)
    assert all(b.value == 0 for b in zero.payload_keys.values())
    assert all(v == 0 for v in zero.mask_vectors.values())
    drawn = ServerRandomness.draw(cfg, derive_rng(0, "placement"))
    assert set(zero.payload_keys) == set(drawn.payload_keys)
    assert set(zero.mask_vectors) == set(drawn.mask_vectors)
    assert set(zero.share_coefficients) == set(drawn.share_coefficients)
    if kind is SchemeKind.P_LFR:
        # Pinned keys are constants, not entropy.
        assert all(label[0] != "key" for label, _ in layout.entries)
    with pytest.raises(DomainError):
        layout.unpack(1 << layout.total_bits)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("C,r,t", ((3, 2, 1), (4, 1, 2), (4, 3, 1)))
def test_draw_agrees_with_layout_unpack(kind, C, r, t):
    # draw() and unpack() read one canonical order: replaying the placement
    # stream one getrandbits(bits) per layout entry and unpacking the packed
    # value rebuilds exactly what draw() returns.  p-lfr's pinned keys are
    # drawn and dropped, so the replay consumes them first.
    cfg = config(kind, C, r, t, N=2)
    layout = RandomnessLayout.for_config(cfg)
    for seed in (0, 1, 2):
        replay = derive_rng(seed, "placement")
        if kind is SchemeKind.P_LFR:
            for _ in cfg.topo.transmission_indices():
                replay.getrandbits(cfg.subfile_bits)
        value, offset = 0, 0
        for _, bits in layout.entries:
            value |= replay.getrandbits(bits) << offset
            offset += bits
        assert offset == layout.total_bits
        drawn = ServerRandomness.draw(cfg, derive_rng(seed, "placement"))
        assert layout.unpack(value) == drawn


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


# ---- error paths ----

def test_decode_requires_exactly_the_member_caches():
    cfg = config(SchemeKind.S_LFR, 3, 2, 1)
    result = simulate(cfg)
    scheme = Scheme(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    with pytest.raises(UsageError):
        scheme.decode(user, caches[:1], result.transcript)
    with pytest.raises(UsageError):
        scheme.decode(user, list(result.placement.caches), result.transcript)
    with pytest.raises(UsageError):
        scheme.decode((1, 2, 3), caches, result.transcript)


def test_masked_kind_needs_the_own_demand():
    cfg = config(SchemeKind.SP_LFR, 3, 2, 1)
    result = simulate(cfg)
    scheme = Scheme(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    with pytest.raises(UsageError):
        scheme.decode(user, caches, result.transcript)
    wrong_user = DemandVector(cfg.topo.users()[1], 0, cfg.num_files)
    with pytest.raises(UsageError):
        scheme.decode(user, caches, result.transcript, wrong_user)


def test_cleartext_kind_carries_the_demand():
    cfg = config(SchemeKind.LFR, 3, 2, 1)
    result = simulate(cfg)
    scheme = Scheme(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    decoded = scheme.decode(user, caches, result.transcript)
    assert decoded == result.expected[user]
    conflicting = DemandVector(user,
                               result.demands[0].coeffs ^ 1, cfg.num_files)
    with pytest.raises(UsageError):
        scheme.decode(user, caches, result.transcript, conflicting)


def test_doctored_transcript_is_detected():
    cfg = config(SchemeKind.S_LFR, 3, 2, 1)
    result = simulate(cfg)
    scheme = Scheme(cfg)
    user = cfg.topo.users()[0]
    caches = [result.placement.caches[c - 1] for c in user]
    gutted = replace(result.transcript, payloads={})
    with pytest.raises(IntegrityError):
        scheme.decode(user, caches, gutted, result.demands[0])
    silent = replace(result.transcript, cleartext_demands={})
    with pytest.raises(IntegrityError):
        scheme.decode(user, caches, silent, result.demands[0])


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
                       match=re.escape("subfile (1, (2,)) not in reach")):
        scheme.decode(user, gutted, result.transcript, demand)


def test_decode_reports_a_subfile_another_combination_needs():
    # User (1, 2) demands nothing, so only the other users' combinations
    # on its transmissions read the stripped subfile.
    scheme, result, user, caches, demand = decode_setup(SchemeKind.S_LFR,
                                                        own=0)
    assert scheme.decode(user, caches, result.transcript, demand).value == 0
    gutted = strip(caches, 2, "subfiles", (3, (2,)))
    with pytest.raises(IntegrityError,
                       match=re.escape("subfile (3, (2,)) not in reach")):
        scheme.decode(user, gutted, result.transcript, demand)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decode_reports_a_missing_payload(kind):
    scheme, result, user, caches, demand = decode_setup(kind)
    payloads = dict(result.transcript.payloads)
    del payloads[(1, 2, 4)]
    gutted = replace(result.transcript, payloads=payloads)
    with pytest.raises(IntegrityError, match=re.escape(
            "transcript lacks the payload for (1, 2, 4)")):
        scheme.decode(user, caches, gutted, demand)


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
        scheme.decode(user, gutted, result.transcript, demand)


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
            f"transcript lacks the {what} of (1, 3)")):
        scheme.decode(user, caches, gutted, demand)


def test_blocks_of_the_wrong_length_are_rejected():
    scheme, result, user, caches, demand = decode_setup(SchemeKind.S_LFR)
    held = dict(caches[1].subfiles)
    held[(1, (2,))] = BitBlock.zeros(held[(1, (2,))].length + 1)
    stretched = [caches[0], replace(caches[1], subfiles=held)]
    with pytest.raises(UsageError, match=re.escape("subfile (1, (2,)) has")):
        scheme.decode(user, stretched, result.transcript, demand)
    payloads = dict(result.transcript.payloads)
    wide = result.cfg.subfile_bits + 1
    payloads[(1, 2, 3)] = BitBlock.zeros(wide)
    with pytest.raises(UsageError, match=re.escape(
            f"payload (1, 2, 3) has {wide} bits")):
        scheme.decode(user, caches, replace(result.transcript, payloads=payloads),
                      demand)
    secrets = result.placement.secrets
    keys = dict(secrets.randomness.payload_keys)
    keys[(1, 2, 4)] = BitBlock.zeros(wide)
    short = replace(secrets, randomness=replace(secrets.randomness,
                                                payload_keys=keys))
    with pytest.raises(UsageError, match=re.escape("payload key (1, 2, 4)")):
        scheme.deliver(short, result.placement.table, result.demands)


def test_decode_reports_the_wrong_caches():
    scheme, result, user, caches, demand = decode_setup(SchemeKind.SP_LFR)
    with pytest.raises(UsageError, match=re.escape(
            "decode needs exactly the caches (1, 2), got [1]")):
        scheme.decode(user, caches[:1], result.transcript, demand)
    with pytest.raises(UsageError, match="is not a user"):
        scheme.decode((1, 2, 3), caches, result.transcript, demand)


def test_deliver_validates_demands():
    cfg = config(SchemeKind.LFR, 3, 2, 1)
    scheme = Scheme(cfg)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    placement = scheme.place(lib)
    table = subpacketize(lib, cfg.topo)
    demands = random_demands(cfg.topo, cfg.num_files, random.Random(0))
    with pytest.raises(UsageError):
        scheme.deliver(placement.secrets, table, demands[:-1])
    bad_width = (replace(demands[0], num_files=cfg.num_files + 1),) + demands[1:]
    with pytest.raises(UsageError):
        scheme.deliver(placement.secrets, table, bad_width)


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
        scheme.deliver(placement.secrets, short, demands)
    narrow = replace(placement.table, subfile_bits=cfg.subfile_bits + 1)
    with pytest.raises(UsageError, match="does not match the configuration"):
        scheme.deliver(placement.secrets, narrow, demands)


def test_config_validation():
    topo = TopologySpec(3, 2, 1)
    with pytest.raises(DomainError):
        SchemeConfig(topo, 0, 3, SchemeKind.LFR)
    with pytest.raises(DomainError):
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
        caches, secrets = honest(self, randomness, subfiles, table)
        extra = dict(caches[0].whole_keys)
        extra[("extra",)] = BitBlock.zeros(1)
        caches[0] = replace(caches[0], whole_keys=extra)
        return caches, secrets

    monkeypatch.setattr(Scheme, "_place_keys", lopsided)
    cfg = config(SchemeKind.S_LFR, 3, 2, 1)
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    with pytest.raises(IntegrityError, match="symmetric"):
        Scheme(cfg).place(lib)


def test_secure_placement_under_the_memory_floor_is_an_error(monkeypatch):
    def keyless(self, randomness, subfiles, table):
        caches = [CacheContent(c + 1, held, {}, {}, {})
                  for c, held in enumerate(subfiles)]
        return caches, ServerSecrets(randomness, {})

    monkeypatch.setattr(Scheme, "_place_keys", keyless)
    cfg = config(SchemeKind.S_LFR, 3, 2, 0)  # t = 0: no subfiles either
    lib = FileLibrary.random(derive_rng(0, "library"), cfg.num_files,
                             cfg.file_bits)
    with pytest.raises(IntegrityError, match="memory bound"):
        Scheme(cfg).place(lib)
