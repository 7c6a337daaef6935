"""End-to-end acceptance gate.

Twelve numbered checks pin the externally visible behavior of the package:
the worked configurations land exactly on their hand-computed memory and
rate values, the exhaustive oracles certify correctness, security, and
privacy on desk-scale instances, the key-handling primitives hold their
secrecy properties, the tradeoff curves and optimality-gap corners match
independently derived closed forms, every secure placement respects the
memory floor, and command-line runs are byte-for-byte reproducible.

Each test covers one criterion, so a verbose run prints one pass or fail
line per criterion; stated runtime budgets are asserted inside the tests.
All expected values below were derived by hand from the counting arguments
the formula tests exercise (see test_analysis.py): a cache stores
N * binom(C-1, t-1) / binom(C, t) files of library data, one key (share,
block, or copy) per transmission index it appears in, and the delivery
rate is binom(C, t+r) / binom(C, t) files.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

from maclfr import cli
from maclfr.analysis import (
    BROADCAST_TAG,
    curve,
    optimality_gap,
    point,
    security_memory_bound,
)
from maclfr.gf import binary_field, exponent_for_share_count
from maclfr.library import FileLibrary
from maclfr.mds import build_code, decode_key, encode_key
from maclfr.presets import (
    FIGURE_PRESETS,
    PAIRS_OF_FIVE,
    PAIRS_OF_THREE,
    TRIPLES_OF_FIVE,
    WorkedConfiguration,
)
from maclfr.schemes import Scheme, SchemeKind, derive_rng, simulate
from maclfr.shamir import leakage_check, reconstruct, split
from maclfr.topology import TopologySpec
from maclfr.verify import (
    check_correctness,
    check_privacy_exact,
    check_security_exact,
    demands_from_int,
    tiny_config,
    tiny_sweep_topologies,
)

SECURE_KINDS = (SchemeKind.SP_LFR, SchemeKind.S_LFR, SchemeKind.IS_LFR)
ALL_KINDS = tuple(SchemeKind)


def _finish(num: int, label: str, started: float,
            budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} ran {elapsed:.1f}s, over the {budget:.0f}s budget")
    print(f"criterion {num:2d} pass ({label}, {elapsed:.2f}s)")


def _run_battery(worked: WorkedConfiguration, kind: SchemeKind):
    """Simulate the preset battery and return the result (asserting decode)."""
    result = simulate(worked.config(kind), demands=worked.demands())
    assert result.ok, f"{kind.value} failed to decode {worked.name}"
    return result


def test_criterion_01_pairs_of_three_corner_values():
    """Three caches in pairs (C=3, r=2, t=1, N=3): the per-cache memory of
    every kind and the common delivery rate equal the hand-computed
    fractions, both as closed-form points and as measured placements."""
    started = time.perf_counter()
    # Data per cache is N*binom(2,0)/binom(3,1) = 1 file.  Key storage:
    # two Shamir shares of subfile-sized keys (2/3), one whole subfile key
    # (1/3), one half-length coded block (1/6), or nothing.
    golden_memory = {
        SchemeKind.SP_LFR: Fraction(5, 3),
        SchemeKind.P_LFR: Fraction(5, 3),
        SchemeKind.S_LFR: Fraction(4, 3),
        SchemeKind.IS_LFR: Fraction(7, 6),
        SchemeKind.LFR: Fraction(1),
    }
    golden_rate = Fraction(1, 3)  # binom(3,3)/binom(3,1)
    for kind in ALL_KINDS:
        p = point(kind, 3, 2, 1, 3, PAIRS_OF_THREE.file_bits)
        assert p.memory == golden_memory[kind], kind
        assert p.rate == golden_rate, kind
        result = _run_battery(PAIRS_OF_THREE, kind)
        assert result.placement.memory == golden_memory[kind], kind
        assert result.transcript.rate == golden_rate, kind
    _finish(1, "pairs-of-three corner values", started, budget=1.0)


def test_criterion_02_triples_of_five_corner_values():
    """Five caches in triples (C=5, r=3, t=2, N=10): memories 23/5, 41/10,
    and 121/30 for the three secure kinds, rate 1/10, and every user
    decodes the adjacent-pair combination battery."""
    started = time.perf_counter()
    golden_memory = {
        SchemeKind.SP_LFR: Fraction(23, 5),
        SchemeKind.P_LFR: Fraction(23, 5),
        SchemeKind.S_LFR: Fraction(41, 10),
        SchemeKind.IS_LFR: Fraction(121, 30),
        SchemeKind.LFR: Fraction(4),
    }
    golden_rate = Fraction(1, 10)  # binom(5,5)/binom(5,2)
    for kind in ALL_KINDS:
        p = point(kind, 5, 3, 2, 10, TRIPLES_OF_FIVE.file_bits)
        assert p.memory == golden_memory[kind], kind
        assert p.rate == golden_rate, kind
        result = _run_battery(TRIPLES_OF_FIVE, kind)
        assert result.placement.memory == golden_memory[kind], kind
        assert result.transcript.rate == golden_rate, kind
    _finish(2, "triples-of-five corner values", started, budget=5.0)


def test_criterion_03_pairs_of_five_corner_values():
    """Five caches in pairs (C=5, r=2, t=2, N=10): superposed-key memory
    26/5 at rate 1/2, whole-key memory 22/5, coded-key memory 21/5, and
    all ten mixed combination demands decode for every kind."""
    started = time.perf_counter()
    # Data per cache is 10*binom(4,1)/binom(5,2) = 4 files.  Key storage:
    # binom(4,1)*binom(3,2) = 12 shares of (1/10)-file keys per cache for
    # the share-splitting kinds, binom(4,3) = 4 whole keys for the
    # whole-key kind, and 4 half-length blocks for the coded kind.
    golden_memory = {
        SchemeKind.SP_LFR: Fraction(26, 5),
        SchemeKind.P_LFR: Fraction(26, 5),
        SchemeKind.S_LFR: Fraction(22, 5),
        SchemeKind.IS_LFR: Fraction(21, 5),
        SchemeKind.LFR: Fraction(4),
    }
    golden_rate = Fraction(1, 2)  # binom(5,4)/binom(5,2)
    for kind in ALL_KINDS:
        p = point(kind, 5, 2, 2, 10, PAIRS_OF_FIVE.file_bits)
        assert p.memory == golden_memory[kind], kind
        assert p.rate == golden_rate, kind
        result = _run_battery(PAIRS_OF_FIVE, kind)
        assert result.placement.memory == golden_memory[kind], kind
        assert result.transcript.rate == golden_rate, kind
    _finish(3, "pairs-of-five corner values", started, budget=5.0)


def test_criterion_04_exhaustive_decode_tiny_instance():
    """At C=3, r=2, t=1 with two files, all 64 demand tuples decode for
    every scheme kind under 20 placement seeds (19200 decodes total)."""
    started = time.perf_counter()
    total = 0
    for kind in ALL_KINDS:
        cfg = tiny_config(kind, 3, 2, 1)
        tuples = (1 << cfg.num_files) ** cfg.topo.num_users
        assert tuples == 64
        batteries = [demands_from_int(v, cfg) for v in range(tuples)]
        report = check_correctness(cfg, batteries, seeds=range(20))
        assert report.ok, (kind, report.failures[:3])
        total += report.decodes
    assert total == 64 * 20 * 3 * len(ALL_KINDS)
    _finish(4, "exhaustive decode, 64 tuples x 20 seeds x 5 kinds", started,
            budget=30.0)


def test_criterion_05_security_certified_zero_on_sweep():
    """Exact mutual information between the broadcast transmission alone
    (no cache) and the library is zero for every keyed kind on the tiny
    sweep, and strictly positive for the keyless control.  Each instance
    stays under its per-instance budget."""
    started = time.perf_counter()
    per_instance_budget = 300.0
    for C, r, t in tiny_sweep_topologies():
        for kind in SECURE_KINDS:
            t0 = time.perf_counter()
            res = check_security_exact(tiny_config(kind, C, r, t))
            dt = time.perf_counter() - t0
            assert dt < per_instance_budget, (kind, C, r, t, dt)
            assert res.certified_zero, (kind, C, r, t, res.method)
            assert res.mi_bits == 0.0, (kind, C, r, t)
    control = check_security_exact(tiny_config(SchemeKind.LFR, 3, 2, 1))
    assert not control.certified_zero
    assert control.mi_bits > 0.0
    _finish(5, "security zero on sweep, keyless control leaks", started)


def test_criterion_06_privacy_certified_zero_pinned_instance():
    """At C=3, r=2, t=1 with two one-bit-subfile files, every observing
    user's view has exactly zero total variation across the other users'
    demands for the demand-masking kinds, and the cleartext control
    leaks."""
    started = time.perf_counter()
    for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR):
        res = check_privacy_exact(tiny_config(kind, 3, 2, 1))
        assert res.certified_zero, (kind, res.max_tv)
        assert all(tv == 0 for tv in res.per_observer.values()), kind
    control = check_privacy_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 1))
    assert control.max_tv > 0
    _finish(6, "privacy zero for masking kinds, cleartext control leaks",
            started, budget=600.0)


def test_criterion_07_share_split_round_trip_and_secrecy():
    """One thousand random split/reconstruct round trips at share counts
    up to six, then exhaustive below-threshold secrecy at two shares over
    GF(4) (two symbols) and three shares over GF(4) (one symbol)."""
    started = time.perf_counter()
    rng = derive_rng(1007, "share-round-trips")
    for i in range(1000):
        count = rng.randint(1, 6)
        field = binary_field(exponent_for_share_count(count))
        bits = rng.randint(1, 40)
        secret = rng.getrandbits(bits)
        symbols = -(-bits // field.exponent)
        planes = [rng.getrandbits(symbols * field.exponent)
                  for _ in range(count - 1)]
        shares = split(secret, bits, count, field, planes)
        assert reconstruct(shares) == secret, (i, count)
    # Below-threshold observations: the counter over observed share tuples
    # must be the same for every secret, for every proper subset of shares.
    for count, symbols in ((2, 2), (3, 1)):
        field = binary_field(2)
        for size in range(1, count):
            for positions in combinations(range(1, count + 1), size):
                tables = leakage_check(symbols, count, field, positions)
                reference = None
                for counter in tables.values():
                    if reference is None:
                        reference = counter
                    assert counter == reference, (count, symbols, positions)
    _finish(7, "share round trips and exhaustive secrecy", started)


def test_criterion_08_coded_key_every_subset_decodes():
    """For code shapes (3,2), (4,2), (5,3), and (5,2), two hundred random
    keys each re-decode from every dimension-sized block subset, and the
    binary parity code's check block equals the XOR of the sub-keys."""
    started = time.perf_counter()
    rng = derive_rng(1008, "coded-key-battery")
    for length, dimension in ((3, 2), (4, 2), (5, 3), (5, 2)):
        code = build_code(length, dimension)
        for _ in range(200):
            bits = rng.randint(1, 24)
            key = rng.getrandbits(bits)
            blocks = encode_key(key, bits, code)
            assert len(blocks) == length
            for chosen in combinations(range(1, length + 1), dimension):
                picked = [(p, blocks[p - 1]) for p in chosen]
                assert decode_key(picked, code, bits) == key
    # The (3,2) code over GF(2) is the single-parity code, so its third
    # block is the bitwise XOR of the first two.
    parity = build_code(3, 2)
    key = derive_rng(1008, "parity-identity").getrandbits(16)
    b1, b2, b3 = encode_key(key, 16, parity)
    assert b3 == b1 ^ b2
    _finish(8, "coded keys decode from every subset", started)


def test_criterion_09_figure_presets_match_closed_forms():
    """Every figure preset's curves carry the closed-form grid points;
    spot values re-derived by hand match exactly; the demand-masking
    broadcast variant equals the superposed-key curve everywhere except
    its extra zero-memory corner."""
    started = time.perf_counter()
    for preset in FIGURE_PRESETS.values():
        curves = {kind: curve(kind, preset.num_caches, preset.access_degree,
                              preset.num_files)
                  for kind in preset.kinds}
        for kind, c in curves.items():
            assert c.envelope, kind
            grid = [p for p in c.points if p.t is not None]
            assert [p.t for p in grid] == list(
                range(0, preset.num_caches - preset.access_degree + 1))
            for p in grid:
                expected = point(kind, preset.num_caches,
                                 preset.access_degree, p.t, preset.num_files)
                assert (p.memory, p.rate) == (expected.memory, expected.rate)
        if SchemeKind.P_LFR in curves and SchemeKind.SP_LFR in curves:
            sp = curves[SchemeKind.SP_LFR].points
            pl = [p for p in curves[SchemeKind.P_LFR].points
                  if p.tag != BROADCAST_TAG]
            assert pl == list(sp)
            extra = [p for p in curves[SchemeKind.P_LFR].points
                     if p.tag == BROADCAST_TAG]
            assert [(p.memory, p.rate) for p in extra] == [
                (Fraction(0), Fraction(preset.num_files))]
    # Hand-derived spot values, one per figure: data memory Nt/C plus key
    # memory per the counting comments at the top of this file.
    spots = (
        (2, SchemeKind.SP_LFR, 1, Fraction(29, 15), Fraction(7)),
        (3, SchemeKind.SP_LFR, 1, Fraction(287, 15), Fraction(91, 3)),
        (4, SchemeKind.IS_LFR, 1, Fraction(1729, 45), Fraction(91)),
        (5, SchemeKind.S_LFR, 1, Fraction(196, 15), Fraction(91, 3)),
        (5, SchemeKind.IS_LFR, 1, Fraction(301, 30), Fraction(91, 3)),
    )
    for fig, kind, t, memory, rate in spots:
        preset = FIGURE_PRESETS[fig]
        p = point(kind, preset.num_caches, preset.access_degree, t,
                  preset.num_files)
        assert (p.memory, p.rate) == (memory, rate), (fig, kind, t)
    _finish(9, "figure presets match closed forms", started)


def test_criterion_10_optimality_gap_at_most_two():
    """At the asserted corners (superposed keys with N = 2Kr at M = rK/C,
    coded keys with N = 2K at M = K/C) the ratio of the achieved rate to
    the memory-sharing reference is at most 2 for C in {3,4,5}, r in
    {2,3}.  The reference is an achievable rate, so an upper bound on the
    optimal R*, not a converse: the ratio is no gap to the optimum."""
    started = time.perf_counter()
    golden = {
        (3, 2): Fraction(9, 5), (3, 3): Fraction(2),
        (4, 2): Fraction(12, 7), (4, 3): Fraction(32, 17),
        (5, 2): Fraction(5, 3), (5, 3): Fraction(20, 11),
    }
    for (C, r), ratio in golden.items():
        K = comb(C, r)
        for kind, num_files in ((SchemeKind.SP_LFR, 2 * K * r),
                                (SchemeKind.IS_LFR, 2 * K)):
            gap = optimality_gap(kind, C, r, num_files)
            assert gap.bound_asserted, (kind, C, r)
            assert gap.bound_holds, (kind, C, r)
            assert gap.ratio == ratio, (kind, C, r, gap.ratio)
            assert gap.ratio <= 2
    _finish(10, "optimality gap at most two at asserted corners", started)


def test_criterion_11_secure_memory_floor_on_sweep():
    """With as many files as users, the measured per-cache memory of every
    secure placement on the sweep is at least binom(C,r)/C files.  The
    floor needs distinct demands to be possible, hence N = K here."""
    started = time.perf_counter()
    for C, r, t in tiny_sweep_topologies():
        topo = TopologySpec(C, r, t)
        floor = security_memory_bound(C, r)
        assert floor == Fraction(comb(C, r), C)
        for kind in SECURE_KINDS:
            cfg = tiny_config(kind, C, r, t, num_files=topo.num_users)
            scheme = Scheme(cfg)
            library = FileLibrary.random(derive_rng(0, "library"),
                                         cfg.num_files, cfg.file_bits)
            placement = scheme.place(library)
            assert placement.memory >= floor, (kind, C, r, t,
                                               placement.memory, floor)
    _finish(11, "secure placements respect the memory floor", started)


def test_criterion_12_byte_identical_reruns(tmp_path: Path):
    """Repeated command-line runs with the same seed produce byte-identical
    transcripts, curve tables, and verification reports."""
    started = time.perf_counter()

    def artifacts(command: list[str], out: Path) -> dict[str, bytes]:
        assert cli.main(command + ["--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    commands = (
        ["simulate", "--preset", "pairs-of-three", "--scheme", "sp-lfr",
         "--seed", "7"],
        ["curve", "--figure", "2"],
        ["verify", "--suite", "shares", "--seed", "7"],
    )
    for i, command in enumerate(commands):
        first = artifacts(command, tmp_path / f"a{i}")
        second = artifacts(command, tmp_path / f"b{i}")
        assert first.keys() == second.keys()
        assert first == second, f"rerun of {command[0]} differed"
    _finish(12, "byte-identical reruns", started)
