"""Verification oracle checks.

The oracles decide on a bilinear model of the views.  They are checked
against references kept here, which enumerate the engine on every state:
enumerated_security with mutual_information, itself tested on unit
distributions with known information content and by an exact
independence criterion for 2x2 joints (the determinant test), and
enumerated_privacy with total_variation, on instances small enough to
walk.  The security certificate on the bilinear model is also run
against deliberately broken engines, which it must not certify.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb, log2
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maclfr
from maclfr import verify
from maclfr.bits import BitBlock
from maclfr.errors import (DomainError, IntegrityError, ResourceLimitError,
                           UsageError)
from maclfr.library import (DemandVector, FileLibrary, cycling_one_hot_demands,
                            linear_combination)
from maclfr.mds import coded_block_bit_length
from maclfr.schemes import (DeliveryTranscript, RandomnessLayout, Scheme,
                            SchemeKind, derive_rng, randomness_order)
from maclfr.verify import (AFFINITY_PROBES, DEFAULT_STATE_CAP, BilinearModel,
                           ViewExtractor, _echelon_basis, _model_runs,
                           _privacy_affine, _readable_mi, _reduce_point,
                           _security_certified, _views, _walked_mi,
                           check_correctness, check_privacy_exact,
                           check_security_exact, check_share_placement_secrecy,
                           demands_from_int, library_from_int,
                           tiny_config, tiny_sweep_topologies)

F = Fraction


# ---- the enumeration reference for privacy ----

def total_variation(p, q) -> Fraction:
    acc = F(0)
    for k in set(p) | set(q):
        acc += abs(p.get(k, 0) - q.get(k, 0))
    return acc / 2


def enumerated_privacy(cfg) -> dict:
    """Each observer's exact TV, by running the engine of _views on every
    state: the worst distance between its view counts at a library value
    and demand row and those at the same library and own demand with every
    other user demanding nothing.  Demand rows are z's low bits, the
    randomness the bits above them."""
    run, wbits, zbits = _views(cfg)
    users, n = cfg.topo.users(), cfg.num_files
    dbits = n * len(users)
    counts = [{} for _ in users]
    for d in range(1 << dbits):
        for w in range(1 << wbits):
            seen = [c.setdefault((w, d), Counter()) for c in counts]
            for rv in range(1 << (zbits - dbits)):
                for counter, view in zip(seen, run(w, d | rv << dbits)):
                    counter[view] += 1
    per_observer = {}
    for i, (g, by_state) in enumerate(zip(users, counts)):
        own = ((1 << n) - 1) << (i * n)
        per_observer[g] = max(total_variation(by_state[(w, d & own)], counter)
                              for (w, d), counter in by_state.items()
                              ) / (1 << (zbits - dbits))
    return per_observer


# ---- the enumeration reference for security ----

@dataclass(frozen=True)
class MutualInformationResult:
    is_zero: bool   # certified by exact factorization
    bits: float     # floating point value; exactly 0.0 when is_zero


def mutual_information(joint) -> MutualInformationResult:
    """I(X;Y) of an exact joint distribution {(x, y): Fraction}.

    Zero is certified by checking p(x, y) == p(x) p(y) in rational
    arithmetic; the returned bits value comes from the usual logarithmic
    sum and is only as exact as floating point.
    """
    if not joint:
        raise DomainError("empty distribution")
    total = F(0)
    for pair, p in joint.items():
        if not isinstance(p, F):
            raise DomainError(f"probability of {pair} is not a Fraction")
        if p < 0:
            raise DomainError(f"negative probability for {pair}")
        total += p
    if total != 1:
        raise DomainError(f"probabilities sum to {total}, not 1")
    px: dict = {}
    py: dict = {}
    support = {pair: p for pair, p in joint.items() if p > 0}
    for (x, y), p in support.items():
        px[x] = px.get(x, F(0)) + p
        py[y] = py.get(y, F(0)) + p
    factorized = (len(support) == len(px) * len(py)
                  and all(p == px[x] * py[y] for (x, y), p in support.items()))
    if factorized:
        return MutualInformationResult(True, 0.0)
    bits = 0.0
    for (x, y), p in support.items():
        bits += float(p) * (log2(p) - log2(px[x]) - log2(py[y]))
    return MutualInformationResult(False, bits)


def enumerated_joint(run, wbits: int, zbits: int) -> dict:
    """The exact joint distribution of (w, first view of run(w, z)) over
    every state: w < 2^wbits outermost, z innermost."""
    prob = F(1, 1 << (wbits + zbits))
    joint: dict = {}
    for w in range(1 << wbits):
        for z in range(1 << zbits):
            key = (w, run(w, z)[0])
            joint[key] = joint.get(key, F(0)) + prob
    return joint


def enumerated_security(cfg, demands=None) -> dict:
    """The exact joint distribution of (library, transmission view), by
    running the engine of verify._views on every state, so a patch of it
    reaches the reference too; `demands`
    defaults to the cycling one-hot battery, as the oracle's does."""
    if demands is None:
        demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    return enumerated_joint(*verify._views(cfg, demands))


# ---- information measures ----

def test_independent_uniform_is_certified_zero():
    joint = {(x, y): F(1, 8) for x in range(4) for y in range(2)}
    res = mutual_information(joint)
    assert res.is_zero and res.bits == 0.0


def test_identical_bit_carries_one_bit():
    joint = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    res = mutual_information(joint)
    assert not res.is_zero
    assert res.bits == pytest.approx(1.0)


def test_xor_of_hidden_uniform_is_zero():
    # Y = X xor U with U uniform and independent: I(X; Y) = 0 even though
    # the joint was built from a functional relation.
    joint = {}
    for x in range(2):
        for u in range(2):
            joint[(x, x ^ u)] = joint.get((x, x ^ u), F(0)) + F(1, 4)
    assert mutual_information(joint).is_zero


def test_nonuniform_product_is_certified_zero():
    px = {0: F(1, 4), 1: F(3, 4)}
    py = {0: F(2, 5), 1: F(2, 5), 2: F(1, 5)}
    joint = {(x, y): a * b for x, a in px.items() for y, b in py.items()}
    assert mutual_information(joint).is_zero


def test_two_by_two_independence_is_the_determinant_test():
    # For a 2x2 joint, independence holds iff p00 p11 == p01 p10; the
    # certificate must agree with that exactly on random rational joints.
    rng = random.Random(0)
    for _ in range(1000):
        cells = [rng.randrange(0, 5) for _ in range(4)]
        total = sum(cells)
        if total == 0:
            continue
        p = [F(c, total) for c in cells]
        joint = {(0, 0): p[0], (0, 1): p[1], (1, 0): p[2], (1, 1): p[3]}
        joint = {k: v for k, v in joint.items() if v}
        res = mutual_information(joint)
        independent = p[0] * p[3] == p[1] * p[2]
        assert res.is_zero == independent, cells
        if not independent:
            assert res.bits > 0
        else:
            assert res.bits == 0.0


def test_mutual_information_validates_the_distribution():
    with pytest.raises(DomainError):
        mutual_information({(0, 0): F(1, 2)})
    with pytest.raises(DomainError):
        mutual_information({})


def test_total_variation_exact_values():
    p = {0: F(1, 2), 1: F(1, 2)}
    q = {0: F(1, 4), 1: F(3, 4)}
    assert total_variation(p, p) == 0
    assert total_variation(p, q) == F(1, 4)
    disjoint = {2: F(1)}
    assert total_variation(p, disjoint) == 1


# ---- state packing ----

def test_library_and_demand_packing_round_trips():
    cfg = tiny_config(SchemeKind.LFR, 3, 2, 1, num_files=2)
    for value in range(0, 1 << (cfg.num_files * cfg.file_bits), 7):
        lib = library_from_int(value, cfg.num_files, cfg.file_bits)
        assert isinstance(lib, FileLibrary)
        assert sum(f.value << (i * cfg.file_bits)
                   for i, f in enumerate(lib.files)) == value
        assert verify.table_from_int(value, cfg) == verify.subpacketize(
            lib, cfg.topo)
    for dvalue in range(1 << (cfg.num_files * cfg.topo.num_users)):
        demands = demands_from_int(dvalue, cfg)
        assert sum(d.coeffs << (i * cfg.num_files)
                   for i, d in enumerate(demands)) == dvalue
        assert [d.user for d in demands] == list(cfg.topo.users())


# ---- security ----

def test_keyed_schemes_are_certified_secure_small():
    for kind in (SchemeKind.S_LFR, SchemeKind.IS_LFR):
        cfg = tiny_config(kind, 3, 2, 1)
        res = check_security_exact(cfg)
        assert res.certified_zero and res.mi_bits == 0.0
        assert res.method == "affine"
        assert mutual_information(enumerated_security(cfg)).is_zero


def test_masked_scheme_is_certified_secure_via_affine():
    res = check_security_exact(tiny_config(SchemeKind.SP_LFR, 3, 2, 1))
    assert res.certified_zero
    assert res.method == "affine"


def test_keyless_scheme_leaks_exactly_one_subfile_combination():
    # At N=2 with the cycling one-hot battery the keyless payload exposes
    # one bit of library content per state: MI = 1 bit exactly.
    res = check_security_exact(tiny_config(SchemeKind.LFR, 3, 2, 1))
    assert not res.certified_zero
    assert res.mi_bits == pytest.approx(1.0, abs=1e-9)


def test_affine_joint_matches_enumeration_exactly():
    # The model route's answer equals the mutual information of the
    # enumerated joint to the last bit, on instances small enough to brute
    # force (one-file libraries keep the state space tiny while leaving key
    # entropy in play): the fixed point certifies the keyed kinds, and the
    # rank sum gives p-lfr and lfr their exact nonzero values.
    for kind in (SchemeKind.SP_LFR, SchemeKind.S_LFR, SchemeKind.P_LFR,
                 SchemeKind.LFR):
        for t in (0, 1):
            cfg = tiny_config(kind, 3, 2, t, num_files=1)
            demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
            joint = mutual_information(enumerated_security(cfg, demands))
            res = check_security_exact(cfg, demands, method="affine")
            assert res.method == "affine", (kind, t)
            assert (res.certified_zero, res.mi_bits) == (joint.is_zero,
                                                         joint.bits), (kind, t)


def test_battery_order_does_not_change_the_joint():
    # Demands are matched to users by their user field, never by their
    # position in the battery: a reversed battery is the same battery.
    cfg = tiny_config(SchemeKind.LFR, 3, 2, 1)
    in_order = (DemandVector.one_hot((1, 2), 1, 2),
                DemandVector.one_hot((1, 3), 1, 2),
                DemandVector.one_hot((2, 3), 2, 2))
    backwards = in_order[::-1]
    joint = enumerated_security(cfg, in_order)
    assert enumerated_security(cfg, backwards) == joint
    res = check_security_exact(cfg, backwards)
    assert res.demands == (1, 1, 2)
    assert res.mi_bits == pytest.approx(mutual_information(joint).bits,
                                        abs=1e-9)


@pytest.mark.parametrize("jobs", (0, -5, 2))
def test_jobs_below_one_are_rejected(jobs):
    # `jobs` accepts 1 and nothing else.
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    with pytest.raises(UsageError, match="jobs must be 1"):
        check_security_exact(cfg, demands, jobs=jobs)
    assert (check_security_exact(cfg, demands, jobs=1)
            == check_security_exact(cfg, demands))


ENUMERABLE = 1 << 14  # states the cross-checks below enumerate at most


def _security_state_bits(cfg) -> int:
    # The eavesdropper's randomness: the runs the transmission reads.
    return (cfg.num_files * cfg.file_bits
            + RandomnessLayout.for_config(cfg, observers=False).total_bits)


def _privacy_state_bits(cfg) -> int:
    return (cfg.num_files * (cfg.file_bits + cfg.topo.num_users)
            + RandomnessLayout.for_config(cfg).total_bits)


def test_affine_matches_every_enumerated_sweep_instance():
    # Every sweep topology under every kind whose state space is small
    # enough to walk gets the same verdict and MI from the model route as
    # from the enumeration reference; among them are s-lfr and lfr at
    # (3,2,1), the instances test_golden pins.
    compared = []
    for C, r, t in tiny_sweep_topologies():
        for kind in SchemeKind:
            cfg = tiny_config(kind, C, r, t)
            if 1 << _security_state_bits(cfg) > ENUMERABLE:
                continue
            enum = mutual_information(enumerated_security(cfg))
            affine = check_security_exact(cfg)
            assert affine.certified_zero == enum.is_zero, (kind, C, r, t)
            assert affine.mi_bits == pytest.approx(enum.bits, abs=1e-9)
            compared.append(kind)
    # 8 topologies under s-lfr, is-lfr and lfr; sp-lfr (3,2,0), (3,2,1),
    # (3,3,0), (4,3,0) and p-lfr (3,2,0), (3,2,1), (3,3,0), (4,2,0),
    # (4,3,0), whose eavesdropper reads no share coefficient.
    assert set(compared) == set(SchemeKind)
    assert len(compared) == 33


def test_privacy_affine_matches_every_enumerated_c3_instance():
    # The same for privacy at C = 3, with one and two files, for every kind,
    # against the test-side enumeration.
    compared = []
    for C, r, t in tiny_sweep_topologies():
        if C != 3:
            continue
        for kind in SchemeKind:
            for num_files in (1, 2):
                cfg = tiny_config(kind, C, r, t, num_files=num_files)
                if 1 << _privacy_state_bits(cfg) > ENUMERABLE:
                    continue
                affine = check_privacy_exact(cfg, method="affine")
                assert affine.per_observer == enumerated_privacy(cfg), (
                    kind, C, r, t, num_files)
                compared.append(kind)
    # p-lfr (3,2,0) with one file is the multi-user masking instance here;
    # test_privacy_affine_matches_enumeration adds sp-lfr (3,2,1).
    assert set(compared) == set(SchemeKind)
    assert len(compared) == 23


def test_auto_takes_the_route_with_fewer_engine_runs():
    # Each oracle has one route, the model: "auto" and "affine" both name
    # it and give the same result, and any other method is refused.
    for kind, C, r, t in ((SchemeKind.LFR, 3, 3, 0), (SchemeKind.S_LFR, 3, 2, 0),
                          (SchemeKind.LFR, 3, 2, 1), (SchemeKind.S_LFR, 3, 2, 1),
                          (SchemeKind.IS_LFR, 4, 2, 2)):
        cfg = tiny_config(kind, C, r, t)
        res = check_security_exact(cfg)
        assert res == check_security_exact(cfg, method="affine")
        assert res.method == "affine", (kind, C, r, t)
    # Pinned by hand: s-lfr (3,2,0) spends 36 model runs where it once
    # enumerated 32 states, and lfr (3,2,1) 63 runs.
    lfr = check_security_exact(tiny_config(SchemeKind.LFR, 3, 2, 1))
    assert (lfr.method, lfr.states) == ("affine", 63)
    slfr = check_security_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 0))
    assert (slfr.method, slfr.states) == ("affine", 36)
    small = tiny_config(SchemeKind.S_LFR, 3, 3, 0)
    assert check_privacy_exact(small).method == "affine"
    assert check_privacy_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 1)
                               ).method == "affine"
    for method in ("enumerate", "sample"):
        with pytest.raises(UsageError, match="one method"):
            check_security_exact(small, method=method)
        with pytest.raises(UsageError, match="one method"):
            check_privacy_exact(small, method=method)


def test_certificates_answer_without_the_walk(monkeypatch):
    # With the security walk disabled, every sweep instance of every kind
    # gets both answers from rank arguments on the model, for the engine
    # runs the recovery spent and no more.
    def no_walk(*args, **kwargs):
        raise AssertionError("walked the library values")

    monkeypatch.setattr(verify, "_walked_mi", no_walk)
    for C, r, t in tiny_sweep_topologies():
        for kind in SchemeKind:
            cfg = tiny_config(kind, C, r, t)
            wbits = cfg.num_files * cfg.file_bits
            rbits = RandomnessLayout.for_config(cfg).total_bits
            sbits = RandomnessLayout.for_config(cfg, observers=False).total_bits
            dbits = cfg.num_files * cfg.topo.num_users
            sec = check_security_exact(cfg, method="affine")
            assert (sec.method, sec.states) == (
                "affine", _model_runs(wbits, sbits)), (kind, C, r, t)
            priv = check_privacy_exact(cfg, method="affine")
            runs = _model_runs(wbits, dbits + rbits)
            assert (priv.method, priv.states) == (
                "affine", runs if cfg.topo.num_users > 1 else 0), (kind, C, r, t)


@st.composite
def dense_models(draw):
    """A random dense model (base, lib, inp, block[i][j]) with at least one
    empty column and one column that holds every i, and a point (w, z)."""
    wbits, zbits = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    view = st.integers(0, (1 << 12) - 1)
    nonzero = st.integers(1, (1 << 12) - 1)
    block = [[draw(view) for _ in range(zbits)] for _ in range(wbits)]
    empty, full = draw(st.permutations(range(zbits)))[:2]
    for row in block:
        row[empty], row[full] = 0, draw(nonzero)
    model = (draw(view), [draw(view) for _ in range(wbits)],
             [draw(view) for _ in range(zbits)], block)
    return model, draw(st.integers(0, (1 << wbits) - 1)), draw(
        st.integers(0, (1 << zbits) - 1))


@settings(max_examples=200, deadline=None)
@given(dense_models())
def test_the_column_model_evaluates_the_dense_formula(drawn):
    (base, lib, inp, block), w, z = drawn
    cross = tuple({i: row[j] for i, row in enumerate(block) if row[j]}
                  for j in range(len(inp)))
    expected = base
    for i, a in enumerate(lib):
        expected ^= a * (w >> i & 1)
    for j, c in enumerate(inp):
        expected ^= c * (z >> j & 1)
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            expected ^= x * (w >> i & z >> j & 1)
    assert BilinearModel(base, tuple(lib), tuple(inp), cross).at(w, z) == expected


def dense_recover_models(run, labels, wbits, zbits, seed, cap):
    """The reference recovery: every (e_i, e_j) run's delta kept in a dense
    |W| x |Z| list of per-view tuples, then cut into columns."""
    def delta(point, *known):
        out = list(point)
        for vec in known:
            out = [a ^ b for a, b in zip(out, vec)]
        return tuple(out)

    base = run(0, 0)
    lib = [delta(run(1 << i, 0), base) for i in range(wbits)]
    inp = [delta(run(0, 1 << j), base) for j in range(zbits)]
    cross = [[delta(run(1 << i, 1 << j), base, lib[i], inp[j])
              for j in range(zbits)] for i in range(wbits)]
    models = [BilinearModel(
                  base[k], tuple(a[k] for a in lib), tuple(c[k] for c in inp),
                  tuple({i: row[j][k] for i, row in enumerate(cross)
                         if row[j][k]} for j in range(zbits)))
              for k in range(len(labels))]
    rng = derive_rng(seed, "affinity-probes")
    for _ in range(AFFINITY_PROBES * (1 + wbits)):
        w, z = rng.getrandbits(wbits), rng.getrandbits(zbits)
        assert run(w, z) == tuple(model.at(w, z) for model in models)
    return models, _model_runs(wbits, zbits)


def _recovery_views():
    """Security and privacy views of every kind over the tiny sweep and of
    broadcast p-lfr, then sp-lfr privacy at (5,2,1)."""
    cfgs = [tiny_config(kind, C, r, t) for C, r, t in tiny_sweep_topologies()
            for kind in SchemeKind]
    for cfg in cfgs + [replace(tiny_config(SchemeKind.P_LFR, 3, 2, 1),
                               broadcast=True)]:
        yield _views(cfg, cycling_one_hot_demands(cfg.topo, cfg.num_files))
        yield _views(cfg)
    yield _views(tiny_config(SchemeKind.SP_LFR, 5, 2, 1))


def test_streamed_recovery_equals_the_dense_reference():
    # Bit for bit: base, lib, inp, every cross column, the runs reported and
    # the engine runs actually made.
    instances = 0
    for run, wbits, zbits in _recovery_views():
        made = []

        def counted(w, z):
            made.append((w, z))
            return run(w, z)

        labels = [f"view {k}" for k in range(len(run(0, 0)))]
        streamed = verify._recover_models(counted, labels, wbits, zbits, 0,
                                          DEFAULT_STATE_CAP)
        streamed_calls, made[:] = list(made), []
        assert streamed == dense_recover_models(counted, labels, wbits, zbits,
                                                0, DEFAULT_STATE_CAP)
        assert streamed_calls == made
        instances += 1
    assert instances == 2 * 8 * len(SchemeKind) + 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
def test_an_echelon_basis_reduces_points_modulo_its_span(cols, x):
    span = {0}
    for col in cols:
        span |= {v ^ col for v in span}
    basis = _echelon_basis(cols)
    leading = [1 << (b.bit_length() - 1) for b in basis]
    assert leading == sorted(set(leading), reverse=True)
    assert 2 ** len(basis) == len(span)
    residue = _reduce_point(x, basis)
    assert (residue == 0) == (x in span)
    assert x ^ residue in span
    assert not any(residue & bit for bit in leading)
    # Reduced: each vector is zero at the others' leading bits, so the
    # basis is a function of the span alone, whatever the columns' order.
    assert all(not b & bit for b in basis for bit in leading
               if bit != 1 << (b.bit_length() - 1))
    assert _echelon_basis(sorted(span)) == basis
    assert _echelon_basis([*cols[::-1], x ^ residue]) == basis


def test_a_randomness_bit_the_library_switches_off_does_not_settle():
    # V = w ^ z ^ w z = w OR z: the key bit z hides w only while w = 0, so
    # the view leaks; z's column has a cross term and must not settle.
    gated_key = BilinearModel(base=0, lib=(1,), inp=(1,), cross=({0: 1},))
    assert not _security_certified(gated_key)
    # Nor can the view read z, which w = 1 masks: no rank sum applies.
    assert _readable_mi(gated_key, cap=1 << 10) is None
    # Without the cross term it is certified.
    assert _security_certified(replace(gated_key, cross=({},)))


def enumerated_model_mi(model: BilinearModel) -> MutualInformationResult:
    """I(W; V) of a model's view, enumerated over every (w, z)."""
    return mutual_information(enumerated_joint(
        lambda w, z: (model.at(w, z),), len(model.lib), len(model.inp)))


def test_the_walk_gives_the_gated_key_its_enumerated_mi():
    # V = w OR z: w = 0 gives the coset {0, 1}, w = 1 the point {1}, so the
    # walk does not certify it, and its MI is the enumerated 0.311 bits.
    gated_key = BilinearModel(base=0, lib=(1,), inp=(1,), cross=({0: 1},))
    enum = enumerated_model_mi(gated_key)
    certified, bits = _walked_mi(gated_key, cap=3)
    assert (certified, enum.is_zero) == (False, False)
    assert bits == pytest.approx(enum.bits, abs=1e-12)
    assert bits == pytest.approx(0.311278, abs=1e-6)
    # Two library values, and 2 + 1 points in their distinct cosets.
    with pytest.raises(ResourceLimitError, match="walk over 2 library"):
        _walked_mi(gated_key, cap=1)
    with pytest.raises(ResourceLimitError, match="3 coset points"):
        _walked_mi(gated_key, cap=2)


def test_the_walk_compares_cosets_not_only_their_bases():
    # V = w + 2 z: every w gives the basis {2}, but w = 0 the coset {0, 2}
    # and w = 1 the coset {1, 3}, which carry w whole.
    shifted = BilinearModel(base=0, lib=(1,), inp=(2,), cross=({},))
    assert _walked_mi(shifted, cap=4) == (False, 1.0)
    assert enumerated_model_mi(shifted) == MutualInformationResult(False, 1.0)
    # One coset for every w is certified zero.
    assert _walked_mi(replace(shifted, lib=(2,)), cap=4) == (True, 0.0)


def test_the_walk_keys_a_span_by_its_reduced_basis():
    # Both columns stay pending and the view cannot read them, so the walk
    # decides.  At w = 0 the section is (4, 2), at w = 1 it is (6, 4): one
    # span, so every w gives one coset and the view is independent of w.
    # An echelon basis that is not reduced keeps (4, 2) and (6, 2) apart.
    model = BilinearModel(base=0, lib=(0b010,), inp=(0b100, 0b010),
                          cross=({0: 0b010}, {0: 0b110}))
    assert not _security_certified(model)
    assert _readable_mi(model, cap=1 << 10) is None
    assert _echelon_basis((4, 2)) == _echelon_basis((6, 4)) == (4, 2)
    assert _walked_mi(model, cap=4) == (True, 0.0)
    assert enumerated_model_mi(model) == MutualInformationResult(True, 0.0)


def test_zeroed_payload_key_is_not_certified(monkeypatch):
    # An s-lfr engine that sends one payload in the clear leaks; the model
    # route must say so with the same MI as the enumeration reference.
    honest = RandomnessLayout.unpack

    def unkeyed(self, value):
        rnd = honest(self, value)
        first = (1 << self.cfg.subfile_bits) - 1  # the key of rank 0
        return replace(rnd, payload_keys=rnd.payload_keys & ~first)

    monkeypatch.setattr(RandomnessLayout, "unpack", unkeyed)
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    affine = check_security_exact(cfg)
    enum = mutual_information(enumerated_security(cfg))
    assert not enum.is_zero and enum.bits > 0
    assert not affine.certified_zero
    assert affine.mi_bits == pytest.approx(enum.bits, abs=1e-9)


def test_unmasked_demand_is_not_certified_private(monkeypatch):
    # An sp-lfr engine that sends one user's demand unmasked leaks it to
    # every other observer; the span test at w = 0 is its witness.  The
    # row function is patched, which both the runs and the placed round
    # reach.
    honest = Scheme.transmission_row

    def leaky(self, randomness, table, demand_row):
        payloads, sent = honest(self, randomness, table, demand_row)
        first = (1 << self.cfg.num_files) - 1  # the demand of user rank 0
        return payloads, sent & ~first | demand_row & first

    monkeypatch.setattr(Scheme, "transmission_row", leaky)
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    res = check_privacy_exact(cfg, method="affine")
    leaked = cfg.topo.users()[0]
    assert res.per_observer == {g: Fraction(int(g != leaked))
                                for g in cfg.topo.users()}


def test_uncertified_controls_keep_their_exact_mi():
    # Neither p-lfr nor the keyless lfr is certified; the rank sum gives
    # each its exact MI, pinned from an expansion of every library value's
    # coset into the joint distribution.
    for kind, C, r, t, bits in ((SchemeKind.P_LFR, 3, 2, 0, 1.640625),
                                (SchemeKind.P_LFR, 3, 2, 1, 0.984375),
                                (SchemeKind.LFR, 3, 2, 1, 1.0),
                                (SchemeKind.LFR, 4, 2, 2, 1.0),
                                (SchemeKind.P_LFR, 4, 2, 1, 3.7939453125)):
        res = check_security_exact(tiny_config(kind, C, r, t), method="affine")
        assert (res.method, res.certified_zero, res.mi_bits) == (
            "affine", False, bits), (kind, C, r, t)


def test_affine_states_count_recovery_and_probe_runs():
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    lib_bits = cfg.num_files * cfg.file_bits
    rand_bits = RandomnessLayout.for_config(cfg, observers=False).total_bits
    res = check_security_exact(cfg, method="affine")
    assert res.states == ((1 + lib_bits) * (1 + rand_bits)
                          + AFFINITY_PROBES * (1 + lib_bits))


@pytest.mark.parametrize("kind, C, r, t, broadcast", [
    *((kind, C, r, t, False) for C, r, t in tiny_sweep_topologies()
      for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR)),
    (SchemeKind.P_LFR, 3, 2, 1, True)])
def test_no_transmission_reads_the_share_coefficients(kind, C, r, t,
                                                      broadcast):
    # The security layout is the full one without the coef run, because
    # the broadcast never reads it: at seeded points any coefficient planes
    # give the same rows, and the security layout unpacks the full one's
    # key and mask rows with zero planes.
    cfg = replace(tiny_config(kind, C, r, t), broadcast=broadcast)
    scheme, n = Scheme(cfg), cfg.num_files
    full = RandomnessLayout.for_config(cfg)
    secure = RandomnessLayout.for_config(cfg, observers=False)
    assert secure.runs == tuple(run for run in full.runs if run[0] != "coef")
    (count, l), = [run[1:] for run in randomness_order(cfg) if run[0] == "coef"]
    plane_bits = count // (r - 1) * l
    rng = random.Random(f"coef:{kind.value}:{C}:{r}:{t}:{broadcast}")
    for _ in range(8):
        z = rng.getrandbits(full.total_bits)
        randomness = full.unpack(z)
        assert secure.unpack(z & ((1 << secure.total_bits) - 1)) == replace(
            randomness, share_coefficients=(0,) * (r - 1))
        table = verify.table_from_int(rng.getrandbits(n * cfg.file_bits), cfg)
        demand_row = rng.getrandbits(n * cfg.topo.num_users)
        rows = scheme.transmission_row(randomness, table, demand_row)
        for _ in range(4):
            planes = tuple(rng.getrandbits(plane_bits) for _ in range(r - 1))
            assert scheme.transmission_row(
                replace(randomness, share_coefficients=planes), table,
                demand_row) == rows


# The exact MI of every tiny-sweep instance that leaks, as measured when
# the security layout still carried the coef run; every other instance was
# certified zero.
LEAKS = {
    **{(SchemeKind.LFR, C, r, t): bits for (C, r, t), bits in (
        ((3, 2, 0), 2.0), ((3, 2, 1), 1.0), ((3, 3, 0), 1.0), ((4, 2, 0), 2.0),
        ((4, 2, 1), 4.0), ((4, 2, 2), 1.0), ((4, 3, 0), 2.0), ((4, 3, 1), 1.0))},
    **{(SchemeKind.P_LFR, C, r, t): bits for (C, r, t), bits in (
        ((3, 2, 0), 1.640625), ((3, 2, 1), 0.984375), ((3, 3, 0), 0.75),
        ((4, 2, 0), 1.953369140625), ((4, 2, 1), 3.7939453125),
        ((4, 2, 2), 0.999755859375), ((4, 3, 0), 1.81640625),
        ((4, 3, 1), 0.99609375))},
}


def test_security_verdicts_survive_dropping_the_coefficient_run():
    for C, r, t in tiny_sweep_topologies():
        for kind in SchemeKind:
            res = check_security_exact(tiny_config(kind, C, r, t))
            bits = LEAKS.get((kind, C, r, t), 0.0)
            assert (res.certified_zero, res.mi_bits) == (bits == 0.0, bits), (
                kind, C, r, t)
    broadcast = replace(tiny_config(SchemeKind.P_LFR, 3, 2, 1), broadcast=True)
    res = check_security_exact(broadcast)
    assert (res.certified_zero, res.mi_bits) == (False, 6.0)


def test_largest_masked_sweep_instance_is_fast():
    started = time.perf_counter()
    res = check_security_exact(tiny_config(SchemeKind.SP_LFR, 4, 2, 2))
    assert res.method == "affine" and res.certified_zero
    assert time.perf_counter() - started < 2.0


def test_rank_arguments_answer_the_largest_sweep_instances_fast():
    # p-lfr security at (4,2,2) is the rank sum over its readable
    # randomness, and sp-lfr privacy at (4,2,2) the lift certificate.
    started = time.perf_counter()
    res = check_security_exact(tiny_config(SchemeKind.P_LFR, 4, 2, 2))
    assert (res.method, res.mi_bits) == ("affine", 0.999755859375)
    assert time.perf_counter() - started < 1.0
    started = time.perf_counter()
    res = check_privacy_exact(tiny_config(SchemeKind.SP_LFR, 4, 2, 2))
    assert res.method == "affine" and res.certified_zero
    assert time.perf_counter() - started < 2.0


def _skew_views(monkeypatch, bump=lambda w, z: w & (w >> 1) & 1):
    """Make every view carry `bump(w, z)`, by default a library-by-library
    product, which no bilinear model over (library, inputs) can express.
    Every route runs the engine through verify._views, so one patch
    reaches them all."""
    honest = verify._views

    def skewed(*args, **kwargs):
        run, wbits, zbits = honest(*args, **kwargs)

        def bumped(w, z):
            return tuple(view ^ bump(w, z) for view in run(w, z))

        return bumped, wbits, zbits

    monkeypatch.setattr(verify, "_views", skewed)


def test_affine_route_rejects_a_library_product(monkeypatch):
    _skew_views(monkeypatch)
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    with pytest.raises(IntegrityError, match="not bilinear"):
        check_security_exact(cfg, method="affine")
    with pytest.raises(IntegrityError, match="not bilinear"):
        check_privacy_exact(cfg, method="affine")


def test_affine_route_respects_the_cap():
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    runs = check_security_exact(cfg, method="affine").states
    with pytest.raises(ResourceLimitError):
        check_security_exact(cfg, method="affine", cap=runs - 1)
    assert check_security_exact(cfg, method="affine", cap=runs).certified_zero
    runs = check_privacy_exact(cfg, method="affine").states
    with pytest.raises(ResourceLimitError):
        check_privacy_exact(cfg, method="affine", cap=runs - 1)
    # p-lfr (4,2,1) is not certified, and its rank sum takes one rank per
    # value of its 12 readable randomness bits: 4,096 ranks from 189 runs,
    # so a cap of 2,000 admits the runs but not the sum.
    control = tiny_config(SchemeKind.P_LFR, 4, 2, 1)
    with pytest.raises(ResourceLimitError, match="rank sum"):
        check_security_exact(control, method="affine", cap=2000)
    res = check_security_exact(control, method="affine", cap=4096)
    assert (res.states, res.mi_bits) == (189, 3.7939453125)


def test_security_enumerates_what_no_rank_argument_settles(monkeypatch):
    # A cross term w_0 z_0 on the first view bit blocks the certificate, and
    # s-lfr's keys hide its randomness from the view, so no rank sum
    # applies either: the walk over the library values answers, with the
    # 0.5 bits that enumerating the skewed engine gives.
    _skew_views(monkeypatch, lambda w, z: w & z & 1)
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    wbits = cfg.num_files * cfg.file_bits
    runs = _model_runs(wbits, _security_state_bits(cfg) - wbits)
    for method in ("auto", "affine"):
        res = check_security_exact(cfg, method=method)
        assert (res.method, res.states, res.certified_zero, res.mi_bits) == (
            "affine", runs, False, 0.5), method
        with pytest.raises(ResourceLimitError):
            check_security_exact(cfg, method=method, cap=(1 << wbits) - 1)
    assert mutual_information(enumerated_security(cfg)).bits == 0.5
    with pytest.raises(UsageError, match="one method"):
        check_security_exact(cfg, method="enumerate")


def test_privacy_enumerates_what_no_rank_argument_settles():
    # What neither the lift nor a witness at w = 0 or some e_i settles, the
    # walk over every library value decides, one rank test per value.  The
    # models are the first user's of sp-lfr (3,2,1), whose other users'
    # demand columns are 2 to 5; only column 2 is set.
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    dbits = cfg.num_files * cfg.topo.num_users
    first = cfg.topo.users()[0]

    def model(demand, *randomness):
        inp, cross = zip(*randomness)
        return BilinearModel(base=0, lib=(0,) * 2, inp=(0,) * dbits + inp,
                             cross=({},) * 2 + (demand,) + ({},) * 3 + cross)

    # R1 = e1 + w0 e2, R2 = e2 + w0 e1 and D = w0 (e1 + e2): D lies in the
    # randomness span at every w, but its lift, (0, e1 + e2), is not a sum
    # of the lifts (e1, e2) and (e2, e1).
    swapped = model({0: 0b11}, (0b01, {0: 0b10}), (0b10, {0: 0b01}))
    assert _privacy_affine(cfg, [swapped], cap=4) == {first: 0}
    # R = e1 + w0 e2 + w1 e3 and D = w0 (e1 + e2) + w1 (e1 + e3): D is 0 at
    # w = 0 and R at e_0 and e_1, but at e_0 + e_1 it is e2 + e3, outside
    # span{e1 + e2 + e3}.
    corner = model({0: 0b011, 1: 0b101}, (0b001, {0: 0b010, 1: 0b100}))
    assert _privacy_affine(cfg, [corner], cap=4) == {first: 1}
    # Past the witnesses at 0 and each e_i, the walk takes all 2^|W| values
    # or refuses; a witness at e_0, D = w0 e2, needs no walk.
    for unsettled in (swapped, corner):
        with pytest.raises(ResourceLimitError, match="privacy walk over 4"):
            _privacy_affine(cfg, [unsettled], cap=3)
    at_e0 = model({0: 0b010}, (0b001, {0: 0b010, 1: 0b100}))
    assert _privacy_affine(cfg, [at_e0], cap=1) == {first: 1}


def test_broadcast_plus_one_cache_leaks():
    # The security oracle's eavesdropper sees the broadcast alone.  Give
    # it cache 1 as well and s-lfr leaks: that cache holds subfiles and
    # the whole payload key.
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    assert check_security_exact(cfg).certified_zero
    scheme = Scheme(cfg)
    layout = RandomnessLayout.for_config(cfg)
    extractor = ViewExtractor(cfg)
    demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    lib_states = 1 << (cfg.num_files * cfg.file_bits)
    p = F(1, lib_states << layout.total_bits)
    joint: dict = {}
    for w in range(lib_states):
        library = library_from_int(w, cfg.num_files, cfg.file_bits)
        for rv in range(1 << layout.total_bits):
            placement = scheme.place(library, layout.unpack(rv))
            transcript = scheme.deliver(placement.randomness,
                                        placement.table, demands)
            cache = placement.caches[0]
            view = (extractor.transmission(transcript),
                    tuple(sorted(cache.subfiles.items())),
                    tuple(sorted(cache.whole_keys.items())))
            joint[(w, view)] = joint.get((w, view), F(0)) + p
    mi = mutual_information(joint)
    assert not mi.is_zero and mi.bits > 0


@pytest.mark.parametrize("kind", list(SchemeKind))
@pytest.mark.parametrize("C, r, t", ((3, 2, 1), (4, 2, 1), (4, 3, 1)))
def test_security_view_matches_a_full_round(kind, C, r, t):
    # The security view delivers without placing; at random points it must
    # equal the transmission of a full place and deliver.
    cfg = tiny_config(kind, C, r, t)
    demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    run, wbits, zbits = _views(cfg, demands)
    scheme = Scheme(cfg)
    layout = RandomnessLayout.for_config(cfg)
    extractor = ViewExtractor(cfg)
    rng = random.Random(f"view:{kind.value}:{C}:{r}:{t}")
    for _ in range(16):
        w, z = rng.getrandbits(wbits), rng.getrandbits(zbits)
        library = library_from_int(w, cfg.num_files, cfg.file_bits)
        placement = scheme.place(library, layout.unpack(z))
        transcript = scheme.deliver(placement.randomness,
                                    placement.table, demands)
        assert run(w, z) == (extractor.transmission(transcript)[0],)


@pytest.mark.parametrize("oracle, method", (
    ("security", "affine"), ("privacy", "affine")))
def test_every_check_places_the_caches_once(monkeypatch, oracle, method):
    # Placement checks its invariants, and deliver the demands, once per
    # check, in the placed round that defines the views; every engine run
    # of the check takes the broadcast from the row function alone, and
    # privacy reads the caches from the round's rows.
    check, kind = {"security": (check_security_exact, SchemeKind.SP_LFR),
                   "privacy": (check_privacy_exact, SchemeKind.P_LFR)}[oracle]
    calls = {"place": [], "deliver": [], "transmission_row": []}

    def counted(name):
        honest = getattr(Scheme, name)

        def method(self, *args, **kwargs):
            calls[name].append(args)
            return honest(self, *args, **kwargs)
        return method

    for name in calls:
        monkeypatch.setattr(Scheme, name, counted(name))
    res = check(tiny_config(kind, 3, 2, 0, num_files=1), method=method)
    assert res.certified_zero and res.method == method and res.states > 1
    assert len(calls["place"]) == len(calls["deliver"]) == 1
    # Every engine run, plus the placed round's deliver.
    assert len(calls["transmission_row"]) > res.states


@pytest.mark.parametrize("oracle", ("security", "privacy"))
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_oracle_runs_build_no_transcript(monkeypatch, oracle, kind):
    # Past the placed round, a run builds no transcript and no demand
    # vector; a security run builds no BitBlock at all once its library
    # is built.  Privacy runs still split the key row into BitBlock shares.
    cfg = tiny_config(kind, 3, 2, 1)
    run, wbits, zbits = (_views(cfg, cycling_one_hot_demands(cfg.topo, 2))
                         if oracle == "security" else _views(cfg))
    w = (1 << wbits) - 1
    run(w, 0)  # builds the library and the subfiles of w
    built = []

    def counted(cls):
        honest = cls.__init__

        def init(self, *args, **kwargs):
            built.append(cls.__name__)
            honest(self, *args, **kwargs)
        return init

    for cls in (DeliveryTranscript, DemandVector) + (
            (BitBlock,) if oracle == "security" else ()):
        monkeypatch.setattr(cls, "__init__", counted(cls))
    for z in range(min(1 << zbits, 64)):
        run(w, z)
    assert built == []


@pytest.mark.parametrize("kind, C, r, t, broadcast", [
    *((kind, C, r, t, False) for C, r, t in tiny_sweep_topologies()
      for kind in SchemeKind),
    (SchemeKind.P_LFR, 3, 2, 1, True)])
def test_transmission_row_matches_the_transcript(kind, C, r, t, broadcast):
    # At seeded points the rows hold the payloads by their formula, key of
    # S plus each g's sent combination of subfile S minus g (the library
    # itself in broadcast mode); deliver cuts its transcript's payloads
    # and masked or cleartext demands from them, and they pack into
    # ViewExtractor's transmission.
    cfg = replace(tiny_config(kind, C, r, t), broadcast=broadcast)
    scheme, extractor = Scheme(cfg), ViewExtractor(cfg)
    layout = RandomnessLayout.for_config(cfg)
    users, n, sb = cfg.topo.users(), cfg.num_files, cfg.subfile_bits
    rng = random.Random(f"row:{kind.value}:{C}:{r}:{t}:{broadcast}")
    for _ in range(8):
        w = rng.getrandbits(n * cfg.file_bits)
        library = library_from_int(w, n, cfg.file_bits)
        table = verify.subpacketize(library, cfg.topo)
        randomness = layout.unpack(rng.getrandbits(layout.total_bits))
        demand_row = rng.getrandbits(n * len(users))
        payloads, sent = scheme.transmission_row(randomness, table, demand_row)
        transcript = scheme.deliver(randomness, table,
                                    demands_from_int(demand_row, cfg))
        masked = kind.masks_demands and not broadcast
        shown, hidden = (transcript.masked_demands, transcript.cleartext_demands)
        if not masked:
            shown, hidden = hidden, shown
        assert hidden == {}
        assert sum(shown.get(g, 0) << (u * n)
                   for u, g in enumerate(users)) == sent
        if broadcast:
            assert (payloads, sent, transcript.payloads) == (w, 0, {})
        else:
            assert sent == demand_row ^ randomness.mask_vectors
        for s, S in enumerate(() if broadcast
                              else cfg.topo.transmission_indices()):
            expected = randomness.payload_keys >> (s * sb) & ((1 << sb) - 1)
            for g in combinations(S, r):
                rest = tuple(c for c in S if c not in g)
                for i in range(n):
                    if sent >> (users.index(g) * n + i) & 1:
                        expected ^= table.subfile(i + 1, rest).value
            assert payloads >> (s * sb) & ((1 << sb) - 1) == expected
        view, _ = extractor.transmission(transcript)
        payload_bits = sum(b.length for b in transcript.payloads.values())
        assert view == (payloads | sent << payload_bits if masked
                        else payloads)


@pytest.mark.parametrize("kind", (SchemeKind.S_LFR, SchemeKind.IS_LFR,
                                  SchemeKind.LFR))
def test_a_wrong_subfile_fails_the_security_check(monkeypatch, kind):
    # The security view is checked against a placed round, not trusted: a
    # subfile table with bit 0 of file 1 flipped outside placement is an
    # engine fault, whichever verdict the wrong views would give.
    honest = verify.table_from_int

    def flipped(value, cfg):
        table = honest(value, cfg)
        return replace(table, images=(table.images[0] ^ 1, *table.images[1:]))

    monkeypatch.setattr(verify, "table_from_int", flipped)
    with pytest.raises(IntegrityError, match="placed round"):
        check_security_exact(tiny_config(kind, 3, 2, 1))


def test_broadcast_mode_crosses_the_library_in_clear():
    # Broadcast p-lfr ships every file and no payload: the observer sees
    # the library whatever the others demand, and the eavesdropper sees
    # all N F bits of it.  No view reads the randomness, so its layout is
    # empty: W and D are 6 bits each, and Z is D for privacy and nothing
    # for security.
    cfg = replace(tiny_config(SchemeKind.P_LFR, 3, 2, 1), broadcast=True)
    assert RandomnessLayout.for_config(cfg).total_bits == 0
    private = check_privacy_exact(cfg, method="affine")
    assert (private.method, private.states, private.max_tv) == ("affine", 105, 0)
    assert cfg.num_files * cfg.file_bits == 6
    secure = check_security_exact(cfg, method="affine")
    assert (secure.method, secure.states, secure.certified_zero,
            secure.mi_bits) == ("affine", 63, False, 6.0)


def test_security_respects_the_cap():
    cfg = tiny_config(SchemeKind.S_LFR, 4, 2, 2)
    with pytest.raises(ResourceLimitError):
        check_security_exact(cfg, method="affine", cap=100)


# ---- privacy ----

@pytest.mark.parametrize("kind, C, r, t, broadcast", [
    *((kind, C, r, t, False) for C, r, t in (*tiny_sweep_topologies(), (5, 2, 1))
      for kind in SchemeKind),
    (SchemeKind.P_LFR, 3, 2, 1, True)])
def test_privacy_view_matches_a_full_round(kind, C, r, t, broadcast):
    # The privacy view reads the caches from the round's rows; at random
    # points it must equal the observer views of a full place and deliver.
    cfg = replace(tiny_config(kind, C, r, t), broadcast=broadcast)
    users = cfg.topo.users()
    run, wbits, zbits = _views(cfg)
    scheme = Scheme(cfg)
    layout = RandomnessLayout.for_config(cfg)
    extractor = ViewExtractor(cfg)
    n = cfg.num_files
    dbits = n * len(users)
    rng = random.Random(f"privacy-view:{kind.value}:{C}:{r}:{t}:{broadcast}")
    for _ in range(16):
        w, z = rng.getrandbits(wbits), rng.getrandbits(zbits)
        library = library_from_int(w, n, cfg.file_bits)
        placement = scheme.place(library, layout.unpack(z >> dbits))
        battery = demands_from_int(z, cfg)
        transcript = scheme.deliver(placement.randomness,
                                    placement.table, battery)
        assert run(w, z) == tuple(
            extractor.observer(d.user, placement.caches, transcript,
                               d.coeffs)[0] for d in battery)


def test_a_wrong_key_row_fails_the_privacy_check(monkeypatch):
    # The row views are checked against the placed caches, not trusted: a
    # key row with one bit flipped outside placement is an engine fault.
    honest_place, honest_rows = Scheme.place, Scheme.key_rows
    placing = []

    def place(self, *args, **kwargs):
        placing.append(True)
        try:
            return honest_place(self, *args, **kwargs)
        finally:
            placing.pop()

    def flipped(self, randomness, table):
        rows = honest_rows(self, randomness, table)
        if not placing:
            assert rows[0][1] > 0
            rows[0] = (rows[0][0] ^ 1, rows[0][1])
        return rows

    monkeypatch.setattr(Scheme, "place", place)
    monkeypatch.setattr(Scheme, "key_rows", flipped)
    with pytest.raises(IntegrityError, match="rows"):
        check_privacy_exact(tiny_config(SchemeKind.SP_LFR, 3, 2, 1))


@pytest.mark.parametrize("kind", (SchemeKind.SP_LFR, SchemeKind.S_LFR))
def test_a_wrong_subfile_row_fails_the_privacy_check(monkeypatch, kind):
    # Placement stores its subfiles from the same per-cache index lists,
    # but the privacy views read the rows: a subfile row with one bit
    # flipped is an engine fault.
    honest_rows = Scheme.subfile_rows

    def flipped(self, table):
        rows = honest_rows(self, table)
        assert rows[0][1] > 0
        rows[0] = (rows[0][0] ^ 1, rows[0][1])
        return rows

    monkeypatch.setattr(Scheme, "subfile_rows", flipped)
    with pytest.raises(IntegrityError, match="rows"):
        check_privacy_exact(tiny_config(kind, 3, 2, 1))


@pytest.mark.parametrize("kind, C, r, t, broadcast", [
    *((kind, C, r, t, False) for C, r, t in tiny_sweep_topologies()
      for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR)),
    (SchemeKind.P_LFR, 3, 2, 1, True)])
def test_each_user_decodes_from_its_privacy_view(kind, C, r, t, broadcast):
    # At the seeded point where _views checks the privacy views, each
    # user's view is cut back into the rows it holds: transmission_row's,
    # its own demand, and its caches' subfile_rows and key_rows.  From
    # those rows alone decode_rows returns the user's demanded combination.
    cfg = replace(tiny_config(kind, C, r, t), broadcast=broadcast)
    scheme, layout = Scheme(cfg), RandomnessLayout.for_config(cfg)
    users, n, C = cfg.topo.users(), cfg.num_files, cfg.topo.num_caches
    dbits = n * len(users)
    rng = derive_rng(cfg.seed, "row-views")
    w, z = rng.getrandbits(n * cfg.file_bits), rng.getrandbits(
        dbits + layout.total_bits)
    d, randomness = z & ((1 << dbits) - 1), layout.unpack(z >> dbits)
    library = library_from_int(w, n, cfg.file_bits)
    table = verify.subpacketize(library, cfg.topo)
    payload_row, sent_row = scheme.transmission_row(randomness, table, d)
    stores = list(zip(scheme.subfile_rows(table),
                      scheme.key_rows(randomness, table)))
    widths = [cfg.file_bits * n if broadcast else
              cfg.topo.num_transmissions * cfg.subfile_bits,
              0 if broadcast else dbits, n]
    run, _, _ = _views(cfg)
    for u, (g, view, demand) in enumerate(
            zip(users, run(w, z), demands_from_int(d, cfg))):
        cuts = []
        for width in widths + [width for c in g for _, width in stores[c - 1]]:
            cuts.append(view & ((1 << width) - 1))
            view >>= width
        payloads, sent, own, *held = cuts
        assert (payloads, sent, own) == (payload_row, sent_row,
                                         d >> (u * n) & ((1 << n) - 1))
        rows = [((0, 0), (0, 0))] * C
        for c, sub, key in zip(g, held[::2], held[1::2]):
            rows[c - 1] = ((sub, stores[c - 1][0][1]),
                           (key, stores[c - 1][1][1]))
            assert rows[c - 1] == stores[c - 1]
        decoded = scheme.decode_rows([g], payloads, sent, own << (u * n),
                                     *zip(*rows))
        assert decoded == [linear_combination(demand, library).value], g


def test_privacy_affine_matches_enumeration():
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1, num_files=1)
    enum = enumerated_privacy(cfg)
    affine = check_privacy_exact(cfg, method="affine")
    assert max(enum.values()) == affine.max_tv == 0
    assert enum == affine.per_observer


def test_privacy_affine_matches_enumeration_on_the_cleartext_control():
    # The suite's s-lfr (3,2,1) control, whose report digest also pins it.
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    enum = enumerated_privacy(cfg)
    affine = check_privacy_exact(cfg, method="affine")
    assert affine.method == "affine"
    assert affine.per_observer == enum
    assert affine.max_tv == max(enum.values()) == 1


def test_masked_demands_are_private_and_cleartext_ones_are_not():
    private = check_privacy_exact(tiny_config(SchemeKind.P_LFR, 3, 2, 1))
    assert private.max_tv == 0
    leaky = check_privacy_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 1))
    assert leaky.max_tv == 1
    assert leaky.method == "affine"


def test_single_user_topology_is_trivially_private():
    res = check_privacy_exact(tiny_config(SchemeKind.SP_LFR, 3, 3, 0))
    assert res.max_tv == 0 and res.states == 0


# ---- correctness and share placement ----

def test_correctness_report_counts():
    cfg = tiny_config(SchemeKind.IS_LFR, 3, 2, 1)
    batteries = [cycling_one_hot_demands(cfg.topo, cfg.num_files)]
    report = check_correctness(cfg, batteries, seeds=(0, 1, 2))
    assert report.ok
    assert report.batteries == 1
    assert report.decodes == 3 * cfg.topo.num_users
    assert report.failures == ()


def test_correctness_failures_come_by_seed_then_battery_then_user(
        monkeypatch):
    # Every decode is made to fail by a wrong reference; the batteries are
    # streamed once across all seeds, yet the failures keep seed-major order.
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    monkeypatch.setattr(verify, "linear_combination",
                        lambda demand, library: BitBlock.zeros(cfg.file_bits + 1))
    rng = random.Random(7)
    batteries = [demands_from_int(rng.getrandbits(6), cfg) for _ in range(3)]
    report = check_correctness(cfg, iter(batteries), seeds=(4, 2))
    assert (report.batteries, report.decodes) == (3, 18)
    assert [(f.seed, f.battery, f.user) for f in report.failures] == [
        (seed, b, g) for seed in (4, 2) for b in range(3)
        for g in cfg.topo.users()]


def test_correctness_packs_each_seeds_caches_once(monkeypatch):
    # The placed caches change with the seed alone, so their rows are
    # packed once per seed, however many batteries follow.
    packed, honest = [], Scheme._cache_rows

    def counted(self, caches):
        packed.append(self.cfg.seed)
        return honest(self, caches)

    monkeypatch.setattr(Scheme, "_cache_rows", counted)
    cfg = tiny_config(SchemeKind.IS_LFR, 3, 2, 1)
    rng = random.Random(3)
    batteries = [demands_from_int(rng.getrandbits(6), cfg) for _ in range(5)]
    report = check_correctness(cfg, iter(batteries), seeds=(4, 2))
    assert report.ok and report.batteries == 5
    assert packed == [4, 2]


def test_share_placement_structure_over_the_sweep():
    for C, r, t in tiny_sweep_topologies():
        for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR, SchemeKind.S_LFR,
                     SchemeKind.IS_LFR):
            report = check_share_placement_secrecy(tiny_config(kind, C, r, t))
            assert report.ok, (kind, C, r, t, report.problems)
            assert report.keys_checked > 0


def doctored_audit(monkeypatch, kind, C, doctor):
    """The audit of kind at (C, 2, 1) over caches that doctor(caches)
    rewrites as placement stores them.  Every cache keeps its size, or
    placement's symmetry check would raise first."""
    honest = Scheme._place_keys
    monkeypatch.setattr(Scheme, "_place_keys",
                        lambda self, *args: doctor(honest(self, *args)))
    return check_share_placement_secrecy(tiny_config(kind, C, 2, 1))


def test_a_dropped_key_share_is_a_problem(monkeypatch):
    # The audit once died on the missing share with a bare KeyError.
    # Each cache drops its first share: caches 1 and 2 that of D[12,3],
    # cache 3 that of D[13,2].
    report = doctored_audit(monkeypatch, SchemeKind.SP_LFR, 3, lambda caches: [
        replace(c, key_shares=dict(list(c.key_shares.items())[1:]))
        for c in caches])
    assert not report.ok
    assert report.problems == ("shares of D[(1, 2),(3,)] live in []",
                               "shares of D[(1, 3),(2,)] live in [1]")


def test_a_wrong_or_missing_whole_key_is_a_problem(monkeypatch):
    # (3, 2, 1) has the one transmission S = 123, whose key every cache holds.
    def wrong(caches):
        (S, key), = caches[1].whole_keys.items()
        caches[1] = replace(caches[1], whole_keys={
            S: BitBlock(key.value ^ 1, key.length)})
        return caches

    report = doctored_audit(monkeypatch, SchemeKind.S_LFR, 3, wrong)
    assert report.problems == ("cache 2 holds a wrong copy of V[(1, 2, 3)]",)
    report = doctored_audit(monkeypatch, SchemeKind.S_LFR, 3, lambda caches: [
        replace(c, whole_keys={}) for c in caches])
    assert report.problems == ("copies of V[(1, 2, 3)] live in []",)


def test_a_coded_block_in_the_wrong_cache_is_a_problem(monkeypatch):
    # Caches 1 and 4 swap their blocks of V[123] and V[234]: each keeps its
    # size, and users 24 and 34 outside 123 now reach two of its blocks.
    def swapped(caches):
        one, four = (dict(caches[c].coded_subkeys) for c in (0, 3))
        one[(2, 3, 4)] = four.pop((2, 3, 4))
        four[(1, 2, 3)] = one.pop((1, 2, 3))
        caches[0] = replace(caches[0], coded_subkeys=one)
        caches[3] = replace(caches[3], coded_subkeys=four)
        return caches

    report = doctored_audit(monkeypatch, SchemeKind.IS_LFR, 4, swapped)
    assert not report.ok
    assert "blocks of V[(1, 2, 3)] live in [2, 3, 4]" in report.problems
    assert "outside user (2, 4) reaches 2 blocks of V[(1, 2, 3)]" in report.problems
    assert "blocks of V[(2, 3, 4)] live in [1, 2, 3]" in report.problems


def test_a_wrong_coded_block_is_a_problem(monkeypatch):
    # Every coded block keeps its place and length but has bit 0 flipped:
    # no user inside S decodes V[S] any more.  The audit once checked only
    # where the blocks sit, and passed this.
    report = doctored_audit(monkeypatch, SchemeKind.IS_LFR, 4, lambda caches: [
        replace(c, coded_subkeys={S: BitBlock(b.value ^ 1, b.length)
                                  for S, b in c.coded_subkeys.items()})
        for c in caches])
    assert not report.ok and report.keys_checked == 4
    assert report.problems == tuple(
        f"blocks of V[{S}] do not decode to it"
        for S in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
    # A block one bit too long is reported, not passed to the decoder.
    report = doctored_audit(monkeypatch, SchemeKind.IS_LFR, 4, lambda caches: [
        replace(c, coded_subkeys={S: BitBlock(b.value, b.length + 1)
                                  for S, b in c.coded_subkeys.items()})
        for c in caches])
    bits = coded_block_bit_length(1, tiny_config(SchemeKind.IS_LFR, 4, 2, 1).key_code)
    assert report.problems == tuple(
        f"a block of V[{S}] has {bits + 1} bits, expected {bits}"
        for S in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))


def test_a_key_share_of_the_wrong_length_is_a_problem(monkeypatch):
    # Each cache's first share grows by one bit, so every cache keeps one
    # size; the audit once raised DomainError rebuilding the share set.
    def longer(caches):
        out = []
        for c in caches:
            (label, block), *rest = c.key_shares.items()
            out.append(replace(c, key_shares={
                label: BitBlock(block.value, block.length + 1), **dict(rest)}))
        return out

    report = doctored_audit(monkeypatch, SchemeKind.SP_LFR, 3, longer)
    assert not report.ok
    assert report.problems == ("a share of D[(1, 2),(3,)] has 3 bits, expected 2",
                               "a share of D[(1, 3),(2,)] has 3 bits, expected 2")


def test_a_share_that_does_not_reconstruct_its_key_is_a_problem(monkeypatch):
    # Cache 1's first share keeps its length but has bit 0 flipped: the
    # shares of D[12,3] no longer reconstruct it.
    def flipped(caches):
        (label, block), *rest = caches[0].key_shares.items()
        caches[0] = replace(caches[0], key_shares={
            label: BitBlock(block.value ^ 1, block.length), **dict(rest)})
        return caches

    report = doctored_audit(monkeypatch, SchemeKind.SP_LFR, 3, flipped)
    assert report.problems == ("shares of D[(1, 2),(3,)] do not reconstruct it",)


def test_sweep_topologies_are_valid():
    triples = tiny_sweep_topologies()
    assert len(set(triples)) == len(triples)
    for C, r, t in triples:
        assert 1 <= r <= C <= 4
        assert 0 <= t <= C - r
        assert comb(C, r) >= 1


def test_tiny_config_uses_single_bit_subfiles():
    cfg = tiny_config(SchemeKind.SP_LFR, 4, 2, 1, num_files=3, seed=9)
    assert cfg.file_bits == cfg.topo.num_subfile_indices
    assert cfg.subfile_bits == 1
    assert cfg.num_files == 3 and cfg.seed == 9


def test_security_default_battery_is_cycling_one_hot():
    cfg = tiny_config(SchemeKind.LFR, 3, 2, 1)
    explicit = check_security_exact(
        cfg, demands=cycling_one_hot_demands(cfg.topo, cfg.num_files))
    default = check_security_exact(cfg)
    assert explicit.mi_bits == default.mi_bits
    assert explicit.demands == default.demands


def test_import_leaves_numpy_unloaded():
    src = str(Path(maclfr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # Nor OpenSSL's libcrypto: derive_rng hashes with the built-in SHA-256.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, maclfr, maclfr.cli; "
         "print('numpy' in sys.modules, '_hashlib' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False False"
