"""Verification oracle checks.

The oracles themselves are tested three ways: unit distributions with
known information content, an exact independence criterion for 2x2 joints
(the determinant test), and full cross-checks of the affine shortcut
against brute-force enumeration on instances small enough for both.  The
security certificate on the bilinear model is also run against
deliberately broken engines, which it must not certify.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import maclfr
from maclfr import verify
from maclfr.bits import BitBlock
from maclfr.errors import DomainError, ResourceLimitError, UsageError
from maclfr.library import DemandVector, FileLibrary, cycling_one_hot_demands
from maclfr.schemes import RandomnessLayout, Scheme, SchemeKind
from maclfr.verify import (AFFINITY_PROBES, DEFAULT_STATE_CAP, BilinearModel,
                           ViewExtractor, _choose_method, _joint_from_model,
                           _recover_models, _security_certified, _views,
                           check_correctness, check_privacy_exact,
                           check_security_exact, check_share_placement_secrecy,
                           demands_from_int, library_from_int,
                           mutual_information, security_joint_enumerated,
                           tiny_config, tiny_sweep_topologies, total_variation)

F = Fraction


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
    for dvalue in range(1 << (cfg.num_files * cfg.topo.num_users)):
        demands = demands_from_int(dvalue, cfg)
        assert sum(d.coeffs << (i * cfg.num_files)
                   for i, d in enumerate(demands)) == dvalue
        assert [d.user for d in demands] == list(cfg.topo.users())


# ---- security ----

def test_keyed_schemes_are_certified_secure_small():
    for kind in (SchemeKind.S_LFR, SchemeKind.IS_LFR):
        for method in ("enumerate", "affine"):
            res = check_security_exact(tiny_config(kind, 3, 2, 1),
                                       method=method)
            assert res.certified_zero and res.mi_bits == 0.0
            assert res.method == method


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


def _walked_joint(cfg, demands, cap=DEFAULT_STATE_CAP):
    """The joint the model route walks when the certificate fails."""
    run, wbits, zbits = _views(cfg, demands)
    (model,), _ = _recover_models(run, ("transmission",), wbits, zbits,
                                  cfg.seed, cap)
    return _joint_from_model(model, cap)


def test_affine_joint_matches_enumeration_exactly():
    # Same joint distribution from both routes, entry for entry, on
    # instances small enough to brute force (one-file libraries keep the
    # state space tiny while leaving key entropy in play).
    for kind in (SchemeKind.SP_LFR, SchemeKind.S_LFR, SchemeKind.LFR):
        for t in (0, 1):
            cfg = tiny_config(kind, 3, 2, t, num_files=1)
            demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
            assert (security_joint_enumerated(cfg, demands)
                    == _walked_joint(cfg, demands)), (kind, t)


def test_parallel_enumeration_matches_serial():
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    assert (security_joint_enumerated(cfg, demands, jobs=2)
            == security_joint_enumerated(cfg, demands, jobs=1))


def test_battery_order_does_not_change_the_joint():
    # Demands are matched to users by their user field, never by their
    # position in the battery: a reversed battery is the same battery.
    cfg = tiny_config(SchemeKind.LFR, 3, 2, 1)
    in_order = (DemandVector.one_hot((1, 2), 1, 2),
                DemandVector.one_hot((1, 3), 1, 2),
                DemandVector.one_hot((2, 3), 2, 2))
    backwards = in_order[::-1]
    joint = security_joint_enumerated(cfg, in_order)
    assert security_joint_enumerated(cfg, backwards) == joint
    assert security_joint_enumerated(cfg, backwards, jobs=2) == joint
    assert _walked_joint(cfg, backwards) == _walked_joint(cfg, in_order) == joint
    for method in ("enumerate", "affine"):
        res = check_security_exact(cfg, backwards, method=method)
        assert res.demands == (1, 1, 2)
        assert res.mi_bits == pytest.approx(mutual_information(joint).bits,
                                            abs=1e-9)


@pytest.mark.parametrize("jobs", (0, -5))
def test_jobs_below_one_are_rejected(jobs):
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    for method in ("enumerate", "affine"):
        with pytest.raises(UsageError, match="jobs must be at least 1"):
            check_security_exact(cfg, demands, method=method, jobs=jobs)
    with pytest.raises(UsageError, match="jobs must be at least 1"):
        security_joint_enumerated(cfg, demands, jobs=jobs)


ENUMERABLE = 1 << 14  # states the cross-checks below enumerate at most


def _security_state_bits(cfg) -> int:
    return (cfg.num_files * cfg.file_bits
            + RandomnessLayout.for_config(cfg).total_bits)


def _privacy_state_bits(cfg) -> int:
    return _security_state_bits(cfg) + cfg.num_files * cfg.topo.num_users


def test_affine_matches_every_enumerated_sweep_instance():
    # Every sweep topology under every kind whose state space is small
    # enough to walk gets the same verdict and MI from the model route as
    # from forced enumeration.
    compared = []
    for C, r, t in tiny_sweep_topologies():
        for kind in SchemeKind:
            cfg = tiny_config(kind, C, r, t)
            if 1 << _security_state_bits(cfg) > ENUMERABLE:
                continue
            enum = check_security_exact(cfg, method="enumerate")
            affine = check_security_exact(cfg, method="affine")
            assert affine.certified_zero == enum.certified_zero, (kind, C, r, t)
            assert affine.mi_bits == pytest.approx(enum.mi_bits, abs=1e-9)
            compared.append(kind)
    # 8 topologies under s-lfr, is-lfr and lfr; sp-lfr (3,3,0) and p-lfr
    # (3,2,0), (3,3,0).
    assert set(compared) == set(SchemeKind)
    assert len(compared) == 27


def test_privacy_affine_matches_every_enumerated_c3_instance():
    # The same for privacy at C = 3, with one and two files, for every kind.
    compared = []
    for C, r, t in tiny_sweep_topologies():
        if C != 3:
            continue
        for kind in SchemeKind:
            for num_files in (1, 2):
                cfg = tiny_config(kind, C, r, t, num_files=num_files)
                if 1 << _privacy_state_bits(cfg) > ENUMERABLE:
                    continue
                enum = check_privacy_exact(cfg, method="enumerate")
                affine = check_privacy_exact(cfg, method="affine")
                assert affine.per_observer == enum.per_observer, (
                    kind, C, r, t, num_files)
                compared.append(kind)
    # p-lfr (3,2,0) with one file is the multi-user masking instance here;
    # test_privacy_affine_matches_enumeration adds sp-lfr (3,2,1).
    assert set(compared) == set(SchemeKind)
    assert len(compared) == 23


def test_auto_takes_the_route_with_fewer_engine_runs():
    # Enumeration spends its state count, the model route its recovery
    # and probe runs; auto enumerates only when that is not the dearer.
    def model_runs(wbits, zbits):
        return (1 + wbits) * (1 + zbits) + AFFINITY_PROBES * (1 + wbits)

    for kind, C, r, t in ((SchemeKind.LFR, 3, 3, 0), (SchemeKind.S_LFR, 3, 2, 0),
                          (SchemeKind.LFR, 3, 2, 1), (SchemeKind.S_LFR, 3, 2, 1),
                          (SchemeKind.IS_LFR, 4, 2, 2)):
        cfg = tiny_config(kind, C, r, t)
        wbits = cfg.num_files * cfg.file_bits
        zbits = RandomnessLayout.for_config(cfg).total_bits
        states, runs = 1 << (wbits + zbits), model_runs(wbits, zbits)
        res = check_security_exact(cfg)
        if states <= runs:
            assert (res.method, res.states) == ("enumerate", states)
        else:
            assert (res.method, res.states) == ("affine", runs)
    # Pinned by hand: lfr (3,2,1) has 64 states against 63 model runs,
    # s-lfr (3,2,0) 32 states against 36 runs.
    lfr = check_security_exact(tiny_config(SchemeKind.LFR, 3, 2, 1))
    assert (lfr.method, lfr.states) == ("affine", 63)
    slfr = check_security_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 0))
    assert (slfr.method, slfr.states) == ("enumerate", 32)
    # Privacy weighs its demand bits too: 2^5 states against 36 runs.
    small = check_privacy_exact(tiny_config(SchemeKind.S_LFR, 3, 3, 0))
    assert small.method == "enumerate"
    assert check_privacy_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 1)
                               ).method == "affine"
    assert _choose_method("auto", 7, 7) == "enumerate"
    assert _choose_method("auto", 8, 7) == "affine"
    for method in ("enumerate", "affine"):
        assert _choose_method(method, 1, 1 << 40) == method
    with pytest.raises(UsageError):
        _choose_method("sample", 1, 1)


def test_certificates_answer_without_the_walk(monkeypatch):
    # With the per-library walk disabled, the keyed sweep still gets its
    # certified zero: the fixed point never loops over the library values.
    # The keyless control cannot be certified and needs the walk.
    def no_walk(self):
        raise AssertionError("walked the library values")

    monkeypatch.setattr(BilinearModel, "sections", no_walk)
    for C, r, t in tiny_sweep_topologies():
        for kind in (SchemeKind.S_LFR, SchemeKind.IS_LFR, SchemeKind.SP_LFR):
            res = check_security_exact(tiny_config(kind, C, r, t),
                                       method="affine")
            assert res.certified_zero, (kind, C, r, t)
    with pytest.raises(AssertionError, match="walked"):
        check_security_exact(tiny_config(SchemeKind.LFR, 3, 2, 1),
                             method="affine")


def test_a_randomness_bit_the_library_switches_off_does_not_settle():
    # V = w ^ z ^ w z = w OR z: the key bit z hides w only while w = 0, so
    # the view leaks; z's column has a cross term and must not settle.
    gated_key = BilinearModel(base=0, lib=(1,), inp=(1,), cross=((1,),))
    assert not _security_certified(gated_key)
    # Without the cross term it is certified.
    assert _security_certified(replace(gated_key, cross=((0,),)))


def test_zeroed_payload_key_is_not_certified(monkeypatch):
    # An s-lfr engine that sends one payload in the clear leaks; the model
    # route must say so with the same MI as enumeration.
    honest = RandomnessLayout.unpack

    def unkeyed(self, value):
        rnd = honest(self, value)
        keys = dict(rnd.payload_keys)
        first = min(keys)
        keys[first] = BitBlock.zeros(keys[first].length)
        return replace(rnd, payload_keys=keys)

    monkeypatch.setattr(RandomnessLayout, "unpack", unkeyed)
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    affine = check_security_exact(cfg, method="affine")
    enum = check_security_exact(cfg, method="enumerate")
    assert not enum.certified_zero and enum.mi_bits > 0
    assert not affine.certified_zero
    assert affine.mi_bits == pytest.approx(enum.mi_bits, abs=1e-9)


def test_unmasked_demand_is_not_certified_private(monkeypatch):
    # An sp-lfr engine that sends one user's demand unmasked leaks it to
    # every other observer; the span test at each library value finds it.
    honest = Scheme.deliver

    def leaky(self, secrets, table, demands):
        transcript = honest(self, secrets, table, demands)
        first = demands[0]
        masked = dict(transcript.masked_demands)
        masked[first.user] = first.coeffs
        return replace(transcript, masked_demands=masked)

    monkeypatch.setattr(Scheme, "deliver", leaky)
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    res = check_privacy_exact(cfg, method="affine")
    leaked = cfg.topo.users()[0]
    assert res.per_observer == {g: Fraction(int(g != leaked))
                                for g in cfg.topo.users()}


def test_uncertified_controls_keep_their_exact_mi():
    # Neither p-lfr nor the keyless lfr is certified; both fall back to
    # the walk and report the MI of the joint it expands.
    for kind, C, r, t in ((SchemeKind.P_LFR, 3, 2, 0),
                          (SchemeKind.P_LFR, 3, 2, 1),
                          (SchemeKind.LFR, 3, 2, 1),
                          (SchemeKind.LFR, 4, 2, 2)):
        cfg = tiny_config(kind, C, r, t)
        demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
        res = check_security_exact(cfg, demands, method="affine")
        walked = mutual_information(_walked_joint(cfg, demands))
        assert not res.certified_zero and not walked.is_zero, (kind, C, r, t)
        assert res.mi_bits == pytest.approx(walked.bits, abs=1e-9)


def test_affine_states_count_recovery_and_probe_runs():
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    lib_bits = cfg.num_files * cfg.file_bits
    rand_bits = RandomnessLayout.for_config(cfg).total_bits
    res = check_security_exact(cfg, method="affine")
    assert res.states == ((1 + lib_bits) * (1 + rand_bits)
                          + AFFINITY_PROBES * (1 + lib_bits))


def test_largest_masked_sweep_instance_is_fast():
    started = time.perf_counter()
    res = check_security_exact(tiny_config(SchemeKind.SP_LFR, 4, 2, 2))
    assert res.method == "affine" and res.certified_zero
    assert time.perf_counter() - started < 2.0


def _skew_views(monkeypatch):
    """Make every view carry a library-by-library product, which no
    bilinear model over (library, inputs) can express.  Every route runs
    the engine through verify._views, so one patch reaches them all."""
    honest = verify._views

    def skewed(*args, **kwargs):
        run, wbits, zbits = honest(*args, **kwargs)

        def bumped(w, z):
            bump = w & (w >> 1) & 1
            return tuple(view ^ bump for view in run(w, z))

        return bumped, wbits, zbits

    monkeypatch.setattr(verify, "_views", skewed)


def test_affine_route_rejects_a_library_product(monkeypatch):
    _skew_views(monkeypatch)
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    with pytest.raises(AssertionError, match="not bilinear"):
        check_security_exact(cfg, method="affine")
    with pytest.raises(AssertionError, match="not bilinear"):
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
    # The keyless control is not certified, and its walk expands one point
    # per library value: 64 points from 63 runs, so a cap of 63 admits the
    # runs but not the expansion.
    control = tiny_config(SchemeKind.LFR, 3, 2, 1)
    with pytest.raises(ResourceLimitError, match="coset expansion"):
        check_security_exact(control, method="affine", cap=63)
    res = check_security_exact(control, method="affine", cap=64)
    assert res.mi_bits == pytest.approx(1.0, abs=1e-9)


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
            transcript = scheme.deliver(placement.secrets, placement.table,
                                        demands)
            cache = placement.caches[0]
            view = (extractor.transmission(transcript),
                    tuple(sorted(cache.subfiles.items())),
                    tuple(sorted(cache.whole_keys.items())))
            joint[(w, view)] = joint.get((w, view), F(0)) + p
    mi = mutual_information(joint)
    assert not mi.is_zero and mi.bits > 0


def test_security_respects_the_cap():
    cfg = tiny_config(SchemeKind.S_LFR, 4, 2, 2)
    with pytest.raises(ResourceLimitError):
        check_security_exact(cfg, method="enumerate", cap=100)


# ---- privacy ----

def test_privacy_affine_matches_enumeration():
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1, num_files=1)
    enum = check_privacy_exact(cfg, method="enumerate")
    affine = check_privacy_exact(cfg, method="affine")
    assert enum.max_tv == affine.max_tv == 0
    assert enum.per_observer == affine.per_observer


def test_privacy_affine_matches_enumeration_on_the_cleartext_control():
    cfg = tiny_config(SchemeKind.S_LFR, 3, 2, 1)
    enum = check_privacy_exact(cfg, method="enumerate")
    affine = check_privacy_exact(cfg, method="affine")
    assert affine.method == "affine"
    assert affine.per_observer == enum.per_observer
    assert affine.max_tv == enum.max_tv == 1


def test_masked_demands_are_private_and_cleartext_ones_are_not():
    private = check_privacy_exact(tiny_config(SchemeKind.P_LFR, 3, 2, 1))
    assert private.max_tv == 0
    leaky = check_privacy_exact(tiny_config(SchemeKind.S_LFR, 3, 2, 1))
    assert leaky.max_tv == 1
    assert leaky.method == "affine"


def test_single_user_topology_is_trivially_private():
    res = check_privacy_exact(tiny_config(SchemeKind.SP_LFR, 3, 3, 0))
    assert res.max_tv == 0 and res.states == 0


def test_privacy_validates_observers():
    cfg = tiny_config(SchemeKind.SP_LFR, 3, 2, 1)
    with pytest.raises(UsageError):
        check_privacy_exact(cfg, observers=[(1, 2, 3)])


@pytest.mark.parametrize("method", ("enumerate", "affine"))
def test_privacy_rejects_an_empty_observer_list(method, monkeypatch):
    # Refused before the engine runs, on either route.
    def no_engine(*args, **kwargs):
        raise AssertionError("ran the engine")

    monkeypatch.setattr(Scheme, "place", no_engine)
    cfg = tiny_config(SchemeKind.P_LFR, 3, 2, 0, num_files=1)
    with pytest.raises(UsageError, match="at least one observer"):
        check_privacy_exact(cfg, observers=[], method=method)


# ---- correctness and share placement ----

def test_correctness_report_counts():
    cfg = tiny_config(SchemeKind.IS_LFR, 3, 2, 1)
    batteries = [cycling_one_hot_demands(cfg.topo, cfg.num_files)]
    report = check_correctness(cfg, batteries, seeds=(0, 1, 2))
    assert report.ok
    assert report.batteries == 1
    assert report.decodes == 3 * cfg.topo.num_users
    assert report.failures == ()


def test_share_placement_structure_over_the_sweep():
    for C, r, t in tiny_sweep_topologies():
        for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR, SchemeKind.S_LFR,
                     SchemeKind.IS_LFR):
            report = check_share_placement_secrecy(tiny_config(kind, C, r, t))
            assert report.ok, (kind, C, r, t, report.problems)
            assert report.keys_checked > 0


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
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, maclfr, maclfr.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
