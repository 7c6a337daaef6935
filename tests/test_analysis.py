"""Closed-form tradeoff checks.

Corner values are frozen from hand derivations of the counting arguments
(cache content per kind at one replication level), and separately
re-measured against real placements in the scheme tests, so a formula bug
cannot hide behind its own oracle.
"""

from __future__ import annotations

import io
from fractions import Fraction
from math import comb

import pytest

from maclfr import analysis, mds
from maclfr.analysis import (GapResult, curve, curves_to_json, format_fraction,
                             full_cache_point, lower_convex_envelope,
                             optimality_gap, point, security_memory_bound,
                             write_curves_csv)
from maclfr.errors import DomainError
from maclfr.schemes import SchemeKind

F3 = Fraction


def test_small_worked_corner():
    # C=3, r=2, t=1, N=3, F=6: three users on pairs of three caches.
    expect = {
        SchemeKind.SP_LFR: F3(5, 3),
        SchemeKind.P_LFR: F3(5, 3),
        SchemeKind.S_LFR: F3(4, 3),
        SchemeKind.IS_LFR: F3(7, 6),
        SchemeKind.LFR: F3(1),
    }
    for kind, memory in expect.items():
        p = point(kind, 3, 2, 1, 3, 6)
        assert p.memory == memory, kind
        assert p.rate == F3(1, 3)


def test_triples_worked_corner():
    # C=5, r=3, t=2, N=10, F=180.
    expect = {
        SchemeKind.SP_LFR: F3(23, 5),
        SchemeKind.P_LFR: F3(23, 5),
        SchemeKind.S_LFR: F3(41, 10),
        SchemeKind.IS_LFR: F3(121, 30),
        SchemeKind.LFR: F3(4),
    }
    for kind, memory in expect.items():
        p = point(kind, 5, 3, 2, 10, 180)
        assert p.memory == memory, kind
        assert p.rate == F3(1, 10)


def test_pairs_of_five_worked_corner():
    # C=5, r=2, t=2, N=10, F=60.
    expect = {
        SchemeKind.SP_LFR: F3(26, 5),
        SchemeKind.P_LFR: F3(26, 5),
        SchemeKind.S_LFR: F3(22, 5),
        SchemeKind.IS_LFR: F3(21, 5),
        SchemeKind.LFR: F3(4),
    }
    for kind, memory in expect.items():
        p = point(kind, 5, 2, 2, 10, 60)
        assert p.memory == memory, kind
        assert p.rate == F3(1, 2)


def test_unpadded_memory_formula():
    # With file_bits omitted the key overhead is the ideal fraction,
    # independent of alignment: data Nt/C plus the per-kind key terms.
    C, r, t, N = 5, 3, 1, 7
    b = comb(C, t)
    data = F3(N * t, C)
    assert point(SchemeKind.LFR, C, r, t, N).memory == data
    assert (point(SchemeKind.S_LFR, C, r, t, N).memory
            == data + F3(comb(C - 1, t + r - 1), b))
    assert (point(SchemeKind.IS_LFR, C, r, t, N).memory
            == data + F3(comb(C - 1, t + r - 1), r * b))
    shares = comb(C - r, t) * comb(C - 1, r - 1)
    assert (point(SchemeKind.SP_LFR, C, r, t, N).memory
            == data + F3(shares, b))


def test_rate_is_transmissions_over_subfiles():
    for C, r, t in ((3, 2, 1), (5, 2, 2), (6, 3, 2)):
        p = point(SchemeKind.LFR, C, r, t, 4)
        assert p.rate == F3(comb(C, t + r), comb(C, t))


def test_padding_never_reduces_memory():
    # Any concrete F costs at least the ideal unpadded fraction.
    for kind in SchemeKind:
        ideal = point(kind, 4, 2, 1, 3).memory
        for F in (1, 5, 7, 30):
            assert point(kind, 4, 2, 1, 3, F).memory >= ideal


def test_an_is_lfr_curve_at_a_file_size_builds_no_code(monkeypatch):
    # A point needs only the symbol width of the (t + r, r) code, not the
    # code, whose construction checks every minor for n <= 12.
    def refuse(*args):
        raise AssertionError("build_code called")
    for module in (mds, analysis):
        monkeypatch.setattr(module, "build_code", refuse, raising=False)
    points = curve(SchemeKind.IS_LFR, 12, 6, 12, 600).points
    assert len(points) == 12 - 6 + 1 + 1


def test_envelope_is_convex_and_monotone():
    for kind in SchemeKind:
        c = curve(kind, 6, 2, 8)
        env = c.envelope
        assert env[-1].rate == 0 and env[-1].memory == 8
        for a, b in zip(env, env[1:]):
            assert a.memory < b.memory
            assert a.rate > b.rate
        # Slopes must be increasing (toward zero) left to right.
        slopes = [(b.rate - a.rate) / (b.memory - a.memory)
                  for a, b in zip(env, env[1:])]
        assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_broadcast_tag_only_on_the_private_variant():
    p = curve(SchemeKind.P_LFR, 5, 2, 4)
    assert any(pt.tag == "broadcast" for pt in p.points)
    assert p.envelope[0].memory == 0 and p.envelope[0].rate == 4
    s = curve(SchemeKind.S_LFR, 5, 2, 4)
    assert all(pt.tag != "broadcast" for pt in s.points)
    assert s.envelope[0].memory > 0


def test_envelope_saturates_at_full_cache():
    env = curve(SchemeKind.LFR, 4, 2, 3).envelope
    assert env[-1] == full_cache_point(3)
    dominated = lower_convex_envelope([full_cache_point(3),
                                       full_cache_point(3)])
    assert dominated == (full_cache_point(3),)


def test_gap_at_the_cheapest_secure_corner():
    # C=4, r=2: K=6.  The masked variant sits at M = rK/C = 3 and the coded
    # variant at M = K/C = 3/2; against the zero-memory/t=1 chord the rate
    # ratio is 12/7 at the stated library sizes.
    g = optimality_gap(SchemeKind.SP_LFR, 4, 2, 24)
    assert g.memory == F3(3)
    assert g.ratio == F3(12, 7)
    assert g.bound_asserted and g.bound_holds
    g2 = optimality_gap(SchemeKind.IS_LFR, 4, 2, 12)
    assert g2.memory == F3(3, 2)
    assert g2.ratio == F3(12, 7)
    assert g2.bound_asserted and g2.bound_holds


def test_gap_below_threshold_is_not_asserted():
    g = optimality_gap(SchemeKind.SP_LFR, 4, 2, 23)
    assert not g.bound_asserted and g.bound_holds is None
    assert isinstance(g, GapResult)
    with pytest.raises(DomainError):
        optimality_gap(SchemeKind.LFR, 4, 2, 24)


def test_gap_holds_across_small_topologies():
    for C in (3, 4, 5):
        for r in (2, 3):
            if r > C - 1:
                continue
            K = comb(C, r)
            for kind, s in ((SchemeKind.SP_LFR, r), (SchemeKind.IS_LFR, 1)):
                g = optimality_gap(kind, C, r, 2 * K * s)
                assert g.bound_asserted and g.bound_holds, (C, r, kind)


def test_security_memory_bound_value():
    assert security_memory_bound(3, 2) == F3(3, 3)
    assert security_memory_bound(4, 2) == F3(6, 4)
    assert security_memory_bound(5, 3) == F3(10, 5)


def test_csv_and_json_emission():
    curves = [curve(SchemeKind.LFR, 3, 2, 2)]
    buf = io.StringIO()
    write_curves_csv(curves, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "scheme,C,r,t,M_num,M_den,R_num,R_den"
    assert len(lines) == 1 + len(curves[0].points)
    assert lines[1].startswith("lfr,3,2,0,")
    doc = curves_to_json(curves)
    assert doc["curves"][0]["scheme"] == "lfr"
    assert doc["curves"][0]["points"][0]["R"] == "3/1"
    assert format_fraction(F3(7, 3)) == "7/3"
    assert format_fraction(F3(2)) == "2/1"
