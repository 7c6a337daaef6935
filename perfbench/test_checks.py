"""Tests of the benchmark itself: every output check can fail.

    python3 -m pytest perfbench

Each check is fed a deliberately wrong expected value and must report the
operation as failed; small instances keep the whole file to a few seconds.
"""

from dataclasses import replace
from fractions import Fraction

import run

run.load_maclfr()

import workloads  # noqa: E402  (needs maclfr on the path)
from maclfr import analysis, verify  # noqa: E402
from maclfr.schemes import SchemeKind  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Operation, Tally, attempt  # noqa: E402

SMALL_ENGINE = (4, 2, 1, 4, 48)  # C, r, t, N, F


def outcome(op: Operation, tracer=None) -> Tally:
    tally = Tally()
    attempt(op, tally, tracer)
    return tally


def with_check(op: Operation, check) -> Operation:
    return Operation(op.name, op.run, check)


def assert_fails(op: Operation) -> None:
    tally = outcome(op)
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False), \
        tally.problems


def test_engine_operations_pass_their_checks():
    for op in workloads.engine_ops(7, SMALL_ENGINE):
        tally = outcome(op)
        assert (tally.failed, tally.problems) == (0, []), op.name


def test_decode_check_fails_on_a_wrong_combination():
    op = workloads.engine_ops(7, SMALL_ENGINE)[0]

    def check(out):
        result = out[0]
        files = [f.value for f in result.library.files]
        wrong = {g: workloads.xor_combination(files, result.demands[k].coeffs)
                 ^ (1 if k == 0 else 0)
                 for k, g in enumerate(result.cfg.topo.users())}
        return workloads.decode_problems(result, wrong)

    assert_fails(with_check(op, check))


def test_closed_form_check_fails_on_a_wrong_point():
    op = workloads.engine_ops(7, SMALL_ENGINE)[2]

    def check(out):
        result = out[0]
        C, r, t, N, F = SMALL_ENGINE
        point = analysis.point(result.cfg.kind, C, r, t, N, F)
        return workloads.closed_form_problems(
            result, replace(point, memory=point.memory + 1))

    assert_fails(with_check(op, check))


def test_roundtrip_check_fails_on_other_bytes():
    op = workloads.engine_ops(7, SMALL_ENGINE)[3]

    def check(out):
        data = out[1]
        return workloads.roundtrip_problems(
            data, data[:-1] + bytes([data[-1] ^ 1]))

    assert_fails(with_check(op, check))


def test_keyless_control_matches_enumeration():
    res = verify.check_security_exact(verify.tiny_config(SchemeKind.LFR, 3, 2, 1))
    cfg = res.cfg
    assert workloads.keyless_mi_bits(3, 2, 1, cfg.num_files, cfg.file_bits,
                                     res.demands) == 1.0
    assert outcome(workloads.security_op(SchemeKind.LFR, 3, 2, 1, 5)).failed == 0


def test_security_checks_fail_on_a_wrong_claim_or_mi():
    secure = workloads.security_op(SchemeKind.S_LFR, 3, 2, 0, 5)
    assert outcome(secure).failed == 0
    assert_fails(with_check(secure, lambda res: workloads.security_problems(
        res, claim_zero=False, expected_mi=None)))
    keyless = workloads.security_op(SchemeKind.LFR, 3, 2, 1, 5)
    assert_fails(with_check(keyless, lambda res: workloads.security_problems(
        res, claim_zero=False, expected_mi=2.0)))


def test_privacy_check_fails_on_a_wrong_distance():
    private = workloads.privacy_op(SchemeKind.SP_LFR, 3, 2, 0, 5)
    assert outcome(private).failed == 0
    assert_fails(with_check(private, lambda res: workloads.privacy_problems(
        res, Fraction(1))))
    control = workloads.privacy_op(SchemeKind.S_LFR, 3, 2, 1, 5)
    assert_fails(with_check(control, lambda res: workloads.privacy_problems(
        res, Fraction(0))))


def test_an_exception_fails_the_operation_and_the_run():
    def boom():
        raise ValueError("boom")

    tally = outcome(Operation("boom", boom, lambda out: []))
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)
    assert "raised ValueError('boom')" in tally.problems[0]


def test_a_raising_operation_cannot_make_a_correct_faster_run():
    ops = workloads.engine_ops(7, SMALL_ENGINE)[:2]

    def boom():
        raise ValueError("boom")

    whole = workloads.measure(ops, seconds=0)
    broken = workloads.measure([ops[0], Operation(ops[1].name, boom,
                                                  ops[1].check)], seconds=0)
    assert whole.correct and (whole.attempted, whole.failed) == (2, 0)
    # The failed operation adds no time, so the run must not read correct.
    assert (broken.attempted, broken.failed, broken.correct) == (2, 1, False)
    assert set(broken.intervals) == {ops[0].name}


def test_tracer_counts_repeat_and_originals_come_back():
    from maclfr import bits, schemes

    xor, place = bits.BitBlock.__xor__, schemes.Scheme.place
    op = workloads.engine_ops(7, SMALL_ENGINE)[0]
    tracer = Tracer()
    counts = []
    for _ in range(2):
        before = tracer.snapshot()
        assert outcome(op, tracer).failed == 0
        after = tracer.snapshot()
        counts.append({k: after[k] - before[k] for k in after
                       if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["bits.xors"] > 0 and counts[0]["gf.muls"] > 0
    assert not tracer.missing
    assert (bits.BitBlock.__xor__, schemes.Scheme.place) == (xor, place)
