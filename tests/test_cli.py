"""Command-line behavior: exit codes, file outputs, determinism."""

from __future__ import annotations

import argparse
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from maclfr import cli
from maclfr.cli import main
from maclfr.errors import (DomainError, IntegrityError, MaclfrError,
                           ResourceLimitError, UsageError)
from maclfr.schemes import Scheme, SchemeConfig, SchemeKind
from maclfr.topology import TopologySpec
from maclfr.verify import check_correctness
from maclfr.transcript import artifact_from_bytes


README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv: str) -> int:
    return main(list(argv))


def test_every_long_flag_the_readme_names_is_a_maclfr_option():
    # A flag the parser drops must not live on in the README, and a flag
    # it takes must be documented there; pip's own flag in the install
    # notes is not maclfr's.
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {flag for p in sub.choices.values()
               for flag in p._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*",
                           README.read_text())) - {"--no-build-isolation"}
    assert "--suite" in named
    assert named - options == set()
    assert {o for o in options if o.startswith("--")} - named == {"--help"}


def test_simulate_writes_transcripts(tmp_path, capsys):
    code = run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "3",
               "--F", "6", "--scheme", "sp-lfr", "--seed", "5",
               "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "memory 5/3 files, rate 1/3 files" in out
    assert "decode 3/3 users pass" in out
    artifact = artifact_from_bytes((tmp_path / "transcript.bin").read_bytes())
    assert artifact.cfg.seed == 5
    doc = json.loads((tmp_path / "transcript.json").read_text())
    assert doc["config"]["scheme"] == "sp-lfr"


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
                   "--F", "3", "--scheme", "is-lfr", "--seed", "1",
                   "--out", str(out)) == 0
    assert (a / "transcript.bin").read_bytes() == (b / "transcript.bin").read_bytes()
    assert (a / "transcript.json").read_text() == (b / "transcript.json").read_text()


def test_simulate_reads_demand_files(tmp_path, capsys):
    demands = tmp_path / "demands.txt"
    demands.write_text("110\n011\n101\n")
    code = run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "3",
               "--F", "6", "--scheme", "lfr", "--demands", str(demands),
               "--out", str(tmp_path))
    assert code == 0
    assert "decode 3/3 users pass" in capsys.readouterr().out


def test_simulate_exhaustive_demands(capsys):
    code = run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--F", "3", "--scheme", "s-lfr", "--demands", "exhaustive")
    assert code == 0
    assert "192/192 pass over 64 demand tuples" in capsys.readouterr().out


def test_simulate_preset(tmp_path, capsys):
    code = run("simulate", "--preset", "pairs-of-three", "--scheme", "s-lfr",
               "--out", str(tmp_path))
    assert code == 0
    assert "memory 4/3 files" in capsys.readouterr().out


@pytest.mark.parametrize("flags", (("--F", "100", "--C", "9"), ("--t", "0"),
                                   ("--r", "3", "--N", "2")))
def test_simulate_preset_refuses_the_flags_it_fixes(flags, tmp_path, capsys):
    code = run("simulate", "--scheme", "lfr", "--preset", "pairs-of-three",
               *flags, "--out", str(tmp_path))
    assert code == 4
    err = capsys.readouterr().err
    assert all(f in err for f in flags if f.startswith("--"))
    assert not (tmp_path / "transcript.bin").exists()


def test_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MACLFR_SEED", "77")
    code = run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--F", "3", "--scheme", "lfr", "--out", str(tmp_path))
    assert code == 0
    assert "seed=77" in capsys.readouterr().out
    monkeypatch.setenv("MACLFR_SEED", "not-a-number")
    assert run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--F", "3", "--scheme", "lfr", "--out", str(tmp_path)) == 4


def test_curve_figure_preset(tmp_path, capsys):
    code = run("curve", "--figure", "2", "--out", str(tmp_path))
    assert code == 0
    csv_lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert csv_lines[0] == "scheme,C,r,t,M_num,M_den,R_num,R_den"
    assert len(csv_lines) > 5 * 15
    doc = json.loads((tmp_path / "envelopes.json").read_text())
    assert doc["format"] == "maclfr-curves"
    assert {c["scheme"] for c in doc["curves"]} == {
        "sp-lfr", "p-lfr", "s-lfr", "is-lfr", "lfr"}


def test_curve_single_scheme_and_point(tmp_path):
    code = run("curve", "--C", "3", "--r", "2", "--N", "3", "--t", "1",
               "--F", "6", "--scheme", "sp-lfr", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "envelopes.json").read_text())
    assert len(doc["curves"]) == 1
    assert doc["curves"][0]["points"] == [{"t": "1", "M": "5/3", "R": "1/3"}]


@pytest.mark.parametrize("flags", (("--C", "5", "--N", "4"), ("--r", "1"),
                                   ("--scheme", "lfr")))
def test_curve_figure_refuses_the_flags_it_fixes(flags, tmp_path, capsys):
    code = run("curve", "--figure", "3", *flags, "--out", str(tmp_path))
    assert code == 4
    err = capsys.readouterr().err
    assert all(f in err for f in flags if f.startswith("--"))
    assert not (tmp_path / "curves.csv").exists()
    # --t and --F are still the figure's to take.
    assert run("curve", "--figure", "3", "--t", "1", "--F", "105",
               "--out", str(tmp_path)) == 0


def test_curve_refuses_an_access_degree_above_the_cache_count(tmp_path,
                                                              capsys):
    # Every kind's t-sweep is empty at r > C; the full-cache point alone
    # must not pass for a curve.
    assert run("curve", "--C", "3", "--r", "4", "--N", "2",
               "--out", str(tmp_path)) == 4
    assert capsys.readouterr().err == "error: access degree 4 outside [1, 3]\n"
    assert not (tmp_path / "curves.csv").exists()
    assert not (tmp_path / "envelopes.json").exists()


@pytest.mark.parametrize("kind", [kind.value for kind in SchemeKind])
def test_one_user_privacy_expects_zero_for_every_kind(kind, tmp_path):
    # A single user has no other demands to hide, so even a cleartext kind
    # is private there and its record is no negative control.
    assert run("verify", "--suite", "privacy", "--scheme", kind, "--C", "3",
               "--r", "3", "--t", "0", "--N", "2", "--out", str(tmp_path)) == 0
    (check,) = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert (check["expected_zero"], check["max_tv"], check["pass"]) == (
        True, "0/1", True)


def test_verify_report_and_exit(tmp_path, capsys):
    code = run("verify", "--suite", "correctness", "--C", "3", "--r", "2",
               "--t", "1", "--N", "2", "--F", "3", "--exhaustive",
               "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    assert len(report["checks"]) == 5
    assert {c["scheme"] for c in report["checks"]} == {
        "sp-lfr", "p-lfr", "s-lfr", "is-lfr", "lfr"}
    out = capsys.readouterr().out
    assert out.count("pass: correctness") == 5


def test_verify_single_security_instance(tmp_path):
    code = run("verify", "--suite", "security", "--C", "3", "--r", "2",
               "--t", "1", "--N", "2", "--F", "3", "--scheme", "lfr",
               "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    check = report["checks"][0]
    assert check["expected_zero"] is False
    assert not check["certified_zero"]
    assert check["pass"] is True


def test_verify_report_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("verify", "--suite", "shares", "--C", "4", "--r", "2",
                   "--t", "1", "--scheme", "sp-lfr", "--out", str(out)) == 0
    assert (a / "report.json").read_text() == (b / "report.json").read_text()


@pytest.mark.parametrize("error, code", [
    (UsageError, 4), (DomainError, 4), (ResourceLimitError, 3),
    (OSError, 2), (FileNotFoundError, 2), (IntegrityError, 2),
    (MaclfrError, 1)])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error,
                                              code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_curve", fail)
    assert run("curve") == code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.fixture
def misdecode(monkeypatch):
    """Scheme.decode_rows with bit 0 of the first listed user's row flipped."""
    decode_rows = Scheme.decode_rows

    def flipped(self, *args):
        rows = decode_rows(self, *args)
        return [rows[0] ^ 1] + rows[1:]

    monkeypatch.setattr(Scheme, "decode_rows", flipped)


def test_a_failed_decode_exits_with_code_one(misdecode, tmp_path, capsys):
    assert run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--F", "3", "--scheme", "s-lfr", "--seed", "1",
               "--out", str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert "decode 2/3 users pass" in out
    assert re.findall(r"FAIL user \(1, 2\): expected [0-9a-f]+, decoded "
                      r"[0-9a-f]+\n", out) and out.count("FAIL") == 1
    assert run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--F", "3", "--scheme", "lfr", "--demands", "exhaustive") == 1
    out = capsys.readouterr().out
    assert "exhaustive decode: 128/192 pass over 64 demand tuples" in out
    assert out.count("  FAIL user (1, 2): expected ") == 10


def test_a_failed_check_fails_the_report(misdecode, tmp_path, capsys):
    assert run("verify", "--suite", "correctness", "--C", "3", "--r", "2",
               "--t", "1", "--N", "2", "--F", "3", "--scheme", "p-lfr",
               "--out", str(tmp_path)) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is False
    assert [(c["pass"], c["failures"], c["decodes"])
            for c in report["checks"]] == [(False, 100, 300)]
    out = capsys.readouterr().out
    assert "FAIL: correctness p-lfr C=3 r=2 t=1 200/300 decodes\n" in out


def test_exit_codes():
    assert run("simulate", "--C", "3", "--r", "9", "--t", "0", "--N", "2",
               "--F", "3", "--scheme", "lfr") == 4  # bad topology
    assert run("simulate", "--scheme", "lfr") == 4  # missing flags
    assert run("nonsense") == 4  # unknown command
    assert run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--F", "3", "--scheme", "lfr",
               "--demands", "/nonexistent/demands") == 2  # I/O
    assert run("verify", "--suite", "security", "--C", "4", "--r", "2",
               "--t", "2", "--N", "2", "--scheme", "s-lfr",
               "--cap", "10") == 3  # resource cap: the model needs 130 runs


def test_verify_scheme_without_a_topology_is_missing_flags(tmp_path, capsys):
    # --scheme names one instance on every suite, correctness too, and
    # "all" refuses it before its first suite runs.
    for suite in ("correctness", "all"):
        assert run("verify", "--suite", suite, "--scheme", "lfr",
                   "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("missing required flags: --C --r --t --N") == 2
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("suite, files, schemes", [
    ("security", ("--N", "2"), ["sp-lfr"]),
    ("privacy", ("--N", "2"), ["sp-lfr"]),
    ("correctness", ("--N", "2"), [kind.value for kind in SchemeKind]),
    ("shares", (), ["sp-lfr"]),
])
def test_a_topology_without_a_scheme_names_the_suite_s_instances(
        suite, files, schemes, tmp_path):
    # --C without --scheme names sp-lfr, but every kind for correctness, in
    # SchemeKind order; shares needs no --N and records neither N nor F.
    assert run("verify", "--suite", suite, "--C", "3", "--r", "2", "--t", "1",
               *files, "--out", str(tmp_path)) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [c["scheme"] for c in checks] == schemes
    assert all((c["C"], c["r"], c["t"]) == (3, 2, 1) for c in checks)
    assert all(("N" in c, "F" in c) == (bool(files),) * 2 for c in checks)
    assert all(c.get("N", 2) == 2 for c in checks)


@pytest.mark.parametrize("suite", ["security", "privacy", "correctness"])
def test_an_oracle_instance_needs_its_file_count(suite, tmp_path, capsys):
    assert run("verify", "--suite", suite, "--C", "3", "--r", "2", "--t", "1",
               "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: missing required flags: --N\n"
    assert not (tmp_path / "report.json").exists()


def test_jobs_below_one_exit_as_usage_errors(tmp_path, capsys):
    # verify has no --jobs flag: enumeration is one serial walk.
    assert run("verify", "--suite", "security", "--C", "3", "--r", "2",
               "--t", "1", "--N", "2", "--scheme", "s-lfr",
               "--jobs", "2", "--out", str(tmp_path)) == 4
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_caps_below_one_exit_as_usage_errors(tmp_path, capsys):
    # A cap of no state is a bad argument, not a refusal (exit 3).
    for cap in ("0", "-1"):
        assert run("verify", "--suite", "correctness", "--C", "3", "--r", "2",
                   "--t", "1", "--N", "2", "--exhaustive", "--cap", cap,
                   "--out", str(tmp_path)) == 4
    assert capsys.readouterr().err.count("cap must be at least 1") == 2
    assert not (tmp_path / "report.json").exists()


def _refuse_every_check(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("check_correctness", "check_security_exact",
                 "check_privacy_exact", "check_share_placement_secrecy"):
        monkeypatch.setattr(cli, name, ran)


def test_exhaustive_outside_correctness_exits_before_any_check(
        monkeypatch, tmp_path, capsys):
    # --exhaustive runs every demand tuple of the correctness suite; any
    # other suite would ignore it, so it is a bad argument there.
    _refuse_every_check(monkeypatch)
    for suite in ("security", "privacy", "shares"):
        assert run("verify", "--suite", suite, "--C", "3", "--r", "2",
                   "--t", "1", "--N", "2", "--exhaustive",
                   "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("--exhaustive applies to correctness") == 3
    assert not (tmp_path / "report.json").exists()


def test_enumerated_privacy_exits_before_any_check(monkeypatch, tmp_path,
                                                   capsys):
    # Each oracle has the model route alone, and verify has no --method:
    # any value of it is an unrecognised flag on every suite, privacy and
    # "all" included, before any check runs.
    _refuse_every_check(monkeypatch)
    suites = ("correctness", "security", "privacy", "shares", "all")
    for suite in suites:
        for method in ("auto", "enumerate"):
            assert run("verify", "--suite", suite, "--C", "3", "--r", "2",
                       "--t", "1", "--N", "1", "--scheme", "s-lfr",
                       "--method", method, "--out", str(tmp_path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (captured.err.count("unrecognized arguments: --method auto")
            == captured.err.count("unrecognized arguments: --method enumerate")
            == len(suites))
    assert not (tmp_path / "report.json").exists()


def test_a_default_sweep_refuses_the_topology_flags_it_fixes(
        monkeypatch, tmp_path, capsys):
    # Without --scheme or --C, verify runs the suite's default sweep, whose
    # instances fix r, t, N and F: any of them is refused, not dropped,
    # and "all" refuses it at its first suite.
    _refuse_every_check(monkeypatch)
    flags = ("--r", "--t", "--N", "--F")
    for suite in ("correctness", "security", "privacy", "shares", "all"):
        for flag in flags:
            assert run("verify", "--suite", suite, flag, "3",
                       "--out", str(tmp_path)) == 4
        first = "correctness" if suite == "all" else suite
        assert capsys.readouterr() == ("", "".join(
            f"error: the default {first} sweep fixes {flag}\n"
            for flag in flags))
    assert not (tmp_path / "report.json").exists()


def test_simulate_exhaustive_demands_respect_the_state_cap(monkeypatch, capsys):
    # simulate once listed every one of the 2^(N K) demand tuples before
    # decoding any; it refuses above the oracles' default cap, as
    # verify --exhaustive refuses above --cap.
    monkeypatch.setattr(cli, "DEFAULT_STATE_CAP", 10)
    assert run("simulate", "--C", "3", "--r", "2", "--t", "1", "--N", "2",
               "--scheme", "s-lfr", "--demands", "exhaustive") == 3
    assert "64 demand tuples exceed the cap 10" in capsys.readouterr().err


def test_exhaustive_decode_streams_its_demand_tuples():
    # The exhaustive path once listed all 2^(N K) demand tuples, and
    # check_correctness copied them: at C = 3, r = 2, t = 1, going from
    # N = 3 (2^9 tuples) to N = 4 (2^12) raised its peak by about 1.5 MB.
    # Streamed, the peak stays put, up to the interpreter's free lists.
    # One decoding walk of each shape checks every tuple and builds the
    # caches and free lists; then a walk without seeds, which still makes
    # and reads every tuple but decodes none, runs under tracemalloc.
    shapes = [SchemeConfig(TopologySpec(3, 2, 1), N, 3, SchemeKind.LFR)
              for N in (3, 4)]
    for cfg in shapes:
        report = check_correctness(cfg, cli._every_demand_tuple(
            cfg, cli.DEFAULT_STATE_CAP), seeds=(cfg.seed,))
        assert report.ok and report.batteries == 1 << (3 * cfg.num_files)
    peaks = []
    for cfg in shapes:
        tracemalloc.start()
        try:
            report = check_correctness(cfg, cli._every_demand_tuple(
                cfg, cli.DEFAULT_STATE_CAP), seeds=())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.batteries == 1 << (3 * cfg.num_files)
    assert peaks[1] < peaks[0] + 256 * 1024, peaks


def test_broadcast_flag(tmp_path, capsys):
    code = run("simulate", "--C", "3", "--r", "2", "--t", "0", "--N", "2",
               "--F", "3", "--scheme", "p-lfr", "--broadcast",
               "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "memory 0/1 files, rate 2/1 files" in out
    assert run("simulate", "--C", "3", "--r", "2", "--t", "0", "--N", "2",
               "--F", "3", "--scheme", "lfr", "--broadcast") == 4
