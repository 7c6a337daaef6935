"""Command-line front end.

Three subcommands: ``curve`` writes memory-rate tradeoff points and their
lower convex envelopes, ``simulate`` runs one placement-delivery-decode
round and writes the transcript container, ``verify`` runs the exact
verification oracles and writes a JSON report.

Output files are pure functions of the arguments (wall-clock goes to
stdout only), so identical invocations produce byte-identical files.

Exit codes: 0 success, 1 a check or decode failed, 2 an OSError or an
IntegrityError, 3 resource cap exceeded, 4 bad arguments.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

from .analysis import (TradeoffCurve, curve, curves_to_json, format_fraction,
                       lower_convex_envelope, point, write_curves_csv)
from .errors import (DomainError, IntegrityError, MaclfrError,
                     ResourceLimitError, UsageError)
from .library import DemandVector, parse_demand_file, random_demands
from .presets import FIGURE_PRESETS, WORKED_CONFIGURATIONS
from .schemes import SchemeConfig, SchemeKind, derive_rng, simulate
from .topology import TopologySpec
from .transcript import simulation_to_bytes, simulation_to_json
from .verify import (DEFAULT_STATE_CAP, CorrectnessReport, PrivacyCheckResult,
                     SecurityCheckResult, SharePlacementReport,
                     check_correctness, check_privacy_exact,
                     check_security_exact, check_share_placement_secrecy,
                     demands_from_int, tiny_config, tiny_sweep_topologies)

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="maclfr", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def topology_flags(p, need_t: bool):
        p.add_argument("--C", type=int, help="number of caches")
        p.add_argument("--r", type=int, help="caches accessed per user")
        p.add_argument("--t", type=int, required=False,
                       help="replication parameter"
                            + ("" if need_t else " (sweeps all if omitted)"))
        p.add_argument("--N", type=int, help="number of files")
        p.add_argument("--F", type=int, default=None,
                       help="file length in bits")

    pc = sub.add_parser("curve", help="emit memory-rate tradeoff curves")
    topology_flags(pc, need_t=False)
    pc.add_argument("--scheme", choices=[k.value for k in SchemeKind])
    pc.add_argument("--figure", type=int, choices=sorted(FIGURE_PRESETS),
                    help="preset parameterization")
    pc.add_argument("--out", default=".", help="output directory")

    ps = sub.add_parser("simulate", help="run place, deliver and decode once")
    topology_flags(ps, need_t=True)
    ps.add_argument("--scheme", choices=[k.value for k in SchemeKind],
                    required=True)
    ps.add_argument("--preset", choices=sorted(WORKED_CONFIGURATIONS),
                    help="use a worked configuration and its demands")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--demands", default="random",
                    help="demand file path, 'random', or 'exhaustive'")
    ps.add_argument("--broadcast", action="store_true",
                    help="zero-cache broadcast mode (p-lfr only)")
    ps.add_argument("--out", default=".", help="output directory")

    pv = sub.add_parser("verify", help="run the exact verification oracles")
    topology_flags(pv, need_t=True)
    pv.add_argument("--scheme", choices=[k.value for k in SchemeKind])
    pv.add_argument("--suite",
                    choices=["correctness", "security", "privacy", "shares",
                             "all"],
                    required=True)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--exhaustive", action="store_true",
                    help="correctness: run every demand tuple")
    pv.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                    help="most engine runs, rank-sum values, library values "
                         "or demand tuples a check may take")
    pv.add_argument("--out", default=".", help="output directory")
    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MACLFR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"MACLFR_SEED is not an integer: {env!r}") from exc
    return 0


def _require(args, *names: str) -> None:
    missing = " ".join(f"--{n}" for n in names if getattr(args, n) is None)
    if missing:
        raise UsageError(f"missing required flags: {missing}")


def _refuse(args, fixed_by: str, *names: str) -> None:
    """Refuse the given flags among `names`, which `fixed_by` fixes."""
    given = " ".join(f"--{n}" for n in names if getattr(args, n) is not None)
    if given:
        raise UsageError(f"{fixed_by} fixes {given}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _explicit_config(args, kind: SchemeKind, num_files: int) -> SchemeConfig:
    """The instance the topology flags name, F defaulting to one bit a
    subfile."""
    topo = TopologySpec(args.C, args.r, args.t)
    F = args.F if args.F is not None else topo.num_subfile_indices
    return SchemeConfig(topo, num_files, F, kind, seed=_resolve_seed(args))


# ---- curve ----

def _single_point_curve(kind: SchemeKind, C: int, r: int, t: int, N: int,
                        F: int | None) -> TradeoffCurve:
    pts = (point(kind, C, r, t, N, F),)
    return TradeoffCurve(kind, C, r, N, F, pts, lower_convex_envelope(pts))


def cmd_curve(args) -> int:
    if args.figure is not None:
        _refuse(args, f"--figure {args.figure}", "C", "r", "N", "scheme")
        preset = FIGURE_PRESETS[args.figure]
        C, r, N = preset.num_caches, preset.access_degree, preset.num_files
        kinds = preset.kinds
    else:
        _require(args, "C", "r", "N")
        C, r, N = args.C, args.r, args.N
        kinds = ((SchemeKind(args.scheme),) if args.scheme
                 else tuple(SchemeKind))
    if args.t is not None:
        curves = [_single_point_curve(kind, C, r, args.t, N, args.F)
                  for kind in kinds]
    else:
        curves = [curve(kind, C, r, N, args.F) for kind in kinds]
    out = _out_dir(args)
    csv_path = out / "curves.csv"
    buf = io.StringIO()
    write_curves_csv(curves, buf)
    csv_path.write_text(buf.getvalue())
    json_path = out / "envelopes.json"
    doc = {"format": "maclfr-curves", **curves_to_json(curves)}
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for c in curves:
        env = ", ".join(f"({format_fraction(p.memory)}, "
                        f"{format_fraction(p.rate)})" for p in c.envelope)
        print(f"{c.kind.value}: envelope {env}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


# ---- simulate ----

def _simulate_config(args) -> tuple[SchemeConfig, Sequence[DemandVector] | None]:
    kind = SchemeKind(args.scheme)
    seed = _resolve_seed(args)
    if args.preset:
        _refuse(args, f"--preset {args.preset}", "C", "r", "t", "N", "F")
        worked = WORKED_CONFIGURATIONS[args.preset]
        cfg = replace(worked.config(kind, seed), broadcast=args.broadcast)
        return cfg, worked.demands()
    _require(args, "C", "r", "t", "N")
    return replace(_explicit_config(args, kind, args.N),
                   broadcast=args.broadcast), None


def _demand_battery(cfg: SchemeConfig, source: str,
                    preset_demands) -> Sequence[DemandVector]:
    if preset_demands is not None and source == "random":
        return preset_demands
    if source == "random":
        return random_demands(cfg.topo, cfg.num_files,
                              derive_rng(cfg.seed, "demands"))
    text = Path(source).read_text()
    return parse_demand_file(text, cfg.topo, cfg.num_files)


def _every_demand_tuple(cfg: SchemeConfig, cap: int
                        ) -> Iterator[tuple[DemandVector, ...]]:
    """Every demand tuple of the config, one per demand row as the oracles
    decode it, made one at a time, and refused before any is made."""
    space = 1 << (cfg.num_files * cfg.topo.num_users)
    if space > cap:
        raise ResourceLimitError(f"{space} demand tuples exceed the cap {cap}")
    return (demands_from_int(row, cfg) for row in range(space))


def cmd_simulate(args) -> int:
    cfg, preset_demands = _simulate_config(args)
    if args.demands == "exhaustive":
        batteries = _every_demand_tuple(cfg, DEFAULT_STATE_CAP)
        t0 = time.perf_counter()
        report = check_correctness(cfg, batteries, seeds=(cfg.seed,))
        dt = time.perf_counter() - t0
        print(f"exhaustive decode: {report.decodes - len(report.failures)}"
              f"/{report.decodes} pass over {report.batteries} demand tuples "
              f"({dt:.2f}s)")
        for f in report.failures[:10]:
            print(f"  FAIL user {f.user}: expected {f.expected}, "
                  f"decoded {f.decoded}")
        return 0 if report.ok else 1
    demands = _demand_battery(cfg, args.demands, preset_demands)
    t0 = time.perf_counter()
    result = simulate(cfg, demands=demands)
    dt = time.perf_counter() - t0
    out = _out_dir(args)
    (out / "transcript.bin").write_bytes(simulation_to_bytes(result))
    (out / "transcript.json").write_text(simulation_to_json(result))
    users = cfg.topo.users()
    passed = sum(result.decoded[g] == result.expected[g] for g in users)
    print(f"scheme {cfg.kind.value} C={cfg.topo.num_caches} "
          f"r={cfg.topo.access_degree} t={cfg.topo.replication} "
          f"N={cfg.num_files} F={cfg.file_bits} seed={cfg.seed}")
    print(f"memory {format_fraction(result.placement.memory)} files, "
          f"rate {format_fraction(result.transcript.rate)} files")
    print(f"decode {passed}/{len(users)} users pass ({dt:.2f}s)")
    if not result.ok:
        for g in users:
            if result.decoded[g] != result.expected[g]:
                print(f"  FAIL user {g}: expected "
                      f"{result.expected[g].to_bytes().hex()}, decoded "
                      f"{result.decoded[g].to_bytes().hex()}")
    print(f"wrote {out / 'transcript.bin'} and {out / 'transcript.json'}")
    return 0 if result.ok else 1


# ---- verify ----

def _record(check: str, cfg: SchemeConfig, passed: bool, detail: str,
            **fields) -> tuple[dict, str]:
    """One report.json record: the check, the scheme and its (C, r, t),
    with N and F for every check but share placement, the check's own
    fields, and its verdict; and the line verify prints for it, which ends
    in the given detail."""
    topo = cfg.topo
    doc = {"check": check, "scheme": cfg.kind.value, "C": topo.num_caches,
           "r": topo.access_degree, "t": topo.replication}
    line = (f"{'pass' if passed else 'FAIL'}: {check} {cfg.kind.value} "
            f"C={topo.num_caches} r={topo.access_degree} "
            f"t={topo.replication} {detail}")
    if check != "share-placement":
        doc.update(N=cfg.num_files, F=cfg.file_bits)
    return {**doc, **fields, "pass": passed}, line


def _zero_claim_doc(check: str, res, expected_zero: bool, detail: str,
                    **fields) -> tuple[dict, str]:
    """A security or privacy record: it passes when the oracle certifies
    exactly zero leakage where the kind claims it, and leakage elsewhere;
    the kinds without the claim serve as negative controls."""
    return _record(check, res.cfg, res.certified_zero == expected_zero,
                   detail, method=res.method, states=res.states,
                   expected_zero=expected_zero, **fields)


def _security_doc(res: SecurityCheckResult) -> tuple[dict, str]:
    return _zero_claim_doc(
        "security", res, res.cfg.kind.has_payload_keys,
        "MI=0 exactly" if res.certified_zero else f"MI={res.mi_bits:.6f} bits",
        certified_zero=res.certified_zero, mi_bits=res.mi_bits)


def _privacy_doc(res: PrivacyCheckResult) -> tuple[dict, str]:
    max_tv = format_fraction(res.max_tv)
    alone = res.cfg.topo.num_users == 1  # no other demands to hide
    return _zero_claim_doc(
        "privacy", res, res.cfg.kind.masks_demands or alone, f"max TV={max_tv}",
        max_tv=max_tv,
        per_observer={"".join(map(str, g)): format_fraction(tv)
                      for g, tv in res.per_observer.items()})


def _correctness_doc(rep: CorrectnessReport) -> tuple[dict, str]:
    failures = len(rep.failures)
    return _record("correctness", rep.cfg, rep.ok,
                   f"{rep.decodes - failures}/{rep.decodes} decodes",
                   seeds=list(rep.seeds), batteries=rep.batteries,
                   decodes=rep.decodes, failures=failures)


def _shares_doc(rep: SharePlacementReport) -> tuple[dict, str]:
    return _record("share-placement", rep.cfg, rep.ok,
                   f"{rep.keys_checked} keys", keys_checked=rep.keys_checked,
                   problems=list(rep.problems))


_TINY = tiny_sweep_topologies()
_C5 = tuple((5, r, t) for r in (2, 3, 4) for t in range(6 - r))

# Each suite's default sweep: its kinds, in record order at each (C, r, t)
# of its triples in turn, then its negative controls (kind, C, r, t),
# which pass by leaking.  Every instance is a tiny_config.
_SWEEPS = {
    "correctness": (tuple(SchemeKind), ((3, 2, 1),), ()),
    "security": ((SchemeKind.S_LFR, SchemeKind.IS_LFR, SchemeKind.SP_LFR),
                 _TINY, ((SchemeKind.LFR, 3, 2, 1),)),
    "privacy": ((SchemeKind.SP_LFR, SchemeKind.P_LFR), _TINY,
                ((SchemeKind.S_LFR, 3, 2, 1),)),
    "shares": ((SchemeKind.SP_LFR, SchemeKind.P_LFR, SchemeKind.S_LFR,
                SchemeKind.IS_LFR), _TINY + _C5, ()),
}


def _instances(args, suite: str) -> list[SchemeConfig]:
    """The suite's default sweep, or the one kind that --scheme names at
    the --C topology: sp-lfr without --scheme, but every kind for
    correctness.  --N is required except for shares, where it is 2.  The
    default sweep fixes the other topology flags, so it refuses them."""
    if args.scheme is None and args.C is None:
        _refuse(args, f"the default {suite} sweep", "r", "t", "N", "F")
        (kinds, triples, controls), seed = _SWEEPS[suite], _resolve_seed(args)
        return ([tiny_config(kind, *ctr, seed=seed) for ctr in triples
                 for kind in kinds]
                + [tiny_config(*control, seed=seed) for control in controls])
    _require(args, "C", "r", "t", *(() if suite == "shares" else ("N",)))
    kinds = ((SchemeKind(args.scheme),) if args.scheme else
             tuple(SchemeKind) if suite == "correctness" else
             (SchemeKind.SP_LFR,))
    N = args.N if args.N is not None else 2
    return [_explicit_config(args, kind, N) for kind in kinds]


def _check_correctness(args, cfg: SchemeConfig) -> CorrectnessReport:
    if args.exhaustive:
        return check_correctness(cfg, _every_demand_tuple(cfg, args.cap),
                                 (cfg.seed,))
    rng = derive_rng(cfg.seed, "demand-batteries")
    batteries = [random_demands(cfg.topo, cfg.num_files, rng)
                 for _ in range(20)]
    return check_correctness(cfg, batteries, tuple(range(5)))


def cmd_verify(args) -> int:
    if args.cap < 1:
        raise UsageError(f"cap must be at least 1, got {args.cap}")
    if args.exhaustive and args.suite not in ("correctness", "all"):
        raise UsageError(f"--exhaustive applies to correctness, not {args.suite}")
    suites = {
        "correctness": lambda cfg: _correctness_doc(
            _check_correctness(args, cfg)),
        "security": lambda cfg: _security_doc(check_security_exact(
            cfg, cap=args.cap)),
        "privacy": lambda cfg: _privacy_doc(check_privacy_exact(
            cfg, cap=args.cap)),
        "shares": lambda cfg: _shares_doc(check_share_placement_secrecy(cfg)),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    t0 = time.perf_counter()
    records = [suites[name](cfg) for name in names
               for cfg in _instances(args, name)]
    dt = time.perf_counter() - t0
    checks = [doc for doc, _ in records]
    all_pass = all(c["pass"] for c in checks)
    report = {
        "format": "maclfr-report",
        "suite": args.suite,
        "cap": args.cap,
        "checks": checks,
        "pass": all_pass,
    }
    out = _out_dir(args)
    path = out / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for _, line in records:
        print(line)
    print(f"report written to {path} ({dt:.2f}s)")
    return 0 if all_pass else 1


# The module docstring's exit codes by error class; the first match wins.
_EXIT_CODES = (((UsageError, DomainError), 4), (ResourceLimitError, 3),
               ((OSError, IntegrityError), 2), (MaclfrError, 1))


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"curve": cmd_curve, "simulate": cmd_simulate,
                   "verify": cmd_verify}[args.command]
        return handler(args)
    except (MaclfrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
