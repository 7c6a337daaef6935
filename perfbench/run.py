"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload engine-c10 --seed 1 --seconds 20 --trace 0

Run from the root of a maclfr checkout; maclfr is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` prints the
end-to-end metrics (pass_s, peak_rss_mb, setup_s; times in reference
seconds, see hostspeed.py); ``--trace 1`` prints the
per-layer metrics and writes them, with every span's calls and self time,
to ``perfbench/out/trace-<workload>-seed<seed>.json``.  The last line of
standard output is always the result object; problems go to standard
error.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import reference_ns, reference_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # about half before the timed rounds, the rest after
PROBE_REFERENCES = 25
PROBE_TIMEOUT_S = 60


def now_ns() -> int:
    """A clock every process on the host shares, for cross-process spans."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def load_maclfr() -> float:
    """Import maclfr from this checkout's src/; returns the import time."""
    if not (SRC / "maclfr" / "__init__.py").is_file():
        raise SystemExit(f"error: no maclfr source under {SRC}; run from the "
                         "root of a maclfr checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import maclfr
    elapsed = time.perf_counter() - start
    if Path(maclfr.__file__).resolve().parent != SRC / "maclfr":
        raise SystemExit(f"error: imported maclfr from {maclfr.__file__}, "
                         f"not from {SRC}")
    return elapsed


def parse_args(argv=None) -> tuple[argparse.ArgumentParser, argparse.Namespace]:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample, then exit
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 unsigned bits")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return parser, args


def setup_samples(args: argparse.Namespace, count: int) -> list[float]:
    """Times from spawning a fresh interpreter to its first timed
    operation: interpreter start, ``import maclfr`` and config
    construction, measured in probe processes that stop there, in
    reference seconds by the probe's reference-loop time just after."""
    samples = []
    for _ in range(count):
        start = now_ns()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        ready, reference = map(int, done.stdout.split())
        samples.append(reference_seconds(ready - start, [reference]))
    return samples


def per_layer_metrics(tally, import_s: float) -> dict[str, dict]:
    layers = {k: statistics.median(pass_[k] for pass_ in tally.layers)
              for k in tally.layers[0]}
    runs = layers["verify.engine_runs"]
    layers["verify.engine_run_us"] = (layers["verify.engine_s"] / runs * 1e6
                                      if runs else 0.0)
    layers["setup.import_s"] = import_s
    layers["trace.overhead_s"] = tally.pass_s(traced=True) - tally.pass_s()
    return {name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(layers.items())}


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    import_s = load_maclfr()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    if args.probe:
        ready = now_ns()
        references = sorted(reference_ns() for _ in range(PROBE_REFERENCES))
        print(ready, references[PROBE_REFERENCES // 2])
        return 0
    # Probes on both sides of the timed rounds sample the host at two times.
    probes = [] if args.trace else setup_samples(args, SETUP_PROBES // 2)
    tally = workloads.measure(ops, args.seconds, traced=bool(args.trace))
    if not args.trace:
        probes += setup_samples(args, SETUP_PROBES - len(probes))
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: pass {tally.pass_s(wall=True):.4f} s of wall "
          f"time, {tally.pass_s():.4f} reference seconds", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(tally, import_s)
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "traced_passes": tally.layers, "spans": tally.spans,
            "pass_s": {"untraced": tally.pass_s(),
                       "traced": tally.pass_s(traced=True),
                       "untraced_wall": tally.pass_s(wall=True),
                       "traced_wall": tally.pass_s(traced=True, wall=True)},
            "metrics": metrics}, indent=2, sort_keys=True) + "\n")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_s": {"value": tally.pass_s(), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
        }
    print(json.dumps({"correct": tally.correct,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
