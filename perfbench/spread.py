"""Run each workload k times and print every metric's spread.

    python3 perfbench/spread.py --runs 10            # end-to-end metrics
    python3 perfbench/spread.py --runs 1             # every workload once
    python3 perfbench/spread.py --runs 2 --trace 1   # per-layer metrics

Run i of every workload uses seed first_seed + i, and the workloads take
turns, so slow drift on the host touches each of them alike.  For each
(workload, metric) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the quartile distance
as a share of the median (IQR/med) and the max-min distance as a share
of the median, plus the operations attempted and failed.  The raw results
go to perfbench/out/spread.json.  Exits 1 if any run failed an operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr}")
    sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> list[str]:
    lines = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        lines.append(f"  {name:24s} {first['unit']:6s} median {med:<14.6g} "
                     f"q1 {q1:<14.6g} q3 {q3:<14.6g} IQR/med {iqr:7.2%}  "
                     f"max-min/med {rng:7.2%}")
    attempted = [r["attempted"] for r in results]
    failed = [r["failed"] for r in results]
    lines.append(f"  operations attempted {attempted}, failed {failed}, "
                 f"correct {[r['correct'] for r in results]}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for workload in args.workloads:
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            results[workload].append(result)
            print(f"{workload} seed {args.first_seed + i}: "
                  + ", ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items()
                              if args.trace == 0), flush=True)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(results, indent=2) + "\n")
    bad = False
    for workload, runs in results.items():
        print(f"{workload} ({len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(runs) - 1}, {args.seconds} s each)")
        print("\n".join(summarize(runs)))
        bad |= any(r["failed"] or not r["correct"] for r in runs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
