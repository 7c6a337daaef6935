"""Confirm that a workload does identical work on every run with one seed.

    python3 perfbench/identity.py --workload security-sweep --seed 3

Runs each traced workload (all of them if ``--workload`` is left out)
twice with the same seed and compares every count metric (GF
multiplications, BitBlock constructions and XORs, MDS codes built, engine
runs).  Counts are per traced pass, so each run is as short as one traced
pass allows.  Exits 1 if any count differs.
"""

from __future__ import annotations

import argparse
import json
import sys

from spread import ROOT, run_once


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    differ = False
    for workload in args.workload:
        first, second = (run_once(workload, args.seed, 1, 1)
                         for _ in range(2))
        for name, metric in first["metrics"].items():
            if metric["unit"] != "count":
                continue
            a, b = metric["value"], second["metrics"][name]["value"]
            verdict = "same" if a == b else "DIFFERENT"
            differ |= a != b
            print(f"{workload:15s} {name:20s} {a:>12} {b:>12}  {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
