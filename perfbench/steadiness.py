#!/usr/bin/env python3
"""Check that the benchmark is steady: run seeds, report spreads against bounds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload fig2-paper --seeds 1-10
    python3 perfbench/steadiness.py --workload all --seeds 1-10 --save runs.json
    python3 perfbench/steadiness.py --compare first.json second.json

Each run is ``perfbench/run.py --trace 0`` with another seed.  For every
end-to-end metric the spread is the inter-quartile distance of the runs
(``statistics.quantiles(values, n=4)``) as a share of their median; it
should stay below a third of the metric's bound (``setup_s`` is exempt).
``--compare`` checks that the second set's medians are not worse than the
first's by more than each bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from measure import quartile_spread
from spec import END_TO_END, RUN_SECONDS, workload_names

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def summarise(runs: Dict[str, List[dict]]) -> bool:
    steady = True
    for workload, results in runs.items():
        incorrect = sum(1 for result in results if not result["correct"])
        print(f"{workload}: {len(results)} runs, {incorrect} incorrect")
        steady &= incorrect == 0
        for metric in END_TO_END:
            values = [result["metrics"][metric.name]["value"] for result in results]
            spread = quartile_spread(values) if len(values) >= 2 else 0.0
            verdict = "exempt" if metric.name == "setup_s" else (
                "ok" if spread < metric.bound / 3 else
                "within bound" if spread <= metric.bound else "TOO WIDE"
            )
            if verdict == "TOO WIDE":
                steady = False
            print(
                f"  {metric.name:<17} median {statistics.median(values):>11.5g} {metric.unit:<4} "
                f"spread {spread:6.3f} (bound {metric.bound}) {verdict}"
            )
    return steady


def compare(first: Dict[str, List[dict]], second: Dict[str, List[dict]]) -> bool:
    agree = True
    for workload in first:
        for metric in END_TO_END:
            a = statistics.median(r["metrics"][metric.name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][metric.name]["value"] for r in second[workload])
            worse = (b - a) / a if metric.better == "lower" else (a - b) / a
            verdict = "ok" if worse <= metric.bound else "WORSE"
            agree &= verdict == "ok"
            print(f"{workload:<14} {metric.name:<17} {a:>11.5g} -> {b:>11.5g} worse by {worse:+.3f} {verdict}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workload_names()])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="RUNS.json")
    args = parser.parse_args(argv)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as handle:
                loaded.append(json.load(handle))
        return 0 if compare(*loaded) else 1
    workloads = workload_names() if args.workload == "all" else [args.workload]
    runs: Dict[str, List[dict]] = {}
    for workload in workloads:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds)
            runs[workload].append(result)
            values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
            print(
                f"{workload} seed {seed} ({result['wall_s']:.1f} s): correct={result['correct']} {values}",
                flush=True,
            )
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(runs, handle, indent=1)
    return 0 if summarise(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
