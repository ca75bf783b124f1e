#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload's traced run and prints the per-layer metrics.  Readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
workloads, metrics and their meanings are defined in ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import OUTPUT, MissingProgram, Tally, format_line_counts, require_program, src_line_counts
from spec import END_TO_END, PER_LAYER, SERVICE, workload_names


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, work: str, tally: Tally):
    """Dispatch to the workload; returns ``(metrics, readable lines)``."""
    import campaign_load
    import service_load

    trace_path = os.path.join(OUTPUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    if args.workload == SERVICE:
        if args.trace:
            return service_load.run_traced(args.seed, work, tally, trace_path)
        return service_load.run_end_to_end(args.seed, args.seconds, work, tally)
    if args.trace:
        return campaign_load.run_traced(args.workload, args.seed, work, tally, trace_path)
    return campaign_load.run_end_to_end(args.workload, args.seed, args.seconds, work, tally)


def result_line(metrics: dict, tally: Tally, trace: bool) -> dict:
    """The final JSON object, with exactly the metrics the mode promises."""
    if trace:
        units = {layer.name: layer.unit for layer in PER_LAYER}
        values = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            metric.name: {"value": metrics[metric.name][0], "unit": metric.unit}
            for metric in END_TO_END
        }
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": values,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except MissingProgram as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    os.makedirs(OUTPUT, exist_ok=True)
    work = os.path.join(OUTPUT, f"work-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    try:
        metrics, lines = run(args, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for line in format_line_counts(src_line_counts()):
        print(line)
    ratio = tally.failed / max(tally.attempted, 1)
    print(f"failed_ratio: {ratio:.6f} ({tally.failed} of {tally.attempted} operations and checks)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps(result_line(metrics, tally, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
