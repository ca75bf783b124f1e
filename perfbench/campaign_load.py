"""The campaign workloads: fig2-paper, fig2-light and simulate-fig2.

End to end, each run drives the real CLI in subprocesses: ``campaign run
--workers 2`` back to back (one campaign seed per run, derived from the
benchmark seed) for the measured seconds, each followed by cold and
cached ``campaign report`` runs on its store.  The
traced run executes one of those campaigns in-process with ``--workers 1``
through :func:`repro.campaign.cli.main`, once untraced and once traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from common import Tally, derive_seed, peak_rss_mb, run_program
from layers import Observations, describe, install, layer_metrics
from spans import Tracer
from spec import ALIASES, FIG2_LIGHT, FIG2_PAPER, SIMULATE

#: Fewest setup probes per run (one runs before each campaign).
SETUP_PROBES = 5
#: Worker processes of every measured campaign: one per processor.
WORKERS = 2
#: Wall-clock budget of the reference-engine re-derivation per run.  The
#: reference engines take from milliseconds to tens of seconds per unit,
#: so units are tried in seeded order under a per-unit cap.
REFERENCE_BUDGET_S = 2.5
REFERENCE_UNIT_CAP_S = 1.5


@dataclass(frozen=True)
class CampaignShape:
    """Selection and configuration flags of one workload's campaigns."""

    args: Tuple[str, ...]
    simulate: bool = False


SHAPES: Dict[str, CampaignShape] = {
    # The paper's DAG sizes and utilization step on the 16-core Fig. 2
    # scenarios.  A 32-core task set at low utilization can take seconds
    # alone, so with them a run holds ~100 task sets and its rate swings by
    # a quarter with the seed; the 16-core half gives 4x the task sets.
    FIG2_PAPER: CampaignShape(
        ("--grid", "fig2", "--filter", "m=16", "--vertices", "10,100",
         "--samples", "2", "--step", "0.05")
    ),
    FIG2_LIGHT: CampaignShape(
        ("--grid", "fig2", "--vertices", "10,30", "--samples", "4", "--step", "0.1")
    ),
    # Accepted task sets up to 0.5*m on the 16-core Fig. 2 scenarios.  With
    # eight hyperperiods a seed's simulations average 1,500-2,000 events
    # under the 2,000-event budget, so each is about the same quantum of
    # simulator work and runs/s hardly depends on how many short ones a
    # seed draws (at one hyperperiod the 0.125*m ones end after ~300
    # events; at sixteen the released jobs move peak RSS by +-7%).  The
    # eight-point sweep spreads the simulations over six units, so two
    # workers share them evenly and both processors stay busy, as in the
    # other campaign workloads.
    SIMULATE: CampaignShape(
        (
            "--mode", "simulate", "--grid", "fig2", "--filter", "m=16",
            "--vertices", "10,30", "--samples", "8", "--step", "0.125",
            "--sim-hyperperiods", "8", "--sim-max-events", "2000",
        ),
        simulate=True,
    ),
}


def _run_argv(shape: CampaignShape, store: str, seed: int, workers: int) -> List[str]:
    return [
        "--log-level", "warning", "run", "--store", store, *shape.args,
        "--seed", str(seed), "--workers", str(workers), "--quiet",
    ]


# --------------------------------------------------------------------------- #
# Reading stores and checking outputs
# --------------------------------------------------------------------------- #
@dataclass
class StoreReading:
    """What one finished campaign store holds."""

    path: str
    plan: object
    records: Dict[str, dict]
    missing: int

    def tasksets(self) -> int:
        return sum(record["evaluated"] for record in self.records.values())

    def accepted(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record in self.records.values():
            for name, count in record["accepted"].items():
                totals[name] = totals.get(name, 0) + count
        return totals


def read_store(path: str) -> StoreReading:
    """Plan, checkpointed records and unfinished-unit count of a store."""
    from repro.campaign.planner import plan_from_manifest
    from repro.campaign.store import CampaignStore

    store = CampaignStore(path)
    plan = plan_from_manifest(store.read_manifest())
    records = store.load_records()
    missing = sum(1 for unit in plan.units if unit.unit_id not in records)
    return StoreReading(path, plan, records, missing)


def validation_totals(reading: StoreReading) -> Dict[str, int]:
    """Simulation counts and soundness failures summed over a simulate store."""
    from repro.experiments.metrics import ValidationRollup

    totals = {"simulated": 0, "truncated": 0, "events": 0, "violations": 0, "rule_failures": 0}
    for record in reading.records.values():
        for data in record["simulation"].values():
            rollup = ValidationRollup.from_dict(data)
            totals["simulated"] += rollup.simulated
            totals["truncated"] += rollup.truncated
            totals["events"] += rollup.events
            totals["violations"] += rollup.violations
            totals["rule_failures"] += rollup.rule_failures
    return totals


def check_outputs(readings: Sequence[StoreReading], simulate: bool, tally: Tally) -> Dict[str, int]:
    """Store-level output checks; returns the totals they were made on."""
    for reading in readings:
        tally.add(len(reading.plan.units), reading.missing, f"unfinished units in {reading.path}")
    if simulate:
        totals = {"simulated": 0, "truncated": 0, "events": 0, "violations": 0, "rule_failures": 0}
        for reading in readings:
            store_totals = validation_totals(reading)
            tally.check(
                store_totals["violations"] == 0 and store_totals["rule_failures"] == 0,
                f"soundness/invariant/bound violations in {reading.path}: {store_totals}",
            )
            for key, value in store_totals.items():
                totals[key] += value
        return totals
    totals: Dict[str, int] = {}
    for reading in readings:
        for name, count in reading.accepted().items():
            totals[name] = totals.get(name, 0) + count
    tally.check(
        totals["FED-FP"] >= totals["DPCP-p-EP"] >= totals["DPCP-p-EN"],
        f"acceptance ordering FED-FP >= DPCP-p-EP >= DPCP-p-EN violated: {totals}",
    )
    return totals


class _OverBudget(Exception):
    """A reference re-derivation ran past its time cap."""


@contextlib.contextmanager
def _time_cap(seconds: float):
    def expire(signum, frame):
        raise _OverBudget()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_tests(protocol_names: Sequence[str], max_path_signatures: int) -> list:
    """The campaign's protocols on the straight-line reference engines."""
    from repro.analysis import ENGINE_REFERENCE
    from repro.analysis.dpcp_p import DpcpPEnTest, DpcpPEpTest
    from repro.analysis.fedfp import FedFpTest
    from repro.analysis.lpp import LppTest
    from repro.analysis.spin import SpinTest

    factories = {
        "DPCP-p-EP": lambda: DpcpPEpTest(
            max_path_signatures=max_path_signatures, engine=ENGINE_REFERENCE
        ),
        "DPCP-p-EN": lambda: DpcpPEnTest(engine=ENGINE_REFERENCE),
        "SPIN": lambda: SpinTest(engine=ENGINE_REFERENCE),
        "LPP": lambda: LppTest(engine=ENGINE_REFERENCE),
        "FED-FP": FedFpTest,
    }
    return [factories[name]() for name in protocol_names]


def check_reference_slice(readings: Sequence[StoreReading], seed: int, tally: Tally) -> Tuple[int, int]:
    """Re-derive a seeded slice of units on the reference engines.

    Returns ``(checked, skipped)``; a unit whose reference run exceeds the
    per-unit cap is skipped, never counted as a failure.
    """
    from repro.campaign.executor import execute_unit

    candidates = [(reading, unit) for reading in readings for unit in reading.plan.units]
    random.Random(seed).shuffle(candidates)
    checked = skipped = 0
    started = time.perf_counter()
    for reading, unit in candidates:
        remaining = REFERENCE_BUDGET_S - (time.perf_counter() - started)
        if remaining <= 0:
            break
        record = reading.records.get(unit.unit_id)
        if record is None:
            continue
        tests = reference_tests(reading.plan.protocol_names, reading.plan.config.max_path_signatures)
        try:
            with _time_cap(min(REFERENCE_UNIT_CAP_S, remaining)):
                result = execute_unit(unit, tests)
        except _OverBudget:
            skipped += 1
            continue
        checked += 1
        tally.check(
            result.accepted == record["accepted"]
            and result.evaluated == record["evaluated"]
            and result.generation_failures == record["generation_failures"],
            f"reference engines disagree on {unit.unit_id}: {result.accepted} vs {record['accepted']}",
        )
    return checked, skipped


def busy_share(store: str) -> Tuple[float, int]:
    """Σ unit compute ÷ (wall × workers) and unit retries, from ``events.jsonl``."""
    from repro.obs.sink import events_path, iter_event_records

    compute = wall = 0.0
    workers = 1
    retries = 0
    for record, _ in iter_event_records(events_path(store)):
        kind = record.get("type")
        if kind == "unit_finished":
            compute += record["elapsed_seconds"]
        elif kind == "campaign_started":
            workers = record["workers"]
        elif kind == "campaign_finished":
            wall += record["elapsed_seconds"]
        elif kind == "unit_retried":
            retries += 1
    return (compute / (wall * workers) if wall else 0.0), retries


# --------------------------------------------------------------------------- #
# End-to-end run
# --------------------------------------------------------------------------- #
def setup_probe(shape: CampaignShape, seed: int, index: int, work: str, tally: Tally) -> float:
    """Wall of CLI start, imports and planning (``run --max-units 0``)."""
    store = os.path.join(work, f"setup-{index}")
    argv = _run_argv(shape, store, derive_seed(seed, 10_000 + index), WORKERS)
    probe = run_program("repro.campaign", argv + ["--max-units", "0"])
    tally.check(
        probe.returncode == 3 and probe.stdout.startswith("0/"),
        f"setup probe exited {probe.returncode}: {probe.stderr[-300:]}",
    )
    return probe.wall


@dataclass
class Iteration:
    """One campaign of the measured loop and the reports timed on its store."""

    store: str
    campaign_wall: float
    cold_report_walls: List[float]
    cached_report_walls: List[float]


def _read_report(directory: str) -> bytes:
    with open(os.path.join(directory, "REPORT.md"), "rb") as handle:
        return handle.read()


def time_reports(store: str, work: str, tally: Tally) -> Tuple[List[float], List[float]]:
    """Walls of two cold and two cached ``campaign report`` runs on a fresh store.

    The first report finds no aggregation cache and writes it; the second
    ignores it (``--no-cache``); both fold every unit.  The last two are
    served from the cache.  Every bundle must carry the same REPORT.md.
    """
    name = os.path.basename(store)
    runs = (("cold", ["--out"]), ("cold", ["--no-cache", "--out"]), ("cached", ["--out"]), ("cached", ["--out"]))
    walls: Dict[str, List[float]] = {"cold": [], "cached": []}
    reports = set()
    for index, (kind, flags) in enumerate(runs):
        out = os.path.join(work, f"{name}-report-{index}")
        report = run_program("repro.campaign", ["report", "--store", store, *flags, out])
        expected = "aggregation cache: hit" if kind == "cached" else "aggregation cache: miss"
        if tally.check(
            report.returncode == 0 and expected in report.stdout,
            f"{kind} report exited {report.returncode}: {report.stdout[-200:]} {report.stderr[-200:]}",
        ):
            reports.add(_read_report(out))
        walls[kind].append(report.wall)
    tally.check(len(reports) == 1, f"cold and cached REPORT.md differ for {store}")
    return walls["cold"], walls["cached"]


def measure_campaigns(
    shape: CampaignShape, seed: int, seconds: float, work: str, tally: Tally, setups: List[float]
) -> List[Iteration]:
    """Setup probe, campaign, cold and cached reports, repeated for about ``seconds``.

    Setup and report samples are spread over the whole run like the
    campaigns, so all of them see the same machine (whose speed drifts
    over seconds).  A new iteration starts only while more than half a
    mean iteration of the budget is left.
    """
    iterations: List[Iteration] = []
    started = time.perf_counter()
    while True:
        setups.append(setup_probe(shape, seed, len(setups), work, tally))
        store = os.path.join(work, f"run-{len(iterations)}")
        invocation = run_program(
            "repro.campaign", _run_argv(shape, store, derive_seed(seed, len(iterations)), WORKERS)
        )
        tally.check(
            invocation.returncode == 0,
            f"campaign run exited {invocation.returncode}: {invocation.stderr[-300:]}",
        )
        iterations.append(Iteration(store, invocation.wall, *time_reports(store, work, tally)))
        elapsed = time.perf_counter() - started
        if seconds - elapsed <= elapsed / len(iterations) / 2:
            return iterations


def run_end_to_end(name: str, seed: int, seconds: float, work: str, tally: Tally) -> Tuple[Dict[str, tuple], List[str]]:
    """One untraced run: every end-to-end metric plus readable lines."""
    shape = SHAPES[name]
    setups: List[float] = []
    iterations = measure_campaigns(shape, seed, seconds, work, tally, setups)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(shape, seed, len(setups), work, tally))
    campaign_wall = sum(it.campaign_wall for it in iterations)
    readings = [read_store(it.store) for it in iterations]
    totals = check_outputs(readings, shape.simulate, tally)
    tasksets = sum(reading.tasksets() for reading in readings)
    if shape.simulate:
        done = [validation_totals(reading)["simulated"] for reading in readings]
    else:
        done = [reading.tasksets() for reading in readings]
    rates = [count / it.campaign_wall for count, it in zip(done, iterations)]
    lines = [
        f"campaigns: {len(iterations)} in {campaign_wall:.3f} s, {tasksets} task sets; "
        f"per-campaign rates {', '.join(f'{rate:.3f}' for rate in rates)} /s"
    ]
    if shape.simulate:
        lines.append(
            f"simulations: {totals['simulated']} ({totals['truncated']} truncated, "
            f"{totals['events']} events), violations {totals['violations']}, "
            f"rule failures {totals['rule_failures']}"
        )
    else:
        checked, skipped = check_reference_slice(readings, seed, tally)
        lines.append(f"acceptances: {json.dumps(totals, sort_keys=True)}")
        lines.append(f"reference slice: {checked} units re-derived, {skipped} over the time cap")
    shares = [busy_share(it.store)[0] for it in iterations]
    lines.append(f"campaign.executor.busy_share (--workers {WORKERS}): {statistics.median(shares):.4f}")
    cold = statistics.median(wall for it in iterations for wall in it.cold_report_walls)
    cached = statistics.median(wall for it in iterations for wall in it.cached_report_walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # Pooled over every campaign of the run, so no single campaign's
        # input or moment of machine speed decides it.
        "throughput_per_s": (sum(done) / campaign_wall, "1/s"),
        "hit_p50_ms": (cached * 1e3, "ms"),
        "miss_p50_ms": (cold * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines.append(f"report_s (cold, median of {2 * len(iterations)}): {cold:.4f} s")
    lines.extend(alias_lines(name, metrics))
    return metrics, lines


def alias_lines(name: str, metrics: Dict[str, tuple]) -> List[str]:
    """The workload-specific meaning of each gated metric."""
    return [
        f"  {metric:<17} {value:>12.5g} {unit:<4} = {ALIASES[metric][name]}"
        for metric, (value, unit) in metrics.items()
    ]


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def _cli(argv: Sequence[str]) -> Tuple[int, str]:
    from repro.campaign.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def _unit_outcomes(reading: StoreReading) -> Dict[str, tuple]:
    return {
        unit_id: (record["accepted"], record["evaluated"], record.get("simulation"))
        for unit_id, record in reading.records.items()
    }


def run_traced(name: str, seed: int, work: str, tally: Tally, trace_path: str) -> Tuple[Dict[str, float], List[str]]:
    """One in-process ``--workers 1`` campaign: untraced, traced, untraced."""
    shape = SHAPES[name]
    campaign_seed = derive_seed(seed, 0)
    traced_store = os.path.join(work, "traced")

    def untraced(store: str) -> float:
        started = time.perf_counter()
        code, _ = _cli(_run_argv(shape, store, campaign_seed, 1))
        tally.check(code == 0, f"untraced in-process campaign exited {code}")
        return time.perf_counter() - started

    # A couple of units first, so one-time imports and table warm-up do
    # not land on the untraced baseline.
    _cli(_run_argv(shape, os.path.join(work, "warm-up"), campaign_seed, 1) + ["--max-units", "2"])
    before = untraced(os.path.join(work, "untraced"))

    tracer = Tracer()
    seen = Observations()
    install(tracer, seen)
    try:
        started = time.perf_counter()
        code, _ = _cli(_run_argv(shape, traced_store, campaign_seed, 1))
        traced_wall = time.perf_counter() - started
        tally.check(code == 0, f"traced in-process campaign exited {code}")
        report_code, _ = _cli(
            ["report", "--store", traced_store, "--no-cache", "--out", os.path.join(work, "traced-report")]
        )
        tally.check(report_code == 0, f"traced report exited {report_code}")
    finally:
        tracer.restore()
    tracer.write(trace_path)
    # Untraced runs on both sides of the traced one cancel a steady drift
    # of machine speed out of the overhead.
    untraced_wall = (before + untraced(os.path.join(work, "untraced-after"))) / 2

    code, profile_text = _cli(["profile", "--store", traced_store, "--json"])
    tally.check(code == 0, f"campaign profile exited {code}")
    counters = json.loads(profile_text)["telemetry"]["counters"] if code == 0 else {}

    pool_store = os.path.join(work, "pool")
    pool = run_program("repro.campaign", _run_argv(shape, pool_store, campaign_seed, WORKERS))
    tally.check(pool.returncode == 0, f"--workers {WORKERS} campaign exited {pool.returncode}")
    share, retries = busy_share(pool_store)

    readings = [read_store(os.path.join(work, "untraced")), read_store(traced_store), read_store(pool_store)]
    tally.check(
        _unit_outcomes(readings[0]) == _unit_outcomes(readings[1]) == _unit_outcomes(readings[2]),
        "traced, untraced and pooled campaigns recorded different results",
    )
    check_outputs(readings[1:2], shape.simulate, tally)

    metrics = layer_metrics(
        tracer.spans,
        seen,
        counters,
        traced_wall,
        untraced_wall,
        extra={"campaign.executor.busy_share": share, "campaign.executor.retries": retries},
    )
    lines = [
        f"traced campaign: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s "
        f"(overhead {traced_wall - untraced_wall:+.3f} s), {len(tracer.spans)} spans -> {trace_path}",
        "per-layer (self_s.* is self time; busy_s is inclusive):",
        *describe(metrics),
    ]
    return metrics, lines
