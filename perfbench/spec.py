"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

This module is the single source of ``BENCHMARK.json``.  Regenerate it with::

    python3 perfbench/spec.py

``BENCHMARK.json`` has a fixed set of keys, so two facts live here alone:
the workload-specific quantity each gated metric stands for on each
workload (:data:`ALIASES`), and which end-to-end metric, on which workload,
each per-layer metric is expected to move (:class:`Layer.moves` /
:class:`Layer.on`).  ``run.py`` prints them next to the numbers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

RUN_SECONDS = 24

PROTOCOLS = ("DPCP-p-EP", "DPCP-p-EN", "SPIN", "LPP", "FED-FP")


@dataclass(frozen=True)
class Workload:
    """One named input set; ``why`` is the one-line BENCHMARK.json record."""

    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    """One gated end-to-end metric (measured with tracing off)."""

    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Layer:
    """One per-layer metric of the traced run.

    ``moves`` names the end-to-end metric a change to this layer should
    move and ``on`` the workloads where it should show.
    """

    name: str
    unit: str
    better: str
    moves: str
    on: Tuple[str, ...]


FIG2_PAPER = "fig2-paper"
FIG2_LIGHT = "fig2-light"
SIMULATE = "simulate-fig2"
SERVICE = "service-mixed"
FIG2 = (FIG2_PAPER, FIG2_LIGHT)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        FIG2_PAPER,
        "Paper DAG sizes v10..100 and step 0.05 on the 16-core Fig. 2 scenarios:"
        " DPCP-p-EP ~87% of compute, so EP/path/solver/Alg-1 work shows. --seed"
        " feeds --seed; 1 CLI caller, --workers 2",
    ),
    Workload(
        FIG2_LIGHT,
        "Short v10..30 units: generation ~43%, analysis ~56%; shows generation,"
        " pool and store overheads; contrast to fig2-paper. --seed feeds "
        "--seed; 1 CLI caller, --workers 2",
    ),
    Workload(
        SIMULATE,
        "Only workload through repro.sim (~86% of compute); bypass case for "
        "analysis/generation changes. --seed feeds --seed; 1 CLI caller, "
        "--workers 2, fixed --sim-max-events",
    ),
    Workload(
        SERVICE,
        "Only workload through repro.service: half repeat queries (cache "
        "hits/coalesced), rest new 32-core ones at 0.25-0.5m. --seed draws "
        "the SubmitQuery stream; 2 closed-loop clients, serve --workers 1",
    ),
)

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("hit_p50_ms", "ms", "lower", 0.25),
    Metric("miss_p50_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)

#: The workload-specific quantity each gated metric measures.  Every
#: gated metric exists on every workload, so the generic names stand for
#: the workload's own user-visible quantity.
ALIASES: Dict[str, Dict[str, str]] = {
    "throughput_per_s": {
        FIG2_PAPER: "tasksets_per_s",
        FIG2_LIGHT: "tasksets_per_s",
        SIMULATE: "sim_runs_per_s",
        SERVICE: "queries_per_s",
    },
    "hit_p50_ms": {
        FIG2_PAPER: "cached report wall (aggregation-cache hit)",
        FIG2_LIGHT: "cached report wall (aggregation-cache hit)",
        SIMULATE: "cached report wall (aggregation-cache hit)",
        SERVICE: "hit_p50_ms (JobAccepted.cached)",
    },
    "miss_p50_ms": {
        FIG2_PAPER: "report_s x 1000 (cold report: cache miss or --no-cache)",
        FIG2_LIGHT: "report_s x 1000 (cold report: cache miss or --no-cache)",
        SIMULATE: "report_s x 1000 (cold report: cache miss or --no-cache)",
        SERVICE: "miss_p50_ms (not JobAccepted.cached)",
    },
    "setup_s": {
        FIG2_PAPER: "CLI start, imports, planning (run --max-units 0)",
        FIG2_LIGHT: "CLI start, imports, planning (run --max-units 0)",
        SIMULATE: "CLI start, imports, planning (run --max-units 0)",
        SERVICE: "daemon start until its first GetStats reply",
    },
    "peak_rss_mb": {
        name: "largest RUSAGE_CHILDREN maxrss of the program's processes"
        for name in (FIG2_PAPER, FIG2_LIGHT, SIMULATE, SERVICE)
    },
}

_TPS = "throughput_per_s"
_REPORT = "miss_p50_ms"

#: Span names of the traced run; each gets a ``self_s.<layer>`` metric.
SPAN_LAYERS: Tuple[str, ...] = (
    "campaign.unit",
    "generation",
    "analysis.compile",
    "analysis.paths",
    "analysis.partition",
) + tuple(f"analysis.protocol.{name}" for name in PROTOCOLS) + (
    "campaign.store.append",
    "report.aggregate",
    "report.render",
    "sim.validate",
    "service.wave",
    "service.request",
    "service.encode",
    "service.decode",
)

PER_LAYER: Tuple[Layer, ...] = (
    Layer("generation.busy_s", "s", "lower", _TPS, (FIG2_LIGHT,)),
    Layer("generation.calls", "count", "lower", _TPS, (FIG2_LIGHT,)),
    Layer("generation.failures", "count", "lower", _TPS, (FIG2_LIGHT,)),
    Layer("analysis.compile.busy_s", "s", "lower", _TPS, (FIG2_LIGHT,)),
    Layer("analysis.compile.hit_ratio", "ratio", "higher", _TPS, (FIG2_LIGHT,)),
    Layer("analysis.paths.busy_s", "s", "lower", _TPS, (FIG2_PAPER,)),
    Layer("analysis.paths.cache_hit_ratio", "ratio", "higher", _TPS, (FIG2_PAPER,)),
    Layer("analysis.partition.wfd_passes", "count", "lower", _TPS, FIG2),
    Layer("analysis.partition.passes_per_test", "ratio", "lower", _TPS, FIG2),
    Layer("analysis.protocol.DPCP-p-EP.busy_s", "s", "lower", _TPS, (FIG2_PAPER,)),
) + tuple(
    Layer(f"analysis.protocol.{name}.busy_s", "s", "lower", _TPS, (FIG2_LIGHT,))
    for name in PROTOCOLS[1:]
) + (
    Layer("analysis.solver.scalar_calls", "count", "lower", _TPS, (FIG2_PAPER,)),
    Layer("analysis.solver.scalar_iterations", "count", "lower", _TPS, (FIG2_PAPER,)),
    Layer("analysis.solver.batched_entries", "count", "lower", _TPS, (FIG2_PAPER,)),
    Layer("campaign.executor.busy_share", "ratio", "higher", _TPS, (FIG2_LIGHT,)),
    Layer("campaign.executor.retries", "count", "lower", _TPS, (FIG2_LIGHT,)),
    Layer("campaign.store.append_busy_s", "s", "lower", _REPORT, FIG2),
    Layer("report.aggregate_busy_s", "s", "lower", _REPORT, FIG2),
    Layer("report.render_busy_s", "s", "lower", _REPORT, FIG2),
    Layer("report.units_folded", "count", "lower", _REPORT, FIG2),
    Layer("sim.validate.busy_s", "s", "lower", _TPS, (SIMULATE,)),
    Layer("sim.events", "count", "lower", _TPS, (SIMULATE,)),
    Layer("sim.events_per_s", "1/s", "higher", _TPS, (SIMULATE,)),
    Layer("sim.truncated_share", "ratio", "lower", _TPS, (SIMULATE,)),
    Layer("service.accept_ms_p50", "ms", "lower", "hit_p50_ms", (SERVICE,)),
    Layer("service.result_wait_ms_p50", "ms", "lower", "hit_p50_ms", (SERVICE,)),
    Layer("service.messages.encode_us", "us", "lower", "hit_p50_ms", (SERVICE,)),
    Layer("service.messages.decode_us", "us", "lower", "hit_p50_ms", (SERVICE,)),
    Layer("service.queue_wait_s", "s", "lower", "miss_p50_ms", (SERVICE,)),
    Layer("service.wave_s", "s", "lower", "miss_p50_ms", (SERVICE,)),
    Layer("service.wave_width_mean", "count", "higher", "miss_p50_ms", (SERVICE,)),
    Layer("service.cache_hit_share", "ratio", "higher", _TPS, (SERVICE,)),
    Layer("service.coalesce_hits", "count", "higher", _TPS, (SERVICE,)),
    Layer("trace.overhead_s", "s", "lower", _TPS, (FIG2_PAPER, FIG2_LIGHT, SIMULATE, SERVICE)),
    Layer("trace.overhead_share", "ratio", "lower", _TPS, (FIG2_PAPER, FIG2_LIGHT, SIMULATE, SERVICE)),
    Layer("trace.spans", "count", "lower", _TPS, (FIG2_PAPER, FIG2_LIGHT, SIMULATE, SERVICE)),
) + tuple(
    Layer(f"self_s.{layer}", "s", "lower", moves, on)
    for layer, moves, on in (
        ("campaign.unit", _TPS, FIG2),
        ("generation", _TPS, (FIG2_LIGHT,)),
        ("analysis.compile", _TPS, (FIG2_LIGHT,)),
        ("analysis.paths", _TPS, (FIG2_PAPER,)),
        ("analysis.partition", _TPS, FIG2),
        ("analysis.protocol.DPCP-p-EP", _TPS, (FIG2_PAPER,)),
        ("analysis.protocol.DPCP-p-EN", _TPS, (FIG2_LIGHT,)),
        ("analysis.protocol.SPIN", _TPS, (FIG2_LIGHT,)),
        ("analysis.protocol.LPP", _TPS, (FIG2_LIGHT,)),
        ("analysis.protocol.FED-FP", _TPS, (FIG2_LIGHT,)),
        ("campaign.store.append", _REPORT, FIG2),
        ("report.aggregate", _REPORT, FIG2),
        ("report.render", _REPORT, FIG2),
        ("sim.validate", _TPS, (SIMULATE,)),
        ("service.wave", "miss_p50_ms", (SERVICE,)),
        ("service.request", "hit_p50_ms", (SERVICE,)),
        ("service.encode", "hit_p50_ms", (SERVICE,)),
        ("service.decode", "hit_p50_ms", (SERVICE,)),
    )
)


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` document, in its fixed key order."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


def render_document() -> str:
    """Canonical text of ``BENCHMARK.json``."""
    return json.dumps(benchmark_document(), indent=2) + "\n"


def workload_names() -> List[str]:
    """Workload names in declaration order."""
    return [w.name for w in WORKLOADS]


if __name__ == "__main__":
    target = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(target, "w") as handle:
        handle.write(render_document())
    print(f"wrote {target}")
