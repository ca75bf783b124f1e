"""Where the traced run puts its spans, and how spans become per-layer metrics.

Every wrapper is installed at the attribute the program's callers look up
at call time (a module global, or a method on its class), so the program
runs unchanged apart from the span bookkeeping.  Layers a workload never
calls record no spans and report 0: that workload bypasses them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from measure import percentile
from spans import Span, Tracer, busy_times, call_counts, self_times
from spec import PER_LAYER, PROTOCOLS, SPAN_LAYERS


class Observations:
    """Values the wrappers see in return values (not just their timing)."""

    def __init__(self) -> None:
        self.units_folded = 0
        self.validations = 0
        self.truncated = 0
        self.events = 0

    def aggregated(self, aggregate, *args, **kwargs) -> None:
        """``aggregate_store`` returned: count the units it folded."""
        self.units_folded += aggregate.cache_stats.units_folded

    def validated(self, outcome, *args, **kwargs) -> None:
        """``validate_partition`` returned: count its events and truncation."""
        from repro.sim.validation import STATUS_TRUNCATED

        self.validations += 1
        self.events += outcome.events
        if outcome.status == STATUS_TRUNCATED:
            self.truncated += 1


def install(tracer: Tracer, seen: Observations) -> None:
    """Wrap every traced layer boundary of the program."""
    import repro.analysis.dpcp_p.kernel as kernel
    import repro.analysis.dpcp_p.partition as partition
    import repro.analysis.engine.arena as arena
    import repro.analysis.lpp as lpp
    import repro.analysis.spin as spin
    import repro.campaign.executor as executor
    import repro.report.aggregate as aggregate
    import repro.report.bundle as bundle
    import repro.service.client as client
    import repro.service.daemon as daemon
    import repro.service.jobs as jobs
    from repro.analysis.dpcp_p.protocol import DpcpPTest
    from repro.analysis.fedfp import FedFpTest
    from repro.analysis.paths import PathEnumerator
    from repro.campaign.store import CampaignStore
    from repro.service.messages import Message

    def unit_request(unit, *args, **kwargs) -> str:
        return unit.unit_id

    def protocol_layer(test, *args, **kwargs) -> str:
        return f"analysis.protocol.{test.name}"

    tracer.patch(executor, "execute_unit", "campaign.unit", request=unit_request)
    tracer.patch(executor, "execute_simulation_unit", "campaign.unit", request=unit_request)
    tracer.patch(executor, "generate_taskset", "generation")
    tracer.patch(jobs, "generate_taskset", "generation")
    for module in (executor, jobs, spin, lpp, kernel, arena):
        tracer.patch(module, "compile_taskset", "analysis.compile")
    tracer.patch(PathEnumerator, "enumerate", "analysis.paths")
    tracer.patch(partition, "wfd_assign_resources", "analysis.partition")
    for cls in (DpcpPTest, spin.SpinTest, lpp.LppTest, FedFpTest):
        tracer.patch(cls, "test", protocol_layer)
    tracer.patch(CampaignStore, "append", "campaign.store.append")
    tracer.patch(aggregate, "aggregate_store", "report.aggregate", observe=seen.aggregated)
    tracer.patch(bundle, "write_report_bundle", "report.render")
    tracer.patch(executor, "validate_partition", "sim.validate", observe=seen.validated)
    tracer.patch(jobs, "evaluate_query_wave", "service.wave")
    tracer.patch(Message, "encode", "service.encode")
    tracer.patch(client, "decode_frame", "service.decode")
    tracer.patch(daemon, "decode_frame", "service.decode")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(busy: Dict[str, float], counts: Dict[str, int], name: str) -> float:
    return _ratio(busy.get(name, 0.0), counts.get(name, 0)) * 1e6


def layer_metrics(
    spans: List[Span],
    seen: Observations,
    counters: Dict[str, float],
    traced_wall: float,
    untraced_wall: float,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of :data:`spec.PER_LAYER` from one traced run.

    ``counters`` are the program's own telemetry counters (``campaign
    profile --json``); ``extra`` supplies the metrics that come from outside
    the spans (pool busy share, retries, service client timings, GetStats).
    """
    busy = busy_times(spans)
    counts = call_counts(spans)
    own = self_times(spans)
    failures = sum(1 for span in spans if span.name == "generation" and span.failed)
    dpcp_tests = counts.get("analysis.protocol.DPCP-p-EP", 0) + counts.get(
        "analysis.protocol.DPCP-p-EN", 0
    )
    compile_hits = counters.get("tables.compile.hits", 0)
    compile_misses = counters.get("tables.compile.misses", 0)
    path_hits = counters.get("enumeration.cache.hits", 0)
    path_misses = counters.get("enumeration.cache.misses", 0)
    validate_busy = busy.get("sim.validate", 0.0)
    metrics: Dict[str, float] = {
        "generation.busy_s": busy.get("generation", 0.0),
        "generation.calls": counts.get("generation", 0),
        "generation.failures": failures,
        "analysis.compile.busy_s": busy.get("analysis.compile", 0.0),
        "analysis.compile.hit_ratio": _ratio(compile_hits, compile_hits + compile_misses),
        "analysis.paths.busy_s": busy.get("analysis.paths", 0.0),
        "analysis.paths.cache_hit_ratio": _ratio(path_hits, path_hits + path_misses),
        "analysis.partition.wfd_passes": counts.get("analysis.partition", 0),
        "analysis.partition.passes_per_test": _ratio(
            counts.get("analysis.partition", 0), dpcp_tests
        ),
        "analysis.solver.scalar_calls": counters.get("solver.scalar.calls", 0),
        "analysis.solver.scalar_iterations": counters.get("solver.scalar.iterations", 0),
        "analysis.solver.batched_entries": counters.get("solver.batched.entries", 0),
        "campaign.executor.busy_share": 0.0,
        "campaign.executor.retries": 0,
        "campaign.store.append_busy_s": busy.get("campaign.store.append", 0.0),
        "report.aggregate_busy_s": busy.get("report.aggregate", 0.0),
        "report.render_busy_s": busy.get("report.render", 0.0),
        "report.units_folded": seen.units_folded,
        "sim.validate.busy_s": validate_busy,
        "sim.events": seen.events,
        "sim.events_per_s": _ratio(seen.events, validate_busy),
        "sim.truncated_share": _ratio(seen.truncated, seen.validations),
        "service.accept_ms_p50": 0.0,
        "service.result_wait_ms_p50": 0.0,
        "service.messages.encode_us": _mean_us(busy, counts, "service.encode"),
        "service.messages.decode_us": _mean_us(busy, counts, "service.decode"),
        "service.queue_wait_s": 0.0,
        "service.wave_s": 0.0,
        "service.wave_width_mean": 0.0,
        "service.cache_hit_share": 0.0,
        "service.coalesce_hits": 0,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": _ratio(traced_wall - untraced_wall, untraced_wall),
        "trace.spans": len(spans),
    }
    for name in PROTOCOLS:
        metrics[f"analysis.protocol.{name}.busy_s"] = busy.get(f"analysis.protocol.{name}", 0.0)
    for layer in SPAN_LAYERS:
        metrics[f"self_s.{layer}"] = own.get(layer, 0.0)
    metrics.update(extra or {})
    unknown = set(metrics) - {layer.name for layer in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics outside the per-layer spec: {sorted(unknown)}")
    return metrics


def p50_ms(seconds: Iterable[float]) -> float:
    """Median of durations in seconds, in milliseconds (0 without samples)."""
    values = list(seconds)
    return percentile(values, 0.5) * 1e3 if values else 0.0


def describe(metrics: Dict[str, float]) -> List[str]:
    """Readable per-layer lines: value, unit, and what the layer should move."""
    lines = []
    for layer in PER_LAYER:
        lines.append(
            f"  {layer.name:<44} {metrics[layer.name]:>14.6g} {layer.unit:<6} "
            f"-> {layer.moves} on {', '.join(layer.on)}"
        )
    return lines
