"""The service workload: a seeded SubmitQuery stream against the analysis daemon.

End to end, the daemon is ``python -m repro.service serve --workers 1`` in a
subprocess and two closed-loop :class:`repro.service.ServiceClient`\\ s draw
queries from one seeded stream over the 32-core Fig. 2 scenarios (v10..30).
Half the queries repeat one of the last few issued, so they are answered
from the result cache or coalesced with the in-flight original; the rest
are new.  The traced run embeds the daemon in the benchmark process so its
layers can be traced too.
"""

from __future__ import annotations

import json
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from common import ROOT, Tally, derive_seed, peak_rss_mb, program_env
from layers import Observations, describe, install, layer_metrics, p50_ms
from measure import (
    CACHED,
    COALESCED,
    HIT,
    MISS,
    NEW,
    admission_kind,
    daemon_mismatches,
    latency_class,
    percentile,
    supports,
)
from spans import Tracer
from spec import ALIASES, SERVICE

VERTICES = (10, 30)
SAMPLES = 2
#: Of every four queries of the stream, two (at seeded positions) repeat
#: an earlier query.  A coin flip per query lets the new share of a run's
#: ~250 queries range from 0.44 to 0.61 with the seed, and the throughput
#: with it, since a new query costs several times a repeat.
REPEAT_BLOCK = (True, True, False, False)
#: New queries ask about the 32-core Fig. 2 scenarios between 0.25*m and
#: 0.5*m, where a query costs about the same.  With the 16-core scenarios
#: or lower utilizations in the mix, some new queries cost a fifth as much
#: and finish at the hits' ~44 ms delayed-ACK floor: the miss latencies turn
#: bimodal, with the median in the gap between the modes, where it moves by
#: a quarter with the seed.
PLATFORM_SIZE = 32
UTILIZATION_BAND = (0.25, 0.5)
#: Repeats pick among the most recently issued queries, so some land on a
#: query the other client still waits for and are coalesced.
REPEAT_WINDOW = 8
CLIENTS = 2
#: The daemon runs query waves on a thread pool inside one process.  With
#: two threads two waves split the GIL, each takes twice as long, and a
#: slow spell of the host stretches miss latencies two to three times as
#: much as it stretches the daemon's start; with one, waves run one after
#: another and queries that queue meanwhile join the next wave.
DAEMON_WORKERS = 1
SETUP_PROBES = 5
#: Samples per latency class needed before a run may stop: 100 leave at
#: least 10 beyond the p90.
MIN_CLASS_SAMPLES = 100
#: A run stops at this multiple of ``--seconds`` even if a class is short.
MAX_OVERRUN = 1.5
REFERENCE_SLICE = 6
TRACE_QUERIES = 160
START_TIMEOUT = 60.0


class QueryStream:
    """The seeded query sequence the clients share (same seed, same queries)."""

    def __init__(self, seed: int) -> None:
        from repro.campaign.planner import KNOWN_PROTOCOLS, scenario_to_dict
        from repro.experiments.scenarios import figure2_scenarios

        self._rng = random.Random(seed)
        low = UTILIZATION_BAND[0] * PLATFORM_SIZE - 1e-9
        high = UTILIZATION_BAND[1] * PLATFORM_SIZE + 1e-9
        self._scenarios = [
            (scenario_to_dict(scenario), [u for u in scenario.utilization_points() if low <= u <= high])
            for scenario in figure2_scenarios(VERTICES).values()
            if scenario.platform_size == PLATFORM_SIZE
        ]
        self._protocols = tuple(KNOWN_PROTOCOLS)
        self._lock = threading.Lock()
        self._block: List[bool] = []
        self.issued: list = []

    def next(self) -> Tuple[int, object]:
        """The next ``(index, SubmitQuery)`` of the stream."""
        from repro.service import SubmitQuery

        with self._lock:
            rng = self._rng
            if not self._block:
                self._block = list(REPEAT_BLOCK)
                rng.shuffle(self._block)
            if self._block.pop() and self.issued:
                query = rng.choice(self.issued[-REPEAT_WINDOW:])
            else:
                scenario, points = rng.choice(self._scenarios)
                query = SubmitQuery(
                    scenario=scenario,
                    utilization=rng.choice(points),
                    samples=SAMPLES,
                    seed=rng.randrange(1, 2**31 - 1),
                    protocols=self._protocols,
                )
            self.issued.append(query)
            return len(self.issued) - 1, query


@dataclass
class Answer:
    """One answered query, timed at the client."""

    index: int
    query: object
    cached: bool
    coalesced: bool
    submitted: float
    accepted: float
    ready: float
    payload: bytes
    exit_code: int


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def ask(client, index: int, query) -> Optional[Answer]:
    """Submit one query and wait for its result; ``None`` on an ErrorReply."""
    from repro.service import ErrorReply, JobAccepted

    submitted = time.perf_counter()
    client.send(query)
    reply = client.recv_until(JobAccepted, ErrorReply)
    accepted = time.perf_counter()
    if isinstance(reply, ErrorReply):
        return None
    ready = client.wait_result(reply.job_id)
    return Answer(
        index, query, reply.cached, reply.coalesced, submitted, accepted,
        time.perf_counter(), _canonical(ready.result), ready.exit_code,
    )


class Load:
    """Closed-loop clients drawing from one stream until told to stop."""

    def __init__(self, address: Tuple[str, int], stream: QueryStream, ask_fn: Callable = ask) -> None:
        self.address = address
        self.stream = stream
        self.ask = ask_fn
        self.answers: List[Answer] = []
        self.errors = 0
        self.crashes: List[str] = []
        self._lock = threading.Lock()

    def class_sizes(self) -> Dict[str, int]:
        with self._lock:
            hits = sum(1 for answer in self.answers if answer.cached)
            return {HIT: hits, MISS: len(self.answers) - hits}

    def run(self, keep_going: Callable[["Load"], bool]) -> float:
        """Drive ``CLIENTS`` clients while ``keep_going(self)``; returns the wall."""
        threads = [
            threading.Thread(target=self._client, args=(keep_going,), name=f"bench-client-{n}")
            for n in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
            if thread.is_alive():
                self.crashes.append(f"{thread.name} did not finish")
        return time.perf_counter() - started

    def _client(self, keep_going) -> None:
        from repro.service import ServiceClient

        try:
            with ServiceClient(*self.address, timeout=120.0) as client:
                while keep_going(self):
                    index, query = self.stream.next()
                    answer = self.ask(client, index, query)
                    with self._lock:
                        if answer is None:
                            self.errors += 1
                        else:
                            self.answers.append(answer)
        except Exception as error:  # noqa: BLE001 - reported as a failed run
            with self._lock:
                self.crashes.append(f"{type(error).__name__}: {error}")


class DaemonProcess:
    """``python -m repro.service serve`` on an ephemeral port."""

    def __init__(self, data_dir: str) -> None:
        os.makedirs(data_dir, exist_ok=True)
        self._stderr = open(os.path.join(data_dir, "daemon.stderr"), "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve", "--port", "0",
                "--workers", str(DAEMON_WORKERS), "--data-dir", data_dir,
                "--log-level", "warning",
            ],
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        """Ask the daemon to shut down, then make sure it has exited."""
        from repro.service import ServiceClient

        if self.process.poll() is None and hasattr(self, "address"):
            try:
                with ServiceClient(*self.address, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                pass
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def start_daemon(data_dir: str) -> Tuple[DaemonProcess, float]:
    """Start a daemon; returns it and the wall until its first GetStats reply."""
    from repro.service import ServiceClient

    started = time.perf_counter()
    daemon = DaemonProcess(data_dir)
    try:
        with ServiceClient(*daemon.address, timeout=30.0) as client:
            client.stats()
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def daemon_stats(address: Tuple[str, int]) -> dict:
    """The daemon's GetStats counters, timers and histograms."""
    from repro.service import ServiceClient

    with ServiceClient(*address, timeout=30.0) as client:
        return client.stats().counters


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def check_answers(load: Load, seed: int, stats: dict, tally: Tally) -> Dict[str, int]:
    """Every service-mixed output check; returns the client's admission tallies."""
    from repro.campaign.executor import build_protocols, execute_unit
    from repro.campaign.planner import WorkUnit, scenario_from_dict
    from repro.service import query_cache_key
    from repro.service.jobs import query_result_payload

    tally.add(len(load.answers) + load.errors, load.errors, "queries answered with ErrorReply")
    for crash in load.crashes:
        tally.check(False, f"client failed: {crash}")
    tally.add(
        len(load.answers),
        sum(1 for answer in load.answers if answer.exit_code != 0),
        "ResultReady with a non-zero exit code",
    )
    first: Dict[str, bytes] = {}
    kinds = {CACHED: 0, COALESCED: 0, NEW: 0}
    for answer in sorted(load.answers, key=lambda a: a.ready):
        kinds[admission_kind(answer.cached, answer.coalesced)] += 1
        key = query_cache_key(answer.query)
        if key in first:
            tally.check(answer.payload == first[key], f"answer {answer.index} differs from its first answer")
        else:
            first[key] = answer.payload
    mismatches = daemon_mismatches(kinds, stats.get("counters", {}))
    tally.check(not mismatches, f"client admission tallies differ from GetStats: {mismatches}")

    fresh = sorted({query_cache_key(a.query): a for a in load.answers if not a.cached}.items())
    for _, answer in random.Random(seed).sample(fresh, min(REFERENCE_SLICE, len(fresh))):
        query = answer.query
        unit = WorkUnit(
            scenario=scenario_from_dict(dict(query.scenario)),
            point_index=0,
            utilization=float(query.utilization),
            seed=int(query.seed),
            samples_per_point=int(query.samples),
        )
        result = execute_unit(unit, build_protocols(list(query.protocols), int(query.max_path_signatures)))
        tally.check(
            _canonical(query_result_payload(query, result)) == answer.payload,
            f"answer {answer.index} differs from a standalone execute_unit",
        )
    return kinds


def _wave_figures(stats: dict) -> Dict[str, float]:
    """Mean wave time and width from the daemon's GetStats snapshot."""
    timer = stats.get("timers", {}).get("service.wave.seconds", {})
    widths = stats.get("histograms", {}).get("service.wave.width", {})
    waves = sum(widths.values())
    width_total = 0.0
    for label, count in widths.items():
        low, _, high = label.partition("-")
        width_total += count * (float(low) + float(high or low)) / 2
    return {
        "wave_s": timer.get("total", 0.0) / timer["count"] if timer.get("count") else 0.0,
        "wave_width_mean": width_total / waves if waves else 0.0,
    }


def _keep_going(seconds: float) -> Callable[[Load], bool]:
    started = time.perf_counter()

    def keep_going(load: Load) -> bool:
        elapsed = time.perf_counter() - started
        if elapsed < seconds:
            return True
        sizes = load.class_sizes()
        short = min(sizes.values()) < MIN_CLASS_SAMPLES
        return short and elapsed < seconds * MAX_OVERRUN

    return keep_going


def _latency_lines(answers: List[Answer]) -> Tuple[Dict[str, List[float]], List[str]]:
    classes: Dict[str, List[float]] = {HIT: [], MISS: []}
    for answer in answers:
        classes[latency_class(answer.cached)].append(answer.ready - answer.submitted)
    lines = []
    for name, values in classes.items():
        p90 = (
            f"p90 {percentile(values, 0.9) * 1e3:.3f} ms"
            if supports(len(values), 0.9)
            else "p90 unsupported (<10 samples beyond it)"
        )
        p50 = (
            f"p25/p50/p75 {' / '.join(f'{percentile(values, q) * 1e3:.3f}' for q in (0.25, 0.5, 0.75))} ms"
            if values
            else "no samples"
        )
        lines.append(f"{name}: n={len(values)}, {p50}, {p90}")
    return classes, lines


# --------------------------------------------------------------------------- #
# End-to-end run
# --------------------------------------------------------------------------- #
def run_end_to_end(seed: int, seconds: float, work: str, tally: Tally) -> Tuple[Dict[str, tuple], List[str]]:
    """One untraced run against a subprocess daemon."""
    setups = []

    def probe(index: int) -> None:
        daemon, wall = start_daemon(os.path.join(work, f"daemon-{index}"))
        daemon.stop()
        setups.append(wall)

    # Probes on both sides of the load see the machine at different times.
    for index in range(SETUP_PROBES // 2):
        probe(index)
    daemon, wall = start_daemon(os.path.join(work, "daemon-load"))
    setups.append(wall)
    try:
        load = Load(daemon.address, QueryStream(derive_seed(seed, 0)))
        wall = load.run(_keep_going(seconds))
        stats = daemon_stats(daemon.address)
    finally:
        daemon.stop()
    for index in range(SETUP_PROBES // 2, SETUP_PROBES - 1):
        probe(index)
    kinds = check_answers(load, seed, stats, tally)
    classes, lines = _latency_lines(load.answers)
    for name in (HIT, MISS):
        tally.check(bool(classes[name]), f"no {name} samples")
    waves = _wave_figures(stats)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (len(load.answers) / wall, "1/s"),
        "hit_p50_ms": (percentile(classes[HIT] or [0.0], 0.5) * 1e3, "ms"),
        "miss_p50_ms": (percentile(classes[MISS] or [0.0], 0.5) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [
        f"queries: {len(load.answers)} in {wall:.3f} s with {CLIENTS} closed-loop clients; "
        f"admission {json.dumps(kinds, sort_keys=True)}",
        *lines,
        f"daemon waves: mean {waves['wave_s'] * 1e3:.3f} ms, mean width {waves['wave_width_mean']:.3f}",
    ]
    lines.extend(
        f"  {metric:<17} {value:>12.5g} {unit:<4} = {ALIASES[metric][SERVICE]}"
        for metric, (value, unit) in metrics.items()
    )
    return metrics, lines


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def _fixed_count(count: int) -> Callable[[Load], bool]:
    def keep_going(load: Load) -> bool:
        return len(load.stream.issued) < count

    return keep_going


def _embedded_load(data_dir: str, seed: int, ask_fn: Callable) -> Tuple[Load, float, dict]:
    from repro.service import ServiceDaemon

    daemon = ServiceDaemon(data_dir=data_dir, port=0, workers=DAEMON_WORKERS).start()
    try:
        load = Load(daemon.address, QueryStream(derive_seed(seed, 0)), ask_fn)
        wall = load.run(_fixed_count(TRACE_QUERIES))
        stats = daemon_stats(daemon.address)
    finally:
        daemon.stop()
    return load, wall, stats


def run_traced(seed: int, work: str, tally: Tally, trace_path: str) -> Tuple[Dict[str, float], List[str]]:
    """A fixed query count against an in-process daemon: untraced, traced, untraced."""
    def untraced(directory: str) -> float:
        plain, wall, _ = _embedded_load(os.path.join(work, directory), seed, ask)
        tally.add(len(plain.answers) + plain.errors, plain.errors + len(plain.crashes), "untraced queries failed")
        return wall

    before = untraced("untraced")

    tracer = Tracer()
    seen = Observations()
    install(tracer, seen)
    traced_ask = tracer.wrap("service.request", ask, request=lambda client, index, query: f"q{index}")
    try:
        load, traced_wall, stats = _embedded_load(os.path.join(work, "traced"), seed, traced_ask)
    finally:
        tracer.restore()
    tracer.write(trace_path)
    # Untraced runs on both sides of the traced one cancel a steady drift
    # of machine speed out of the overhead.
    untraced_wall = (before + untraced("untraced-after")) / 2
    kinds = check_answers(load, seed, stats, tally)

    hits = [a for a in load.answers if a.cached]
    new = [a for a in load.answers if not a.cached and not a.coalesced]
    waves = _wave_figures(stats)
    counters = stats.get("counters", {})
    admitted = sum(kinds.values())
    queue_wait = statistics.mean(a.ready - a.accepted for a in new) - waves["wave_s"] if new else 0.0
    extra = {
        "service.accept_ms_p50": p50_ms(a.accepted - a.submitted for a in hits),
        "service.result_wait_ms_p50": p50_ms(a.ready - a.accepted for a in hits),
        "service.queue_wait_s": max(queue_wait, 0.0),
        "service.wave_s": waves["wave_s"],
        "service.wave_width_mean": waves["wave_width_mean"],
        "service.cache_hit_share": counters.get("service.cache.hits", 0) / admitted if admitted else 0.0,
        "service.coalesce_hits": counters.get("service.coalesce.hits", 0),
    }
    metrics = layer_metrics(tracer.spans, seen, {}, traced_wall, untraced_wall, extra=extra)
    lines = [
        f"traced queries: {TRACE_QUERIES} against an in-process daemon; untraced {untraced_wall:.3f} s, "
        f"traced {traced_wall:.3f} s, {len(tracer.spans)} spans -> {trace_path}",
        "service.accept_ms_p50 / result_wait_ms_p50 are over cache hits; queue_wait_s is the mean "
        "new-query result wait minus the mean wave time (GetStats has no queue-wait timer)",
        "per-layer (self_s.* is self time; busy_s is inclusive):",
        *describe(metrics),
    ]
    return metrics, lines
