"""Algorithm 1 with early stops versus a full-pass oracle.

``partition_and_analyze`` ends each pass at the first failing task, and the
EP bound rejects a task on its critical path before enumerating paths.  Both
shortcuts must be invisible in the verdict.  The oracle below keeps the
original loop: every pass analyses every task, the EP bound is taken over
every enumerated profile, and the first failing task is searched afterwards.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dpcp_p import (
    ENGINE_KERNEL,
    ENGINE_REFERENCE,
    MODE_EN,
    MODE_EP,
    partition_and_analyze,
    path_wcrt,
    task_wcrt_en,
)
from repro.analysis.dpcp_p.context import DpcpPContext
from repro.analysis.dpcp_p.kernel import DpcpPKernel, KernelStaticCache
from repro.analysis.dpcp_p.partition import wfd_assign_resources
from repro.analysis.interfaces import SchedulabilityResult, TaskAnalysis
from repro.analysis.paths import PathEnumerator
from repro.experiments.scenarios import figure2_scenarios
from repro.generation import GenerationError, generate_taskset
from repro.model import Platform
from repro.model.platform import PartitionedSystem, minimal_federated_clusters
from repro.obs import telemetry

#: Fig. 2 scenarios on DAGs small enough for a few hundred full passes.
KERNEL_SCENARIOS = figure2_scenarios(num_vertices_range=(10, 30))
REFERENCE_SCENARIOS = figure2_scenarios(num_vertices_range=(5, 10))

#: Total utilization as a fraction of m: from easy to mostly rejected.
UTILIZATION_FRACTIONS = (0.15, 0.25, 0.35, 0.45, 0.6)


# --------------------------------------------------------------------------- #
# Full-pass oracle (the Algorithm 1 loop without early stops)
# --------------------------------------------------------------------------- #
def oracle_task_wcrt_ep(ctx, task, enumerator, bound, engine) -> float:
    """Eq. (1) over every enumerated profile, without the critical-path check."""
    enumeration = enumerator.enumerate(task)
    if engine == ENGINE_KERNEL:
        return ctx.kernel.task_wcrt_ep(task, enumeration, bound)
    worst = 0.0
    for profile in enumeration.profiles:
        worst = max(worst, path_wcrt(ctx, task, profile, bound, engine=engine))
    if math.isinf(worst):
        return worst
    if not enumeration.exhaustive:
        worst = max(worst, task_wcrt_en(ctx, task, bound, engine=engine))
    return worst


def oracle_analyze_all(taskset, partition, mode, enumerator, engine, static_cache):
    """Analyse every task of the partition in decreasing priority order."""
    ctx = DpcpPContext(taskset, partition)
    if engine == ENGINE_KERNEL:
        ctx.attach_kernel(DpcpPKernel(taskset, partition, static_cache))
    results: Dict[int, TaskAnalysis] = {}
    for task in taskset.by_priority(descending=True):
        if mode == MODE_EP:
            wcrt = oracle_task_wcrt_ep(ctx, task, enumerator, task.deadline, engine)
        else:
            wcrt = task_wcrt_en(ctx, task, task.deadline, engine=engine)
        results[task.task_id] = TaskAnalysis(
            task_id=task.task_id,
            wcrt=wcrt,
            deadline=task.deadline,
            processors=partition.num_processors_of(task.task_id),
        )
        ctx.response_times[task.task_id] = min(wcrt, task.deadline)
    return results


def oracle_first_failing(taskset, analyses) -> Optional[int]:
    """First task, in decreasing priority order, that misses its deadline."""
    for task in taskset.by_priority(descending=True):
        analysis = analyses[task.task_id]
        if math.isinf(analysis.wcrt) or not analysis.schedulable:
            return task.task_id
    return None


def oracle_partition_and_analyze(taskset, platform, mode, engine):
    """The full-pass Algorithm 1; returns ``(verdict, wfd_passes)``."""
    name = f"DPCP-p-{mode}"
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return SchedulabilityResult(
            schedulable=False,
            protocol=name,
            reason="not enough processors for the minimal federated assignment",
        ), 0
    enumerator = PathEnumerator()
    static_cache = KernelStaticCache()
    passes = 0
    while True:
        passes += 1
        wfd = wfd_assign_resources(taskset, clusters)
        if not wfd.feasible:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                reason=f"WFD resource assignment infeasible: {wfd.reason}",
            ), passes
        partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
        analyses = oracle_analyze_all(
            taskset, partition, mode, enumerator, engine, static_cache
        )
        failing = oracle_first_failing(taskset, analyses)
        if failing is None:
            return SchedulabilityResult(
                schedulable=True,
                protocol=name,
                task_analyses=analyses,
                partition=partition,
            ), passes
        unassigned = partition.unassigned_processors()
        if not unassigned:
            return SchedulabilityResult(
                schedulable=False,
                protocol=name,
                task_analyses=analyses,
                partition=partition,
                reason=(
                    f"task {failing} misses its deadline and no spare processor "
                    "is available"
                ),
            ), passes
        clusters[failing].processors.append(unassigned[0])


# --------------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------------- #
def draw_taskset(scenario, fraction, seed):
    """One Fig. 2 task set at ``fraction * m`` total utilization, or None."""
    utilization = fraction * scenario.platform_size
    try:
        return generate_taskset(utilization, scenario.generation_config(), rng=seed)
    except GenerationError:
        return None


def partition_shape(result):
    """Clusters and resource assignment of a verdict, as plain data."""
    if result.partition is None:
        return None
    clusters = {
        tid: list(cluster.processors)
        for tid, cluster in result.partition.clusters.items()
    }
    return clusters, dict(result.partition.resource_assignment)


def compare_with_oracle(taskset, platform, mode, engine) -> Tuple[str, int]:
    """Assert the early-stop verdict equals the oracle's.

    Returns the verdict kind and the number of WFD passes it took.
    """
    with telemetry.session() as tel:
        result = partition_and_analyze(taskset, platform, mode=mode, engine=engine)
    passes = tel.counters.get("partition.wfd_passes", 0)
    expected, expected_passes = oracle_partition_and_analyze(
        taskset, platform, mode, engine
    )

    assert result.schedulable == expected.schedulable
    assert result.reason == expected.reason
    assert result.protocol == expected.protocol
    assert partition_shape(result) == partition_shape(expected)
    assert passes == expected_passes

    if result.schedulable:
        assert result.task_analyses.keys() == expected.task_analyses.keys()
        for tid, analysis in result.task_analyses.items():
            assert analysis.wcrt == expected.task_analyses[tid].wcrt, tid
        return "schedulable", passes
    if not expected.task_analyses:
        assert not result.task_analyses
        return "rejected-before-analysis", passes

    # Unschedulable after analysis: the verdict carries the priority-order
    # prefix ending at the first failing task, with the oracle's bounds.
    order = [task.task_id for task in taskset.by_priority(descending=True)]
    failing = oracle_first_failing(taskset, expected.task_analyses)
    prefix = order[: order.index(failing) + 1]
    assert list(result.task_analyses) == prefix
    for tid in prefix:
        assert result.task_analyses[tid].wcrt == expected.task_analyses[tid].wcrt
    assert not result.task_analyses[failing].schedulable
    return "unschedulable", passes


def sweep(scenarios, seeds, mode, engine):
    """Compare every drawn task set; count verdict kinds and retried verdicts."""
    kinds: Dict[str, int] = {}
    for seed in seeds:
        key = "abcd"[seed % 4]
        scenario = scenarios[key]
        fraction = UTILIZATION_FRACTIONS[(seed // 4) % len(UTILIZATION_FRACTIONS)]
        taskset = draw_taskset(scenario, fraction, seed)
        if taskset is None:
            continue
        platform = Platform(scenario.platform_size)
        kind, passes = compare_with_oracle(taskset, platform, mode, engine)
        kinds[kind] = kinds.get(kind, 0) + 1
        if passes > 1:
            kinds["retried"] = kinds.get("retried", 0) + 1
    return kinds


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", [MODE_EP, MODE_EN])
def test_kernel_matches_full_pass_oracle_on_200_seeds(mode):
    kinds = sweep(KERNEL_SCENARIOS, range(200), mode, ENGINE_KERNEL)
    # The sweep must exercise both verdicts and Algorithm-1 retries.
    assert kinds.get("schedulable", 0) >= 10, kinds
    assert kinds.get("unschedulable", 0) >= 10, kinds
    assert kinds.get("retried", 0) >= 10, kinds


@pytest.mark.parametrize("mode", [MODE_EP, MODE_EN])
def test_reference_matches_full_pass_oracle_on_small_dags(mode):
    kinds = sweep(REFERENCE_SCENARIOS, range(1000, 1040), mode, ENGINE_REFERENCE)
    assert kinds.get("schedulable", 0) >= 3, kinds
    assert kinds.get("unschedulable", 0) >= 3, kinds


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    key=st.sampled_from("abcd"),
    fraction=st.floats(min_value=0.1, max_value=0.7),
    mode=st.sampled_from([MODE_EP, MODE_EN]),
)
@settings(max_examples=30, deadline=None)
def test_property_early_stop_matches_full_pass_oracle(seed, key, fraction, mode):
    scenario = KERNEL_SCENARIOS[key]
    taskset = draw_taskset(scenario, fraction, seed)
    if taskset is None:
        return
    compare_with_oracle(taskset, Platform(scenario.platform_size), mode, ENGINE_KERNEL)
