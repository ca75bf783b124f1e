"""The array-native signature DP and packed batches versus their oracles.

``PathEnumerator._enumerate_dp`` runs on NumPy arrays and hands the DPCP-p
kernel a packed profile batch.  The oracles below keep the dict-based DP and
the kernel's per-profile packing loop it replaced; the new code must match
them field for field: profile order, vertices, exact length floats, request
items and their order, ``exhaustive``, ``total_paths_seen`` and the
truncation decisions.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from unittest import mock
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dpcp_p import ENGINE_KERNEL, ENGINE_REFERENCE, task_wcrt_ep
from repro.analysis.dpcp_p.context import DpcpPContext
from repro.analysis.dpcp_p.kernel import BATCH_CUTOFF, DpcpPKernel
from repro.analysis.dpcp_p.partition import wfd_assign_resources
from repro.analysis import paths
from repro.analysis.paths import (
    WALK_SHORTCUT_PATHS,
    PackedPaths,
    PathEnumerationResult,
    PathEnumerator,
)
from repro.experiments.scenarios import figure2_scenarios
from repro.generation import GenerationError, generate_taskset
from repro.model import DAG, DAGTask, Platform, ResourceUsage, Vertex
from repro.model.dag import PathProfile
from repro.model.platform import PartitionedSystem, minimal_federated_clusters
from repro.obs import telemetry

PAPER_SCENARIOS = figure2_scenarios(num_vertices_range=(10, 100))


# --------------------------------------------------------------------------- #
# Oracle: the dict-based signature DP
# --------------------------------------------------------------------------- #
def _merge_requests(base, extra):
    """Merge two sorted ``(resource, count)`` tuples, summing counts."""
    if not extra:
        return base
    if not base:
        return extra
    counts = dict(base)
    for rid, cnt in extra:
        counts[rid] = counts.get(rid, 0) + cnt
    return tuple(sorted(counts.items()))


def oracle_enumerate(enumerator: PathEnumerator, task: DAGTask):
    """``(profiles, exhaustive, total_paths_seen)`` of the dict DP."""
    dag = task.dag
    total_paths = dag.count_complete_paths(limit=enumerator.max_paths + 1)
    truncated = ([task.critical_path_profile()], False, 0)
    if total_paths > enumerator.max_paths:
        return truncated
    if total_paths <= min(paths.WALK_SHORTCUT_PATHS, enumerator.max_paths):
        walk = PathEnumerator(
            enumerator.max_signatures, enumerator.max_paths, algorithm="walk"
        ).enumerate(task)
        return walk.profiles, walk.exhaustive, walk.total_paths_seen

    pred_lists = dag.predecessor_lists()
    succ_lists = dag.successor_lists()
    wcets = [v.wcet for v in task.vertices]
    vertex_requests = [
        tuple(sorted((r, c) for r, c in v.requests.items() if c > 0))
        for v in task.vertices
    ]
    sigs: Dict[int, Dict[Tuple, Tuple[float, Tuple[int, ...]]]] = {}
    for v in dag.topological_order():
        preds = pred_lists[v]
        if not preds:
            sigs[v] = {(round(wcets[v], 9), vertex_requests[v]): (wcets[v], (v,))}
            continue
        merged: Dict[Tuple, Tuple[float, Tuple[int, ...]]] = {}
        for u in sorted(preds):
            for (_rkey, requests), (length, rep) in sigs[u].items():
                exact = length + wcets[v]
                key = (round(exact, 9), _merge_requests(requests, vertex_requests[v]))
                if key not in merged:
                    merged[key] = (exact, rep + (v,))
        if len(merged) > enumerator.max_signatures:
            return truncated
        sigs[v] = merged

    profiles: Dict[Tuple, PathProfile] = {}
    for sink in range(dag.num_vertices):
        if succ_lists[sink]:
            continue
        for (rkey, requests), (length, rep) in sigs[sink].items():
            if (rkey, requests) not in profiles:
                profiles[(rkey, requests)] = PathProfile(
                    vertices=rep, length=length, requests=dict(requests)
                )
    if len(profiles) > enumerator.max_signatures:
        return truncated
    return list(profiles.values()), True, total_paths


def assert_same_enumeration(enumerator: PathEnumerator, task: DAGTask) -> str:
    """Compare one task against the oracle; return how the DP ended."""
    result = enumerator.enumerate(task)
    profiles, exhaustive, seen = oracle_enumerate(enumerator, task)
    assert result.exhaustive == exhaustive
    assert result.total_paths_seen == seen
    assert result.num_profiles == len(profiles)
    assert len(result.profiles) == len(profiles)
    for got, want in zip(result.profiles, profiles):
        assert got.vertices == want.vertices
        assert all(type(v) is int for v in got.vertices)
        assert got.length == want.length  # exact float
        assert list(got.requests.items()) == list(want.requests.items())
    if not exhaustive:
        return "truncated"
    if seen <= paths.WALK_SHORTCUT_PATHS:
        return "walk"
    return "dp"


def draw_taskset(scenario, fraction, seed):
    """One task set of ``scenario`` at ``fraction * m`` utilization, or None."""
    try:
        return generate_taskset(
            fraction * scenario.platform_size, scenario.generation_config(), rng=seed
        )
    except GenerationError:
        return None


def paper_tasksets(seeds, fraction=0.12):
    """Fig. 2 task sets at the paper's DAG sizes, cycling the four scenarios."""
    for seed in seeds:
        taskset = draw_taskset(PAPER_SCENARIOS["abcd"[seed % 4]], fraction, seed)
        if taskset is not None:
            yield taskset


def layered_task(widths, wcets, requests) -> DAGTask:
    """A layered DAG (every vertex feeds every vertex of the next layer)."""
    starts = np.cumsum([0] + list(widths)).tolist()
    edges = [
        (starts[layer] + a, starts[layer + 1] + b)
        for layer in range(len(widths) - 1)
        for a in range(widths[layer])
        for b in range(widths[layer + 1])
    ]
    return task_from(DAG(starts[-1], edges), wcets, requests)


def task_from(dag, wcets, requests) -> DAGTask:
    """A task over ``dag`` whose resource usages total the vertex requests."""
    vertices = [Vertex(i, wcets[i], requests=requests[i]) for i in range(len(wcets))]
    totals: Dict[int, int] = {}
    for reqs in requests:
        for rid, cnt in reqs.items():
            totals[rid] = totals.get(rid, 0) + cnt
    usages = [ResourceUsage(rid, cnt, 1e-3) for rid, cnt in sorted(totals.items())]
    return DAGTask(0, vertices, dag, period=1e9, resource_usages=usages)


# --------------------------------------------------------------------------- #
# The DP against the oracle
# --------------------------------------------------------------------------- #
def test_dp_matches_dict_oracle_on_paper_sized_fig2_tasks():
    """104 seeds over the four Fig. 2 scenarios at v10..100, default caps."""
    enumerator = PathEnumerator()
    ends: Dict[str, int] = {}
    for taskset in paper_tasksets(range(104)):
        for task in taskset:
            end = assert_same_enumeration(enumerator, task)
            ends[end] = ends.get(end, 0) + 1
    # The sweep must reach the DP, the walk shortcut and the signature cap.
    assert ends.get("dp", 0) >= 20, ends
    assert ends.get("walk", 0) >= 20, ends
    assert ends.get("truncated", 0) >= 5, ends


@pytest.mark.parametrize("max_signatures", [1, 7, 60])
def test_dp_matches_dict_oracle_with_tiny_signature_cap(max_signatures):
    """Tiny caps stop the DP mid-DAG (and at the merged sinks)."""
    enumerator = PathEnumerator(max_signatures=max_signatures)
    ends: Dict[str, int] = {}
    for taskset in paper_tasksets(range(200, 230), fraction=0.06):
        for task in taskset:
            end = assert_same_enumeration(enumerator, task)
            ends[end] = ends.get(end, 0) + 1
    assert ends.get("truncated", 0) >= 5, ends


def test_dp_matches_dict_oracle_on_merged_and_near_tied_signatures():
    """Integer WCETs merge signatures; sub-1e-9 offsets hit the rounding path."""
    widths = [3] * 6
    n = sum(widths)
    requests = [{i % 3: 1 + i % 2} for i in range(n)]
    for offsets in ([0.0] * n, [0.5e-9] * n, [k * 3e-10 for k in range(n)]):
        wcets = [float(1 + i % 2) + offsets[i] for i in range(n)]
        task = layered_task(widths, wcets, requests)
        assert assert_same_enumeration(PathEnumerator(), task) == "dp"
    # Without the rounding fallback the near-tied task disagrees: it ran.
    with mock.patch.object(paths, "ROUNDING_TIE_WINDOW", 0.0):
        with pytest.raises(AssertionError):
            assert_same_enumeration(PathEnumerator(), task)


def test_dp_matches_dict_oracle_with_16_resources_of_50_requests():
    """Request totals too large for one int64 mixed-radix word."""
    widths, resources = [3] * 5, 16
    n = sum(widths)
    wcets = [1.0 + 0.37 * i for i in range(n)]
    requests = [{r: 50 for r in range(resources) if (r + i) % 2} for i in range(n)]
    task = layered_task(widths, wcets, requests)
    assert 3**5 > WALK_SHORTCUT_PATHS
    assert assert_same_enumeration(PathEnumerator(), task) == "dp"
    counts = PathEnumerator().enumerate(task).packed.counts
    assert counts.max() == 50 * 5


@st.composite
def random_dags(draw):
    """Layered random DAGs with integer, near-tied or half-boundary WCETs."""
    widths = draw(st.lists(st.integers(1, 4), min_size=3, max_size=7))
    starts = np.cumsum([0] + widths).tolist()
    n = starts[-1]
    edges = []
    for layer in range(len(widths) - 1):
        for a in range(widths[layer]):
            targets = draw(st.sets(st.integers(0, widths[layer + 1] - 1), min_size=1))
            edges += [(starts[layer] + a, starts[layer + 1] + b) for b in sorted(targets)]
    kind = draw(st.sampled_from(["integer", "near-tie", "half-boundary"]))
    base = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    if kind == "integer":
        wcets = [float(b) for b in base]
    elif kind == "near-tie":
        jitter = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        wcets = [b + 4e-10 * j for b, j in zip(base, jitter)]
    else:
        # Lengths land on the round-half boundary of the 9th decimal.
        wcets = [b + 5e-10 * (k % 3) for k, b in enumerate(base)]
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    requests = [{i % 2: counts[i]} if counts[i] else {} for i in range(n)]
    return task_from(DAG(n, edges), wcets, requests)


@given(task=random_dags(), max_signatures=st.sampled_from([3, 20, 4096]))
@settings(max_examples=150, deadline=None)
def test_property_dp_matches_dict_oracle(task, max_signatures):
    # No walk shortcut: the DP runs on every drawn DAG, however few paths.
    with mock.patch.object(paths, "WALK_SHORTCUT_PATHS", 0):
        end = assert_same_enumeration(PathEnumerator(max_signatures=max_signatures), task)
    assert end != "walk"


# --------------------------------------------------------------------------- #
# Packed batches
# --------------------------------------------------------------------------- #
def oracle_pack(static, profiles: List[PathProfile]):
    """The kernel's former per-profile packing loop."""
    P = len(profiles)
    lengths = np.empty(P)
    nlam_g = np.zeros((P, len(static.ugr)))
    nlam_l = np.zeros((P, len(static.lres)))
    onpath_noncrit = np.empty(P)
    noncrit = static.noncrit_arr
    for p, prof in enumerate(profiles):
        lengths[p] = prof.length
        req = prof.requests
        for j, rid in enumerate(static.ugr):
            nlam_g[p, j] = req.get(rid, 0)
        for j, rid in enumerate(static.lres):
            nlam_l[p, j] = req.get(rid, 0)
        idxs = np.fromiter(prof.vertices, dtype=np.intp, count=len(prof.vertices))
        onpath_noncrit[p] = noncrit[idxs].sum()
    return lengths, nlam_g, nlam_l, onpath_noncrit


def kernels_for(taskset, platform):
    """A kernel and a reference context on the minimal federated partition."""
    clusters = minimal_federated_clusters(taskset, platform)
    if clusters is None:
        return None
    wfd = wfd_assign_resources(taskset, clusters)
    if not wfd.feasible:
        return None
    partition = PartitionedSystem(taskset, platform, clusters, wfd.assignment)
    kernel_ctx = DpcpPContext(taskset, partition)
    kernel_ctx.attach_kernel(DpcpPKernel(taskset, partition))
    return kernel_ctx, DpcpPContext(taskset, partition)


def test_packed_batches_bit_identical_to_per_profile_loop():
    """DP-packed and profile-built batches equal the old loop bit for bit."""
    batches = 0
    for seed in range(40):
        scenario = PAPER_SCENARIOS["abcd"[seed % 4]]
        taskset = draw_taskset(scenario, 0.1, seed)
        if taskset is None:
            continue
        contexts = kernels_for(taskset, Platform(scenario.platform_size))
        if contexts is None:
            continue
        tables = contexts[0].kernel.tables
        enumerator = PathEnumerator()
        for task in taskset:
            enumeration = enumerator.enumerate(task)
            static = tables.table(task)
            static.ensure_arrays()
            expected = oracle_pack(static, enumeration.profiles)
            for packed in (enumeration.packed, PackedPaths.from_profiles(enumeration.profiles)):
                got = (
                    packed.lengths,
                    packed.request_columns(static.ugr),
                    packed.request_columns(static.lres),
                    packed.vertex_sums(static.noncrit_arr),
                )
                for array, want in zip(got, expected):
                    assert array.dtype == want.dtype and array.tobytes() == want.tobytes()
            batches += enumeration.num_profiles >= BATCH_CUTOFF
    assert batches >= 20


class _Fixed:
    """An enumerator stand-in that returns one fixed result."""

    def __init__(self, result):
        self.result = result

    def enumerate(self, task):
        return self.result


def test_ep_bounds_equal_on_dp_and_oracle_enumerations():
    """Both engines give ``==`` EP bounds from the DP and the dict-DP oracle.

    The oracle's profiles reach the kernel through the profile-built
    packing, i.e. the values the former per-profile loop produced.
    """
    compared = 0
    for seed in range(16):
        scenario = PAPER_SCENARIOS["abcd"[seed % 4]]
        taskset = draw_taskset(scenario, 0.1, seed)
        if taskset is None:
            continue
        contexts = kernels_for(taskset, Platform(scenario.platform_size))
        if contexts is None:
            continue
        enumerator = PathEnumerator()
        for task in taskset:
            profiles, exhaustive, seen = oracle_enumerate(enumerator, task)
            oracle = _Fixed(
                PathEnumerationResult(
                    profiles=profiles, exhaustive=exhaustive, total_paths_seen=seen
                )
            )
            for ctx, engine in zip(contexts, (ENGINE_KERNEL, ENGINE_REFERENCE)):
                assert task_wcrt_ep(ctx, task, enumerator, engine=engine) == task_wcrt_ep(
                    ctx, task, oracle, engine=engine
                )
            compared += 1
    assert compared >= 20


def test_packed_round_trip():
    profiles = [
        PathProfile(vertices=(0, 2, 5), length=3.25, requests={4: 2, 1: 1}),
        PathProfile(vertices=(1,), length=0.5, requests={}),
    ]
    packed = PackedPaths.from_profiles(profiles)
    assert packed.resources == (1, 4)
    assert packed.sizes.tolist() == [3, 1]
    assert packed.vertices.tolist() == [[0, 2, 5], [1, -1, -1]]
    assert packed.to_profiles() == profiles
    result = PathEnumerationResult(packed=packed, exhaustive=True, total_paths_seen=2)
    assert result.num_profiles == 2 and result.profiles == profiles
    with pytest.raises(ValueError):
        PathEnumerationResult(exhaustive=True, total_paths_seen=0)


# --------------------------------------------------------------------------- #
# Truncation counters
# --------------------------------------------------------------------------- #
def test_truncation_counters_name_the_cap():
    task = next(
        task
        for taskset in paper_tasksets(range(40))
        for task in taskset
        if task.dag.count_complete_paths() > WALK_SHORTCUT_PATHS
    )
    with telemetry.session() as tel:
        assert not PathEnumerator(max_signatures=1).enumerate(task).exhaustive
        assert not PathEnumerator(max_paths=2).enumerate(task).exhaustive
        assert not PathEnumerator(max_signatures=1, algorithm="walk").enumerate(
            task
        ).exhaustive
        assert PathEnumerator().enumerate(task).exhaustive
    assert tel.counters["enumeration.truncated.signatures"] == 2
    assert tel.counters["enumeration.truncated.paths"] == 1


# --------------------------------------------------------------------------- #
# Memory: nothing may pull in numpy.ma
# --------------------------------------------------------------------------- #
def test_fig2_paper_unit_does_not_import_numpy_ma():
    """``np.unique`` lazily imports numpy.ma (~9 MB per campaign worker)."""
    script = textwrap.dedent(
        """
        import sys
        from repro.campaign.executor import build_protocols, execute_unit
        from repro.campaign.planner import KNOWN_PROTOCOLS, plan_campaign
        from repro.experiments.runner import SweepConfig
        from repro.experiments.scenarios import figure2_scenarios

        scenario = figure2_scenarios(num_vertices_range=(10, 100))["a"]
        config = SweepConfig(
            samples_per_point=2, utilization_step_fraction=0.25, seed=1
        )
        unit = plan_campaign([scenario], config).units[0]
        result = execute_unit(unit, build_protocols(KNOWN_PROTOCOLS), telemetry=True)
        counters = result.telemetry["counters"]
        # The unit reached the DP and the kernel's batched path.
        assert counters.get("solver.batched.calls", 0) > 0, counters
        assert counters.get("enumeration.cache.misses", 0) > 0, counters
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        print("ok")
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
