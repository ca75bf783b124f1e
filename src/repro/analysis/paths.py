"""Complete-path enumeration for the path-oriented (EP) analysis.

The EP variant of the DPCP-p analysis computes a WCRT bound for every
complete path of a task's DAG and takes the maximum (Eq. (1)).  Two practical
concerns are handled here:

* Many paths can be *analysis-equivalent*: the bound only depends on the
  path length :math:`L(\\lambda)` and on the per-resource request counts
  :math:`N^\\lambda_{i,q}`, so paths are deduplicated by that signature
  (``PathProfile.signature()``: ``round(length, 9)`` plus the counts).
* The number of complete paths can be exponential.  The enumerator accepts a
  cap; when the cap is exceeded the result is flagged as *not exhaustive* and
  callers fall back to the (sound but more pessimistic) EN-style bound.

The default enumeration algorithm is a dynamic program over signatures:
partial signatures are propagated along the DAG in topological order and
deduplicated at every vertex, so no path is walked individually.  The
raw-path cap is enforced by the same capped O(V+E) counting pass the walk
uses.  The depth-first walk over raw paths is retained (``algorithm="walk"``)
as a reference oracle, and the DP delegates to it below
:data:`WALK_SHORTCUT_PATHS` paths.

Deduplication only saves work when paths share signatures, which needs
integer-like WCETs.  With the generator's continuous WCETs it merges
nothing: on the Fig. 2 campaign shape at the paper's DAG sizes (m=16,
10–100 vertices, seeds 1–4) the DP turned 172,730 raw paths into 172,730
profiles.  The DP's work therefore scales with the number of partial paths,
and it is written to make that work cheap.

Array layout
------------
Each vertex holds three parallel arrays over the distinct partial
signatures of the source-to-vertex paths ending at it:

* ``lengths`` — float64 exact path lengths (the floats a raw walk sums);
* ``codes`` — ``(K, k)`` int64 request words: the per-resource counts packed
  mixed-radix, each resource's radix one more than the task's total requests
  to it (no path can exceed that, so adding a vertex's code never carries
  between digits).  Resources are packed greedily into as many words as
  needed to stay below 2**63, so any resource count is overflow-free;
* ``rows`` — global row ids, which successors store as parent pointers.

Extending every signature at ``v`` by ``v`` is one array add per field.  The
extended predecessor arrays are concatenated in ascending predecessor order,
so row order equals the insertion order of a dict-based DP, and
:func:`_first_of_each_signature` keeps the first row of every signature
(a stable :func:`numpy.lexsort` and an adjacent-difference mask, skipped
when the sorted lengths alone are all farther apart than the tie window).
Representative paths are rebuilt from the parent pointers for the final
profiles only; the result carries them as a :class:`PackedPaths` batch that
the DPCP-p kernel reads directly, and :class:`PathProfile` objects are built
only when something reads :attr:`PathEnumerationResult.profiles`.

Rounding exactness
------------------
Signatures compare lengths at ``round(length, 9)``.  ``round`` is monotone,
so after sorting by (codes, length) every signature is a run of adjacent
rows.  Two equal lengths always share a signature.  Two lengths more than
:data:`ROUNDING_TIE_WINDOW` (2e-9) apart never do: ``round(x, 9)`` is the
double nearest the 9-decimal rounding of ``x``, at most 0.5e-9 away from it,
so two lengths with one rounded value differ by at most 1e-9 plus one ulp of
that value — and once the ulp exceeds 1e-9, ``round`` is the identity on
doubles.  Only adjacent rows with equal codes that lie within the window
call Python's ``round``; the result is the dict DP's, field for field.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model.dag import PathProfile
from ..model.task import DAGTask, Vertex
from ..obs.telemetry import active as _active_telemetry

#: Default cap on the number of *distinct* path signatures kept per task.
DEFAULT_MAX_SIGNATURES = 4096

#: Default cap on the number of raw paths covered per task.
DEFAULT_MAX_PATHS = 200_000

#: Enumeration algorithms: the signature-space dynamic program (default) and
#: the raw depth-first path walk kept as a reference oracle.
ALGORITHM_DP = "dp"
ALGORITHM_WALK = "walk"

#: Path-count threshold below which the DP enumerator delegates to the raw
#: walk: for a handful of paths the walk's constant factor beats the
#: per-vertex signature bookkeeping of the dynamic program.
WALK_SHORTCUT_PATHS = 64

#: Lengths closer than this may share a ``round(length, 9)`` signature;
#: lengths farther apart never do (see "Rounding exactness" above).
ROUNDING_TIE_WINDOW = 2e-9

#: Largest product of radices one int64 request word can hold.
_WORD_CAPACITY = 1 << 63


@dataclass(frozen=True, eq=False)
class PackedPaths:
    """A batch of path profiles as NumPy arrays, one row per profile.

    Attributes
    ----------
    lengths:
        float64 ``(P,)`` — exact path lengths :math:`L(\\lambda)`.
    resources:
        Resource ids, ascending, one per column of ``counts``.
    counts:
        int64 ``(P, R)`` — requests per resource issued on each path.
    vertices:
        intp ``(P, H)`` — row ``p`` holds the path's vertices in precedence
        order in its first ``sizes[p]`` columns, padded with ``-1``.
    sizes:
        intp ``(P,)`` — number of vertices on each path.
    """

    lengths: np.ndarray
    resources: Tuple[int, ...]
    counts: np.ndarray
    vertices: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return int(self.lengths.size)

    @classmethod
    def from_profiles(cls, profiles: Sequence[PathProfile]) -> "PackedPaths":
        """Pack a list of profiles (walk and truncated results)."""
        resources = tuple(
            sorted({rid for prof in profiles for rid, cnt in prof.requests.items() if cnt})
        )
        column = {rid: j for j, rid in enumerate(resources)}
        sizes = np.array([len(prof.vertices) for prof in profiles], dtype=np.intp)
        counts = np.zeros((len(profiles), len(resources)), dtype=np.int64)
        vertices = np.full(
            (len(profiles), int(sizes.max()) if profiles else 0), -1, dtype=np.intp
        )
        for p, prof in enumerate(profiles):
            for rid, cnt in prof.requests.items():
                if cnt:
                    counts[p, column[rid]] = cnt
            vertices[p, : sizes[p]] = prof.vertices
        lengths = np.array([prof.length for prof in profiles], dtype=np.float64)
        return cls(lengths, resources, counts, vertices, sizes)

    def to_profiles(self) -> List[PathProfile]:
        """Unpack into :class:`PathProfile` objects (requests in resource order)."""
        resources = self.resources
        return [
            PathProfile(
                vertices=tuple(row[:size]),
                length=length,
                requests={rid: cnt for rid, cnt in zip(resources, row_counts) if cnt},
            )
            for length, row_counts, row, size in zip(
                self.lengths.tolist(),
                self.counts.tolist(),
                self.vertices.tolist(),
                self.sizes.tolist(),
            )
        ]

    def request_columns(self, resource_ids: Sequence[int]) -> np.ndarray:
        """float64 ``(P, len(resource_ids))`` counts, zero for absent resources."""
        out = np.zeros((len(self), len(resource_ids)))
        column = {rid: j for j, rid in enumerate(self.resources)}
        for g, rid in enumerate(resource_ids):
            j = column.get(rid)
            if j is not None:
                out[:, g] = self.counts[:, j]
        return out

    def vertex_sums(self, weights: np.ndarray) -> np.ndarray:
        """Sum of per-vertex ``weights`` along each path.

        Rows are grouped by vertex count and summed with
        ``weights[idx].sum(axis=1)``, which reduces each row exactly like
        the per-path ``weights[path].sum()`` (same length, same order), so
        the sums are bit-identical to a per-profile loop.
        """
        out = np.empty(len(self))
        sizes = self.sizes
        for size in np.flatnonzero(np.bincount(sizes)).tolist():
            rows = np.flatnonzero(sizes == size)
            out[rows] = weights[self.vertices[rows, :size]].sum(axis=1)
        return out


class PathEnumerationResult:
    """Outcome of enumerating the complete paths of one task.

    The profiles are held either as a list or as a :class:`PackedPaths`
    batch; each form is derived from the other on first access and cached.

    Attributes
    ----------
    exhaustive:
        ``True`` when every complete path is covered by the profiles;
        ``False`` when a cap was hit and the profiles only cover a subset.
    total_paths_seen:
        Number of raw paths covered before stopping (the exact complete-path
        count when the enumeration is exhaustive).
    """

    __slots__ = ("exhaustive", "total_paths_seen", "_profiles", "_packed")

    def __init__(
        self,
        profiles: Optional[List[PathProfile]] = None,
        *,
        exhaustive: bool,
        total_paths_seen: int,
        packed: Optional[PackedPaths] = None,
    ) -> None:
        if (profiles is None) == (packed is None):
            raise ValueError("pass exactly one of profiles and packed")
        self.exhaustive = exhaustive
        self.total_paths_seen = total_paths_seen
        self._profiles = profiles
        self._packed = packed

    @property
    def profiles(self) -> List[PathProfile]:
        """Deduplicated path profiles (one per distinct analysis signature)."""
        if self._profiles is None:
            self._profiles = self._packed.to_profiles()
        return self._profiles

    @property
    def packed(self) -> PackedPaths:
        """The profiles as one :class:`PackedPaths` batch."""
        if self._packed is None:
            self._packed = PackedPaths.from_profiles(self._profiles)
        return self._packed

    @property
    def num_profiles(self) -> int:
        """Number of profiles, without materialising either form."""
        if self._packed is not None:
            return len(self._packed)
        return len(self._profiles)


class _RequestCodec:
    """Mixed-radix packing of a task's per-resource request counts.

    Resource ``j`` occupies the digit ``scales[j]`` of word ``words[j]``
    with radix ``radices[j]`` (its total requests over all vertices, plus
    one).  A word holds resources while the product of their radices stays
    at most 2**63, so every word value fits an int64.
    """

    def __init__(self, vertices: Sequence[Vertex]) -> None:
        totals: Dict[int, int] = {}
        for vertex in vertices:
            for rid, cnt in vertex.requests.items():
                if cnt > 0:
                    totals[rid] = totals.get(rid, 0) + cnt
        self.resources = tuple(sorted(totals))
        self.radices = [totals[rid] + 1 for rid in self.resources]
        self.words: List[int] = []
        self.scales: List[int] = []
        num_words, capacity = 0, _WORD_CAPACITY
        for radix in self.radices:
            if capacity * radix > _WORD_CAPACITY:
                num_words, capacity = num_words + 1, 1
            self.words.append(num_words - 1)
            self.scales.append(capacity)
            capacity *= radix
        self.num_words = max(num_words, 1)
        column = {rid: j for j, rid in enumerate(self.resources)}
        codes = [[0] * len(vertices) for _ in range(self.num_words)]
        for x, vertex in enumerate(vertices):
            for rid, cnt in vertex.requests.items():
                if cnt > 0:
                    j = column[rid]
                    codes[self.words[j]][x] += cnt * self.scales[j]
        #: int64 ``(K, V)`` — each vertex's own request code.
        self.vertex_codes = np.array(codes, dtype=np.int64)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """int64 ``(P, R)`` request counts of ``(K, P)`` codes."""
        counts = np.empty((codes.shape[1], len(self.resources)), dtype=np.int64)
        for j, (word, scale, radix) in enumerate(zip(self.words, self.scales, self.radices)):
            counts[:, j] = codes[word] // scale % radix
        return counts


def _first_of_each_signature(
    lengths: np.ndarray, codes: np.ndarray
) -> Optional[np.ndarray]:
    """Ascending row indices of the first row of every distinct signature.

    A signature is ``(round(length, 9), codes)``.  Returns ``None`` when
    every row is its own signature.
    """
    if lengths.size < 2:
        return None
    # No two lengths within the tie window means no two rows share a
    # signature, whatever their codes (the usual case with continuous WCETs).
    by_length = np.sort(lengths)
    if (by_length[1:] - by_length[:-1] > ROUNDING_TIE_WINDOW).all():
        return None
    order = np.lexsort((lengths, *codes))
    sorted_lengths = lengths[order]
    sorted_codes = codes[:, order]
    same_codes = (sorted_codes[:, 1:] == sorted_codes[:, :-1]).all(axis=0)
    gap = sorted_lengths[1:] - sorted_lengths[:-1]
    merge = same_codes & (gap == 0.0)
    ties = np.flatnonzero(same_codes & (gap > 0.0) & (gap <= ROUNDING_TIE_WINDOW))
    if ties.size:
        values = sorted_lengths.tolist()
        for i in ties.tolist():
            merge[i] = round(values[i], 9) == round(values[i + 1], 9)
    if not merge.any():
        return None
    starts = np.flatnonzero(np.concatenate(([True], ~merge)))
    # The first row of a signature is its smallest index; lexsort is stable,
    # but rows merged by rounding have different lengths, hence the minimum.
    first = np.minimum.reduceat(order, starts)
    first.sort()
    return first


def _trace_paths(
    rows: np.ndarray, parents: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Follow parent pointers from ``rows`` back to the sources.

    Returns the ``(vertices, sizes)`` pair of :class:`PackedPaths`: each
    path's vertices in precedence order, padded with ``-1``.
    """
    backwards = []
    cur = rows
    while True:
        alive = cur >= 0
        if not alive.any():
            break
        safe = np.where(alive, cur, 0)
        backwards.append(np.where(alive, owners[safe], -1))
        cur = np.where(alive, parents[safe], -1)
    reverse = np.stack(backwards, axis=1)
    sizes = (reverse >= 0).sum(axis=1)
    source_col = sizes[:, None] - 1 - np.arange(reverse.shape[1])[None, :]
    vertices = np.where(
        source_col >= 0,
        np.take_along_axis(reverse, np.maximum(source_col, 0), axis=1),
        -1,
    )
    return vertices.astype(np.intp, copy=False), sizes.astype(np.intp, copy=False)


class PathEnumerator:
    """Enumerates and caches the path profiles of tasks.

    Parameters
    ----------
    max_signatures:
        Cap on distinct signatures retained per task.
    max_paths:
        Cap on raw paths covered per task.
    algorithm:
        ``"dp"`` (default) — the signature-space dynamic program, or
        ``"walk"`` — the reference depth-first walk over raw paths.

    Results are cached per live task object (a ``WeakKeyDictionary``), so a
    cache entry can never outlive — or be aliased onto — its task: the former
    ``(id(task), task_id)`` key could silently return a stale enumeration for
    a *different* task after the original was garbage collected and its
    ``id()`` recycled.  Entries are additionally keyed on the DAG's edge
    count, so the supported mutation (``DAG.add_edge``) invalidates them —
    mirroring ``DAGTask.critical_path_length``.

    With telemetry active, each enumeration that hits a cap counts
    ``enumeration.truncated.signatures`` or ``enumeration.truncated.paths``:
    the number of EP tasks that fall back to the EN bound.
    """

    def __init__(
        self,
        max_signatures: int = DEFAULT_MAX_SIGNATURES,
        max_paths: int = DEFAULT_MAX_PATHS,
        algorithm: str = ALGORITHM_DP,
    ) -> None:
        if max_signatures < 1 or max_paths < 1:
            raise ValueError("enumeration caps must be positive")
        if algorithm not in (ALGORITHM_DP, ALGORITHM_WALK):
            raise ValueError(f"unknown enumeration algorithm {algorithm!r}")
        self.max_signatures = max_signatures
        self.max_paths = max_paths
        self.algorithm = algorithm
        self._cache: "weakref.WeakKeyDictionary[DAGTask, Tuple[int, PathEnumerationResult]]" = (
            weakref.WeakKeyDictionary()
        )

    def enumerate(self, task: DAGTask) -> PathEnumerationResult:
        """Enumerate (and cache) the distinct path profiles of ``task``."""
        num_edges = task.dag.num_edges
        cached = self._cache.get(task)
        tel = _active_telemetry()
        if cached is not None and cached[0] == num_edges:
            if tel is not None:
                tel.count("enumeration.cache.hits")
            return cached[1]
        if tel is not None:
            tel.count("enumeration.cache.misses")
        if self.algorithm == ALGORITHM_DP:
            result = self._enumerate_dp(task)
        else:
            result = self._enumerate_walk(task)
        self._cache[task] = (num_edges, result)
        return result

    # ------------------------------------------------------------------ #
    # Signature-space dynamic program (default)
    # ------------------------------------------------------------------ #
    def _enumerate_dp(self, task: DAGTask) -> PathEnumerationResult:
        """Propagate deduplicated partial signatures in topological order.

        The complete-path count is checked first (one capped O(V+E) counting
        pass, shared with the walk): astronomically many paths fall back to
        the critical path immediately, and a trivially small count delegates
        to the raw walk, whose constant factor is lower.  Otherwise the
        per-vertex arrays described in the module docstring are propagated;
        any vertex (or the merged sinks) holding more than
        ``max_signatures`` signatures truncates the enumeration.
        """
        dag = task.dag
        total_paths = dag.count_complete_paths(limit=self.max_paths + 1)
        if total_paths > self.max_paths:
            return self._truncated(task, "paths")
        if total_paths <= min(WALK_SHORTCUT_PATHS, self.max_paths):
            return self._walk(task, total_paths)

        pred_lists = dag.predecessor_lists()
        succ_lists = dag.successor_lists()
        wcets = [v.wcet for v in task.vertices]
        codec = _RequestCodec(task.vertices)
        vertex_codes = codec.vertex_codes

        lengths: Dict[int, np.ndarray] = {}
        codes: Dict[int, np.ndarray] = {}
        rows: Dict[int, np.ndarray] = {}
        owners: List[np.ndarray] = []
        parents: List[np.ndarray] = []
        next_row = 0
        pending_succs = [len(succs) for succs in succ_lists]
        for v in dag.topological_order():
            preds = sorted(pred_lists[v])
            own_code = vertex_codes[:, v : v + 1]
            if not preds:
                length = np.array([wcets[v]])
                code = own_code
                parent = np.array([-1], dtype=np.intp)
            else:
                length = np.concatenate([lengths[u] for u in preds]) + wcets[v]
                code = np.concatenate([codes[u] for u in preds], axis=1) + own_code
                parent = np.concatenate([rows[u] for u in preds])
                keep = _first_of_each_signature(length, code)
                if keep is not None:
                    length, code, parent = length[keep], code[:, keep], parent[keep]
                if length.size > self.max_signatures:
                    return self._truncated(task, "signatures")
            size = length.size
            lengths[v], codes[v] = length, code
            rows[v] = np.arange(next_row, next_row + size, dtype=np.intp)
            owners.append(np.full(size, v, dtype=np.intp))
            parents.append(parent)
            next_row += size
            # Free per-vertex arrays as soon as every successor has consumed
            # them (keeps peak memory proportional to the frontier); parent
            # pointers stay, they are small.
            for u in preds:
                pending_succs[u] -= 1
                if pending_succs[u] == 0 and succ_lists[u]:
                    del lengths[u], codes[u], rows[u]

        sinks = [v for v in range(dag.num_vertices) if not succ_lists[v]]
        length = np.concatenate([lengths[s] for s in sinks])
        code = np.concatenate([codes[s] for s in sinks], axis=1)
        final_rows = np.concatenate([rows[s] for s in sinks])
        keep = _first_of_each_signature(length, code)
        if keep is not None:
            length, code, final_rows = length[keep], code[:, keep], final_rows[keep]
        if length.size > self.max_signatures:
            return self._truncated(task, "signatures")
        vertices, sizes = _trace_paths(
            final_rows, np.concatenate(parents), np.concatenate(owners)
        )
        packed = PackedPaths(length, codec.resources, codec.decode(code), vertices, sizes)
        return PathEnumerationResult(
            packed=packed, exhaustive=True, total_paths_seen=total_paths
        )

    def _truncated(self, task: DAGTask, cap: str) -> PathEnumerationResult:
        """Cap-exceeded fallback: the critical path only, flagged non-exhaustive.

        Callers treat any non-exhaustive enumeration by falling back to the
        EN-style bound, which dominates every per-path bound — so the choice
        of retained profiles does not affect the final task bound.  ``cap``
        (``"signatures"`` or ``"paths"``) names the telemetry counter.
        """
        _count_truncation(cap)
        return PathEnumerationResult(
            profiles=[task.critical_path_profile()],
            exhaustive=False,
            total_paths_seen=0,
        )

    # ------------------------------------------------------------------ #
    # Reference raw-path walk
    # ------------------------------------------------------------------ #
    def _enumerate_walk(self, task: DAGTask) -> PathEnumerationResult:
        """The original depth-first walk over raw paths (reference oracle)."""
        # Quick pre-check: if the path count is astronomically large, skip the
        # walk entirely and only report the critical path (non-exhaustive).
        approx_count = task.dag.count_complete_paths(limit=self.max_paths + 1)
        if approx_count > self.max_paths:
            return self._truncated(task, "paths")
        return self._walk(task, approx_count)

    def _walk(self, task: DAGTask, approx_count: int) -> PathEnumerationResult:
        """Depth-first walk over raw paths (count already known ≤ max_paths)."""
        profiles: Dict[Tuple, PathProfile] = {}
        exhaustive = True
        seen = 0
        for vertices in task.dag.iter_complete_paths():
            seen += 1
            profile = task.path_profile(vertices)
            signature = profile.signature()
            if signature not in profiles:
                if len(profiles) >= self.max_signatures:
                    # The cap is already full: a further *distinct* signature
                    # makes the walk non-exhaustive.  (Checking before the
                    # insert keeps the result at max_signatures profiles; the
                    # former post-insert check leaked one extra profile.)
                    exhaustive = False
                    _count_truncation("signatures")
                    break
                profiles[signature] = profile
            if seen >= self.max_paths:
                exhaustive = seen >= approx_count
                break

        if not profiles:
            profiles_list = [task.critical_path_profile()]
        else:
            profiles_list = list(profiles.values())
        return PathEnumerationResult(
            profiles=profiles_list,
            exhaustive=exhaustive,
            total_paths_seen=seen,
        )

    def clear(self) -> None:
        """Drop all cached enumerations."""
        self._cache.clear()

    # The cache holds weak references and is inherently per-process; campaign
    # workers receive protocol objects (and their enumerators) via pickle, so
    # serialization ships the configuration and starts with an empty cache.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_cache"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._cache = weakref.WeakKeyDictionary()


def _count_truncation(cap: str) -> None:
    """Count one cap-truncated enumeration in the active telemetry session."""
    tel = _active_telemetry()
    if tel is not None:
        tel.count(f"enumeration.truncated.{cap}")


def critical_path_only(task: DAGTask) -> PathEnumerationResult:
    """A degenerate enumeration containing only the critical path.

    Used by the EN-style analyses, which reason about the longest path and
    treat the per-resource request counts as free variables.
    """
    return PathEnumerationResult(
        profiles=[task.critical_path_profile()],
        exhaustive=False,
        total_paths_seen=1,
    )
