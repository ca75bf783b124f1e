"""In-memory span recording around the program's public functions.

The tracer replaces a function at the module attribute its callers look up
(or a method on its class) with a wrapper that records one span per call:
name, start, end, parent span, request id, and whether the call raised.
Spans stay in memory and are
written out once, at the end of the traced run.  Nothing in the program is
changed on disk; :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass
class Span:
    """One timed call (times from ``time.perf_counter``)."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    failed: bool = False


class Tracer:
    """Records spans of wrapped calls; a per-thread stack gives parents."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: Any,
        fn: Callable,
        request: Optional[Callable[..., str]] = None,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``request(*args, **kwargs)`` names the request a top-level span
        starts (nested spans inherit their parent's); ``observe(result,
        *args, **kwargs)`` sees each return value.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if request is not None:
                request_id = request(*args, **kwargs)
            else:
                request_id = parent.request if parent is not None else None
            span = Span(
                sid=next(self._ids),
                name=name if isinstance(name, str) else name(*args, **kwargs),
                start=self._clock(),
                end=0.0,
                parent=parent.sid if parent is not None else None,
                request=request_id,
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self._clock()
                stack.pop()
                self.spans.append(span)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: Any, **options) -> None:
        """Replace ``owner.attribute`` by a traced wrapper (undone by restore)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, **options))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines, in completion order."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _covered(intervals: Iterable[tuple], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus the part children cover."""
    spans = list(spans)
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span.end - span.start) - _covered(
            children.get(span.sid, ()), span.start, span.end
        )
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def busy_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Inclusive time per span name, counting nested same-name calls once."""
    spans = list(spans)
    names = {span.sid: span.name for span in spans}
    parents = {span.sid: span.parent for span in spans}
    totals: Dict[str, float] = {}
    for span in spans:
        ancestor = span.parent
        nested = False
        while ancestor is not None:
            if names.get(ancestor) == span.name:
                nested = True
                break
            ancestor = parents.get(ancestor)
        if not nested:
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
    return totals


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    """Number of spans per name."""
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts
