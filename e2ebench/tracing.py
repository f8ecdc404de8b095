"""In-memory span tracer that wraps library functions from the outside.

The benchmark measures each layer by replacing a layer's public function
with a wrapper that records a span around the original call; nothing inside
``src/`` is changed.  A span has a name, a start and end (``perf_counter``
seconds), the id of the span that was open when it started, and the id of
the client request it belongs to.  Calls made outside a request (set-up,
counter polls) are not recorded.  Spans stay in memory until the benchmark
writes them out at the end.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while a request is open.

    Closed spans are kept in flat arrays rather than as objects, so that a
    long traced run does not give the garbage collector hundreds of
    thousands of objects to scan in the middle of the measurement.
    """

    def __init__(self) -> None:
        #: Byte counts recorded by wrappers (``count=``), keyed by counter name.
        self.counts: Counter = Counter()
        #: Id of the open request, or ``None`` between requests.
        self.request: Optional[int] = None
        self._open: List[Tuple[int, float]] = []
        self._names: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._requests = array("q")
        self._patches: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        """Open a span; its id is its index in the arrays."""
        sid = len(self._names)
        self._names.append(name)
        self._starts.append(0.0)
        self._ends.append(0.0)
        self._parents.append(self._open[-1][0] if self._open else -1)
        self._requests.append(-1 if self.request is None else self.request)
        self._open.append((sid, perf_counter()))

    def end(self) -> None:
        now = perf_counter()
        sid, start = self._open.pop()
        self._starts[sid] = start
        self._ends[sid] = now

    @property
    def spans(self) -> List[Span]:
        """Every recorded span, in the order the spans were opened."""
        return [
            Span(
                sid,
                name,
                self._starts[sid],
                self._ends[sid],
                None if self._parents[sid] < 0 else self._parents[sid],
                None if self._requests[sid] < 0 else self._requests[sid],
            )
            for sid, name in enumerate(self._names)
        ]

    def wrap(
        self,
        owner,
        attribute: str,
        name: str,
        consume: bool = False,
        count: Optional[Tuple[str, Callable]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a class or module) with a traced call.

        ``consume`` drains a returned iterator inside the span, so a lazy
        function is timed for the work it does.  ``count=(counter, fn)`` adds
        ``fn(args, result)`` to ``counts[counter]`` after each traced call.
        """
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return original(*args, **kwargs)
            tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                tracer.end()
            if count is not None:
                tracer.counts[count[0]] += count[1](args, result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write_csv(self, path: str) -> None:
        """Write the spans as CSV, times in microseconds from the first span."""
        spans = self.spans
        origin = min((span.start for span in spans), default=0.0)
        with open(path, "w", encoding="ascii") as out:
            out.write("sid,name,start_us,end_us,parent,request\n")
            for span in spans:
                out.write(
                    f"{span.sid},{span.name},{(span.start - origin) * 1e6:.3f},"
                    f"{(span.end - origin) * 1e6:.3f},"
                    f"{'' if span.parent is None else span.parent},"
                    f"{'' if span.request is None else span.request}\n"
                )


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct child spans cover.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered = covered_length(children.get(span.sid, ()), span.start, span.end)
        totals[span.name] += span.duration - covered
    return dict(totals)


def durations(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Total seconds and call count per span name."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span.name] += span.duration
        calls[span.name] += 1
    return dict(seconds), dict(calls)
