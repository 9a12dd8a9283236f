"""The benchmark's own arithmetic: percentiles, self time, reconciliation.

Everything here is pure (no clocks, no I/O) so the tests in
``perfbench/tests`` can pin each rule down on hand-made inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10

#: Traced layer self times must add up to the traced wall clock within
#: this share of it.
RECONCILE_TOLERANCE = 0.05


def _rank(count: int, pct: float) -> int:
    # Round first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *pct* percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank *pct* percentile of *count*."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median has fewer."""
    best = None
    for pct in PERCENTILE_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


@dataclass
class Outcome:
    """One attempted operation as the load generator saw it."""

    kind: str
    seconds: float
    ok: bool
    draws: int = 0
    error: str = ""


@dataclass
class Tally:
    """Operations of one workload run, successful or not."""

    outcomes: List[Outcome] = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.outcomes.append(outcome)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    def error_rate(self) -> float:
        """Failed, refused or wrong results over attempted (0 when idle)."""
        return self.failed / self.attempted if self.outcomes else 0.0

    def latencies_ms(self, kinds: Optional[Iterable[str]] = None) -> List[float]:
        """Latencies of successful operations (of *kinds*, if given).

        A failed operation misses every latency metric, so it is left out
        here and counted by :meth:`error_rate` instead.
        """
        wanted = None if kinds is None else set(kinds)
        return [
            o.seconds * 1000.0
            for o in self.outcomes
            if o.ok and (wanted is None or o.kind in wanted)
        ]

    def draws(self) -> int:
        return sum(o.draws for o in self.outcomes if o.ok)

    def errors(self) -> List[str]:
        return [o.error for o in self.outcomes if not o.ok]


@dataclass
class TimedResult:
    """One ``--trace 0`` run: its operations, set-ups and resources."""

    tally: Tally
    setups: List[float]
    wall_seconds: float
    peak_rss_mb: float


def interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


@dataclass(frozen=True)
class Span:
    """One timed call: identity, interval, parent and request."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    attrs: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr(self, key: str, default: object = None) -> object:
        for name, value in self.attrs:
            if name == key:
                return value
        return default


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and may overlap each
    other (children on other threads do); covered time is their union,
    so overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
            if min(end, span.end) > max(start, span.start)
        ]
        result[span.id] = span.duration - interval_union(clipped)
    return result


def reconcile(layer_self_seconds: Dict[str, float], busy_seconds: float) -> float:
    """Relative gap between the layer self times and the wall clock.

    Each client of a closed loop has one operation in flight from its
    start until its last answer, so the self times of all layers, which
    add up to the operations' durations, should add up to *busy_seconds*:
    the sum over clients of each client's wall clock.
    """
    if busy_seconds <= 0:
        raise ValueError("wall clock must be positive")
    attributed = sum(layer_self_seconds.values())
    return abs(attributed - busy_seconds) / busy_seconds


def layer_of(span: Span, op_kind: Optional[str]) -> str:
    """The layer a span's self time belongs to.

    Draw ranges split by the path they took; a backend load inside an
    ``/update`` is the update path's reload, not a query's load.
    """
    if span.name == "outcomes":
        return "columnar.outcomes" if span.attr("columnar") else "outcomes.loop"
    if span.name == "backend.load" and op_kind == "update":
        return "update.reload"
    return span.name


@dataclass
class Breakdown:
    """Self time and calls per layer, from one traced replay."""

    seconds: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    compiles: int = 0
    adom_compiles: int = 0
    admission_wait: float = 0.0

    def per_call_ms(self, layer: str) -> float:
        calls = self.calls.get(layer, 0)
        return self.seconds.get(layer, 0.0) * 1000.0 / calls if calls else 0.0

    def per_unit_ms(self, layer: str, units: int) -> float:
        return self.seconds.get(layer, 0.0) * 1000.0 / units if units else 0.0


def breakdown(spans: Sequence[Span]) -> Breakdown:
    """Sum self time by layer; operation root spans are named ``op``."""
    own = self_times(spans)
    kinds = {s.request: s.attr("kind") for s in spans if s.parent is None}
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = Breakdown()
    for span in spans:
        layer = layer_of(span, kinds.get(span.request))
        result.seconds[layer] = result.seconds.get(layer, 0.0) + own[span.id]
        result.calls[layer] = result.calls.get(layer, 0) + 1
        if span.name == "compile":
            result.compiles += 1
            result.adom_compiles += bool(span.attr("adom"))
        if span.name == "admission.admit":
            # The controller reports its queue depth on entering and on
            # leaving the wait; the gap between the two is the wait.
            marks = sorted(
                (c for c in children.get(span.id, ()) if c.name == "admission.queue"),
                key=lambda c: c.start,
            )
            if len(marks) >= 2:
                result.admission_wait += marks[-1].start - marks[0].end
    return result
