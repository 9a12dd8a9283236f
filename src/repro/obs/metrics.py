"""Dependency-free metrics registry with Prometheus text exposition.

The fleet needs one vocabulary for "how is it going": counters, gauges
and fixed-bucket histograms, optionally labelled, rendered in the
Prometheus text format (``GET /metrics`` on ``ocqa serve``, the worker
``--metrics-port`` sidecar) and shipped worker->parent inside result
and heartbeat frames while telemetry is on.

Design points:

- **Two registries.**  :data:`REGISTRY` is the process-wide default
  (service, admission, coordinator, transport, campaign, sampler and
  the diagnostics counters).  :data:`WORKER_REGISTRY` holds the
  ``ocqa_worker_*`` shard-executor metrics and is the only thing a
  worker pushes to its parent.  Keeping them separate means an
  in-process :class:`~repro.distributed.worker.WorkerServer` (the unit
  tests run whole fleets in one interpreter) never double-counts: the
  parent renders its own registry plus the *pushed* snapshots, and the
  worker-side increments live in a registry the parent never renders
  directly.
- **Keep-latest remote snapshots.**  Pushed snapshots are cumulative
  per worker, so the parent keeps the latest snapshot per source name
  (mirroring ``diagnostics._WORKER_CACHE_STATS``) and sums across
  sources at render time — monotone per source, no discard protocol.
- **``REPRO_METRICS=0`` kill switch.**  Ordinary metrics drop updates
  when disabled (the benchmark gate measures exactly this delta);
  metrics created with ``always=True`` — the diagnostics-backed fault /
  shed / overload counters that existing reports and tests depend on —
  record unconditionally.

No third-party dependencies; threading only.
"""

from __future__ import annotations

import math
import os
import re
import threading
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "WORKER_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "metrics_enabled",
    "current_tenant",
    "set_tenant",
    "parse_prometheus_text",
    "histogram_quantile",
]

#: Fixed latency buckets (seconds) for query/drain histograms.  Chosen
#: once so dashboards stay comparable across PRs.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

#: Tenant attribution for per-tenant counters: the service sets this
#: around each admitted query; the campaign draw loop reads it so
#: ``ocqa_draws_total{tenant=...}`` increments live mid-campaign.
_TENANT: ContextVar[str] = ContextVar("ocqa_tenant", default="local")


def current_tenant() -> str:
    return _TENANT.get()


def set_tenant(tenant: str):  # type: ignore[no-untyped-def]
    """Bind the current tenant; returns a token for ``reset_tenant``."""
    return _TENANT.set(tenant)


def reset_tenant(token) -> None:  # type: ignore[no-untyped-def]
    _TENANT.reset(token)


def metrics_enabled() -> bool:
    """True unless ``REPRO_METRICS`` disables instrumentation.

    Read per call (not cached): the overhead benchmark toggles the
    environment between interleaved reps inside one process.
    """
    return os.environ.get("REPRO_METRICS", "1").strip().lower() not in (
        "0",
        "false",
        "no",
        "off",
    )


LabelKey = Tuple[str, ...]


class _Metric:
    """Shared machinery: label validation, per-metric lock, reset."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        always: bool = False,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self.always = always
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, Any] = {}
        if not self.labelnames:
            # Label-less metrics expose a 0 sample from birth so
            # presence checks (CI scrapes, `ocqa top`) never race the
            # first increment.
            self._series[()] = self._zero()

    def _zero(self) -> Any:
        return 0.0

    def _key(self, labels: Mapping[str, str]) -> LabelKey:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"expected {sorted(self.labelnames)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _recording(self) -> bool:
        return self.always or metrics_enabled()

    def series(self) -> Dict[LabelKey, Any]:
        """A point-in-time copy of every label series."""
        with self._lock:
            return {key: self._copy_value(value) for key, value in self._series.items()}

    @staticmethod
    def _copy_value(value: Any) -> Any:
        return value

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            if not self.labelnames:
                self._series[()] = self._zero()


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up ({amount})")
        if not self._recording():
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        if not self._recording():
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1, **labels: str) -> None:
        if not self._recording():
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set_max(self, value: float, **labels: str) -> None:
        """Ratchet upward: high-water marks."""
        if not self._recording():
            return
        key = self._key(labels)
        with self._lock:
            if value > self._series.get(key, 0.0):
                self._series[key] = float(value)

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))


class Histogram(_Metric):
    """Fixed-bucket histogram; per-series ``(bucket counts, sum, count)``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        always: bool = False,
    ) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        super().__init__(name, help_text, labelnames, always=always)

    def _zero(self) -> Dict[str, Any]:
        return {"buckets": [0] * len(self.buckets), "sum": 0.0, "count": 0}

    @staticmethod
    def _copy_value(value: Any) -> Any:
        return {
            "buckets": list(value["buckets"]),
            "sum": value["sum"],
            "count": value["count"],
        }

    def observe(self, value: float, **labels: str) -> None:
        if not self._recording():
            return
        key = self._key(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = self._series[key] = self._zero()
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    cell["buckets"][index] += 1
                    break
            cell["sum"] += value
            cell["count"] += 1

    def count_sum(self, **labels: str) -> Tuple[int, float]:
        key = self._key(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                return 0, 0.0
            return int(cell["count"]), float(cell["sum"])


MetricType = Union[Counter, Gauge, Histogram]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labelnames: Sequence[str], key: LabelKey, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(value)}"' for name, value in zip(labelnames, key)
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class MetricsRegistry:
    """Ordered collection of metrics plus remote pushed snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, MetricType]" = {}
        self._order: List[str] = []
        self._remote: Dict[str, Dict[str, Any]] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- definition ---------------------------------------------------

    def _get_or_create(
        self,
        cls,  # type: ignore[no-untyped-def]
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        **kwargs: Any,
    ) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != cls.kind or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            self._order.append(name)
            return metric

    def counter(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        always: bool = False,
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames, always=always)

    def gauge(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        always: bool = False,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames, always=always)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        always: bool = False,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets, always=always
        )

    def get(self, name: str) -> Optional[MetricType]:
        with self._lock:
            return self._metrics.get(name)

    # -- collectors ---------------------------------------------------

    def add_collector(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Register a callback run before each render/snapshot.

        Collectors publish scrape-time gauges (cache infos, transport
        byte totals, uptime) so hot paths carry no duplicate counting.
        """
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)
        return fn

    def remove_collector(self, fn: Callable[[], None]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            try:
                fn()
            except Exception:  # pragma: no cover - a collector must not kill a scrape
                pass

    # -- remote pushes ------------------------------------------------

    def record_remote(self, source: str, snapshot: Mapping[str, Any]) -> None:
        """Keep the latest cumulative snapshot pushed by *source*."""
        if not isinstance(snapshot, Mapping):
            return
        cleaned: Dict[str, Any] = {}
        for name, family in snapshot.items():
            if not isinstance(family, Mapping):
                continue
            series = family.get("series")
            if not isinstance(series, (list, tuple)):
                continue
            cleaned[str(name)] = {
                "type": str(family.get("type", "counter")),
                "help": str(family.get("help", "")),
                "labels": [str(x) for x in family.get("labels", ())],
                "buckets": list(family.get("buckets", ())),
                "series": [
                    [list(map(str, key)), value]
                    for key, value in series
                    if isinstance(key, (list, tuple))
                ],
            }
        with self._lock:
            self._remote[source] = cleaned

    def discard_remote(self, source: str) -> None:
        with self._lock:
            self._remote.pop(source, None)

    def remote_sources(self) -> List[str]:
        with self._lock:
            return sorted(self._remote)

    # -- export -------------------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """JSON-safe cumulative snapshot of local metrics (no remotes).

        This is the wire format workers push on result and heartbeat
        frames, consumed by :meth:`record_remote` on the other side.
        """
        self._run_collectors()
        with self._lock:
            metrics = [self._metrics[name] for name in self._order]
        out: Dict[str, Any] = {}
        for metric in metrics:
            if prefix is not None and not metric.name.startswith(prefix):
                continue
            family: Dict[str, Any] = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
                "series": [
                    [list(key), value] for key, value in sorted(metric.series().items())
                ],
            }
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
            out[metric.name] = family
        return out

    def _merged_families(self) -> List[Dict[str, Any]]:
        """Local families with remote contributions summed in."""
        local = self.snapshot()
        with self._lock:
            remotes = {name: dict(snap) for name, snap in self._remote.items()}
        order: List[str] = list(local)
        merged: Dict[str, Dict[str, Any]] = {
            name: {
                **family,
                "series": {tuple(k): v for k, v in family["series"]},
            }
            for name, family in local.items()
        }
        for snap in remotes.values():
            for name, family in snap.items():
                target = merged.get(name)
                if target is None:
                    target = merged[name] = {
                        "type": family["type"],
                        "help": family["help"],
                        "labels": list(family["labels"]),
                        "buckets": list(family.get("buckets", ())),
                        "series": {},
                    }
                    order.append(name)
                if target["type"] != family["type"] or list(
                    target["labels"]
                ) != list(family["labels"]):
                    continue  # incompatible push; skip rather than corrupt
                series: Dict[LabelKey, Any] = target["series"]
                for key_list, value in family["series"]:
                    key = tuple(key_list)
                    series[key] = _merge_values(
                        target["type"], series.get(key), value
                    )
        return [{"name": name, **merged[name]} for name in order]

    def render(self) -> str:
        """Prometheus text exposition (local + remote-merged)."""
        lines: List[str] = []
        for family in self._merged_families():
            name = family["name"]
            labelnames = list(family["labels"])
            lines.append(f"# HELP {name} {_escape_help(family['help'])}")
            lines.append(f"# TYPE {name} {family['type']}")
            series = sorted(family["series"].items())
            if family["type"] == "histogram":
                bounds = [float(b) for b in family.get("buckets", ())]
                for key, cell in series:
                    if not isinstance(cell, Mapping):
                        continue
                    cumulative = 0
                    counts = list(cell.get("buckets", ()))
                    for bound, count in zip(bounds, counts):
                        cumulative += int(count)
                        le = _format_value(bound)
                        labels = _labels_text(labelnames, key, f'le="{le}"')
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _labels_text(labelnames, key, 'le="+Inf"')
                    lines.append(f"{name}_bucket{labels} {int(cell.get('count', 0))}")
                    plain = _labels_text(labelnames, key)
                    lines.append(
                        f"{name}_sum{plain} {_format_value(float(cell.get('sum', 0.0)))}"
                    )
                    lines.append(f"{name}_count{plain} {int(cell.get('count', 0))}")
            else:
                for key, value in series:
                    labels = _labels_text(labelnames, key)
                    lines.append(f"{name}{labels} {_format_value(float(value))}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every series and forget remote snapshots (tests)."""
        with self._lock:
            metrics = [self._metrics[name] for name in self._order]
            self._remote.clear()
        for metric in metrics:
            metric.reset()


def _merge_values(kind: str, current: Any, incoming: Any) -> Any:
    if kind == "histogram":
        if not isinstance(incoming, Mapping):
            return current
        if not isinstance(current, Mapping):
            return {
                "buckets": list(incoming.get("buckets", ())),
                "sum": float(incoming.get("sum", 0.0)),
                "count": int(incoming.get("count", 0)),
            }
        ours = list(current.get("buckets", ()))
        theirs = list(incoming.get("buckets", ()))
        if len(theirs) > len(ours):
            ours.extend([0] * (len(theirs) - len(ours)))
        for index, count in enumerate(theirs):
            ours[index] += int(count)
        return {
            "buckets": ours,
            "sum": float(current.get("sum", 0.0)) + float(incoming.get("sum", 0.0)),
            "count": int(current.get("count", 0)) + int(incoming.get("count", 0)),
        }
    try:
        incoming_value = float(incoming)
    except (TypeError, ValueError):
        return current
    if current is None:
        return incoming_value
    return float(current) + incoming_value


#: Process-wide default registry: service, coordinator, transport,
#: campaign, sampler and diagnostics metrics, plus remote worker pushes.
REGISTRY = MetricsRegistry()

#: Shard-executor metrics (``ocqa_worker_*``): what a worker pushes to
#: its parent, and what the ``--metrics-port`` sidecar serves alongside
#: the default registry.  Separate so in-process workers (unit tests,
#: local fleets) never double-count through the push path.
WORKER_REGISTRY = MetricsRegistry()


# -- scrape-side helpers (ocqa top, CI validation, tests) -------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)(?:\s+\d+)?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    # Left-to-right scan: chained str.replace would corrupt sequences
    # like ``\\n`` (an escaped backslash followed by a literal ``n``).
    out: List[str] = []
    index = 0
    while index < len(value):
        ch = value[index]
        if ch == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            if nxt == "n":
                out.append("\n")
                index += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                index += 2
                continue
        out.append(ch)
        index += 1
    return "".join(out)


def parse_prometheus_text(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse exposition text into ``{sample_name: [(labels, value)]}``.

    Strict on sample lines (raises ``ValueError`` on garbage — CI uses
    this to *validate* the format), tolerant of comments and blanks.
    ``_bucket``/``_sum``/``_count`` samples keep their suffixed names.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            stripped = _LABEL_RE.sub("", label_text).replace(",", "").strip()
            if stripped:
                raise ValueError(f"unparseable labels in line: {raw!r}")
            for name, value in _LABEL_RE.findall(label_text):
                labels[name] = _unescape_label(value)
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def histogram_quantile(
    buckets: Iterable[Tuple[float, float]], quantile: float
) -> Optional[float]:
    """Interpolated quantile from cumulative ``(le, count)`` pairs.

    Mirrors PromQL's ``histogram_quantile``: linear within the target
    bucket, clamped to the highest finite bound for the +Inf bucket.
    Returns ``None`` on an empty histogram.
    """
    ordered = sorted(buckets, key=lambda pair: pair[0])
    if not ordered:
        return None
    total = ordered[-1][1]
    if total <= 0:
        return None
    rank = quantile * total
    previous_bound = 0.0
    previous_count = 0.0
    for bound, count in ordered:
        if count >= rank:
            if math.isinf(bound):
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound = 0.0 if math.isinf(bound) else bound
        previous_count = count
    return previous_bound
