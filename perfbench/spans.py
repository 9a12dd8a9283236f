"""In-memory span recording around the program's public entry points.

The benchmark does not change the program: :class:`Tracing` replaces
each traced function or method with a wrapper that records a span, and
puts the originals back on exit.  Spans stay in memory until
the run ends, when :func:`write_spans` stores them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from measure import Span

#: ``(module, qualified name, span name)`` of every traced entry point.
#: A dotted qualified name is a method, patched on the class named.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.io", "database_from_json", "parse"),
    ("repro.constraints.parser", "parse_constraints", "parse"),
    ("repro.queries.parser", "parse_query", "parse"),
    ("repro.queries.parser", "parse_cq", "parse"),
    ("repro.service.server", "QueryService.handle_query", "service.handle"),
    ("repro.service.server", "QueryService.handle_update", "service.handle"),
    ("repro.service.cache", "request_cache_key", "cache.key"),
    ("repro.service.cache", "ResultCache.get", "cache.lookup"),
    ("repro.service.cache", "ResultCache.put", "cache.put"),
    ("repro.service.cache", "ResultCache.apply_update", "cache.apply_update"),
    ("repro.service.admission", "AdmissionController.admit", "admission.admit"),
    ("repro.diagnostics", "record_queue_depth", "admission.queue"),
    ("repro.sql.backend", "SQLBackend.load", "backend.load"),
    ("repro.sql.sampler", "KeyRepairSampler.__init__", "violations.build"),
    ("repro.sql.generic", "ConstraintRepairSampler.__init__", "violations.build"),
    ("repro.sql.sampler", "KeyRepairSampler.deletions_for_range", "sampling.deletions"),
    (
        "repro.sql.generic",
        "ConstraintRepairSampler.deletions_for_range",
        "sampling.deletions",
    ),
    ("repro.sql.sampler", "BaseCampaignSampler.compile", "compile"),
    ("repro.sql.sampler", "BaseCampaignSampler.outcomes_for_range", "outcomes"),
    ("repro.sql.rewriting", "DeletionRewriter.mark_deleted", "rewriting.mark"),
    ("repro.sql.rewriting", "DeletionRewriter.clear", "rewriting.clear"),
    ("repro.sql.compiler", "CompiledQuery.run", "eval"),
    ("repro.campaign", "SamplingCampaign.estimate", "campaign.tally"),
    ("repro.sql.generic", "ConstraintRepairSampler.apply_update", "update.apply"),
    ("repro.distributed.coordinator", "Coordinator.run_range", "fleet.dispatch"),
)


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Optional[int]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self, name: str, request: Optional[int] = None, **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        """Time the body as a child of this thread's innermost open span.

        The yielded dict takes attributes known only once the call
        returns.  The request id is inherited from the parent unless
        given.
        """
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        with self._lock:
            span_id = next(self._ids)
        request = inherited if request is None else request
        stack.append((span_id, request))
        extra: Dict[str, Any] = dict(attrs)
        start = time.perf_counter()
        try:
            yield extra
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(
                span_id, name, start, end, parent, request, tuple(extra.items())
            )
            with self._lock:
                self.spans.append(record)


def _draw_ranges(path: str) -> float:
    from repro.obs import metrics

    counter = metrics.REGISTRY.get("ocqa_draw_ranges_total")
    return counter.value(path=path) if counter is not None else 0.0


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    if name == "compile":

        @functools.wraps(fn)
        def compiled(*args: Any, **kwargs: Any) -> Any:
            from repro.sql.dialect import ADOM_TABLE

            with recorder.span(name) as extra:
                result = fn(*args, **kwargs)
                extra["adom"] = ADOM_TABLE in result.sql
                return result

        return compiled
    if name == "outcomes":

        @functools.wraps(fn)
        def outcomes(*args: Any, **kwargs: Any) -> Any:
            # The public draw-range counter names the path each range
            # took.  Only one thread draws at a time in the replays that
            # reach the columnar path, so the delta is this call's.
            before = _draw_ranges("columnar")
            with recorder.span(name) as extra:
                result = fn(*args, **kwargs)
                extra["columnar"] = _draw_ranges("columnar") > before
                return result

        return outcomes

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with recorder.span(name):
            return fn(*args, **kwargs)

    return traced


class Tracing:
    """Wraps every target while active, then puts the originals back.

    Module-level aliases made by ``from x import f`` are wrapped too.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracing":
        import importlib

        for module_name, qualname, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = _wrap(self.recorder, span_name, original)
            self._patch(owner, attr, original, wrapper)
            if owner_name:
                continue
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "") or ""
                if other is module or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, alias, original, wrapper)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path: str, spans: List[Span]) -> None:
    """Store spans as JSON lines (one span a line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(
                json.dumps(
                    {
                        "id": span.id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "request": span.request,
                        "attrs": dict(span.attrs),
                    },
                    default=str,
                )
                + "\n"
            )


def read_spans(path: str) -> List[Span]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            spans.append(
                Span(
                    item["id"],
                    item["name"],
                    item["start"],
                    item["end"],
                    item["parent"],
                    item["request"],
                    tuple(item["attrs"].items()),
                )
            )
    return spans
