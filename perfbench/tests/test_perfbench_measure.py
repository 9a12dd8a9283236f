"""The benchmark's own arithmetic, on hand-made inputs."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
if str(HERE) not in sys.path:
    sys.path.append(str(HERE))

import instances  # noqa: E402
import report  # noqa: E402
import servebench  # noqa: E402
from measure import (  # noqa: E402
    Outcome,
    Span,
    Tally,
    beyond,
    breakdown,
    percentile,
    reconcile,
    self_times,
    tail_percentile,
)


# --- the "highest percentile with ten samples beyond it" rule ---------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # the median of 19 has only 9 samples above it
        (20, 50.0),
        (99, 50.0),  # p90 of 99 is the 90th sample: 9 beyond
        (100, 90.0),
        (999, 90.0),  # p99 of 999 is the 990th sample: 9 beyond
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert beyond(count, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([5.0], 90) == 5.0
    assert percentile([3, 1, 2], 50) == 2


# --- self time ---------------------------------------------------------------


def span(id, name, start, end, parent=None, request=1, **attrs):
    return Span(id, name, start, end, parent, request, tuple(attrs.items()))


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, "op", 0.0, 10.0, kind="query"),
        span(2, "a", 1.0, 5.0, parent=1),
        span(3, "b", 2.0, 3.0, parent=2),
        span(4, "c", 6.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(1, "op", 0.0, 10.0),
        span(2, "x", 1.0, 6.0, parent=1),  # children on two threads
        span(3, "y", 4.0, 8.0, parent=1),
        span(4, "z", 9.0, 12.0, parent=1),  # runs past its parent
    ]
    own = self_times(spans)
    # Covered: [1, 8] and [9, 10] -> 8 of the parent's 10.
    assert own[1] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)


# --- reconciliation ----------------------------------------------------------


def test_layer_self_times_add_up_to_the_operations():
    spans = [
        span(1, "op", 0.0, 4.0, request=1, kind="query"),
        span(2, "eval", 1.0, 3.0, parent=1, request=1),
        span(3, "op", 4.0, 6.0, request=2, kind="update"),
        span(4, "backend.load", 4.5, 5.0, parent=3, request=2),
        span(5, "backend.load", 1.0, 1.5, parent=2, request=1),
    ]
    b = breakdown(spans)
    assert sum(b.seconds.values()) == pytest.approx(6.0)
    # A load inside an /update is the update path's reload.
    assert b.seconds["update.reload"] == pytest.approx(0.5)
    assert b.seconds["backend.load"] == pytest.approx(0.5)
    assert reconcile(b.seconds, 6.0) == pytest.approx(0.0)
    assert reconcile(b.seconds, 6.6) == pytest.approx(0.6 / 6.6)


def test_breakdown_splits_draw_ranges_and_counts_adom_compiles():
    spans = [
        span(1, "op", 0.0, 10.0, kind="campaign"),
        span(2, "outcomes", 1.0, 3.0, parent=1, columnar=True),
        span(3, "outcomes", 3.0, 6.0, parent=1, columnar=False),
        span(4, "compile", 6.0, 7.0, parent=1, adom=True),
        span(5, "compile", 7.0, 7.5, parent=1, adom=False),
    ]
    b = breakdown(spans)
    assert b.seconds["columnar.outcomes"] == pytest.approx(2.0)
    assert b.seconds["outcomes.loop"] == pytest.approx(3.0)
    assert (b.adom_compiles, b.compiles) == (1, 2)
    metrics = report.per_layer(b, draws=10, ops=1, updates=0, counts={}, extra={})
    assert metrics["compile.adom_share"] == 0.5
    assert metrics["columnar.outcomes_ms_per_draw"] == pytest.approx(200.0)


def test_admission_wait_is_the_gap_between_queue_marks():
    spans = [
        span(1, "op", 0.0, 5.0),
        span(2, "admission.admit", 0.0, 4.0, parent=1),
        span(3, "admission.queue", 0.5, 0.6, parent=2),
        span(4, "admission.queue", 3.6, 3.7, parent=2),
    ]
    assert breakdown(spans).admission_wait == pytest.approx(3.0)


# --- error rate ----------------------------------------------------------------


def test_refusals_and_wrong_answers_are_failures_without_latency():
    tally = Tally()
    tally.add(Outcome("hit", 0.002, True))
    tally.add(Outcome("query", 0.5, False, error="HTTP 429: overloaded"))
    tally.add(Outcome("query", 0.2, False, error="answer differs"))
    tally.add(Outcome("update", 0.004, True))
    assert tally.attempted == 4
    assert tally.failed == 2
    assert tally.error_rate() == 0.5
    assert tally.latencies_ms() == pytest.approx([2.0, 4.0])


def test_service_replies_are_checked():
    assert servebench.refused(429, {"ok": False, "error": "shed"}) == "HTTP 429: shed"
    assert servebench.refused(503, {"ok": False}) is not None
    assert servebench.refused(200, {"ok": True}) is None

    workload = servebench.cached_workload(3, 1)
    key = workload.primed[0]
    name, seed = key
    computed = {"ok": True, "frequencies": [[["k1"], 1.0]], "runs": 20}
    op = instances.Op("query", name, seed)
    replies = [
        servebench.Reply(0, 0, op, 200, dict(computed, cached=True), 0.001),
        servebench.Reply(
            0, 1, op, 200, dict(computed, cached=True, runs=21), 0.001
        ),
        servebench.Reply(0, 2, op, 429, {"ok": False, "error": "shed"}, 0.1),
    ]
    tally = servebench.check_cached(
        workload, replies, {key: servebench.core(computed)}
    )
    assert [o.ok for o in tally.outcomes] == [True, False, False]
    assert tally.latencies_ms() == pytest.approx([1.0])


# --- inputs --------------------------------------------------------------------


def test_cached_mix_is_fixed_per_cycle_and_seeded():
    ops = instances.cached_ops(7, 3)
    assert ops == instances.cached_ops(7, 3)
    for cycle in range(3):
        chunk = ops[cycle * instances.CYCLE : (cycle + 1) * instances.CYCLE]
        assert chunk[0].kind == "update" and chunk[0].relation == "R"
        s_updates = [i for i, op in enumerate(chunk) if op.relation == "S"]
        assert len(s_updates) == instances.CYCLE_S_UPDATES
        s_queries = [i for i, op in enumerate(chunk) if op.query == "sx"]
        assert len(s_queries) == 2 and min(s_queries) > s_updates[0]
    database = instances.serve_instance(7)
    assert all(instances.apply_op(database, op) for op in ops if op.kind == "update")


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER
    )
