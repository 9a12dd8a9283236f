"""Metric names, how each is computed, and the printed tables."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from measure import (
    RECONCILE_TOLERANCE,
    Breakdown,
    Tally,
    beyond,
    percentile,
    reconcile,
    tail_percentile,
)

#: ``(name, unit)`` of every metric a ``--trace 0`` run prints last.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: ``(name, unit)`` of every metric a ``--trace 1`` run prints last.  A
#: layer a workload never calls reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("server.http_ms", "ms/op"),
    ("service.handle_ms", "ms/call"),
    ("parse.self_ms", "ms/call"),
    ("cache.key_ms", "ms/call"),
    ("cache.lookup_ms", "ms/call"),
    ("cache.put_ms", "ms/call"),
    ("cache.apply_update_ms", "ms/call"),
    ("cache.hit_ratio", "fraction"),
    ("cache.invalidated_per_update", "count"),
    ("cache.migrated_per_update", "count"),
    ("admission.admit_ms", "ms/call"),
    ("admission.wait_ms", "ms/call"),
    ("admission.sheds", "count"),
    ("backend.load_ms", "ms/call"),
    ("violations.build_ms", "ms/call"),
    ("compile.self_ms", "ms/call"),
    ("compile.adom_share", "fraction"),
    ("sampling.deletions_ms_per_draw", "ms/draw"),
    ("columnar.range_share", "fraction"),
    ("columnar.outcomes_ms_per_draw", "ms/draw"),
    ("outcomes.loop_ms_per_draw", "ms/draw"),
    ("rewriting.mark_ms_per_draw", "ms/draw"),
    ("rewriting.clear_ms_per_draw", "ms/draw"),
    ("eval.ms_per_draw", "ms/draw"),
    ("campaign.tally_ms_per_draw", "ms/draw"),
    ("update.apply_ms", "ms/call"),
    ("update.reload_ms", "ms/call"),
    ("fleet.raw_bytes_per_draw", "bytes/draw"),
    ("fleet.wire_bytes_per_draw", "bytes/draw"),
    ("fleet.frames", "count"),
    ("fleet.context_ships", "count"),
    ("fleet.dispatch_ms", "ms/call"),
    ("fleet.releases", "count"),
    ("fleet.inline_shards", "count"),
    ("trace.unattributed_ms", "ms/op"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "fraction"),
    ("trace.reconcile_error", "fraction"),
    ("trace.varying_counts", "count"),
    ("trace.ops", "count"),
    ("trace.draws", "count"),
)

#: Operation kinds the table breaks timings down by: computed queries,
#: cache hits, updates and API campaigns.
OP_KINDS = ("query", "hit", "update", "campaign")


def end_to_end(
    tally: Tally, setups: Sequence[float], wall: float, rss_mb: float
) -> Dict[str, float]:
    """The gated metrics of one timed run (successful operations only).

    With no successful operation the latencies read 0; such a run has
    failed its checks anyway.
    """
    timed = [o for o in tally.outcomes if o.kind != "verify"]
    latencies = Tally(timed).latencies_ms()
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "op_p90_ms": percentile(latencies, 90) if latencies else 0.0,
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": rss_mb,
    }


def _timing_rows(name: str, values: List[float]) -> List[str]:
    """Median plus the highest percentile with ten samples beyond it."""
    if not values:
        return []
    rows = [f"  {name}_p50_ms {percentile(values, 50):12.4f} ms   n={len(values)}"]
    tail = tail_percentile(len(values))
    for pct in (90.0,) + ((tail,) if tail and tail > 90.0 else ()):
        note = "" if beyond(len(values), pct) >= 10 else "  (fewer than 10 beyond)"
        label = f"p{pct:g}"
        rows.append(
            f"  {name}_{label}_ms {percentile(values, pct):12.4f} ms   "
            f"n={len(values)}{note}"
        )
    return rows


def end_to_end_table(
    workload: str,
    tally: Tally,
    setups: Sequence[float],
    wall: float,
    metrics: Dict[str, float],
) -> List[str]:
    """Every end-to-end metric by name, unit and sample count."""
    timed = Tally([o for o in tally.outcomes if o.kind != "verify"])
    lines = [
        f"{workload}: {timed.attempted} operations in {wall:.3f} s",
        f"  setup_s {metrics['setup_s']:.4f} s   (median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups)
        + ")",
    ]
    lines += _timing_rows("op", timed.latencies_ms())
    for kind in OP_KINDS:
        lines += _timing_rows(kind, timed.latencies_ms([kind]))
    lines.append(
        f"  ops_per_s {metrics['ops_per_s']:.4f} 1/s   "
        f"n={len(timed.latencies_ms())}"
    )
    draws = timed.draws()
    if draws:
        lines.append(f"  draws_per_s {draws / wall:.4f} 1/s   draws={draws}")
    lines.append(
        f"  error_rate {tally.error_rate():.4f}   "
        f"({tally.failed} failed of {tally.attempted} attempted, checks included)"
    )
    lines.append(f"  peak_rss_mb {metrics['peak_rss_mb']:.2f} MiB")
    for error in sorted(set(tally.errors()))[:10]:
        lines.append(f"  FAILED: {error}")
    return lines


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    b: Breakdown,
    *,
    draws: int,
    ops: int,
    updates: int,
    counts: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from one traced replay and its counters."""
    m = {
        "service.handle_ms": b.per_call_ms("service.handle"),
        "parse.self_ms": b.per_call_ms("parse"),
        "cache.key_ms": b.per_call_ms("cache.key"),
        "cache.lookup_ms": b.per_call_ms("cache.lookup"),
        "cache.put_ms": b.per_call_ms("cache.put"),
        "cache.apply_update_ms": b.per_call_ms("cache.apply_update"),
        "cache.hit_ratio": _ratio(
            counts.get("cache.hits", 0.0),
            counts.get("cache.hits", 0.0) + counts.get("cache.misses", 0.0),
        ),
        "cache.invalidated_per_update": _ratio(
            counts.get("cache.invalidations", 0.0), updates
        ),
        "cache.migrated_per_update": _ratio(
            counts.get("cache.migrations", 0.0), updates
        ),
        "admission.admit_ms": b.per_call_ms("admission.admit"),
        "admission.wait_ms": _ratio(
            b.admission_wait * 1000.0, b.calls.get("admission.admit", 0)
        ),
        "admission.sheds": counts.get("admission.decisions", 0.0)
        - counts.get("admission.admitted", 0.0),
        "backend.load_ms": b.per_call_ms("backend.load"),
        "violations.build_ms": b.per_call_ms("violations.build"),
        "compile.self_ms": b.per_call_ms("compile"),
        "compile.adom_share": _ratio(b.adom_compiles, b.compiles),
        "sampling.deletions_ms_per_draw": b.per_unit_ms("sampling.deletions", draws),
        "columnar.range_share": _ratio(
            counts.get("draw_ranges.columnar", 0.0),
            counts.get("draw_ranges.columnar", 0.0)
            + counts.get("draw_ranges.object", 0.0),
        ),
        "columnar.outcomes_ms_per_draw": b.per_unit_ms("columnar.outcomes", draws),
        "outcomes.loop_ms_per_draw": b.per_unit_ms("outcomes.loop", draws),
        "rewriting.mark_ms_per_draw": b.per_unit_ms("rewriting.mark", draws),
        "rewriting.clear_ms_per_draw": b.per_unit_ms("rewriting.clear", draws),
        "eval.ms_per_draw": b.per_unit_ms("eval", draws),
        "campaign.tally_ms_per_draw": b.per_unit_ms("campaign.tally", draws),
        "update.apply_ms": b.per_call_ms("update.apply"),
        "update.reload_ms": b.per_call_ms("update.reload"),
        "fleet.dispatch_ms": b.per_call_ms("fleet.dispatch"),
        "trace.unattributed_ms": b.per_call_ms("op"),
        "trace.ops": float(ops),
        "trace.draws": float(draws),
    }
    m.update(extra)
    return {name: float(m.get(name, 0.0)) for name, _unit in PER_LAYER}


def compare_counts(
    runs: Dict[str, Dict[str, float]]
) -> Tuple[Dict[str, bool], List[str]]:
    """Which counts repeat exactly across the paired runs.

    *runs* maps a run label to its counts; a count missing from a run
    is not compared there.  Returns ``{count: exact}`` and table lines.
    """
    names: List[str] = []
    for counts in runs.values():
        names += [n for n in counts if n not in names]
    exact: Dict[str, bool] = {}
    lines = []
    for name in names:
        seen = {label: counts[name] for label, counts in runs.items() if name in counts}
        same = len(set(seen.values())) == 1
        exact[name] = same
        values = ", ".join(f"{label}={value:g}" for label, value in seen.items())
        lines.append(f"  {name:32s} {'exact' if same else 'VARYING'}   {values}")
    return exact, lines


def layer_table(
    b: Breakdown, traced_wall: float, plain_wall: float, busy: float
) -> Tuple[float, List[str]]:
    """Self time per layer against the traced clients' wall clocks."""
    error = reconcile(b.seconds, busy)
    lines = [f"  {'layer':28s} {'calls':>7s} {'self ms':>11s} {'share':>7s}"]
    for layer, seconds in sorted(b.seconds.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {layer:28s} {b.calls[layer]:7d} {seconds * 1000:11.2f} "
            f"{seconds / busy:7.1%}"
        )
    total = sum(b.seconds.values())
    lines.append(
        f"  {'sum of self times':28s} {'':7s} {total * 1000:11.2f} {total / busy:7.1%}"
        f"   vs clients' traced wall {busy * 1000:.2f} ms"
    )
    verdict = "within" if error <= RECONCILE_TOLERANCE else "OUTSIDE"
    lines.append(
        f"  reconciliation error {error:.2%} ({verdict} the "
        f"{RECONCILE_TOLERANCE:.0%} tolerance)"
    )
    lines.append(
        f"  tracing overhead {(traced_wall - plain_wall) * 1000:.2f} ms "
        f"(traced {traced_wall * 1000:.2f} ms vs untraced {plain_wall * 1000:.2f} ms)"
    )
    return error, lines


def metric_lines(
    metrics: Dict[str, float], spec: Sequence[Tuple[str, str]]
) -> List[str]:
    return [f"  {name:32s} {metrics[name]:14.6f} {unit}" for name, unit in spec]


def result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    spec: Sequence[Tuple[str, str]],
) -> Dict:
    """The JSON object a run prints as its last line."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": metrics[name],
                "unit": unit,
            }
            for name, unit in spec
        },
    }
