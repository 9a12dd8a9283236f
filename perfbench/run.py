"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve_cached --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

``BENCHMARK.json`` gates serve_cached, api_campaign and fleet_campaign.
serve_recompute runs here too (by name, or in ``all``) but is not gated:
within the time all gated runs may take, a fourth gated workload would
make every run too short to be steady on a shared machine.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that splits each workload's
time across the program's layers.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("serve_recompute", "serve_cached", "api_campaign", "fleet_campaign")
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(lines: List[str]) -> None:
    for line in lines:
        print(line)
    sys.stdout.flush()


def timed_run(args: argparse.Namespace) -> int:
    import campaigns
    import report
    import servebench

    module = servebench if args.workload in servebench.WORKLOADS else campaigns
    result = module.timed(args.workload, args.seed, args.seconds, SETUPS)
    metrics = report.end_to_end(
        result.tally, result.setups, result.wall_seconds, result.peak_rss_mb
    )
    emit(
        report.end_to_end_table(
            args.workload, result.tally, result.setups, result.wall_seconds, metrics
        )
    )
    correct = result.tally.failed == 0
    print(
        json.dumps(
            report.result(
                correct,
                result.tally.attempted,
                result.tally.failed,
                metrics,
                report.END_TO_END,
            )
        )
    )
    return 0 if correct else 1


@dataclass
class TraceRun:
    """What the per-layer metrics of one traced run are computed from."""

    layers: Any  # measure.Breakdown
    tally: Any  # measure.Tally
    traced_wall: float
    plain_wall: float
    #: Sum over clients of each client's traced wall clock.
    busy: float
    draws: int
    ops: int
    updates: int
    counts: Dict[str, float]
    exact: Dict[str, bool]
    count_lines: List[str]
    extra: Dict[str, float]


def _serve_trace(args: argparse.Namespace) -> TraceRun:
    """A service workload: socket phase, then in-process replays."""
    import report
    import servebench
    import spans
    from measure import breakdown

    run = servebench.traced(args.workload, args.seed, args.seconds)
    spans.write_spans(str(spans_path(args)), run.traced.spans)
    replies = [r for client in run.traced.replies for r in client]
    draws = sum(
        int(r.body.get("runs") or 0)
        for r in replies
        if r.op.kind == "query" and not r.body.get("cached")
    )
    updates = sum(1 for r in replies if r.op.kind == "update")
    exact, count_lines = report.compare_counts(
        {
            "socket": run.socket_counts,
            "untraced": run.plain.counts,
            "traced": run.traced.counts,
        }
    )
    extra = {
        "server.http_ms": servebench.http_overhead_ms(run.socket, run.plain.replies)
    }
    return TraceRun(
        breakdown(run.traced.spans),
        run.tally,
        run.traced.wall_seconds,
        run.plain.wall_seconds,
        run.traced.busy_seconds,
        draws,
        len(replies),
        updates,
        run.traced.counts,
        exact,
        count_lines,
        extra,
    )


def _campaign_trace(args: argparse.Namespace) -> TraceRun:
    """An API workload: replays in its program process."""
    import campaigns
    import report
    import spans
    from measure import breakdown

    run = campaigns.traced(args.workload, args.seed, args.seconds)
    traced_spans = spans.read_spans(run["spans_path"])
    # The tally holds the untraced replay's operations, then as many traced.
    ops = len(run["tally"].outcomes) // 2
    traced_outcomes = run["tally"].outcomes[ops:]
    draws = sum(o.draws for o in traced_outcomes)
    exact, count_lines = report.compare_counts(
        {"untraced": run["plain_counts"], "traced": run["traced_counts"]}
    )
    extra: Dict[str, float] = {}
    if run["traced_fleet"]:
        per_campaign = run["plain_fleet"] + run["traced_fleet"]
        for name in ("raw_bytes", "wire_bytes", "frames", "context_ships",
                     "releases", "inline_shards"):
            values = [c[name] for c in per_campaign]
            same = len(set(values)) == 1
            exact[f"fleet.{name}"] = same
            lo, hi = min(values), max(values)
            count_lines.append(
                f"  fleet.{name:26s} {'exact' if same else 'VARYING'}   "
                f"per campaign {lo:g}..{hi:g} over {len(values)} campaigns"
            )
        traced_fleet = run["traced_fleet"]

        def median_of(name: str, per_draw: bool = False) -> float:
            return statistics.median(
                c[name] / c["draws"] if per_draw else c[name] for c in traced_fleet
            )

        extra = {
            "fleet.raw_bytes_per_draw": median_of("raw_bytes", True),
            "fleet.wire_bytes_per_draw": median_of("wire_bytes", True),
            "fleet.frames": median_of("frames"),
            "fleet.context_ships": median_of("context_ships"),
            "fleet.releases": float(sum(c["releases"] for c in traced_fleet)),
            "fleet.inline_shards": float(sum(c["inline_shards"] for c in traced_fleet)),
        }
    return TraceRun(
        breakdown(traced_spans),
        run["tally"],
        run["traced_wall"],
        run["plain_wall"],
        run["traced_wall"],
        draws,
        ops,
        0,
        run["traced_counts"],
        exact,
        count_lines,
        extra,
    )


def spans_path(args: argparse.Namespace) -> Path:
    from procs import RUN_DIR

    RUN_DIR.mkdir(parents=True, exist_ok=True)
    return RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"


def traced_run(args: argparse.Namespace) -> int:
    import report
    from measure import RECONCILE_TOLERANCE

    serve = args.workload.startswith("serve_")
    t = (_serve_trace if serve else _campaign_trace)(args)
    tally = t.tally
    error, table = report.layer_table(t.layers, t.traced_wall, t.plain_wall, t.busy)
    t.extra.update(
        {
            "trace.overhead_ms": (t.traced_wall - t.plain_wall) * 1000.0,
            "trace.overhead_share": (t.traced_wall - t.plain_wall) / t.plain_wall,
            "trace.reconcile_error": error,
            "trace.varying_counts": float(
                sum(1 for same in t.exact.values() if not same)
            ),
        }
    )
    metrics = report.per_layer(
        t.layers,
        draws=t.draws,
        ops=t.ops,
        updates=t.updates,
        counts=t.counts,
        extra=t.extra,
    )
    emit(
        [f"{args.workload}: traced replay of {t.ops} operations, {t.draws} draws"]
        + table
        + ["counts that must repeat exactly (paired runs):"]
        + t.count_lines
        + ["per-layer metrics:"]
        + report.metric_lines(metrics, report.PER_LAYER)
        + [
            f"  error_rate {tally.error_rate():.4f} "
            f"({tally.failed} failed of {tally.attempted})"
        ]
        + [f"  FAILED: {e}" for e in sorted(set(tally.errors()))[:10]]
    )
    reconciled = error <= RECONCILE_TOLERANCE
    correct = tally.failed == 0 and reconciled
    print(
        json.dumps(
            report.result(
                correct, tally.attempted, tally.failed, metrics, report.PER_LAYER
            )
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own processes."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            last = json.loads(lines[-1]) if lines else None
        except ValueError:
            last = None
        emit(lines if last is None else lines[:-1])
        if proc.returncode != 0 or last is None:
            status = 1
            combined["correct"] = False
        if last is not None:
            combined["correct"] = combined["correct"] and last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for name, value in last["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; run "
            "from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)
    try:
        return traced_run(args) if args.trace else timed_run(args)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
