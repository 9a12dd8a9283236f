#!/usr/bin/env python
"""Benchmark regression gate: fail CI when a hot path got slower.

Compares a fresh ``run_benchmarks.py --quick`` report against the
committed per-PR baseline (``BENCH_PR10.json``) and exits non-zero when a
gated metric regressed beyond the tolerance band.

Two deliberate design points:

- **Only size-stable keys are gated.**  ``--quick`` shrinks most
  scenario sizes, so their timings are incomparable with the committed
  full-size baselines; the keys in :data:`GATED_KEYS` run identical
  parameters in both modes and are the only apples-to-apples
  comparisons available.
- **Machine-speed normalization.**  CI runners are not the container
  the baseline was recorded on, so raw wall-clock ratios mix machine
  speed with code speed.  The gate computes each key's
  ``report / baseline`` ratio and takes the *median* ratio as the
  machine factor; a key fails only when its ratio exceeds the median by
  more than the tolerance (default 25%) — i.e. when it got slower
  *relative to the other hot paths*, which is what a code regression
  looks like.  ``--absolute`` disables the normalization for
  same-machine comparisons (e.g. re-running on the reference
  container).

Timings under the floor (default 5 ms) never fail the gate: at that
scale the noise exceeds any signal.

Usage::

    python benchmarks/run_benchmarks.py --quick --output bench-quick.json
    python benchmarks/check_regression.py --baseline BENCH_PR10.json \
        --report bench-quick.json [--tolerance 0.25] [--floor-ms 5]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Scenario keys whose parameters are identical under ``--quick`` and a
#: full run (see the scenario functions in ``run_benchmarks.py``) — the
#: only keys comparable against the committed full-mode baseline.
GATED_KEYS = (
    "e1_paper_chain_explore",
    "e5_exact_explore_conflicts_1",
    "e5_exact_explore_conflicts_2",
    "e10_sample_walks_groups_2",
    "e10_sample_walks_groups_4",
    # The chaos-hardening overhead pair (PR 6): gating *both* sides keeps
    # the armed failpoint registry's cost in band — if only the guarded
    # key ever slowed, the no-fault overhead grew.
    "e15_chaos_guarded_seconds",
    "e15_chaos_unguarded_seconds",
    # The admission+deadline no-load overhead (PR 7): a guarded/unguarded
    # *fraction*, not a wall clock — gated absolutely (see ABSOLUTE_CAPS),
    # excluded from the median machine-factor normalization.
    "scenario_admission_overhead",
    # The telemetry no-load overhead (PR 9): the same shape as the
    # admission fraction — instrumented/disabled wall-clock ratio for an
    # identical campaign, gated absolutely below.
    "scenario_metrics_overhead",
    # The columnar draw engine (PR 8): both paths of the fixed-size E12
    # campaign, at both group counts — gating the object keys keeps the
    # reference path honest, gating the columnar keys keeps the compiled
    # plan fast.  The 40-group speedup *ratio* additionally carries an
    # absolute floor (see ABSOLUTE_FLOORS): machine speed divides out of
    # a same-process ratio, so the floor fires exactly when the fast
    # path decays toward object speed.
    "e12_columnar_groups_40_seconds",
    "e12_object_groups_40_seconds",
    "e12_columnar_groups_80_seconds",
    "e12_object_groups_80_seconds",
    "e12_columnar_groups_40_speedup",
    # The result cache (PR 10): the fixed-size instance query runs the
    # same parameters in both modes, so the recompute wall clock is
    # size-stable; the hit/recompute *ratio* is same-process (machine
    # speed divides out) and carries an absolute floor below — it fires
    # exactly when serving from the cache decays toward recompute cost.
    "e16_cache_recompute_seconds",
    "e16_cache_hit_speedup",
)

#: Keys in :data:`GATED_KEYS` that are dimensionless fractions with a
#: hard ceiling rather than wall clocks: they never enter the ratio
#: normalization (a fraction has no machine factor) and fail the gate
#: whenever the fresh report exceeds the cap — regardless of what the
#: committed baseline recorded.
ABSOLUTE_CAPS = {
    "scenario_admission_overhead": 0.05,
    "scenario_metrics_overhead": 0.05,
}

#: The mirror image of :data:`ABSOLUTE_CAPS`: dimensionless ratios that
#: must stay *above* a hard floor.  The committed full-mode report pins
#: the columnar engine around 7x; 3.0 leaves head-room for CI-runner
#: noise while still catching any real decay of the vectorized path.
ABSOLUTE_FLOORS = {
    "e12_columnar_groups_40_speedup": 3.0,
    # A cache hit skips the whole sampling campaign; the committed
    # report pins it around three orders of magnitude faster than the
    # recompute.  10x leaves enormous head-room while still catching a
    # hit path that started recomputing (or deep-copying something huge).
    "e16_cache_hit_speedup": 10.0,
}

DEFAULT_TOLERANCE = 0.25
DEFAULT_FLOOR_SECONDS = 0.005

#: Median normalization needs a population: with one or two comparable
#: keys the regressing key can *be* the median and the gate could never
#: fire, so too few comparable keys is itself a gate failure (it means
#: the baseline or the report lost scenario keys).
MIN_COMPARABLE_KEYS = 3


def gate(
    baseline: Dict[str, float],
    report: Dict[str, float],
    tolerance: float = DEFAULT_TOLERANCE,
    floor: float = DEFAULT_FLOOR_SECONDS,
    normalize: bool = True,
    keys: Optional[tuple] = None,
) -> List[str]:
    """Return a list of human-readable regression findings (empty = pass).

    *baseline* and *report* map scenario keys to wall-clock seconds.
    """
    keys = GATED_KEYS if keys is None else keys
    failures = []
    for key, cap in ABSOLUTE_CAPS.items():
        if key not in keys:
            continue
        value = report.get(key)
        if value is not None and value > cap:
            failures.append(
                f"{key}: {value:.4f} exceeds the absolute cap {cap:.2f}"
            )
    for key, minimum_ratio in ABSOLUTE_FLOORS.items():
        if key not in keys:
            continue
        value = report.get(key)
        if value is not None and value < minimum_ratio:
            failures.append(
                f"{key}: {value:.2f} is under the absolute floor "
                f"{minimum_ratio:.2f}"
            )
    timed_keys = [
        key
        for key in keys
        if key not in ABSOLUTE_CAPS and key not in ABSOLUTE_FLOORS
    ]
    comparable = [
        key
        for key in timed_keys
        if baseline.get(key, 0) > 0 and report.get(key, 0) > 0
    ]
    minimum = min(MIN_COMPARABLE_KEYS, len(timed_keys)) if normalize else 1
    if len(comparable) < minimum:
        return failures + [
            f"only {len(comparable)} of {len(timed_keys)} gated scenario "
            f"key(s) present in both baseline and report (need >= "
            f"{minimum}); the baseline or the report lost scenario keys"
        ]
    ratios = {key: report[key] / baseline[key] for key in comparable}
    machine_factor = statistics.median(ratios.values()) if normalize else 1.0
    for key in comparable:
        allowed = machine_factor * (1.0 + tolerance)
        if ratios[key] > allowed and report[key] > floor:
            failures.append(
                f"{key}: {report[key] * 1000:.2f} ms vs baseline "
                f"{baseline[key] * 1000:.2f} ms ({ratios[key]:.2f}x; allowed "
                f"{allowed:.2f}x = median machine factor "
                f"{machine_factor:.2f} + {tolerance:.0%} tolerance)"
            )
    return failures


def _load_scenarios(path: Path) -> Dict[str, float]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read benchmark report {path}: {exc}")
    scenarios = payload.get("scenarios_seconds")
    if not isinstance(scenarios, dict) or not scenarios:
        raise SystemExit(f"{path} has no scenarios_seconds section")
    return scenarios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed benchmark baseline (e.g. BENCH_PR10.json)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        required=True,
        help="fresh report from run_benchmarks.py --quick",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed slowdown beyond the machine factor (default 0.25)",
    )
    parser.add_argument(
        "--floor-ms",
        type=float,
        default=DEFAULT_FLOOR_SECONDS * 1000,
        help="timings under this never fail the gate (default 5 ms)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw wall clocks (same-machine baselines only)",
    )
    args = parser.parse_args(argv)
    baseline = _load_scenarios(args.baseline)
    report = _load_scenarios(args.report)
    failures = gate(
        baseline,
        report,
        tolerance=args.tolerance,
        floor=args.floor_ms / 1000,
        normalize=not args.absolute,
    )
    gated = [k for k in GATED_KEYS if k in baseline and k in report]
    print(f"gated {len(gated)} scenario key(s): {', '.join(gated)}")
    if failures:
        print("BENCHMARK REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"benchmark gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
