"""The program process of the ``api_campaign`` and ``fleet_campaign`` workloads.

Started by ``campaigns.py`` with the repository's ``src`` on the path.
It reads one JSON configuration line, builds and loads its instance,
runs one warm-up operation and answers ``{"ready": true}``; then it
runs the commands it is sent, one JSON line each, and answers each with
one JSON line.  Campaigns go through names ``repro`` and ``repro.sql``
export.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import instances
import spans as spans_mod
from measure import Outcome


def digest(frequencies: Dict[Tuple[Any, ...], float]) -> str:
    items = sorted(
        (tuple(str(term) for term in answer), value)
        for answer, value in frequencies.items()
    )
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def as_text(frequencies: Dict[Tuple[Any, ...], float]) -> Dict[Tuple[str, ...], float]:
    return {
        tuple(str(term) for term in answer): value
        for answer, value in frequencies.items()
    }


class Runner:
    """Builds one workload's instance and runs its operations."""

    def __init__(self, config: Dict[str, Any]) -> None:
        import repro
        import repro.sql
        from repro.db.facts import Database, Fact
        from repro.db.schema import Schema

        self.workload = config["workload"]
        self.seed = int(config["seed"])
        self.addresses = list(config.get("workers") or ())
        self.clean = frozenset(tuple(answer) for answer in config["clean"])
        make = (
            instances.api_instance
            if self.workload == "api_campaign"
            else instances.fleet_instance
        )
        self.instance = make(self.seed)
        self.seeds = instances.campaign_seeds(self.seed)
        database = Database(Fact("R", row) for row in self.instance.rows)
        self.key = repro.sql.KeySpec("R", instances.KEY_ARITY, (0,))
        self.constraints = self.key.constraints()
        self.schema = Schema.infer(database).extend(self.constraints.schema())
        self.backend = repro.sql.create_backend("sqlite")
        self.backend.load(database, self.schema)
        #: Serial answers by campaign seed, for the fleet check.
        self._serial: Dict[int, str] = {}
        #: Outcomes whose last check runs after the loop, outside any
        #: timing: ``(outcome, check)`` where ``check()`` returns an error
        #: or None.  A check holds digests, never a report.
        self._unsettled: List[Tuple[Outcome, Callable[[], Optional[str]]]] = []
        #: While a traced replay runs: its recorder and the current op.
        self.recorder: Optional[spans_mod.Recorder] = None
        self.request = 0
        self.fleet_counts: List[Dict[str, float]] = []

    # --- one operation ----------------------------------------------------------

    def _campaign(self, seed: int, sampler_kind: str, coordinator=None):
        import repro
        import repro.sql

        query = repro.parse_cq(self.instance.query)
        rng = random.Random(seed)
        if sampler_kind == "key":
            sampler = repro.sql.KeyRepairSampler(
                self.backend,
                self.schema,
                [self.key],
                policy=repro.sql.SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=rng,
            )
        else:
            sampler = repro.sql.ConstraintRepairSampler(
                self.backend,
                self.schema,
                self.constraints,
                rng=rng,
                coordinator=coordinator,
            )
        return sampler.run(query, runs=self.instance.runs)

    def op(self, index: int) -> Outcome:
        """One timed operation with its correctness check."""
        seed = self.seeds[index % len(self.seeds)]
        if self.workload == "api_campaign":
            return self._api_pair(seed)
        return self._fleet_campaign(seed)

    def _timed_op(self):
        """The root span of one operation when tracing, else nothing."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span("op", request=self.request, kind="campaign")

    def _api_pair(self, seed: int) -> Outcome:
        with self._timed_op():
            start = time.perf_counter()
            by_key = self._campaign(seed, "key")
            generic = self._campaign(seed, "generic")
            elapsed = time.perf_counter() - start

        # Checked now, outside the timing: keeping the reports until the
        # loop ends would grow the heap, and with it the time and peak
        # memory of later operations, with the number of operations run.
        if by_key.frequencies != generic.frequencies:
            error = f"key and generic samplers disagree for seed {seed}"
        else:
            error = instances.check_clean(as_text(by_key.frequencies), self.clean)
        return self._checked(
            Outcome("campaign", elapsed, True, by_key.runs + generic.runs), error
        )

    def _fleet_campaign(self, seed: int) -> Outcome:
        from repro.distributed import Coordinator
        from repro.obs import metrics

        ships = metrics.REGISTRY.get("ocqa_context_ships_total")
        shipped_before = ships.value() if ships is not None else 0.0
        with self._timed_op():
            start = time.perf_counter()
            coordinator = Coordinator.connect(self.addresses)
            try:
                report = self._campaign(seed, "generic", coordinator)
                elapsed = time.perf_counter() - start
            except BaseException:
                coordinator.close()
                raise
        try:
            transport = coordinator.transport_report()
            degradation = coordinator.degradation_report()
        finally:
            coordinator.close()
        shipped = (ships.value() if ships is not None else 0.0) - shipped_before
        self.fleet_counts.append(
            {
                "raw_bytes": transport.get("payload_raw_bytes", 0),
                "wire_bytes": transport.get("payload_wire_bytes", 0),
                "frames": transport.get("frames_sent", 0)
                + transport.get("frames_received", 0),
                "context_ships": shipped,
                "releases": degradation["releases"],
                "inline_shards": degradation["inline_shards"],
                "draws": report.runs,
            }
        )
        # Only the answer's digest is kept for the serial comparison after
        # the loop; the report itself is dropped here (see _api_pair).
        outcome = self._checked(
            Outcome("campaign", elapsed, True, report.runs),
            instances.check_clean(as_text(report.frequencies), self.clean),
        )
        fleet_digest = digest(report.frequencies)

        def check() -> Optional[str]:
            if seed not in self._serial:
                self._serial[seed] = digest(
                    self._campaign(seed, "generic").frequencies
                )
            if fleet_digest != self._serial[seed]:
                return f"fleet answer for seed {seed} differs from the serial run"
            return None

        self._unsettled.append((outcome, check))
        return outcome

    @staticmethod
    def _checked(outcome: Outcome, error: Optional[str]) -> Outcome:
        if error is not None:
            outcome.ok = False
            outcome.error = error
        return outcome

    def settle(self) -> None:
        """Run the deferred correctness checks."""
        for outcome, check in self._unsettled:
            if outcome.ok:
                self._checked(outcome, check())
        self._unsettled.clear()

    # --- commands -------------------------------------------------------------

    def warm(self) -> None:
        """Pay lazy imports, plan builds and worker context builds once.

        Its outcome is dropped: the timed operations repeat it.
        """
        self.op(0)
        self._unsettled.clear()
        self.fleet_counts.clear()

    def timed(self, seconds: float) -> Dict[str, Any]:
        outcomes = []
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            outcomes.append(self.op(index))
            index += 1
        wall = time.perf_counter() - start
        self.settle()
        return {"outcomes": [o.__dict__ for o in outcomes], "wall": wall}

    def replay(self, count: Optional[int], seconds: float, recorder=None):
        """*count* operations (or as many as fit in *seconds*), maybe traced."""
        from repro.obs import metrics

        self.fleet_counts.clear()
        draw_ranges = metrics.REGISTRY.get("ocqa_draw_ranges_total")
        before = {path: draw_ranges.value(path=path) for path in ("columnar", "object")}
        tracing = (
            contextlib.nullcontext()
            if recorder is None
            else spans_mod.Tracing(recorder)
        )
        outcomes = []
        with tracing:
            start = time.perf_counter()
            index = 0
            while (count is None and time.perf_counter() - start < seconds) or (
                count is not None and index < count
            ):
                self.recorder, self.request = recorder, index + 1
                outcomes.append(self.op(index))
                index += 1
            wall = time.perf_counter() - start
            self.recorder = None
        counts = {
            f"draw_ranges.{path}": draw_ranges.value(path=path) - before[path]
            for path in before
        }
        self.settle()
        return outcomes, wall, counts, list(self.fleet_counts)

    def trace(self, seconds: float, spans_path: str) -> Dict[str, Any]:
        plain, plain_wall, plain_counts, plain_fleet = self.replay(None, seconds / 2)
        recorder = spans_mod.Recorder()
        traced, traced_wall, traced_counts, traced_fleet = self.replay(
            len(plain), 0.0, recorder
        )
        spans_mod.write_spans(spans_path, recorder.spans)
        return {
            "outcomes": [o.__dict__ for o in plain + traced],
            "plain_wall": plain_wall,
            "traced_wall": traced_wall,
            "plain_counts": plain_counts,
            "traced_counts": traced_counts,
            "plain_fleet": plain_fleet,
            "traced_fleet": traced_fleet,
            "spans_path": spans_path,
        }


def main() -> int:
    # Import the program before the configuration arrives: the parent
    # starts the fleet's workers meanwhile.
    import repro.distributed  # noqa: F401
    import repro.sql  # noqa: F401

    config = json.loads(sys.stdin.readline())
    runner = Runner(config)
    runner.warm()

    def answer(payload: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    answer({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "timed":
            answer(runner.timed(float(command["seconds"])))
        elif command["cmd"] == "trace":
            answer(runner.trace(float(command["seconds"]), command["spans_path"]))
        else:
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
