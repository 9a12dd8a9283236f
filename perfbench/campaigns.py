"""The ``api_campaign`` and ``fleet_campaign`` workloads, parent side.

Each run starts the workload's own processes: ``program.py`` (the
process calling the Python API) and, for the fleet, two ``ocqa worker``
subprocesses on loopback.  All of them are stopped before it returns.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import instances
from measure import Outcome, Tally, TimedResult
from procs import RUN_DIR, Listener, Process, start_listener

PROGRAM = Path(__file__).resolve().parent / "program.py"
FLEET_WORKERS = 2


@dataclass
class Running:
    """The program process, its workers, and how long they took to set up."""

    child: Process
    workers: List[Listener]
    setup_seconds: float

    def peak_rss_mb(self) -> float:
        """Summed high-water marks of the child and its workers."""
        return self.child.peak_rss_mb() + sum(
            w.process.peak_rss_mb() for w in self.workers
        )

    def ask(self, command: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        self.child.send(json.dumps(command))
        return json.loads(self.child.readline(timeout))

    def close(self) -> None:
        self.child.stop()
        for worker in self.workers:
            worker.process.stop()


def expected_clean(workload: str, seed: int) -> List[List[str]]:
    """The answers every campaign must return with frequency 1.0."""
    make = (
        instances.api_instance
        if workload == "api_campaign"
        else instances.fleet_instance
    )
    return sorted(list(answer) for answer in make(seed).clean_answers)


def bring_up(workload: str, seed: int) -> Running:
    """Start the processes, build and load the instance, warm up; timed."""
    start = time.perf_counter()
    child = Process([sys.executable, str(PROGRAM)], stdin=True)
    workers: List[Listener] = []
    try:
        if workload == "fleet_campaign":
            workers = [start_listener("worker") for _ in range(FLEET_WORKERS)]
        child.send(
            json.dumps(
                {
                    "workload": workload,
                    "seed": seed,
                    "workers": [w.address for w in workers],
                    "clean": expected_clean(workload, seed),
                }
            )
        )
        ready = json.loads(child.readline(timeout=300))
        if not ready.get("ready"):
            raise RuntimeError(f"program did not get ready: {ready}")
        return Running(child, workers, time.perf_counter() - start)
    except BaseException:
        child.stop()
        for worker in workers:
            worker.process.stop()
        raise


def outcomes(raw: List[Dict[str, Any]]) -> Tally:
    return Tally([Outcome(**item) for item in raw])


def timed(workload: str, seed: int, seconds: float, setups: int) -> TimedResult:
    """Set up *setups* times, then time operations for *seconds*.

    Peak RSS is each set-up's high-water mark, which covers loading the
    instance and one whole warm-up campaign, and the median of those.  A
    mark taken after the timed loop would also hold the coordinator's
    growth from campaign to campaign (threads that outlive a closed
    coordinator, allocator fragmentation), which follows thread timing:
    it moved by a quarter between runs of the same code.
    """
    times: List[float] = []
    peaks: List[float] = []
    running: Optional[Running] = None
    try:
        for _ in range(setups):
            if running is not None:
                running.close()
            running = bring_up(workload, seed)
            times.append(running.setup_seconds)
            peaks.append(running.peak_rss_mb())
        reply = running.ask({"cmd": "timed", "seconds": seconds}, seconds + 150)
    finally:
        if running is not None:
            running.close()
    return TimedResult(
        outcomes(reply["outcomes"]), times, reply["wall"], statistics.median(peaks)
    )


def traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Replays in the program process, plain then traced; spans on disk."""
    spans_path = RUN_DIR / f"spans-{workload}-{seed}.jsonl"
    running = bring_up(workload, seed)
    try:
        reply = running.ask(
            {"cmd": "trace", "seconds": seconds, "spans_path": str(spans_path)},
            seconds * 3 + 150,
        )
    finally:
        running.close()
    reply["tally"] = outcomes(reply.pop("outcomes"))
    return reply
