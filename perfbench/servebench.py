"""The ``serve_recompute`` and ``serve_cached`` workloads.

Load comes from client threads in this process, each with one keep-alive
connection to an ``ocqa serve`` subprocess started with default flags.
Each client is a closed loop: it sends its next request when the last
answer has arrived.  The traced run replays the same requests
in-process through ``QueryService.handle_query`` / ``handle_update``.
"""

from __future__ import annotations

import copy
import http.client
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import instances
from instances import Op
from measure import Outcome, Span, Tally, TimedResult
from procs import Listener, start_listener

INSTANCE = "bench"
#: Sends one request for a client: ``(client, path, payload)`` to
#: ``(status, body, seconds)``.
Sender = Callable[[int, str, Dict], Tuple[int, Dict, float]]
#: Body fields that legitimately differ between a hit and a recompute
#: of the same key: timing, cache provenance, the level asked for.
VOLATILE = (
    "elapsed_seconds",
    "cached",
    "cache_age_seconds",
    "cache_epsilon",
    "cache_delta",
    "epsilon",
    "delta",
    "tenant",
)


def core(body: Dict[str, Any]) -> str:
    """The bytes of an answer that must match across hit and recompute."""
    return json.dumps(
        {k: v for k, v in body.items() if k not in VOLATILE}, sort_keys=True
    )


@dataclass
class Reply:
    """One request as the client saw it."""

    client: int
    index: int
    op: Op
    status: int
    body: Dict[str, Any]
    seconds: float


@dataclass
class Workload:
    """What differs between the two service workloads."""

    name: str
    clients: int
    database: Dict[str, List[List[str]]]
    #: Query text by name.
    queries: Dict[str, str]
    #: The ``cache`` field of every timed /query.
    cache_mode: str
    #: Each client's requests, in order.
    ops: List[List[Op]]
    #: Keys answered (and cached) during set-up, first one registering.
    primed: List[Tuple[str, int]] = field(default_factory=list)
    #: In-process reference answers, by key, computed once a run.
    references: Dict[Tuple[str, int], str] = field(default_factory=dict)

    @property
    def constant(self) -> str:
        return instances.selection_constant(self.database)

    def query_payload(self, op: Op, client: int, mode: Optional[str] = None) -> Dict:
        return {
            "instance": INSTANCE,
            "tenant": f"tenant{client}",
            "query": self.queries[op.query],
            "cache": mode or self.cache_mode,
            "runs": instances.SERVE_RUNS,
            "seed": op.seed,
            "epsilon": op.epsilon,
            "delta": op.delta,
        }

    def payload(self, op: Op, client: int) -> Tuple[str, Dict]:
        if op.kind == "update":
            return "/update", {
                "instance": INSTANCE,
                op.action: {op.relation: [list(op.row)]},
            }
        return "/query", self.query_payload(op, client)

    def setup_payloads(self) -> List[Dict]:
        payloads = []
        for position, (name, seed) in enumerate(self.primed):
            payload = self.query_payload(Op("query", name, seed), 0)
            if position == 0:
                payload["database"] = self.database
                payload["constraints"] = instances.SERVE_CONSTRAINTS
            payloads.append(payload)
        return payloads


def recompute_workload(seed: int, seconds: float) -> Workload:
    database = instances.serve_instance(seed)
    count = int(seconds * 20) + 20
    ops = [instances.recompute_ops(seed, client, count) for client in range(2)]
    return Workload(
        "serve_recompute",
        2,
        database,
        instances.serve_queries(database),
        "bypass",
        ops,
        primed=[("rx", instances.recompute_seed(seed, 0))],
    )


def cached_workload(seed: int, seconds: float) -> Workload:
    database = instances.serve_instance(seed)
    cycles = int(seconds * 4) + 4
    return Workload(
        "serve_cached",
        1,
        database,
        instances.serve_queries(database),
        "use",
        [instances.cached_ops(seed, cycles)],
        primed=instances.cached_keys(seed),
    )


WORKLOADS = {"serve_recompute": recompute_workload, "serve_cached": cached_workload}

# --- transport -----------------------------------------------------------------


class Client:
    """One keep-alive HTTP connection."""

    def __init__(self, listener: Listener) -> None:
        self.conn = http.client.HTTPConnection(
            listener.host, listener.port, timeout=120
        )

    def post(self, path: str, payload: Dict) -> Tuple[int, bytes, float]:
        data = json.dumps(payload).encode("utf-8")
        start = time.perf_counter()
        self.conn.request(
            "POST", path, data, {"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, raw, time.perf_counter() - start

    def get(self, path: str) -> Dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def decode(raw: bytes) -> Dict[str, Any]:
    try:
        body = json.loads(raw)
    except ValueError:
        return {"ok": False, "error": "response is not JSON"}
    return body if isinstance(body, dict) else {"ok": False, "error": "not an object"}


@dataclass
class Served:
    """A started server with its set-up done."""

    listener: Listener
    clients: List[Client]
    setup_seconds: float
    #: The computed answer of each key primed during set-up.
    primed: Dict[Tuple[str, int], str]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.listener.process.stop()


def bring_up(workload: Workload) -> Served:
    """Start a server, register the instance and prime it; time it all."""
    start = time.perf_counter()
    listener = start_listener("serve")
    clients: List[Client] = []
    try:
        clients = [Client(listener) for _ in range(workload.clients)]

        def send(payload: Dict) -> Dict:
            status, raw, _ = clients[0].post("/query", payload)
            return decode(raw)

        primed = set_up(workload, send)
        return Served(listener, clients, time.perf_counter() - start, primed)
    except BaseException:
        for client in clients:
            client.close()
        listener.process.stop()
        raise


def set_up(
    workload: Workload, send: Callable[[Dict], Dict]
) -> Dict[Tuple[str, int], str]:
    """Register the instance and prime the keys; their computed answers."""
    primed = {}
    for key, payload in zip(workload.primed, workload.setup_payloads()):
        body = send(payload)
        if not body.get("ok"):
            raise RuntimeError(f"set-up request failed: {body}")
        primed[key] = core(body)
    return primed


def closed_loop(
    workload: Workload,
    send: Sender,
    seconds: Optional[float] = None,
    counts: Optional[Sequence[int]] = None,
) -> Tuple[List[List[Reply]], List[float]]:
    """Run every client's requests back to back, one thread a client.

    Stops each client after *seconds* or after its entry in *counts*.
    Returns the replies and each client's wall clock.
    """
    replies: List[List[Reply]] = [[] for _ in range(workload.clients)]
    walls = [0.0] * workload.clients
    errors: List[BaseException] = []
    started = time.perf_counter()

    def run(client: int) -> None:
        try:
            ops = workload.ops[client]
            limit = len(ops) if counts is None else counts[client]
            for index in range(limit):
                if seconds is not None and time.perf_counter() - started >= seconds:
                    walls[client] = time.perf_counter() - started
                    return
                op = ops[index]
                path, payload = workload.payload(op, client)
                status, body, elapsed = send(client, path, payload)
                replies[client].append(
                    Reply(client, index, op, status, body, elapsed)
                )
            walls[client] = time.perf_counter() - started
            if seconds is not None:
                raise RuntimeError(f"client {client} ran out of requests")
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(client,), name=f"client{client}")
        for client in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return replies, walls


def socket_sender(served: Served) -> Sender:
    def send(client: int, path: str, payload: Dict) -> Tuple[int, Dict, float]:
        status, raw, elapsed = served.clients[client].post(path, payload)
        return status, decode(raw), elapsed

    return send


# --- correctness -----------------------------------------------------------


def refused(status: int, body: Dict[str, Any]) -> Optional[str]:
    """Why a reply is not a success, or ``None``."""
    if status != 200 or not body.get("ok"):
        return f"HTTP {status}: {body.get('error', body)}"
    return None


def clean_error(
    body: Dict[str, Any], clean: Sequence[Tuple[str, ...]]
) -> Optional[str]:
    frequencies = {tuple(answer): value for answer, value in body["frequencies"]}
    return instances.check_clean(frequencies, frozenset(clean))


def reference_core(workload: Workload, name: str, seed: int) -> str:
    """The answer an in-process ``ConstraintRepairSampler.run`` gives."""
    import random

    from repro import ConstraintSet, parse_constraints, parse_query
    from repro.db.schema import Schema
    from repro.io import database_from_json
    from repro.sql import ConstraintRepairSampler, create_backend

    db = database_from_json(json.dumps(workload.database))
    constraints = ConstraintSet(parse_constraints(instances.SERVE_CONSTRAINTS))
    schema = Schema.infer(db).extend(constraints.schema())
    with create_backend("sqlite") as backend:
        backend.load(db, schema)
        sampler = ConstraintRepairSampler(
            backend, schema, constraints, rng=random.Random(seed)
        )
        report = sampler.run(
            parse_query(workload.queries[name]), runs=instances.SERVE_RUNS
        )
    return json.dumps(
        [
            [
                [[str(term) for term in answer], value]
                for answer, value in report.items()
            ],
            report.runs,
        ]
    )


def answer_core(body: Dict[str, Any]) -> str:
    return json.dumps([body["frequencies"], body["runs"]])


def check_recompute(workload: Workload, replies: List[List[Reply]]) -> Tally:
    """Every answer equals the in-process run for its query and seed."""
    tally = Tally()
    references = workload.references
    for reply in (r for client in replies for r in client):
        error = refused(reply.status, reply.body)
        if error is None and reply.body.get("cached"):
            error = "a bypass request was answered from the cache"
        if error is None:
            key = reply.op.key
            if key not in references:
                references[key] = reference_core(workload, *key)
            if answer_core(reply.body) != references[key]:
                error = f"answer for {key} differs from the in-process run"
        if error is None:
            error = clean_error(
                reply.body,
                instances.serve_clean_answers(
                    workload.database, reply.op.query, workload.constant
                ),
            )
        tally.add(
            Outcome(
                "query",
                reply.seconds,
                error is None,
                instances.SERVE_RUNS,
                error or "",
            )
        )
    return tally


def check_cached(
    workload: Workload, replies: List[Reply], primed: Dict[Tuple[str, int], str]
) -> Tally:
    """Hits repeat the last computed answer of their key; computed
    answers keep clean answers at 1.0; updates change what they name."""
    tally = Tally()
    database = copy.deepcopy(workload.database)
    computed = dict(primed)
    for reply in replies:
        op, body = reply.op, reply.body
        error = refused(reply.status, body)
        kind = "update"
        draws = 0
        if op.kind == "update":
            changed = instances.apply_op(database, op)
            field_name = "added" if op.action == "add" else "removed"
            if error is None and body.get(field_name) != int(changed):
                error = f"update {op} reported {body.get(field_name)} {field_name}"
        else:
            kind = "hit" if body.get("cached") else "query"
            if error is None and kind == "hit":
                if computed.get(op.key) != core(body):
                    error = f"hit for {op.key} differs from its computed answer"
            elif error is None:
                draws = int(body.get("runs") or 0)
                computed[op.key] = core(body)
                clean = instances.serve_clean_answers(
                    database, op.query, workload.constant
                )
                error = clean_error(body, clean)
        tally.add(Outcome(kind, reply.seconds, error is None, draws, error or ""))
    return tally


def verify_hits(workload: Workload, client: Client) -> Tally:
    """After the loop: each key's cached answer equals a bypass recompute."""
    tally = Tally()
    for name, seed in workload.primed:
        op = Op("query", name, seed)
        use_status, use_raw, _ = client.post("/query", workload.query_payload(op, 0))
        fresh_status, fresh_raw, _ = client.post(
            "/query", workload.query_payload(op, 0, "bypass")
        )
        use, fresh = decode(use_raw), decode(fresh_raw)
        error = refused(use_status, use) or refused(fresh_status, fresh)
        if error is None and core(use) != core(fresh):
            error = f"cached answer for {(name, seed)} differs from a bypass"
        tally.add(Outcome("verify", 0.0, error is None, 0, error or ""))
    return tally


def check(
    workload: Workload,
    replies: List[List[Reply]],
    primed: Dict[Tuple[str, int], str],
) -> Tally:
    if workload.name == "serve_recompute":
        return check_recompute(workload, replies)
    return check_cached(workload, replies[0], primed)


# --- the timed run -------------------------------------------------------------


def timed(name: str, seed: int, seconds: float, setups: int) -> TimedResult:
    workload = WORKLOADS[name](seed, seconds)
    times: List[float] = []
    served: Optional[Served] = None
    try:
        for _ in range(setups):
            if served is not None:
                served.close()
            served = bring_up(workload)
            times.append(served.setup_seconds)
        start = time.perf_counter()
        replies, _ = closed_loop(workload, socket_sender(served), seconds=seconds)
        wall = time.perf_counter() - start
        tally = check(workload, replies, served.primed)
        if name == "serve_cached":
            tally.outcomes.extend(verify_hits(workload, served.clients[0]).outcomes)
        rss = served.listener.process.peak_rss_mb()
    finally:
        if served is not None:
            served.close()
    return TimedResult(tally, times, wall, rss)


# --- the traced run --------------------------------------------------------------


def _counter_total(name: str, **match: str) -> float:
    from repro.obs import metrics

    counter = metrics.REGISTRY.get(name)
    if counter is None:
        return 0.0
    total = 0.0
    for key, value in counter.series().items():
        labels = dict(zip(counter.labelnames, key))
        if all(labels.get(k) == v for k, v in match.items()):
            total += value
    return total


def service_counts(cache: str) -> Dict[str, float]:
    """The program's public counters this workload moves."""
    return {
        "cache.hits": _counter_total("ocqa_cache_hits_total", cache=cache),
        "cache.misses": _counter_total("ocqa_cache_misses_total", cache=cache),
        "cache.invalidations": _counter_total(
            "ocqa_cache_invalidations_total", cache=cache
        ),
        "cache.migrations": _counter_total("ocqa_cache_migrations_total", cache=cache),
        "draw_ranges.columnar": _counter_total(
            "ocqa_draw_ranges_total", path="columnar"
        ),
        "draw_ranges.object": _counter_total("ocqa_draw_ranges_total", path="object"),
        "admission.admitted": _counter_total(
            "ocqa_admission_decisions_total", decision="admitted"
        ),
        "admission.decisions": _counter_total("ocqa_admission_decisions_total"),
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in after}


@dataclass
class Replay:
    replies: List[List[Reply]]
    wall_seconds: float
    #: Sum over clients of each client's wall clock.
    busy_seconds: float
    counts: Dict[str, float]
    primed: Dict[Tuple[str, int], str]
    spans: List[Span] = field(default_factory=list)


def replay(
    workload: Workload, counts: Sequence[int], label: str, recorder=None
) -> Replay:
    """Run the first *counts* requests of each client in-process.

    With a *recorder*, the requests (not the set-up) run traced.
    """
    import contextlib

    import spans as spans_mod
    from repro.service.server import QueryService

    service = QueryService(name=label)
    try:
        primed = set_up(workload, lambda payload: service.handle_query(payload)[1])
        ids = itertools.count(1)
        lock = threading.Lock()

        def send(client: int, path: str, payload: Dict) -> Tuple[int, Dict, float]:
            handle = (
                service.handle_update if path == "/update" else service.handle_query
            )
            kind = "update" if path == "/update" else "query"
            start = time.perf_counter()
            if recorder is None:
                status, body = handle(payload)
            else:
                with lock:
                    request = next(ids)
                with recorder.span("op", request=request, kind=kind):
                    status, body = handle(payload)
            return status, body, time.perf_counter() - start

        tracing = (
            contextlib.nullcontext()
            if recorder is None
            else spans_mod.Tracing(recorder)
        )
        before = service_counts(label)
        with tracing:
            start = time.perf_counter()
            replies, walls = closed_loop(workload, send, counts=counts)
            wall = time.perf_counter() - start
        return Replay(
            replies,
            wall,
            sum(walls),
            delta(service_counts(label), before),
            primed,
            [] if recorder is None else list(recorder.spans),
        )
    finally:
        service.close()


@dataclass
class TraceResult:
    socket: List[List[Reply]]
    socket_counts: Dict[str, float]
    plain: Replay
    traced: Replay
    tally: Tally


def traced(name: str, seed: int, seconds: float) -> TraceResult:
    """Socket phase, then the same requests in-process, plain and traced."""
    import spans as spans_mod

    workload = WORKLOADS[name](seed, seconds)
    served = bring_up(workload)
    primed = served.primed
    try:
        before = served.clients[0].get("/status")
        socket_replies, _ = closed_loop(
            workload, socket_sender(served), seconds=seconds / 3
        )
        after = served.clients[0].get("/status")
    finally:
        served.close()
    socket_counts = {}
    cache_before = before.get("result_cache") or {}
    cache_after = after.get("result_cache") or {}
    for key in ("hits", "misses", "invalidations", "migrations"):
        socket_counts[f"cache.{key}"] = cache_after.get(key, 0) - cache_before.get(
            key, 0
        )
    counts = [len(r) for r in socket_replies]
    plain = replay(workload, counts, f"{name}-plain")
    traced_run = replay(workload, counts, f"{name}-traced", spans_mod.Recorder())
    tally = Tally()
    for run, run_primed in (
        (socket_replies, primed),
        (plain.replies, plain.primed),
        (traced_run.replies, traced_run.primed),
    ):
        tally.outcomes.extend(check(workload, run, run_primed).outcomes)
    return TraceResult(socket_replies, socket_counts, plain, traced_run, tally)


def http_overhead_ms(socket: List[List[Reply]], plain: List[List[Reply]]) -> float:
    """Median over requests of socket latency minus in-process latency."""
    gaps = [
        (s.seconds - p.seconds) * 1000.0
        for s_client, p_client in zip(socket, plain)
        for s, p in zip(s_client, p_client)
    ]
    return statistics.median(gaps) if gaps else 0.0
