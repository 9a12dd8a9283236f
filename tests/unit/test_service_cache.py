"""Unit tests for the query service's result-cache wiring: cache modes
on ``/query``, hit metadata, named instances, the ``/update`` delta
path (invalidation vs migration), and the status surface — driven
without sockets via :meth:`QueryService.handle_query` /
:meth:`QueryService.handle_update` — plus the HTTP transport a cache
hit rides on (one write per response, ``TCP_NODELAY``)."""

import http.client
import io
import json
import socket
import statistics
import threading
import time

import pytest

from repro.io import database_to_json
from repro.obs import metrics as obs_metrics
from repro.service import AdmissionController, TenantQuota
from repro.service.server import MAX_INSTANCES, QueryService, _ServiceHandler
from repro.sql.digest import database_digest


def _payload(**overrides):
    payload = {
        "database": {
            "R": [["a", "b"], ["a", "c"], ["d", "e"]],
            "S": [["a"], ["d"]],
        },
        "constraints": "R(x, y), R(x, z) -> y = z",
        "query": "Q(x) :- R(x, y)",
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 20,
        "seed": 7,
    }
    payload.update(overrides)
    return payload


def _core(body):
    """Strip the volatile fields a cached replay legitimately changes."""
    volatile = (
        "elapsed_seconds",
        "cached",
        "cache_age_seconds",
        "cache_epsilon",
        "cache_delta",
    )
    return {k: v for k, v in body.items() if k not in volatile}


class TestCacheModes:
    def test_repeat_query_hits_byte_identically(self):
        service = QueryService()
        status, first = service.handle_query(_payload())
        assert status == 200 and first["cached"] is False
        status, second = service.handle_query(_payload())
        assert status == 200 and second["cached"] is True
        assert second["cache_age_seconds"] >= 0
        assert _core(second) == _core(first)
        stats = service.result_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert service.queries_served == 2

    def test_bypass_recomputes_and_does_not_touch_the_cache(self):
        service = QueryService()
        service.handle_query(_payload())
        status, body = service.handle_query(_payload(cache="bypass"))
        assert status == 200 and "cached" in body and body["cached"] is False
        stats = service.result_cache.stats()
        # bypass neither hits nor misses: one miss from the priming call.
        assert stats["hits"] == 0 and stats["misses"] == 1

    def test_refresh_replaces_the_entry(self):
        service = QueryService()
        service.handle_query(_payload())
        status, body = service.handle_query(_payload(cache="refresh"))
        assert status == 200 and body["cached"] is False
        stats = service.result_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["evictions"] == 1  # the replace
        # The refreshed entry still serves.
        _, third = service.handle_query(_payload())
        assert third["cached"] is True

    def test_bad_cache_mode_is_400(self):
        service = QueryService()
        status, body = service.handle_query(_payload(cache="sometimes"))
        assert status == 400 and "cache" in body["error"]

    def test_weaker_level_hit_reports_the_stored_level(self):
        service = QueryService()
        # Prime without an explicit run count so the level matters.
        strong = _payload(epsilon=0.4, delta=0.2)
        del strong["runs"]
        service.handle_query(strong)
        weak = _payload(epsilon=0.45, delta=0.45)
        del weak["runs"]
        status, body = service.handle_query(weak)
        assert status == 200 and body["cached"] is True
        assert body["epsilon"] == 0.45 and body["delta"] == 0.45
        assert body["cache_epsilon"] == 0.4 and body["cache_delta"] == 0.2

    def test_different_seed_misses(self):
        service = QueryService()
        service.handle_query(_payload(seed=7))
        _, body = service.handle_query(_payload(seed=8))
        assert body["cached"] is False

    def test_cache_disabled_by_size_zero(self):
        service = QueryService(cache_size=0)
        assert service.result_cache is None
        _, first = service.handle_query(_payload())
        _, second = service.handle_query(_payload())
        assert first["cached"] is False and second["cached"] is False
        assert service.status()["result_cache"] is None

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError):
            QueryService(cache_size=-1)

    def test_deadline_expired_results_are_not_cached(self):
        service = QueryService()
        status, body = service.handle_query(
            _payload(runs=5000, deadline=1e-6)
        )
        assert status == 200 and body["deadline_expired"]
        stats = service.result_cache.stats()
        assert stats["misses"] == 1 and stats["size"] == 0

    def test_hit_bypasses_admission(self):
        service = QueryService(
            quotas={
                "metered": TenantQuota(
                    max_concurrent=4, draws_per_second=0.001, burst=1.0
                )
            }
        )
        # Prime with an unmetered tenant; the key ignores the tenant.
        service.handle_query(_payload(tenant="default"))
        status, body = service.handle_query(_payload(tenant="metered"))
        assert status == 200 and body["cached"] is True
        assert body["tenant"] == "metered"
        # The same request recomputed would have been shed.
        status, body = service.handle_query(
            _payload(tenant="metered", cache="bypass")
        )
        assert status == 429

    def test_hit_while_admission_full(self):
        service = QueryService(
            admission=AdmissionController(
                max_concurrent=1, max_queue_depth=0, max_wait=0.05
            )
        )
        service.handle_query(_payload())
        ticket = service.admission.admit()
        try:
            status, body = service.handle_query(_payload())
        finally:
            ticket.release()
        assert status == 200 and body["cached"] is True


class TestInstancesAndUpdates:
    def test_query_registers_and_reuses_an_instance(self):
        service = QueryService()
        status, first = service.handle_query(_payload(instance="inv"))
        assert status == 200
        assert service.status()["instances"] == ["inv"]
        # Later queries may omit the database entirely.
        follow_up = {
            "instance": "inv",
            "query": "Q(x) :- S(x)",
            "runs": 10,
            "seed": 3,
        }
        status, body = service.handle_query(follow_up)
        assert status == 200 and body["ok"]

    def test_unknown_instance_is_400(self):
        service = QueryService()
        status, body = service.handle_query(
            {"instance": "ghost", "query": "Q(x) :- R(x, y)"}
        )
        assert status == 400 and "ghost" in body["error"]

    def test_instance_limit_enforced(self):
        from repro.db.facts import Database

        service = QueryService()
        empty = Database(frozenset())
        for i in range(MAX_INSTANCES):
            service.register_instance(f"i{i}", empty, "")
        with pytest.raises(ValueError, match="instance limit"):
            service.register_instance("overflow", empty, "")
        # Replacing an existing instance is still allowed.
        service.register_instance("i0", empty, "")

    def test_update_requires_an_instance(self):
        service = QueryService()
        status, body = service.handle_update({"add": {"R": [["x", "y"]]}})
        assert status == 400 and "instance" in body["error"]

    def test_update_validates_schema_and_shape(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["only-one-column"]]}}
        )
        assert status == 400 and "schema" in body["error"]
        status, body = service.handle_update({"instance": "inv"})
        assert status == 400
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": "not-a-list"}}
        )
        assert status == 400

    def test_update_invalidates_touched_and_migrates_untouched(self):
        service = QueryService()
        # Register once with the full payload; all later queries go
        # through the stored instance so they key against its current
        # (post-update) contents rather than re-shipping a stale copy.
        service.handle_query(_payload(instance="inv"))
        base = {"instance": "inv", "epsilon": 0.3, "delta": 0.3,
                "runs": 20, "seed": 7}
        r_query = dict(base, query="Q(x) :- R(x, y)")
        s_query = dict(base, query="Q(x) :- S(x)")
        service.handle_query(s_query)
        assert service.result_cache.stats()["size"] == 2

        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["d", "f"]]}}
        )
        assert status == 200 and body["ok"]
        assert body["added"] == 1 and body["removed"] == 0
        assert "R" in body["touched_relations"]
        assert body["cache"]["invalidated"] == 1  # the R query
        assert body["cache"]["migrated"] == 1  # the S query

        # The S answer survives the delta and still hits...
        _, s_after = service.handle_query(s_query)
        assert s_after["cached"] is True
        # ...while the R answer recomputes against the updated instance.
        _, r_after = service.handle_query(r_query)
        assert r_after["cached"] is False
        answers = dict(
            (tuple(candidate), freq) for candidate, freq in r_after["frequencies"]
        )
        assert ("d",) in answers

    def test_update_changes_the_instance_digest(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        before = service.get_instance("inv").digest
        _, body = service.handle_update(
            {"instance": "inv", "remove": {"S": [["d"]]}}
        )
        assert body["ok"] and body["removed"] == 1
        after = service.get_instance("inv").digest
        assert after != before and body["digest"] == after

    def test_noop_update_is_rejected(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        status, body = service.handle_update(
            {"instance": "inv", "add": {}, "remove": {}}
        )
        assert status == 400

    def test_duplicate_adds_are_normalized_away(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        before = service.get_instance("inv").digest
        # "a b" already exists: the effective delta is empty, the digest
        # must not move, and cached entries survive untouched.
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["a", "b"]]}}
        )
        assert status == 200 and body["added"] == 0
        assert service.get_instance("inv").digest == before
        assert body["cache"] == {"invalidated": 0, "migrated": 0, "flushed": 0}
        _, hit = service.handle_query(_payload(instance="inv"))
        assert hit["cached"] is True

    def test_a_fact_repeated_in_one_update_counts_once(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        status, body = service.handle_update(
            {"instance": "inv", "add": {"S": [["z"], ["z"]]}}
        )
        assert status == 200 and body["added"] == 1
        instance = service.get_instance("inv")
        assert instance.digest == database_digest(instance.database)

    def test_update_while_draining_is_503(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        service.request_drain()
        status, body = service.handle_update(
            {"instance": "inv", "add": {"R": [["z", "z"]]}}
        )
        assert status == 503 and body["draining"]


class TestStatusSurface:
    def test_status_includes_cache_section(self):
        service = QueryService(name="unit-cache")
        service.handle_query(_payload())
        service.handle_query(_payload())
        section = service.status()["result_cache"]
        assert section["name"] == "unit-cache"
        assert section["hits"] == 1 and section["misses"] == 1
        assert section["size"] == 1 and section["capacity"] == 256

    def test_diagnostics_cache_report_aggregates(self):
        from repro.diagnostics import cache_report

        service = QueryService(name="unit-diag")
        try:
            service.handle_query(_payload())
            service.handle_query(_payload())
            report = cache_report(None)
            assert report.result_cache.get("hits", 0) >= 1
            assert "result cache" in report.format()
        finally:
            service.close()

    def test_close_unregisters_the_cache(self):
        from repro.diagnostics import aggregated_result_cache_stats

        service = QueryService(name="unit-unreg")
        service.handle_query(_payload())
        before = aggregated_result_cache_stats().get("caches", 0)
        service.close()
        after = aggregated_result_cache_stats().get("caches", 0)
        assert after == before - 1


class TestPreparedInstances:
    def test_replacing_an_instance_closes_its_warm_backend(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        first = service.get_instance("inv")
        service.handle_query(_payload(instance="inv", seed=8))
        assert first.closed and not service.get_instance("inv").closed
        service.close()
        assert service.status()["instances"] == []

    def test_update_after_a_replacement_lands_on_the_new_instance(self):
        service = QueryService()
        service.handle_query(_payload(instance="inv"))
        service.handle_query(
            _payload(instance="inv", database={"R": [["p", "q"]], "S": [["p"]]})
        )
        status, body = service.handle_update(
            {"instance": "inv", "add": {"S": [["z"]]}}
        )
        assert status == 200 and body["added"] == 1
        assert body["digest"] == database_digest(service.get_instance("inv").database)
        assert len(service.get_instance("inv").database) == 3

    def test_update_latency_histogram_by_status(self):
        service = QueryService()
        histogram = obs_metrics.REGISTRY.get("ocqa_update_latency_seconds")

        def counts():
            return [histogram.count_sum(status=s)[0] for s in ("ok", "invalid")]

        before = counts()
        service.handle_query(_payload(instance="inv"))
        service.handle_update({"instance": "inv", "add": {"S": [["z"]]}})
        service.handle_update({"instance": "inv"})
        assert counts() == [before[0] + 1, before[1] + 1]
        assert "ocqa_update_latency_seconds_bucket" in obs_metrics.REGISTRY.render()

    def test_concurrent_updates_never_pair_a_database_with_another_digest(
        self, monkeypatch
    ):
        """One thread updates while another queries with ``cache: use``.

        Every stored key's digest is the digest of the database its
        answer was computed on, and every hit equals a bypass recompute
        on the database the hit was looked up for.
        """
        service = QueryService(name="unit-snapshot")
        stored, hits = [], []
        store_result = QueryService._store_result
        cached_body = QueryService._cached_body

        def spy_store(self, key, request, body):
            stored.append((key.instance_digest, request.database))
            store_result(self, key, request, body)

        def spy_hit(self, request, hit):
            body = cached_body(self, request, hit)
            hits.append((request.database, str(request.query), _core(body)))
            return body

        monkeypatch.setattr(QueryService, "_store_result", spy_store)
        monkeypatch.setattr(QueryService, "_cached_body", spy_hit)
        service.handle_query(_payload(instance="inv"))
        queries = ["Q(x) :- R(x, y)", "Q(x) :- S(x)"]
        base = {"instance": "inv", "epsilon": 0.3, "delta": 0.3,
                "runs": 20, "seed": 7}
        done = threading.Event()
        errors = []

        def updater():
            try:
                for step in range(24):
                    fact = (
                        {"R": [["a", f"z{step // 2}"]]}
                        if step % 4 < 2
                        else {"S": [[f"s{step // 2}"]]}
                    )
                    action = "add" if step % 2 == 0 else "remove"
                    status, body = service.handle_update(
                        {"instance": "inv", action: fact}
                    )
                    assert status == 200, body
            except BaseException as exc:  # reported below
                errors.append(exc)
            finally:
                done.set()

        def querier():
            try:
                step = 0
                while not done.is_set() or step < 8:
                    status, body = service.handle_query(
                        dict(base, query=queries[step % 2])
                    )
                    assert status == 200, body
                    step += 1
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=updater), threading.Thread(target=querier)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert stored and hits
        for digest, database in stored:
            assert digest == database_digest(database)
        checked = {}
        for database, query, body in hits:
            if (database, query) not in checked:
                _, fresh = service.handle_query(
                    _payload(
                        database=database_to_json(database),
                        query=query,
                        cache="bypass",
                    )
                )
                checked[(database, query)] = _core(fresh)
            assert body == checked[(database, query)], query


class _RecordingSocket:
    """A connection stand-in: requests from a buffer, writes recorded."""

    def __init__(self, requests: bytes) -> None:
        self._requests = io.BytesIO(requests)
        self.writes = []
        self.options = {}

    def makefile(self, mode, buffering=None):
        assert "r" in mode
        return self._requests

    def setsockopt(self, level, option, value):
        self.options[(level, option)] = value

    def settimeout(self, timeout):
        pass

    def sendall(self, data):
        self.writes.append(bytes(data))


def _raw_request(method, path, body=b""):
    if not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _serve_connection(service, *requests):
    """Run one keep-alive connection through the handler; its socket."""
    handler = type("Handler", (_ServiceHandler,), {"service": service})
    sock = _RecordingSocket(b"".join(requests))
    handler(sock, ("127.0.0.1", 0), None)
    return sock


def _status_of_whole_response(write):
    """The status of one write, which must hold a complete response."""
    head, sep, body = write.partition(b"\r\n\r\n")
    assert sep, write
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body), write
    return int(lines[0].split()[1])


class TestTransport:
    def test_every_response_is_one_write_on_a_nodelay_socket(self):
        service = QueryService(
            quotas={
                "metered": TenantQuota(
                    max_concurrent=4, draws_per_second=0.001, burst=1.0
                )
            }
        )
        sock = _serve_connection(
            service,
            _raw_request("POST", "/query", _payload()),
            _raw_request("POST", "/query", _payload()),
            _raw_request("POST", "/query", b"{not json"),
            _raw_request("POST", "/query", _payload(tenant="metered", cache="bypass")),
            _raw_request("GET", "/status"),
            _raw_request("GET", "/metrics"),
            _raw_request("GET", "/healthz"),
            _raw_request("GET", "/nowhere"),
            _raw_request("DELETE", "/query"),
        )
        assert sock.options == {(socket.IPPROTO_TCP, socket.TCP_NODELAY): True}
        statuses = [_status_of_whole_response(write) for write in sock.writes]
        assert statuses == [200, 200, 400, 429, 200, 200, 200, 404, 501]
        # A refusal that leaves the body unread ends the connection.
        sock = _serve_connection(
            service,
            _raw_request("POST", "/nowhere", _payload()),
            _raw_request("GET", "/healthz"),
        )
        statuses = [_status_of_whole_response(write) for write in sock.writes]
        assert statuses == [404]

        service.request_drain()
        sock = _serve_connection(
            service,
            _raw_request("POST", "/query", _payload()),
            _raw_request("POST", "/update", {"instance": "x", "add": {}}),
        )
        statuses = [_status_of_whole_response(write) for write in sock.writes]
        assert statuses == [503, 503]
        assert b"Retry-After: 1" in sock.writes[0]

    def test_keep_alive_cache_hits_are_fast(self):
        with QueryService() as service:
            host, port = service.address
            conn = http.client.HTTPConnection(host, port, timeout=30)

            def post(payload):
                conn.request(
                    "POST",
                    "/query",
                    json.dumps(payload).encode("utf-8"),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                return json.loads(response.read())

            try:
                assert post(_payload(instance="inv"))["cached"] is False
                hit = {k: v for k, v in _payload(instance="inv").items()
                       if k not in ("database", "constraints")}
                latencies = []
                for _ in range(30):
                    started = time.perf_counter()
                    assert post(hit)["cached"] is True
                    latencies.append(time.perf_counter() - started)
            finally:
                conn.close()
        # A response split over two writes waits out the client's delayed
        # ACK (~40 ms); one write on a TCP_NODELAY socket takes ~1 ms.
        assert statistics.median(latencies) < 0.015, latencies
