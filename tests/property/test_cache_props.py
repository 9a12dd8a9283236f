"""Result-cache soundness properties, over seeded randomized schedules.

Two invariants back the cache's correctness claim:

1. **Byte-identity** — a cache hit for the exact requested key/level is
   byte-identical to recomputing the query from scratch, on every
   backend (SQLite, in-memory, PostgreSQL when reachable).  This holds
   because the key folds in everything that decides the drawn bytes
   (instance digest, constraints, query, backend, seed, run count).

2. **No stale answers** — after any ``apply_update`` schedule, a
   ``cache: "use"`` response always equals a ``cache: "bypass"``
   recompute on the *current* instance.  Invalidation may be
   conservative (extra misses are fine); it may never be unsound
   (a hit reflecting pre-update contents).

The service keeps each named instance warm between updates (one loaded
backend, one sampler, a rolling digest); the schedule test also pins
that this prepared state never drifts from a from-scratch rebuild.
"""

import random

import pytest

from repro.constraints import ConstraintSet
from repro.constraints.parser import parse_constraints
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries.parser import parse_query
from repro.service.cache import ResultCache, request_cache_key
from repro.service.server import QueryService, _ServiceInstance
from repro.sql import ConstraintRepairSampler, create_backend
from repro.sql.digest import database_digest

try:
    from repro.sql.postgres import postgres_available

    HAVE_POSTGRES = postgres_available()
except Exception:  # pragma: no cover - driver import failure
    HAVE_POSTGRES = False

BACKENDS = ["sqlite", "memory"] + (["postgres"] if HAVE_POSTGRES else [])

CONSTRAINTS_TEXT = "R(x, y), R(x, z) -> y = z"


def _database():
    return Database(
        frozenset(
            {
                Fact("R", ("a", "b")),
                Fact("R", ("a", "c")),
                Fact("R", ("d", "e")),
                Fact("S", ("a",)),
                Fact("S", ("d",)),
            }
        )
    )


def _run_once(backend_name, database, constraints, query, seed, runs):
    schema = Schema.infer(database).extend(constraints.schema())
    with create_backend(backend_name) as backend:
        backend.load(database, schema)
        sampler = ConstraintRepairSampler(
            backend, schema, constraints, rng=random.Random(seed)
        )
        report = sampler.run(query, runs=runs)
    return {
        "frequencies": sorted(
            (tuple(str(t) for t in candidate), frequency)
            for candidate, frequency in report.items()
        ),
        "runs": report.runs,
    }


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_cached_body_is_byte_identical_to_recompute(backend_name):
    """Store one run's body, then recompute from scratch: the cache hit
    and the recompute must agree byte for byte on every backend."""
    database = _database()
    constraints = ConstraintSet(parse_constraints(CONSTRAINTS_TEXT))
    query = parse_query("Q(x) :- R(x, y)")
    cache = ResultCache(8, name=f"prop-{backend_name}")
    key = request_cache_key(
        database, constraints, query, backend=backend_name, seed=11, runs=60
    )
    first = _run_once(backend_name, database, constraints, query, 11, 60)
    cache.put(key, 0.1, 0.1, draws=60, relations=frozenset({"R"}), body=first)
    hit = cache.get(key, 0.1, 0.1)
    assert hit is not None and hit.exact
    recompute = _run_once(backend_name, database, constraints, query, 11, 60)
    assert hit.body == recompute


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_sampler_rolled_digest_matches_recomputed(backend_name):
    """The digest a sampler rolls through apply_update equals the digest
    of the post-delta database recomputed from scratch."""
    database = _database()
    constraints = ConstraintSet(parse_constraints(CONSTRAINTS_TEXT))
    schema = Schema.infer(database).extend(constraints.schema())
    rng = random.Random(3)
    with create_backend(backend_name) as backend:
        backend.load(database, schema)
        sampler = ConstraintRepairSampler(
            backend, schema, constraints, rng=random.Random(0)
        )
        assert sampler.result_digest() == database_digest(database)
        live = set(database.facts)
        for step in range(8):
            if live and rng.random() < 0.5:
                removed = set(rng.sample(sorted(live, key=str), 1))
                added = set()
            else:
                added = {
                    Fact("R", (f"k{rng.randint(0, 4)}", f"v{rng.randint(0, 4)}"))
                } - live
                removed = set()
            live = (live - removed) | added
            report = sampler.apply_update(added=added, removed=removed)
            expected = database_digest(Database(frozenset(live)))
            assert report.new_digest == expected, step
            assert sampler.result_digest() == expected, step


def _fresh_report(state, added, removed):
    """The report a newly loaded sampler gives for one delta."""
    with create_backend("sqlite") as backend:
        backend.load(state.database, state.schema)
        sampler = ConstraintRepairSampler(backend, state.schema, state.constraints)
        return sampler.apply_update(added, removed)


@pytest.mark.parametrize("schedule_seed", [1, 2, 3, 4, 5, 6])
def test_update_schedule_never_serves_stale_answers(schedule_seed, monkeypatch):
    """Drive the service through a seeded update schedule; after every
    delta, the cached path must answer exactly like a bypass recompute
    for every query — staleness would break the equality — and the
    instance's warm state must match a from-scratch rebuild."""
    deltas = []
    warm_apply = _ServiceInstance.apply_update

    def recording_apply(self, added, removed):
        before = self.state
        report = warm_apply(self, added, removed)
        deltas.append((before, list(added), list(removed), report))
        return report

    monkeypatch.setattr(_ServiceInstance, "apply_update", recording_apply)
    rng = random.Random(schedule_seed)
    service = QueryService(name=f"prop-sched-{schedule_seed}")
    database = {
        "R": [["a", "b"], ["a", "c"], ["d", "e"]],
        "S": [["a"], ["d"]],
    }
    queries = ["Q(x) :- R(x, y)", "Q(x) :- S(x)"]
    base = {
        "instance": "inv",
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 15,
        "seed": 5,
    }
    status, _ = service.handle_query(
        dict(
            base,
            database=database,
            constraints=CONSTRAINTS_TEXT,
            query=queries[0],
        )
    )
    assert status == 200
    volatile = ("elapsed_seconds", "cached", "cache_age_seconds")

    def core(body):
        return {k: v for k, v in body.items() if k not in volatile}

    live = {
        ("R", "a", "b"), ("R", "a", "c"), ("R", "d", "e"),
        ("S", "a"), ("S", "d"),
    }
    for step in range(12):
        # One random delta: add or remove a fact in R or S.  A relation
        # may empty out: the instance schema is fixed at registration.
        if live and rng.random() < 0.4:
            victim = rng.choice(sorted(live))
            update = {"remove": {victim[0]: [list(victim[1:])]}}
            live.discard(victim)
        else:
            relation = rng.choice(["R", "S"])
            row = (
                [f"n{rng.randint(0, 3)}", f"m{rng.randint(0, 3)}"]
                if relation == "R"
                else [f"n{rng.randint(0, 3)}"]
            )
            candidate = (relation, *row)
            if candidate in live:
                continue
            update = {"add": {relation: [row]}}
            live.add(candidate)
        status, body = service.handle_update(dict(update, instance="inv"))
        assert status == 200, (step, body)
        instance = service.get_instance("inv")
        assert instance.digest == database_digest(instance.database), step
        assert instance.database == Database(
            frozenset(Fact(rel, tuple(row)) for rel, *row in live)
        ), step
        before, added, removed, warm = deltas[-1]
        fresh = _fresh_report(before, added, removed)
        assert warm.unsafe_relations == fresh.unsafe_relations, step
        assert warm.touched_groups == fresh.touched_groups, step
        assert (warm.old_digest, warm.new_digest) == (
            before.digest,
            instance.digest,
        ), step
        for query in queries:
            _, used = service.handle_query(dict(base, query=query))
            _, fresh = service.handle_query(
                dict(base, query=query, cache="bypass")
            )
            assert core(used) == core(fresh), (step, query, used, fresh)
    stats = service.result_cache.stats()
    # The schedule exercised the cache: queries repeated, deltas landed.
    assert stats["updates"] >= 1
    assert stats["hits"] + stats["misses"] > 0


def test_constraint_override_on_a_stored_instance_keys_separately():
    """A stored-instance query that sends its own constraints misses and
    is keyed exactly like the same database posted with them."""
    service = QueryService(name="prop-override")
    base = {"instance": "inv", "query": "Q(x) :- R(x, y)", "epsilon": 0.3,
            "delta": 0.3, "runs": 15, "seed": 5}
    database = {"R": [["a", "b"], ["a", "c"], ["d", "e"]], "S": [["a"], ["d"]]}
    status, body = service.handle_query(
        dict(base, database=database, constraints=CONSTRAINTS_TEXT)
    )
    assert status == 200 and body["cached"] is False
    override = "R(x, y), R(z, y) -> x = z"
    status, body = service.handle_query(dict(base, constraints=override))
    assert status == 200 and body["cached"] is False
    _, again = service.handle_query(dict(base, constraints=override))
    assert again["cached"] is True

    stored = service.get_instance("inv")
    constraints = ConstraintSet(parse_constraints(override))
    query = parse_query(base["query"])
    key = request_cache_key(stored.database, constraints, query, seed=5, runs=15)
    instance_key = request_cache_key(
        stored.database, stored.state.constraints, query, seed=5, runs=15
    )
    assert key.constraint_fingerprint != instance_key.constraint_fingerprint
    assert service.result_cache.get(key, 0.3, 0.3) is not None
    assert service.result_cache.get(instance_key, 0.3, 0.3) is not None
    assert len(service.result_cache) == 2
