"""The query-service result cache: bounded, delta-invalidated, guarantee-aware.

``ocqa serve`` recomputes every repeat query from scratch; this module
gives it a thread-safe LRU (+ optional TTL) cache of finished
``/query`` bodies.  Three properties distinguish it from a generic
response cache:

**Keying is semantic, not positional.**  A :class:`CacheKey` folds the
instance digest (:func:`repro.sql.digest.database_digest` — order
independent, delta-rollable), the schema + constraint fingerprint, the
query identity, the backend name, and every knob that changes the drawn
bytes (seed, explicit run count, adaptive mode) through
:func:`repro.campaign.campaign_fingerprint`.  Two requests share an
entry exactly when the sampling machinery would produce byte-identical
estimates for them; a data or schema change can never alias a key.

**Hits respect the paper's guarantees.**  Every entry records the
``(eps, delta)`` level it was computed at and the valid draws behind
it.  A request for a *weaker* level ``(eps', delta')`` may be served
from a stronger entry: either the stored level dominates
(``eps <= eps'`` and ``delta <= delta'``) or the stored draw count
alone certifies ``eps'`` at ``delta'`` via the Hoeffding inversion
(:func:`repro.analysis.bernstein.widened_epsilon`).  Entries keyed by
an explicit run count ignore the level entirely — a fixed-``n``
campaign draws the same bytes whatever ``(eps, delta)`` the client
wrote next to it.

**Invalidation rides the delta path.**  ``apply_update`` on a sampler
returns an :class:`repro.campaign.UpdateReport`; feeding it to
:meth:`ResultCache.apply_update` removes exactly the entries whose
answers the delta could have changed (their dependency footprint meets
the delta's relations or a restructured conflict group) and *migrates*
the provably untouched ones to the post-update instance digest, so they
keep hitting.  When the report cannot prove anything — no pre/post
digests, or an entry with no sound footprint — the cache falls back to
a conservative flush of the affected entries.

Counters ``ocqa_cache_{hits,misses,invalidations,evictions,migrations}_total``
and trace spans ``cache_hit`` / ``cache_invalidate`` surface every
decision; :meth:`ResultCache.stats` feeds ``/status`` and
``diagnostics.cache_report``.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.bernstein import widened_epsilon
from repro.campaign import UpdateReport, campaign_fingerprint
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["CacheHit", "CacheKey", "ResultCache", "request_cache_key"]

_HITS = obs_metrics.REGISTRY.counter(
    "ocqa_cache_hits_total",
    "Result-cache hits, by cache.",
    ("cache",),
)
_MISSES = obs_metrics.REGISTRY.counter(
    "ocqa_cache_misses_total",
    "Result-cache misses, by cache.",
    ("cache",),
)
_INVALIDATIONS = obs_metrics.REGISTRY.counter(
    "ocqa_cache_invalidations_total",
    "Result-cache entries invalidated, by cache and reason "
    "(delta, unproven, flush).",
    ("cache", "reason"),
)
_EVICTIONS = obs_metrics.REGISTRY.counter(
    "ocqa_cache_evictions_total",
    "Result-cache entries evicted, by cache and reason (lru, ttl, replace).",
    ("cache", "reason"),
)
_MIGRATIONS = obs_metrics.REGISTRY.counter(
    "ocqa_cache_migrations_total",
    "Result-cache entries migrated across an update whose delta "
    "provably missed them, by cache.",
    ("cache",),
)


@dataclass(frozen=True)
class CacheKey:
    """Everything (besides the accuracy level) that decides the bytes."""

    instance_digest: str
    constraint_fingerprint: str
    query_identity: str
    backend: str = "sqlite"
    seed: Optional[int] = None
    runs: Optional[int] = None
    adaptive: bool = False

    def base_fingerprint(self) -> str:
        return campaign_fingerprint(
            "result-cache-v1",
            self.instance_digest,
            self.constraint_fingerprint,
            self.query_identity,
            self.backend,
            self.seed,
            self.runs,
            self.adaptive,
        )

    def fingerprint(self, epsilon: float, delta: float) -> str:
        return campaign_fingerprint(
            self.base_fingerprint(), repr(epsilon), repr(delta)
        )


def request_cache_key(
    database: Any,
    constraints: Any,
    query: Any,
    *,
    digest: Optional[str] = None,
    schema: Any = None,
    backend: str = "sqlite",
    seed: Optional[int] = None,
    runs: Optional[int] = None,
    adaptive: bool = False,
) -> CacheKey:
    """Build the :class:`CacheKey` for one service request.

    *database* is a :class:`repro.db.facts.Database`, *constraints* a
    :class:`~repro.constraints.base.ConstraintSet`, *query* a parsed
    query.  *digest* and *schema* are the instance digest and the full
    schema the query runs under; a registered instance passes the ones
    it prepared at registration, and for a posted database they default
    to :func:`~repro.sql.digest.database_digest` and ``Schema.infer +
    constraints schema`` — the same schema the query path builds, so
    schema drift between requests changes the key.
    """
    if digest is None:
        from repro.sql.digest import database_digest

        digest = database_digest(database)
    if schema is None:
        from repro.db.schema import Schema

        schema = Schema.infer(database).extend(constraints.schema())
    return CacheKey(
        instance_digest=digest,
        constraint_fingerprint=campaign_fingerprint(
            schema.fingerprint(),
            tuple(sorted(str(c) for c in constraints)),
        ),
        query_identity=campaign_fingerprint(
            type(query).__name__, str(query)
        ),
        backend=backend,
        seed=seed,
        runs=runs,
        adaptive=adaptive,
    )


@dataclass
class _Entry:
    key: CacheKey
    epsilon: float
    delta: float
    draws: int
    relations: Optional[FrozenSet[str]]
    body: Dict[str, Any]
    created: float


@dataclass(frozen=True)
class CacheHit:
    """What :meth:`ResultCache.get` hands back on a hit."""

    body: Dict[str, Any]
    age_seconds: float
    draws: int
    epsilon: float
    delta: float
    #: The stored level matches the requested one exactly — the body is
    #: byte-identical to a recompute.  ``False`` marks a weaker-level
    #: hit served from a stronger entry (a *better* estimate than a
    #: recompute would produce).
    exact: bool


@dataclass
class _Stats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    migrations: int = 0
    flushes: int = 0
    updates: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class ResultCache:
    """A bounded LRU/TTL map from :class:`CacheKey` + level to bodies."""

    def __init__(
        self,
        capacity: int = 256,
        ttl: Optional[float] = None,
        *,
        name: str = "service",
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive seconds, got {ttl}")
        self.capacity = int(capacity)
        self.ttl = ttl
        self.name = name
        self._clock = clock
        self._lock = threading.RLock()
        #: Full fingerprint -> entry, most recently used last.
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: Base fingerprint -> the full fingerprints of its levels.
        self._levels: Dict[str, Set[str]] = {}
        #: Instance digest -> the full fingerprints keyed under it.
        self._by_digest: Dict[str, Set[str]] = {}
        self._stats = _Stats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(
        self, key: CacheKey, epsilon: float, delta: float
    ) -> Optional[CacheHit]:
        """A hit valid at ``(epsilon, delta)``, or ``None`` (a miss).

        Every call counts exactly one hit or one miss — the service
        calls this once per ``cache: "use"`` request, which is what
        lets the soak reconcile the counters against its request log.
        """
        now = self._clock()
        with self._lock:
            entry, exact = self._lookup(key, epsilon, delta, now)
            if entry is None:
                self._count_miss()
                return None
            fingerprint = entry.key.fingerprint(entry.epsilon, entry.delta)
            self._entries.move_to_end(fingerprint)
            self._count_hit()
            age = max(0.0, now - entry.created)
            obs_trace.span(
                "cache_hit",
                cache=self.name,
                key=fingerprint[:16],
                age_seconds=round(age, 3),
                draws=entry.draws,
                exact=exact,
            )
            return CacheHit(
                body=copy.deepcopy(entry.body),
                age_seconds=age,
                draws=entry.draws,
                epsilon=entry.epsilon,
                delta=entry.delta,
                exact=exact,
            )

    def _lookup(
        self, key: CacheKey, epsilon: float, delta: float, now: float
    ) -> Tuple[Optional[_Entry], bool]:
        base = key.base_fingerprint()
        exact_fp = campaign_fingerprint(base, repr(epsilon), repr(delta))
        entry = self._entries.get(exact_fp)
        if entry is not None and self._fresh(entry, now):
            return entry, True
        best: Optional[_Entry] = None
        for fingerprint in list(self._levels.get(base, ())):
            candidate = self._entries.get(fingerprint)
            if candidate is None:
                continue
            if not self._fresh(candidate, now):
                continue
            if not self._serves(candidate, epsilon, delta):
                continue
            if best is None or candidate.draws > best.draws:
                best = candidate
        if best is None:
            return None, False
        # A fixed-run entry redraws the same bytes at any level, so the
        # requested level *is* served exactly.
        return best, key.runs is not None

    @staticmethod
    def _serves(entry: _Entry, epsilon: float, delta: float) -> bool:
        """The weaker-``(eps', delta')`` hit rule."""
        if entry.key.runs is not None:
            # Fixed-run campaigns never look at (eps, delta): the body
            # is byte-identical to a recompute at the requested level.
            return True
        if entry.epsilon <= epsilon and entry.delta <= delta:
            return True
        return widened_epsilon(entry.draws, delta) <= epsilon

    def put(
        self,
        key: CacheKey,
        epsilon: float,
        delta: float,
        *,
        draws: int,
        relations: Optional[FrozenSet[str]],
        body: Dict[str, Any],
    ) -> None:
        """Insert (or refresh) the entry for *key* at ``(eps, delta)``."""
        entry = _Entry(
            key=key,
            epsilon=float(epsilon),
            delta=float(delta),
            draws=int(draws),
            relations=None if relations is None else frozenset(relations),
            body=copy.deepcopy(body),
            created=self._clock(),
        )
        fingerprint = key.fingerprint(entry.epsilon, entry.delta)
        with self._lock:
            if fingerprint in self._entries:
                self._remove(fingerprint)
                self._count_eviction("replace")
            self._entries[fingerprint] = entry
            self._levels.setdefault(key.base_fingerprint(), set()).add(
                fingerprint
            )
            self._by_digest.setdefault(key.instance_digest, set()).add(
                fingerprint
            )
            while len(self._entries) > self.capacity:
                oldest = next(iter(self._entries))
                self._remove(oldest)
                self._count_eviction("lru")

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def apply_update(self, report: UpdateReport) -> Dict[str, int]:
        """Invalidate/migrate for one base-table delta.

        Entries keyed under ``report.old_digest`` whose dependency
        footprint meets the delta's unsafe relations (or who have no
        footprint) are invalidated; the rest are *migrated* to
        ``report.new_digest`` — their clean rows, conflict groups, and
        per-group RNG substreams are all provably unchanged, so the
        cached bytes remain exactly what a recompute would produce.
        Without digests the report proves nothing and the whole cache
        is flushed (the conservative fallback).
        """
        with self._lock:
            self._stats.updates += 1
            if report.old_digest is None or report.new_digest is None:
                flushed = self._flush_locked("unproven")
                obs_trace.span(
                    "cache_invalidate",
                    cache=self.name,
                    reason="unproven",
                    invalidated=flushed,
                    migrated=0,
                )
                return {"invalidated": flushed, "migrated": 0, "flushed": flushed}
            if report.old_digest == report.new_digest:
                return {"invalidated": 0, "migrated": 0, "flushed": 0}
            unsafe = report.unsafe_relations
            invalidated = migrated = 0
            for fingerprint in list(self._by_digest.get(report.old_digest, ())):
                entry = self._entries.get(fingerprint)
                if entry is None:
                    continue
                if entry.relations is None or entry.relations & unsafe:
                    self._remove(fingerprint)
                    invalidated += 1
                else:
                    self._migrate(fingerprint, entry, report.new_digest)
                    migrated += 1
            if invalidated:
                _INVALIDATIONS.inc(invalidated, cache=self.name, reason="delta")
                with self._stats.lock:
                    self._stats.invalidations += invalidated
            if migrated:
                _MIGRATIONS.inc(migrated, cache=self.name)
                with self._stats.lock:
                    self._stats.migrations += migrated
            obs_trace.span(
                "cache_invalidate",
                cache=self.name,
                reason="delta",
                invalidated=invalidated,
                migrated=migrated,
                touched_groups=len(report.touched_groups),
            )
            return {
                "invalidated": invalidated,
                "migrated": migrated,
                "flushed": 0,
            }

    def _migrate(self, fingerprint: str, entry: _Entry, new_digest: str) -> None:
        self._remove(fingerprint)
        new_key = replace(entry.key, instance_digest=new_digest)
        new_fp = new_key.fingerprint(entry.epsilon, entry.delta)
        if new_fp in self._entries:
            return
        self._entries[new_fp] = _Entry(
            key=new_key,
            epsilon=entry.epsilon,
            delta=entry.delta,
            draws=entry.draws,
            relations=entry.relations,
            body=entry.body,
            created=entry.created,
        )
        self._levels.setdefault(new_key.base_fingerprint(), set()).add(new_fp)
        self._by_digest.setdefault(new_digest, set()).add(new_fp)

    def flush(self, reason: str = "flush") -> int:
        """Drop everything; returns the number of entries removed."""
        with self._lock:
            flushed = self._flush_locked(reason)
        obs_trace.span(
            "cache_invalidate",
            cache=self.name,
            reason=reason,
            invalidated=flushed,
            migrated=0,
        )
        return flushed

    def _flush_locked(self, reason: str) -> int:
        flushed = len(self._entries)
        self._entries.clear()
        self._levels.clear()
        self._by_digest.clear()
        if flushed:
            _INVALIDATIONS.inc(flushed, cache=self.name, reason=reason)
            with self._stats.lock:
                self._stats.invalidations += flushed
        with self._stats.lock:
            self._stats.flushes += 1
        return flushed

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _fresh(self, entry: _Entry, now: float) -> bool:
        if self.ttl is None:
            return True
        if now - entry.created <= self.ttl:
            return True
        self._remove(entry.key.fingerprint(entry.epsilon, entry.delta))
        self._count_eviction("ttl")
        return False

    def _remove(self, fingerprint: str) -> None:
        entry = self._entries.pop(fingerprint, None)
        if entry is None:
            return
        base = entry.key.base_fingerprint()
        level_set = self._levels.get(base)
        if level_set is not None:
            level_set.discard(fingerprint)
            if not level_set:
                del self._levels[base]
        digest_set = self._by_digest.get(entry.key.instance_digest)
        if digest_set is not None:
            digest_set.discard(fingerprint)
            if not digest_set:
                del self._by_digest[entry.key.instance_digest]

    def _count_hit(self) -> None:
        _HITS.inc(cache=self.name)
        with self._stats.lock:
            self._stats.hits += 1

    def _count_miss(self) -> None:
        _MISSES.inc(cache=self.name)
        with self._stats.lock:
            self._stats.misses += 1

    def _count_eviction(self, reason: str) -> None:
        _EVICTIONS.inc(cache=self.name, reason=reason)
        with self._stats.lock:
            self._stats.evictions += 1

    def stats(self) -> Dict[str, Any]:
        """A JSON-able snapshot for ``/status`` and diagnostics."""
        with self._lock:
            size = len(self._entries)
        with self._stats.lock:
            hits = self._stats.hits
            misses = self._stats.misses
            snapshot: Dict[str, Any] = {
                "name": self.name,
                "size": size,
                "capacity": self.capacity,
                "ttl_seconds": self.ttl,
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 4)
                if hits + misses
                else 0.0,
                "invalidations": self._stats.invalidations,
                "evictions": self._stats.evictions,
                "migrations": self._stats.migrations,
                "flushes": self._stats.flushes,
                "updates": self._stats.updates,
            }
        return snapshot

    def entries(self) -> List[Dict[str, Any]]:
        """Debug view: one dict per live entry (no bodies)."""
        now = self._clock()
        with self._lock:
            return [
                {
                    "key": fp[:16],
                    "instance_digest": entry.key.instance_digest[:16],
                    "epsilon": entry.epsilon,
                    "delta": entry.delta,
                    "draws": entry.draws,
                    "relations": sorted(entry.relations)
                    if entry.relations is not None
                    else None,
                    "age_seconds": round(max(0.0, now - entry.created), 3),
                }
                for fp, entry in self._entries.items()
            ]
