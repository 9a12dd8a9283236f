"""Seeded inputs for every workload, made by the benchmark itself.

The same seed always gives the same instances and operation sequences.
Sizes follow the scenarios the workloads stand for: the service
instance is E16's, the API instance E11's and the fleet instance
E13's fat-answer shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Rows = List[List[str]]
Answer = Tuple[str, ...]

# --- the service instance ---------------------------------------------------

SERVE_CONSTRAINTS = "R(x, y), R(x, z) -> y = z"
SERVE_CLEAN_KEYS = 100
SERVE_GROUPS = 10
SERVE_S_ROWS = 20
SERVE_VALUES = 30
#: Draws per /query: every request fixes ``runs`` so its cost is fixed.
SERVE_RUNS = 20


def serve_instance(seed: int) -> Dict[str, Rows]:
    """``R(k, v)`` with 100 clean keys and 10 two-row key conflicts,
    plus a 20-row ``S``."""
    rng = random.Random(f"serve-instance:{seed}")
    values = [f"v{i}" for i in range(SERVE_VALUES)]
    r_rows = [[f"k{i}", rng.choice(values)] for i in range(SERVE_CLEAN_KEYS)]
    for group in range(SERVE_GROUPS):
        for value in rng.sample(values, 2):
            r_rows.append([f"c{group}", value])
    s_rows = [[f"s{i}", rng.choice(values)] for i in range(SERVE_S_ROWS)]
    return {"R": r_rows, "S": s_rows}


def selection_constant(database: Dict[str, Rows]) -> str:
    """A value held by clean and conflicting ``R`` rows alike."""
    keys: Dict[str, int] = {}
    for key, _value in database["R"]:
        keys[key] = keys.get(key, 0) + 1
    clean = {v for k, v in database["R"] if keys[k] == 1}
    conflicting = {v for k, v in database["R"] if keys[k] > 1}
    return sorted(clean & conflicting or clean)[0]


def serve_queries(database: Dict[str, Rows]) -> Dict[str, str]:
    """The CQ-shaped service queries, by name."""
    return {
        "rx": "Q(x) :- R(x, y)",
        "ry": "Q(y) :- R(x, y)",
        "rc": f"Q(x) :- R(x, '{selection_constant(database)}')",
        "sx": "Q(x) :- S(x, y)",
    }


def serve_clean_answers(
    database: Dict[str, Rows], query: str, constant: str
) -> FrozenSet[Answer]:
    """Answers of *query* that hold on the clean facts alone.

    Every repair keeps every clean fact, so each of these answers must
    come back with frequency exactly 1.0.
    """
    counts: Dict[str, int] = {}
    for key, _value in database["R"]:
        counts[key] = counts.get(key, 0) + 1
    clean = [(k, v) for k, v in database["R"] if counts[k] == 1]
    if query == "rx":
        return frozenset((k,) for k, _ in clean)
    if query == "ry":
        return frozenset((v,) for _, v in clean)
    if query == "rc":
        return frozenset((k,) for k, v in clean if v == constant)
    if query == "sx":
        return frozenset((s,) for s, _ in database["S"])
    raise ValueError(f"unknown service query {query!r}")


@dataclass(frozen=True)
class Op:
    """One request of a service workload."""

    kind: str  # "query" or "update"
    query: str = ""
    seed: int = 0
    epsilon: float = 0.1
    delta: float = 0.1
    action: str = ""  # "add" or "remove"
    relation: str = ""
    row: Tuple[str, ...] = ()

    @property
    def key(self) -> Tuple[str, int]:
        return (self.query, self.seed)


def recompute_ops(seed: int, client: int, count: int) -> List[Op]:
    """Client *client*'s ``serve_recompute`` requests: the R queries in
    rotation, each with one of four request seeds."""
    rng = random.Random(f"recompute:{seed}:{client}")
    names = ("rx", "ry", "rc")
    return [
        Op("query", names[(i + client) % 3], recompute_seed(seed, rng.randrange(4)))
        for i in range(count)
    ]


def recompute_seed(seed: int, slot: int) -> int:
    return seed * 100 + slot


#: serve_cached: the cached keys.  The R keys take almost every query;
#: each S key is asked once a cycle, right after S changed.
CACHED_R_KEYS = (("rx", 0), ("ry", 0), ("rc", 0))
CACHED_S_KEYS = (("sx", 0), ("sx", 1))
#: One cycle: 1 R update, 11 S updates, 88 queries.  Each cycle's R
#: update invalidates the three R keys and every S key query follows an
#: S update, so a cycle has exactly five misses; the rest of the queries
#: hit.  Fixing the count keeps the mix, and with it the percentiles and
#: the throughput, the same from seed to seed.
CYCLE = 100
CYCLE_S_UPDATES = 11
LEVELS = ((0.1, 0.1), (0.2, 0.1), (0.2, 0.2))


def cached_key_seed(seed: int, slot: int) -> int:
    return seed * 100 + 50 + slot


def cached_ops(seed: int, cycles: int) -> List[Op]:
    """``serve_cached`` requests for *cycles* cycles."""
    rng = random.Random(f"cached:{seed}")
    values = [f"v{i}" for i in range(SERVE_VALUES)]
    ops: List[Op] = []
    for cycle in range(cycles):
        r_row = (f"n{cycle // 2}", values[(seed + cycle // 2) % SERVE_VALUES])
        r_update = Op(
            "update",
            action="add" if cycle % 2 == 0 else "remove",
            relation="R",
            row=r_row,
        )
        queries = CYCLE - 1 - CYCLE_S_UPDATES - len(CACHED_S_KEYS)
        slots = ["update"] * CYCLE_S_UPDATES + ["query"] * queries
        rng.shuffle(slots)
        # Contents follow the shuffled order, so each S row is added
        # before it is removed.
        rest: List[Op] = []
        updates = asked = 0
        for slot_kind in slots:
            if slot_kind == "update":
                index = cycle * CYCLE_S_UPDATES + updates
                updates += 1
                row = (f"t{index // 2}", values[(seed + index // 2) % SERVE_VALUES])
                rest.append(
                    Op(
                        "update",
                        action="add" if index % 2 == 0 else "remove",
                        relation="S",
                        row=row,
                    )
                )
            else:
                name, slot = CACHED_R_KEYS[asked % len(CACHED_R_KEYS)]
                asked += 1
                rest.append(_cached_query(rng, seed, name, slot))
        first_s = slots.index("update")
        for name, slot in CACHED_S_KEYS:
            at = rng.randrange(first_s + 1, len(rest) + 1)
            rest.insert(at, _cached_query(rng, seed, name, slot))
        ops.append(r_update)
        ops.extend(rest)
    return ops


def _cached_query(rng: random.Random, seed: int, name: str, slot: int) -> Op:
    epsilon, delta = rng.choice(LEVELS)
    return Op("query", name, cached_key_seed(seed, slot), epsilon, delta)


def cached_keys(seed: int) -> List[Tuple[str, int]]:
    return [
        (name, cached_key_seed(seed, slot))
        for name, slot in CACHED_R_KEYS + CACHED_S_KEYS
    ]


def apply_op(database: Dict[str, Rows], op: Op) -> bool:
    """Apply an update to the client's copy; whether it changed a row."""
    rows = database[op.relation]
    row = list(op.row)
    if op.action == "add":
        if row in rows:
            return False
        rows.append(row)
        return True
    if row not in rows:
        return False
    rows.remove(row)
    return True


# --- the API and fleet instances --------------------------------------------

#: Both use a key on the first column of a ternary ``R``.
KEY_ARITY = 3


@dataclass(frozen=True)
class KeyInstance:
    rows: Tuple[Tuple[str, str, str], ...]
    query: str
    runs: int
    clean_answers: FrozenSet[Answer]


def key_instance(
    seed: int,
    tag: str,
    clean: int,
    groups: int,
    group_size: int,
    query: str,
    runs: int,
    whole_row: bool,
) -> KeyInstance:
    rng = random.Random(f"{tag}-instance:{seed}")
    rows = [
        (f"k{i}", f"a{rng.randrange(50)}", f"b{rng.randrange(50)}")
        for i in range(clean)
    ]
    clean_answers = frozenset(rows if whole_row else ((k,) for k, _, _ in rows))
    for group in range(groups):
        for member in range(group_size):
            rows.append((f"c{group}", f"a{rng.randrange(50)}", f"g{group}_{member}"))
    return KeyInstance(tuple(rows), query, runs, clean_answers)


def api_instance(seed: int) -> KeyInstance:
    """E11 scale: 2,000 clean rows plus 150 three-row key conflicts.

    Ten runs a campaign, not twenty, give a timed run about twice as many
    operations (both samplers each) to take its percentiles over.
    """
    return key_instance(seed, "api", 2000, 150, 3, "Q(x) :- R(x, y, z)", 10, False)


def fleet_instance(seed: int) -> KeyInstance:
    """E13's fat answers: 800 clean rows plus 20 two-row conflicts,
    queried whole-row so every draw ships about 800 answer tuples."""
    return key_instance(
        seed, "fleet", 800, 20, 2, "Q(x, y, z) :- R(x, y, z)", 40, True
    )


def campaign_seeds(seed: int) -> Sequence[int]:
    """The per-campaign seeds the API and fleet workloads cycle through."""
    return [seed * 100 + slot for slot in range(4)]


def check_clean(
    frequencies: Dict[Answer, float], clean: FrozenSet[Answer]
) -> Optional[str]:
    """``None`` when every clean answer has frequency exactly 1.0."""
    for answer in clean:
        value = frequencies.get(answer)
        if value != 1.0:
            return f"clean answer {answer} has frequency {value}, not 1.0"
    return None
