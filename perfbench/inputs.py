"""Seeded inputs of the benchmark: tables, predicates and insert batches.

Every generator draws from ``random.Random`` seeded with a *string*, which
CPython hashes with SHA-512 rather than ``hash()``, so the same seed gives
the same input in every process whatever ``PYTHONHASHSEED`` is.  (The
repository's ``generate_fd_table`` derives its ``State`` column from
``hash(city)`` and is therefore not used here.)

The table is a Zipcode/City/State address table with planted FDs
``Zipcode -> City -> State``, a unique ``Street`` per row and a four-valued
``Extra1`` column.  Cities and states depend only on the zipcode index, so
the FD structure -- and with it the ciphertext expansion F2 produces -- is
the same for every seed; the seed only decides which rows exist.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import random
from itertools import accumulate

from repro.api.delta import relation_digest
from repro.query import And, Eq, In, Or, Predicate
from repro.relational.csvio import write_csv
from repro.relational.table import Relation

SCHEMA = ("Zipcode", "City", "State", "Street", "Extra1")
NUM_STATES = 5
NUM_EXTRAS = 4
BATCH_ROWS = 16


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(part) for part in parts))


def zipcode(index: int) -> str:
    return f"{10000 + index:05d}"


def city(zip_index: int) -> str:
    return f"City{zip_index // 2}"


def state(zip_index: int) -> str:
    return f"State{(zip_index // 2) % NUM_STATES}"


def extra(index: int) -> str:
    return f"x{index}"


def address_table(num_rows: int, num_zipcodes: int, seed: int, name: str) -> Relation:
    """``num_rows`` address rows over ``num_zipcodes`` zipcodes."""
    rng = _rng("table", name, seed)
    relation = Relation(list(SCHEMA), name=name)
    for row_index in range(num_rows):
        zip_index = rng.randrange(num_zipcodes)
        relation.append(
            [
                zipcode(zip_index),
                city(zip_index),
                state(zip_index),
                f"{rng.randint(1, 999)} {rng.choice(('Main', 'Oak', 'Hudson', 'Grove'))} #{row_index}",
                extra(rng.randrange(NUM_EXTRAS)),
            ]
        )
    return relation


def insert_batch(base: Relation, seed: int, label: str) -> list[list[str]]:
    """:data:`BATCH_ROWS` rows that repeat existing (Zipcode, City, State,
    Extra1) combinations of ``base`` with fresh streets.

    Reusing combinations keeps the MAS structure unchanged, so the owner
    updates incrementally and the session ships the batch as a delta.
    """
    rng = _rng("batch", label, seed)
    street = SCHEMA.index("Street")
    rows = []
    for offset in range(BATCH_ROWS):
        row = [str(value) for value in base.row(rng.randrange(base.num_rows))]
        row[street] = f"new {label} #{offset}"
        rows.append(row)
    return rows


class PointPredicates:
    """Selective predicates on Zipcode (plus Extra1): about ten matches each.

    Half the zipcodes are drawn Zipf-skewed over a seeded ranking and half
    uniformly, so a run touches far more distinct tokens than the provider's
    256-entry hot-token cache holds, while the head of the ranking repeats.
    Every fourth predicate adds an Extra1 conjunct.  The mix is fixed rather
    than drawn because the two shapes cost different amounts, and a drawn
    mix would move the median from run to run.
    """

    ZIPF_EXPONENT = 1.1
    AND_EVERY = 4

    def __init__(self, num_zipcodes: int, seed: int, stream: str = "point"):
        self._rng = _rng("predicates", stream, seed)
        self._num_zipcodes = num_zipcodes
        self._issued = 0
        ranking = list(range(num_zipcodes))
        self._rng.shuffle(ranking)
        self._ranking = ranking
        self._cumulative = list(
            accumulate(1.0 / (rank + 1) ** self.ZIPF_EXPONENT for rank in range(num_zipcodes))
        )

    def next(self) -> Predicate:
        rng = self._rng
        self._issued += 1
        if rng.random() < 0.5:
            point = rng.random() * self._cumulative[-1]
            zip_index = self._ranking[bisect.bisect_left(self._cumulative, point)]
        else:
            zip_index = rng.randrange(self._num_zipcodes)
        leaf = Eq("Zipcode", zipcode(zip_index))
        if self._issued % self.AND_EVERY:
            return leaf
        return And((leaf, Eq("Extra1", extra(rng.randrange(NUM_EXTRAS)))))


class BroadPredicates:
    """Broad ``In``/``Or`` predicates on State, Extra1 and City.

    Four shapes in turn, each matching about 40% of the rows (some 1,600 of
    a 4k-row table), so every select does comparable work.  Each shape
    draws from a small seeded pool of predicates, so the distinct tokens of
    a run fit the provider's hot-token cache.
    """

    POOL = 6

    def __init__(self, num_zipcodes: int, seed: int, stream: str = "broad"):
        self._rng = rng = _rng("predicates", stream, seed)
        cities = [city(2 * index) for index in range(num_zipcodes // 2)]

        def states(count: int) -> tuple[str, ...]:
            return tuple(sorted(f"State{index}" for index in rng.sample(range(NUM_STATES), count)))

        def extras(count: int) -> tuple[str, ...]:
            return tuple(sorted(extra(index) for index in rng.sample(range(NUM_EXTRAS), count)))

        shapes = (
            lambda: In("State", states(2)),
            lambda: Or((Eq("State", states(1)[0]), Eq("Extra1", extras(1)[0]))),
            lambda: And((In("State", states(4)), In("Extra1", extras(2)))),
            lambda: Or((In("City", tuple(sorted(rng.sample(cities, 3)))), In("State", states(2)))),
        )
        self._pools = [[shape() for _ in range(self.POOL)] for shape in shapes]
        self._issued = 0

    def next(self) -> Predicate:
        pool = self._pools[self._issued % len(self._pools)]
        self._issued += 1
        return self._rng.choice(pool)


def csv_bytes(rows: Relation | list[list[str]]) -> int:
    """Plaintext size of ``rows`` as CSV (the user bytes a store holds)."""
    if isinstance(rows, list):
        rows = Relation(list(SCHEMA), rows)
    buffer = io.StringIO()
    write_csv(rows, buffer)
    return len(buffer.getvalue().encode("utf-8"))


def input_digest(base: Relation, ops: list[str]) -> str:
    """SHA-256 over the base table's :func:`relation_digest` and a textual
    prefix of the operation stream, to show that two runs ran one input."""
    digest = hashlib.sha256(relation_digest(base).encode("ascii"))
    for op in ops:
        digest.update(b"\x1e")
        digest.update(op.encode("utf-8"))
    return digest.hexdigest()
