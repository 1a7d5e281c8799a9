"""Costs of the trustworthy-server subsystem (PR 8).

Not a figure from the paper — F2's evaluation assumes an honest-but-curious
server; this tracks what the integrity plane (Merkle roots, inclusion
proofs, signed replies, version CAS) costs on top of it:

* **Proof size vs rows** — a reply carries one Merkle multiproof for all
  its matched rows; measured as actual wire bytes of the proof attachment
  across table sizes, for a sparse match set (64 rows) and a dense one
  (a third of the rows).  Gate: the multiproof is never larger than the
  ``k * 32 * ceil(log2 n)`` bytes that ``k`` separate inclusion paths
  would take, and at a third of the rows it is at most 0.15x of that.
  Byte counts are deterministic, so the gate holds on any machine.
* **Owner verify throughput** — matched rows proven per second through
  one multiproof, and the owner-side tree (re)build rate in rows/s (the
  cost of ``record_push``).
* **Signed-reply overhead** — verified plan queries (protocol v3: signed
  frames + signed replies + root + proofs) against the same queries on an
  anonymous server; the PR 5 baseline for signed *frames* alone was a
  0.84 signed/unsigned throughput ratio (``BENCH_protocol.json``).
* **CAS retry rate under contention** — concurrent coordinated writers
  against one table: delta pushes, conflicts, rebases, and the retry
  rate; full-view fallbacks are asserted to be zero.

Results land in ``BENCH_integrity.json``.
"""

from __future__ import annotations

import random
import threading
import time

from repro.api import (
    DataOwner,
    LoopbackTransport,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    TenantRegistry,
)
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.integrity.merkle import MerkleTree, hash_row, verify_multiproof
from repro.integrity.writers import WriteCoordinator
from repro.relational.table import Relation
from repro.wire import encode_merkle_proofs

from benchmarks.conftest import scale

BENCH_NAME = "integrity"

PROOF_TABLE_SIZES = (1000, 4000, 16000, 64000)
PROOF_MATCHES = 64
#: The dense match set's share of the rows, and the largest fraction of the
#: separate-paths bound its multiproof may take.
DENSE_FRACTION = 3
DENSE_BOUND_FRACTION = 0.15
VERIFY_ROWS = 20000
VERIFY_MATCHES = 2000
QUERY_REPEATS = 40
WRITERS = 3
INSERTS_PER_WRITER = 2
DISTINCT = 32


def make_leaves(num_rows: int) -> list[bytes]:
    return [hash_row([f"city{i % DISTINCT}", f"{i:06d}", f"s{i}"]) for i in range(num_rows)]


def make_relation(num_rows: int, name: str = "bench") -> Relation:
    return Relation(
        ["city", "zip", "street"],
        [[f"city{i % DISTINCT}", f"{i % 97:05d}", f"street{i % 513}"] for i in range(num_rows)],
        name=name,
    )


def timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# Proof size vs table size
# ----------------------------------------------------------------------
def proof_sizes(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        tree = MerkleTree(make_leaves(num_rows))
        step = max(1, num_rows // PROOF_MATCHES)
        match_sets = {
            "sparse": list(range(0, num_rows, step))[:PROOF_MATCHES],
            "dense": sorted(
                random.Random(num_rows).sample(range(num_rows), num_rows // DENSE_FRACTION)
            ),
        }
        for match_set, indexes in match_sets.items():
            siblings = tree.multiproof(indexes)
            blob = encode_merkle_proofs(num_rows, siblings, "binary")
            proof_bytes = 32 * len(siblings)
            bound = len(indexes) * 32 * (num_rows - 1).bit_length()
            rows.append(
                {
                    "rows": num_rows,
                    "match_set": match_set,
                    "matches": len(indexes),
                    "attachment_bytes": len(blob),
                    "proof_bytes": proof_bytes,
                    "proof_bytes_per_match": round(proof_bytes / max(1, len(indexes)), 1),
                    "separate_paths_bytes": bound,
                    "bound_fraction": round(proof_bytes / max(1, bound), 4),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Owner-side verification throughput
# ----------------------------------------------------------------------
def verify_throughput(num_rows: int, num_matches: int) -> list[dict]:
    leaves = make_leaves(num_rows)
    build_seconds, tree = timed(lambda: MerkleTree(leaves))
    step = max(1, num_rows // num_matches)
    indexes = list(range(0, num_rows, step))[:num_matches]
    siblings = tree.multiproof(indexes)
    root = tree.root
    check_seconds, good = timed(
        lambda: verify_multiproof(leaves, indexes, siblings, root)
    )
    assert good
    return [
        {
            "rows": num_rows,
            "tree_build_rows_per_s": round(num_rows / build_seconds),
            "rows_proven": len(indexes),
            "rows_proven_per_s": round(len(indexes) / check_seconds),
        }
    ]


# ----------------------------------------------------------------------
# Verified (signed reply + proofs) vs anonymous query round trips
# ----------------------------------------------------------------------
def signed_reply_overhead(repeats: int) -> list[dict]:
    plaintext = make_relation(scale(400), name="addresses")
    results = []
    for mode in ("unsigned", "verified"):
        owner = DataOwner.from_seed(11, config=F2Config(alpha=0.3, seed=4))
        if mode == "verified":
            registry = TenantRegistry()
            credential = registry.mint("acme", "owner")
            server = ProtocolServer(tenants=registry, backend="python")
        else:
            credential = None
            server = ProtocolServer(backend="python")
        session = RemoteOwnerSession(
            owner,
            ProtocolClient(LoopbackTransport(server)),
            table_id="bench",
            credential=credential,
            verify=(mode == "verified"),
        )
        session.outsource(plaintext)
        predicate = "city = city3"
        session.select(predicate)  # warm plans and caches
        seconds, _ = timed(
            lambda s=session: [s.select(predicate) for _ in range(repeats)]
        )
        results.append(
            {
                "mode": mode,
                "queries": repeats,
                "query_ms": round(seconds / repeats * 1e3, 3),
                "queries_per_s": round(repeats / seconds, 1),
            }
        )
    return results


# ----------------------------------------------------------------------
# CAS retry behaviour under write contention
# ----------------------------------------------------------------------
def cas_contention(writers: int, inserts_each: int) -> list[dict]:
    registry = TenantRegistry()
    credential = registry.mint("acme", "owner")
    server = ProtocolServer(tenants=registry, backend="python")
    owner = DataOwner.from_seed(13, config=F2Config(alpha=0.3, seed=5))
    coordinator = WriteCoordinator(table_id="bench")
    boot = RemoteOwnerSession(
        owner,
        ProtocolClient(LoopbackTransport(server)),
        table_id="bench",
        credential=credential,
        verify=True,
        coordinator=coordinator,
    )
    boot.outsource(make_relation(scale(200), name="addresses"))

    errors: list[BaseException] = []

    def run_writer(k: int) -> None:
        try:
            session = RemoteOwnerSession(
                owner,
                ProtocolClient(LoopbackTransport(server)),
                table_id="bench",
                credential=credential,
                verify=True,
                coordinator=coordinator,
            )
            for i in range(inserts_each):
                session.insert_rows([[f"w{k}row{i}", f"{k:05d}", f"s{k}-{i}"]])
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run_writer, args=(k,)) for k in range(writers)]
    seconds, _ = timed(
        lambda: [[t.start() for t in threads], [t.join() for t in threads]]
    )
    assert not errors, errors
    stats = coordinator.stats
    assert stats.full_fallbacks == 0
    pushes = stats.delta_pushes + stats.noop_pushes
    return [
        {
            "writers": writers,
            "inserts": writers * inserts_each,
            "seconds": round(seconds, 3),
            **stats.as_dict(),
            "retry_rate": round(stats.cas_conflicts / max(1, pushes), 4),
        }
    ]


# ----------------------------------------------------------------------
# Bench entry points
# ----------------------------------------------------------------------
def test_proof_size_vs_rows(benchmark, bench_json):
    # Unscaled: proof bytes are a deterministic function of the table size
    # and match set, the sweep takes well under a second, and the dense
    # gate needs a few hundred rows (the multiproof spends about 1.2
    # siblings per dense match against ceil(log2 n) per separate path).
    rows = benchmark.pedantic(
        proof_sizes, args=(PROOF_TABLE_SIZES,), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Multiproof size vs table size"))
    bench_json.add("proof_size", rows)
    for row in rows:
        assert row["proof_bytes"] <= row["separate_paths_bytes"], row
        if row["match_set"] == "dense":
            assert row["bound_fraction"] <= DENSE_BOUND_FRACTION, row


def test_owner_verify_throughput(benchmark, bench_json):
    rows = benchmark.pedantic(
        verify_throughput,
        args=(scale(VERIFY_ROWS), scale(VERIFY_MATCHES)),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(rows, title="Owner-side verification throughput"))
    bench_json.add("verify_throughput", rows)
    assert rows[0]["rows_proven_per_s"] > 0


def test_signed_reply_overhead(benchmark, bench_json):
    rows = benchmark.pedantic(
        signed_reply_overhead, args=(QUERY_REPEATS,), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Verified vs anonymous query round trips"))
    bench_json.add("signed_reply", rows)
    by_mode = {row["mode"]: row for row in rows}
    bench_json.add(
        "signed_reply_summary",
        [],
        verified_vs_unsigned_throughput_ratio=round(
            by_mode["verified"]["queries_per_s"] / by_mode["unsigned"]["queries_per_s"],
            4,
        ),
        pr5_signed_frame_ratio_baseline=0.8437,
    )
    assert by_mode["verified"]["queries_per_s"] > 0


def test_cas_retry_rate_under_contention(benchmark, bench_json):
    rows = benchmark.pedantic(
        cas_contention, args=(WRITERS, INSERTS_PER_WRITER), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Coordinated multi-writer contention"))
    bench_json.add("cas_contention", rows)
    assert rows[0]["full_fallbacks"] == 0
