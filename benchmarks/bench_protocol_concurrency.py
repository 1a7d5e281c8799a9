"""Protocol-layer costs of the multi-tenant service (PR 5).

Not a figure from the paper — this tracks what the authenticated session
layer and delta shipping cost (and save) on top of the PR 3 wire protocol:

* **Handshake overhead** — wall time of a ``Hello`` handshake over a real
  localhost socket, next to a signed and an unsigned data round trip.
* **Signed-frame throughput** — requests/s of a small query through the
  full stack with and without the HMAC session envelope (loopback, so the
  numbers measure the protocol work, not the kernel's TCP path).
* **Delta-insert bytes on the wire** — for growing table sizes, a 1%
  row-change insert shipped as ``InsertDelta`` vs the full ``InsertBatch``
  view, plus the alignment/splice wall times.  The headline ratio at the
  largest size is asserted ≤ 0.25 (the PR's acceptance bar); in practice it
  sits far below.

Results land in ``BENCH_protocol.json`` via the shared ``bench_json``
fixture.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.api import (
    InsertBatch,
    InsertDelta,
    TenantRegistry,
    apply_view_delta,
    compute_view_delta,
)
from repro.api.protocol import (
    LoopbackTransport,
    ProtocolClient,
    ProtocolServer,
    SocketProtocolServer,
    SocketTransport,
)
from repro.api.session import DataOwner
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.datasets import generate_fd_table
from repro.query import Eq

from benchmarks.conftest import scale

BENCH_NAME = "protocol"

DELTA_SIZES = (400, 1600, 6400)
THROUGHPUT_REQUESTS = 300
HANDSHAKES = 50
ALPHA = 0.2
#: The acceptance bar: a 1% row-change delta must ship at most this share
#: of the full-view bytes at the largest bench size.
MAX_DELTA_RATIO_AT_LARGEST = 0.25


def outsourced_owner(num_rows: int):
    owner = DataOwner(
        key=KeyGen.symmetric_from_seed(3), config=F2Config(alpha=ALPHA, seed=3)
    )
    table = generate_fd_table(num_rows, num_zipcodes=10, num_extra_columns=2, seed=3)
    owner.outsource(table)
    return owner, table


def one_percent_batch(table, tag: str):
    """~1% of the table's rows, reusing an existing duplicated combination
    (fresh unique Street values) so the insert runs incrementally."""
    index = table.schema.index_of("Street")
    combos = Counter(
        tuple(value for position, value in enumerate(row) if position != index)
        for row in table.rows()
    )
    combo, _ = combos.most_common(1)[0]
    rows = []
    for offset in range(max(1, table.num_rows // 100)):
        row = list(combo)
        row.insert(index, f"street-{tag}-{offset}")
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Handshake overhead (real socket)
# ----------------------------------------------------------------------
def handshake_overhead() -> list[dict]:
    registry = TenantRegistry()
    credential = registry.mint("bench", "owner")
    owner, table = outsourced_owner(scale(400))
    view = owner.server_view()
    rows = []
    server = ProtocolServer(tenants=registry, allow_anonymous=True)
    with SocketProtocolServer(server) as sock_server:
        sock_server.serve_in_background()

        def connect():
            return ProtocolClient(SocketTransport(port=sock_server.port))

        push = connect()
        push.authenticate(credential)
        push.outsource("t", view)

        start = time.perf_counter()
        for _ in range(HANDSHAKES):
            client = connect()
            client.authenticate(credential)
            client.close()
        handshake_seconds = (time.perf_counter() - start) / HANDSHAKES

        # One signed and one unsigned small data round trip for context.
        expr = owner.plan_query(Eq("Zipcode", table.value(0, "Zipcode"))).server
        signed = connect()
        signed.authenticate(credential)
        signed.plan_query("t", expr)  # warm the coded view
        start = time.perf_counter()
        for _ in range(20):
            signed.plan_query("t", expr)
        signed_seconds = (time.perf_counter() - start) / 20
        signed.close()

        anon_push = connect()
        anon_push.outsource("anon", view)
        start = time.perf_counter()
        for _ in range(20):
            anon_push.plan_query("anon", expr)
        unsigned_seconds = (time.perf_counter() - start) / 20
        anon_push.close()
        push.close()

    rows.append(
        {
            "handshake_ms": round(handshake_seconds * 1e3, 4),
            "signed_query_ms": round(signed_seconds * 1e3, 4),
            "unsigned_query_ms": round(unsigned_seconds * 1e3, 4),
            "handshakes": HANDSHAKES,
        }
    )
    return rows


# ----------------------------------------------------------------------
# Signed vs unsigned request throughput (loopback)
# ----------------------------------------------------------------------
def signed_throughput() -> list[dict]:
    owner, table = outsourced_owner(scale(400))
    view = owner.server_view()
    expr = owner.plan_query(Eq("Zipcode", table.value(0, "Zipcode"))).server
    rows = []
    for mode in ("unsigned", "signed"):
        registry = TenantRegistry()
        credential = registry.mint("bench", "owner")
        server = (
            ProtocolServer(tenants=registry)
            if mode == "signed"
            else ProtocolServer()
        )
        client = ProtocolClient(LoopbackTransport(server))
        if mode == "signed":
            client.authenticate(credential)
        client.outsource("t", view)
        client.plan_query("t", expr)  # warm the coded view
        start = time.perf_counter()
        for _ in range(THROUGHPUT_REQUESTS):
            client.plan_query("t", expr)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "mode": mode,
                "requests": THROUGHPUT_REQUESTS,
                "requests_per_s": round(THROUGHPUT_REQUESTS / elapsed, 1),
                "mean_ms": round(elapsed / THROUGHPUT_REQUESTS * 1e3, 4),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Delta-insert bytes on the wire vs the full view
# ----------------------------------------------------------------------
def delta_bytes(sizes) -> list[dict]:
    rows = []
    for num_rows in sizes:
        owner, _ = outsourced_owner(num_rows)
        base_view = owner.server_view()
        batch = one_percent_batch(owner.plaintext, f"n{num_rows}")
        owner.insert_rows(batch)
        assert owner.last_update_report.mode == "incremental", (
            "the bench batch must stay on the incremental path"
        )
        new_view = owner.server_view()

        start = time.perf_counter()
        delta = compute_view_delta(base_view, new_view)
        align_seconds = time.perf_counter() - start
        start = time.perf_counter()
        spliced = apply_view_delta(base_view, delta)
        apply_seconds = time.perf_counter() - start
        assert list(spliced.rows()) == list(new_view.rows())

        delta_wire = len(InsertDelta(table_id="t", delta=delta).encode("binary"))
        full_wire = len(InsertBatch(table_id="t", relation=new_view).encode("binary"))
        rows.append(
            {
                "rows": base_view.num_rows,
                "batch_rows": len(batch),
                "delta_bytes": delta_wire,
                "full_bytes": full_wire,
                "bytes_ratio": round(delta_wire / full_wire, 4),
                "literal_rows": delta.literal_rows,
                "reuse_fraction": round(delta.reuse_fraction, 4),
                "align_seconds": round(align_seconds, 6),
                "apply_seconds": round(apply_seconds, 6),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Bench entry points
# ----------------------------------------------------------------------
def test_handshake_overhead(benchmark, bench_json):
    rows = benchmark.pedantic(handshake_overhead, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Session handshake and signed-frame latency"))
    bench_json.add("handshake", rows)
    assert rows[0]["handshake_ms"] > 0


def test_signed_vs_unsigned_throughput(benchmark, bench_json):
    rows = benchmark.pedantic(signed_throughput, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Signed vs unsigned request throughput (loopback)"))
    bench_json.add("signed_throughput", rows)
    by_mode = {row["mode"]: row for row in rows}
    bench_json.add(
        "signed_summary",
        [],
        signed_vs_unsigned_throughput_ratio=round(
            by_mode["signed"]["requests_per_s"] / by_mode["unsigned"]["requests_per_s"],
            4,
        ),
    )
    assert by_mode["signed"]["requests_per_s"] > 0


def test_delta_insert_bytes(benchmark, bench_json):
    sizes = tuple(scale(size) for size in DELTA_SIZES)
    rows = benchmark.pedantic(delta_bytes, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="InsertDelta vs full InsertBatch bytes on the wire"))
    bench_json.add("delta_bytes", rows)
    largest = max(rows, key=lambda row: row["rows"])
    bench_json.add(
        "delta_summary",
        [],
        delta_bytes_ratio_at_largest=largest["bytes_ratio"],
        reuse_fraction_at_largest=largest["reuse_fraction"],
        max_delta_ratio_bound=MAX_DELTA_RATIO_AT_LARGEST,
    )
    # The PR's acceptance bar: a 1% row-change delta ships at most a quarter
    # of the full-view bytes at the largest size.
    assert largest["bytes_ratio"] <= MAX_DELTA_RATIO_AT_LARGEST, largest
