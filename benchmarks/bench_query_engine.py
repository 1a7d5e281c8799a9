"""Query-engine benchmarks: plan time and server bitset-execution throughput.

Not a figure from the paper — this tracks the encrypted query subsystem
added by the query-engine PR.  Three question sets:

* **Plan time** — wall time of :meth:`DataOwner.plan_query` (expression
  parsing, server/residual split, token derivation from the retained split
  plans) as the predicate widens.
* **Server execution throughput** — rows/s of the server-side bitset
  execution (:func:`execute_server_expr` over the coded view: per-leaf
  dictionary resolution + membership masks + and/or algebra) as the
  outsourced table grows and the predicate widens, on every installed
  backend.
* **python-vs-numpy speedup** — the ratio of the two throughputs at the
  largest size (only emitted when NumPy is installed).

At full scale the bench also asserts that the python backend's
``exec_rows_per_s`` at the largest size is at least 0.75x its rate at the
smallest size, for every predicate: the bitset scan must stay linear.

Results land in ``BENCH_query.json`` via the shared ``bench_json`` fixture.
"""

from __future__ import annotations

import time

from repro.api.session import DataOwner
from repro.backend import available_backends
from repro.bench.reporting import format_table
from repro.core.config import F2Config
from repro.crypto.keys import KeyGen
from repro.datasets import generate_fd_table
from repro.query import execute_server_expr

from benchmarks.conftest import scale

BENCH_NAME = "query"

TABLE_SIZES = (400, 1600, 6400)
ALPHA = 0.2

#: (label, expression template) — widths 1, 2, and 4 server leaves.
PREDICATES = (
    ("eq1", "Zipcode = '{zip0}'"),
    ("and2", "Zipcode = '{zip0}' and City = '{city0}'"),
    (
        "mixed4",
        "(Zipcode in ('{zip0}', '{zip1}') or City = '{city1}') "
        "and (City = '{city0}' or Zipcode = '{zip2}')",
    ),
)


def outsourced(num_rows: int) -> tuple[DataOwner, dict[str, str]]:
    owner = DataOwner(
        key=KeyGen.symmetric_from_seed(3), config=F2Config(alpha=ALPHA, seed=3)
    )
    table = generate_fd_table(num_rows, num_zipcodes=10, num_extra_columns=2, seed=3)
    owner.outsource(table)
    zips = sorted(set(table.column("Zipcode")))
    cities = sorted(set(table.column("City")))
    fills = {
        "zip0": zips[0],
        "zip1": zips[1 % len(zips)],
        "zip2": zips[2 % len(zips)],
        "city0": cities[0],
        "city1": cities[1 % len(cities)],
    }
    return owner, fills


def plan_and_execute(sizes) -> list[dict]:
    backends = [name for name, installed in available_backends().items() if installed]
    rows = []
    for num_rows in sizes:
        owner, fills = outsourced(num_rows)
        view = owner.server_view()
        for label, template in PREDICATES:
            expression = template.format(**fills)
            start = time.perf_counter()
            plan = owner.plan_query(expression)
            plan_seconds = time.perf_counter() - start
            assert plan.mode == "server", (label, plan.mode)
            for backend_name in backends:
                coded = view.coded(backend_name)
                # Warm the per-column dictionary encoding the way a live
                # server would be warm, then measure pure bitset execution.
                matched, _ = execute_server_expr(coded, plan.server)
                repeats = 5
                start = time.perf_counter()
                for _ in range(repeats):
                    execute_server_expr(coded, plan.server)
                exec_seconds = (time.perf_counter() - start) / repeats
                rows.append(
                    {
                        "rows": view.num_rows,
                        "predicate": label,
                        "leaves": len(plan.leaves),
                        "backend": backend_name,
                        "plan_seconds": round(plan_seconds, 6),
                        "exec_seconds": round(exec_seconds, 6),
                        "exec_rows_per_s": round(view.num_rows / max(exec_seconds, 1e-9)),
                        "matched_rows": len(matched),
                    }
                )
    return rows


def test_query_engine_throughput(benchmark, bench_json):
    sizes = tuple(scale(size) for size in TABLE_SIZES)
    rows = benchmark.pedantic(plan_and_execute, args=(sizes,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Query planning + server bitset execution"))
    bench_json.add("plan_and_execute", rows)

    largest = max(row["rows"] for row in rows)
    widest = max(row["leaves"] for row in rows)
    at_largest = {
        row["backend"]: row
        for row in rows
        if row["rows"] == largest and row["leaves"] == widest
    }
    metadata = {
        "largest_rows": largest,
        "widest_predicate_leaves": widest,
        "python_exec_rows_per_s_at_largest": at_largest["python"]["exec_rows_per_s"],
    }
    if "numpy" in at_largest:
        speedup = (
            at_largest["numpy"]["exec_rows_per_s"]
            / max(at_largest["python"]["exec_rows_per_s"], 1)
        )
        metadata["numpy_exec_rows_per_s_at_largest"] = at_largest["numpy"][
            "exec_rows_per_s"
        ]
        metadata["numpy_speedup_at_largest"] = round(speedup, 2)
    bench_json.add("summary", [], **metadata)

    # The python scan is linear in the rows: per-row throughput must not
    # collapse as the table grows.  Checked at full benchmark scale only
    # (smoke runs are too small for the growth to show).
    if sizes[-1] >= TABLE_SIZES[-1]:
        smallest = min(row["rows"] for row in rows)
        python_rate = {
            (row["rows"], row["predicate"]): row["exec_rows_per_s"]
            for row in rows
            if row["backend"] == "python"
        }
        for label, _ in PREDICATES:
            ratio = python_rate[largest, label] / max(python_rate[smallest, label], 1)
            assert ratio >= 0.75, (
                f"python exec_rows_per_s on {label!r} at {largest} rows is "
                f"{ratio:.2f}x the rate at {smallest} rows; the bitset scan "
                "must stay linear in the rows"
            )

    # Every server match set must decrypt back to the plaintext selection
    # (spot check at the smallest size to keep the bench honest and quick).
    owner, fills = outsourced(sizes[0])
    from repro.api.session import ServiceProvider

    provider = ServiceProvider()
    provider.receive(owner.server_view())
    for label, template in PREDICATES:
        expression = template.format(**fills)
        plan = owner.plan_query(expression)
        result = provider.answer_plan_query(plan.server)
        got = owner.decrypt_plan_result(plan, result)
        want = owner.select_plaintext_where(expression)
        assert list(got.rows()) == list(want.rows()), label
        report = owner.query_leakage_report(plan, result)
        assert report.frequency_homogenised and report.consistent, label
