"""Tests of the observability subsystem: metrics, tracing, stats surface.

Covers the :mod:`repro.obs` core (registry, spans, exporters, rings), the
protocol-level ``StatsRequest`` surface, end-to-end trace-id propagation
over the real socket transport, the race-freedom of the per-table lock
metrics under threaded clients, and the byte-identity contract: metrics
forced on must never change ciphertext bytes (observability never draws
from the entropy stream).
"""

from __future__ import annotations

import json
import logging
import random as random_module
import threading

import pytest

from repro import obs
from repro.api import (
    DataOwner,
    LoopbackTransport,
    ProtocolClient,
    PlanQueryRequest,
    ProtocolServer,
    RemoteOwnerSession,
    SocketProtocolServer,
    SocketTransport,
    StageRecorder,
    TenantRegistry,
)
from repro.api.auth import ErrorCode
from repro.core.config import F2Config
from repro.exceptions import ProtocolError
from repro.query import TokenLeaf


@pytest.fixture(autouse=True)
def metrics_on():
    """Force the registry on for every test; restore the ambient state."""
    previous = obs.REGISTRY.enabled
    obs.REGISTRY.set_enabled(True)
    yield
    obs.REGISTRY.set_enabled(previous)


def make_owner(key_seed: int = 42, seed: int = 7, alpha: float = 0.25) -> DataOwner:
    return DataOwner.from_seed(key_seed, config=F2Config(alpha=alpha, seed=seed))


def patch_urandom(monkeypatch, seed: int = 1234) -> None:
    rng = random_module.Random(seed)
    monkeypatch.setattr(
        "repro.crypto.probabilistic.os.urandom",
        lambda n: bytes(rng.getrandbits(8) for _ in range(n)),
    )


# ----------------------------------------------------------------------
# Metrics core
# ----------------------------------------------------------------------
class TestMetricsCore:
    def test_counter_identity_and_labels(self):
        registry = obs.MetricsRegistry(enabled=True)
        a = registry.counter("requests", kind="query")
        b = registry.counter("requests", kind="query")
        c = registry.counter("requests", kind="insert")
        assert a is b and a is not c
        a.inc()
        a.inc(3)
        assert a.value == 4
        assert c.value == 0

    def test_gauge_set_and_add(self):
        registry = obs.MetricsRegistry(enabled=True)
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0

    def test_histogram_buckets_cumulative_and_inclusive(self):
        registry = obs.MetricsRegistry(enabled=True)
        hist = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
        # An observation exactly on a bound lands in that bound's bucket
        # (Prometheus `le` semantics), values past the last bound in +Inf.
        for value in (0.005, 0.01, 0.5, 7.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(7.515)
        by_le = {bucket["le"]: bucket["count"] for bucket in snap["buckets"]}
        assert by_le[0.01] == 2  # cumulative: 0.005 and the inclusive 0.01
        assert by_le[0.1] == 2
        assert by_le[1.0] == 3
        assert by_le["+Inf"] == 4

    def test_registry_snapshot_shape(self):
        registry = obs.MetricsRegistry(enabled=True)
        registry.counter("c", kind="x").inc()
        registry.gauge("g").set(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == [{"name": "c", "labels": {"kind": "x"}, "value": 1}]
        assert snap["gauges"][0]["value"] == 2
        assert snap["histograms"][0]["count"] == 1
        # JSON-safe end to end.
        json.dumps(snap)

    def test_reset_keeps_handles_live(self):
        registry = obs.MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        counter.inc()
        assert registry.counter("c").value == 1

    def test_kill_switch_per_record_not_per_handle(self):
        registry = obs.MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        hist = registry.histogram("h")
        registry.set_enabled(False)
        counter.inc()
        hist.observe(1.0)
        registry.gauge("g").set(9)
        assert counter.value == 0 and hist.count == 0
        # The cached handle resumes recording after the flip back on.
        registry.set_enabled(True)
        counter.inc()
        assert counter.value == 1

    def test_metrics_enabled_env_policy(self):
        assert obs.metrics_enabled({}) is True
        assert obs.metrics_enabled({"REPRO_METRICS": "1"}) is True
        for off in ("0", "false", "no", "off", " OFF "):
            assert obs.metrics_enabled({"REPRO_METRICS": off}) is False


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_nesting_and_tree(self):
        store = obs.TraceStore()
        with obs.span("outer", store=store, table="t") as outer:
            with obs.span("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.children == [inner]
        docs = outer.tree_docs()
        assert [doc["name"] for doc in docs] == ["outer", "inner"]
        # Only the finished root records into the store, as one tree.
        assert store.latest() == [docs]
        assert {doc["name"] for doc in store.spans_for(outer.trace_id)} == {
            "outer",
            "inner",
        }

    def test_remote_adoption_only_without_local_parent(self):
        store = obs.TraceStore()
        adopted = obs.start_span(
            "server.dispatch", trace_id="feedc0de00000000", parent_id="1.2", store=store
        )
        assert adopted.trace_id == "feedc0de00000000"
        assert adopted.parent_id == "1.2"
        # A local parent wins over any remote ids (loopback nests naturally).
        child = obs.start_span("nested", trace_id="ffffffffffffffff", parent_id="9.9")
        assert child.trace_id == adopted.trace_id
        assert child.parent_id == adopted.span_id
        obs.finish_span(child)
        obs.finish_span(adopted)

    def test_disabled_spans_are_none_and_harmless(self):
        obs.REGISTRY.set_enabled(False)
        assert obs.start_span("x") is None
        obs.finish_span(None)
        with obs.span("y") as span_obj:
            assert span_obj is None
        assert obs.current_trace_id() == ""

    def test_tracing_switch_below_metrics_master(self):
        assert obs.tracing_active() is True
        try:
            obs.set_tracing(False)
            # Spans go dark; the metrics tier keeps recording.
            assert obs.tracing_active() is False
            assert obs.start_span("x") is None
            with obs.span("y") as span_obj:
                assert span_obj is None
            registry = obs.MetricsRegistry(enabled=True)
            registry.counter("c").inc()
            assert registry.counter("c").value == 1
        finally:
            obs.set_tracing(True)
        # REPRO_METRICS=0 remains the master: it kills tracing too.
        obs.REGISTRY.set_enabled(False)
        assert obs.tracing_active() is False

    def test_ids_never_touch_urandom(self, monkeypatch):
        def poisoned(n):  # pragma: no cover - failing is the assertion
            raise AssertionError("observability drew from os.urandom")

        monkeypatch.setattr("os.urandom", poisoned)
        trace_id = obs.mint_trace_id()
        span_id = obs.mint_span_id()
        assert len(trace_id) == 16 and span_id
        with obs.span("safe") as span_obj:
            assert span_obj.trace_id != trace_id  # fresh id, still no entropy

    def test_render_trace_merges_and_indents(self):
        spans = [
            {"trace_id": "t", "span_id": "a", "parent_id": "", "name": "client.q",
             "tags": {}, "start_wall": 1.0, "seconds": 0.002},
            {"trace_id": "t", "span_id": "b", "parent_id": "a", "name": "server.q",
             "tags": {"table": "t1"}, "start_wall": 1.001, "seconds": 0.001},
            {"trace_id": "t", "span_id": "c", "parent_id": "zz", "name": "orphan",
             "tags": {}, "start_wall": 2.0, "seconds": 0.0},
        ]
        text = obs.render_trace(spans)
        lines = text.splitlines()
        assert lines[0].startswith("- client.q ")
        assert lines[1].startswith("  - server.q ") and "[table=t1]" in lines[1]
        assert lines[2].startswith("- orphan ")  # unknown parent -> extra root


# ----------------------------------------------------------------------
# Export: Prometheus text, JSON file, periodic dumper
# ----------------------------------------------------------------------
class TestExport:
    def make_registry(self) -> obs.MetricsRegistry:
        registry = obs.MetricsRegistry(enabled=True)
        registry.counter("server.requests", kind="plan_query_request").inc(3)
        registry.gauge("store.num_rows", table="t1").set(48)
        registry.histogram("server.request_seconds", buckets=(0.01, 1.0)).observe(0.5)
        return registry

    def test_prometheus_text_format(self):
        text = obs.to_prometheus_text(self.make_registry().snapshot())
        assert '# TYPE server_requests_total counter' in text
        assert 'server_requests_total{kind="plan_query_request"} 3' in text
        assert 'store_num_rows{table="t1"} 48' in text
        assert 'server_request_seconds_bucket{le="0.01"} 0' in text
        assert 'server_request_seconds_bucket{le="+Inf"} 1' in text
        assert "server_request_seconds_count 1" in text

    def test_write_metrics_file_json_only(self, tmp_path):
        path = tmp_path / "metrics.json"
        obs.write_metrics_file(str(path), self.make_registry(), server="test")
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro.obs/v1"
        assert doc["server"] == "test"
        assert doc["metrics"]["counters"][0]["value"] == 3
        assert list(tmp_path.iterdir()) == [path]  # no tmp litter

    def test_write_metrics_file_prometheus_plus_json(self, tmp_path):
        path = tmp_path / "metrics.prom"
        collected = []
        obs.write_metrics_file(
            str(path), self.make_registry(), collect=lambda: collected.append(1)
        )
        assert collected == [1]  # pull-style gauges refresh before the dump
        assert "server_requests_total" in path.read_text()
        sidecar = json.loads((tmp_path / "metrics.prom.json").read_text())
        assert sidecar["format"] == "repro.obs/v1"

    def test_metrics_dumper_periodic_and_final(self, tmp_path):
        path = tmp_path / "m.json"
        dumper = obs.MetricsDumper(
            str(path), interval=0.1, registry=self.make_registry()
        )
        dumper.start()
        assert path.exists()  # first dump is synchronous on start
        first = dumper.dumps
        deadline = threading.Event()
        deadline.wait(0.35)
        dumper.stop()
        assert dumper.dumps > first  # periodic + final dumps happened
        json.loads(path.read_text())


# ----------------------------------------------------------------------
# Error ring and slow-query log
# ----------------------------------------------------------------------
class TestRings:
    def test_error_ring_caps_but_counts_all(self):
        ring = obs.ErrorRing(capacity=2)
        for index in range(5):
            ring.record("BAD_REQUEST", f"boom {index}", kind="plan_query_request")
        assert ring.total == 5
        recent = ring.snapshot()
        assert [entry["message"] for entry in recent] == ["boom 3", "boom 4"]
        assert recent[0]["code"] == "BAD_REQUEST"

    def test_slow_query_log_threshold(self, caplog):
        log = obs.SlowQueryLog(threshold_ms=None)
        assert log.enabled is False
        with obs.span("server.q") as span_obj:
            pass
        assert log.maybe_record(span_obj) is False

        armed = obs.SlowQueryLog(threshold_ms=0.0)
        assert armed.maybe_record(None) is False  # spans disabled -> no-op
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            assert armed.maybe_record(span_obj, kind="plan_query_request", table="t1")
        assert armed.total == 1
        entry = armed.snapshot()[0]
        assert entry["trace_id"] == span_obj.trace_id
        assert entry["tags"] == {"table": "t1"}
        assert "server.q" in entry["tree"]
        line = caplog.records[-1].getMessage()
        assert span_obj.trace_id in line and "kind=plan_query_request" in line

        fast = obs.SlowQueryLog(threshold_ms=60_000.0)
        assert fast.maybe_record(span_obj) is False


# ----------------------------------------------------------------------
# The protocol stats surface (loopback)
# ----------------------------------------------------------------------
class TestStatsProtocol:
    def test_stats_document_end_to_end(self, zipcode_table):
        obs.REGISTRY.reset()
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        session = RemoteOwnerSession(make_owner(), client, table_id="t1")
        session.outsource(zipcode_table)
        matches = session.query("City", "Hoboken")
        assert matches.num_rows > 0
        session.insert_rows(
            [[zipcode_table.value(0, "Zipcode"), zipcode_table.value(0, "City"),
              "street-obs", "N"]]
        )

        doc = client.stats()
        assert doc["metrics_enabled"] is True
        assert doc["uptime_seconds"] >= 0
        table = doc["tables"]["t1"]
        assert table["engine"] == "snapshot" and table["num_rows"] > 0
        assert "cache" in table

        counters = {
            (entry["name"], entry["labels"].get("kind", "")): entry["value"]
            for entry in doc["metrics"]["counters"]
        }
        assert counters[("server.requests", "outsource_request")] == 1
        assert counters[("server.requests", "plan_query_request")] >= 1
        assert counters[("server.bytes_received", "outsource_request")] > 0
        # The delta-vs-full story falls out of the per-kind byte counters:
        # the incremental insert travelled as a delta, not a full view.
        if session.last_delta is not None:
            assert counters[("server.bytes_received", "insert_delta")] > 0
        hist_names = {entry["name"] for entry in doc["metrics"]["histograms"]}
        assert "server.request_seconds" in hist_names
        assert doc["errors"]["total"] == 0
        assert doc["slow_queries"]["threshold_ms"] is None
        assert isinstance(doc["traces"], list) and doc["traces"]

    def test_error_ring_and_error_counters(self):
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        before = obs.REGISTRY.counter(
            "server.errors", code=ErrorCode.UNKNOWN_TABLE.value
        ).value
        with pytest.raises(ProtocolError):
            client.discover("missing")
        doc = client.stats(include_metrics=False, include_traces=False)
        assert "metrics" not in doc and "traces" not in doc
        assert doc["errors"]["total"] >= 1
        entry = doc["errors"]["recent"][-1]
        assert entry["code"] == ErrorCode.UNKNOWN_TABLE.value
        assert entry["kind"] == "discover_request"
        assert entry["trace_id"]  # dispatched under the client's trace
        after = obs.REGISTRY.counter(
            "server.errors", code=ErrorCode.UNKNOWN_TABLE.value
        ).value
        assert after == before + 1

    def test_stats_is_owner_only(self, zipcode_table):
        registry = TenantRegistry()
        owner_cred = registry.mint("acme", "owner")
        analyst_cred = registry.mint("acme", "analyst")
        server = ProtocolServer(tenants=registry)

        owner_client = ProtocolClient(LoopbackTransport(server))
        owner_client.authenticate(owner_cred)
        session = RemoteOwnerSession(
            make_owner(), owner_client, table_id="t1", credential=None
        )
        session.outsource(zipcode_table)
        assert "tables" in owner_client.stats()

        analyst_client = ProtocolClient(LoopbackTransport(server))
        analyst_client.authenticate(analyst_cred)
        with pytest.raises(ProtocolError) as excinfo:
            analyst_client.stats()
        assert excinfo.value.code == ErrorCode.FORBIDDEN.value

    def test_stats_survives_kill_switch(self, zipcode_table):
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        RemoteOwnerSession(make_owner(), client, table_id="t1").outsource(zipcode_table)
        obs.REGISTRY.set_enabled(False)
        doc = client.stats()
        assert doc["metrics_enabled"] is False
        assert doc["tables"]["t1"]["num_rows"] > 0  # store stats stay live
        assert doc["metrics"]["enabled"] is False

    def test_collect_store_gauges(self, zipcode_table):
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        RemoteOwnerSession(make_owner(), client, table_id="t1").outsource(zipcode_table)
        server.collect_store_gauges()
        snap = obs.REGISTRY.snapshot()
        gauges = {
            (entry["name"], entry["labels"].get("table", "")): entry["value"]
            for entry in snap["gauges"]
        }
        assert gauges[("store.num_rows", "t1")] > 0
        assert ("store.cache_hits", "t1") in gauges

    def test_stats_reports_broken_store_with_detail(self, zipcode_table):
        """Regression for the lint-surfaced `except Exception` swallow: a
        store whose stats raise a typed error is reported as unavailable
        *with the reason*, healthy tables keep their stats, and gauge
        collection skips the broken store without dying."""
        from repro.exceptions import StoreError

        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        RemoteOwnerSession(make_owner(), client, table_id="ok").outsource(zipcode_table)
        RemoteOwnerSession(make_owner(), client, table_id="bad").outsource(zipcode_table)

        broken = server.table_store("bad")
        broken.store_stats = lambda: (_ for _ in ()).throw(StoreError("segment manifest corrupt"))

        server.collect_store_gauges()  # must not raise
        doc = server.stats_doc()
        assert doc["tables"]["ok"]["num_rows"] > 0
        assert doc["tables"]["bad"]["error"] == "unavailable"
        assert "segment manifest corrupt" in doc["tables"]["bad"]["detail"]

    def test_stats_propagates_unexpected_bugs(self, zipcode_table):
        """The narrowed handler only catches (ReproError, OSError): a
        genuine bug (TypeError) in store_stats must not be swallowed."""
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        RemoteOwnerSession(make_owner(), client, table_id="t1").outsource(zipcode_table)
        server.table_store("t1").store_stats = lambda: (_ for _ in ()).throw(TypeError("bug"))
        with pytest.raises(TypeError):
            server.stats_doc()


# ----------------------------------------------------------------------
# Trace-id propagation over the real socket transport
# ----------------------------------------------------------------------
class TestTracePropagation:
    def test_loopback_single_tree(self, zipcode_table):
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        owner = make_owner()
        session = RemoteOwnerSession(owner, client, table_id="t1")
        session.outsource(zipcode_table)
        token = owner.derive_search_token("City", "Hoboken")
        client.call(PlanQueryRequest(table_id="t1", expr=TokenLeaf("City", token)))
        trace_id = client.last_trace_id
        spans = obs.TRACES.spans_for(trace_id)
        by_name = {doc["name"]: doc for doc in spans}
        # One tree: the server's dispatch span nests under the client span,
        # and the store scan nests under the dispatch.
        assert by_name["server.plan_query_request"]["parent_id"] == \
            by_name["client.plan_query_request"]["span_id"]
        assert by_name["store.execute_expr"]["parent_id"] == \
            by_name["server.plan_query_request"]["span_id"]
        assert {doc["trace_id"] for doc in spans} == {trace_id}

    def test_tracing_off_keeps_request_metrics(self, zipcode_table):
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        owner = make_owner()
        session = RemoteOwnerSession(owner, client, table_id="t1")
        session.outsource(zipcode_table)
        token = owner.derive_search_token("City", "Hoboken")
        requests = obs.REGISTRY.counter("server.requests", kind="plan_query_request")
        before_requests = requests.value
        before_last = client.last_trace_id
        try:
            obs.set_tracing(False)
            client.call(PlanQueryRequest(table_id="t1", expr=TokenLeaf("City", token)))
        finally:
            obs.set_tracing(True)
        # No span tree, no trace id attached — but the per-kind counters
        # and latency histogram on the server still advanced.
        assert client.last_trace_id == before_last
        assert requests.value == before_requests + 1
        assert (
            obs.REGISTRY.histogram(
                "server.request_seconds", kind="plan_query_request"
            ).count
            >= 1
        )

    def test_socket_trace_id_reaches_server_and_slow_log(self, zipcode_table, caplog):
        server = ProtocolServer(slow_query_ms=0.0)  # every request is "slow"
        with SocketProtocolServer(server) as sock_server:
            sock_server.serve_in_background()
            owner = make_owner()
            client = ProtocolClient(SocketTransport("127.0.0.1", sock_server.port))
            session = RemoteOwnerSession(owner, client, table_id="t1")
            session.outsource(zipcode_table)
            token = owner.derive_search_token("City", "Hoboken")
            with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
                client.call(PlanQueryRequest(table_id="t1", expr=TokenLeaf("City", token)))
            trace_id = client.last_trace_id
            assert trace_id

            # The client-minted id crossed the wire: the server's spans carry
            # it, and the structured slow-query log line contains it.
            assert any(
                trace_id in record.getMessage() for record in caplog.records
            ), "slow-query log line does not carry the client's trace id"
            doc = client.stats(trace_id=trace_id)
            server_spans = doc["traces"][0]
            names = {span["name"] for span in server_spans}
            assert "server.plan_query_request" in names
            assert {span["trace_id"] for span in server_spans} == {trace_id}
            slow = doc["slow_queries"]
            assert slow["threshold_ms"] == 0.0 and slow["total"] >= 1
            assert any(
                entry["trace_id"] == trace_id for entry in slow["recent"]
            )

            # Merging the local client half with the fetched server half
            # yields one readable tree for the whole round trip.
            merged = obs.TRACES.spans_for(trace_id)
            rendered = obs.render_trace(merged)
            assert "client.plan_query_request" in rendered
            assert "server.plan_query_request" in rendered
            session.close()


# ----------------------------------------------------------------------
# Lock metrics are exact under concurrency
# ----------------------------------------------------------------------
class TestLockMetricsConcurrency:
    THREADS = 4
    QUERIES = 25

    def test_read_lock_counts_are_exact(self, zipcode_table):
        server = ProtocolServer()
        setup_client = ProtocolClient(LoopbackTransport(server))
        owner = make_owner()
        RemoteOwnerSession(owner, setup_client, table_id="t1").outsource(zipcode_table)
        token = owner.derive_search_token("City", "Hoboken")

        wait_hist = obs.REGISTRY.histogram(
            "store.lock_wait_seconds", mode="read", table="t1"
        )
        hold_hist = obs.REGISTRY.histogram(
            "store.lock_hold_seconds", mode="read", table="t1"
        )
        wait_before, hold_before = wait_hist.count, hold_hist.count

        errors: list[BaseException] = []
        barrier = threading.Barrier(self.THREADS, timeout=30)

        def worker():
            try:
                client = ProtocolClient(LoopbackTransport(server))
                barrier.wait()
                for _ in range(self.QUERIES):
                    result = client.call(
                        PlanQueryRequest(table_id="t1", expr=TokenLeaf("City", token))
                    )
                    assert result.row_indexes
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

        # Exactly one read acquisition per query, no lost updates: the
        # wait and hold histograms advance in lockstep by THREADS*QUERIES.
        expected = self.THREADS * self.QUERIES
        assert wait_hist.count - wait_before == expected
        assert hold_hist.count - hold_before == expected
        snap = wait_hist.snapshot()
        assert snap["buckets"][-1]["count"] == snap["count"]  # +Inf == total
        assert snap["sum"] >= 0.0


# ----------------------------------------------------------------------
# Byte identity: metrics on vs off, observability draws no entropy
# ----------------------------------------------------------------------
class TestByteIdentity:
    def ciphertext_rows(self, owner: DataOwner) -> list[tuple[str, ...]]:
        view = owner.server_view()
        return [tuple(str(value) for value in row) for row in view.rows()]

    def test_metrics_on_vs_off_identical_bytes(self, zipcode_table, monkeypatch):
        patch_urandom(monkeypatch, seed=99)
        obs.REGISTRY.set_enabled(True)
        runs_before = obs.REGISTRY.counter("pipeline.runs").value
        on_owner = make_owner()
        on_owner.outsource(zipcode_table)
        rows_on = self.ciphertext_rows(on_owner)
        # The instrumentation actually ran during the metrics-on pass.
        assert obs.REGISTRY.counter("pipeline.runs").value == runs_before + 1

        patch_urandom(monkeypatch, seed=99)
        obs.REGISTRY.set_enabled(False)
        off_owner = make_owner()
        off_owner.outsource(zipcode_table)
        rows_off = self.ciphertext_rows(off_owner)

        assert rows_on == rows_off

    def test_traced_protocol_run_identical_to_untraced(self, zipcode_table, monkeypatch):
        def run() -> list[tuple[str, ...]]:
            patch_urandom(monkeypatch, seed=7)
            server = ProtocolServer()
            client = ProtocolClient(LoopbackTransport(server))
            session = RemoteOwnerSession(make_owner(), client, table_id="t1")
            session.outsource(zipcode_table)
            store = server.table_store("t1")
            return [tuple(str(v) for v in row) for row in store.relation().rows()]

        obs.REGISTRY.set_enabled(True)
        traced = run()
        obs.REGISTRY.set_enabled(False)
        untraced = run()
        assert traced == untraced


# ----------------------------------------------------------------------
# Satellite: stage timing unification (one event stream, three consumers)
# ----------------------------------------------------------------------
class TestStageUnification:
    def test_recorder_timing_and_obs_consume_one_stream(self, zipcode_table):
        stage_hist = lambda name: obs.REGISTRY.histogram(  # noqa: E731
            "pipeline.stage_seconds", stage=name
        )
        recorder = StageRecorder()
        owner = DataOwner.from_seed(
            42, config=F2Config(alpha=0.25, seed=7), hooks=[recorder]
        )
        before = {
            name: stage_hist(name).count
            for name in ("MAX", "SSE", "SYN", "FP", "MATERIALIZE")
        }
        encrypted = owner.outsource(zipcode_table)
        # StageRecorder (the --stage-times surface) saw every stage...
        stages = [record.stage for record in recorder.records]
        for name in before:
            assert name in stages
        # ...TimingHook fed the paper's stats timers...
        assert encrypted.stats.seconds_total > 0.0
        # ...and the obs histograms advanced once per stage, from the same
        # single measurement (no second timer, no drift).
        for name, count in before.items():
            assert stage_hist(name).count == count + 1
        materialize = next(r for r in recorder.records if r.stage == "MATERIALIZE")
        assert materialize.cells > 0
        cells = obs.REGISTRY.counter("pipeline.stage_cells", stage="MATERIALIZE")
        assert cells.value >= materialize.cells


# ----------------------------------------------------------------------
# CLI stats command against a live server
# ----------------------------------------------------------------------
class TestStatsCli:
    def test_cli_stats_json(self, zipcode_table, capsys):
        from repro.cli import main

        server = ProtocolServer()
        with SocketProtocolServer(server) as sock_server:
            sock_server.serve_in_background()
            client = ProtocolClient(SocketTransport("127.0.0.1", sock_server.port))
            RemoteOwnerSession(make_owner(), client, table_id="t1").outsource(
                zipcode_table
            )
            code = main(["stats", "--port", str(sock_server.port), "--json"])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["tables"]["t1"]["num_rows"] > 0
            code = main(["stats", "--port", str(sock_server.port)])
            assert code == 0
            out = capsys.readouterr().out
            assert "tables:" in out and "t1:" in out
