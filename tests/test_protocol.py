"""Tests of the protocol layer: messages, transports, persistence, queries."""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    DataOwner,
    DiscoverRequest,
    ErrorReply,
    LoopbackTransport,
    Message,
    PlanQueryRequest,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    ServiceProvider,
    SocketProtocolServer,
    SocketTransport,
    run_protocol,
)
from repro.core.config import F2Config
from repro.exceptions import EncryptionError, ProtocolError, QueryError, WireError
from repro.fd.tane import tane
from repro.query import Eq, TokenLeaf
from repro.relational.table import Relation
from repro.wire import WIRE_FORMS

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_owner(alpha: float = 0.25, seed: int = 7, key_seed: int = 42) -> DataOwner:
    return DataOwner.from_seed(key_seed, config=F2Config(alpha=alpha, seed=seed))


def ciphertext_rows(relation: Relation) -> list[tuple[str, ...]]:
    """Rows in their exact textual (byte-level) ciphertext form."""
    return [tuple(str(value) for value in row) for row in relation.rows()]


@pytest.fixture
def loopback_client() -> ProtocolClient:
    return ProtocolClient(LoopbackTransport(ProtocolServer()))


@pytest.fixture
def deterministic_urandom(monkeypatch):
    """Seeded nonce source: makes two full owner runs byte-for-byte equal.

    Instance ciphertexts and artificial values already derive from the key
    and the config seed; only the fresh random nonces of frequency-one
    (RandomCell) encryptions consume ``os.urandom``.
    """
    import random as _random

    def install(seed: int = 1234):
        rng = _random.Random(seed)
        monkeypatch.setattr(
            "repro.crypto.probabilistic.os.urandom",
            lambda n: bytes(rng.getrandbits(8) for _ in range(n)),
        )

    return install


# ----------------------------------------------------------------------
# Message envelope
# ----------------------------------------------------------------------
class TestMessages:
    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_discover_request_roundtrip(self, form):
        message = DiscoverRequest(table_id="orders", max_lhs_size=3)
        decoded = Message.decode(message.encode(form))
        assert decoded == message

    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_query_request_roundtrip(self, zipcode_table, form):
        owner = make_owner()
        owner.outsource(zipcode_table)
        token = owner.derive_search_token("City", "Hoboken")
        message = PlanQueryRequest(table_id="default", expr=TokenLeaf("City", token))
        decoded = Message.decode(message.encode(form))
        assert decoded == message
        assert decoded.expr.token == token

    def test_unknown_kind_rejected(self):
        # "query_request" is the retired single-attribute equality message
        # (equality is a one-leaf plan_query_request now): its frames, JSON
        # and binary, must fail as typed wire errors, and a server must
        # answer them with an ErrorReply rather than raise.
        from repro.api.auth import ErrorCode
        from repro.api.protocol import MESSAGE_MAGIC, MESSAGE_VERSION
        from repro.wire.binary import ByteWriter

        transport = LoopbackTransport(ProtocolServer())
        for kind in ("nope", "query_request"):
            writer = ByteWriter()
            writer.raw(MESSAGE_MAGIC)
            writer.raw(bytes([MESSAGE_VERSION]))
            writer.lp_str(kind)
            writer.lp_bytes(b'{"table_id":"t","attribute":"City"}')
            writer.uvarint(0)
            json_frame = f'{{"protocol":"f2/1","kind":"{kind}","meta":{{}}}}'.encode()
            for frame in (json_frame, writer.getvalue()):
                with pytest.raises(WireError):
                    Message.decode(frame)
                reply = Message.decode(transport.request(frame))
                assert isinstance(reply, ErrorReply)
                assert reply.code == ErrorCode.WIRE_MALFORMED.value

    def test_bad_table_id_rejected(self):
        for bad in ("", "../evil", "a/b", "x" * 80, ".hidden"):
            with pytest.raises((ProtocolError, WireError)):
                Message.decode(
                    ('{"protocol":"f2/1","kind":"discover_request","meta":'
                     f'{{"table_id":"{bad}"}}}}').encode()
                )


# ----------------------------------------------------------------------
# Loopback end-to-end
# ----------------------------------------------------------------------
class TestLoopbackProtocol:
    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_outsource_discover_matches_inprocess(self, zipcode_table, form):
        reference = run_protocol(make_owner(), ServiceProvider(), zipcode_table)

        owner = make_owner()
        client = ProtocolClient(LoopbackTransport(ProtocolServer()), wire_format=form)
        session = RemoteOwnerSession(owner, client)
        session.outsource(zipcode_table)
        result = session.discover_fds()
        assert result.parameters["validated"] is True
        assert result.fds == reference.fds

    def test_discover_unknown_table_is_protocol_error(self, loopback_client):
        with pytest.raises(ProtocolError):
            loopback_client.discover("nope")

    def test_error_reply_carries_stable_code(self):
        # Clients branch on the wire-level ErrorCode, never on message text.
        from repro.api.auth import ErrorCode

        server = ProtocolServer()
        reply = Message.decode(
            server.handle_bytes(DiscoverRequest(table_id="missing").encode())
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.UNKNOWN_TABLE.value

    def test_garbage_bytes_produce_error_reply(self):
        from repro.api.auth import ErrorCode

        server = ProtocolServer()
        reply = Message.decode(server.handle_bytes(b"\x00\xff garbage"))
        assert isinstance(reply, ErrorReply)
        assert reply.code == ErrorCode.WIRE_MALFORMED.value

    def test_corrupted_meta_produces_error_reply_not_exception(self):
        # Non-Repro exceptions (bad UTF-8 meta, mistyped fields) must also
        # become error replies — a malformed request must never kill the
        # server's connection handler.
        server = ProtocolServer()
        from repro.api.protocol import MESSAGE_MAGIC, MESSAGE_VERSION
        from repro.wire.binary import ByteWriter

        writer = ByteWriter()
        writer.raw(MESSAGE_MAGIC)
        writer.raw(bytes([MESSAGE_VERSION]))
        writer.lp_str("discover_request")
        writer.lp_bytes(b"\xff\xfe not utf8 json")
        writer.uvarint(0)
        reply = Message.decode(server.handle_bytes(writer.getvalue()))
        assert isinstance(reply, ErrorReply)

        mistyped = (
            b'{"protocol":"f2/1","kind":"discover_request",'
            b'"meta":{"table_id":"t","max_lhs_size":"abc"}}'
        )
        reply = Message.decode(server.handle_bytes(mistyped))
        assert isinstance(reply, ErrorReply)

    def test_snapshot_requires_storage(self, loopback_client, zipcode_table):
        owner = make_owner()
        encrypted = owner.outsource(zipcode_table)
        loopback_client.outsource("default", encrypted.server_view())
        with pytest.raises(ProtocolError):
            loopback_client.save_snapshot("default")


# ----------------------------------------------------------------------
# The facade bug fix: receive() must clear the stale discovery
# ----------------------------------------------------------------------
class TestReceiveClearsDiscovery:
    def test_last_discovery_cleared_on_receive(self, zipcode_table):
        # Regression: receive() used to replace the table but keep
        # _last_discovery, so callers saw a result describing the *old*
        # ciphertext as if it were current.
        owner = make_owner()
        provider = ServiceProvider()
        run_protocol(owner, provider, zipcode_table)
        assert provider.last_discovery is not None

        owner.insert_rows([["07030", "Hoboken", "street-new", "N"]])
        provider.receive(owner.server_view())
        assert provider.last_discovery is None

        refreshed = provider.discover_fds()
        assert provider.last_discovery is not None
        assert provider.last_discovery.fds == refreshed.fds

    def test_last_discovery_cleared_per_table(self, zipcode_table):
        owner = make_owner()
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        view = owner.outsource(zipcode_table).server_view()
        client.outsource("a", view)
        client.outsource("b", view)
        client.discover("a")
        client.discover("b")
        client.outsource("a", view)
        assert server.last_discovery("a") is None
        assert server.last_discovery("b") is not None


# ----------------------------------------------------------------------
# Socket transport end-to-end
# ----------------------------------------------------------------------
class TestSocketProtocol:
    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_socket_discovery_byte_identical_to_inprocess(
        self, zipcode_table, form, deterministic_urandom
    ):
        deterministic_urandom()
        in_owner = make_owner()
        in_provider = ServiceProvider()
        reference = run_protocol(in_owner, in_provider, zipcode_table)
        reference_view = ciphertext_rows(in_provider.table)

        with SocketProtocolServer(ProtocolServer()) as sock_server:
            sock_server.serve_in_background()
            deterministic_urandom()
            owner = make_owner()
            transport = SocketTransport("127.0.0.1", sock_server.port)
            session = RemoteOwnerSession(owner, ProtocolClient(transport, wire_format=form))
            session.outsource(zipcode_table)
            result = session.discover_fds()
            session.close()
            stored = sock_server.protocol_server.store()

        # The ciphertext stored across the socket is byte-identical to the
        # in-process server view, and so is everything derived from it.
        assert ciphertext_rows(stored) == reference_view
        assert result.fds == reference.fds
        assert result.parameters["validated"] is True
        assert result.parameters["validated"] == reference.parameters["validated"]

    def test_socket_insert_and_requery(self, zipcode_table):
        with SocketProtocolServer(ProtocolServer()) as sock_server:
            sock_server.serve_in_background()
            owner = make_owner()
            session = RemoteOwnerSession(
                owner, ProtocolClient(SocketTransport(port=sock_server.port))
            )
            session.outsource(zipcode_table)
            session.insert_rows([["07030", "Hoboken", "street-x1", "S"]])
            matches = session.query("Zipcode", "07030")
            expected = owner.select_plaintext("Zipcode", "07030")
            assert list(matches.rows()) == list(expected.rows())
            session.close()

    def test_transport_reports_connection_failure(self):
        transport = SocketTransport("127.0.0.1", 1)  # nothing listens here
        with pytest.raises(ProtocolError):
            ProtocolClient(transport).discover("default")

    def test_shutdown_before_serving_does_not_hang(self):
        # Regression: BaseServer.shutdown() blocks on an event only
        # serve_forever() sets; a `with` body raising before the serve loop
        # starts must still exit cleanly.
        with SocketProtocolServer(ProtocolServer()):
            pass  # __exit__ calls shutdown() with no serve loop running

    def test_concurrent_receive_never_caches_stale_discovery(self, zipcode_table):
        # Regression for the threaded-server variant of the stale-discovery
        # bug: a discovery computed on an old ciphertext must not be cached
        # after a receive replaced the store mid-run.
        owner = make_owner()
        view = owner.outsource(zipcode_table).server_view()
        server = ProtocolServer()
        client = ProtocolClient(LoopbackTransport(server))
        client.outsource("default", view)

        original_tane = __import__("repro.fd.tane", fromlist=["tane_with_stats"]).tane_with_stats

        def racing_tane(relation, **kwargs):
            result = original_tane(relation, **kwargs)
            # Simulate a receive landing while TANE was running.
            client.outsource("default", view)
            return result

        import repro.api.protocol as protocol_module

        saved = protocol_module.tane_with_stats
        protocol_module.tane_with_stats = racing_tane
        try:
            client.discover("default")
        finally:
            protocol_module.tane_with_stats = saved
        assert server.last_discovery("default") is None


# ----------------------------------------------------------------------
# Snapshot persistence across restarts
# ----------------------------------------------------------------------
class TestPersistence:
    def test_store_survives_restart(self, zipcode_table, tmp_path):
        owner = make_owner()
        view = owner.outsource(zipcode_table).server_view()

        first = ProtocolServer(storage_dir=tmp_path)
        ProtocolClient(LoopbackTransport(first)).outsource("orders", view)
        fds_before = tane(first.store("orders"))

        # A brand-new server over the same directory resumes serving the
        # byte-identical store without a re-outsource.
        second = ProtocolServer(storage_dir=tmp_path)
        assert second.table_ids() == ["orders"]
        assert ciphertext_rows(second.store("orders")) == ciphertext_rows(view)
        assert tane(second.store("orders")) == fds_before

    def test_explicit_save_and_load(self, zipcode_table, tmp_path):
        owner = make_owner()
        view = owner.outsource(zipcode_table).server_view()
        client = ProtocolClient(LoopbackTransport(ProtocolServer(storage_dir=tmp_path)))
        client.outsource("orders", view)
        path = client.save_snapshot("orders")
        assert path.endswith("orders.f2t")
        assert client.load_snapshot("orders") == view.num_rows

    def test_provider_facade_persists(self, zipcode_table, tmp_path):
        owner = make_owner()
        provider = ServiceProvider(storage_dir=str(tmp_path))
        run_protocol(owner, provider, zipcode_table)
        revived = ServiceProvider(storage_dir=str(tmp_path))
        assert ciphertext_rows(revived.table) == ciphertext_rows(provider.table)


# ----------------------------------------------------------------------
# Token-based equality queries
# ----------------------------------------------------------------------
class TestTokenQueries:
    @pytest.fixture
    def outsourced(self, zipcode_table):
        owner = make_owner()
        provider = ServiceProvider()
        owner.outsource(zipcode_table)
        provider.receive(owner.server_view())
        return owner, provider, zipcode_table

    def selection(self, relation: Relation, attribute: str, value: str):
        return [row for row in relation.rows() if row[relation.schema.index_of(attribute)] == value]

    @staticmethod
    def answer_eq(owner, provider, attribute, value):
        """Serve ``attribute = value`` as a one-leaf plan; return plan and reply."""
        plan = owner.plan_query(Eq(attribute, value))
        return plan, provider.answer_plan_query(plan.server)

    @pytest.mark.parametrize(
        "attribute,value",
        [("Zipcode", "07030"), ("Zipcode", "07310"), ("City", "JerseyCity"), ("City", "Hoboken")],
    )
    def test_query_equals_plaintext_selection(self, outsourced, attribute, value):
        owner, provider, table = outsourced
        token = owner.derive_search_token(attribute, value)
        assert token, "a value present in the table must yield a non-empty token"
        plan, result = self.answer_eq(owner, provider, attribute, value)
        assert plan.server == TokenLeaf(attribute, token, values=(value,))
        decrypted = owner.decrypt_plan_result(plan, result)
        assert list(decrypted.rows()) == self.selection(table, attribute, value)

    def test_absent_value_yields_empty_result(self, outsourced):
        owner, provider, _ = outsourced
        plan, result = self.answer_eq(owner, provider, "City", "Atlantis")
        assert result.row_indexes == ()
        assert result.leaf_match_counts == (0,)
        assert owner.decrypt_plan_result(plan, result).num_rows == 0

    def test_matches_are_supersets_with_artificial_rows(self, outsourced):
        # The raw server-side matches include scaling copies (that is the
        # frequency-hiding working as designed); provenance filtering on the
        # owner side strips them.
        owner, provider, table = outsourced
        plan, result = self.answer_eq(owner, provider, "City", "Hoboken")
        plaintext_matches = len(self.selection(table, "City", "Hoboken"))
        assert len(result.row_indexes) >= plaintext_matches
        assert result.leaf_match_counts == (len(result.row_indexes),)
        provenance = owner.encrypted.provenance
        artificial = [i for i in result.row_indexes if provenance[i].is_artificial]
        assert artificial, "artificial rows must show up in the raw matches"
        decrypted = owner.decrypt_plan_result(plan, result)
        assert decrypted.num_rows == plaintext_matches

    def test_token_for_uncovered_attribute_raises(self, outsourced):
        owner, _, _ = outsourced
        # Street values are unique, so Street lies outside every MAS.
        assert "Street" not in owner.queryable_attributes()
        with pytest.raises(QueryError):
            owner.derive_search_token("Street", "street-1")

    def test_remote_session_falls_back_locally(self, zipcode_table):
        owner = make_owner()
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        result = session.query("Street", "street-1")
        assert list(result.rows()) == self.selection(zipcode_table, "Street", "street-1")

    def test_unknown_attribute_raises(self, outsourced):
        owner, provider, _ = outsourced
        with pytest.raises(QueryError):
            owner.derive_search_token("Nope", "x")
        with pytest.raises(ProtocolError):
            provider.answer_plan_query(TokenLeaf("Nope", ()))

    def test_query_after_insert_reflects_new_rows(self, zipcode_table):
        owner = make_owner()
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        session.insert_rows(
            [["07030", "Hoboken", "street-ins-1", "N"], ["07302", "JerseyCity", "street-ins-2", "S"]]
        )
        for attribute, value in [("Zipcode", "07030"), ("City", "JerseyCity")]:
            got = session.query(attribute, value)
            expected = owner.select_plaintext(attribute, value)
            assert list(got.rows()) == list(expected.rows())

    def test_provider_requires_received_table(self):
        provider = ServiceProvider()
        with pytest.raises(EncryptionError):
            provider.answer_plan_query(TokenLeaf("City", ()))

    @pytest.mark.parametrize("form", WIRE_FORMS)
    def test_plan_query_roundtrip(self, zipcode_table, form):
        owner = make_owner()
        owner.outsource(zipcode_table)
        plan = owner.plan_query("City = Hoboken and Zipcode = '07030'")
        from repro.api import PlanQueryRequest, PlanQueryResult
        from repro.query import collect_leaves, server_expr_to_doc

        request = PlanQueryRequest(table_id="orders", expr=plan.server)
        decoded = Message.decode(request.encode(form))
        assert isinstance(decoded, PlanQueryRequest)
        assert decoded.table_id == "orders"
        # Structure and tokens survive; owner-side plaintext annotations are
        # stripped by design (see test_query_planner wire-hygiene tests).
        assert server_expr_to_doc(decoded.expr) == server_expr_to_doc(plan.server)
        assert [leaf.token for leaf in collect_leaves(decoded.expr)] == [
            leaf.token for leaf in collect_leaves(plan.server)
        ]

        result = PlanQueryResult(
            table_id="orders",
            row_indexes=(1, 4, 7),
            leaf_match_counts=(3, 5),
            num_rows=96,
        )
        assert Message.decode(result.encode(form)) == result

    def test_plan_query_result_requires_num_rows(self):
        # num_rows anchors the leakage denominator and the owner's desync
        # check; a reply without it must fail to decode, not default to 0.
        with pytest.raises(WireError):
            Message.decode(
                b'{"protocol":"f2/1","kind":"plan_query_result","meta":'
                b'{"table_id":"t","row_indexes":[],"leaf_match_counts":[]}}'
            )

    @SLOW
    @given(st.integers(min_value=0, max_value=7), st.sampled_from([0.5, 0.34]))
    def test_query_equals_selection_on_random_tables(self, seed, alpha):
        from tests.conftest import make_random_table

        table = make_random_table(seed + 900, num_attributes=4)
        owner = DataOwner.from_seed(seed, config=F2Config(alpha=alpha, seed=seed))
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(table)
        # Query every (attribute, value) pair of the table.
        for attribute in table.attributes:
            for value in sorted(set(table.column(attribute))):
                got = session.query(attribute, value)
                expected = owner.select_plaintext(attribute, value)
                assert list(got.rows()) == list(expected.rows()), (attribute, value)


# ----------------------------------------------------------------------
# Per-table read/write locking
# ----------------------------------------------------------------------
class TestRWLock:
    def test_readers_share_the_lock(self):
        from repro.api.protocol import _RWLock

        lock = _RWLock()
        both_inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read():
                both_inside.wait()  # raises BrokenBarrierError on timeout

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        # If readers serialized, the barrier would have timed out and the
        # join left a thread alive.
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers_and_writers(self):
        from repro.api.protocol import _RWLock

        lock = _RWLock()
        writer_inside = threading.Event()
        release_writer = threading.Event()
        reader_entered = threading.Event()

        def writer():
            with lock.write():
                writer_inside.set()
                release_writer.wait(timeout=5)

        def reader():
            with lock.read():
                reader_entered.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert writer_inside.wait(timeout=5)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        # The reader must block while the writer holds the lock ...
        assert not reader_entered.wait(timeout=0.2)
        release_writer.set()
        # ... and proceed once it releases.
        assert reader_entered.wait(timeout=5)
        writer_thread.join(timeout=5)
        reader_thread.join(timeout=5)

    def test_waiting_writer_blocks_new_readers(self):
        from repro.api.protocol import _RWLock

        lock = _RWLock()
        first_reader_in = threading.Event()
        release_first_reader = threading.Event()
        writer_done = threading.Event()
        second_reader_done = threading.Event()

        def first_reader():
            with lock.read():
                first_reader_in.set()
                release_first_reader.wait(timeout=5)

        def writer():
            with lock.write():
                writer_done.set()

        def second_reader():
            with lock.read():
                second_reader_done.set()

        threads = [threading.Thread(target=first_reader)]
        threads[0].start()
        assert first_reader_in.wait(timeout=5)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        # Give the writer time to queue, then start a new reader: writer
        # preference makes it wait behind the writer (no writer starvation).
        import time as _time

        _time.sleep(0.1)
        threads.append(threading.Thread(target=second_reader))
        threads[2].start()
        assert not writer_done.is_set()
        assert not second_reader_done.wait(timeout=0.2)
        release_first_reader.set()
        assert writer_done.wait(timeout=5)
        assert second_reader_done.wait(timeout=5)
        for thread in threads:
            thread.join(timeout=5)


class TestLockRegistryHygiene:
    def test_probing_unknown_tables_does_not_grow_the_lock_registry(
        self, zipcode_table, tmp_path
    ):
        # Untrusted clients can send any path-safe table id; read requests
        # for tables the server does not hold must be rejected before a
        # per-table lock is allocated, or remote input grows server memory
        # without bound.
        owner = make_owner()
        owner.outsource(zipcode_table)
        plan = owner.plan_query("City = Hoboken")
        server = ProtocolServer(storage_dir=tmp_path)
        client = ProtocolClient(LoopbackTransport(server))
        for index in range(20):
            with pytest.raises(ProtocolError):
                client.plan_query(f"ghost-{index}", plan.server)
            with pytest.raises(ProtocolError):
                client.save_snapshot(f"ghost-{index}")
            with pytest.raises(ProtocolError):
                client.load_snapshot(f"ghost-{index}")
        assert server._table_locks == {}
        # Legitimate traffic still allocates (and reuses) exactly one lock.
        client.outsource("real", owner.server_view())
        client.plan_query("real", plan.server)
        assert list(server._table_locks) == ["real"]


class TestConcurrentQueries:
    def test_parallel_queries_with_concurrent_mutations_stay_consistent(
        self, zipcode_table
    ):
        # Regression for the per-table locking: threaded clients fire plan
        # queries against one table while another thread keeps replacing the
        # store with one of two known ciphertext versions.  Every reply must
        # be exactly the match set of one of the two versions — never a
        # mixture, never an exception.
        owner = make_owner()
        owner.outsource(zipcode_table)
        view_a = owner.server_view()
        plan = owner.plan_query("City = Hoboken or Zipcode = '07302'")
        result_a = frozenset(
            __import__("repro.query", fromlist=["execute_server_expr"])
            .execute_server_expr(view_a.coded(), plan.server)[0]
        )

        owner_b = make_owner()
        owner_b.outsource(zipcode_table)
        owner_b.insert_rows([["07030", "Hoboken", "street-extra", "N"]])
        view_b = owner_b.server_view()
        plan_b = owner_b.plan_query("City = Hoboken or Zipcode = '07302'")
        from repro.query import execute_server_expr

        result_b = frozenset(execute_server_expr(view_b.coded(), plan_b.server)[0])
        # The two versions genuinely differ (otherwise the test proves nothing).
        assert result_a != result_b

        server = ProtocolServer()
        writer_client = ProtocolClient(LoopbackTransport(server))
        writer_client.outsource("default", view_a)

        errors: list[Exception] = []
        observed: set[frozenset] = set()
        stop = threading.Event()

        def mutate():
            try:
                for round_index in range(30):
                    view = view_a if round_index % 2 else view_b
                    writer_client.outsource("default", view)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                stop.set()

        def query_loop():
            client = ProtocolClient(LoopbackTransport(server))
            try:
                while not stop.is_set():
                    reply = client.plan_query("default", plan.server)
                    observed.add(frozenset(reply.row_indexes))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=query_loop) for _ in range(4)]
        threads.append(threading.Thread(target=mutate))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert observed  # the readers actually ran
        # Both tokens were derived for view_a's ciphertexts; against view_b
        # the same plan still matches a well-defined (possibly different)
        # row set.  Either way: only complete per-version answers may appear.
        allowed = {result_a, frozenset(execute_server_expr(view_b.coded(), plan.server)[0])}
        assert observed <= allowed

    def test_snapshot_of_one_table_does_not_block_queries_of_another(
        self, zipcode_table, tmp_path
    ):
        # Two tables on one persistent server: a (write-locked) receive of
        # table "a" must not serialize a query against table "b".  The
        # receive is held open by monkey-patched snapshot IO; the query of
        # "b" must complete while "a"'s write is still in flight.
        owner = make_owner()
        owner.outsource(zipcode_table)
        view = owner.server_view()
        plan = owner.plan_query("City = Hoboken")

        server = ProtocolServer(storage_dir=tmp_path)
        setup = ProtocolClient(LoopbackTransport(server))
        setup.outsource("a", view)
        setup.outsource("b", view)

        in_write = threading.Event()
        release_write = threading.Event()
        original = ProtocolServer._write_snapshot

        def slow_snapshot(self, table_id, relation, store=None):
            if table_id == "a":
                in_write.set()
                assert release_write.wait(timeout=10)
            return original(self, table_id, relation, store=store)

        query_done = threading.Event()
        errors: list[Exception] = []

        def receive_a():
            try:
                ProtocolClient(LoopbackTransport(server)).outsource("a", view)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def query_b():
            try:
                reply = ProtocolClient(LoopbackTransport(server)).plan_query(
                    "b", plan.server
                )
                assert reply.num_rows == view.num_rows
                query_done.set()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        ProtocolServer._write_snapshot = slow_snapshot
        try:
            writer = threading.Thread(target=receive_a)
            writer.start()
            assert in_write.wait(timeout=10)
            reader = threading.Thread(target=query_b)
            reader.start()
            # The query of "b" completes while "a"'s write lock is held.
            assert query_done.wait(timeout=10)
        finally:
            release_write.set()
            ProtocolServer._write_snapshot = original
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert errors == []
