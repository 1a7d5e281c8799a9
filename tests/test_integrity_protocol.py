"""End-to-end tests of the trustworthy-server subsystem (PR 8).

The tamper matrix: bit-flipped stores, a generation rollback, and replies
edited in transit are each detected *owner-side* with ``IntegrityError`` —
on both storage engines and both compute backends.  Plus: protocol v3
negotiation (signed replies, resumption tickets), the per-table version CAS
for multi-writer deltas, and the coordinated multi-writer stress run that
pins zero full-view fallbacks.
"""

import shutil
import threading
import traceback
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    DataOwner,
    ErrorCode,
    LoopbackTransport,
    Message,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    TenantRegistry,
)
from repro.api.protocol import PlanQueryResult, SignedReply
from repro.backend import numpy_available
from repro.core.config import F2Config
from repro.exceptions import AuthError, IntegrityError, ProtocolError
from repro.integrity.merkle import MerkleTree, relation_leaves
from repro.integrity.writers import WriteCoordinator
from repro.relational.table import Relation

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])
ENGINES = ["snapshot", "segment"]

SCHEMA = ["City", "Zip", "Side"]
ROWS = [
    ["Hoboken", "07030", "E"],
    ["Hoboken", "07030", "W"],
    ["Jersey", "07302", "E"],
    ["Newark", "07102", "N"],
    ["Hoboken", "07030", "N"],
    ["Jersey", "07302", "W"],
]


def make_owner(seed: int = 7, backend: str | None = None) -> DataOwner:
    return DataOwner.from_seed(seed, config=F2Config(alpha=0.25, seed=3, backend=backend))


def base_relation() -> Relation:
    return Relation(SCHEMA, [list(r) for r in ROWS], name="addresses")


@pytest.fixture
def registry() -> TenantRegistry:
    return TenantRegistry()


def verified_session(server, credential, owner=None, **kwargs) -> RemoteOwnerSession:
    owner = owner or make_owner()
    client = ProtocolClient(LoopbackTransport(server))
    return RemoteOwnerSession(
        owner, client, table_id="orders", credential=credential, verify=True, **kwargs
    )


# ----------------------------------------------------------------------
# The happy path: verification enabled, nothing tampered
# ----------------------------------------------------------------------
class TestVerifiedRoundTrip:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_round_trip_is_byte_identical(self, registry, tmp_path, engine, backend):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(
            tenants=registry, storage_dir=tmp_path, storage_engine=engine,
            backend=backend,
        )
        owner = make_owner(backend=backend)
        session = verified_session(server, credential, owner=owner)
        relation = base_relation()
        session.outsource(relation)
        session.insert_rows([["Summit", "07901", "E"]])

        matches = session.select("City = Hoboken")
        expected = [r for r in ROWS if r[0] == "Hoboken"]
        assert sorted(map(list, matches.rows())) == sorted(expected)
        point = session.query("City", "Jersey")
        assert point.num_rows == 2

    def test_session_verifies_equally_over_both_engines(self, registry, tmp_path):
        # The owner-side expected root is engine-independent: the same
        # pushed view yields the same root whichever way the server stores it.
        credential = registry.mint("acme", "owner")
        roots = []
        for engine in ENGINES:
            server = ProtocolServer(
                tenants=registry, storage_dir=tmp_path / engine, storage_engine=engine
            )
            session = verified_session(server, credential)
            session.outsource(base_relation())
            result = session.client.plan_query(
                "orders", session.owner.plan_query("City = Hoboken").server,
                with_root=True,
            )
            session.integrity.check_reply(result.version, result.merkle_root)
            roots.append(session.integrity.expected_root)
        assert roots[0]  # non-empty

    def test_ack_carries_version_and_root(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        session = verified_session(server, credential)
        session.outsource(base_relation())
        ack = session.client.last_ack
        assert int(ack.fields["version"]) >= 0
        assert ack.fields["merkle_root"] == session.integrity.expected_root

    def test_env_var_enables_verification(self, registry, monkeypatch):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        monkeypatch.setenv("REPRO_VERIFY", "1")
        client = ProtocolClient(LoopbackTransport(server))
        session = RemoteOwnerSession(
            make_owner(), client, table_id="orders", credential=credential
        )
        assert session.verify and session.integrity is not None
        monkeypatch.setenv("REPRO_VERIFY", "0")
        client2 = ProtocolClient(LoopbackTransport(server))
        session2 = RemoteOwnerSession(
            make_owner(), client2, table_id="orders", credential=credential
        )
        assert not session2.verify


# ----------------------------------------------------------------------
# Signed replies
# ----------------------------------------------------------------------
class _EditingTransport:
    """Wraps a transport; can strip or corrupt SignedReply frames."""

    def __init__(self, inner):
        self.inner = inner
        self.mode = None  # None | "strip" | "flip"

    def request(self, data: bytes) -> bytes:
        reply = self.inner.request(data)
        if self.mode is None:
            return reply
        message = Message.decode(reply)
        if not isinstance(message, SignedReply):
            return reply
        if self.mode == "strip":
            return message.payload
        payload = bytearray(message.payload)
        payload[len(payload) // 2] ^= 0x01
        return SignedReply(
            session_id=message.session_id,
            sequence=message.sequence,
            signature=message.signature,
            payload=bytes(payload),
        ).encode("binary")

    def close(self) -> None:
        self.inner.close()


class TestSignedReplies:
    def make_session(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        transport = _EditingTransport(LoopbackTransport(server))
        client = ProtocolClient(transport)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, client, table_id="orders", credential=credential, verify=True
        )
        return session, transport

    def test_reply_edited_in_transit_detected(self, registry):
        session, transport = self.make_session(registry)
        session.outsource(base_relation())
        transport.mode = "flip"
        with pytest.raises(IntegrityError, match="signature"):
            session.query("City", "Hoboken")

    def test_stripped_signature_detected(self, registry):
        session, transport = self.make_session(registry)
        session.outsource(base_relation())
        transport.mode = "strip"
        with pytest.raises(IntegrityError, match="signed reply"):
            session.query("City", "Hoboken")

    def test_signature_binds_to_the_request_sequence(self, registry):
        # A recorded (signed) reply replayed for a different request fails
        # verification because the sequence is part of the MAC input.
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)

        recorded = []

        class ReplayTransport:
            def __init__(self, inner):
                self.inner = inner
                self.replay = False

            def request(self, data):
                reply = self.inner.request(data)
                if self.replay and recorded:
                    decoded = Message.decode(recorded[0])
                    if isinstance(decoded, SignedReply):
                        return recorded[0]
                if isinstance(Message.decode(reply), SignedReply):
                    recorded.append(reply)
                return reply

            def close(self):
                self.inner.close()

        transport = ReplayTransport(LoopbackTransport(server))
        client = ProtocolClient(transport)
        owner = make_owner()
        session = RemoteOwnerSession(
            owner, client, table_id="orders", credential=credential, verify=True
        )
        session.outsource(base_relation())
        session.query("City", "Hoboken")  # recorded
        transport.replay = True
        with pytest.raises(IntegrityError):
            session.query("City", "Jersey")


# ----------------------------------------------------------------------
# A signing provider that corrupts its own multiproof
# ----------------------------------------------------------------------
class _ProofTamperingServer(ProtocolServer):
    """Edits the multiproof of every plan-query reply *before* signing it,
    so the signature verifies and only the proof check can catch it."""

    mode: "str | None" = None

    def handle(self, request, *args, **kwargs):
        reply = super().handle(request, *args, **kwargs)
        if self.mode is None or not isinstance(reply, PlanQueryResult):
            return reply
        proof = list(reply.proof or ())
        indexes = list(reply.row_indexes)
        if self.mode == "flip":
            proof[0] = bytes([proof[0][0] ^ 0x01]) + proof[0][1:]
        elif self.mode == "drop":
            proof.pop()
        elif self.mode == "extra":
            proof.append(proof[0])
        elif self.mode == "swap":
            proof[0], proof[1] = proof[1], proof[0]
        elif self.mode == "moved":
            # Claim a row the predicate did not match in place of one it did.
            unmatched = next(i for i in range(reply.num_rows) if i not in indexes)
            indexes = sorted(indexes[1:] + [unmatched])
        return replace(reply, proof=tuple(proof), row_indexes=tuple(indexes))


class TestProofTampering:
    PREDICATE = "City in (Hoboken, Jersey)"

    def make_session(self, registry):
        credential = registry.mint("acme", "owner")
        server = _ProofTamperingServer(tenants=registry)
        owner = make_owner()
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())
        decrypted = []
        original = owner.decrypt_plan_result

        def recording(plan, result):
            decrypted.append(result)
            return original(plan, result)

        owner.decrypt_plan_result = recording
        return server, session, decrypted

    def test_honest_multiproof_verifies(self, registry):
        server, session, decrypted = self.make_session(registry)
        matches = session.select(self.PREDICATE)
        expected = [r for r in ROWS if r[0] in ("Hoboken", "Jersey")]
        assert sorted(map(list, matches.rows())) == sorted(expected)
        (result,) = decrypted
        # The reply is worth tampering with: several distinct siblings,
        # and fewer rows matched than stored.
        assert result.proof is not None and len(set(result.proof)) >= 2
        assert len(result.row_indexes) < result.num_rows

    @pytest.mark.parametrize("mode", ["flip", "drop", "extra", "swap", "moved"])
    def test_tampered_multiproof_raises_before_decryption(self, registry, mode):
        server, session, decrypted = self.make_session(registry)
        server.mode = mode
        with pytest.raises(IntegrityError, match="multiproof") as excinfo:
            session.select(self.PREDICATE)
        assert "orders" in str(excinfo.value)
        assert decrypted == []


# ----------------------------------------------------------------------
# Session resumption tickets
# ----------------------------------------------------------------------
class TestResumption:
    def test_live_session_resumes_with_sequence_window(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        client = ProtocolClient(LoopbackTransport(server))
        ack = client.authenticate(credential)
        assert ack.resume_ticket
        session_id = client.session_id
        reply = client.resume()
        assert reply.session_id == session_id
        # The resumed window still accepts signed requests.
        owner = make_owner()
        owner.outsource(base_relation())
        assert client.outsource("orders", owner.server_view()) > 0

    def test_restarted_server_recreates_the_session(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        client = ProtocolClient(LoopbackTransport(server))
        client.authenticate(credential)
        ticket = client.resume_ticket

        fresh = ProtocolServer(tenants=registry)  # no sessions survive
        reconnect = ProtocolClient(LoopbackTransport(fresh))
        reply = reconnect.resume(ticket, credential=credential)
        # The replay-proof window starts beyond any 32-bit sequence the old
        # incarnation could have consumed.
        assert reply.next_sequence >= (1 << 32)
        owner = make_owner()
        owner.outsource(base_relation())
        assert reconnect.outsource("orders", owner.server_view()) > 0

    def test_rotation_rejects_old_ticket(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        client = ProtocolClient(LoopbackTransport(server))
        client.authenticate(credential)
        ticket = client.resume_ticket
        rotated = registry.rotate("acme", "owner")

        reconnect = ProtocolClient(LoopbackTransport(server))
        with pytest.raises(AuthError) as excinfo:
            reconnect.resume(ticket, credential=rotated)
        assert excinfo.value.code in (
            ErrorCode.AUTH_FAILED.value,
            ErrorCode.AUTH_REVOKED.value,
        )


# ----------------------------------------------------------------------
# Version CAS
# ----------------------------------------------------------------------
class TestVersionCas:
    def test_stale_base_version_rejected(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())
        stale = session._last_version

        # Another writer moves the table first.
        session.insert_rows([["Summit", "07901", "E"]])
        assert session._last_version > stale

        from repro.api.delta import compute_view_delta

        view = owner.server_view()
        delta = compute_view_delta(view, view)
        with pytest.raises(ProtocolError) as excinfo:
            session.client.insert_delta("orders", delta, base_version=stale)
        assert excinfo.value.code == ErrorCode.VERSION_CONFLICT.value

    def test_unversioned_delta_skips_the_cas(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())

        from repro.api.delta import compute_view_delta

        view = owner.server_view()
        delta = compute_view_delta(view, view)
        # base_version=-1 (the default) must not arm the check.
        count = session.client.insert_delta("orders", delta)
        assert count == view.num_rows


# ----------------------------------------------------------------------
# Tamper matrix: on-disk stores
# ----------------------------------------------------------------------
def populate(registry, tmp_path, engine, backend=None, seed=7):
    """Outsource + one delta insert over a persistent server; returns paths."""
    credential = registry.mint("acme", "owner")
    owner = make_owner(seed=seed, backend=backend)
    server = ProtocolServer(
        tenants=registry, storage_dir=tmp_path, storage_engine=engine, backend=backend
    )
    session = verified_session(server, credential, owner=owner)
    session.outsource(base_relation())
    session.insert_rows([["Summit", "07901", "E"]])
    return credential, owner, session


def reconnect_verified(registry, tmp_path, engine, credential, owner, old_session,
                       backend=None):
    """A fresh server over the same storage + the owner's retained state."""
    server = ProtocolServer(
        tenants=registry, storage_dir=tmp_path, storage_engine=engine, backend=backend
    )
    client = ProtocolClient(LoopbackTransport(server))
    session = RemoteOwnerSession(
        owner, client, table_id="orders", credential=credential, verify=True
    )
    # Carry the owner's verification state across the reconnect (the whole
    # point: the server cannot reset the owner's expectations).
    session.integrity = old_session.integrity
    session._last_view = old_session._last_view
    session._last_version = old_session._last_version
    return session


def flip_byte_of_cell_data(storage: Path, engine: str) -> None:
    """Corrupt stored cell bytes so the table decodes to different rows."""
    if engine == "segment":
        blobs = sorted(storage.glob("*/*.f2s/dict-*.blob")) or sorted(
            storage.glob("*.f2s/dict-*.blob")
        )
        target = blobs[0]
    else:
        snaps = sorted(storage.glob("*/*.f2t")) or sorted(storage.glob("*.f2t"))
        target = snaps[0]
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))


#: The two read forms of a verified session.  ``query`` is ``select`` of a
#: one-leaf ``Eq`` plan, so it must run the same reply checks (row count,
#: inclusion proofs, freshness) before decrypting anything.
READS = {
    "select": lambda session: session.select("City = Hoboken"),
    "query": lambda session: session.query("City", "Hoboken"),
}


class TestTamperMatrix:
    @pytest.mark.parametrize("read", list(READS))
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_flipped_store_detected_owner_side(
        self, registry, tmp_path, engine, backend, read
    ):
        credential, owner, session = populate(registry, tmp_path, engine, backend)
        flip_byte_of_cell_data(tmp_path, engine)
        fresh = reconnect_verified(
            registry, tmp_path, engine, credential, owner, session, backend
        )
        with pytest.raises(IntegrityError) as excinfo:
            READS[read](fresh)
        assert "orders" in str(excinfo.value)

    @pytest.mark.parametrize("read", list(READS))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rollback_to_older_generation_detected(
        self, registry, tmp_path, engine, read
    ):
        storage = tmp_path / "live"
        storage.mkdir()
        credential = registry.mint("acme", "owner")
        owner = make_owner()
        server = ProtocolServer(
            tenants=registry, storage_dir=storage, storage_engine=engine
        )
        session = verified_session(server, credential, owner=owner)
        session.outsource(base_relation())

        # Snapshot generation A wholesale, then move the table forward.
        frozen = tmp_path / "generation-a"
        shutil.copytree(storage, frozen)
        session.insert_rows([["Summit", "07901", "E"]])

        # The provider "restores a backup": generation A comes back.
        shutil.rmtree(storage)
        shutil.copytree(frozen, storage)
        fresh = reconnect_verified(
            registry, storage, engine, credential, owner, session
        )
        with pytest.raises(IntegrityError) as excinfo:
            READS[read](fresh)
        assert "orders" in str(excinfo.value)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_untampered_restart_passes(self, registry, tmp_path, engine):
        credential, owner, session = populate(registry, tmp_path, engine)
        fresh = reconnect_verified(
            registry, tmp_path, engine, credential, owner, session
        )
        matches = fresh.select("City = Hoboken")
        expected = [r for r in ROWS if r[0] == "Hoboken"]
        assert sorted(map(list, matches.rows())) == sorted(expected)


# ----------------------------------------------------------------------
# Coordinated multi-writer stress
# ----------------------------------------------------------------------
class TestMultiWriterStress:
    THREADS = 3
    INSERTS_PER_THREAD = 2

    def test_zero_full_fallbacks_and_root_matches_rebuild(self, registry):
        credential = registry.mint("acme", "owner")
        server = ProtocolServer(tenants=registry)
        owner = make_owner()
        coordinator = WriteCoordinator(table_id="orders")
        boot = verified_session(
            server, credential, owner=owner, coordinator=coordinator
        )
        boot.outsource(base_relation())

        errors: list[str] = []

        def writer(k: int) -> None:
            try:
                session = verified_session(
                    server, credential, owner=owner, coordinator=coordinator
                )
                for i in range(self.INSERTS_PER_THREAD):
                    session.insert_rows([[f"City{k}x{i}", f"{k:02d}{i:03d}", "E"]])
            except Exception:  # pragma: no cover - failure path
                errors.append(traceback.format_exc())

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []

        stats = coordinator.stats
        total = self.THREADS * self.INSERTS_PER_THREAD
        assert stats.full_fallbacks == 0
        assert stats.delta_pushes + stats.noop_pushes == total
        assert stats.rebases == stats.cas_conflicts

        # The server's final root equals a from-scratch rebuild over the
        # owner's final view — concurrency lost nothing.
        final_view = owner.server_view()
        expected_root = MerkleTree(relation_leaves(final_view)).root
        check = ProtocolClient(LoopbackTransport(server))
        check.authenticate(credential)
        result = check.plan_query(
            "orders", owner.plan_query("City = Hoboken").server, with_root=True
        )
        assert result.merkle_root == expected_root
        assert coordinator.integrity.expected_root == expected_root
