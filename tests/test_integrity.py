"""Unit tests of the trustworthy-server building blocks (PR 8).

Covers the Merkle tree (construction, O(log n) appends, multiproofs,
odd-tail promotion), the wire codec for proof attachments, the owner's
:class:`~repro.integrity.state.TableIntegrityState` (root agreement,
freshness chain, proof checking), reply signing, resumption tickets, and
the :class:`~repro.exceptions.StoreIntegrityWarning` category.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.auth import (
    open_ticket,
    seal_ticket,
    sign_reply,
    verify_reply,
)
from repro.api.delta import compute_view_delta, relation_digest
from repro.api.protocol import Message, PlanQueryResult
from repro.exceptions import AuthError, IntegrityError, StoreIntegrityWarning, WireError
from repro.integrity.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    hash_row,
    leaves_after_delta,
    relation_leaves,
    verify_multiproof,
)
from repro.integrity.state import TableIntegrityState
from repro.relational.table import Relation
from repro.wire import decode_merkle_proofs, encode_merkle_proofs
from repro.wire.binary import ByteWriter
from repro.wire.proofs import PROOFS_MAGIC


def leaves(n: int) -> list[bytes]:
    return [hash_row([f"r{i}", i]) for i in range(n)]


def relation(rows) -> Relation:
    return Relation(["A", "B"], [list(map(str, r)) for r in rows], name="t")


# ----------------------------------------------------------------------
# Merkle tree
# ----------------------------------------------------------------------
class TestMerkleTree:
    def test_empty_tree_has_fixed_root(self):
        tree = MerkleTree()
        assert tree.num_leaves == 0
        assert tree.root == EMPTY_ROOT
        # The constant is domain-separated, not the hash of nothing.
        assert tree.root != hashlib.sha256(b"").hexdigest()

    def test_single_leaf_root_is_the_leaf(self):
        leaf = hash_row(["x"])
        assert MerkleTree([leaf]).root == leaf.hex()

    def test_root_is_deterministic_and_order_sensitive(self):
        ls = leaves(5)
        assert MerkleTree(ls).root == MerkleTree(ls).root
        assert MerkleTree(ls).root != MerkleTree(list(reversed(ls))).root

    def test_leaf_and_node_domains_are_separated(self):
        # A two-leaf root must differ from a leaf whose content is the
        # concatenation of the two leaves (0x00 vs 0x01 prefixes).
        a, b = leaves(2)
        forged = hashlib.sha256(b"\x00" + a + b).hexdigest()
        assert MerkleTree([a, b]).root != forged

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 64])
    @pytest.mark.parametrize("added", [1, 2, 3, 7])
    def test_extend_equals_rebuild(self, size, added):
        base = leaves(size)
        extra = [hash_row(["new", i]) for i in range(added)]
        tree = MerkleTree(base)
        tree.extend(extra)
        assert tree.root == MerkleTree(base + extra).root
        assert tree.num_leaves == size + added

    def test_extend_nothing_is_a_noop(self):
        tree = MerkleTree(leaves(5))
        before = tree.root
        tree.extend([])
        assert tree.root == before

    def test_leaves_is_the_live_level_not_a_copy(self):
        tree = MerkleTree(leaves(4))
        assert tree.leaves is tree.leaves
        assert list(tree.leaves) == leaves(4)

    def test_copy_is_independent(self):
        tree = MerkleTree(leaves(4))
        clone = tree.copy()
        clone.append(hash_row(["z"]))
        assert tree.num_leaves == 4
        assert clone.num_leaves == 5
        assert tree.root != clone.root

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 33])
    def test_every_proof_verifies(self, size):
        ls = leaves(size)
        tree = MerkleTree(ls)
        for i in range(size):
            # A one-index multiproof is the classic inclusion path.
            siblings = tree.multiproof([i])
            assert verify_multiproof(ls, [i], siblings, tree.root)
            assert len(siblings) <= max(1, size - 1).bit_length()
        everything = list(range(size))
        assert tree.multiproof(everything) == []
        assert verify_multiproof(ls, everything, [], tree.root)

    def test_proof_fails_for_wrong_leaf_index_or_root(self):
        ls = leaves(7)
        tree = MerkleTree(ls)
        path = tree.multiproof([3])
        root = tree.root
        assert verify_multiproof(ls, [3], path, root)
        wrong_leaf = ls[:3] + [ls[2]] + ls[4:]
        assert not verify_multiproof(wrong_leaf, [3], path, root)
        assert not verify_multiproof(ls, [2], path, root)  # wrong index
        assert not verify_multiproof(ls, [3], path, MerkleTree(leaves(6)).root)
        assert not verify_multiproof(ls, [3], path[:-1], root)  # truncated
        assert not verify_multiproof(ls, [3], path + [ls[0]], root)  # padded
        assert not verify_multiproof([], [3], path, root)  # zero leaves
        assert not verify_multiproof(ls, [9], path, root)  # out of range
        assert not verify_multiproof(ls, [-1], path, root)

    def test_promoted_tail_contributes_no_path_element(self):
        # In a 5-leaf tree, leaf 4 is promoted until the final pairing: its
        # proof is a single sibling (the 4-leaf subtree root).
        ls = leaves(5)
        tree = MerkleTree(ls)
        path = tree.multiproof([4])
        assert len(path) == 1
        assert path[0].hex() == MerkleTree(ls[:4]).root
        assert verify_multiproof(ls, [4], path, tree.root)

    def test_shared_paths_are_sent_once(self):
        # Leaves 0 and 1 are siblings: neither needs the other's digest,
        # and their common path above is sent once.
        ls = leaves(8)
        tree = MerkleTree(ls)
        siblings = tree.multiproof([0, 1])
        assert siblings == tree.multiproof([0])[1:]
        assert len(siblings) == 2
        assert verify_multiproof(ls, [0, 1], siblings, tree.root)
        # Leaves 0 and 7 share only the root: 2 + 2 siblings.
        assert len(tree.multiproof([0, 7])) == 4

    def test_proof_out_of_range_raises(self):
        with pytest.raises(IntegrityError):
            MerkleTree(leaves(3)).multiproof([3])
        with pytest.raises(IntegrityError):
            MerkleTree(leaves(3)).multiproof([-1])

    def test_unsorted_or_duplicate_indexes_raise(self):
        tree = MerkleTree(leaves(6))
        for indexes in ([2, 1], [1, 1], [0, 3, 3]):
            with pytest.raises(IntegrityError, match="ascending"):
                tree.multiproof(indexes)

    def test_empty_index_set_proves_nothing(self):
        ls = leaves(5)
        tree = MerkleTree(ls)
        assert tree.multiproof([]) == []
        assert verify_multiproof(ls, [], [], tree.root)
        assert not verify_multiproof(ls, [], [ls[0]], tree.root)
        assert MerkleTree().multiproof([]) == []

    def test_relation_leaves_match_canonical_digest_bytes(self):
        # Same canonical cell bytes as relation_digest: two relations with
        # equal rows hash identically regardless of name.
        rel_a = relation([["x", 1], ["y", 2]])
        rel_b = Relation(["A", "B"], [["x", "1"], ["y", "2"]], name="other")
        assert relation_leaves(rel_a) == relation_leaves(rel_b)
        assert relation_digest(rel_a) == relation_digest(rel_b)


@st.composite
def trees_with_index_sets(draw):
    """A leaf count (tiny, odd tails, powers of two ±1, up to ~1k) and an
    ascending index subset of it (empty, one, all, or random density)."""
    n = draw(
        st.one_of(
            st.integers(1, 40),
            st.sampled_from([63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513]),
            st.integers(600, 1025),
        )
    )
    kind = draw(st.sampled_from(["empty", "one", "all", "subset"]))
    if kind == "empty":
        indexes = []
    elif kind == "one":
        indexes = [draw(st.integers(0, n - 1))]
    elif kind == "all":
        indexes = list(range(n))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        density = draw(st.sampled_from([0.01, 0.1, 0.33, 0.5, 0.9]))
        indexes = [i for i in range(n) if rng.random() < density]
    return n, indexes


_LEAVES_CACHE: dict[int, list[bytes]] = {}


def cached_leaves(n: int) -> list[bytes]:
    if n not in _LEAVES_CACHE:
        _LEAVES_CACHE[n] = leaves(n)
    return _LEAVES_CACHE[n]


PROPERTY = settings(max_examples=60, deadline=None)


class TestMultiproofProperties:
    @PROPERTY
    @given(trees_with_index_sets())
    def test_multiproof_verifies_and_round_trips(self, case):
        n, indexes = case
        ls = cached_leaves(n)
        tree = MerkleTree(ls)
        siblings = tree.multiproof(indexes)
        assert verify_multiproof(ls, indexes, siblings, tree.root)
        # Never more than k separate paths would carry.
        assert len(siblings) <= len(indexes) * (n - 1).bit_length()
        for form in ("binary", "json"):
            assert decode_merkle_proofs(encode_merkle_proofs(n, siblings, form)) == (
                n,
                siblings,
            )

    @PROPERTY
    @given(trees_with_index_sets(), st.data())
    def test_any_tampering_fails(self, case, data):
        n, indexes = case
        ls = cached_leaves(n)
        tree = MerkleTree(ls)
        root = tree.root
        siblings = tree.multiproof(indexes)
        # An appended sibling is never consumed.
        assert not verify_multiproof(ls, indexes, siblings + [ls[0]], root)
        if siblings:
            at = data.draw(st.integers(0, len(siblings) - 1), label="sibling")
            byte = data.draw(st.integers(0, 31), label="byte")
            flipped = bytearray(siblings[at])
            flipped[byte] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            tampered = siblings[:at] + [bytes(flipped)] + siblings[at + 1 :]
            assert not verify_multiproof(ls, indexes, tampered, root)
            dropped = siblings[:at] + siblings[at + 1 :]
            assert not verify_multiproof(ls, indexes, dropped, root)
        if len(siblings) >= 2:
            a, b = sorted(
                data.draw(
                    st.lists(
                        st.integers(0, len(siblings) - 1),
                        min_size=2,
                        max_size=2,
                        unique=True,
                    ),
                    label="swap",
                )
            )
            swapped = list(siblings)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert not verify_multiproof(ls, indexes, swapped, root)
        if indexes:
            at = data.draw(st.integers(0, len(indexes) - 1), label="duplicate")
            duplicated = indexes[: at + 1] + indexes[at:]
            assert not verify_multiproof(ls, duplicated, siblings, root)
        if len(indexes) >= 2:
            at = data.draw(st.integers(0, len(indexes) - 2), label="unsort")
            unsorted = list(indexes)
            unsorted[at], unsorted[at + 1] = unsorted[at + 1], unsorted[at]
            assert not verify_multiproof(ls, unsorted, siblings, root)
        if 0 < len(indexes) < n:
            # Proving set A while claiming a different set B of equal size.
            rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="B"))
            claimed = indexes
            while claimed == indexes:
                claimed = sorted(rng.sample(range(n), len(indexes)))
            assert not verify_multiproof(ls, claimed, siblings, root)


class TestLeavesAfterDelta:
    def test_matches_full_rehash(self):
        base = relation([[f"k{i}", i] for i in range(8)])
        updated = relation([[f"k{i}", i] for i in range(8)] + [["new", 99]])
        delta = compute_view_delta(base, updated)
        derived = leaves_after_delta(relation_leaves(base), delta)
        assert derived == relation_leaves(updated)
        assert MerkleTree(derived).root == MerkleTree(relation_leaves(updated)).root

    def test_copy_segment_outside_base_raises(self):
        base = relation([["a", 1], ["b", 2]])
        updated = relation([["a", 1], ["b", 2], ["c", 3]])
        delta = compute_view_delta(base, updated)
        with pytest.raises(IntegrityError):
            leaves_after_delta(relation_leaves(base)[:1], delta)


# ----------------------------------------------------------------------
# Proof attachments on the wire
# ----------------------------------------------------------------------
class TestProofCodec:
    @pytest.mark.parametrize("form", ["binary", "json"])
    def test_round_trip(self, form):
        tree = MerkleTree(leaves(9))
        siblings = tree.multiproof([0, 4, 8])
        blob = encode_merkle_proofs(9, siblings, form)
        num_leaves, decoded = decode_merkle_proofs(blob)
        assert num_leaves == 9
        assert decoded == siblings
        if form == "binary":
            assert blob[:4] == PROOFS_MAGIC == b"F2P\x02"
            assert len(blob) == 4 + 1 + 1 + 32 * len(siblings)
        else:
            assert b"f2-merkle-proofs/2" in blob

    @pytest.mark.parametrize("form", ["binary", "json"])
    def test_empty_paths(self, form):
        blob = encode_merkle_proofs(4, [], form)
        assert decode_merkle_proofs(blob) == (4, [])

    def test_unrecognised_blob_rejected(self):
        with pytest.raises(WireError):
            decode_merkle_proofs(b"\x99garbage")

    def test_binary_rejects_non_digest_lengths(self):
        for form in ("binary", "json"):
            with pytest.raises(WireError):
                encode_merkle_proofs(2, [b"short"], form)


class TestHostileProofBlobs:
    """Malformed proof blobs raise only WireError and never allocate more
    than they carry."""

    @staticmethod
    def binary(num_leaves: int, count: int, body: bytes) -> bytes:
        writer = ByteWriter()
        writer.raw(PROOFS_MAGIC)
        writer.uvarint(num_leaves)
        writer.uvarint(count)
        writer.raw(body)
        return writer.getvalue()

    @pytest.mark.parametrize(
        "count, carried", [(1, 31), (2, 32), (3, 32), (1 << 40, 32), (1 << 62, 32)]
    )
    def test_count_beyond_the_blob(self, count, carried):
        with pytest.raises(WireError, match="truncated"):
            decode_merkle_proofs(self.binary(8, count, b"\xab" * carried))

    def test_trailing_bytes_after_the_digests(self):
        with pytest.raises(WireError, match="trailing"):
            decode_merkle_proofs(self.binary(8, 1, b"\xab" * 33))

    def test_truncated_header(self):
        for blob in (PROOFS_MAGIC, PROOFS_MAGIC + b"\x08", PROOFS_MAGIC + b"\x88"):
            with pytest.raises(WireError):
                decode_merkle_proofs(blob)

    def test_retired_per_row_layout_rejected(self):
        # Version 1 carried one length-prefixed path per row.
        v1 = b"F2P\x01" + b"\x08\x01\x01" + b"\xab" * 32
        with pytest.raises(WireError):
            decode_merkle_proofs(v1)
        v1_json = b'{"format":"f2-merkle-proofs/1","num_leaves":8,"paths":[]}'
        with pytest.raises(WireError):
            decode_merkle_proofs(v1_json)

    @pytest.mark.parametrize(
        "siblings",
        [["ab" * 31], ["ab" * 33], ["zz" * 32], [7], [["ab" * 32]], "ab" * 32, None],
    )
    def test_json_with_a_malformed_digest(self, siblings):
        doc = {"format": "f2-merkle-proofs/2", "num_leaves": 8, "siblings": siblings}
        with pytest.raises(WireError):
            decode_merkle_proofs(json.dumps(doc).encode("utf-8"))

    def test_proof_leaf_count_must_match_the_result(self):
        result = PlanQueryResult(
            table_id="orders",
            row_indexes=(1, 2),
            leaf_match_counts=(2,),
            num_rows=5,
            version=1,
            merkle_root=MerkleTree(leaves(5)).root,
            proof=tuple(MerkleTree(leaves(5)).multiproof([1, 2])),
        )
        for form in ("binary", "json"):
            assert Message.decode(result.encode(form)) == result
        doc = json.loads(result.encode("json"))
        doc["meta"]["num_rows"] = 4
        with pytest.raises(WireError, match="5 leaves"):
            Message.decode(json.dumps(doc).encode("utf-8"))

    def test_json_without_fields(self):
        for doc in ({"format": "f2-merkle-proofs/2"}, [], {"num_leaves": "x"}):
            with pytest.raises(WireError):
                decode_merkle_proofs(json.dumps(doc).encode("utf-8"))


# ----------------------------------------------------------------------
# Owner-side verification state
# ----------------------------------------------------------------------
class TestTableIntegrityState:
    def make_state(self, rows=4):
        view = relation([[f"k{i}", i] for i in range(rows)])
        state = TableIntegrityState("orders")
        state.record_push(view, version=1)
        return state, view

    def test_push_and_matching_reply(self):
        state, view = self.make_state()
        root = state.expected_root
        state.check_reply(1, root, num_rows=view.num_rows)
        state.check_reply(1, root)  # row count optional

    def test_push_rejects_contradicting_server_root(self):
        view = relation([["a", 1]])
        state = TableIntegrityState("orders")
        with pytest.raises(IntegrityError, match="acknowledged root"):
            state.record_push(view, version=1, server_root="ff" * 32)

    def test_wrong_root_raises(self):
        state, _ = self.make_state()
        with pytest.raises(IntegrityError, match="differs from the owner"):
            state.check_reply(1, "ab" * 32)

    def test_wrong_row_count_raises(self):
        state, view = self.make_state()
        with pytest.raises(IntegrityError, match="rows"):
            state.check_reply(1, state.expected_root, num_rows=view.num_rows + 1)

    def test_version_rollback_raises(self):
        state, _ = self.make_state()
        root = state.expected_root
        with pytest.raises(IntegrityError, match="rollback|regressed"):
            state.check_reply(0, root)

    def test_fork_same_version_different_root_raises(self):
        state = TableIntegrityState("orders")
        # No tree recorded (analyst-style state): only the freshness chain.
        state.check_reply(3, "aa" * 32)
        with pytest.raises(IntegrityError, match="fork"):
            state.check_reply(3, "bb" * 32)

    def test_record_delta_advances_root(self):
        base = relation([[f"k{i}", i] for i in range(4)])
        updated = relation([[f"k{i}", i] for i in range(4)] + [["new", 9]])
        state = TableIntegrityState("orders")
        state.record_push(base, version=1)
        delta = compute_view_delta(base, updated)
        root = state.record_delta(delta, version=2)
        assert root == MerkleTree(relation_leaves(updated)).root
        state.check_reply(2, root, num_rows=updated.num_rows)

    def test_record_delta_before_push_raises(self):
        base = relation([["a", 1]])
        delta = compute_view_delta(base, base)
        with pytest.raises(IntegrityError, match="before any push"):
            TableIntegrityState("orders").record_delta(delta, version=1)

    def test_verify_proofs_accepts_and_rejects(self):
        state, view = self.make_state(rows=6)
        tree = MerkleTree(relation_leaves(view))
        n, root = tree.num_leaves, tree.root
        indexes = [1, 4]
        siblings = tree.multiproof(indexes)
        state.verify_proofs(indexes, siblings, n, root)
        state.verify_proofs([], [], n, root)
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs([1, 5], siblings, n, root)  # wrong index
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs([4], siblings, n, root)  # wrong leaf set
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs(indexes, siblings, n, "ab" * 32)  # wrong root
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs(indexes, siblings[:-1], n, root)  # truncated
        with pytest.raises(IntegrityError, match="does not verify"):
            state.verify_proofs(indexes, siblings + [siblings[0]], n, root)  # padded
        with pytest.raises(IntegrityError, match="-row tree"):
            state.verify_proofs(indexes, siblings, n + 1, root)
        with pytest.raises(IntegrityError, match="-row tree"):
            state.verify_proofs(indexes, siblings, 0, root)  # zero leaves
        for bad in ([4, 99], [-1, 4], [4, 1], [1, 1]):  # out of range or order
            with pytest.raises(IntegrityError, match="does not verify"):
                state.verify_proofs(bad, siblings, n, root)


# ----------------------------------------------------------------------
# Reply signatures and resumption tickets
# ----------------------------------------------------------------------
class TestReplySignatures:
    SECRET = b"\x07" * 32

    def test_round_trip(self):
        sig = sign_reply(self.SECRET, "sess-1", 42, b"payload")
        assert verify_reply(self.SECRET, "sess-1", 42, b"payload", sig)

    @pytest.mark.parametrize(
        "session,seq,payload",
        [("sess-2", 42, b"payload"), ("sess-1", 43, b"payload"), ("sess-1", 42, b"other")],
    )
    def test_any_field_change_invalidates(self, session, seq, payload):
        sig = sign_reply(self.SECRET, "sess-1", 42, b"payload")
        assert not verify_reply(self.SECRET, session, seq, payload, sig)

    def test_key_binds(self):
        sig = sign_reply(self.SECRET, "sess-1", 42, b"payload")
        assert not verify_reply(b"\x08" * 32, "sess-1", 42, b"payload", sig)


class TestResumptionTickets:
    SECRET = b"\x05" * 32

    def test_round_trip(self):
        doc = {"session_id": "s1", "tenant_id": "acme", "version": 3}
        ticket = seal_ticket(self.SECRET, doc)
        assert ticket.startswith("f2tkt1.")
        assert open_ticket(self.SECRET, ticket) == doc

    def test_rotation_invalidates(self):
        ticket = seal_ticket(self.SECRET, {"session_id": "s1"})
        with pytest.raises(AuthError):
            open_ticket(b"\x06" * 32, ticket)

    @pytest.mark.parametrize(
        "ticket",
        ["", "nope", "f2tkt1.only-two", "f2tkt1.!!!.00", "f2tkt1..deadbeef"],
    )
    def test_malformed_rejected(self, ticket):
        with pytest.raises(AuthError):
            open_ticket(b"\x05" * 32, ticket)

    def test_tampered_body_rejected(self):
        ticket = seal_ticket(self.SECRET, {"session_id": "s1"})
        prefix, body, mac = ticket.split(".")
        forged = ".".join([prefix, body[:-1] + ("A" if body[-1] != "A" else "B"), mac])
        with pytest.raises(AuthError):
            open_ticket(self.SECRET, forged)


# ----------------------------------------------------------------------
# Warning category
# ----------------------------------------------------------------------
class TestStoreIntegrityWarning:
    def test_is_a_runtime_warning(self):
        assert issubclass(StoreIntegrityWarning, RuntimeWarning)

    def test_corrupt_snapshot_warns_with_the_category(self, tmp_path):
        from repro.api.protocol import ProtocolServer

        (tmp_path / "broken.f2t").write_bytes(b"\x00not a snapshot")
        with pytest.warns(StoreIntegrityWarning, match="broken"):
            server = ProtocolServer(storage_dir=tmp_path)
        assert server.table_ids(None) == []
