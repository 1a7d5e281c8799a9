"""Merkle trees over ciphertext rows.

The leaf of row *i* is a SHA-256 over the row's cells in the same canonical
byte form as :func:`repro.api.delta.relation_digest` (``str(cell)`` UTF-8
with ``0x1f`` cell separators and an ``0x1e`` terminator), so the owner —
who holds the server view she shipped — and an honest server always compute
the same root from the same relation, regardless of engine or backend.

Hash inputs are domain-separated (``0x00`` leaf prefix, ``0x01`` node
prefix) so an inner node can never be presented as a leaf or vice versa.
An odd trailing node is *promoted* to the next level unchanged (not paired
with a copy of itself), which keeps every root unambiguous about its leaf
count and makes appends strictly right-edge work: :meth:`MerkleTree.append`
touches O(log n) nodes, matching the O(delta) cost profile of the segment
store's ``InsertDelta`` path.

Inclusion is proven by one *multiproof* per set of rows
(:meth:`MerkleTree.multiproof` / :func:`verify_multiproof`): the sibling
digests that the union of the rows' leaf-to-root paths needs and that cannot
be derived from the proven leaves themselves.  Prover and verifier walk the
tree level by level from the leaves up, in ascending node index within a
level; a sibling is emitted only if it exists (a promoted odd tail emits
nothing) and is not itself a node already known at that level.  Orientation
and promotions are re-derived from the indexes and the leaf count, so only
digests travel.  For ``k`` rows the multiproof is at most
``32 * k * ceil(log2(n))`` bytes and much less when the rows cluster: paths
that meet share every node above the meeting point, and two matched
siblings need no digest at all.  One index gives exactly the classic
inclusion path.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.exceptions import IntegrityError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.api.delta import ViewDelta
    from repro.relational.table import Relation

#: Root of the zero-leaf tree (a fixed domain-separated constant, so an
#: empty table still has a well-defined, non-forgeable root).
EMPTY_ROOT = hashlib.sha256(b"\x02f2-merkle-empty/1").hexdigest()

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def hash_row(cells: Iterable[object]) -> bytes:
    """The leaf digest of one row (over its canonical cell bytes)."""
    digest = hashlib.sha256(_LEAF_PREFIX)
    for cell in cells:
        digest.update(str(cell).encode("utf-8"))
        digest.update(b"\x1f")
    digest.update(b"\x1e")
    return digest.digest()


def relation_leaves(relation: "Relation") -> list[bytes]:
    """Leaf digests of every row of a relation, in row order."""
    return [hash_row(row) for row in relation.rows()]


def _hash_pair(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


class MerkleTree:
    """A Merkle tree kept as per-level digest arrays for O(log n) appends."""

    __slots__ = ("_levels",)

    def __init__(self, leaves: Sequence[bytes] = ()):
        self._levels: list[list[bytes]] = [list(leaves)]
        level = 0
        while len(self._levels[level]) > 1:
            child = self._levels[level]
            parent = [
                _hash_pair(child[i], child[i + 1]) if i + 1 < len(child) else child[i]
                for i in range(0, len(child), 2)
            ]
            self._levels.append(parent)
            level += 1

    def copy(self) -> "MerkleTree":
        """An independent tree sharing the (immutable) digest bytes.

        O(n) list copies but zero hashing — used to compute a candidate
        post-delta tree without touching the committed one until the write
        actually lands.
        """
        clone = MerkleTree.__new__(MerkleTree)
        clone._levels = [list(level) for level in self._levels]
        return clone

    @property
    def num_leaves(self) -> int:
        return len(self._levels[0])

    @property
    def leaves(self) -> Sequence[bytes]:
        """The live leaf level, not a copy: callers must not mutate it.

        Handing out the level itself keeps per-select verification and
        delta replay O(touched leaves) instead of copying every leaf.
        """
        return self._levels[0]

    @property
    def root(self) -> str:
        """The root digest as hex (``EMPTY_ROOT`` for a leafless tree)."""
        top = self._levels[-1]
        return top[0].hex() if top else EMPTY_ROOT

    def append(self, leaf: bytes) -> None:
        """Add one leaf, recomputing only the right-edge path (O(log n))."""
        self.extend([leaf])

    def extend(self, new_leaves: Iterable[bytes]) -> None:
        """Append several leaves, recomputing each affected tail once."""
        added = list(new_leaves)
        if not added:
            return
        changed = len(self._levels[0])  # first index whose ancestors change
        self._levels[0].extend(added)
        level = 0
        while len(self._levels[level]) > 1:
            child = self._levels[level]
            if level + 1 >= len(self._levels):
                self._levels.append([])
            parent = self._levels[level + 1]
            start = changed // 2
            del parent[start:]
            for i in range(start * 2, len(child), 2):
                parent.append(
                    _hash_pair(child[i], child[i + 1]) if i + 1 < len(child) else child[i]
                )
            changed = start
            level += 1
        del self._levels[level + 1 :]

    def multiproof(self, indexes: Sequence[int]) -> list[bytes]:
        """The sibling digests proving the leaves at ``indexes`` (ascending).

        Walks the levels bottom-up; at each level a known node whose
        sibling is also known (two adjacent proven nodes) needs nothing, a
        promoted odd tail needs nothing, and every other known node emits
        its sibling.  :func:`verify_multiproof` consumes them in the same
        order.
        """
        if not _ascending_within(indexes, self.num_leaves):
            raise IntegrityError(
                f"multiproof indexes must be strictly ascending and inside "
                f"the tree's {self.num_leaves} leaves"
            )
        siblings: list[bytes] = []
        known = list(indexes)
        for level in self._levels[:-1]:
            width = len(level)
            parents: list[int] = []
            i, count = 0, len(known)
            while i < count:
                j = known[i]
                if i + 1 < count and known[i + 1] == j ^ 1:
                    i += 2
                else:
                    if j ^ 1 < width:
                        siblings.append(level[j ^ 1])
                    i += 1
                parents.append(j >> 1)
            known = parents
        return siblings


def _ascending_within(indexes: Sequence[int], num_leaves: int) -> bool:
    """Whether ``indexes`` is strictly ascending and inside ``num_leaves``."""
    previous = -1
    for index in indexes:
        if index <= previous:
            return False
        previous = index
    return previous < num_leaves


def verify_multiproof(
    leaves: Sequence[bytes],
    indexes: Sequence[int],
    siblings: Sequence[bytes],
    root: str,
) -> bool:
    """Check a multiproof of the leaves at ``indexes`` against ``root``.

    ``leaves`` is the verifier's own leaf level (its length is the tree's
    leaf count), so the prover never supplies the digests being proven.
    The indexes must be strictly ascending and inside it.  Recomputes every
    node on the union of the paths, drawing a sibling only where the prover
    emitted one, and returns ``False`` on any mismatch: a wrong index, a
    sibling too few or too many, or a root that differs.  An empty index
    set proves nothing and is accepted only with no siblings.
    """
    num_leaves = len(leaves)
    if not _ascending_within(indexes, num_leaves):
        return False
    if not indexes:
        return not siblings
    known: Sequence[int] = indexes
    nodes = [leaves[index] for index in indexes]
    cursor, total = 0, len(siblings)
    width = num_leaves
    while width > 1:
        parents: list[int] = []
        hashed: list[bytes] = []
        i, count = 0, len(known)
        while i < count:
            j = known[i]
            node = nodes[i]
            if i + 1 < count and known[i + 1] == j ^ 1:
                node = _hash_pair(node, nodes[i + 1])
                i += 2
            else:
                if j ^ 1 < width:
                    if cursor == total:
                        return False
                    other = siblings[cursor]
                    cursor += 1
                    node = _hash_pair(node, other) if j & 1 == 0 else _hash_pair(other, node)
                i += 1
            parents.append(j >> 1)
            hashed.append(node)
        known, nodes = parents, hashed
        width = (width + 1) // 2
    return cursor == total and nodes[0].hex() == root


def leaves_after_delta(base_leaves: Sequence[bytes], delta: "ViewDelta") -> list[bytes]:
    """The leaf list a delta produces, hashing only its literal rows.

    Copy segments reference slices of ``base_leaves`` verbatim; only the
    shipped literal rows are hashed — O(changed rows), never O(table).
    Raises :class:`IntegrityError` if the delta's structure does not fit the
    base (the protocol layer validates structure first, so hitting this
    means the delta was applied against the wrong cached tree).
    """
    from repro.api.delta import OP_COPY, OP_LITERAL

    literal_hashes: list[bytes] = (
        [] if delta.literals is None else relation_leaves(delta.literals)
    )
    result: list[bytes] = []
    cursor = 0
    for segment in delta.segments:
        op = segment[0]
        if op == OP_COPY:
            start, count = int(segment[1]), int(segment[2])
            if start < 0 or count < 0 or start + count > len(base_leaves):
                raise IntegrityError(
                    f"delta copy segment {start}+{count} outside the cached "
                    f"{len(base_leaves)} leaves"
                )
            result.extend(base_leaves[start : start + count])
        elif op == OP_LITERAL:
            count = int(segment[1])
            if count < 0 or cursor + count > len(literal_hashes):
                raise IntegrityError("delta literal segment overruns its rows")
            result.extend(literal_hashes[cursor : cursor + count])
            cursor += count
        else:
            raise IntegrityError(f"unknown delta opcode {op!r}")
    return result
