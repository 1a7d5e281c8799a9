"""The :class:`TableStore` contract the protocol server stores tables behind.

PR 5 left the server holding bare :class:`~repro.relational.table.Relation`
objects in a dict, with persistence (whole-table ``.f2t`` snapshots) bolted
on beside it.  A :class:`TableStore` pulls the per-table state — the data,
its coded query surface, and the hot-token cache — behind one interface so
the server no longer cares *how* a table is held:

* :class:`repro.store.memory.MemoryTableStore` — the legacy engine: the
  relation lives in memory (decoded lazily from its snapshot bytes), the
  server writes ``.f2t`` snapshots around it.
* :class:`repro.store.segment.SegmentTableStore` — the columnar segment
  engine: coded columns live in append-only on-disk segment files under a
  generation-numbered manifest; queries read the codes straight off disk
  (memory-mapped) without rebuilding the full relation.

The query plane is one method shaped like the coded view: a store exposes
``backend`` / ``num_rows`` / ``match_mask`` — exactly the surface
:func:`repro.query.server.execute_server_expr` consumes — so a store is
handed to the plan executor directly (an equality query is a one-leaf
plan), and both engines front their mask scans with the same
:class:`~repro.store.cache.TokenBitsetCache` (invalidated by every write).

Thread model: the server serialises writes against reads per table with its
read/write locks, but `store()` accessors and FD discovery read without a
table lock, so every store also guards its own lazy materialisation and
caches with an internal re-entrant mutex.  ``version`` increments on every
write — the server's discovery cache uses ``(identity, version)`` to detect
a table that changed while TANE ran.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Iterable, TYPE_CHECKING

from repro.backend import ComputeBackend
from repro.relational.table import Relation
from repro.store.cache import DEFAULT_CACHE_ENTRIES, TokenBitsetCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (delta -> api)
    from repro.api.delta import ViewDelta
    from repro.integrity.merkle import MerkleTree

#: The storage engines the protocol server can be asked to run.
STORAGE_ENGINE_SNAPSHOT = "snapshot"
STORAGE_ENGINE_SEGMENT = "segment"
STORAGE_ENGINES = (STORAGE_ENGINE_SNAPSHOT, STORAGE_ENGINE_SEGMENT)

#: Suffix of a segment table directory (the engine's ``.f2t`` counterpart).
#: Lives here (not in :mod:`.segment`) so the protocol server can import it
#: without touching the engine modules at import time — they reach back into
#: :mod:`repro.api` and would close an import cycle.
STORE_SUFFIX = ".f2s"


class TableStore(ABC):
    """One tenant-namespaced table behind the protocol server."""

    #: Which storage engine this store belongs to (a ``STORAGE_ENGINES`` name).
    engine: str = "abstract"

    def __init__(self, backend: ComputeBackend, cache_entries: int = DEFAULT_CACHE_ENTRIES):
        self._backend = backend
        self._cache = TokenBitsetCache(max_entries=cache_entries)
        self._mutex = threading.RLock()
        self._version = 0
        self._commit_version = 0
        self._merkle: "MerkleTree | None" = None

    # -- identity ------------------------------------------------------
    @property
    def backend(self) -> ComputeBackend:
        """The resolved compute backend queries run on."""
        return self._backend

    @property
    def version(self) -> int:
        """Monotonic write counter (bumped by every mutation)."""
        return self._version

    @property
    def cache(self) -> TokenBitsetCache:
        return self._cache

    def cache_stats(self) -> dict[str, int]:
        return self._cache.stats()

    def store_stats(self) -> dict[str, Any]:
        """JSON-safe live stats of this store (the ``StatsReply`` surface).

        Engines extend the document with their own fields (segment counts,
        mmap'd bytes, decode counts).  Read at stats-snapshot time only —
        store observability costs nothing on the query hot path.
        """
        with self._mutex:
            return {
                "engine": self.engine,
                "num_rows": self.num_rows,
                "num_attributes": len(self.attributes),
                "version": self._version,
                "commit_version": self._commit_version,
                "cache": self._cache.stats(),
            }

    # -- integrity plane -----------------------------------------------
    @property
    def commit_version(self) -> int:
        """Monotonic *committed-write* counter, the CAS base for deltas.

        Unlike :attr:`version` (a process-local cache-invalidation counter
        that restarts at zero), the commit version survives restarts on
        durable engines — the segment engine maps it to its persisted
        manifest generation, the snapshot engine restores it from the
        ``.f2i`` integrity sidecar — so the owner's ``(version, root)``
        freshness chain can tell an honest restart from a rollback.
        """
        return self._commit_version

    def set_commit_version(self, value: int) -> None:
        """Restore the committed version (engine load paths only)."""
        with self._mutex:
            self._commit_version = int(value)

    def merkle_tree(self) -> "MerkleTree":
        """The table's Merkle tree, built lazily from the stored relation."""
        from repro.integrity.merkle import MerkleTree, relation_leaves

        with self._mutex:
            if self._merkle is None:
                if self.num_rows == 0 and not self.attributes:
                    self._merkle = MerkleTree()
                else:
                    self._merkle = MerkleTree(relation_leaves(self.relation()))
            return self._merkle

    def merkle_root(self) -> str:
        """Hex root over the current ciphertext rows."""
        return self.merkle_tree().root

    def merkle_proofs(self, indexes: Iterable[int]) -> list[list[bytes]]:
        """Inclusion proofs for the given row indexes, in the given order."""
        tree = self.merkle_tree()
        return [tree.proof(index) for index in indexes]

    def _merkle_candidate(self, delta: "ViewDelta", base_rows: int) -> "MerkleTree | None":
        """The tree a (structurally validated) delta produces, or ``None``.

        Never mutates the cached tree — engines commit the data write first
        and only then adopt the candidate, so a failed commit leaves the
        committed tree in step.  A pure-append delta costs one O(n)-copy /
        zero-hash clone plus O(log n) hashing per literal row; anything else
        rebuilds the node levels from the remapped leaf list, still hashing
        only the literal rows.  ``None`` when no tree is cached — the lazy
        rebuild path (:meth:`merkle_tree`) covers it later.
        """
        if self._merkle is None:
            return None
        from repro.api.delta import OP_COPY, OP_LITERAL
        from repro.integrity.merkle import (
            MerkleTree,
            leaves_after_delta,
            relation_leaves,
        )

        segments = delta.segments
        pure_append = (
            bool(segments)
            and segments[0][0] == OP_COPY
            and int(segments[0][1]) == 0
            and int(segments[0][2]) == base_rows
            and all(segment[0] == OP_LITERAL for segment in segments[1:])
        )
        if pure_append:
            candidate = self._merkle.copy()
            if delta.literals is not None:
                candidate.extend(relation_leaves(delta.literals))
            return candidate
        return MerkleTree(leaves_after_delta(self._merkle.leaves, delta))

    # -- data plane ----------------------------------------------------
    @property
    @abstractmethod
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in schema order (empty before the first write)."""

    @property
    @abstractmethod
    def num_rows(self) -> int:
        """Committed row count."""

    @abstractmethod
    def relation(self) -> Relation:
        """The full stored relation, materialised (and cached) on demand."""

    @abstractmethod
    def replace(self, relation: Relation) -> None:
        """Replace the whole table (outsource / full insert)."""

    @abstractmethod
    def apply_delta(self, delta: "ViewDelta") -> int:
        """Splice a :class:`~repro.api.delta.ViewDelta` in; return the new row count.

        Raises :class:`~repro.exceptions.ProtocolError` with
        ``DELTA_MISMATCH`` / ``BAD_REQUEST`` codes exactly like
        :func:`repro.api.delta.apply_view_delta` — the server's error
        contract does not depend on the engine.
        """

    # -- query plane (cache-fronted) -----------------------------------
    def match_mask(self, attribute: str, token: Iterable[Any]) -> Any:
        """The backend row mask of the rows whose ``attribute`` cell is in ``token``.

        One token leaf of a plan query; the plan executor combines leaf
        masks with the backend's ``rows_and``/``rows_or``/``rows_not``.
        """
        with self._mutex:
            key = self._cache_key(attribute, token)
            if key is not None:
                hit = self._cache.get_mask(key)
                if hit is not None:
                    return hit
            mask = self._match_mask_uncached(attribute, token)
            if key is not None:
                self._cache.put_mask(key, mask)
            return mask

    @abstractmethod
    def _match_mask_uncached(self, attribute: str, token: Iterable[Any]) -> Any:
        """Engine-specific mask scan (called under the store mutex)."""

    def _cache_key(self, attribute: str, token: Iterable[Any]) -> Any:
        try:
            return self._cache.key(attribute, token)
        except TypeError:
            # Unhashable token cells: legal for a one-off query, just not
            # cacheable.
            return None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release any OS resources (mmaps, file handles).  Idempotent."""

    def _wrote(self) -> None:
        """Post-write bookkeeping shared by the engines (under the mutex)."""
        self._version += 1
        self._cache.invalidate()

    def _committed(self) -> None:
        """Advance the committed version (one durable write landed)."""
        self._commit_version += 1
