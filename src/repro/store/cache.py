"""The hot-token bitset cache (the caching hook named in the query engine).

Token-based equality queries are highly repetitive in practice: an analyst
re-issues the same token (or the same boolean plan over the same leaves)
against a table that changes only when the owner inserts.  The server-side
cost of such a query is one membership scan over a dense code array — cheap,
but linear in the table — so the store front-ends it with a small LRU cache
keyed by ``(attribute, token)``.

The cached form is the backend's row *mask* (a python int bitset or a NumPy
boolean array), the shape the plan executor consumes, so that
``rows_and``/``rows_or`` algebra never re-materialises leaves.  Masks are
immutable-by-convention: python masks are ints, and the NumPy mask algebra
always allocates fresh output arrays.

Correctness rests on one rule: **any write to the table invalidates the
whole cache** (:meth:`TokenBitsetCache.invalidate`).  The stores call it
under the same mutex that serialises the write, so a stale hit can never be
observed after a replace, delta apply, or reload.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable

from repro.obs import metrics as _metrics

#: Default bound on cached entries per table.
DEFAULT_CACHE_ENTRIES = 256

# Process-wide rates across every table's cache; the per-store counters on
# each instance stay the exact per-table numbers (``stats()``).  These are
# no-ops under the REPRO_METRICS=0 kill switch.
_CACHE_HITS = _metrics.counter("store.cache_hits")
_CACHE_MISSES = _metrics.counter("store.cache_misses")
_CACHE_INVALIDATIONS = _metrics.counter("store.cache_invalidations")

#: Sentinel distinguishing "not cached" from a cached falsy result.
_MISSING = object()


class TokenBitsetCache:
    """A bounded LRU cache of per-token match results for one table."""

    __slots__ = ("max_entries", "hits", "misses", "invalidations", "_masks")

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES):
        self.max_entries = max(1, int(max_entries))
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._masks: "OrderedDict[Any, Any]" = OrderedDict()

    @staticmethod
    def key(attribute: str, token: Iterable[Any]) -> Any:
        """The cache key of one query leaf.

        Token cells are hashable by the relation contract (strings, ints,
        frozen ciphertext dataclasses); callers catch ``TypeError`` and skip
        the cache for anything exotic.
        """
        return (attribute, tuple(token))

    def get_mask(self, key: Any) -> Any:
        """The cached mask for ``key``, or ``None`` when absent.

        (A mask is never ``None``: empty matches are ``0`` or an all-False
        array, so the sentinel is unambiguous.)
        """
        found = self._masks.get(key, _MISSING)
        if found is _MISSING:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self._masks.move_to_end(key)
        self.hits += 1
        _CACHE_HITS.inc()
        return found

    def put_mask(self, key: Any, mask: Any) -> None:
        self._masks[key] = mask
        self._masks.move_to_end(key)
        while len(self._masks) > self.max_entries:
            self._masks.popitem(last=False)

    # -- write-path invalidation ---------------------------------------
    def invalidate(self) -> None:
        """Drop every cached result (called on any write to the table)."""
        if self._masks:
            self.invalidations += 1
            _CACHE_INVALIDATIONS.inc()
        self._masks.clear()

    @property
    def entries(self) -> int:
        return len(self._masks)

    def stats(self) -> dict[str, int]:
        """Counters for tests and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "invalidations": self.invalidations,
        }
