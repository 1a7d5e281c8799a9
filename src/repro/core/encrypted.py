"""The output artifact of F2: the encrypted table plus owner-side metadata.

What the *server* receives is only the ciphertext relation
(:meth:`EncryptedTable.server_view`).  Everything else — row provenance, the
ECG summaries, the configuration — stays with the data owner and is what
allows her to decrypt, to strip artificial records, and to audit the
alpha-security invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.core.config import F2Config
from repro.core.stats import EncryptionStats
from repro.exceptions import DecryptionError
from repro.fd.mas import MaximalAttributeSet
from repro.relational.table import Relation


@dataclass(frozen=True)
class RowProvenance:
    """Owner-side provenance of one ciphertext row.

    ``kind`` is one of ``"original"``, ``"conflict"``, ``"scaling"``,
    ``"fake_ec"``, ``"false_positive"``, or ``"repair"``.
    """

    kind: str
    source_row: int | None
    authentic_attributes: frozenset[str]

    @property
    def is_artificial(self) -> bool:
        """True for rows that carry no original record."""
        return self.kind in {"scaling", "fake_ec", "false_positive", "repair"}


@dataclass(frozen=True)
class EcgSummary:
    """Owner-side summary of one equivalence-class group (for auditing)."""

    mas_attributes: tuple[str, ...]
    group_index: int
    num_members: int
    num_fake_members: int
    target_frequency: int
    instance_frequencies: tuple[int, ...]
    member_sizes: tuple[int, ...]


class _ProvenanceIndex:
    """Owner-side lookups over one table's provenance, built in one pass.

    ``source_rows`` maps each original record to its ciphertext rows;
    ``partial_sources`` lists the records none of whose rows carries every
    attribute authentically (conflict replacements) — the only candidates
    for :meth:`EncryptedTable.split_sources`, which caches its answer per
    attribute set in ``split``.
    """

    __slots__ = ("source_rows", "partial_sources", "split")

    def __init__(self, table: "EncryptedTable"):
        attributes = frozenset(table.relation.attributes)
        groups: dict[int, list[int]] = {}
        complete: set[int] = set()
        for index, row in enumerate(table.provenance):
            source = row.source_row
            if source is None or row.is_artificial:
                continue
            groups.setdefault(source, []).append(index)
            if attributes <= row.authentic_attributes:
                complete.add(source)
        self.source_rows: Mapping[int, tuple[int, ...]] = MappingProxyType(
            {source: tuple(rows) for source, rows in groups.items()}
        )
        self.partial_sources = tuple(sorted(groups.keys() - complete))
        self.split: dict[frozenset[str], tuple[int, ...]] = {}


@dataclass
class EncryptedTable:
    """The F2 encryption of one relation.

    **Immutability contract.** Once constructed, a table's ``relation`` and
    ``provenance`` are never mutated: every outsource or insert produces a
    new :class:`EncryptedTable` (``DataOwner`` swaps its reference).  The
    owner-side provenance index behind :meth:`original_row_groups` and
    :meth:`split_sources` relies on this — it is built lazily by the first
    query, kept for the life of the instance, and never invalidated.  The
    index is derived state: it takes no part in ``==``, ``repr`` or the wire
    codec.
    """

    relation: Relation
    provenance: list[RowProvenance]
    config: F2Config
    stats: EncryptionStats
    masses: list[MaximalAttributeSet] = field(default_factory=list)
    ecg_summaries: list[EcgSummary] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)
    _index: _ProvenanceIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.provenance) != self.relation.num_rows:
            raise DecryptionError(
                "provenance length does not match the number of ciphertext rows"
            )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    @property
    def num_original_rows(self) -> int:
        return self.stats.rows_original

    def server_view(self) -> Relation:
        """The relation the server receives (no provenance, no metadata)."""
        return self.relation.copy(name=f"{self.relation.name}")

    def artificial_row_indexes(self) -> list[int]:
        """Indexes of rows that carry no original record."""
        return [index for index, row in enumerate(self.provenance) if row.is_artificial]

    def _provenance_index(self) -> _ProvenanceIndex:
        if self._index is None:
            self._index = _ProvenanceIndex(self)
        return self._index

    def original_row_groups(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only map from original row index to the ciphertext rows
        derived from it, ascending (built once per table)."""
        return self._provenance_index().source_rows

    def split_sources(self, attributes: frozenset[str]) -> tuple[int, ...]:
        """Original records none of whose rows carries all ``attributes``
        authentically, ascending (cached per attribute set).

        A conflict replacement can spread a record's attributes over several
        ciphertext rows; a token query over ``attributes`` cannot decide such
        a record from the server's match set, so the owner re-evaluates it
        locally.  Costs O(conflict-replaced records) on first use per set.
        """
        index = self._provenance_index()
        cached = index.split.get(attributes)
        if cached is None:
            provenance = self.provenance
            cached = index.split[attributes] = tuple(
                source
                for source in index.partial_sources
                if not any(
                    attributes <= provenance[row].authentic_attributes
                    for row in index.source_rows[source]
                )
            )
        return cached

    def artificial_fraction(self) -> float:
        """Fraction of ciphertext rows that are artificial (space overhead)."""
        if self.num_rows == 0:
            return 0.0
        return len(self.artificial_row_indexes()) / self.num_rows

    def rows_by_kind(self) -> dict[str, int]:
        """Row counts per provenance kind (reported in EXPERIMENTS.md)."""
        counts: dict[str, int] = {}
        for row in self.provenance:
            counts[row.kind] = counts.get(row.kind, 0) + 1
        return counts

    def describe(self) -> dict[str, Any]:
        """A compact description used by the CLI and the examples."""
        return {
            "name": self.relation.name,
            "attributes": self.relation.num_attributes,
            "ciphertext_rows": self.num_rows,
            "original_rows": self.num_original_rows,
            "artificial_rows": len(self.artificial_row_indexes()),
            "masses": [str(mas) for mas in self.masses],
            "rows_by_kind": self.rows_by_kind(),
            "config": self.config.to_dict(),
        }
