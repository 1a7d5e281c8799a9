"""Dictionary-encoded columnar view of a relation.

Every hot algorithm in the system — stripped-partition refinement (TANE),
MAS non-uniqueness tests, equivalence-class grouping, false-positive witness
search, frequency analysis — only ever compares cells for *equality*.  The
:class:`CodedRelation` therefore encodes each column once into a dense
integer code array plus a value dictionary (``dictionary[code] -> value``,
codes in first-occurrence order) and lets those algorithms run on machine
integers instead of hashing arbitrary cell objects over and over.

The coded view is built lazily per column, cached on the owning
:class:`~repro.relational.table.Relation` (one cache entry per backend), and
invalidated automatically when rows are appended or cells overwritten — see
:meth:`Relation.coded`.  All array work is delegated to a pluggable
:class:`repro.backend.ComputeBackend`, so the same view powers both the
pure-Python reference path and the NumPy path.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.backend import ComputeBackend, get_backend
from repro.exceptions import RelationError

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.relational.table import Relation


class CodedColumn:
    """One dictionary-encoded column: codes + value dictionary."""

    __slots__ = (
        "attribute", "codes", "dictionary", "_backend", "_counts", "_histogram", "_code_of"
    )

    def __init__(self, attribute: str, codes: Any, dictionary: list[Any], backend: ComputeBackend):
        self.attribute = attribute
        self.codes = codes
        self.dictionary = dictionary
        self._backend = backend
        self._counts: list[int] | None = None
        self._histogram: Counter | None = None
        self._code_of: dict[Any, int] | None = None

    @property
    def num_values(self) -> int:
        """Number of distinct values (the paper's per-attribute domain size)."""
        return len(self.dictionary)

    def __len__(self) -> int:
        return len(self.codes)

    def value_of(self, code: int) -> Any:
        """The original value behind ``code``."""
        return self.dictionary[code]

    def code_of(self) -> dict[Any, int]:
        """Map from each value to its code, the inverse of ``dictionary``
        (cached; do not mutate)."""
        if self._code_of is None:
            self._code_of = {value: code for code, value in enumerate(self.dictionary)}
        return self._code_of

    def counts(self) -> list[int]:
        """Occurrences of each code, indexed by code (cached)."""
        if self._counts is None:
            self._counts = self._backend.counts(self.codes, self.num_values)
        return self._counts

    def count_histogram(self) -> Counter:
        """How many codes occur with each count (cached; do not mutate)."""
        if self._histogram is None:
            self._histogram = Counter(self.counts())
        return self._histogram

    def frequencies(self) -> Counter:
        """Value-frequency table straight from the dictionary.

        Equivalent to ``Counter(relation.column(attribute))`` — including the
        first-occurrence insertion order ``most_common`` tie-breaks on — but
        computed from the code histogram.
        """
        return Counter(dict(zip(self.dictionary, self.counts())))


class CodedRelation:
    """The coded-columnar view of one relation under one backend.

    Obtain instances through :meth:`repro.relational.table.Relation.coded`,
    which caches them per backend and rebuilds on mutation; constructing one
    directly pins it to the relation's current contents.
    """

    __slots__ = ("_relation", "backend", "version", "_columns")

    def __init__(self, relation: "Relation", backend: ComputeBackend):
        self._relation = relation
        self.backend = backend
        self.version = relation.version
        self._columns: dict[str, CodedColumn] = {}

    @property
    def relation(self) -> "Relation":
        return self._relation

    @property
    def num_rows(self) -> int:
        return self._relation.num_rows

    def column(self, attribute: str) -> CodedColumn:
        """The coded column for ``attribute`` (encoded on first access)."""
        if self._relation.version != self.version:
            # Columns encode lazily from the live relation; a view held
            # across a mutation would otherwise serve stale (or mixed) code
            # arrays with no error.  Fetch a fresh view instead.
            raise RelationError(
                "stale coded view: the relation was mutated after this view "
                "was built; call relation.coded() again"
            )
        cached = self._columns.get(attribute)
        if cached is None:
            codes, dictionary = self.backend.factorize(self._relation.column(attribute))
            cached = CodedColumn(attribute, codes, dictionary, self.backend)
            self._columns[attribute] = cached
        return cached

    # ------------------------------------------------------------------
    # Multi-attribute operations
    # ------------------------------------------------------------------
    def _ordered(self, attributes: Iterable[str]) -> tuple[str, ...]:
        ordered = self._relation.schema.ordered(attributes)
        if not ordered:
            raise RelationError("at least one attribute is required")
        return ordered

    def codes_for(self, attributes: Iterable[str]) -> tuple[Any, int]:
        """Row codes over an attribute set: equal codes iff rows agree on it.

        Returns ``(codes, num_groups)``.  Single-attribute requests reuse the
        cached column encoding directly.
        """
        ordered = self._ordered(attributes)
        columns = [self.column(attr) for attr in ordered]
        if len(columns) == 1:
            return columns[0].codes, columns[0].num_values
        return self.backend.combine_codes(
            [column.codes for column in columns],
            [column.num_values for column in columns],
        )

    def group_rows(self, attributes: Iterable[str], min_size: int = 1) -> list[list[int]]:
        """Equivalence-class row groups over ``attributes``.

        Groups are ordered by smallest row index with rows ascending inside
        each group — the canonical order of :class:`Partition` classes.
        """
        codes, num_groups = self.codes_for(attributes)
        return self.backend.group_rows(codes, num_groups, min_size=min_size)

    def has_duplicates(self, attributes: Iterable[str]) -> bool:
        """True iff some instance of ``attributes`` occurs more than once.

        This is the MAS non-uniqueness test (Definition 3.2 condition (1))
        without materialising any groups.
        """
        codes, num_groups = self.codes_for(attributes)
        if num_groups == self.num_rows:
            return False
        return self.backend.has_duplicates(codes, num_groups)

    def class_code_matrix(
        self, attributes: Iterable[str], groups: list[list[int]]
    ) -> list[tuple[int, ...]]:
        """Per-class code tuples (one per group, in group order).

        Row ``i`` of the matrix is the code tuple of ``groups[i]``'s
        representative over ``attributes`` — the integer form of the class
        representative, used for collision tests and witness search.
        """
        ordered = self._ordered(attributes)
        columns = [self.column(attr) for attr in ordered]
        return [
            tuple(int(column.codes[group[0]]) for column in columns) for group in groups
        ]

    def frequencies(self, attribute: str) -> Counter:
        """Shorthand for ``self.column(attribute).frequencies()``."""
        return self.column(attribute).frequencies()

    def match_mask(self, attribute: str, values: Iterable[Any]) -> Any:
        """Backend row mask of the rows whose ``attribute`` cell is in ``values``.

        The equality-selection primitive behind token-based queries: the
        candidate values (e.g. the ciphertexts of a search token) are first
        resolved against the column dictionary — each distinct cell value is
        hashed once, however many rows carry it — and the row scan runs on
        the integer code array through the backend.  The server-side query
        executor consumes the mask directly, so boolean combinations of
        token leaves stay in the backend's bitset algebra (``rows_and`` /
        ``rows_or`` / ``rows_not``) instead of materialising index lists.
        """
        column = self.column(attribute)
        return self.backend.membership_mask(
            column.codes, self._wanted_codes(column, values)
        )

    @staticmethod
    def _wanted_codes(column: CodedColumn, values: Iterable[Any]) -> list[int]:
        code_of = column.code_of()
        return sorted({code_of[value] for value in values if value in code_of})
