"""Per-query access-pattern leakage accounting.

``repro.attack`` quantifies what the *static* ciphertext table leaks; this
module quantifies what one *query* leaks.  Serving a plan shows the provider,
per token leaf, (a) the token — a set of ciphertexts — and (b) the access
pattern — which rows matched.  The F2 design makes that pattern safe by
construction: every instance ciphertext of an equivalence-class group is
scaled to the same frequency, and a group has at least ``k = ceil(1/alpha)``
collision-free members, so the frequency of any ciphertext the server
observes in a match set is shared by at least ``k`` distinct ciphertexts of
the column.  Frequency-matching on the access pattern therefore narrows a
value down no further than alpha-security already allows.

:func:`build_leakage_report` checks exactly that invariant on the owner's
replica of the server view: for every token ciphertext that matched rows,
the number of column ciphertexts sharing its observed frequency must be at
least ``k``.  It also cross-checks the server-reported per-leaf match
cardinalities against the replica (a failed check means owner and provider
are out of sync).  The report is pure owner-side arithmetic — building it
sends nothing extra to the provider.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.exceptions import QueryError

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.query.planner import QueryPlan
    from repro.relational.table import Relation


@dataclass(frozen=True)
class LeafLeakage:
    """What the server observed for one token leaf.

    Attributes
    ----------
    index / attribute / values:
        The leaf identity; ``values`` is the owner-side plaintext annotation
        (never sent to the server).
    token_size:
        Number of ciphertexts in the search token (server-visible).
    matched_rows:
        Cardinality of the leaf's match bitset as reported by the server.
    matched_ciphertexts:
        How many distinct token ciphertexts actually occur in the column.
    frequency_anonymity:
        For each observed per-ciphertext frequency, the number of distinct
        ciphertexts in the *whole column* sharing that frequency (the
        adversary's candidate-set size when frequency-matching the access
        pattern).
    min_anonymity:
        The smallest of those candidate sets (``None`` when nothing matched).
    homogenised:
        True iff ``min_anonymity >= required_anonymity`` — the leaf's access
        pattern stayed frequency-homogenised.
    consistent:
        True iff the server-reported ``matched_rows`` equals the count
        recomputed on the owner's replica.
    """

    index: int
    attribute: str
    values: tuple[str, ...]
    token_size: int
    matched_rows: int
    matched_ciphertexts: int
    required_anonymity: int
    frequency_anonymity: dict[int, int] = field(default_factory=dict)
    min_anonymity: int | None = None
    homogenised: bool = True
    consistent: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "attribute": self.attribute,
            "values": list(self.values),
            "token_size": self.token_size,
            "matched_rows": self.matched_rows,
            "matched_ciphertexts": self.matched_ciphertexts,
            "required_anonymity": self.required_anonymity,
            "frequency_anonymity": dict(self.frequency_anonymity),
            "min_anonymity": self.min_anonymity,
            "homogenised": self.homogenised,
            "consistent": self.consistent,
        }


@dataclass(frozen=True)
class QueryLeakageReport:
    """The full leakage account of one served query."""

    mode: str
    server_rows: int
    matched_rows: int
    leaves: tuple[LeafLeakage, ...]
    required_anonymity: int

    @property
    def revealed_fraction(self) -> float:
        """Fraction of server rows in the final match set (0 for local plans)."""
        if self.server_rows == 0:
            return 0.0
        return self.matched_rows / self.server_rows

    @property
    def frequency_homogenised(self) -> bool:
        """True iff every leaf's access pattern stayed frequency-homogenised."""
        return all(leaf.homogenised for leaf in self.leaves)

    @property
    def consistent(self) -> bool:
        """True iff server-reported leaf counts match the owner's replica."""
        return all(leaf.consistent for leaf in self.leaves)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "server_rows": self.server_rows,
            "matched_rows": self.matched_rows,
            "revealed_fraction": round(self.revealed_fraction, 6),
            "required_anonymity": self.required_anonymity,
            "frequency_homogenised": self.frequency_homogenised,
            "consistent": self.consistent,
            "leaves": [leaf.to_dict() for leaf in self.leaves],
        }

    def summary(self) -> str:
        """A compact one-paragraph rendering (CLI output)."""
        lines = [
            f"leakage: mode={self.mode} server_rows={self.server_rows} "
            f"matched={self.matched_rows} "
            f"revealed={self.revealed_fraction:.3f} "
            f"homogenised={self.frequency_homogenised} "
            f"(anonymity >= {self.required_anonymity})"
        ]
        for leaf in self.leaves:
            lines.append(
                f"  leaf #{leaf.index} {leaf.attribute}: token={leaf.token_size}ct "
                f"matched_rows={leaf.matched_rows} "
                f"matched_ct={leaf.matched_ciphertexts} "
                f"min_anonymity={leaf.min_anonymity} "
                f"homogenised={leaf.homogenised}"
            )
        return "\n".join(lines)


def build_leakage_report(
    plan: "QueryPlan",
    replica: "Relation",
    row_indexes: Sequence[int],
    leaf_match_counts: Sequence[int],
    server_rows: int,
    alpha: float,
) -> QueryLeakageReport:
    """Account one served query's leakage against the owner's replica.

    Parameters
    ----------
    plan:
        The executed :class:`~repro.query.planner.QueryPlan`.
    replica:
        The owner's copy of the ciphertext relation the server filtered —
        byte-identical to what the provider stores, so per-ciphertext
        frequencies computed here are exactly what the provider can observe.
    row_indexes / leaf_match_counts / server_rows:
        The provider's reply (final match set, per-leaf cardinalities in
        leaf-index order, stored row count).
    alpha:
        The table's alpha-security threshold; the required anonymity is
        ``ceil(1/alpha)``.
    """
    required = max(1, math.ceil(1.0 / alpha))
    leaves = plan.leaves
    if plan.server is not None and len(leaf_match_counts) != len(leaves):
        raise QueryError(
            f"provider reported {len(leaf_match_counts)} leaf counts for a plan "
            f"with {len(leaves)} token leaves; owner and provider are out of sync"
        )
    leaf_reports: list[LeafLeakage] = []
    for leaf, reported in zip(leaves, leaf_match_counts):
        # Column statistics cached on the coded view: the code lookup, the
        # per-code counts, and the frequency histogram over the whole column
        # (how many distinct ciphertexts occur with each frequency — the
        # candidate-set sizes an access-pattern adversary works with).
        coded_column = replica.coded().column(leaf.attribute)
        code_of = coded_column.code_of()
        counts = coded_column.counts()
        anonymity = coded_column.count_histogram()
        observed: dict[int, int] = {}
        matched_ciphertexts = 0
        recomputed = 0
        for ciphertext in leaf.token:
            code = code_of.get(ciphertext)
            if code is None:
                continue
            frequency = counts[code]
            matched_ciphertexts += 1
            recomputed += frequency
            observed[frequency] = anonymity[frequency]
        min_anonymity = min(observed.values()) if observed else None
        leaf_reports.append(
            LeafLeakage(
                index=leaf.index,
                attribute=leaf.attribute,
                values=leaf.values,
                token_size=len(leaf.token),
                matched_rows=reported,
                matched_ciphertexts=matched_ciphertexts,
                required_anonymity=required,
                frequency_anonymity=observed,
                min_anonymity=min_anonymity,
                homogenised=min_anonymity is None or min_anonymity >= required,
                consistent=recomputed == reported,
            )
        )
    return QueryLeakageReport(
        mode=plan.mode,
        server_rows=server_rows,
        matched_rows=len(row_indexes),
        leaves=tuple(leaf_reports),
        required_anonymity=required,
    )
