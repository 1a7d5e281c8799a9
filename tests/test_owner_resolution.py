"""Owner-side query resolution: cost, cache lifetime and token identity.

``DataOwner.decrypt_plan_result`` promises O(matches + conflict-split
records) work per query, with the O(table) provenance index built once per
:class:`EncryptedTable`.  These tests pin that cost with a counting stand-in
for the provenance list, pin that no owner-side cache (provenance index,
token index, coded-column lookups) outlives the state it was built from, and
pin that the indexed token derivation returns exactly the tuple of the full
split-plan walk.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import DataOwner, RemoteOwnerSession, ServiceProvider
from repro.backend import available_backends
from repro.core.config import F2Config
from repro.datasets import generate_fd_table
from repro.query import And, Eq, In, Not, Or
from repro.relational.table import Relation
from tests.conftest import make_random_table

BACKENDS = [name for name, installed in available_backends().items() if installed]


class CountingProvenance(list):
    """A provenance list that counts full scans and per-row reads."""

    def __init__(self, rows):
        super().__init__(rows)
        self.scans = 0
        self.reads = 0

    def __iter__(self):
        self.scans += 1
        for row in super().__iter__():
            self.reads += 1
            yield row

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item


def _address_owner(rows: int = 600) -> tuple[DataOwner, ServiceProvider, Relation]:
    table = generate_fd_table(rows, num_zipcodes=60, num_extra_columns=1, seed=5)
    # One zipcode that occurs exactly once: the 1-match select below.
    table.append(["99999", "CityLone", "StateLone", "1 Lone Rd", "extra0_0"])
    owner = DataOwner.from_seed(3, config=F2Config(alpha=0.25, seed=3))
    owner.outsource(table)
    provider = ServiceProvider()
    provider.receive(owner.server_view())
    return owner, provider, table


def _row_groups(provenance) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for index, row in enumerate(provenance):
        if row.source_row is not None and not row.is_artificial:
            groups.setdefault(row.source_row, []).append(index)
    return groups


def _select(owner: DataOwner, provider: ServiceProvider, predicate):
    plan = owner.plan_query(predicate)
    result = provider.answer_plan_query(plan.server)
    return plan, result, owner.decrypt_plan_result(plan, result)


class TestResolutionCost:
    def test_provenance_index_built_once_over_many_selects(self):
        owner, provider, table = _address_owner()
        encrypted = owner.encrypted
        counting = CountingProvenance(encrypted.provenance)
        encrypted.provenance = counting
        zipcodes = sorted(set(table.column("Zipcode")))[:12]
        for value in zipcodes:
            _, _, got = _select(owner, provider, Eq("Zipcode", value))
            want = owner.select_plaintext_where(Eq("Zipcode", value))
            assert list(got.rows()) == list(want.rows())
        assert counting.scans == 1

    def test_point_select_reads_only_matches_and_split_records(self):
        owner, provider, _ = _address_owner()
        encrypted = owner.encrypted
        raw = list(encrypted.provenance)
        counting = CountingProvenance(raw)
        encrypted.provenance = counting
        # Warm-up: builds the index and the split set for {Zipcode}.
        _select(owner, provider, Eq("Zipcode", "07000"))
        counting.reads = 0

        _, result, got = _select(owner, provider, Eq("Zipcode", "99999"))

        assert got.num_rows == 1
        groups = _row_groups(raw)
        split = {
            source
            for source, rows in groups.items()
            if not any("Zipcode" in raw[row].authentic_attributes for row in rows)
        }
        decided = {
            raw[index].source_row
            for index in result.row_indexes
            if not raw[index].is_artificial and raw[index].source_row is not None
        }
        bound = len(result.row_indexes) + sum(
            len(groups[source]) for source in decided | split
        )
        assert counting.reads <= bound
        assert counting.reads < len(raw) // 10

    def test_split_sources_are_the_records_without_a_covering_row(
        self, paper_figure3_table
    ):
        owner = DataOwner.from_seed(42, config=F2Config(alpha=0.5, seed=7))
        encrypted = owner.outsource(paper_figure3_table)
        groups = _row_groups(encrypted.provenance)
        assert encrypted.original_row_groups() == {
            source: tuple(rows) for source, rows in groups.items()
        }
        for attributes in ({"A"}, {"B", "C"}, {"A", "B", "C"}):
            wanted = frozenset(attributes)
            expected = tuple(
                source
                for source in sorted(groups)
                if not any(
                    wanted <= encrypted.provenance[row].authentic_attributes
                    for row in groups[source]
                )
            )
            assert encrypted.split_sources(wanted) == expected
        # Conflict resolution spread some records over several rows.
        assert encrypted.split_sources(frozenset({"A", "B", "C"}))

    def test_index_is_not_part_of_equality_or_repr(self):
        owner, _, _ = _address_owner(120)
        encrypted = owner.encrypted
        before = repr(encrypted)
        twin = type(encrypted)(
            relation=encrypted.relation,
            provenance=encrypted.provenance,
            config=encrypted.config,
            stats=encrypted.stats,
            masses=encrypted.masses,
            ecg_summaries=encrypted.ecg_summaries,
            metadata=encrypted.metadata,
        )
        encrypted.original_row_groups()
        encrypted.split_sources(frozenset({"Zipcode"}))
        assert encrypted == twin
        assert repr(encrypted) == before

    def test_row_groups_are_read_only(self):
        owner, _, _ = _address_owner(120)
        groups = owner.encrypted.original_row_groups()
        with pytest.raises(TypeError):
            groups[0] = (1,)  # type: ignore[index]


# ----------------------------------------------------------------------
# No cache outlives the owner state it was built from
# ----------------------------------------------------------------------
PREDICATES = [
    Eq("City", "Hoboken"),
    Eq("Zipcode", "07302"),
    In("Zipcode", ("07030", "07310", "07999")),
    And((Eq("City", "JerseyCity"), Eq("Side", "N"))),
    Or((Eq("Zipcode", "07030"), Eq("City", "Newark"))),
    And((Eq("City", "Hoboken"), Not(Eq("Side", "S")))),
]
POINT_QUERIES = [("City", "Hoboken"), ("Zipcode", "07302"), ("City", "Newark")]


def _assert_matches_oracle(session: RemoteOwnerSession) -> None:
    owner = session.owner
    for predicate in PREDICATES:
        got = session.select(predicate)
        assert list(got.rows()) == list(owner.select_plaintext_where(predicate).rows()), (
            str(predicate)
        )
    for attribute, value in POINT_QUERIES:
        got = session.query(attribute, value)
        assert list(got.rows()) == list(owner.select_plaintext(attribute, value).rows())


@pytest.mark.parametrize("backend", BACKENDS)
def test_interleaved_inserts_and_selects_track_the_oracle(backend, zipcode_table):
    owner = DataOwner.from_seed(42, config=F2Config(alpha=0.25, seed=7, backend=backend))
    session = RemoteOwnerSession(owner, ServiceProvider(backend=backend).client)
    session.outsource(zipcode_table)
    _assert_matches_oracle(session)
    batches = [
        # Existing zipcode/city pairs with fresh streets: incremental.
        [["07030", "Hoboken", "street-a1", "N"], ["07302", "JerseyCity", "street-a2", "S"]],
        # A new zipcode and city: fresh classes, still incremental.
        [["07101", "Newark", "street-b1", "N"], ["07101", "Newark", "street-b2", "S"]],
        # A full duplicate of an existing record: Street is no longer
        # unique, the MAS structure changes and the owner re-runs F2.
        [list(zipcode_table.row(0))],
        [["07310", "JerseyCity", "street-c1", "S"]],
    ]
    modes = []
    for batch in batches:
        before = owner.encrypted
        session.insert_rows(batch)
        assert owner.encrypted is not before
        modes.append(owner.last_update_report.mode)
        _assert_matches_oracle(session)
    assert "full" in modes and "incremental" in modes


# ----------------------------------------------------------------------
# Indexed token derivation == the full split-plan walk, byte for byte
# ----------------------------------------------------------------------
def reference_token(owner: DataOwner, attribute: str, value) -> tuple:
    """The token as the walk over every member plan of every MAS builds it."""
    text = value if isinstance(value, str) else str(value)
    encrypt = owner.pipeline.cipher.encrypt
    token: dict = {}
    for plan in owner._context.mas_plans:
        if attribute not in plan.attributes:
            continue
        position = plan.attributes.index(attribute)
        for ecg_plan in plan.ecg_plans:
            for member_plan in ecg_plan.member_plans:
                member = member_plan.member
                if member.is_fake:
                    continue
                if str(member.representative[position]) != text:
                    continue
                for instance in member_plan.instances:
                    token[encrypt(member.representative[position], instance.variant)] = None
    return tuple(token)


def _assert_tokens_identical(owner: DataOwner, table: Relation) -> None:
    for attribute in sorted(owner.queryable_attributes()):
        values = sorted(set(table.column(attribute)), key=str) + ["absent-value"]
        for value in values:
            token = owner.derive_search_token(attribute, value)
            assert token == reference_token(owner, attribute, value)
            assert [c.to_bytes() for c in token] == [
                c.to_bytes() for c in reference_token(owner, attribute, value)
            ]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    table_seed=st.integers(min_value=0, max_value=10_000),
    num_attributes=st.integers(min_value=2, max_value=5),
    alpha=st.sampled_from([0.5, 0.34, 0.25]),
)
def test_token_equals_full_plan_walk(table_seed, num_attributes, alpha):
    table = make_random_table(table_seed, num_attributes=num_attributes)
    owner = DataOwner.from_seed(table_seed, config=F2Config(alpha=alpha, seed=table_seed))
    owner.outsource(table)
    _assert_tokens_identical(owner, table)
    # After an insert the index must follow the new plans.
    owner.insert_rows([list(table.row(0)), list(table.row(table.num_rows - 1))])
    _assert_tokens_identical(owner, owner.plaintext)
