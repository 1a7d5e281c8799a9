"""End-to-end tests of the encrypted query engine.

The acceptance property: for random relations and random boolean
predicates, the decrypted remote query result equals the plaintext
relational selection exactly — byte-identical across the python and numpy
backends — and the per-query leakage report confirms the server-side match
sets stayed frequency-homogenised.
"""

import random
from array import array

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import DataOwner, RemoteOwnerSession, ServiceProvider
from repro.backend import available_backends, get_backend
from repro.core.config import F2Config
from repro.exceptions import ProtocolError, QueryError
from repro.query import (
    And,
    Eq,
    In,
    Not,
    Or,
    collect_leaves,
    evaluate_predicate,
    execute_server_expr,
    parse_predicate,
)
from repro.query.server import ServerAnd, ServerNot, ServerOr, TokenLeaf
from repro.relational.table import Relation
from tests.conftest import make_random_table

BACKENDS = [
    name for name, installed in available_backends().items() if installed
]

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_owner(seed: int = 42, alpha: float = 0.25) -> DataOwner:
    return DataOwner.from_seed(seed, config=F2Config(alpha=alpha, seed=7))


# ----------------------------------------------------------------------
# Backend mask primitives
# ----------------------------------------------------------------------
class TestMaskPrimitives:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_membership_and_algebra(self, backend_name):
        backend = get_backend(backend_name)
        codes = backend.as_code_array([0, 1, 2, 0, 1, 2, 3])
        mask_a = backend.membership_mask(codes, [0, 3])
        mask_b = backend.membership_mask(codes, [1, 3])
        assert backend.mask_to_rows(mask_a) == [0, 3, 6]
        assert backend.mask_count(mask_a) == 3
        assert backend.mask_to_rows(backend.rows_and([mask_a, mask_b])) == [6]
        assert backend.mask_to_rows(backend.rows_or([mask_a, mask_b])) == [0, 1, 3, 4, 6]
        assert backend.mask_to_rows(backend.rows_not(mask_a, 7)) == [1, 2, 4, 5]

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_empty_wanted_and_empty_mask(self, backend_name):
        backend = get_backend(backend_name)
        codes = backend.as_code_array([0, 1, 2])
        mask = backend.membership_mask(codes, [])
        assert backend.mask_to_rows(mask) == []
        assert backend.mask_count(mask) == 0
        assert backend.mask_to_rows(backend.rows_not(mask, 3)) == [0, 1, 2]

    @pytest.mark.skipif("numpy" not in BACKENDS, reason="requires the [perf] extra")
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5), max_size=40),
        st.lists(st.integers(min_value=0, max_value=5), max_size=4),
        st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    )
    def test_backends_identical_on_random_algebra(self, codes, wanted_a, wanted_b):
        results = []
        for name in ("python", "numpy"):
            backend = get_backend(name)
            array = backend.as_code_array(codes)
            mask_a = backend.membership_mask(array, wanted_a)
            mask_b = backend.membership_mask(array, wanted_b)
            results.append(
                (
                    backend.mask_to_rows(mask_a),
                    backend.mask_count(mask_a),
                    backend.mask_to_rows(backend.rows_and([mask_a, mask_b])),
                    backend.mask_to_rows(backend.rows_or([mask_a, mask_b])),
                    backend.mask_to_rows(backend.rows_not(mask_b, len(codes))),
                )
            )
        assert results[0] == results[1]


    # The python primitives against a naive reference, on the code-array
    # shapes the stores hand them: plain lists (coded relations) and stdlib
    # arrays of every width (``from_code_bytes`` / ``concat_code_arrays``).
    # ``spread`` sets the match density (one wanted code matches about
    # 1/spread of the rows), so ``mask_to_rows`` runs both its sparse
    # ``str.find`` scan and its dense ``compress`` pass: near-empty masks
    # (spread 256), ~1/8 density (spread 8), near-full masks (spread 1, and
    # every ``rows_not`` of a sparse mask).
    @settings(max_examples=80, deadline=None)
    @given(
        container=st.sampled_from(["list", "B", "H", "I", "Q", "q"]),
        num_rows=st.sampled_from([0, 1, 63, 64, 65, 1000, 1001]),
        seed=st.integers(min_value=0, max_value=2**32),
        wanted=st.lists(st.integers(min_value=0, max_value=11), max_size=5),
        spread=st.sampled_from([1, 8, 64, 256]),
    )
    @example(container="list", num_rows=65, seed=0, wanted=[], spread=8)
    @example(container="B", num_rows=64, seed=0, wanted=[3, 3, 3], spread=8)
    @example(container="q", num_rows=1000, seed=0, wanted=[8, 9, 10, 11], spread=8)
    @example(container="list", num_rows=1001, seed=1, wanted=[3], spread=256)
    @example(container="I", num_rows=1001, seed=2, wanted=[3], spread=8)
    @example(container="H", num_rows=1000, seed=3, wanted=[0], spread=1)
    def test_python_primitives_match_naive_reference(
        self, container, num_rows, seed, wanted, spread
    ):
        backend = get_backend("python")
        rng = random.Random(seed)
        values = [rng.randrange(spread) for _ in range(num_rows)]
        codes = values if container == "list" else array(container, values)
        wanted_set = set(wanted)
        expected = [row for row, code in enumerate(codes) if code in wanted_set]

        # The original per-row shift loop: the mask must be the same int.
        loop_mask, bit = 0, 1
        for code in codes:
            if code in wanted_set:
                loop_mask |= bit
            bit <<= 1

        mask = backend.membership_mask(codes, wanted)
        assert mask == loop_mask
        assert backend.mask_to_rows(mask) == expected
        assert backend.mask_count(mask) == len(expected)
        # Complement and union both reach the last row, bit num_rows - 1.
        matched = set(expected)
        assert backend.mask_to_rows(backend.rows_not(mask, num_rows)) == [
            row for row in range(num_rows) if row not in matched
        ]
        if num_rows:
            top = 1 << (num_rows - 1)
            assert backend.mask_to_rows(backend.rows_or([mask, top])) == sorted(
                matched | {num_rows - 1}
            )

    def test_python_mask_to_rows_edges(self):
        backend = get_backend("python")
        # Either side of the dense threshold (more than 1 row in 8 set).
        for mask in (0b1 << 8, 0b11 << 7, (1 << 16) - 1, 1 << 16 | 1):
            assert backend.mask_to_rows(mask) == [
                row for row in range(mask.bit_length()) if mask >> row & 1
            ]
        assert backend.mask_to_rows(0) == []
        assert backend.mask_to_rows(1) == [0]
        assert backend.mask_to_rows(1 << 200) == [200]
        assert backend.mask_to_rows(backend.rows_not(0, 130)) == list(range(130))
        assert backend.mask_to_rows(backend.rows_or([1, 1 << 129])) == [0, 129]


# ----------------------------------------------------------------------
# Server-side execution over the coded relation
# ----------------------------------------------------------------------
class TestServerExecution:
    @pytest.fixture
    def coded(self):
        relation = Relation(
            ["A", "B"],
            [["a1", "b1"], ["a2", "b1"], ["a1", "b2"], ["a3", "b2"], ["a1", "b1"]],
        )
        return relation.coded()

    def leaf(self, coded, attribute, values, index=0):
        wanted = [v for v in coded.column(attribute).dictionary if v in values]
        return TokenLeaf(attribute=attribute, token=tuple(wanted), index=index)

    def test_leaf_and_combinators(self, coded):
        a1 = self.leaf(coded, "A", {"a1"}, 0)
        b1 = self.leaf(coded, "B", {"b1"}, 1)
        rows, counts = execute_server_expr(coded, ServerAnd((a1, b1)))
        assert rows == [0, 4]
        assert counts == [3, 3]
        rows, _ = execute_server_expr(coded, ServerOr((a1, b1)))
        assert rows == [0, 1, 2, 4]
        rows, _ = execute_server_expr(coded, ServerNot(a1))
        assert rows == [1, 3]

    def test_counts_in_leaf_index_order(self, coded):
        a1 = self.leaf(coded, "A", {"a1"}, 0)
        b2 = self.leaf(coded, "B", {"b2"}, 1)
        a3 = self.leaf(coded, "A", {"a3"}, 2)
        _, counts = execute_server_expr(coded, ServerOr((a1, ServerAnd((b2, a3)))))
        assert counts == [3, 2, 1]

    def test_duplicate_leaf_index_rejected(self, coded):
        a1 = self.leaf(coded, "A", {"a1"}, 0)
        with pytest.raises(QueryError):
            execute_server_expr(coded, ServerAnd((a1, a1)))

    @pytest.mark.skipif("numpy" not in BACKENDS, reason="requires the [perf] extra")
    def test_backends_identical_on_expression(self):
        relation = make_random_table(5, num_rows=40, num_attributes=3)
        per_backend = []
        for name in ("python", "numpy"):
            coded = relation.coded(name)
            x0 = coded.column("X0").dictionary[0]
            x1 = coded.column("X1").dictionary[0]
            expr = ServerOr(
                (
                    TokenLeaf(attribute="X0", token=(x0,), index=0),
                    ServerNot(TokenLeaf(attribute="X1", token=(x1,), index=1)),
                )
            )
            per_backend.append(execute_server_expr(coded, expr))
        assert per_backend[0] == per_backend[1]


# ----------------------------------------------------------------------
# Owner <-> provider end to end
# ----------------------------------------------------------------------
class TestSelectEndToEnd:
    @pytest.fixture
    def session(self, zipcode_table):
        owner = make_owner()
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        return session

    @pytest.mark.parametrize(
        "expression",
        [
            "City = Hoboken",
            "City = Atlantis",
            "Zipcode = '07030' and City = Hoboken",
            "Zipcode in (07030, 07310) or City = JerseyCity",
            "City = Hoboken and Side != N",
            "not (City = Hoboken or City = JerseyCity)",
            "Street = street-3",
            "City = Hoboken and Street = street-1",
            "Zipcode != '07030' and Side = N",
        ],
    )
    def test_select_equals_plaintext_selection(self, session, expression):
        got = session.select(expression)
        want = session.owner.select_plaintext_where(expression)
        assert list(got.rows()) == list(want.rows())

    def test_select_with_report_accounts_leakage(self, session):
        matches, report = session.select_with_report(
            "City = JerseyCity and Zipcode = '07302'"
        )
        assert report.mode == "server"
        assert report.matched_rows >= matches.num_rows  # scaling copies included
        assert report.server_rows == session.owner.encrypted.num_rows
        assert 0.0 < report.revealed_fraction <= 1.0
        assert report.frequency_homogenised
        assert report.consistent
        assert len(report.leaves) == 2
        for leaf in report.leaves:
            assert leaf.token_size > 0
            assert leaf.min_anonymity >= report.required_anonymity

    def test_local_plan_reports_zero_server_exposure(self, session):
        matches, report = session.select_with_report("Street = street-5")
        assert matches.num_rows == 1
        assert report.mode == "local"
        assert report.server_rows == 0 and report.matched_rows == 0
        assert report.leaves == ()
        assert report.revealed_fraction == 0.0
        assert report.frequency_homogenised

    def test_select_after_insert_sees_new_rows(self, session):
        session.insert_rows(
            [["07030", "Hoboken", "street-new-1", "N"],
             ["07302", "JerseyCity", "street-new-2", "S"]]
        )
        expression = "City = Hoboken or Zipcode = '07302'"
        got = session.select(expression)
        want = session.owner.select_plaintext_where(expression)
        assert list(got.rows()) == list(want.rows())

    def test_explain_without_server(self, zipcode_table):
        owner = make_owner()
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        owner.outsource(zipcode_table)  # owner state only; nothing shipped
        text = session.explain("City = Hoboken and Street = street-1")
        assert "mode: hybrid" in text

    def test_unknown_table_is_protocol_error(self, zipcode_table):
        owner = make_owner()
        owner.outsource(zipcode_table)
        provider = ServiceProvider()  # never received anything
        plan = owner.plan_query("City = Hoboken")
        with pytest.raises(ProtocolError):
            provider.client.plan_query("default", plan.server)

    def test_unknown_attribute_is_protocol_error(self, zipcode_table):
        owner = make_owner()
        owner.outsource(zipcode_table)
        provider = ServiceProvider()
        provider.receive(owner.server_view())
        leaf = TokenLeaf(attribute="Nope", token=(), index=0)
        with pytest.raises(ProtocolError):
            provider.answer_plan_query(leaf)

    def test_out_of_range_result_detected(self, session):
        owner = session.owner
        plan = owner.plan_query("City = Hoboken")
        with pytest.raises(QueryError):
            owner.decrypt_plan_result(plan, [10**6])

    def test_stale_provider_detected_not_silently_wrong(self, zipcode_table):
        # The owner inserts locally without pushing; the provider still
        # filters the old ciphertext.  Its reply carries the stored row
        # count, so the desync must raise instead of returning in-bounds
        # indexes of the wrong table as a silently short result.
        owner = make_owner()
        provider = ServiceProvider()
        session = RemoteOwnerSession(owner, provider.client)
        session.outsource(zipcode_table)
        owner.insert_rows([["07030", "Hoboken", "street-stale", "N"]])  # not pushed
        plan = owner.plan_query("City = Hoboken")
        result = provider.answer_plan_query(plan.server)
        with pytest.raises(QueryError, match="out of sync"):
            owner.decrypt_plan_result(plan, result)

    def test_socket_transport_end_to_end(self, zipcode_table):
        from repro.api.protocol import (
            ProtocolClient,
            ProtocolServer,
            SocketProtocolServer,
            SocketTransport,
        )

        with SocketProtocolServer(ProtocolServer()) as sock_server:
            sock_server.serve_in_background()
            owner = make_owner()
            session = RemoteOwnerSession(
                owner, ProtocolClient(SocketTransport(port=sock_server.port))
            )
            session.outsource(zipcode_table)
            expression = "City = Hoboken and (Zipcode = '07030' or Side = S)"
            got, report = session.select_with_report(expression)
            want = owner.select_plaintext_where(expression)
            assert list(got.rows()) == list(want.rows())
            assert report.frequency_homogenised and report.consistent
            session.close()


# ----------------------------------------------------------------------
# The acceptance property
# ----------------------------------------------------------------------
def predicate_strategy(table: Relation):
    """Random predicates over a table's attributes and (mostly) its values."""
    attributes = list(table.attributes)

    def values_for(attribute: str) -> list[str]:
        present = sorted({str(v) for v in table.column(attribute)})
        return present + ["absent-value"]

    leaf = st.one_of(
        st.sampled_from(attributes).flatmap(
            lambda attr: st.sampled_from(values_for(attr)).map(
                lambda value: Eq(attr, value)
            )
        ),
        st.sampled_from(attributes).flatmap(
            lambda attr: st.lists(
                st.sampled_from(values_for(attr)), min_size=1, max_size=3
            ).map(lambda vs: In(attr, tuple(vs)))
        ),
    )
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.builds(
                lambda cs: And(tuple(cs)), st.lists(children, min_size=2, max_size=3)
            ),
            st.builds(
                lambda cs: Or(tuple(cs)), st.lists(children, min_size=2, max_size=3)
            ),
            st.builds(Not, children),
        ),
        max_leaves=5,
    )


class TestSelectionProperty:
    @SLOW
    @given(data=st.data(), table_seed=st.integers(min_value=0, max_value=9))
    def test_remote_select_equals_selection_on_random_tables(self, data, table_seed):
        table = make_random_table(table_seed + 600, num_attributes=4)
        alpha = data.draw(st.sampled_from([0.5, 0.34]))
        owner = DataOwner.from_seed(
            table_seed, config=F2Config(alpha=alpha, seed=table_seed)
        )
        owner.outsource(table)
        view = owner.server_view()

        providers = []
        for backend_name in BACKENDS:
            provider = ServiceProvider(backend=backend_name)
            provider.receive(view)
            providers.append(provider)

        predicate = data.draw(predicate_strategy(table))
        expected_rows = evaluate_predicate(table, predicate)
        expected = table.select_rows(expected_rows)

        plan = owner.plan_query(predicate)
        per_backend = []
        for provider in providers:
            if plan.server is None:
                matches = owner.select_plaintext_where(predicate)
                report = owner.query_leakage_report(plan)
                result_key = None
            else:
                result = provider.answer_plan_query(plan.server)
                matches = owner.decrypt_plan_result(plan, result)
                report = owner.query_leakage_report(plan, result)
                result_key = (result.row_indexes, result.leaf_match_counts)
            # The decrypted remote result IS the plaintext selection.
            assert list(matches.rows()) == list(expected.rows()), str(predicate)
            # ... and the access pattern stayed frequency-homogenised.
            assert report.frequency_homogenised, report.to_dict()
            assert report.consistent, report.to_dict()
            per_backend.append((result_key, [tuple(map(str, r)) for r in matches.rows()]))

        # Byte-identical across backends: same server match sets, same
        # leaf cardinalities, same decrypted textual rows.
        assert all(entry == per_backend[0] for entry in per_backend[1:])
