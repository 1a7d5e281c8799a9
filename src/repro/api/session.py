"""The two-party protocol surface: :class:`DataOwner` and :class:`ServiceProvider`.

The paper's workflow (Section 1, Figure 2) is a protocol between two
parties, not a function call:

1. the **data owner** encrypts her relation with F2 and ships only the
   ciphertext relation (the *server view*) to the provider,
2. the **service provider** runs FD discovery (TANE) on the ciphertext and
   returns the dependencies it found,
3. the owner validates the returned dependencies against her plaintext and
   decrypts locally whenever she needs her records back.

These session objects model exactly that: the owner retains the key, the
plaintext, and the pipeline context (plans + fresh-value factory) as local
state, which is also what makes *incremental* updates possible —
:meth:`DataOwner.insert_rows` appends a batch to the outsourced relation by
reusing the retained plans (see :mod:`repro.api.incremental`).

::

    owner = DataOwner(key=KeyGen.symmetric_from_seed(1))
    provider = ServiceProvider()
    encrypted = owner.outsource(relation)
    provider.receive(encrypted.server_view())
    discovery = provider.discover_fds()
    assert owner.validate_fds(discovery.fds)
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping, Sequence

from repro.api.auth import Credential, ErrorCode
from repro.api.delta import ViewDelta, compute_view_delta
from repro.api.incremental import IncrementalReport, insert_rows as _insert_rows
from repro.api.pipeline import EncryptionContext, EncryptionPipeline, StageHook
from repro.api.protocol import (
    DEFAULT_TABLE_ID,
    LoopbackTransport,
    PlanQueryResult,
    ProtocolClient,
    ProtocolServer,
)
from repro.core.config import F2Config
from repro.core.encrypted import EncryptedTable
from repro.core.security import SecurityReport, verify_alpha_security
from repro.crypto.keys import KeyGen, SymmetricKey
from repro.crypto.probabilistic import Ciphertext, ProbabilisticCipher
from repro.exceptions import (
    DecryptionError,
    EncryptionError,
    IntegrityError,
    ProtocolError,
    QueryError,
)
from repro.integrity.state import TableIntegrityState
from repro.integrity.writers import WriteCoordinator
from repro.fd.fd import FDSet
from repro.fd.tane import TaneResult, tane
from repro.query.ast import Eq, Predicate, check_attributes, evaluate_predicate
from repro.query.leakage import QueryLeakageReport, build_leakage_report
from repro.query.parser import parse_predicate
from repro.query.planner import QueryPlan, plan_predicate
from repro.query.server import ServerExpr
from repro.relational.table import Relation


# ----------------------------------------------------------------------
# Decryption helpers (the inverse of materialisation; shared with the
# legacy F2Scheme facade)
# ----------------------------------------------------------------------
def decrypt_cell(cell: object, cipher: ProbabilisticCipher) -> str:
    """Decrypt a single authentic ciphertext cell."""
    if not isinstance(cell, Ciphertext):
        raise DecryptionError(f"cell is not a ciphertext: {cell!r}")
    return cipher.decrypt(cell)


def _reassemble_records(
    encrypted: EncryptedTable, sources: Iterable[int], cipher: ProbabilisticCipher
) -> list[list[str]]:
    """Reassemble original records, as rows in schema order.

    A record replaced by conflict resolution is spread over several
    ciphertext rows; each contributes the attributes it carries
    authentically.  All the cells are collected first and decrypted as one
    batch (one PRF key schedule, one XOR over the concatenated pads) — the
    inverse of the batched materialiser.
    """
    relation = encrypted.relation
    provenance = encrypted.provenance
    groups = encrypted.original_row_groups()
    attributes = relation.attributes
    columns = {attr: relation.column(attr) for attr in attributes}
    jobs: list[Ciphertext] = []
    record_slots: list[dict[str, int]] = []
    for source in sources:
        slots: dict[str, int] = {}
        for row_index in groups[source]:
            for attr in provenance[row_index].authentic_attributes:
                if attr in slots:
                    continue
                cell = columns[attr][row_index]
                if not isinstance(cell, Ciphertext):
                    raise DecryptionError(f"cell is not a ciphertext: {cell!r}")
                slots[attr] = len(jobs)
                jobs.append(cell)
        missing = [attr for attr in attributes if attr not in slots]
        if missing:
            raise DecryptionError(
                f"original row {source} cannot be reconstructed; "
                f"missing attributes {missing}"
            )
        record_slots.append(slots)
    texts = cipher.decrypt_batch(jobs) if jobs else []
    return [[texts[slots[attr]] for attr in attributes] for slots in record_slots]


def decrypt_table(encrypted: EncryptedTable, cipher: ProbabilisticCipher) -> Relation:
    """Reconstruct the original plaintext relation from an F2 output.

    Artificial rows are dropped; original records are reassembled from the
    authentic cells of the rows derived from them, in one decryption batch.
    """
    groups = encrypted.original_row_groups()
    if not groups:
        raise DecryptionError("the encrypted table contains no original rows")
    return Relation(
        encrypted.relation.schema,
        _reassemble_records(encrypted, sorted(groups), cipher),
        name=f"{encrypted.relation.name}-decrypted",
    )


#: ``str(value) -> [(representative value, variant), ...]`` on one attribute.
_TokenSources = dict[str, list[tuple[Any, str]]]


class DataOwner:
    """The owner side of the outsourcing protocol.

    Holds the symmetric key, the configuration, and — once a relation has
    been outsourced — the plaintext and the pipeline context needed to
    decrypt, audit, and incrementally extend the encrypted table.

    Parameters
    ----------
    key:
        The owner's symmetric key (``None`` generates a fresh random key).
    config:
        The :class:`F2Config`; defaults are the paper's common setting.
    hooks:
        Optional extra :class:`StageHook` instances attached to every
        pipeline run (e.g. a :class:`repro.api.pipeline.StageRecorder`).
    """

    def __init__(
        self,
        key: SymmetricKey | None = None,
        config: F2Config | None = None,
        hooks: list[StageHook] | None = None,
    ):
        self.pipeline = EncryptionPipeline(key=key, config=config, hooks=hooks)
        self._context: EncryptionContext | None = None
        self._encrypted: EncryptedTable | None = None
        self._last_report: IncrementalReport | None = None
        # (context, table, attribute -> token sources); see _token_sources.
        self._token_index: tuple[object, object, dict[str, _TokenSources]] | None = None

    # ------------------------------------------------------------------
    # Key material / configuration
    # ------------------------------------------------------------------
    @property
    def key(self) -> SymmetricKey:
        return self.pipeline.key

    @property
    def config(self) -> F2Config:
        return self.pipeline.config

    @classmethod
    def from_seed(cls, seed: int, config: F2Config | None = None, **kwargs) -> "DataOwner":
        """An owner with a key derived from ``seed`` (reproducible runs)."""
        return cls(key=KeyGen.symmetric_from_seed(seed), config=config, **kwargs)

    # ------------------------------------------------------------------
    # Outsourcing
    # ------------------------------------------------------------------
    def outsource(self, relation: Relation) -> EncryptedTable:
        """Encrypt ``relation`` and retain the owner-side state.

        Returns the full :class:`EncryptedTable`; ship only
        ``table.server_view()`` to the provider.
        """
        ctx = self.pipeline.new_context(relation.copy())
        encrypted = self.pipeline.execute(ctx)
        self._context = ctx
        self._encrypted = encrypted
        self._last_report = None
        return encrypted

    # Alias kept for symmetry with the legacy facade vocabulary.
    encrypt = outsource

    def insert_rows(
        self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
    ) -> EncryptedTable:
        """Append a batch of plaintext rows to the outsourced relation.

        Re-encrypts incrementally by reusing the retained ECG plans and
        re-running split-and-scale only where equivalence-class frequencies
        changed; falls back to a full run when the batch changes the MAS
        structure.  The per-call report is available as
        :attr:`last_update_report` and in ``table.metadata['update']``.
        """
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        ctx, encrypted, report = _insert_rows(self.pipeline, self._context, list(rows))
        self._context = ctx
        self._encrypted = encrypted
        self._last_report = report
        return encrypted

    @property
    def last_update_report(self) -> IncrementalReport | None:
        """The report of the most recent :meth:`insert_rows` call, if any."""
        return self._last_report

    # ------------------------------------------------------------------
    # Owner-side state
    # ------------------------------------------------------------------
    @property
    def encrypted(self) -> EncryptedTable:
        if self._encrypted is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        return self._encrypted

    @property
    def plaintext(self) -> Relation:
        """The owner's current plaintext (original rows plus inserted batches)."""
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        return self._context.relation

    def server_view(self) -> Relation:
        """The ciphertext relation to ship to the provider."""
        return self.encrypted.server_view()

    # ------------------------------------------------------------------
    # Validation / audit / decryption
    # ------------------------------------------------------------------
    def expected_fds(self, max_lhs_size: int | None = None) -> FDSet:
        """The FDs of the owner's plaintext (what the provider should find)."""
        return tane(self.plaintext, max_lhs_size=max_lhs_size, backend=self.config.backend)

    def validate_fds(self, fds: FDSet, max_lhs_size: int | None = None) -> bool:
        """True iff the provider's dependencies match the plaintext's exactly."""
        return self.expected_fds(max_lhs_size=max_lhs_size).equivalent_to(fds)

    def audit_security(self, alpha: float | None = None) -> SecurityReport:
        """Structural alpha-security check of the current encrypted table."""
        return verify_alpha_security(self.encrypted, alpha=alpha)

    def decrypt(self, encrypted: EncryptedTable | None = None) -> Relation:
        """Decrypt ``encrypted`` (default: the owner's current table)."""
        return decrypt_table(encrypted or self.encrypted, self.pipeline.cipher)

    def decrypt_cell(self, cell: object) -> str:
        """Decrypt a single authentic ciphertext cell."""
        return decrypt_cell(cell, self.pipeline.cipher)

    # ------------------------------------------------------------------
    # Token-based equality queries
    # ------------------------------------------------------------------
    def queryable_attributes(self) -> frozenset[str]:
        """Attributes whose equality queries the provider can serve.

        These are the attributes covered by at least one MAS: their
        authentic cells are *instance* ciphertexts whose variants live in
        the owner's retained split plans, so the owner can re-derive every
        ciphertext a value materialised to.  Attributes outside every MAS
        carry only unique values encrypted with fresh random nonces — the
        owner cannot re-derive those, so the planner keeps predicates on
        them in the owner-local residual instead.
        """
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        return frozenset(
            attr for plan in self._context.mas_plans for attr in plan.attributes
        )

    def derive_search_token(self, attribute: str, value: Any) -> tuple[Ciphertext, ...]:
        """The full set of instance ciphertexts for ``value`` on ``attribute``.

        Every ciphertext instance of an equivalence class whose
        representative carries ``value`` on ``attribute`` contributes one
        deterministic re-encryption ``Encrypt(value, variant)``, in the walk
        order of the retained split plans (read from a per-attribute index
        of those plans and encrypted in one ``encrypt_batch`` call, so a
        token costs O(its size)).  The resulting tuple is the search token
        of the standard searchable-encryption interaction — the keyless
        provider can filter rows against it but learns nothing about the
        plaintext beyond the (frequency-homogenised) matches.

        An empty token is legal (the value does not occur); a
        :class:`~repro.exceptions.QueryError` means the attribute's
        ciphertexts are not derivable at all (outside every MAS).
        """
        if self._context is None:
            raise EncryptionError("no outsourced table; call outsource() first")
        if attribute not in self.plaintext.schema:
            raise QueryError(f"unknown attribute {attribute!r}")
        if attribute not in self.queryable_attributes():
            raise QueryError(
                f"attribute {attribute!r} lies outside every MAS; its ciphertexts "
                "are fresh-nonce encryptions the owner cannot re-derive — the "
                "planner keeps predicates on it owner-local (see plan_query())"
            )
        text = value if isinstance(value, str) else str(value)
        sources = self._token_sources(attribute).get(text)
        if not sources:
            return ()
        # One batched pass, byte-identical to per-source encrypt() calls;
        # dict.fromkeys keeps the first occurrence of each ciphertext.
        return tuple(dict.fromkeys(self.pipeline.cipher.encrypt_batch(sources)))

    def _token_sources(self, attribute: str) -> _TokenSources:
        """``str(value) -> [(representative value, variant), ...]`` on
        ``attribute``, in split-plan walk order (built once per owner state).

        The walk visits every member plan of every MAS covering the
        attribute; the index makes a token O(its size) instead.  It is keyed
        on the current context/table pair, which every outsource and insert
        replaces, so it never outlives the plans it was built from.
        """
        context, encrypted = self._context, self._encrypted
        assert context is not None  # checked by derive_search_token
        cached = self._token_index
        if cached is None or cached[0] is not context or cached[1] is not encrypted:
            cached = self._token_index = (context, encrypted, {})
        by_attribute = cached[2]
        index = by_attribute.get(attribute)
        if index is None:
            # Published only once complete: a concurrent caller either sees
            # no entry (and builds its own) or the whole map.
            index = {}
            for plan in context.mas_plans:
                if attribute not in plan.attributes:
                    continue
                position = plan.attributes.index(attribute)
                for ecg_plan in plan.ecg_plans:
                    for member_plan in ecg_plan.member_plans:
                        member = member_plan.member
                        if member.is_fake:
                            continue
                        plain = member.representative[position]
                        index.setdefault(str(plain), []).extend(
                            (plain, instance.variant) for instance in member_plan.instances
                        )
            by_attribute[attribute] = index
        return index

    def select_plaintext(self, attribute: str, value: Any) -> Relation:
        """The plaintext equality selection ``sigma_{attribute=value}``.

        An oracle computed straight from the owner's plaintext, independent
        of the planner and the provider: the ground truth a served
        ``select``/``query`` must reproduce.
        """
        plaintext = self.plaintext
        if attribute not in plaintext.schema:
            raise QueryError(f"unknown attribute {attribute!r}")
        text = value if isinstance(value, str) else str(value)
        matches = [
            index
            for index, cell in enumerate(plaintext.column(attribute))
            if (cell if isinstance(cell, str) else str(cell)) == text
        ]
        return plaintext.select_rows(matches, name=f"{plaintext.name}-select")

    # ------------------------------------------------------------------
    # Planned boolean-predicate queries (the repro.query engine)
    # ------------------------------------------------------------------
    def _as_predicate(self, predicate: Predicate | str) -> Predicate:
        if isinstance(predicate, str):
            predicate = parse_predicate(predicate)
        if not isinstance(predicate, Predicate):
            raise QueryError(
                f"expected a Predicate or an expression string, got {predicate!r}"
            )
        check_attributes(predicate, self.plaintext.schema)
        return predicate

    def plan_query(self, predicate: Predicate | str) -> QueryPlan:
        """Plan a boolean selection (an AST node or an expression string).

        Splits the predicate into the server-evaluable part (token leaves
        over MAS-covered attributes, derived from the retained split plans)
        and the owner-local residual — see :mod:`repro.query.planner`.
        """
        return plan_predicate(self, self._as_predicate(predicate))

    def select_plaintext_where(self, predicate: Predicate | str) -> Relation:
        """The plaintext selection ``sigma_predicate`` — the ground truth."""
        predicate = self._as_predicate(predicate)
        plaintext = self.plaintext
        rows = evaluate_predicate(plaintext, predicate)
        return plaintext.select_rows(rows, name=f"{plaintext.name}-select")

    def decrypt_plan_result(
        self, plan: QueryPlan, result: PlanQueryResult | Sequence[int]
    ) -> Relation:
        """Resolve a provider's plan-query result into the exact selection.

        The server's bitset runs over *ciphertext rows*; the owner's retained
        provenance turns it into the plaintext selection:

        * artificial rows (scaling copies, fake ECs, FP records) never map to
          a source record and drop out;
        * a source record counts as a server match iff one of its ciphertext
          rows that carries **all** the server-predicate attributes
          authentically is in the match set — on such a row every token
          leaf's truth value equals the plaintext leaf's, so the boolean
          combination is equal too;
        * a conflicted record whose predicate attributes ended up spread
          over multiple ciphertext rows (no single row carries them all
          authentically) cannot be judged from the bitset at all — its
          server part is re-evaluated locally on the decrypted record;
        * the owner-local residual then filters the candidates.

        The decrypted result therefore equals ``select_plaintext_where``
        exactly, in original row order.

        Cost: O(matches + conflict-split records) provenance reads and cell
        decryptions (one batch) per query.  The O(table) provenance index
        is built once per :class:`EncryptedTable`, by its first query, and
        the split records once per server-attribute set.
        """
        if isinstance(result, PlanQueryResult):
            row_indexes: Sequence[int] = result.row_indexes
            server_rows: int | None = result.num_rows
        else:
            row_indexes, server_rows = tuple(result), None
        if plan.server is None:
            # Nothing was (or could be) asked of the server.
            return self.select_plaintext_where(plan.predicate)
        encrypted = self.encrypted
        provenance = encrypted.provenance
        if server_rows is not None and server_rows != len(provenance):
            # A stale store (e.g. local inserts never pushed) would return
            # in-bounds indexes of the wrong ciphertext — silently wrong
            # results.  The reply's row count makes the desync detectable.
            raise QueryError(
                f"provider filtered {server_rows} rows but the owner's "
                f"outsourced table has {len(provenance)}; owner and provider "
                "are out of sync (push the current server view first)"
            )
        server_attrs = plan.server_attributes
        server_predicate = plan.server_predicate
        assert server_predicate is not None  # plan.server is not None here
        # Only matched rows are visited: a source record is a server match
        # iff a matched row carries every server attribute authentically.
        decided: set[int] = set()
        for index in row_indexes:
            if not 0 <= index < len(provenance):
                raise QueryError(
                    f"plan query result row {index} is outside the outsourced "
                    f"table (0..{len(provenance) - 1}); owner and provider are "
                    "out of sync"
                )
            row = provenance[index]
            if (
                row.source_row is not None
                and not row.is_artificial
                and server_attrs <= row.authentic_attributes
            ):
                decided.add(row.source_row)
        # Conflict-split records cannot be judged from the bitset; they are
        # decrypted with the candidates and their server part re-evaluated.
        split = encrypted.split_sources(server_attrs)
        sources = sorted(decided.union(split))
        records = _reassemble_records(encrypted, sources, self.pipeline.cipher)
        attributes = encrypted.relation.attributes
        recovered = Relation(
            encrypted.relation.schema, name=f"{encrypted.relation.name}-query"
        )
        for source, values in zip(sources, records):
            if source not in decided or plan.residual is not None:
                record = dict(zip(attributes, values))
                if source not in decided and not server_predicate.matches(record):
                    continue
                if plan.residual is not None and not plan.residual.matches(record):
                    continue
            recovered.append(values)
        return recovered

    def query_leakage_report(
        self, plan: QueryPlan, result: PlanQueryResult | None = None
    ) -> QueryLeakageReport:
        """Account what serving ``plan`` showed the provider.

        Computed entirely owner-side against her replica of the server view
        (byte-identical to the provider's store) — see
        :mod:`repro.query.leakage`.  For a fully local plan (``result`` is
        ``None``) the report records that the server saw nothing.
        """
        replica = self.encrypted.relation
        if result is None:
            if plan.server is not None:
                raise QueryError(
                    "a plan with a server part needs the provider's "
                    "PlanQueryResult to account its leakage"
                )
            return build_leakage_report(plan, replica, (), (), 0, self.config.alpha)
        return build_leakage_report(
            plan,
            replica,
            result.row_indexes,
            result.leaf_match_counts,
            result.num_rows,
            self.config.alpha,
        )


class ServiceProvider:
    """The untrusted server side of the outsourcing protocol.

    Only ever sees ciphertext relations; offers FD discovery and token-based
    plan queries (equality included) as its services.  Since the protocol redesign this is a
    thin facade over a :class:`repro.api.protocol.ProtocolServer` driven
    through a :class:`~repro.api.protocol.LoopbackTransport` — every call
    round-trips through the full wire codec, so in-process sessions exercise
    exactly the bytes a remote deployment would carry, and the results are
    byte-identical to the pre-protocol implementation.

    Parameters
    ----------
    name:
        Display name used in error messages.
    backend:
        Compute backend for FD discovery and query filtering (``"python"``,
        ``"numpy"``, or ``None`` for the environment default) — the provider
        is the party with the big hardware, so it benefits most from the
        ``[perf]`` extra.
    storage_dir:
        Optional snapshot directory handed to the underlying server; when
        set, received stores persist to disk and are reloaded when a new
        provider is constructed over the same directory.
    wire_format:
        Wire form used on the loopback transport (``"binary"`` default,
        ``"json"`` to debug payloads).
    storage_engine:
        Storage engine of the underlying server: ``"snapshot"`` (default,
        in-memory tables + whole-file ``.f2t`` snapshots) or ``"segment"``
        (on-disk columnar segment stores; needs ``storage_dir``).
    """

    def __init__(
        self,
        name: str = "service-provider",
        backend: str | None = None,
        storage_dir: str | None = None,
        wire_format: str = "binary",
        table_id: str = DEFAULT_TABLE_ID,
        storage_engine: str = "snapshot",
    ):
        self.name = name
        self.backend = backend
        self.table_id = table_id
        self.server = ProtocolServer(
            name=name,
            backend=backend,
            storage_dir=storage_dir,
            storage_engine=storage_engine,
        )
        self.client = ProtocolClient(LoopbackTransport(self.server), wire_format=wire_format)

    def receive(self, relation: Relation) -> int:
        """Accept an outsourced (ciphertext) relation; returns its row count.

        Each call replaces the previously received table — the owner ships a
        fresh server view after every (batch of) update(s) — and discards
        any cached discovery result, which described the old ciphertext.
        """
        return self.client.outsource(self.table_id, relation)

    def _require_table(self) -> None:
        if not self.server.has_table(self.table_id):
            raise EncryptionError(f"{self.name} has not received a table yet")

    @property
    def table(self) -> Relation:
        self._require_table()
        return self.server.store(self.table_id)

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    def discover_fds(self, max_lhs_size: int | None = None) -> TaneResult:
        """Run TANE on the received ciphertext and return FDs plus counters."""
        self._require_table()
        return self.client.discover(self.table_id, max_lhs_size=max_lhs_size)

    def answer_plan_query(self, expr: ServerExpr) -> PlanQueryResult:
        """Execute a server expression as bitset algebra over the stored rows."""
        self._require_table()
        return self.client.plan_query(self.table_id, expr)

    @property
    def last_discovery(self) -> TaneResult | None:
        """The latest discovery for the current table (``None`` after receive)."""
        return self.server.last_discovery(self.table_id)


def run_protocol(
    owner: DataOwner,
    provider: ServiceProvider,
    relation: Relation,
    max_lhs_size: int | None = None,
) -> TaneResult:
    """Drive one full outsourcing round trip and return the discovery result.

    Convenience for examples and tests: the owner outsources ``relation``,
    the provider discovers FDs on the server view, and the owner's validation
    result is attached to ``result.parameters['validated']``.
    """
    owner.outsource(relation)
    provider.receive(owner.server_view())
    result = provider.discover_fds(max_lhs_size=max_lhs_size)
    result.parameters["validated"] = owner.validate_fds(result.fds, max_lhs_size=max_lhs_size)
    return result


class RemoteOwnerSession:
    """A :class:`DataOwner` driving a provider through a protocol client.

    This is the remote counterpart of handing ``owner.server_view()`` to an
    in-process :class:`ServiceProvider`: the same owner-side state (key,
    plaintext, retained plans), but every interaction becomes a protocol
    message over the client's transport — loopback, TCP socket, or anything
    else with a ``request(bytes) -> bytes`` method.

    Authenticated deployments pass a :class:`~repro.api.auth.Credential` (or
    its ``f2tok1.`` token string): the session runs the handshake up front
    and every message travels as a signed frame under the credential's
    tenant namespace and capability.  An ``owner`` credential is required
    for outsourcing and inserts; a read-only ``analyst`` credential still
    serves ``discover_fds``/``select``/``query`` (the server rejects
    anything else with ``FORBIDDEN``).

    Incremental inserts ship as view *deltas* whenever they can: the session
    retains the last server view it pushed, aligns the new view against it
    (cheap — the materialiser's nonce retention keeps untouched rows
    byte-identical), and sends an ``InsertDelta`` carrying only the changed
    rows.  A MAS-change fallback, a poor alignment, or a server-side base
    mismatch silently degrades to the full ``InsertBatch`` path.

    ``verify=True`` (or the ``REPRO_VERIFY`` environment variable) turns on
    owner-side integrity verification: the session mirrors the server's
    Merkle tree in a :class:`~repro.integrity.state.TableIntegrityState`,
    every write is CAS-armed with the last acknowledged commit version, and
    every query reply is checked — root agreement, ``(version, root)``
    freshness, and one Merkle multiproof covering every matched row —
    before decryption.
    Passing a shared :class:`~repro.integrity.writers.WriteCoordinator`
    additionally lets several sessions (each with its own client/thread)
    write one table concurrently through optimistic CAS with rebase.

    ::

        owner = DataOwner.from_seed(42)
        client = ProtocolClient(SocketTransport("127.0.0.1", port))
        session = RemoteOwnerSession(owner, client, table_id="orders",
                                     credential="f2tok1.acme.owner.k0001.9f...")
        session.outsource(relation)
        discovery = session.discover_fds()       # validated against plaintext
        matches = session.query("City", "Hoboken")  # decrypted Relation
    """

    #: Ship a delta only when it reuses at least this share of the new view;
    #: below that a full ``InsertBatch`` is smaller or comparable on the wire.
    MIN_DELTA_REUSE = 0.5

    def __init__(
        self,
        owner: DataOwner,
        client: ProtocolClient,
        table_id: str = DEFAULT_TABLE_ID,
        credential: "Credential | str | None" = None,
        delta_updates: bool = True,
        verify: "bool | None" = None,
        coordinator: "WriteCoordinator | None" = None,
    ):
        self.owner = owner
        self.client = client
        self.table_id = table_id
        self.delta_updates = delta_updates
        if verify is None:
            verify = os.environ.get("REPRO_VERIFY", "").lower() not in ("", "0", "false", "no")
        #: When set, every write asks the ack for the server's Merkle root,
        #: every query carries ``with_root`` (plans also request inclusion
        #: proofs), and replies are checked against :attr:`integrity` before
        #: any decryption — tampering, rollback, or a forked table raises
        #: :class:`~repro.exceptions.IntegrityError`.
        self.verify = bool(verify)
        #: Shared multi-writer coordinator; when present, inserts go through
        #: the optimistic CAS/rebase loop instead of the single-writer path.
        self.coordinator = coordinator
        if coordinator is not None:
            if self.verify and coordinator.integrity is None:
                coordinator.integrity = TableIntegrityState(table_id)
            self.integrity: "TableIntegrityState | None" = coordinator.integrity
        else:
            self.integrity = TableIntegrityState(table_id) if self.verify else None
        #: The server view this session last shipped (the delta base).
        self._last_view: Relation | None = None
        #: The server commit version of the last acknowledged push; armed as
        #: the CAS base of the next ``InsertDelta``.
        self._last_version = -1
        #: The :class:`~repro.api.delta.ViewDelta` of the most recent
        #: delta-shipped insert (``None`` when the full view was sent).
        self.last_delta: ViewDelta | None = None
        if credential is not None:
            self.client.authenticate(credential)

    def _ack_state(self) -> tuple[int, str]:
        """``(commit version, merkle root)`` of the client's last ack."""
        ack = self.client.last_ack
        if ack is None:
            return -1, ""
        return int(ack.fields.get("version", -1)), str(ack.fields.get("merkle_root", ""))

    def outsource(self, relation: Relation) -> int:
        """Encrypt locally and ship the server view; returns stored rows."""
        encrypted = self.owner.outsource(relation)
        view = encrypted.server_view()
        count = self.client.outsource(self.table_id, view, with_root=self.verify)
        version, root = self._ack_state()
        self._last_view = view
        self._last_version = version
        self.last_delta = None
        if self.coordinator is not None:
            self.coordinator.record_push(view, version, root)
        elif self.integrity is not None:
            self.integrity.record_push(view, version, root)
        return count

    def insert_rows(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Incrementally insert locally, then update the remote view.

        Ships an ``InsertDelta`` when the local update ran incrementally and
        the alignment against the last pushed view reuses enough rows;
        otherwise (MAS-change fallback, first push unseen, degenerate
        alignment, or a server-side ``DELTA_MISMATCH``) ships the full view.
        Under verification the delta is armed with the last acknowledged
        commit version as its CAS base, so a write the owner never made is
        caught before it can be built upon.

        With a shared :attr:`coordinator`, concurrent writers instead push
        optimistically and rebase on ``VERSION_CONFLICT`` — never falling
        back to a full-view rewrite.
        """
        rows = list(rows)
        if self.coordinator is not None:
            return self._insert_rows_coordinated(rows)
        encrypted = self.owner.insert_rows(rows)
        view = encrypted.server_view()
        report = self.owner.last_update_report
        self.last_delta = None
        if (
            self.delta_updates
            and self._last_view is not None
            and report is not None
            and report.mode == "incremental"
        ):
            delta = compute_view_delta(self._last_view, view)
            if delta.reuse_fraction >= self.MIN_DELTA_REUSE:
                try:
                    count = self.client.insert_delta(
                        self.table_id,
                        delta,
                        batch_rows=len(rows),
                        base_version=self._last_version if self.verify else -1,
                        with_root=self.verify,
                    )
                except ProtocolError as exc:
                    if exc.code not in (
                        ErrorCode.DELTA_MISMATCH.value,
                        ErrorCode.VERSION_CONFLICT.value,
                    ):
                        raise
                    # The server's base is not the view we think we pushed
                    # (e.g. a restart restored an older snapshot, or another
                    # writer advanced the table); re-ship the full view and
                    # realign from there.
                else:
                    version, root = self._ack_state()
                    self._last_view = view
                    self._last_version = version
                    self.last_delta = delta
                    if self.integrity is not None:
                        if self.integrity.expected_root:
                            self.integrity.record_delta(delta, version, root)
                        else:
                            self.integrity.record_push(view, version, root)
                    return count
        count = self.client.insert(self.table_id, view, batch_rows=len(rows))
        version, root = self._ack_state()
        self._last_view = view
        self._last_version = version
        if self.integrity is not None:
            self.integrity.record_push(view, version, root)
        return count

    def _insert_rows_coordinated(self, rows: list) -> int:
        """One writer's turn of the optimistic multi-writer protocol.

        Encryption runs under the coordinator's owner lock (the F2 pipeline
        is serial); the push races other writers against the server's
        per-table version CAS.  A ``VERSION_CONFLICT`` loser waits for the
        winner's ack, then either discovers its rows already landed inside a
        later writer's view (no-op) or rebases its delta onto the new
        acknowledged base and retries.  No path falls back to a full-view
        rewrite.
        """
        coord = self.coordinator
        assert coord is not None
        with coord.owner_lock:
            seq = coord.next_sequence()
            encrypted = self.owner.insert_rows(rows)
            view = encrypted.server_view()
        self.last_delta = None
        while True:
            base_view, base_version, acked_seq, generation = coord.snapshot_base()
            if acked_seq >= seq:
                # A later writer's acknowledged view already contains this
                # writer's rows (owner views are cumulative).
                coord.stats.noop_pushes += 1
                return base_view.num_rows if base_view is not None else view.num_rows
            if base_view is None:
                raise ProtocolError(
                    f"table {self.table_id!r}: coordinated insert before any "
                    "acknowledged outsource"
                )
            delta = compute_view_delta(base_view, view)
            try:
                count = self.client.insert_delta(
                    self.table_id,
                    delta,
                    batch_rows=len(rows),
                    base_version=base_version,
                    with_root=self.verify,
                )
            except ProtocolError as exc:
                if exc.code != ErrorCode.VERSION_CONFLICT.value:
                    raise
                coord.stats.cas_conflicts += 1
                coord.wait_past(generation)
                coord.stats.rebases += 1
                continue
            version, root = self._ack_state()
            coord.stats.delta_pushes += 1
            coord.record_delta_ack(seq, view, delta, version, root)
            self.last_delta = delta
            self._last_view = view
            self._last_version = version
            return count

    def discover_fds(self, max_lhs_size: int | None = None) -> TaneResult:
        """Remote FD discovery, validated against the owner's plaintext.

        The validation verdict lands in ``result.parameters['validated']``,
        mirroring :func:`run_protocol`.
        """
        result = self.client.discover(self.table_id, max_lhs_size=max_lhs_size)
        result.parameters["validated"] = self.owner.validate_fds(
            result.fds, max_lhs_size=max_lhs_size
        )
        return result

    def query(self, attribute: str, value: Any) -> Relation:
        """Equality selection ``attribute = value``: :meth:`select` of an ``Eq``."""
        return self.select(Eq(attribute, value))

    def select(self, predicate: "Predicate | str") -> Relation:
        """Boolean selection served by the provider, decrypted locally.

        ``predicate`` is an AST node or an expression string (see
        :mod:`repro.query.parser`), e.g. ``"City = Hoboken and Side != N"``.
        The owner plans it (:meth:`DataOwner.plan_query`), the provider
        executes the server part as bitset algebra, and the owner resolves
        the matches through her provenance plus the owner-local residual —
        the result equals the plaintext selection exactly.  A plan with no
        server part is answered locally without a round trip.
        """
        return self.select_with_report(predicate)[0]

    def select_with_report(
        self, predicate: "Predicate | str"
    ) -> tuple[Relation, QueryLeakageReport]:
        """Like :meth:`select`, plus the query's :class:`QueryLeakageReport`."""
        plan = self.owner.plan_query(predicate)
        if plan.server is None:
            matches = self.owner.select_plaintext_where(plan.predicate)
            return matches, self.owner.query_leakage_report(plan)
        # Proofs are only checkable against a tree the owner built from a
        # view she pushed herself; a session that never pushed (the
        # ``--no-push`` pattern — F2 re-encryption is randomised, so the
        # view cannot be recomputed locally) degrades to freshness-only
        # verification of the (version, root) chain.
        want_proofs = (
            self.verify
            and self.integrity is not None
            and bool(self.integrity.expected_root)
        )
        result = self.client.plan_query(
            self.table_id,
            plan.server,
            include_proofs=want_proofs,
            with_root=self.verify,
        )
        if self.verify and self.integrity is not None:
            # All checks run BEFORE any decryption: the reply's (version,
            # root, row count) claims first, then its one multiproof for the
            # matched rows against the agreed root.
            self.integrity.check_reply(result.version, result.merkle_root, result.num_rows)
            if want_proofs:
                if result.proof is None:
                    raise IntegrityError(
                        f"table {self.table_id!r}: provider omitted the "
                        "requested inclusion proof",
                        table_id=self.table_id,
                    )
                self.integrity.verify_proofs(
                    result.row_indexes, result.proof, result.num_rows, result.merkle_root
                )
        matches = self.owner.decrypt_plan_result(plan, result)
        return matches, self.owner.query_leakage_report(plan, result)

    def explain(self, predicate: "Predicate | str") -> str:
        """The plan description for ``predicate`` (no server round trip)."""
        return self.owner.plan_query(predicate).explain()

    def save_snapshot(self) -> str:
        """Ask the provider to force-persist this session's store."""
        return self.client.save_snapshot(self.table_id)

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteOwnerSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
