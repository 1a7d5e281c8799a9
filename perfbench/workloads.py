"""The three workloads and the closed-loop runner that measures them.

Each workload is one owner client in a closed loop: the next operation is
sent when the previous one returns.  A run is a few rounds.  Each round
starts a fresh provider and outsources its own seeded table (the set-up,
whose median is ``setup_s``), then probes it with an insert and a discover,
then sends its share of the timed operations, until ``seconds`` of
operation time have passed overall.  The probes give the insert and
discover latencies of the two read workloads, whose timed operations only
select; ``ingest`` also writes in its timed operations.  Every operation is
checked against the owner's plaintext oracle after its timer stops; a
failed or wrong operation is counted, never dropped.

The untraced run times the reference loops of ``calibration.py`` around
every operation and reports the latencies in their units (``cal``), because
the host's speed drifts by more than the metrics' bounds from run to run;
the wall-clock figures go to the information line.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import obs
from repro.api import (
    DEFAULT_TENANT,
    DataOwner,
    LoopbackTransport,
    ProtocolClient,
    ProtocolServer,
    RemoteOwnerSession,
    SocketProtocolServer,
    SocketTransport,
    TenantRegistry,
)
from repro.core.config import F2Config
from repro.query import Predicate
from repro.relational.table import Relation

import calibration
import inputs
from layers import LayerTracer, registry_metrics

#: (kind, call, check): ``call`` runs the operation; ``check`` gets its
#: result and returns a description of what is wrong, or ``None``.
Op = tuple[str, Callable[[], Any], Callable[[Any], "str | None"]]

ALPHA = 0.25
TENANT = "bench"


@dataclass(frozen=True)
class Scale:
    """Input sizes and loop shape of one workload."""

    rows: int
    zipcodes: int
    #: Rounds per run, each with its own set-up on its own table;
    #: ``setup_s`` is the median set-up.
    setups: int
    #: Insert-then-discover probes after each set-up.
    probes: int = 1
    #: A run keeps selecting until it has this many select samples.
    min_selects: int = 100


SCALES = {
    "point-select": Scale(rows=16_000, zipcodes=1_024, setups=4),
    "verified-scan": Scale(rows=4_000, zipcodes=256, setups=6, probes=3),
    "ingest": Scale(rows=2_000, zipcodes=128, setups=9),
}


class CountingTransport:
    """Forwards to a transport and counts request plus reply bytes."""

    def __init__(self, inner: Any):
        self.inner = inner
        self.bytes = 0

    def request(self, data: bytes) -> bytes:
        reply = self.inner.request(data)
        self.bytes += len(data) + len(reply)
        return reply

    def close(self) -> None:
        self.inner.close()


class Recorder:
    """Times operations, checks them against the oracle, counts failures.

    Before each operation it collects the garbage that the previous one and
    its check left and freezes what survives (``gc.freeze``), so that the
    collections during an operation walk only what that operation
    allocated.  Otherwise a walk of the whole heap -- tables of 16k rows,
    prompted as often by the allocations of the oracle checks as by the
    program's -- lands on some operations and not on others, and decides
    the tail latencies.  The latencies therefore leave out such walks.
    The runner unfreezes the heap and collects it in full, untimed, after
    each group of operations and before each round (:func:`_release_heap`).

    With ``calibrate`` it also times the calibration unit
    (:meth:`calibration.Calibration.unit_seconds`) just before and just
    after each operation and keeps every latency in units of the mean of
    the two as well.  ``untimed_seconds`` adds up the time of all this and
    of the checks.
    """

    MAX_REPORTED_ERRORS = 5

    def __init__(self, tracer: LayerTracer | None = None, calibrate: bool = False):
        self.tracer = tracer
        self.calibration = calibration.Calibration() if calibrate else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.timed_samples: dict[str, list[float]] = defaultdict(list)
        self.cal_samples: dict[str, list[float]] = defaultdict(list)
        self.timed_cal_samples: dict[str, list[float]] = defaultdict(list)
        self.timed_cal = 0.0
        self.attempted = 0
        self.failed = 0
        self.untimed_seconds = 0.0
        self.timed_seconds = 0.0
        self.timed_ops = 0
        self.timed_bytes = 0

    def run(self, op: Op, transport: CountingTransport, timed: bool = False) -> Any:
        kind, call, check = op
        prepared = time.perf_counter()
        gc.collect()
        gc.freeze()
        unit_before = self.calibration.unit_seconds() if self.calibration else 1.0
        self.untimed_seconds += time.perf_counter() - prepared
        bytes_before = transport.bytes
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            wall = time.perf_counter() - start
            problem = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            result = None
        else:
            wall = time.perf_counter() - start
            problem = None
        finished = time.perf_counter()
        unit = (unit_before + self.calibration.unit_seconds()) / 2 if self.calibration else 1.0
        if self.tracer is not None:
            self.tracer.end_op(kind, wall)
        if problem is None:
            self.samples[kind].append(wall)
            self.cal_samples[kind].append(wall / unit)
            try:
                problem = check(result)
            except Exception as exc:  # noqa: BLE001 - a check that raises is a wrong result
                problem = f"oracle check raised {type(exc).__name__}: {exc}"
        self.untimed_seconds += time.perf_counter() - finished
        self.attempted += 1
        if timed:
            self.timed_seconds += wall
            self.timed_cal += wall / unit
            self.timed_ops += 1
            self.timed_bytes += transport.bytes - bytes_before
            if problem is None:
                self.timed_samples[kind].append(wall)
                self.timed_cal_samples[kind].append(wall / unit)
        if problem is not None:
            self.failed += 1
            if self.failed <= self.MAX_REPORTED_ERRORS:
                print(f"perfbench: {kind} failed: {problem}", file=sys.stderr)
        return result


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------
def _rows(relation: Relation) -> list[tuple[str, ...]]:
    return [tuple(str(cell) for cell in row) for row in relation.rows()]


def ack_matches_view(session: RemoteOwnerSession) -> Callable[[int], "str | None"]:
    def check(count: int) -> "str | None":
        expected = session.owner.encrypted.relation.num_rows
        if count != expected:
            return f"provider acknowledged {count} rows, owner's server view has {expected}"
        return None

    return check


def select_matches_plaintext(session: RemoteOwnerSession, predicate: Predicate) -> Callable:
    def check(result: Relation) -> "str | None":
        expected = _rows(session.owner.select_plaintext_where(predicate))
        got = _rows(result)
        if got != expected:
            return f"select {predicate} returned {len(got)} rows, plaintext has {len(expected)}"
        return None

    return check


def discovery_is_sound(session: RemoteOwnerSession) -> Callable:
    def check(result) -> "str | None":
        if result.parameters.get("validated") is not True:
            return "discovered FDs were not validated against the plaintext"
        missing = session.owner.expected_fds().as_set() - result.fds.as_set()
        if missing:
            return f"discovery missed plaintext FDs {sorted(map(str, missing))}"
        return None

    return check


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Common set-up and operation builders; subclasses pick the deployment.

    Set-up ``k`` deploys a fresh provider and outsources table ``k`` of the
    seed; the probe then appends to it and discovers its FDs, and round
    ``k``'s timed operations run against it.
    """

    name = ""
    backend = "python"

    def __init__(self, seed: int, scale: Scale, workdir: Path, tracer: LayerTracer | None = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tracer = tracer
        self.transport: CountingTransport | None = None
        self.session: RemoteOwnerSession | None = None
        self.server: ProtocolServer | None = None
        self.store_dir: Path | None = None
        self.table: Relation | None = None
        self.user_bytes = 0

    # -- building blocks -----------------------------------------------
    def base_table(self, k: int) -> Relation:
        return inputs.address_table(self.scale.rows, self.scale.zipcodes, self.seed, f"addresses-{k}")

    def new_owner(self, key_seed: int) -> DataOwner:
        hooks = [self.tracer.stage_hook()] if self.tracer is not None else None
        config = F2Config(alpha=ALPHA, seed=key_seed, backend=self.backend, workers=1)
        return DataOwner.from_seed(key_seed, config=config, hooks=hooks)

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))

    def outsource(self, session: RemoteOwnerSession, table: Relation) -> Op:
        self.user_bytes += inputs.csv_bytes(table)
        return "outsource", lambda: session.outsource(table), ack_matches_view(session)

    def insert(self, session: RemoteOwnerSession, base: Relation, label: str) -> Op:
        rows = inputs.insert_batch(base, self.seed, label)
        self.user_bytes += inputs.csv_bytes(rows)
        return "insert", lambda: session.insert_rows(rows), ack_matches_view(session)

    @staticmethod
    def discover(session: RemoteOwnerSession) -> Op:
        return "discover", session.discover_fds, discovery_is_sound(session)

    @staticmethod
    def select(session: RemoteOwnerSession, predicate: Predicate) -> Op:
        return "select", lambda: session.select(predicate), select_matches_plaintext(session, predicate)

    # -- the interface the runner uses ---------------------------------
    def deploy(self) -> RemoteOwnerSession:
        """Start a fresh provider and return a connected session."""
        raise NotImplementedError

    def setup(self, recorder: Recorder, k: int) -> None:
        self.user_bytes = 0
        self.table = self.base_table(k)
        self.session = self.deploy()
        assert self.transport is not None
        recorder.run(self.outsource(self.session, self.table), self.transport)

    def probe(self, recorder: Recorder, k: int) -> None:
        assert self.session is not None and self.table is not None and self.transport is not None
        for step in range(self.scale.probes):
            recorder.run(self.insert(self.session, self.table, f"probe{k}-{step}"), self.transport)
            recorder.run(self.discover(self.session), self.transport)

    def ops(self, k: int) -> Iterator[list[Op]]:
        """The timed operations of round ``k``, against set-up ``k``, in
        groups that a run sends whole, so that its mix of kinds is fixed.
        The heap is released (:func:`_release_heap`) after each group."""
        raise NotImplementedError

    def op_labels(self) -> list[str]:
        """A textual prefix of round 0's operations, for the input digest."""
        raise NotImplementedError

    def input_digest(self) -> str:
        tables = [self.base_table(k) for k in range(self.scale.setups)]
        labels = [inputs.relation_digest(table) for table in tables[1:]]
        for k, table in enumerate(tables):
            labels += [repr(inputs.insert_batch(table, self.seed, f"probe{k}-{step}")) for step in range(self.scale.probes)]
        return inputs.input_digest(tables[0], labels + self.op_labels())

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def tenant(self) -> str:
        return DEFAULT_TENANT

    def layer_extra(self) -> dict[str, float]:
        """Per-layer numbers read from the provider's stores and the owner."""
        assert self.server is not None and self.session is not None
        hits = misses = 0
        for table_id in self.server.table_ids(self.tenant()):
            stats = self.server.table_store(table_id, tenant_id=self.tenant()).cache_stats()
            hits += stats["hits"]
            misses += stats["misses"]
        on_disk = 0
        if self.store_dir is not None:
            on_disk = sum(path.stat().st_size for path in self.store_dir.rglob("*") if path.is_file())
        owner = self.session.owner
        return {
            "core.expansion_ratio": owner.encrypted.relation.num_rows / owner.plaintext.num_rows,
            "store.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "store.bytes_on_disk": float(on_disk),
            "store.bytes_per_user_byte": on_disk / self.user_bytes if self.user_bytes else 0.0,
        }


class PointSelect(Workload):
    """Selective Eq/And predicates on a 16k-row table, unverified, loopback,
    in-memory python-backend server."""

    name = "point-select"
    #: Selects per group of timed operations.
    GROUP = 10

    def deploy(self) -> RemoteOwnerSession:
        self.server = ProtocolServer(backend=self.backend)
        self.transport = CountingTransport(LoopbackTransport(self.server))
        return RemoteOwnerSession(
            self.new_owner(self.seed), ProtocolClient(self.transport), table_id="addresses", verify=False
        )

    def predicates(self, k: int) -> inputs.PointPredicates:
        return inputs.PointPredicates(self.scale.zipcodes, self.seed, stream=f"point-{k}")

    def ops(self, k: int) -> Iterator[list[Op]]:
        assert self.session is not None
        predicates = self.predicates(k)
        while True:
            yield [self.select(self.session, predicates.next()) for _ in range(self.GROUP)]

    def op_labels(self) -> list[str]:
        predicates = self.predicates(0)
        return [str(predicates.next()) for _ in range(256)]


class VerifiedScan(PointSelect):
    """Broad In/Or predicates on a 4k-row table over localhost TCP, with an
    authenticated, verified session on the segment engine."""

    name = "verified-scan"
    socket_server: SocketProtocolServer | None = None

    def deploy(self) -> RemoteOwnerSession:
        directory = self.fresh_dir()
        registry = TenantRegistry(directory / "tenants.json")
        credential = registry.mint(TENANT, "owner")
        self.store_dir = directory / "store"
        self.server = ProtocolServer(
            backend=self.backend, storage_dir=self.store_dir, tenants=registry, storage_engine="segment"
        )
        self.socket_server = SocketProtocolServer(self.server)
        self.socket_server.serve_in_background()
        self.transport = CountingTransport(SocketTransport(port=self.socket_server.port))
        return RemoteOwnerSession(
            self.new_owner(self.seed),
            ProtocolClient(self.transport),
            table_id="addresses",
            credential=credential,
            verify=True,
        )

    def predicates(self, k: int) -> inputs.BroadPredicates:
        return inputs.BroadPredicates(self.scale.zipcodes, self.seed, stream=f"broad-{k}")

    def tenant(self) -> str:
        return TENANT

    def teardown(self) -> None:
        super().teardown()
        if self.socket_server is not None:
            self.socket_server.shutdown()
            self.socket_server = None


class Ingest(Workload):
    """Repeated table lifecycles: outsource, delta inserts beside point
    selects, periodic discovery; verified, loopback, segment engine, numpy."""

    name = "ingest"
    backend = "numpy"
    #: Each table lifecycle, one group of timed operations: outsource, then
    #: this many inserts, each followed by point selects, with a discover
    #: after every second one.
    INSERTS_PER_LIFECYCLE = 4
    SELECTS_PER_INSERT = 4
    DISCOVER_EVERY = 2

    def deploy(self) -> RemoteOwnerSession:
        self.store_dir = self.fresh_dir() / "store"
        self.server = ProtocolServer(backend=self.backend, storage_dir=self.store_dir, storage_engine="segment")
        self.transport = CountingTransport(LoopbackTransport(self.server))
        self.client = ProtocolClient(self.transport)
        return self.lifecycle_session("setup")

    def lifecycle_table(self, name: str) -> Relation:
        return inputs.address_table(self.scale.rows, self.scale.zipcodes, self.seed, name)

    def lifecycle_session(self, name: str) -> RemoteOwnerSession:
        return RemoteOwnerSession(self.new_owner(self.seed), self.client, table_id=name, verify=True)

    def ops(self, k: int) -> Iterator[list[Op]]:
        for lifecycle in count(1):
            name = f"r{k}-t{lifecycle}"
            table = self.lifecycle_table(name)
            session = self.session = self.lifecycle_session(name)
            predicates = inputs.PointPredicates(self.scale.zipcodes, self.seed, stream=name)
            group = [self.outsource(session, table)]
            for step in range(self.INSERTS_PER_LIFECYCLE):
                group.append(self.insert(session, table, f"{name}-{step}"))
                group += [self.select(session, predicates.next()) for _ in range(self.SELECTS_PER_INSERT)]
                if (step + 1) % self.DISCOVER_EVERY == 0:
                    group.append(self.discover(session))
            yield group

    def op_labels(self) -> list[str]:
        labels = []
        for name in ("r0-t1", "r0-t2"):
            table = self.lifecycle_table(name)
            labels.append(inputs.relation_digest(table))
            labels.append(repr(inputs.insert_batch(table, self.seed, f"{name}-0")))
        predicates = inputs.PointPredicates(self.scale.zipcodes, self.seed, stream="r0-t1")
        return labels + [str(predicates.next()) for _ in range(64)]

    def teardown(self) -> None:
        # Lifecycle sessions share one loopback client; closing is a no-op.
        self.session = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PointSelect, VerifiedScan, Ingest)
}


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _percentile(samples: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _drive(
    workload: Workload, recorder: Recorder, ops: Iterator[list[Op]], seconds: float, selects: int, deadline: float
) -> int:
    """Send groups of operations until the recorder holds ``seconds`` of
    timed operations and ``selects`` timed selects (or the deadline passes);
    returns the number of groups sent."""
    done = 0
    while (
        recorder.timed_seconds < seconds or len(recorder.timed_samples["select"]) < selects
    ) and time.perf_counter() < deadline:
        _send(workload, recorder, next(ops))
        done += 1
    return done


def _replay(workload: Workload, recorder: Recorder, ops: Iterator[list[Op]], count: int) -> None:
    for _ in range(count):
        _send(workload, recorder, next(ops))


def _send(workload: Workload, recorder: Recorder, group: list[Op]) -> None:
    """Send one group, then release the heap: what the :class:`Recorder`
    froze includes garbage that only a full collection frees, such as an
    ingest lifecycle's tables, and left frozen it would grow the memory
    of every later operation."""
    assert workload.transport is not None
    for op in group:
        recorder.run(op, workload.transport, timed=True)
    _release_heap()


def _release_heap() -> None:
    """Unfreeze what the :class:`Recorder` froze and collect the whole heap,
    so that no set-up or operation pays for collecting another one's
    garbage."""
    gc.unfreeze()
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seconds: float, scale: Scale) -> tuple[Recorder, dict, dict]:
    """Rounds of set-up, probe and a slice of timed operations.

    The machine's speed changes while a run goes on, so every metric takes
    its samples from every round rather than from one stretch of the run,
    and the latencies are in calibration units (see ``calibration.py``).
    """
    recorder = Recorder(calibrate=True)
    setups = []
    rounds = scale.setups
    deadline = time.perf_counter() + 8 * seconds + 60
    try:
        for k in range(rounds):
            workload.teardown()
            _release_heap()
            started = time.perf_counter()
            untimed_before = recorder.untimed_seconds
            workload.setup(recorder, k)
            setups.append(time.perf_counter() - started - (recorder.untimed_seconds - untimed_before))
            workload.probe(recorder, k)
            share = (k + 1) / rounds
            _drive(workload, recorder, workload.ops(k), seconds * share, math.ceil(scale.min_selects * share), deadline)
    finally:
        gc.unfreeze()

    def latencies(samples: dict[str, list[float]], timed: dict[str, list[float]]) -> dict[str, float]:
        return {
            "outsource": statistics.median(samples["outsource"]),
            "select_p50": statistics.median(timed["select"]),
            "select_p90": _percentile(timed["select"], 0.9),
            "insert_p50": statistics.median(samples["insert"]),
            "discover_p50": statistics.median(samples["discover"]),
        }

    cal = latencies(recorder.cal_samples, recorder.timed_cal_samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        **{f"{name}_cal": (value, "cal") for name, value in cal.items()},
        "ops_per_kcal": (1e3 * recorder.timed_ops / recorder.timed_cal, "1/kcal"),
        "success_rate": (1.0 - recorder.failed / recorder.attempted, "ratio"),
        "wire_bytes_per_op": (recorder.timed_bytes / recorder.timed_ops, "bytes"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    wall = latencies(recorder.samples, recorder.timed_samples)
    info = {
        "setups": len(setups),
        "samples": {kind: len(values) for kind, values in recorder.samples.items()},
        "timed_ops": recorder.timed_ops,
        "wall_ms": {name: 1e3 * value for name, value in wall.items()},
        "ops_per_s": recorder.timed_ops / recorder.timed_seconds,
        # The calibration unit in wall time, averaged over the timed phase.
        "cal_unit_ms": 1e3 * recorder.timed_seconds / recorder.timed_cal,
    }
    return recorder, metrics, info


def traced(workload_cls: type[Workload], seed: int, seconds: float, scale: Scale, workdir: Path) -> tuple[Recorder, dict, dict]:
    """Run one round untraced, then replay it with the wrappers installed."""
    plain = Recorder()
    workload = workload_cls(seed, scale, workdir)
    try:
        workload.setup(plain, 0)
        workload.probe(plain, 0)
        done = _drive(
            workload, plain, workload.ops(0), seconds / 2, min(scale.min_selects, 20), time.perf_counter() + 4 * seconds + 60
        )
    finally:
        workload.teardown()
        _release_heap()
    tracer = LayerTracer()
    recorder = Recorder(tracer)
    recorder.attempted, recorder.failed = plain.attempted, plain.failed
    workload = workload_cls(seed, scale, workdir, tracer)
    obs.reset()
    tracer.install()
    try:
        workload.setup(recorder, 0)
        workload.probe(recorder, 0)
        _replay(workload, recorder, workload.ops(0), done)
        extra = workload.layer_extra()
    finally:
        tracer.uninstall()
        workload.teardown()
        _release_heap()
    extra.update(registry_metrics())
    # Timed operations only: the first set-up of a process also pays
    # one-off import and warm-up costs that would skew the ratio.
    extra["trace.overhead_ratio"] = recorder.timed_seconds / plain.timed_seconds
    info = {"replayed_groups": done, "largest_layer": tracer.largest_layers()}
    return recorder, tracer.metrics(extra), info


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, scale: Scale | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result document, side information)."""
    workload_cls = WORKLOADS[name]
    scale = scale or SCALES[name]
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / ".perfbench_tmp"))
    try:
        if trace:
            recorder, metrics, info = traced(workload_cls, seed, seconds, scale, workdir)
            digest = workload_cls(seed, scale, workdir).input_digest()
        else:
            workload = workload_cls(seed, scale, workdir)
            try:
                recorder, metrics, info = end_to_end(workload, seconds, scale)
            finally:
                workload.teardown()
            digest = workload.input_digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update({"workload": name, "seed": seed, "input_digest": digest})
    result = {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, info
