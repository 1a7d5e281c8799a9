"""The traced run: per-layer timing measured from outside the program.

:class:`LayerTracer` wraps public entry points of each layer -- owner
planning, resolution and encryption, delta alignment, the protocol client,
the transports, the server, the wire codec, query execution, integrity
checks and the cipher -- with timing wrappers defined here, in the
benchmark's own files.  The wrappers are installed only for the traced run
and removed afterwards; the end-to-end run never sees them.

Every wrapper adds its duration to a per-layer total.  A wrapper called
directly from an operation (not nested inside another wrapper, and on the
operation's own thread) also adds its duration to the operation's
*covered* time; whatever part of an operation's wall time no top-level
layer covers is its residual.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.api import protocol, session
from repro.api.pipeline import StageHook
from repro.api.protocol import LoopbackTransport, Message, ProtocolClient, ProtocolServer, SocketTransport
from repro.api.session import DataOwner
from repro.core.encrypted import EncryptedTable
from repro.crypto.probabilistic import ProbabilisticCipher
from repro.integrity.state import TableIntegrityState

#: Protocol message kind -> the short name used in metric names.
CALL_KINDS = {
    "outsource_request": "outsource",
    "insert_batch": "insert",
    "insert_delta": "insert_delta",
    "discover_request": "discover",
    "plan_query_request": "plan_query",
}
#: The benchmark's operation kinds (one per timed ``RemoteOwnerSession`` call).
OP_KINDS = ("outsource", "insert", "discover", "select")
#: F2 pipeline stages, as ``Stage.name`` reports them.
STAGES = ("MAX", "SSE", "SYN", "FP", "MATERIALIZE", "REPAIR")
#: Each per-layer metric: its unit, and the end-to-end metric and workload
#: it should move.
LAYER_MAP = json.loads(Path(__file__).with_name("layer_map.json").read_text())
UNITS = {entry["name"]: entry["unit"] for entry in LAYER_MAP["per_layer"]}


class _StageTimer(StageHook):
    """Adds each pipeline stage's duration to the tracer during an outsource."""

    def __init__(self, tracer: "LayerTracer"):
        self._tracer = tracer

    def on_stage_end(self, stage, ctx, seconds: float) -> None:
        if self._tracer.op_kind == "outsource":
            self._tracer.add(f"pipeline.{stage.name}", seconds, top=False)


class LayerTracer:
    """Per-layer time and count accumulators plus the wrappers that fill them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []
        self.op_kind: str | None = None
        self._op_thread = 0
        self._call_kind = ""
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_wall: dict[str, float] = defaultdict(float)
        self.op_covered: dict[str, float] = defaultdict(float)
        self.op_layers: dict[tuple[str, str], float] = defaultdict(float)
        self.op_count: dict[str, int] = defaultdict(int)

    # -- operation boundaries (called by the workload runner) ----------
    def begin_op(self, kind: str) -> None:
        self.op_kind = kind
        self._op_thread = threading.get_ident()

    def end_op(self, kind: str, wall: float) -> None:
        self.op_kind = None
        with self._lock:
            self.op_wall[kind] += wall
            self.op_count[kind] += 1

    def stage_hook(self) -> StageHook:
        return _StageTimer(self)

    # -- accumulation --------------------------------------------------
    def add(self, key: str, seconds: float, top: bool) -> None:
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += 1
            if top:
                self.op_covered[self.op_kind or ""] += seconds
                self.op_layers[(self.op_kind or "", key)] += seconds

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def _timed(self, fn: Callable, layer: Callable[..., str], after: Callable | None = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op_kind is None:
                return fn(*args, **kwargs)
            key = layer(*args, **kwargs)
            local = tracer._local
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.depth = depth
                top = depth == 0 and threading.get_ident() == tracer._op_thread
                tracer.add(key, elapsed, top)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Callable, static: bool = False) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, staticmethod(replacement) if static else replacement)

    def _wrap(self, owner: Any, name: str, key: str, after: Callable | None = None) -> None:
        self._patch(owner, name, self._timed(getattr(owner, name), lambda *a, **k: key, after))

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every measured entry point (undo with :meth:`uninstall`)."""
        tracer = self
        self._wrap(DataOwner, "plan_query", "owner.plan")
        self._wrap(
            DataOwner,
            "decrypt_plan_result",
            "owner.resolve",
            after=lambda result, *a, **k: tracer.count("matches", result.num_rows),
        )
        self._wrap(DataOwner, "query_leakage_report", "owner.leakage")
        self._wrap(DataOwner, "select_plaintext_where", "owner.local_select")
        self._wrap(DataOwner, "outsource", "owner.encrypt")
        self._wrap(DataOwner, "insert_rows", "owner.insert")
        self._wrap(DataOwner, "validate_fds", "owner.validate")
        self._wrap(EncryptedTable, "server_view", "owner.view")
        self._wrap(
            session,
            "compute_view_delta",
            "delta.align",
            after=lambda delta, *a, **k: tracer.count("delta.reuse", delta.reuse_fraction),
        )
        self._wrap(TableIntegrityState, "check_reply", "integrity.verify")
        self._wrap(TableIntegrityState, "verify_proofs", "integrity.verify")
        self._wrap(TableIntegrityState, "record_push", "integrity.record")
        self._wrap(TableIntegrityState, "record_delta", "integrity.record")
        self._wrap(protocol, "execute_server_expr", "query.exec")
        self._wrap(ProtocolServer, "handle_bytes", "server.handle_bytes")
        self._patch(
            ProtocolServer,
            "handle",
            self._timed(
                ProtocolServer.handle,
                lambda server, request, *a, **k: "server.handle." + CALL_KINDS.get(request.kind, request.kind),
            ),
        )
        self._patch(Message, "encode", self._timed(Message.encode, lambda *a, **k: "wire.encode"))
        self._patch(
            Message, "decode", self._timed(Message.decode, lambda *a, **k: "wire.decode"), static=True
        )
        self._patch(ProtocolClient, "call", self._client_call(ProtocolClient.call))
        for transport in (LoopbackTransport, SocketTransport):
            self._patch(transport, "request", self._transport_request(transport.request))
        self._patch(ProbabilisticCipher, "decrypt", self._cells(ProbabilisticCipher.decrypt, batch=False))
        self._patch(ProbabilisticCipher, "decrypt_batch", self._cells(ProbabilisticCipher.decrypt_batch, batch=True))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers that also attribute work to the current client call ---
    def _client_call(self, fn: Callable) -> Callable:
        tracer = self

        def layer(client, request, *a, **k) -> str:
            return "client.call." + CALL_KINDS.get(request.kind, request.kind)

        timed = self._timed(fn, layer)

        def call(client, request, *args, **kwargs):
            outer = tracer._call_kind
            tracer._call_kind = CALL_KINDS.get(request.kind, request.kind)
            try:
                return timed(client, request, *args, **kwargs)
            finally:
                tracer._call_kind = outer

        return call

    def _transport_request(self, fn: Callable) -> Callable:
        tracer = self

        def after(reply: bytes, transport, data: bytes) -> None:
            kind = tracer._call_kind
            tracer.count(f"request_bytes.{kind}", len(data))
            tracer.count(f"reply_bytes.{kind}", len(reply))

        timed = self._timed(fn, lambda *a, **k: "transport.request", after)

        def request(transport, data: bytes) -> bytes:
            if tracer.op_kind is None:
                return fn(transport, data)
            start = time.perf_counter()
            reply = timed(transport, data)
            tracer.add(f"transport.request.{tracer._call_kind}", time.perf_counter() - start, top=False)
            return reply

        return request

    def _cells(self, fn: Callable, batch: bool) -> Callable:
        tracer = self

        def decrypt(cipher, ciphertexts, *args, **kwargs):
            if tracer.op_kind == "select":
                tracer.count("cells", len(ciphertexts) if batch else 1)
            return fn(cipher, ciphertexts, *args, **kwargs)

        return decrypt

    # -- derived metrics -----------------------------------------------
    def metrics(self, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``(value, unit)``; ``extra`` supplies
        the ones read from stores, the registry and the run itself."""
        seconds, calls, counts, ops = self.seconds, self.calls, self.counts, self.op_count

        def per(total: float, n: float, scale: float = 1.0) -> float:
            return scale * total / n if n else 0.0

        round_trips = calls["transport.request"]
        out: dict[str, float] = {
            "owner.plan_ms": per(seconds["owner.plan"], ops["select"], 1e3),
            "owner.resolve_ms": per(seconds["owner.resolve"], ops["select"], 1e3),
            "owner.resolve_us_per_match": per(seconds["owner.resolve"], counts["matches"], 1e6),
            "owner.leakage_ms": per(seconds["owner.leakage"], ops["select"], 1e3),
            "owner.cells_decrypted_per_select": per(counts["cells"], ops["select"]),
            "owner.encrypt_ms": per(seconds["owner.encrypt"], ops["outsource"], 1e3),
        }
        for stage in STAGES:
            out[f"pipeline.{stage.lower()}_ms"] = per(seconds[f"pipeline.{stage}"], ops["outsource"], 1e3)
        out.update(
            {
                "owner.insert_ms": per(seconds["owner.insert"], ops["insert"], 1e3),
                "delta.align_ms": per(seconds["delta.align"], ops["insert"], 1e3),
                "delta.reuse_fraction": per(counts["delta.reuse"], calls["delta.align"]),
                "delta.full_fallback_ratio": per(calls["client.call.insert"], ops["insert"]),
                "owner.validate_ms": per(seconds["owner.validate"], ops["discover"], 1e3),
            }
        )
        for kind in CALL_KINDS.values():
            call = seconds[f"client.call.{kind}"]
            n = calls[f"client.call.{kind}"]
            out[f"client.call_ms.{kind}"] = per(call, n, 1e3)
            out[f"client.overhead_ms.{kind}"] = per(call - seconds[f"transport.request.{kind}"], n, 1e3)
            out[f"server.handle_ms.{kind}"] = per(
                seconds[f"server.handle.{kind}"], calls[f"server.handle.{kind}"], 1e3
            )
            out[f"wire.request_bytes.{kind}"] = per(counts[f"request_bytes.{kind}"], n)
            out[f"wire.reply_bytes.{kind}"] = per(counts[f"reply_bytes.{kind}"], n)
        out.update(
            {
                "transport.socket_ms": per(
                    seconds["transport.request"] - seconds["server.handle_bytes"], round_trips, 1e3
                ),
                "wire.encode_ms": per(seconds["wire.encode"], round_trips, 1e3),
                "wire.decode_ms": per(seconds["wire.decode"], round_trips, 1e3),
                "query.exec_ms": per(seconds["query.exec"], calls["query.exec"], 1e3),
                "integrity.verify_ms": per(seconds["integrity.verify"], ops["select"], 1e3),
                "integrity.record_ms": per(
                    seconds["integrity.record"], ops["outsource"] + ops["insert"], 1e3
                ),
            }
        )
        residuals = {}
        for kind in OP_KINDS:
            wall = self.op_wall[kind]
            residuals[kind] = per(wall - self.op_covered[kind], wall)
            out[f"residual_fraction.{kind}"] = residuals[kind]
        out["residual_fraction"] = max(residuals.values())
        out.update(extra)
        return {name: (out[name], unit) for name, unit in UNITS.items()}

    def largest_layers(self) -> dict[str, str]:
        """The top-level layer with the most time, per operation kind."""
        largest: dict[str, tuple[float, str]] = {}
        for (kind, layer), seconds in self.op_layers.items():
            largest[kind] = max(largest.get(kind, (0.0, "")), (seconds, layer))
        return {kind: layer for kind, (_, layer) in sorted(largest.items())}


def registry_metrics() -> dict[str, float]:
    """Per-layer numbers the program's own ``repro.obs`` registry keeps."""
    snapshot = obs.snapshot()
    waits = [h for h in snapshot["histograms"] if h["name"] == "store.lock_wait_seconds"]
    wait_count = sum(h["count"] for h in waits)
    counters: dict[str, float] = defaultdict(float)
    for counter in snapshot["counters"]:
        counters[counter["name"]] += counter["value"]
    proofs = counters["integrity.proofs_generated"]
    return {
        "store.lock_wait_ms": 1e3 * sum(h["sum"] for h in waits) / wait_count if wait_count else 0.0,
        "integrity.proof_bytes_per_match": counters["integrity.proof_bytes"] / proofs if proofs else 0.0,
    }
