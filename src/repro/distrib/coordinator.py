"""Lease-based shard coordinator for distributed chunked execution.

The coordinator owns the chunk manifest of exactly one computation
(plan fingerprint + per-chunk input digests, the same identity a
:class:`~repro.io.checkpoint.CheckpointJournal` enforces) and serves it
to remote workers as *leases*: short-lived, heartbeat-renewed claims on
one or more chunk indices.  Robustness is lease-shaped end to end:

* a worker that crashes or partitions loses its connection — its leases
  are expired immediately and the chunks return to the pending queue;
* a worker that hangs stops heartbeating — its leases expire when their
  TTL lapses (straggler re-lease), and a late result from the original
  worker is deduplicated first-digest-wins;
* every RESULT is validated against the manifest (input digest), for a
  well-formed certificate and against its own declared artifact digest
  before it is accepted, so a mixed-plan, malformed or tampered result is
  rejected with :class:`~repro.exceptions.IntegrityError` semantics rather
  than merged;
* accepted results are journaled durably (``CheckpointJournal.record``
  writes the worker's blob bytes verbatim), so a coordinator that is itself
  killed resumes from its journal without recomputing;
* SIGTERM maps to :meth:`ShardCoordinator.request_drain`: stop granting,
  let in-flight leases finish or expire, exit with a resumable journal;
* if no worker ever joins within ``worker_wait`` (or all workers
  abandon the run), the coordinator returns the unfinished chunks to the
  caller, which degrades to the local supervised pool.

The coordinator keeps accepted artifacts in memory only when running
without a journal (tests, small runs); with a checkpoint directory the
journal is the source of truth and memory stays flat.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.pipeline import Certificate
from ..exceptions import ConfigurationError, IntegrityError, ProtocolError, ReproError
from ..io.checkpoint import digest_bytes
from ..obs import get_logger, get_metrics, get_tracer
from .protocol import (
    PROTOCOL_VERSION,
    FrameSocket,
    decode_artifact,
    fingerprints_equal,
    manifest_identity,
    msg_drain,
    msg_lease,
    msg_refuse,
    msg_result_ack,
    msg_wait,
    msg_welcome,
)

__all__ = ["DistribConfig", "DrainedError", "ShardCoordinator"]

_LOG = get_logger("distrib.coordinator")

#: scheduler poll period; bounds drain/expiry latency, not throughput
_TICK_SECONDS = 0.05

#: suggested client backoff when no shard is grantable right now
_WAIT_SECONDS = 0.25

#: result rejections tolerated per connection before it is cut off
_MAX_REJECTS_PER_CONNECTION = 3


class DrainedError(ReproError):
    """The coordinator drained (SIGTERM) before every chunk completed.

    The journal holds everything that finished; re-running with
    ``--resume`` continues from there.
    """


@dataclass
class DistribConfig:
    """Tunables for one coordinator run.

    ``shard_size`` defaults to 1 chunk per lease: the smallest
    reassignment unit, and the setting that makes chaos-test counters
    exact (one killed worker loses exactly one lease).  ``on_start``
    fires after the listening socket is bound, with the live
    :class:`ShardCoordinator` — callers use it to learn the ephemeral
    port, launch workers, or install signal handlers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    lease_ttl: float = 15.0
    shard_size: int = 1
    expect_workers: int = 0
    worker_wait: float = 30.0
    on_start: "Optional[Callable]" = None

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ConfigurationError(
                f"lease_ttl must be positive, got {self.lease_ttl}"
            )
        if self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        if self.expect_workers < 0:
            raise ConfigurationError(
                f"expect_workers must be >= 0, got {self.expect_workers}"
            )
        if self.worker_wait < 0:
            raise ConfigurationError(
                f"worker_wait must be >= 0, got {self.worker_wait}"
            )


@dataclass
class _Lease:
    worker: str
    conn_id: int
    outstanding: set
    deadline: float


class ShardCoordinator:
    """Serve one chunk manifest as leases over TCP; merge the results.

    Thread model: an accept thread spawns one daemon thread per worker
    connection; :meth:`serve` runs the scheduler loop (lease expiry,
    completion/drain/degradation detection) in the calling thread.  All
    shared state lives behind one lock; connection threads do their
    blocking socket I/O outside it.
    """

    def __init__(
        self,
        manifest: dict,
        *,
        weights: "str | None" = None,
        journal=None,
        completed: "dict[int, dict] | set | None" = None,
        config: "DistribConfig | None" = None,
    ) -> None:
        if "fingerprint" not in manifest or "chunk_digests" not in manifest:
            raise ConfigurationError(
                "coordinator manifest requires 'fingerprint' and 'chunk_digests'"
            )
        self.manifest = manifest
        self.config = config or DistribConfig()
        self._fingerprint = manifest["fingerprint"]
        self._digests = list(manifest["chunk_digests"])
        self._identity = manifest_identity(manifest)
        self._weights = weights
        self._journal = journal

        self._lock = threading.Lock()
        self.n_chunks = len(self._digests)
        already = set(completed or ())
        #: entries accepted *this run* (resumed chunks replay elsewhere)
        self.accepted: "dict[int, dict]" = {}
        self._artifacts: "dict[int, bytes]" = {}
        self._done = set(already)
        self._pending = deque(i for i in range(self.n_chunks) if i not in already)
        self._leases: "dict[int, _Lease]" = {}
        self._chunk_lease: "dict[int, int]" = {}
        self._expired_chunks: set = set()
        self._lease_ids = itertools.count(1)
        self._conn_ids = itertools.count(1)
        self._conns: "dict[int, FrameSocket]" = {}
        self._live_workers = 0
        self._joined_ever = 0
        self._counts = {
            "leases_granted": 0,
            "leases_expired": 0,
            "leases_reassigned": 0,
            "accepted": 0,
            "duplicate": 0,
            "conflict": 0,
            "rejected": 0,
            "handshake_refused": 0,
        }
        self._drain = False
        self._drain_reason = ""
        self._closing = False
        self._started_at = 0.0
        self._last_activity = 0.0
        self._listener: "socket.socket | None" = None
        self.address: "tuple[str, int] | None" = None
        #: trace context anchoring this run (captured in start(), where
        #: the caller's pipeline.execute_chunked span is still current)
        self._trace_ctx: "dict | None" = None
        #: context of the live distrib.serve span, once serve() opens it
        self._serve_ctx: "dict | None" = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "tuple[str, int]":
        """Bind, start accepting workers, return ``(host, port)``."""
        self._listener = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        self.address = self._listener.getsockname()[:2]
        self._started_at = self._last_activity = time.monotonic()
        # Anchor the run's trace here: the caller's pipeline span (if
        # any) is still current on this thread, so every span emitted
        # later from connection threads can parent under it.
        self._trace_ctx = get_tracer().inject()
        threading.Thread(
            target=self._accept_loop, name="distrib-accept", daemon=True
        ).start()
        _LOG.info(
            "coordinator listening",
            host=self.address[0],
            port=self.address[1],
            chunks=self.n_chunks,
            completed=len(self._done),
            lease_ttl=self.config.lease_ttl,
        )
        if self.config.on_start is not None:
            self.config.on_start(self)
        return self.address

    def run(self) -> dict:
        """:meth:`start` + :meth:`serve` in one call (blocking)."""
        self.start()
        return self.serve()

    def request_drain(self, reason: str = "drain requested") -> None:
        """Graceful stop: no new leases; in-flight leases finish or expire."""
        with self._lock:
            self._drain = True
            self._drain_reason = reason
        _LOG.info("coordinator draining", reason=reason)

    def serve(self) -> dict:
        """Scheduler loop; returns the run summary when the run resolves.

        Resolution outcomes: ``complete`` (every chunk accepted),
        ``drained`` (drain requested and no lease is in flight),
        ``no_workers`` (nobody joined within ``worker_wait``) and
        ``abandoned`` (workers joined but all left and stayed away for
        ``worker_wait``) — the last two hand the unfinished chunks back
        to the caller for local degradation.
        """
        tracer = get_tracer()
        outcome = "complete"
        wait = self.config.worker_wait
        # The serve span is *live* for the whole scheduler loop (not an
        # instant span at resolution): its context is what worker-side
        # and connection-thread spans parent under, so it must exist
        # before the first lease resolves.
        serve_span = tracer.span(
            "distrib.serve", remote_parent=self._trace_ctx, chunks=self.n_chunks
        )
        with serve_span:
            if tracer.enabled:
                with self._lock:
                    self._serve_ctx = tracer.inject(serve_span)
            try:
                while True:
                    with self._lock:
                        now = time.monotonic()
                        self._expire_stale_leases(now)
                        if len(self._done) == self.n_chunks:
                            outcome = "complete"
                            break
                        if self._drain and not self._leases:
                            outcome = "drained"
                            break
                        if (
                            self._joined_ever == 0
                            and now - self._started_at >= wait
                        ):
                            outcome = "no_workers"
                            break
                        if (
                            self._joined_ever > 0
                            and self._live_workers == 0
                            and not self._leases
                            and now - self._last_activity >= wait
                        ):
                            outcome = "abandoned"
                            break
                    time.sleep(_TICK_SECONDS)
            finally:
                self._shutdown()
            summary = self.summary(outcome)
            serve_span.set(
                outcome=outcome,
                completed=summary["completed_chunks"],
                workers_joined=summary["workers_joined"],
                leases_granted=summary["leases_granted"],
                leases_expired=summary["leases_expired"],
                leases_reassigned=summary["leases_reassigned"],
            )
        _LOG.info(
            "coordinator finished",
            outcome=outcome,
            completed=summary["completed_chunks"],
            remaining=len(summary["remaining_chunks"]),
            workers=summary["workers_joined"],
        )
        return summary

    def summary(self, outcome: str) -> dict:
        with self._lock:
            remaining = sorted(set(range(self.n_chunks)) - self._done)
            return {
                "outcome": outcome,
                "address": list(self.address) if self.address else None,
                "workers_joined": self._joined_ever,
                "completed_chunks": len(self._done),
                "remaining_chunks": remaining,
                "results": {
                    key: self._counts[key]
                    for key in ("accepted", "duplicate", "conflict", "rejected")
                },
                "leases_granted": self._counts["leases_granted"],
                "leases_expired": self._counts["leases_expired"],
                "leases_reassigned": self._counts["leases_reassigned"],
                "handshake_refused": self._counts["handshake_refused"],
            }

    def payload(self, index: int) -> bytes:
        """Raw artifact bytes for an accepted chunk (journal-less mode)."""
        with self._lock:
            return self._artifacts[index]

    # -- networking --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection,
                args=(client,),
                name="distrib-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, client: socket.socket) -> None:
        conn = FrameSocket(client, role="coordinator")
        # Generous read deadline: heartbeats arrive every ttl/4, so a
        # silent connection this long is a hung worker, and dropping it
        # routes its chunks through the normal lease-expiry path.
        conn.settimeout(max(5.0, 4.0 * self.config.lease_ttl))
        worker = self._handshake(conn)
        if worker is None:
            conn.close()
            return
        conn_id = next(self._conn_ids)
        metrics = get_metrics()
        tracer = get_tracer()
        with self._lock:
            self._conns[conn_id] = conn
            self._live_workers += 1
            self._joined_ever += 1
            self._last_activity = time.monotonic()
        _LOG.info("worker joined", worker=worker, peer=conn.peer)
        rejects = 0
        try:
            while True:
                try:
                    message = conn.recv()
                except TimeoutError:
                    break  # hung worker: drop; leases expire via TTL
                if message is None:
                    break  # clean EOF
                with self._lock:
                    self._last_activity = time.monotonic()
                kind = message["type"]
                if kind == "lease_request":
                    conn.send(self._grant(worker, conn_id))
                elif kind == "heartbeat":
                    self._renew(message.get("lease"))
                elif kind == "result":
                    spans = message.get("spans")
                    if spans and tracer.enabled:
                        tracer.merge_remote(spans)
                    with self._lock:
                        result_ctx = self._serve_ctx or self._trace_ctx
                    try:
                        with tracer.span(
                            "distrib.result",
                            remote_parent=result_ctx,
                            chunk=message.get("chunk"),
                            worker=worker,
                        ):
                            status = self._handle_result(worker, message)
                    except IntegrityError as exc:
                        status = "rejected"
                        rejects += 1
                        with self._lock:
                            self._counts["rejected"] += 1
                        metrics.counter(
                            "distrib_results_total", status="rejected"
                        ).inc()
                        _LOG.error(
                            "rejected result", worker=worker, error=str(exc)
                        )
                    conn.send(msg_result_ack(message.get("chunk", -1), status))
                    if rejects >= _MAX_REJECTS_PER_CONNECTION:
                        conn.send(msg_drain("too many rejected results"))
                        break
                else:
                    raise ProtocolError(
                        f"unexpected {kind!r} from worker {worker!r}"
                    )
        except (ProtocolError, OSError) as exc:
            if not self._closing:  # else _shutdown closed it under our recv
                _LOG.warning(
                    "worker connection lost", worker=worker, error=str(exc)
                )
        finally:
            with self._lock:
                self._conns.pop(conn_id, None)
                self._live_workers -= 1
                self._last_activity = time.monotonic()
                # dead-worker detection: no reason to wait out the TTL
                self._expire_conn_leases(conn_id)
            conn.close()
            _LOG.info("worker left", worker=worker)

    def _handshake(self, conn: FrameSocket) -> "str | None":
        """Validate a HELLO; returns the worker name, or None if refused."""
        try:
            hello = conn.recv()
        except (ProtocolError, OSError, TimeoutError):
            return None
        if hello is None or hello.get("type") != "hello":
            return None
        worker = str(hello.get("worker", "?"))
        reason = None
        if hello.get("proto") != PROTOCOL_VERSION:
            reason = (
                f"protocol version {hello.get('proto')!r} != {PROTOCOL_VERSION}"
            )
        elif not fingerprints_equal(
            hello.get("fingerprint") or {}, self._fingerprint
        ):
            reason = "plan fingerprint mismatch: different plan/codec/chunking"
        elif hello.get("manifest_digest") != self._identity:
            reason = "manifest digest mismatch: different input data"
        elif (
            self._weights is not None
            and hello.get("weights") is not None
            and hello.get("weights") != self._weights
        ):
            reason = "model weights digest mismatch"
        if reason is not None:
            with self._lock:
                self._counts["handshake_refused"] += 1
            get_metrics().counter("distrib_handshakes_refused_total").inc()
            _LOG.warning("refused worker", worker=worker, reason=reason)
            try:
                conn.send(msg_refuse(reason))
            except OSError:
                pass
            return None
        try:
            with self._lock:
                trace_ctx = self._serve_ctx or self._trace_ctx
            conn.send(
                msg_welcome(
                    self._identity,
                    self.n_chunks,
                    self.config.lease_ttl,
                    trace=trace_ctx,
                )
            )
        except OSError:
            return None
        return worker

    # -- scheduling --------------------------------------------------------

    def _gate_open(self, now: float) -> bool:
        """Hold back grants until the expected fleet joins (or we give up
        waiting) so the first worker doesn't walk off with every shard."""
        if self.config.expect_workers <= 0:
            return True
        if self._joined_ever >= self.config.expect_workers:
            return True
        return now - self._started_at >= self.config.worker_wait

    def _grant(self, worker: str, conn_id: int) -> dict:
        with self._lock:
            now = time.monotonic()
            if self._drain:
                return msg_drain(self._drain_reason or "draining")
            if len(self._done) == self.n_chunks:
                return msg_drain("run complete")
            if not self._gate_open(now) or not self._pending:
                return msg_wait(_WAIT_SECONDS)
            chunks = []
            while self._pending and len(chunks) < self.config.shard_size:
                chunks.append(self._pending.popleft())
            lease_id = next(self._lease_ids)
            reassignment = any(c in self._expired_chunks for c in chunks)
            self._leases[lease_id] = _Lease(
                worker=worker,
                conn_id=conn_id,
                outstanding=set(chunks),
                deadline=now + self.config.lease_ttl,
            )
            for chunk in chunks:
                self._chunk_lease[chunk] = lease_id
            self._counts["leases_granted"] += 1
            if reassignment:
                self._counts["leases_reassigned"] += 1
            trace_ctx = self._serve_ctx or self._trace_ctx
        metrics = get_metrics()
        metrics.counter("distrib_leases_granted_total").inc()
        if reassignment:
            metrics.counter("distrib_leases_reassigned_total").inc()
        _LOG.debug(
            "lease granted", lease=lease_id, worker=worker, chunks=chunks
        )
        return msg_lease(lease_id, chunks, self.config.lease_ttl, trace=trace_ctx)

    def _renew(self, lease_id) -> None:
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is not None:
                lease.deadline = time.monotonic() + self.config.lease_ttl

    def _expire_stale_leases(self, now: float) -> None:
        """TTL sweep (caller holds the lock)."""
        for lease_id in [
            i for i, lease in self._leases.items() if lease.deadline < now
        ]:
            self._expire_lease(lease_id, "ttl expired")

    def _expire_conn_leases(self, conn_id: int) -> None:
        """Release a dead connection's leases (caller holds the lock)."""
        for lease_id in [
            i
            for i, lease in self._leases.items()
            if lease.conn_id == conn_id
        ]:
            self._expire_lease(lease_id, "worker disconnected")

    def _expire_lease(self, lease_id: int, reason: str) -> None:
        lease = self._leases.pop(lease_id)
        returned = sorted(c for c in lease.outstanding if c not in self._done)
        for chunk in reversed(returned):
            self._pending.appendleft(chunk)
            self._expired_chunks.add(chunk)
            self._chunk_lease.pop(chunk, None)
        self._counts["leases_expired"] += 1
        get_metrics().counter("distrib_leases_expired_total").inc()
        _LOG.warning(
            "lease expired",
            lease=lease_id,
            worker=lease.worker,
            reason=reason,
            returned=returned,
        )

    # -- result intake -----------------------------------------------------

    def _handle_result(self, worker: str, message: dict) -> str:
        chunk = message.get("chunk")
        if not isinstance(chunk, int) or not 0 <= chunk < self.n_chunks:
            raise ProtocolError(f"result for unknown chunk {chunk!r}")
        entry = message.get("entry")
        if not isinstance(entry, dict):
            raise ProtocolError(f"result for chunk {chunk} carries no entry")
        data = decode_artifact(message.get("artifact", ""))
        digest = digest_bytes(data)
        # Validation happens before any state change: a bad result must
        # not consume the chunk, and the sender sees a typed rejection.
        if entry.get("input_digest") != self._digests[chunk]:
            raise IntegrityError(
                f"chunk {chunk} result from {worker!r} was computed on "
                "different input bytes (mixed-plan or stale data)"
            )
        Certificate.from_dict(entry.get("certificate"))  # a malformed one is refused here
        declared = entry.get("artifact_digest")
        if declared is None:
            raise IntegrityError(
                f"chunk {chunk} result from {worker!r} declares no artifact "
                "digest, so its bytes cannot be verified"
            )
        if declared != digest:
            raise IntegrityError(
                f"chunk {chunk} artifact from {worker!r} does not match its "
                "declared digest (tampered or corrupted in transit)"
            )
        with self._lock:
            if chunk in self._done:
                known = (
                    self.accepted[chunk].get("artifact_digest")
                    if chunk in self.accepted
                    else None
                )
                if known is not None and known != digest:
                    # first-digest-wins: the straggler's bytes disagree
                    # with what was already certified and journaled
                    self._counts["conflict"] += 1
                    get_metrics().counter(
                        "distrib_results_total", status="conflict"
                    ).inc()
                    _LOG.warning(
                        "conflicting duplicate result dropped",
                        chunk=chunk,
                        worker=worker,
                    )
                    return "conflict"
                self._counts["duplicate"] += 1
                get_metrics().counter(
                    "distrib_results_total", status="duplicate"
                ).inc()
                return "duplicate"
            recorded = dict(entry)
            recorded["chunk"] = chunk
            recorded["artifact_digest"] = digest
            if self._journal is not None:
                recorded = self._journal.record(
                    chunk, blob_bytes=data, entry=recorded
                )
            else:
                self._artifacts[chunk] = data
            self.accepted[chunk] = recorded
            self._done.add(chunk)
            try:
                self._pending.remove(chunk)
            except ValueError:
                pass
            lease_id = self._chunk_lease.pop(chunk, None)
            if lease_id is not None:
                lease = self._leases.get(lease_id)
                if lease is not None:
                    lease.outstanding.discard(chunk)
                    if not lease.outstanding:
                        del self._leases[lease_id]
            self._counts["accepted"] += 1
        get_metrics().counter("distrib_results_total", status="accepted").inc()
        _LOG.debug("result accepted", chunk=chunk, worker=worker)
        return "accepted"

    # -- shutdown ----------------------------------------------------------

    def _shutdown(self) -> None:
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.send(msg_drain("coordinator shutting down"))
            except OSError:
                pass
            conn.close()
