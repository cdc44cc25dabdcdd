"""Worker agent: lease chunks from a coordinator, compute them locally.

A :class:`ShardWorker` is the remote half of distributed chunked
execution.  It holds the *same* fields, plan and model as the
coordinator (verified at handshake via the plan fingerprint, manifest
digest and weights digest), pulls leases over the wire, and runs each
leased chunk through the single-host machinery it already trusts:

* compute happens on a local :class:`~repro.resilience.supervisor.
  SupervisedPool`, so respawn / bounded retry / quarantine→lossless
  semantics apply per worker exactly as they do single-host;
* every completed chunk is journaled into the worker's own
  :class:`~repro.io.checkpoint.CheckpointJournal` before its RESULT is
  sent — the artifact bytes and entry on the wire are the journaled
  ones;
* a re-leased chunk the worker already computed is resent from the
  local journal, never recomputed (the coordinator dedups
  first-digest-wins);
* connects and reconnects back off on the schedule of a
  :class:`~repro.resilience.retry.RetryPolicy`, so backoff schedules
  stay deterministic under test seeds;
* finished spans ride each RESULT frame, and the span cursor advances
  only once that frame is sent, so spans finished before a lost
  connection go out on the next RESULT after the reconnect.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time

import numpy as np

from ..core.chunked import ChunkRun, run_supervised
from ..exceptions import IntegrityError, ProtocolError
from ..io.checkpoint import CheckpointJournal, digest_model
from ..obs import get_logger, get_tracer
from ..obs.trace import Tracer
from ..resilience.retry import RetryPolicy
from .protocol import (
    PROTOCOL_VERSION,
    FrameSocket,
    encode_artifact,
    manifest_identity,
    msg_heartbeat,
    msg_hello,
    msg_lease_request,
    msg_result,
)

__all__ = ["ShardWorker"]

_LOG = get_logger("distrib.worker")

#: consecutive connection losses tolerated before the agent gives up
_MAX_CONSECUTIVE_FAILURES = 10

#: cap on server-suggested wait naps, so the run's end is never far away
_MAX_WAIT_NAP = 1.0

#: seconds one connection attempt may take before it counts as failed
_CONNECT_TIMEOUT = 5.0


class _Heartbeat:
    """Background lease renewal; one per in-flight lease."""

    def __init__(self, conn: FrameSocket, lease_id: int, ttl: float) -> None:
        self._conn = conn
        self._lease_id = lease_id
        self._interval = max(0.05, ttl / 4.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"distrib-heartbeat-{lease_id}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._conn.send(msg_heartbeat(self._lease_id))
            except OSError:
                return  # connection died; the main loop will notice

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class ShardWorker:
    """One remote worker: connect, lease, compute, submit, repeat.

    Parameters mirror ``execute_chunked``'s chunking arguments — the
    worker must chunk the fields *identically* to the coordinator or the
    handshake digests will not match (which is the point).
    """

    def __init__(
        self,
        pipeline,
        fields: np.ndarray,
        chunk_size: int,
        *,
        chunk_axis: int = 0,
        samples_from_fields=None,
        name: "str | None" = None,
        workers: "int | None" = None,
        connect_retry: "RetryPolicy | None" = None,
        checkpoint: "str | None" = None,
    ) -> None:
        self.pipeline = pipeline
        self.chunk_run = ChunkRun(pipeline, fields, chunk_size, chunk_axis, samples_from_fields)
        self.manifest = self.chunk_run.manifest
        self.identity = manifest_identity(self.manifest)
        self.weights = digest_model(pipeline.model)
        self.name = name or f"worker-{os.getpid()}"
        self.workers = workers
        self.retry = connect_retry or RetryPolicy(
            max_retries=5, base_delay=0.2, max_delay=5.0
        )
        directory = checkpoint or tempfile.mkdtemp(prefix="repro-worker-")
        self._journal = CheckpointJournal(directory)
        self._local: "dict[int, dict]" = self._journal.begin(
            self.manifest, resume=checkpoint is not None
        )
        self._welcome_trace: "dict | None" = None
        #: index into the tracer's finished spans of the first span no
        #: RESULT frame has carried yet
        self._span_cursor = 0

    # -- main loop ---------------------------------------------------------

    def run(self, host: str, port: int) -> dict:
        """Serve leases until the coordinator drains this worker.

        Returns a summary dict.  Raises
        :class:`~repro.exceptions.IntegrityError` if the coordinator
        refuses the handshake (different plan/data/weights) and
        :class:`~repro.exceptions.ProtocolError` if the coordinator
        stays unreachable past the retry budget.
        """
        self.pipeline.model.eval()
        summary = {
            "worker": self.name,
            "leases": 0,
            "chunks_computed": 0,
            "chunks_resent": 0,
            "reconnects": 0,
            "results": {},
            "drained": None,
        }
        failures = 0
        self._span_cursor = len(get_tracer().finished)
        conn = self._connect(host, port)
        try:
            while True:
                try:
                    conn.send(msg_lease_request())
                    reply = self._recv(conn)
                    kind = reply["type"]
                    if kind == "drain":
                        summary["drained"] = reply.get("reason", "")
                        break
                    if kind == "wait":
                        time.sleep(
                            min(float(reply.get("seconds", 0.25)), _MAX_WAIT_NAP)
                        )
                        continue
                    if kind != "lease":
                        raise ProtocolError(
                            f"expected lease/wait/drain, got {kind!r}"
                        )
                    summary["leases"] += 1
                    self._serve_lease(conn, reply, summary)
                    failures = 0
                except (TimeoutError, OSError, ProtocolError) as exc:
                    failures += 1
                    if failures >= _MAX_CONSECUTIVE_FAILURES:
                        raise ProtocolError(
                            f"giving up after {failures} consecutive "
                            f"connection failures: {exc}"
                        ) from exc
                    _LOG.warning(
                        "lost coordinator connection; reconnecting",
                        worker=self.name,
                        error=str(exc),
                    )
                    conn.close()
                    summary["reconnects"] += 1
                    conn = self._connect(host, port)
        finally:
            conn.close()
        _LOG.info(
            "worker drained",
            worker=self.name,
            leases=summary["leases"],
            computed=summary["chunks_computed"],
            resent=summary["chunks_resent"],
            reason=summary["drained"],
        )
        return summary

    def _recv(self, conn: FrameSocket) -> dict:
        message = conn.recv()
        if message is None:
            raise ProtocolError("coordinator closed the connection")
        return message

    # -- connection --------------------------------------------------------

    def _connect(self, host: str, port: int) -> FrameSocket:
        """Connect + handshake, backing off between attempts on the
        deterministic :class:`RetryPolicy` schedule."""

        def attempt() -> FrameSocket:
            sock = socket.create_connection(
                (host, int(port)), timeout=_CONNECT_TIMEOUT
            )
            conn = FrameSocket(sock)
            conn.settimeout(30.0)
            try:
                conn.send(
                    msg_hello(
                        self.name,
                        self.manifest["fingerprint"],
                        self.identity,
                        self.weights,
                        trace=get_tracer().inject(),
                    )
                )
                reply = conn.recv()
            except BaseException:
                conn.close()
                raise
            if reply is None:
                conn.close()
                raise ProtocolError("coordinator closed during handshake")
            if reply["type"] == "refuse":
                conn.close()
                raise IntegrityError(
                    f"coordinator refused worker {self.name!r}: "
                    f"{reply.get('reason', 'no reason given')}"
                )
            if reply["type"] != "welcome" or reply.get("proto") != PROTOCOL_VERSION:
                conn.close()
                raise ProtocolError(
                    f"bad handshake reply {reply.get('type')!r} "
                    f"(proto {reply.get('proto')!r})"
                )
            # a hung coordinator should look like a lost one well before
            # our own lease could have expired twice over
            conn.settimeout(max(10.0, 4.0 * float(reply.get("lease_ttl", 5.0))))
            self._welcome_trace = Tracer.extract(reply)
            return conn

        for attempt_no in range(self.retry.max_retries + 1):
            try:
                return attempt()
            except (OSError, ProtocolError) as exc:
                if attempt_no == self.retry.max_retries:
                    raise ProtocolError(
                        f"could not reach coordinator at {host}:{port} after "
                        f"{self.retry.max_retries + 1} attempts: {exc}"
                    ) from exc
                _LOG.debug(
                    "coordinator unreachable; backing off",
                    worker=self.name,
                    attempt=attempt_no,
                    error=str(exc),
                )
                time.sleep(self.retry.delay(attempt_no))
        raise AssertionError("unreachable")  # pragma: no cover

    # -- lease handling ----------------------------------------------------

    def _serve_lease(self, conn: FrameSocket, lease: dict, summary: dict) -> None:
        # a malformed lease is the coordinator's protocol fault: the
        # worker reconnects, as for any other, instead of dying
        try:
            lease_id = int(lease["lease"])
            ttl = float(lease.get("ttl", 15.0))
            chunk_ids = [int(c) for c in lease.get("chunks", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed lease {lease!r}: {exc!r}") from None
        if len(set(chunk_ids)) != len(chunk_ids):
            raise ProtocolError(f"lease {lease_id} names a chunk twice: {chunk_ids}")
        for chunk in chunk_ids:
            if not 0 <= chunk < len(self.chunk_run.chunks):
                raise ProtocolError(f"leased unknown chunk {chunk}")
        heartbeat = _Heartbeat(conn, lease_id, ttl)
        try:
            tracer = get_tracer()
            lease_ctx = Tracer.extract(lease) or self._welcome_trace
            with tracer.span(
                "worker.lease",
                remote_parent=lease_ctx,
                worker=self.name,
                lease=lease_id,
                chunks=chunk_ids,
            ):
                to_compute = [c for c in chunk_ids if c not in self._local]
                if to_compute:
                    self._compute(to_compute)
                    summary["chunks_computed"] += len(to_compute)
                summary["chunks_resent"] += len(chunk_ids) - len(to_compute)
            for chunk in chunk_ids:
                entry = self._local[chunk]
                data = self._journal.load(entry)
                spans, cursor = tracer.dicts_since(self._span_cursor)
                conn.send(
                    msg_result(
                        lease_id, chunk, entry, encode_artifact(data), spans=spans
                    )
                )
                self._span_cursor = cursor
                ack = self._recv(conn)
                if ack["type"] != "result_ack" or ack.get("chunk") != chunk:
                    raise ProtocolError(
                        f"expected ack for chunk {chunk}, got {ack!r}"
                    )
                status = str(ack.get("status", "unknown"))
                summary["results"][status] = summary["results"].get(status, 0) + 1
                if status == "rejected":
                    _LOG.error(
                        "coordinator rejected a result",
                        worker=self.name,
                        chunk=chunk,
                    )
        finally:
            heartbeat.stop()

    def _compute(self, chunk_ids: "list[int]") -> None:
        """The single-host supervised-pool path, locally
        (worker-side commit into the local journal, quarantine → lossless
        rerun) over the leased chunks, with the pool's default retry
        budget and no per-chunk deadline.  No ``AuditRecord`` leaves this
        process: the coordinator audits each chunk as it replays it."""
        _summary, outcomes = run_supervised(
            self.chunk_run, chunk_ids, self._journal, workers=self.workers, label=self.name
        )
        self._local.update(
            (index, outcome.committed) for index, outcome in outcomes.items()
        )
