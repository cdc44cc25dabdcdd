"""Wire protocol for distributed shard scheduling.

Frames are length-prefixed UTF-8 JSON: a 4-byte big-endian payload
length followed by one JSON object.  JSON keeps every message
inspectable with ``tcpdump``/``nc`` during an incident; the length
prefix makes framing trivial and torn connections unambiguous (a
connection that dies mid-frame raises :class:`ProtocolError` instead of
yielding half a message).

Message flow (worker-initiated, one request in flight per worker)::

    worker                          coordinator
      | -- HELLO(fingerprint) -->       |    versioned handshake
      | <-- WELCOME / REFUSE --         |
      | -- LEASE_REQUEST -->            |
      | <-- LEASE / WAIT / DRAIN --     |
      | -- HEARTBEAT(lease) -->         |    one-way, no reply
      | -- RESULT(chunk, entry) -->     |
      | <-- RESULT_ACK(status) --       |
      | ...                             |
      | <-- DRAIN --                    |    run complete / shutting down

Trace context rides the same frames: HELLO carries the worker's local
context (diagnostic), WELCOME and LEASE carry the coordinator's
``{"trace_id", "parent_span_id"}`` so worker-side spans parent under the
coordinator's serve span, and RESULT carries the worker's spans finished
since its last delivered RESULT back for
:meth:`~repro.obs.trace.Tracer.merge_remote` to stitch into the
coordinator's trace.  All telemetry fields are optional — an untraced
peer simply omits them.

The HELLO carries the plan fingerprint, the manifest digest (fingerprint
+ per-chunk input digests) and the model-weights digest, so two peers
can only exchange work when they agree on *the exact same computation* —
the same identity check :class:`~repro.io.checkpoint.CheckpointJournal`
enforces on resume.  Heartbeats are deliberately fire-and-forget: every
other request gets exactly one reply, so the client never has to
demultiplex interleaved responses.

Chunk artifacts (a chunk's serialized blob, the bytes its journal
stores) travel base64-encoded inside RESULT frames.
That is a ~33 % size tax, accepted for single-format simplicity; the
coordinator re-digests the decoded bytes, so transport corruption is
caught end-to-end regardless of encoding.
"""

from __future__ import annotations

import base64
import binascii
import json
import socket
import struct
import threading

from ..exceptions import ProtocolError
from ..obs import json_default

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FrameSocket",
    "encode_artifact",
    "decode_artifact",
    "fingerprints_equal",
    "manifest_identity",
    "msg_hello",
    "msg_welcome",
    "msg_refuse",
    "msg_lease_request",
    "msg_lease",
    "msg_wait",
    "msg_heartbeat",
    "msg_result",
    "msg_result_ack",
    "msg_drain",
]

#: bump on any incompatible message-shape change; HELLO/WELCOME carry it
#: (v2: optional trace/spans telemetry fields; v3: no METRICS frame;
#: v4: RESULT artifacts are blob bytes, not npz archives of outputs + blob;
#: v5: a RESULT entry carries one ``certificate``, not loose error keys;
#: v6: a RESULT entry holds only what replay reads, no audit or timings;
#: v7: an image sample's certified input L2 error is its own, not per pixel)
PROTOCOL_VERSION = 7

_LENGTH = struct.Struct("!I")

#: hard ceiling on one frame — far above any sane chunk artifact, far
#: below anything that could exhaust memory from a single bad length
MAX_FRAME_BYTES = 1 << 30

_MESSAGE_TYPES = frozenset(
    {
        "hello",
        "welcome",
        "refuse",
        "lease_request",
        "lease",
        "wait",
        "heartbeat",
        "result",
        "result_ack",
        "drain",
    }
)


def encode_artifact(data: bytes) -> str:
    """Chunk artifact bytes -> JSON-safe base64 text."""
    return base64.b64encode(bytes(data)).decode("ascii")


def decode_artifact(text: str) -> bytes:
    """Base64 text -> artifact bytes; malformed input is a protocol error."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, AttributeError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"malformed artifact encoding: {exc}") from exc


def fingerprints_equal(left: dict, right: dict) -> bool:
    """Order-insensitive structural equality of two plan fingerprints."""
    try:
        return json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)
    except (TypeError, ValueError):
        return False


def manifest_identity(manifest: dict) -> str:
    """Digest naming the exact computation a manifest describes.

    Covers the plan fingerprint *and* every per-chunk input digest, so
    two peers whose HELLO/WELCOME identities agree are provably chunking
    the same bytes under the same plan — the precondition for merging
    their results at all.
    """
    from ..io.checkpoint import digest_bytes

    payload = json.dumps(
        {
            "fingerprint": manifest.get("fingerprint"),
            "chunk_digests": manifest.get("chunk_digests"),
        },
        sort_keys=True,
    ).encode("utf-8")
    return digest_bytes(payload)


class FrameSocket:
    """Length-prefixed JSON framing over one TCP socket.

    Sends are serialized under a lock so the heartbeat thread and the
    result-submitting thread can share the connection; receives are
    single-threaded by construction (one reader per connection).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - not every transport has it
            pass

    @property
    def peer(self) -> str:
        try:
            name = self._sock.getpeername()
        except OSError:
            return "<disconnected>"
        if isinstance(name, tuple) and len(name) >= 2:
            return f"{name[0]}:{name[1]}"
        return str(name) or "<unnamed>"

    def settimeout(self, seconds: "float | None") -> None:
        self._sock.settimeout(seconds)

    def send(self, message: dict) -> None:
        data = json.dumps(
            message, separators=(",", ":"), default=json_default
        ).encode("utf-8")
        if len(data) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"refusing to send a {len(data)}-byte frame "
                f"(limit {MAX_FRAME_BYTES})"
            )
        frame = _LENGTH.pack(len(data)) + data
        with self._send_lock:
            self._sock.sendall(frame)

    def recv(self) -> "dict | None":
        """One message, or ``None`` on a clean EOF between frames.

        A connection that closes *inside* a frame, an oversized length,
        undecodable JSON or an unknown message type all raise
        :class:`ProtocolError` — a peer that garbles the stream is
        indistinguishable from a hostile one and is treated the same.
        """
        header = self._recv_exact(_LENGTH.size, eof_ok=True)
        if header is None:
            return None
        (length,) = _LENGTH.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
            )
        data = self._recv_exact(length, eof_ok=False)
        try:
            message = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"undecodable frame from {self.peer}: {exc}") from exc
        if not isinstance(message, dict):
            raise ProtocolError(f"frame from {self.peer} is not a JSON object")
        if message.get("type") not in _MESSAGE_TYPES:
            raise ProtocolError(
                f"unknown message type {message.get('type')!r} from {self.peer}"
            )
        return message

    def _recv_exact(self, n: int, eof_ok: bool) -> "bytes | None":
        buffer = bytearray()
        while len(buffer) < n:
            chunk = self._sock.recv(n - len(buffer))
            if not chunk:
                if eof_ok and not buffer:
                    return None
                raise ProtocolError(
                    f"connection to {self.peer} closed mid-frame "
                    f"({len(buffer)}/{n} bytes)"
                )
            buffer += chunk
        return bytes(buffer)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close best-effort
            pass


# -- message constructors ---------------------------------------------------
# Plain dicts, not classes: the wire format *is* the schema, and keeping
# construction next to the field names makes protocol drift reviewable.


def msg_hello(
    worker: str,
    fingerprint: dict,
    manifest_digest: str,
    weights: "str | None",
    trace: "dict | None" = None,
) -> dict:
    message = {
        "type": "hello",
        "proto": PROTOCOL_VERSION,
        "worker": worker,
        "fingerprint": fingerprint,
        "manifest_digest": manifest_digest,
        "weights": weights,
    }
    if trace:
        message["trace"] = trace
    return message


def msg_welcome(
    coordinator: str, n_chunks: int, lease_ttl: float, trace: "dict | None" = None
) -> dict:
    message = {
        "type": "welcome",
        "proto": PROTOCOL_VERSION,
        "coordinator": coordinator,
        "n_chunks": int(n_chunks),
        "lease_ttl": float(lease_ttl),
    }
    if trace:
        message["trace"] = trace
    return message


def msg_refuse(reason: str) -> dict:
    return {"type": "refuse", "reason": reason}


def msg_lease_request() -> dict:
    return {"type": "lease_request"}


def msg_lease(
    lease_id: int, chunks: "list[int]", ttl: float, trace: "dict | None" = None
) -> dict:
    message = {
        "type": "lease",
        "lease": int(lease_id),
        "chunks": [int(c) for c in chunks],
        "ttl": float(ttl),
    }
    if trace:
        message["trace"] = trace
    return message


def msg_wait(seconds: float) -> dict:
    return {"type": "wait", "seconds": float(seconds)}


def msg_heartbeat(lease_id: int) -> dict:
    return {"type": "heartbeat", "lease": int(lease_id)}


def msg_result(
    lease_id: int, chunk: int, entry: dict, artifact: str, spans: "list | None" = None
) -> dict:
    message = {
        "type": "result",
        "lease": int(lease_id),
        "chunk": int(chunk),
        "entry": entry,
        "artifact": artifact,
    }
    if spans:
        message["spans"] = spans
    return message


def msg_result_ack(chunk: int, status: str) -> dict:
    return {"type": "result_ack", "chunk": int(chunk), "status": status}


def msg_drain(reason: str) -> dict:
    return {"type": "drain", "reason": reason}
