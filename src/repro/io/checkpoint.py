"""Durable checkpoint journal for resumable chunked runs.

A checkpoint is a directory:

```
<checkpoint>/
  manifest.json        # run identity: plan fingerprint + chunk digests
  journal.jsonl        # one record per certified-complete chunk (append-only)
  chunks/
    chunk-0000.rblob   # the chunk's serialized blob (CRC32-sealed), nothing else
    ...
```

Outputs and reference outputs are not stored: they are a function of
the blob, the input chunk (whose digest the manifest pins) and the model,
so replay decodes the blob, runs both forwards and cross-checks the
journaled ``certificate``.

Durability model, weakest link first:

* ``manifest.json`` is written atomically (temp + fsync + rename) before
  any chunk work starts, so a resumed run can always verify it is
  resuming *the same computation* — same plan decisions, same codec and
  tolerances, same chunking, same input bytes (per-chunk BLAKE2b
  digests).  Any mismatch is an :class:`~repro.exceptions.IntegrityError`:
  silently mixing results from two different runs is exactly the failure
  mode checkpointing exists to prevent.
* Chunk artifacts are written atomically **before** their journal line,
  and each journal line carries the artifact's digest.  The journal is
  therefore the commit record: an artifact without a journal line is
  invisible (recomputed), a journal line whose artifact is missing or
  corrupt is ignored (recomputed), and so is one that is not an object,
  names another artifact than ``chunks/chunk-NNNN.rblob`` of its own chunk
  or another input digest than the manifest's for that chunk.  A torn
  journal line — the signature of a writer killed mid-append — is
  dropped by :func:`~repro.io.serialization.read_jsonl_records`, also
  once a resumed run has appended after it.  At every kill point the
  journal describes only fully-persisted work.
* Whoever computed a chunk commits it: pool workers write their own
  artifact and journal line (whole-line ``O_APPEND`` writes, per-process
  temp files), so the model above holds per writer.  A chunk committed
  twice (a retry after the parent rejected the first result) overwrites
  the artifact; of two lines only the one whose digest still verifies
  replays.

Nothing here knows about pipelines; the journal stores bytes and JSON
entries.  :meth:`InferencePipeline.execute_chunked
<repro.core.pipeline.InferencePipeline.execute_chunked>` composes it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from ..exceptions import ConfigurationError, IntegrityError
from ..obs import get_logger, get_tracer, json_default
from .serialization import append_jsonl, atomic_write_bytes, atomic_write_json, read_jsonl_records

__all__ = ["CheckpointJournal", "digest_bytes", "digest_array", "digest_model"]

_LOG = get_logger("checkpoint")

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_CHUNK_DIR = "chunks"
#: 5 measured an image sample's input L2 error per pixel, 4 also kept the
#: audit's record, timings and task seconds, 3 loose error keys, 2 also
#: outputs, 1 reference outputs too
_FORMAT_VERSION = 6


def digest_bytes(data: bytes) -> str:
    """Short BLAKE2b hex digest used for all checkpoint integrity checks."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def digest_array(array: np.ndarray) -> str:
    """Digest of an array's contiguous bytes (dtype+shape prefixed, so
    identical bytes under different views don't collide)."""
    array = np.ascontiguousarray(array)
    state = hashlib.blake2b(digest_size=16)
    state.update(f"{array.dtype.str}:{array.shape}:".encode("utf-8"))
    state.update(array.reshape(-1).view(np.uint8))  # a view: no copy of the chunk
    return state.hexdigest()


def _artifact_rel(index: int) -> str:
    """Where chunk ``index``'s artifact lives, relative to the checkpoint."""
    return os.path.join(_CHUNK_DIR, f"chunk-{index:04d}.rblob")


def digest_model(model) -> str:
    """Digest of a model's parameter tensors, in registration order.

    Two processes that load "the same" weights can only exchange chunk
    results if this digest agrees — the plan fingerprint covers the
    format and tolerances but not the weight *values*, and a coordinator
    merging results computed against different weights would certify a
    computation nobody ran.
    """
    state = hashlib.blake2b(digest_size=16)
    for name, parameter in model.named_parameters():
        data = np.ascontiguousarray(parameter.data)
        state.update(f"{name}:{data.dtype.str}:{data.shape}:".encode("utf-8"))
        state.update(data.tobytes())
    return state.hexdigest()


class CheckpointJournal:
    """Append-only journal of certified-complete chunks in a directory.

    A chunk's artifact is its serialized blob and nothing else (format
    version 6; a directory of an earlier version is refused on resume):
    whoever replays it decodes the blob and recomputes the outputs.

    Lifecycle::

        journal = CheckpointJournal(path)
        completed = journal.begin(manifest, resume=True)  # {} when fresh
        for index not in completed: ...compute...
            journal.record(index, blob_bytes=b, entry={...})
        blob_bytes = journal.load(completed[index])       # replay input
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ConfigurationError("checkpoint path must be non-empty")
        self.path = os.path.abspath(path)
        self.manifest_path = os.path.join(self.path, _MANIFEST)
        self.journal_path = os.path.join(self.path, _JOURNAL)
        self.chunk_dir = os.path.join(self.path, _CHUNK_DIR)
        self._manifest: "dict | None" = None
        # artifact bytes _replay verified, by (chunk, digest), until
        # load hands them out: a resume reads and digests each
        # file once, and a line naming another chunk's digest is no hit
        self._verified: "dict[tuple, bytes]" = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(self, manifest: dict, resume: bool = False) -> "dict[int, dict]":
        """Open the checkpoint; returns completed entries by chunk index.

        ``manifest`` must carry ``fingerprint`` (plan/codec/chunking
        identity) and ``chunk_digests`` (input digest per chunk index).
        Fresh start (``resume=False``) discards any previous journal for
        this directory.  Resume validates the stored manifest against
        the supplied one and replays only journal entries whose artifact
        digests verify (the first ``load`` of each is served those bytes).
        """
        if "fingerprint" not in manifest or "chunk_digests" not in manifest:
            raise ConfigurationError(
                "checkpoint manifest requires 'fingerprint' and 'chunk_digests'"
            )
        manifest = dict(manifest)
        manifest["format_version"] = _FORMAT_VERSION
        os.makedirs(self.chunk_dir, exist_ok=True)
        tracer = get_tracer()

        if resume and os.path.exists(self.manifest_path):
            with tracer.span("checkpoint.resume", path=self.path) as span:
                stored = self._read_manifest()
                self._check_compatible(stored, manifest)
                self._manifest = stored
                completed = self._replay()
                span.set(completed=len(completed))
            _LOG.info(
                "resuming from checkpoint",
                path=self.path,
                completed=len(completed),
                total=len(manifest["chunk_digests"]),
            )
            return completed

        # fresh start: drop stale state from any previous run
        if os.path.exists(self.journal_path):
            os.unlink(self.journal_path)
        for name in os.listdir(self.chunk_dir):
            os.unlink(os.path.join(self.chunk_dir, name))
        atomic_write_json(self.manifest_path, manifest)
        self._manifest = manifest
        return {}

    def _read_manifest(self) -> dict:
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                stored = json.load(handle)
        except ValueError as exc:
            raise IntegrityError(
                f"checkpoint manifest {self.manifest_path!r} is corrupt: {exc}"
            ) from exc
        if not isinstance(stored, dict):
            raise IntegrityError("checkpoint manifest is not a JSON object")
        return stored

    @staticmethod
    def _check_compatible(stored: dict, manifest: dict) -> None:
        if stored.get("format_version") != _FORMAT_VERSION:
            raise IntegrityError(
                f"checkpoint format version {stored.get('format_version')!r} "
                f"does not match {_FORMAT_VERSION}"
            )
        if stored.get("fingerprint") != manifest["fingerprint"]:
            raise IntegrityError(
                "checkpoint belongs to a different run: plan/codec/chunking "
                "fingerprint mismatch — refusing to mix results. Use a fresh "
                "checkpoint directory (or resume=False) for the new plan."
            )
        if stored.get("chunk_digests") != manifest["chunk_digests"]:
            raise IntegrityError(
                "checkpoint input digests do not match the supplied fields: "
                "the data changed since the checkpoint was written"
            )

    def _replay(self) -> "dict[int, dict]":
        """Validated journal entries, one per chunk index.

        Duplicate entries for a chunk — the normal shape after merging
        journals from reassigned shards, or after a crash between the
        artifact write and the journal append — resolve last-wins *only
        when their artifact digests agree* (the entries describe the
        same certified bytes, so the later metadata is at least as
        fresh).  A duplicate whose digest disagrees with the entry
        already replayed is a conflict: the on-disk artifact can only
        match one of them, so the already-verified entry is kept and the
        conflicting one dropped with a warning.
        """
        digests = self._manifest["chunk_digests"]
        completed: dict[int, dict] = {}
        dropped = 0
        conflicts = 0
        for entry in read_jsonl_records(self.journal_path):
            index = entry.get("chunk") if isinstance(entry, dict) else None
            if (
                type(index) is not int  # a JSON integer; true is no chunk
                or not 0 <= index < len(digests)
                or entry.get("input_digest") != digests[index]
                or entry.get("artifact") != _artifact_rel(index)
                or not isinstance(entry.get("artifact_digest"), str)
            ):
                dropped += 1
                continue
            previous = completed.get(index)
            if previous is not None and (
                entry.get("artifact_digest") != previous.get("artifact_digest")
            ):
                conflicts += 1
                continue
            try:
                data = self.load(entry)
            except (OSError, IntegrityError):
                dropped += 1
                continue
            completed[index] = entry
            self._verified[index, entry["artifact_digest"]] = data
        if dropped:
            _LOG.warning(
                "dropped unverifiable journal entries; their chunks will be "
                "recomputed",
                dropped=dropped,
            )
        if conflicts:
            _LOG.warning(
                "journal holds conflicting duplicate entries; kept the first "
                "verified entry per chunk",
                conflicts=conflicts,
            )
        return completed

    # -- writes ------------------------------------------------------------

    def record(self, index: int, *, blob_bytes: bytes, entry: dict) -> dict:
        """Persist one completed chunk: artifact first, then journal line.

        The artifact is ``blob_bytes`` verbatim, so a coordinator adopting
        a remote worker's bytes writes the journal the worker wrote
        locally — digests computed on either side agree by construction.
        Returns the journal entry as written (with artifact path and
        digest filled in).
        """
        if self._manifest is None:
            raise ConfigurationError("CheckpointJournal.record before begin()")
        tracer = get_tracer()
        with tracer.span("checkpoint.record", chunk=index):
            artifact_rel = _artifact_rel(index)
            atomic_write_bytes(os.path.join(self.path, artifact_rel), blob_bytes)
            entry = dict(entry)
            entry["chunk"] = int(index)
            entry["artifact"] = artifact_rel
            entry["artifact_digest"] = digest_bytes(blob_bytes)
            append_jsonl(self.journal_path, entry, default=json_default)
        return entry

    # -- reads -------------------------------------------------------------

    def load(self, entry: dict) -> bytes:
        """One journal entry's blob bytes, verbatim and digest-verified; they
        are read from where :meth:`record` writes the entry's chunk, never
        from a path the entry names."""
        data = self._verified.pop((entry["chunk"], entry.get("artifact_digest")), None)
        if data is not None:
            return data
        artifact = os.path.join(self.path, _artifact_rel(entry["chunk"]))
        with open(artifact, "rb") as handle:
            data = handle.read()
        if digest_bytes(data) != entry.get("artifact_digest"):
            raise IntegrityError(
                f"checkpoint artifact {artifact!r} digest mismatch: file "
                "changed since it was journaled"
            )
        return data

    def entries(self) -> "list[dict]":
        """Every raw journal record (newest last); for inspection/tests."""
        return read_jsonl_records(self.journal_path)
