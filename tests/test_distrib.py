"""Distributed shard coordination suite: wire protocol, lease
scheduling, result intake, reassignment after a lost connection, and the
run identity a coordinator and its workers share.

The contract under test: a run sharded over loopback TCP workers
produces results bit-identical to the serial run, and a lost worker
connection costs a lease (reassigned), never a chunk (lost or doubled).
"""

import itertools
import json
import os
import shutil
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.chunked import ChunkRun, resolve_executor, split_chunks
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.distrib import (
    PROTOCOL_VERSION,
    DistribConfig,
    FrameSocket,
    ShardCoordinator,
    ShardWorker,
    decode_artifact,
    encode_artifact,
    fingerprints_equal,
    manifest_identity,
)
from repro.distrib import coordinator as coordinator_module
from repro.distrib.protocol import (
    _MESSAGE_TYPES,
    msg_hello,
    msg_lease_request,
    msg_result,
)
from repro.exceptions import (
    ConfigurationError,
    IntegrityError,
    PlanningError,
    ProtocolError,
)
from repro.io import (
    CheckpointJournal,
    append_jsonl,
    blob_from_bytes,
    blob_to_bytes,
    digest_array,
    digest_bytes,
)
from repro.io.checkpoint import digest_model
from repro.perf.parallel import resolve_workers, usable_cpus
from repro.resilience import CHAOS_ENV_VAR, ChaosInjector, RetryPolicy, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="shard workers use the fork-based supervised pool"
)

#: fast deterministic connect backoff so reconnect tests never dawdle
FAST_CONNECT = RetryPolicy(max_retries=6, base_delay=0.02, max_delay=0.2, jitter=0.0)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Tests control chaos explicitly; the environment must not leak in."""
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)


# -- wire protocol ----------------------------------------------------------


def _framed_pair():
    """One framed end and one raw end of an in-process socket pair."""
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return FrameSocket(left), right


def test_frame_roundtrip():
    a_sock, b_sock = socket.socketpair()
    a, b = FrameSocket(a_sock), FrameSocket(b_sock)
    message = msg_result(3, 1, {"input_digest": "ab"}, encode_artifact(b"\x00\x01"))
    a.send(message)
    assert b.recv() == message
    a.close()
    assert b.recv() is None  # clean EOF between frames
    b.close()


def test_recv_rejects_mid_frame_close():
    framed, raw = _framed_pair()
    raw.sendall(struct.pack("!I", 10) + b"abc")
    raw.close()
    with pytest.raises(ProtocolError, match="mid-frame"):
        framed.recv()
    framed.close()


def test_recv_rejects_oversized_frame():
    framed, raw = _framed_pair()
    raw.sendall(struct.pack("!I", (1 << 30) + 1))
    with pytest.raises(ProtocolError, match="limit"):
        framed.recv()
    framed.close()
    raw.close()


def test_recv_rejects_undecodable_json():
    framed, raw = _framed_pair()
    payload = b"{not json"
    raw.sendall(struct.pack("!I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="undecodable"):
        framed.recv()
    framed.close()
    raw.close()


def test_recv_rejects_unknown_message_type():
    framed, raw = _framed_pair()
    payload = b'{"type": "bogus"}'
    raw.sendall(struct.pack("!I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="unknown message type"):
        framed.recv()
    framed.close()
    raw.close()


def test_artifact_encoding_roundtrip():
    data = bytes(range(256))
    assert decode_artifact(encode_artifact(data)) == data
    with pytest.raises(ProtocolError):
        decode_artifact("not base64 !!")


def test_fingerprints_equal_is_order_insensitive():
    assert fingerprints_equal({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not fingerprints_equal({"a": 1}, {"a": 2})


def test_manifest_identity_covers_digests():
    base = {"fingerprint": {"codec": "sz"}, "chunk_digests": ["aa", "bb"]}
    assert manifest_identity(base) == manifest_identity(dict(base))
    assert manifest_identity(base) != manifest_identity(
        {"fingerprint": {"codec": "sz"}, "chunk_digests": ["aa", "cc"]}
    )


#: a two-chunk manifest and one certified RESULT for chunk 0, built
#: without a pipeline: the coordinator checks digests, not arrays
_ARTIFACT = bytes(range(48)) * 2
_FUZZ_MANIFEST = {
    "fingerprint": {"codec": "test"},
    "chunk_digests": [digest_bytes(b"chunk-0"), digest_bytes(b"chunk-1")],
}
_RESULT = msg_result(
    7, 0,
    {
        "input_digest": _FUZZ_MANIFEST["chunk_digests"][0],
        "attempts": 1,
        "quarantined": False,
        "certificate": {
            "norm": "linf", "qoi_tolerance": 0.01, "fmt": "fp16", "quant_bound": 0.002,
            "input_tolerance": 0.001, "codec_tolerance": 0.001, "qoi_error": 0.004,
            "input_error_linf": 0.0009, "input_error_l2_max": 0.002, "codec_error": 0.0009,
        },
        "chunk": 0,
        "artifact": "chunks/chunk-0000.rblob",
        "artifact_digest": digest_bytes(_ARTIFACT),
    },
    encode_artifact(_ARTIFACT),
)
_RESULT_BYTES = json.dumps(_RESULT, separators=(",", ":")).encode("utf-8")
_RESULT_FRAME = struct.pack("!I", len(_RESULT_BYTES)) + _RESULT_BYTES


def test_wire_protocol_is_pinned():
    """Protocol v7: these message types, listed literally.  The v2
    METRICS frame is now an unknown type."""
    assert PROTOCOL_VERSION == 7
    assert _MESSAGE_TYPES == {
        "hello", "welcome", "refuse", "lease_request", "lease", "wait",
        "heartbeat", "result", "result_ack", "drain",
    }
    framed, raw = _framed_pair()
    payload = b'{"type": "metrics", "worker": "w0"}'
    raw.sendall(struct.pack("!I", len(payload)) + payload)
    with pytest.raises(ProtocolError, match="unknown message type 'metrics'"):
        framed.recv()
    framed.close()
    raw.close()


@pytest.mark.parametrize("proto", [2, 3, 4, 5, 6])
def test_an_older_worker_is_refused_at_hello(proto):
    """A v2 worker may send METRICS frames, a v3 worker sends npz
    artifacts of outputs + blob, which a v7 coordinator would journal as
    blobs, a v4 worker's RESULT entries carry loose error keys where a
    v7 one carries a certificate, a v5 worker's carry the audit's record
    and timings a v7 coordinator would journal unread, and a v6 worker
    certifies an image sample's input L2 error per pixel: each HELLO is
    refused, both versions named, before any RESULT."""
    coordinator = ShardCoordinator(_FUZZ_MANIFEST)
    worker_end, coordinator_end = socket.socketpair()
    worker = FrameSocket(worker_end)
    worker.settimeout(5.0)
    hello = msg_hello(
        "old", _FUZZ_MANIFEST["fingerprint"], manifest_identity(_FUZZ_MANIFEST), None
    )
    worker.send(dict(hello, proto=proto))
    assert coordinator._handshake(FrameSocket(coordinator_end)) is None
    assert worker.recv() == {"type": "refuse", "reason": f"protocol version {proto} != 7"}
    assert coordinator.summary("refused")["handshake_refused"] == 1
    worker.close()
    coordinator_end.close()


@settings(max_examples=150, deadline=None)
@given(
    cut=st.one_of(st.none(), st.integers(0, len(_RESULT_FRAME))),
    flips=st.lists(st.integers(0, 8 * len(_RESULT_FRAME) - 1), max_size=4),
)
@example(cut=None, flips=[])
def test_a_damaged_result_frame_never_journals_other_bytes(cut, flips):
    """A RESULT frame truncated and bit-flipped on its way through
    ``FrameSocket.recv`` into the coordinator's result intake ends in a
    ``ProtocolError``, an ``IntegrityError``, a clean end of stream at a
    frame boundary, or chunk 0 accepted with its own bytes — never in
    other bytes held for replay.  The undamaged frame is accepted."""
    frame = bytearray(_RESULT_FRAME)
    for bit in flips:
        frame[bit // 8] ^= 1 << (bit % 8)
    if cut is not None:
        frame = frame[:cut]
    sender, receiver = socket.socketpair()
    receiver.settimeout(5.0)
    sender.sendall(bytes(frame))
    sender.close()
    framed = FrameSocket(receiver)
    coordinator = ShardCoordinator(_FUZZ_MANIFEST)
    try:
        while (message := framed.recv()) is not None:
            if message["type"] != "result":
                raise ProtocolError(f"unexpected {message['type']!r}")
            assert coordinator._handle_result("fuzz", message) == "accepted"
    except (ProtocolError, IntegrityError):
        pass
    finally:
        framed.close()
    assert set(coordinator.accepted) <= {0}
    if cut is None and not flips:
        assert set(coordinator.accepted) == {0}
    for index, entry in coordinator.accepted.items():
        assert entry["chunk"] == index == 0
        assert coordinator.payload(index) == _ARTIFACT


@pytest.mark.parametrize("entry", [
    dict(_RESULT["entry"], audit={"verdict": "VIOLATION", "qoi_tightness": 123.0}),
    dict(_RESULT["entry"], note="computed elsewhere"),
    {key: value for key, value in _RESULT["entry"].items() if key != "attempts"},
    dict(_RESULT["entry"], attempts=0),
    dict(_RESULT["entry"], attempts=True),
    dict(_RESULT["entry"], attempts=1.0),
    dict(_RESULT["entry"], quarantined=0),
], ids=["audit", "note", "no-attempts", "zero-attempts", "bool-attempts", "float-attempts",
        "int-quarantined"])
def test_a_result_entry_names_exactly_what_a_commit_writes(tmp_path, entry):
    """A RESULT entry is a worker's journal line: exactly the keys
    ``ChunkRun.commit`` and ``CheckpointJournal.record`` write, attempts a
    positive int and quarantined a bool.  Anything else is refused before
    it is accepted, and the well-formed entry is accepted key for key."""
    coordinator = ShardCoordinator(_FUZZ_MANIFEST)
    with pytest.raises(IntegrityError, match="chunk 0 result from 'peer'"):
        coordinator._handle_result("peer", dict(_RESULT, entry=entry))
    assert not coordinator.accepted
    assert coordinator._handle_result("peer", _RESULT) == "accepted"
    assert coordinator.accepted == {0: _RESULT["entry"]}
    assert coordinator.payload(0) == _ARTIFACT


# -- split_chunks / config validation ---------------------------------------


def test_split_chunks_covers_fields():
    fields = np.arange(60, dtype=np.float32).reshape(5, 12)
    chunks = split_chunks(fields, 5, chunk_axis=1)
    assert [c.shape for c in chunks] == [(5, 5), (5, 5), (5, 2)]
    assert np.array_equal(np.concatenate(chunks, axis=1), fields)


def test_split_chunks_rejects_bad_sizes():
    fields = np.ones((4, 4), dtype=np.float32)
    with pytest.raises(PlanningError):
        split_chunks(fields, 0)
    with pytest.raises(PlanningError):
        split_chunks(np.ones((0, 4), dtype=np.float32), 2)


@pytest.mark.parametrize("kwargs", [{"expect_workers": -1}, {"worker_wait": -1.0}])
def test_distrib_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        DistribConfig(**kwargs)


# -- journal replay of duplicate entries --------------------------------------


def _tiny_journal(path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    digest = digest_array(arr)
    manifest = {"fingerprint": {"codec": "test"}, "chunk_digests": [digest]}
    journal = CheckpointJournal(str(path))
    journal.begin(manifest)
    entry = journal.record(
        0, blob_bytes=b"blob-bytes", entry={"input_digest": digest, "attempts": 1}
    )
    return journal, manifest, entry


def test_replay_duplicate_with_equal_digest_is_last_wins(tmp_path):
    journal, manifest, entry = _tiny_journal(tmp_path)
    append_jsonl(journal.journal_path, dict(entry, attempts=7))
    completed = CheckpointJournal(str(tmp_path)).begin(manifest, resume=True)
    # same certified bytes, so the later (fresher) metadata wins
    assert completed[0]["attempts"] == 7


def test_replay_conflicting_duplicate_keeps_first_verified(tmp_path):
    journal, manifest, entry = _tiny_journal(tmp_path)
    append_jsonl(
        journal.journal_path, dict(entry, attempts=9, artifact_digest="0" * 32)
    )
    completed = CheckpointJournal(str(tmp_path)).begin(manifest, resume=True)
    # the artifact on disk can only match one digest: first verified wins
    assert completed[0]["attempts"] == 1
    assert completed[0]["artifact_digest"] == entry["artifact_digest"]


def test_a_merged_record_adopts_bytes_verbatim(tmp_path):
    """``record`` stores the bytes it is given verbatim: two journals that
    record the same bytes hold the same artifact under the same digest."""
    journal, manifest, entry = _tiny_journal(tmp_path / "a")
    with open(f"{journal.path}/{entry['artifact']}", "rb") as handle:
        data = handle.read()
    assert data == b"blob-bytes"
    other = CheckpointJournal(str(tmp_path / "b"))
    other.begin(manifest)
    merged = other.record(
        0, blob_bytes=data, entry={"input_digest": manifest["chunk_digests"][0]}
    )
    assert merged["artifact_digest"] == entry["artifact_digest"]
    with open(f"{other.path}/{merged['artifact']}", "rb") as handle:
        assert handle.read() == data


# -- executor resolution (the thread inference executor was removed) ---------


def test_auto_executor_consults_the_cpus_it_may_run_on(monkeypatch):
    """One usable CPU: auto stays serial and "one per CPU" is one worker,
    whatever the host owns; an explicit process request is honoured."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert usable_cpus() == 1
    assert resolve_workers(0) == 1
    assert resolve_executor("auto", 4) == "serial"
    assert resolve_executor("process", 4) == "process"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False)
    assert resolve_workers(0) == 3
    assert resolve_executor("auto", 4) == (
        "process" if fork_available() else "serial"
    )
    # platforms without an affinity mask fall back to the host's count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert resolve_executor("auto", 4) == "serial"


def test_thread_executor_removed_and_auto_never_picked_it(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    expected = "process" if fork_available() else "serial"
    assert resolve_executor("auto", 4) == expected
    assert resolve_executor("auto", 1) == "serial"
    assert resolve_executor("distributed", 1) == "distributed"
    # there is no thread chunk executor (docs/PERFORMANCE.md has the
    # measurement; the one thread left is the reference lane)
    with pytest.raises(ConfigurationError):
        resolve_executor("thread", 4)
    with pytest.raises(ConfigurationError):
        resolve_executor("fancy", 2)


# -- coordinator + worker integration ---------------------------------------


@pytest.fixture(scope="module")
def distrib_setup(trained_spectral_mlp, tmp_path_factory):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    planner = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    serial_dir = tmp_path_factory.mktemp("serial-journal")
    serial = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, workers=1, checkpoint=str(serial_dir)
    )
    manifest = ChunkRun(pipeline, fields, 8, chunk_axis=1).manifest
    return pipeline, fields, serial, manifest, str(serial_dir)


def _run_distributed(
    pipeline,
    fields,
    *,
    n_workers=2,
    expect_workers=0,
    worker_checkpoints=None,
):
    """Distributed run with in-thread worker agents launched on start."""
    summaries, errors, threads = [], [], []

    def launch(coordinator):
        host, port = coordinator.address

        def run_one(index):
            try:
                agent = ShardWorker(
                    pipeline,
                    fields,
                    8,
                    chunk_axis=1,
                    name=f"w{index}",
                    workers=2,
                    connect_retry=FAST_CONNECT,
                    checkpoint=(worker_checkpoints or {}).get(index),
                )
                summaries.append(agent.run(host, port))
            except Exception as exc:  # surfaced by the asserting test
                errors.append(exc)

        for index in range(n_workers):
            thread = threading.Thread(target=run_one, args=(index,), daemon=True)
            threads.append(thread)
            thread.start()

    config = DistribConfig(
        port=0, worker_wait=15.0, expect_workers=expect_workers, on_start=launch
    )
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, executor="distributed", distrib=config
    )
    # the coordinator's shutdown drain sends every agent home; collect
    # their summaries before asserting on them
    for thread in threads:
        thread.join(timeout=15.0)
    assert not any(thread.is_alive() for thread in threads)
    return result, summaries, errors


@needs_fork
def test_distributed_matches_serial(distrib_setup):
    pipeline, fields, serial, _, _ = distrib_setup
    result, summaries, errors = _run_distributed(
        pipeline, fields, n_workers=2, expect_workers=2
    )
    assert errors == []
    assert np.array_equal(result.outputs, serial.outputs)
    assert np.array_equal(result.reference_outputs, serial.reference_outputs)
    distrib = result.extra["distrib"]
    assert distrib["outcome"] == "complete"
    assert distrib["workers_joined"] == 2
    assert distrib["results"]["accepted"] == 4
    assert distrib["results"]["rejected"] == 0
    assert result.extra["chunked"]["requested_executor"] == "distributed"
    assert result.extra["chunked"]["executor"] == "distributed"
    assert len(summaries) == 2
    assert sum(s["chunks_computed"] for s in summaries) == 4
    assert all(s["drained"] for s in summaries)
    assert result.qoi_error("linf") <= pipeline.plan.qoi_tolerance


@needs_fork
def test_a_clean_loopback_run_loses_no_worker_connection(distrib_setup, capsys):
    """The coordinator's shutdown closes connections whose serve threads
    are blocked in ``recv``; the error that wakes them is its own doing,
    not a lost worker, and a clean run logs none."""
    pipeline, fields, serial, _, _ = distrib_setup
    for _ in range(3):
        result, _, errors = _run_distributed(pipeline, fields, n_workers=2, expect_workers=2)
        assert errors == [] and result.extra["distrib"]["outcome"] == "complete"
        assert np.array_equal(result.outputs, serial.outputs)
    assert "worker connection lost" not in capsys.readouterr().err


def _drop_first_result(monkeypatch):
    """The coordinator drops the connection the run's first RESULT arrives
    on, before taking the result in, as it drops any connection whose
    peer breaks the protocol: the lease expires and the chunk is leased
    again."""
    handle_result = ShardCoordinator._handle_result
    calls = itertools.count()

    def dropping(self, worker, message):
        if next(calls) == 0:
            raise ProtocolError("connection dropped after its first RESULT")
        return handle_result(self, worker, message)

    monkeypatch.setattr(ShardCoordinator, "_handle_result", dropping)


@needs_fork
def test_a_dropped_worker_reconnects_and_resends(distrib_setup, monkeypatch):
    """A worker whose connection the coordinator drops after its first
    RESULT reconnects, is leased that chunk again and resends it from its
    own journal instead of recomputing it; the run completes with the
    serial run's outputs and certificate, and no result is refused."""
    pipeline, fields, serial, _, _ = distrib_setup
    _drop_first_result(monkeypatch)
    result, (summary,), errors = _run_distributed(pipeline, fields, n_workers=1)
    assert errors == []
    np.testing.assert_array_equal(result.outputs, serial.outputs)
    np.testing.assert_array_equal(result.reference_outputs, serial.reference_outputs)
    assert result.certificate == serial.certificate
    distrib = result.extra["distrib"]
    assert distrib["outcome"] == "complete"
    assert distrib["results"]["accepted"] == 4
    assert distrib["results"]["conflict"] == distrib["results"]["rejected"] == 0
    assert distrib["leases_expired"] == distrib["leases_reassigned"] == 1
    assert summary["reconnects"] >= 1
    assert summary["chunks_computed"] == 4 and summary["chunks_resent"] == 1
    assert set(summary["results"]) <= {"accepted", "duplicate"}


@needs_fork
def test_distributed_refuses_mismatched_plan_then_degrades(distrib_setup):
    """A worker with a different plan is refused at handshake; with no
    usable workers the coordinator degrades to the local pool."""
    pipeline, fields, serial, _, _ = distrib_setup
    planner = TolerancePlanner(ErrorFlowAnalyzer(pipeline.model))
    other_plan = planner.plan(5e-2, norm="linf", quant_fraction=0.5)
    other = InferencePipeline(pipeline.model, SZCompressor(), other_plan)

    refused = []

    def launch(coordinator):
        host, port = coordinator.address

        def run_one():
            agent = ShardWorker(
                other, fields, 8, chunk_axis=1, name="intruder",
                workers=2, connect_retry=FAST_CONNECT,
            )
            with pytest.raises(IntegrityError, match="refused"):
                agent.run(host, port)
            refused.append(True)

        threading.Thread(target=run_one, daemon=True).start()

    config = DistribConfig(port=0, worker_wait=1.5, on_start=launch)
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, executor="distributed", distrib=config
    )
    assert refused == [True]
    distrib = result.extra["distrib"]
    assert distrib["outcome"] == "no_workers"
    assert distrib["handshake_refused"] == 1
    # degradation finished the run locally, bit-identical anyway
    assert np.array_equal(result.outputs, serial.outputs)
    assert "supervision" in result.extra


@needs_fork
def test_distributed_no_workers_degrades_local(distrib_setup):
    pipeline, fields, serial, _, _ = distrib_setup
    config = DistribConfig(port=0, worker_wait=0.3)
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, executor="distributed", distrib=config
    )
    assert result.extra["distrib"]["outcome"] == "no_workers"
    assert np.array_equal(result.outputs, serial.outputs)


def test_distributed_rejects_chaos_and_stray_config(distrib_setup, tmp_path):
    """Chaos belongs to the process pool, a distrib configuration to the
    distributed executor, and a checkpoint to the executors that journal:
    the coordinator keeps no journal (each shard worker keeps its own), so
    a distributed run given one, to write or to resume, is refused before
    any socket opens or file is written."""
    pipeline, fields, _, _, _ = distrib_setup
    with pytest.raises(ConfigurationError, match="process executor"):
        pipeline.execute_chunked(
            fields, chunk_size=8, chunk_axis=1, executor="distributed",
            chaos=ChaosInjector.from_spec("kill@0"),
        )
    with pytest.raises(ConfigurationError, match="distributed"):
        pipeline.execute_chunked(
            fields, chunk_size=8, chunk_axis=1, distrib=DistribConfig()
        )
    checkpoint = tmp_path / "ckpt"
    for resume in (False, True):
        with pytest.raises(ConfigurationError, match="no checkpoint journal"):
            pipeline.execute_chunked(
                fields, chunk_size=8, chunk_axis=1, executor="distributed",
                distrib=DistribConfig(worker_wait=0.0), checkpoint=str(checkpoint),
                resume=resume,
            )
    assert not checkpoint.exists()


def test_requested_executor_recorded(distrib_setup, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pipeline, fields, _, _, _ = distrib_setup
    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, workers=2, executor="auto"
    )
    chunked = result.extra["chunked"]
    assert chunked["requested_executor"] == "auto"
    assert chunked["executor"] == ("process" if fork_available() else "serial")


def test_straggler_dedup_and_result_validation(distrib_setup, tmp_path, monkeypatch):
    """Raw-socket client: an expired lease is re-granted (straggler
    re-lease), duplicates dedup first-digest-wins, and tampered or
    mixed-plan results are rejected without consuming the chunk."""
    monkeypatch.setattr(coordinator_module, "_LEASE_TTL", 0.4)
    pipeline, fields, _, manifest, _ = distrib_setup
    run = ChunkRun(pipeline, fields, 8, chunk_axis=1)
    digests = list(manifest["chunk_digests"])

    # certified entries computed out-of-band (no network, no pool)
    local = CheckpointJournal(str(tmp_path / "local"))
    local.begin(manifest)
    entries, artifacts = {}, {}
    for index in range(len(run.chunks)):
        entries[index] = run.commit(local, index, run.run_chunk(index))
        with open(f"{local.path}/{entries[index]['artifact']}", "rb") as handle:
            artifacts[index] = handle.read()

    coordinator = ShardCoordinator(
        manifest,
        weights=digest_model(pipeline.model),
        config=DistribConfig(port=0, worker_wait=30.0),
    )
    host, port = coordinator.start()
    summary_box = {}
    server = threading.Thread(
        target=lambda: summary_box.update(summary=coordinator.serve()), daemon=True
    )
    server.start()

    conn = FrameSocket(socket.create_connection((host, port)))
    conn.settimeout(5.0)
    try:
        conn.send(
            msg_hello(
                "straggler",
                manifest["fingerprint"],
                manifest_identity(manifest),
                digest_model(pipeline.model),
            )
        )
        welcome = conn.recv()
        assert welcome["type"] == "welcome"

        conn.send(msg_lease_request())
        lease = conn.recv()
        assert lease["type"] == "lease" and lease["chunks"] == [0]
        time.sleep(3.0 * 0.4)  # never heartbeat: let the lease expire

        conn.send(msg_lease_request())
        release = conn.recv()
        assert release["chunks"] == [0]  # straggler re-lease, same chunk

        def submit(index, entry, data):
            conn.send(
                msg_result(release["lease"], index, entry, encode_artifact(data))
            )
            ack = conn.recv()
            assert ack["type"] == "result_ack" and ack["chunk"] == index
            return ack["status"]

        assert submit(0, entries[0], artifacts[0]) == "accepted"
        # byte-identical resubmission: harmless duplicate
        assert submit(0, entries[0], artifacts[0]) == "duplicate"
        # differing bytes for a certified chunk: first digest wins
        forged = artifacts[0] + b"\x00"
        conflicting = dict(entries[0], artifact_digest=digest_bytes(forged))
        assert submit(0, conflicting, forged) == "conflict"
        # declared digest disagrees with the bytes: tampered in transit
        tampered = dict(entries[1], artifact_digest="0" * 32)
        assert submit(1, tampered, artifacts[1]) == "rejected"
        # wrong input digest: computed on different bytes (mixed plan)
        stale = dict(entries[1], input_digest=digests[0])
        assert submit(1, stale, artifacts[1]) == "rejected"
        # no declared digest: nothing vouches for the bytes, however right
        # they are (on a second connection: a third rejection on this one
        # would drain it)
        other = FrameSocket(socket.create_connection((host, port)))
        other.settimeout(5.0)
        try:
            other.send(
                msg_hello(
                    "undeclared",
                    manifest["fingerprint"],
                    manifest_identity(manifest),
                    digest_model(pipeline.model),
                )
            )
            assert other.recv()["type"] == "welcome"
            # a certificate no run can hold: refused before it is journaled
            negative = dict(entries[1]["certificate"], qoi_error=-1.0)
            other.send(msg_result(
                release["lease"], 1, dict(entries[1], certificate=negative),
                encode_artifact(artifacts[1]),
            ))
            assert other.recv() == {"type": "result_ack", "chunk": 1, "status": "rejected"}
            undeclared = dict(entries[1])
            del undeclared["artifact_digest"]
            other.send(
                msg_result(release["lease"], 1, undeclared, encode_artifact(artifacts[1]))
            )
            assert other.recv() == {"type": "result_ack", "chunk": 1, "status": "rejected"}
        finally:
            other.close()
        # keys a commit does not write, or one it does left out: refused
        # (a third connection, for the same reason as the second)
        third = FrameSocket(socket.create_connection((host, port)))
        third.settimeout(5.0)
        try:
            third.send(
                msg_hello(
                    "extra-keys",
                    manifest["fingerprint"],
                    manifest_identity(manifest),
                    digest_model(pipeline.model),
                )
            )
            assert third.recv()["type"] == "welcome"
            no_attempts = {k: v for k, v in entries[1].items() if k != "attempts"}
            for entry in (dict(entries[1], audit={}, note="x"), no_attempts):
                third.send(
                    msg_result(release["lease"], 1, entry, encode_artifact(artifacts[1]))
                )
                assert third.recv() == {"type": "result_ack", "chunk": 1, "status": "rejected"}
        finally:
            third.close()
        # valid submissions finish the run (results need no live lease)
        for index in (1, 2, 3):
            assert submit(index, entries[index], artifacts[index]) == "accepted"
    finally:
        conn.close()
    server.join(timeout=10.0)
    assert not server.is_alive()

    summary = summary_box["summary"]
    assert summary["outcome"] == "complete"
    assert summary["completed_chunks"] == 4
    assert summary["results"] == {
        "accepted": 4, "duplicate": 1, "conflict": 1, "rejected": 6,
    }
    assert summary["leases_expired"] == 1
    assert summary["leases_reassigned"] == 1


# -- differential: every executor certifies the same computation -------------


def _comparable_audit(audit):
    return {k: v for k, v in audit.items() if k not in ("run_id", "created_unix")}


def _comparable_entries(checkpoint, manifest):
    """Replay-visible journal entries by chunk: a line holds nothing else,
    so whoever wrote it, the lines of one computation are equal."""
    return CheckpointJournal(checkpoint).begin(manifest, resume=True)


#: rows of the assembled outputs that chunk 2 of the 4 x 8-row split owns
_CHUNK_2 = slice(2 * 8 * 32, 3 * 8 * 32)


@needs_fork
def test_every_executor_certifies_the_same_computation(distrib_setup, tmp_path):
    """Differential over one :class:`ChunkRun` construction: the same plan
    and fields give identical outputs, reference outputs, input errors,
    QoI error, per-chunk journal entries and ``AuditRecord``s whether the
    chunks ran serially, serially with a journal, on the pool (workers
    committing their own records), were partly or wholly replayed from a
    journal the *other* executor wrote, or ran on loopback shard workers
    (whose two journals together hold the entries).
    A chaos-quarantined chunk differs only where it must: that chunk is
    certified losslessly, every other byte is the oracle's."""
    pipeline, fields, _, manifest, _ = distrib_setup

    def chunked(**kwargs):
        return pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, **kwargs)

    def copied(source, ck, keep_lines=None):
        shutil.copytree(str(tmp_path / source), ck)
        if keep_lines is not None:
            journal_path = os.path.join(ck, "journal.jsonl")
            with open(journal_path, encoding="utf-8") as handle:
                lines = handle.readlines()
            with open(journal_path, "w", encoding="utf-8") as handle:
                handle.writelines(lines[:keep_lines])

    def serial(_ck):
        return chunked(executor="serial")

    def serial_journal(ck):
        return chunked(executor="serial", checkpoint=ck)

    def pool_journal(ck):
        return chunked(executor="process", workers=2, checkpoint=ck)

    def resumed(ck):
        copied("pool_journal", ck, keep_lines=2)
        result = chunked(executor="process", workers=2, checkpoint=ck, resume=True)
        assert result.extra["checkpoint"]["replayed_chunks"] == 2
        return result

    def serial_journal_resumed_by_pool(ck):
        copied("serial_journal", ck)
        result = chunked(executor="process", workers=2, checkpoint=ck, resume=True)
        assert result.extra["checkpoint"]["replayed_chunks"] == 4
        return result

    def pool_journal_resumed_serially(ck):
        copied("pool_journal", ck, keep_lines=3)
        result = chunked(executor="serial", checkpoint=ck, resume=True)
        assert result.extra["checkpoint"]["replayed_chunks"] == 3
        return result

    def distributed(ck):
        result, _, errors = _run_distributed(
            pipeline, fields, n_workers=2, expect_workers=2,
            worker_checkpoints={0: f"{ck}/w0", 1: f"{ck}/w1"},
        )
        assert errors == [] and result.extra["distrib"]["outcome"] == "complete"
        return result

    def quarantined(ck):
        result = chunked(
            executor="process", workers=2, checkpoint=ck,
            chaos=ChaosInjector.from_spec("raise@2:all"),
        )
        assert result.extra["supervision"]["quarantined"] == [2]
        return result

    runs = {}
    for run in (
        serial, serial_journal, pool_journal, resumed,
        serial_journal_resumed_by_pool, pool_journal_resumed_serially,
        distributed, quarantined,
    ):
        ck = str(tmp_path / run.__name__)
        with obs.audit_capture() as auditor:
            result = run(ck)
            audits = sorted(
                json.dumps(_comparable_audit(record.to_dict()), sort_keys=True)
                for record in auditor.records
            )
        if run is serial:
            entries = None
        elif run is distributed:
            entries = {
                **_comparable_entries(f"{ck}/w0", manifest),
                **_comparable_entries(f"{ck}/w1", manifest),
            }
        else:
            entries = _comparable_entries(ck, manifest)
        runs[run.__name__] = (result, audits, entries)

    oracle, oracle_audits, _ = runs["serial"]
    oracle_entries = runs["serial_journal"][2]
    assert len(oracle_audits) == 4 and set(oracle_entries) == {0, 1, 2, 3}
    degraded, degraded_audits, degraded_entries = runs.pop("quarantined")
    for name, (result, audits, entries) in runs.items():
        assert np.array_equal(result.outputs, oracle.outputs), name
        assert np.array_equal(result.reference_outputs, oracle.reference_outputs), name
        assert result.certificate == oracle.certificate, name
        assert audits == oracle_audits, name
        assert entries is None or entries == oracle_entries, name

    # the quarantined chunk is stored losslessly: zero input error there,
    # and nothing else moves
    others = np.ones(len(oracle.outputs), dtype=bool)
    others[_CHUNK_2] = False
    assert np.array_equal(degraded.outputs[others], oracle.outputs[others])
    assert np.array_equal(degraded.reference_outputs, oracle.reference_outputs)
    assert degraded.input_error_linf <= oracle.input_error_linf
    assert degraded.certificate.holds
    assert degraded.extra["integrity"]["degraded"]
    assert len(degraded_audits) == 4
    for index, entry in degraded_entries.items():
        assert set(entry) == set(oracle_entries[index]), index
        if index != 2:
            assert entry == oracle_entries[index], index
    assert degraded_entries[2]["quarantined"] and degraded_entries[2]["attempts"] == 3
    assert degraded_entries[2]["certificate"]["input_error_linf"] == 0.0


@pytest.mark.parametrize(
    "lease",
    [
        {"type": "lease", "chunks": [0]},
        {"type": "lease", "lease": 1, "chunks": ["x"]},
        {"type": "lease", "lease": 1, "chunks": [0], "ttl": None},
        {"type": "lease", "lease": 1, "chunks": [1, 1]},
    ],
    ids=["no-lease-id", "non-integer-chunk", "non-numeric-ttl", "repeated-chunk"],
)
def test_worker_rejects_a_malformed_lease_as_a_protocol_error(distrib_setup, tmp_path, lease):
    """Coordinator input the worker cannot serve is a protocol fault, which
    ``run`` answers with a reconnect: not a KeyError, ValueError or
    TypeError that kills the worker, nor a lease that reaches the pool."""
    pipeline, fields, _, _, _ = distrib_setup
    worker = ShardWorker(pipeline, fields, 8, chunk_axis=1, checkpoint=str(tmp_path / "w"))
    with pytest.raises(ProtocolError, match="lease"):
        worker._serve_lease(None, lease, {})


def test_worker_and_coordinator_build_the_same_run_identity(distrib_setup, tmp_path):
    """A shard worker's manifest is ``ChunkRun(...).manifest`` for the
    coordinator's arguments, and moves with each thing the handshake
    pins: chunk size, chunk axis, codec, tolerance."""
    from repro.compress.zfp import ZFPCompressor

    pipeline, fields, _, manifest, _ = distrib_setup
    model, plan = pipeline.model, pipeline.plan
    worker = ShardWorker(
        pipeline, fields, 8, chunk_axis=1, checkpoint=str(tmp_path / "w")
    )
    assert worker.manifest == ChunkRun(pipeline, fields, 8, chunk_axis=1).manifest
    assert worker.manifest == manifest
    assert worker.identity == manifest_identity(manifest)

    tighter = TolerancePlanner(ErrorFlowAnalyzer(model)).plan(
        5e-3, norm="linf", quant_fraction=0.5
    )
    for other in (
        ChunkRun(pipeline, fields, 16, chunk_axis=1),
        ChunkRun(pipeline, fields, 8, chunk_axis=2),
        ChunkRun(InferencePipeline(model, ZFPCompressor(), plan), fields, 8, chunk_axis=1),
        ChunkRun(InferencePipeline(model, SZCompressor(), tighter), fields, 8, chunk_axis=1),
    ):
        assert other.manifest != manifest
        assert not fingerprints_equal(
            other.manifest["fingerprint"], manifest["fingerprint"]
        )


def test_checkpoint_format_is_pinned(distrib_setup):
    """A checkpoint directory is interchangeable across versions of the
    code that writes it: format version 6, these manifest fingerprint
    keys, these journal entry keys and ``chunks/chunk-NNNN.rblob``
    artifacts that hold the chunk's serialized blob and nothing else —
    listed literally, so moving the code that builds them cannot move the
    format."""
    _, _, _, manifest, serial_dir = distrib_setup
    assert set(manifest) == {"fingerprint", "chunk_digests"}
    assert set(manifest["fingerprint"]) == {
        "codec", "precision", "norm", "qoi_tolerance", "fmt", "quant_bound",
        "input_tolerance", "codec_tolerance", "chunk_size", "chunk_axis", "n_chunks",
    }
    assert manifest["fingerprint"]["precision"] == "float32"  # SZ on float32 fields
    journal = CheckpointJournal(serial_dir)
    assert journal._read_manifest()["format_version"] == 6
    entries = journal.entries()
    assert len(entries) == 4
    for entry in entries:
        assert set(entry) == {
            "input_digest", "attempts", "quarantined", "certificate", "chunk",
            "artifact", "artifact_digest",
        }
        assert set(entry["certificate"]) == {
            "norm", "qoi_tolerance", "fmt", "quant_bound", "input_tolerance",
            "codec_tolerance", "qoi_error", "input_error_linf", "input_error_l2_max",
            "codec_error",
        }
        assert entry["artifact"] == f"chunks/chunk-{entry['chunk']:04d}.rblob"
        data = journal.load(entry)
        assert blob_to_bytes(blob_from_bytes(data)) == data


def test_a_checkpoint_from_before_streams_had_a_precision_is_refused(distrib_setup, tmp_path):
    """Its chunks were float64 SZ streams of float32 fields; resuming it
    would mix them with float32 ones.  Its manifest is today's without the
    ``precision`` key, and resume refuses it rather than replaying it."""
    pipeline, fields, serial, _, serial_dir = distrib_setup
    old_dir = tmp_path / "before"
    shutil.copytree(serial_dir, old_dir)
    manifest_path = old_dir / "manifest.json"
    stored = json.loads(manifest_path.read_text())
    del stored["fingerprint"]["precision"]
    manifest_path.write_text(json.dumps(stored))
    with pytest.raises(IntegrityError, match="fingerprint"):
        pipeline.execute_chunked(
            fields, chunk_size=8, chunk_axis=1, workers=1,
            checkpoint=str(old_dir), resume=True,
        )
    # the same directory with today's manifest replays every chunk
    shutil.copy(os.path.join(serial_dir, "manifest.json"), manifest_path)
    resumed = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, workers=1, checkpoint=str(old_dir), resume=True
    )
    np.testing.assert_array_equal(resumed.outputs, serial.outputs)


# -- distributed tracing -----------------------------------------------------


@needs_fork
def test_distributed_trace_stitches_one_trace_across_chaos(distrib_setup, monkeypatch):
    """A 2-worker run whose first RESULT's connection is dropped still
    lands every span in ONE trace: one trace id, every parent link
    resolving inside the export, and the workers' lease spans in it
    (shipped on RESULT frames, including the lease the drop cut short)."""
    pipeline, fields, serial, _, _ = distrib_setup
    _drop_first_result(monkeypatch)
    with obs.capture() as (tracer, _):
        result, summaries, errors = _run_distributed(pipeline, fields, expect_workers=2)
        spans = tracer.to_dicts()
    assert errors == []
    np.testing.assert_array_equal(result.outputs, serial.outputs)
    assert sum(s["reconnects"] for s in summaries) >= 1

    assert {span["trace_id"] for span in spans} == {tracer.trace_id}
    span_ids = {span["span_id"] for span in spans}
    dangling = [s for s in spans if s["parent_id"] is not None and s["parent_id"] not in span_ids]
    assert dangling == []
    names = {span["name"] for span in spans}
    assert {"distrib.serve", "distrib.result", "worker.lease"} <= names
