#!/usr/bin/env python
"""Forward-pass benchmark for the compiled execution backends.

Times a single-sample (batch=1) forward pass — the serving-latency case
— of a 4x1024-wide spectral PReLU MLP under each backend and writes the
unified ``benchutils`` row shape (``{path, config, seconds, reps_s,
throughput_samples_s}`` — record with ``repro bench record`` to feed the
regression history):

* ``reference``  — interpreted per-module dispatch (``model(x)``);
* ``fused_cold`` — one cold call including lowering + codegen + bind
  (the compile cost a first request pays);
* ``fused_warm`` — steady state.  The win here is structural: the
  linker hoists the SpectralLinear weight materialization
  (``normalized.T * alpha``, recomputed per call by the interpreter)
  into a bound constant, on top of preallocated buffers and in-place
  ufuncs.

A second pair, ``conv_forward``, times the EuroSAT QoI network (PSN
ResNet18 up to the pooled feature map, one 30x13x24x24 batch):

* ``gather_oracle`` — the forward as it was while every conv gathered
  its patches through a 6-D ``as_strided`` view and multiplied
  ``cols @ W.T`` (``tests/oracles/conv_reference.py``);
* ``fused``         — the compiled channel-major kernel, warm.

A third pair, ``prelu_forward``, times the Borghesi QoI network (the
8-hidden-layer PSN PReLU MLP, one 16384x13 batch — a 128x128 field):

* ``where_oracle`` — the forward as it was while every PReLU selected
  with ``np.where(x > 0, x, s * x)``
  (``tests/oracles/activation_reference.py``);
* ``fused``        — the compiled kernel calling the branch-free
  ``repro.nn.functional.prelu`` in place, warm.

A fourth pair, ``split_forward``, times the same network and batch in a
spawned child with one BLAS thread (a threaded matmul already spreads
over the mask, and the probe then keeps the batch whole):

* ``whole`` — the calling thread confined to one CPU, which is also how
  the expected bytes are obtained;
* ``split`` — the inherited mask: rows ``[:8192]`` on the caller,
  ``[8192:]`` on the side lane, after the first-call probe kept that.

Five gates are asserted (and recorded in the rows) so CI catches
regressions:

* ``fused_warm`` must be >= 2x ``reference`` at batch 1;
* the warm path must do exactly one lowering and one compile across all
  timed calls and batch sizes (zero recompiles);
* the conv ``fused`` row must be >= 1.5x ``gather_oracle`` with no
  fallback;
* the prelu ``fused`` row must be >= 2x ``where_oracle``, bit-exact to
  it, with no fallback;
* the ``split`` row must be >= 1.4x ``whole`` with equal bytes, where the
  process may use two CPUs (skipped with a message otherwise).

Bit-exactness is asserted before timing: every backend output must be
``np.array_equal`` to the reference.  Usage::

    PYTHONPATH=src python benchmarks/bench_forward.py [--quick] [--out BENCH_pr9.json]
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

from benchutils import ONE_BLAS_THREAD, best_of, finalize_rows, make_row, write_rows
from tests.oracles.activation_reference import reference_forward
from tests.oracles.conv_reference import forward_reference
from repro.models import borghesi_net, build_mlp, model_flops, resnet18
from repro.nn import Sequential
from repro.nn.backend import CompiledForward
from repro.perf.parallel import usable_cpus


def _bench_model():
    """The serving-latency model: wide spectral PReLU MLP, batch 1.

    SpectralLinear is the paper's training recipe, and its interpreted
    forward re-materializes ``normalized.T * alpha`` every call — the
    exact cost the compiled backends hoist to compile time.
    """
    model = build_mlp(
        64, [1024, 1024, 1024, 1024], 8, activation="prelu", spectral=True,
        rng=np.random.default_rng(7),
    )
    model.eval()
    return model


def _row(path: str, config: dict, seconds: float, calls: int, reps_s=None) -> dict:
    return make_row(
        path, config, seconds, reps_s=reps_s,
        throughput_samples_s=calls / seconds,
    )


def bench_forward(reps: int, inner: int) -> list[dict]:
    model = _bench_model()
    x = np.random.default_rng(11).standard_normal((1, 64)).astype(np.float32)
    base_config = {"model": "mlp64x1024x4x8_spectral_prelu", "batch": 1,
                   "inner_calls": inner, "reps": reps}

    expected = model(x)

    def timed_loop(fn):
        def run():
            for _ in range(inner):
                fn(x)
        best, times = best_of(run, reps)
        return best / inner, [t / inner for t in times]

    rows = []

    ref_seconds, ref_reps = timed_loop(model)
    rows.append(_row("forward", dict(base_config, backend="reference"),
                     ref_seconds, 1, reps_s=ref_reps))

    # cold: first call pays lowering + codegen + exec/bind
    fused = CompiledForward(model, "fused")
    start = time.perf_counter()
    cold_out = fused(x)
    cold_seconds = time.perf_counter() - start
    assert np.array_equal(cold_out, expected), "fused output not bit-exact"
    rows.append(_row("forward", dict(base_config, backend="fused_cold",
                                     inner_calls=1, reps=1),
                     cold_seconds, 1))

    # warm steady state, exercising several batch sizes in between to
    # prove buffer reallocation does not trigger recompiles
    warm_seconds, warm_reps = timed_loop(fused)
    for batch in (1, 4, 16, 1):
        xb = np.random.default_rng(batch).standard_normal((batch, 64)).astype(np.float32)
        assert np.array_equal(fused(xb), model(xb))
    second_seconds, second_reps = timed_loop(fused)
    warm_seconds = min(warm_seconds, second_seconds)
    warm_reps = warm_reps + second_reps
    assert fused.stats["lowerings"] == 1, fused.stats
    assert fused.stats["compiles"] == 1, fused.stats
    assert fused.stats["fallbacks"] == 0, fused.stats
    rows.append(_row("forward", dict(base_config, backend="fused_warm",
                                     lowerings=fused.stats["lowerings"],
                                     compiles=fused.stats["compiles"]),
                     warm_seconds, 1, reps_s=warm_reps))

    for row in rows:
        row["config"]["speedup_vs_reference"] = ref_seconds / row["seconds"]
    for row in rows:
        backend = row["config"]["backend"]
        print(f"forward[{backend}]: {row['seconds']*1e6:.1f} us/call "
              f"({row['config']['speedup_vs_reference']:.2f}x vs reference)")

    warm_row = next(r for r in rows if r["config"]["backend"] == "fused_warm")
    speedup = warm_row["config"]["speedup_vs_reference"]
    assert speedup >= 2.0, (
        f"fused warm speedup {speedup:.2f}x below the 2x gate"
    )
    return rows


def bench_conv_forward(reps: int) -> list[dict]:
    """Gather-based oracle forward vs the fused channel-major kernel."""
    model = resnet18(
        in_channels=13, base_width=16, alpha_init=0.8, rng=np.random.default_rng(7)
    )
    model = Sequential(*list(model)[:-1])  # the QoI: the pooled feature map
    model.eval()
    x = np.random.default_rng(11).standard_normal((30, 13, 24, 24)).astype(np.float32)
    gflop = x.shape[0] * model_flops(model, x.shape[1:]) / 1e9
    config = {"model": "resnet18_w16_psn_pooled", "batch": 30, "image": 24, "reps": reps}

    expected = forward_reference(model, x)
    fused = CompiledForward(model, "fused")
    actual = fused(x)
    assert fused.last_fallback_reason is None, fused.last_fallback_reason
    assert np.array_equal(actual, model(x)), "fused output not bit-exact"
    # a different summation order, not different arithmetic
    assert np.allclose(actual, expected, rtol=1e-4, atol=1e-5)

    oracle_seconds, oracle_reps = best_of(lambda: forward_reference(model, x), reps)
    fused_seconds, fused_reps = best_of(lambda: fused(x), reps)
    assert fused.stats["fallbacks"] == 0 and fused.stats["compiles"] == 1, fused.stats

    speedup = oracle_seconds / fused_seconds
    rows = [
        _row("conv_forward", dict(config, impl="gather_oracle"), oracle_seconds,
             x.shape[0], reps_s=oracle_reps),
        _row("conv_forward", dict(config, impl="fused", speedup_vs_oracle=speedup),
             fused_seconds, x.shape[0], reps_s=fused_reps),
    ]
    for row in rows:
        print(f"conv_forward[{row['config']['impl']}]: {row['seconds']*1e3:.1f} ms/batch "
              f"({gflop / row['seconds']:.1f} GFLOP/s of the modelled {gflop:.2f} GFLOP)")
    assert speedup >= 1.5, f"fused conv speedup {speedup:.2f}x below the 1.5x gate"
    return rows


def bench_prelu_forward(reps: int) -> list[dict]:
    """``np.where`` oracle walk vs the fused kernel on the Borghesi net."""
    model = borghesi_net(rng=np.random.default_rng(7))
    model.eval()
    x = np.random.default_rng(11).standard_normal((16384, 13)).astype(np.float32)
    config = {"model": "borghesi_net_psn_prelu", "batch": x.shape[0], "reps": reps}

    expected = reference_forward(model, x)
    fused = CompiledForward(model, "fused")
    actual = fused(x)
    assert fused.last_fallback_reason is None, fused.last_fallback_reason
    assert np.array_equal(actual, model(x)), "fused output not bit-exact"
    assert actual.dtype == expected.dtype and np.array_equal(actual, expected), (
        "fused output not bit-exact to the np.where forward"
    )

    oracle_seconds, oracle_reps = best_of(lambda: reference_forward(model, x), reps)
    fused_seconds, fused_reps = best_of(lambda: fused(x), reps)
    assert fused.stats["fallbacks"] == 0 and fused.stats["compiles"] == 1, fused.stats

    speedup = oracle_seconds / fused_seconds
    rows = [
        _row("prelu_forward", dict(config, impl="where_oracle"), oracle_seconds,
             x.shape[0], reps_s=oracle_reps),
        _row("prelu_forward", dict(config, impl="fused", speedup_vs_oracle=speedup),
             fused_seconds, x.shape[0], reps_s=fused_reps),
    ]
    for row in rows:
        print(f"prelu_forward[{row['config']['impl']}]: {row['seconds']*1e3:.1f} ms/batch")
    assert speedup >= 2.0, f"fused prelu speedup {speedup:.2f}x below the 2x gate"
    return rows


def _split_forward_seconds(reps: int):
    """Child of ``bench_split_forward``: ``(whole, split)`` as ``best_of``
    pairs, then what the kernel says about the split."""
    model = borghesi_net(rng=np.random.default_rng(7))
    model.eval()
    x = np.random.default_rng(11).standard_normal((16384, 13)).astype(np.float32)
    forward = CompiledForward(model, "fused")
    mask = os.sched_getaffinity(0)

    def on_one_cpu(fn):
        os.sched_setaffinity(0, {min(mask)})
        try:
            return fn()
        finally:
            os.sched_setaffinity(0, mask)

    expected = on_one_cpu(lambda: forward(x))
    forward(x)  # the probe
    actual = forward(x)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes(), (
        "split output not bit-exact to the whole batch"
    )
    whole = on_one_cpu(lambda: best_of(lambda: forward(x), reps))
    split = best_of(lambda: forward(x), reps)
    return whole, split, forward.last_split, dict(forward._kernel.split_rejections)


def bench_split_forward(reps: int) -> list[dict]:
    """The Borghesi forward whole on one CPU vs as two halves on two."""
    if not hasattr(os, "sched_setaffinity") or usable_cpus() < 2:
        print("split_forward: skipped (the process may use one CPU)")
        return []
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD):  # spawned: read before numpy loads
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            whole, split, halves, rejections = pool.apply(_split_forward_seconds, (reps,))
    speedup = whole[0] / split[0]
    config = {"model": "borghesi_net_psn_prelu", "batch": 16384, "reps": reps,
              "usable_cpus": usable_cpus(), "speedup_vs_whole": speedup}
    rows = [
        _row("split_forward", dict(config, lanes="whole"), whole[0], 16384, reps_s=whole[1]),
        _row("split_forward", dict(config, lanes="split", halves=halves,
                                   rejections=rejections),
             split[0], 16384, reps_s=split[1]),
    ]
    print(f"split_forward: whole {whole[0]*1e3:.1f} ms, split {split[0]*1e3:.1f} ms "
          f"-> {speedup:.2f}x (halves {halves}, rejections {rejections})")
    assert speedup >= 1.4, f"split forward {speedup:.2f}x below the 1.4x gate"
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer timed calls (CI smoke)")
    parser.add_argument("--out", default="BENCH_pr9.json")
    args = parser.parse_args(argv)

    reps = 3 if args.quick else 5
    inner = 200 if args.quick else 1000

    many = 10 if args.quick else 30
    rows = bench_forward(reps, inner) + bench_conv_forward(many) + bench_prelu_forward(many)
    rows += bench_split_forward(many)
    rows = finalize_rows(rows, args.quick)
    write_rows(rows, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
