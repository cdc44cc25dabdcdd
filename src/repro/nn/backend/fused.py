"""Fused pure-numpy backend: one generated closure per model structure.

The generated source replays the lowered program as straight-line code —
no ``Sequential`` loop, no ``Module.__call__`` hook checks, no per-layer
``isinstance``/shape re-validation — and recycles preallocated matmul
buffers (``np.matmul(..., out=B[slot])``) plus in-place bias adds and
activations where aliasing rules allow, eliminating most temporary churn.

Bit-exactness with the reference interpreter is the contract, so every
emitted step is either the *identical* numpy expression the reference
layer evaluates — same ufuncs, same operand order, same scalar types —
or a call of the very function the reference layer calls:

* weights stay the transposed **view** ``weight.data.T`` (F-contiguous);
  a contiguous copy would route BLAS through a different gemm kernel
  with different rounding;
* ``np.matmul(x, Wt, out=buf)`` into a fresh C-contiguous buffer of the
  result dtype produces the same bytes as ``x @ Wt``; likewise
  ``np.add(v, b, out=v)`` vs ``v + b``;
* an activation is one call of its kernel in
  :mod:`repro.nn.functional` (``_relu``, ``_prelu``, ``_tanh`` ...), the
  function the activation module's own ``forward`` runs: branch-free
  (``fmax``/``add`` for ReLU, ``max``/``min`` against ``slope * x`` for
  Leaky/PReLU — a select mispredicts on every sign change, ≈5 ns per
  element on random-signed data) and given ``out=v`` wherever an
  in-place write is legal.  The kernel honours ``out`` only when the
  result has the operand's dtype (float16 activations times a float32
  PReLU slope do not) and returns a fresh array otherwise;
* a conv is one call of :func:`repro.nn.functional.conv2d`, the kernel
  ``Conv2d.forward`` itself runs, given a per-buffer-set
  :class:`~repro.nn.functional.ConvWorkspace` (patch scratch, pad
  buffers, one output buffer per conv) — activations stay channel-major
  in memory from the first conv to the pool, and global average pooling
  is the interpreter's :func:`~repro.nn.functional.global_avg_pool`;
* PReLU binds the ``np.float32`` scalar the reference reads from its
  slope parameter (the kernel chooses max or min from its value, so the
  source stays structure-only); LeakyReLU inlines the Python-float slope
  literal via ``repr`` (round-trip exact).

In-place writes are only emitted into buffers or call-owned temporaries
that are not a pending residual-skip operand, and the value returned to
the caller is never a reused buffer (the caller retains outputs; the
next call would overwrite them).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict

import numpy as np

from ...obs import get_metrics
from ...perf import parallel
from ..functional import ACTIVATION_KERNELS, ConvWorkspace
from .lowering import LoweredOp, LoweredProgram, constant_bindings

__all__ = [
    "FusedKernel",
    "compile_fused",
    "generate_fused_source",
    "instrumented_op_labels",
]

#: buffer sets retained per thread (distinct (batch, dtype) pairs)
_BUFFER_SETS = 8

#: a split batch must take at most this share of the whole one's time to
#: be kept: with two BLAS threads the whole batch already uses both CPUs
#: and the split H2 forward took 31.9 ms against 11.3
_SPLIT_KEEP_RATIO = 0.8

#: the cut between the halves is a multiple of this many rows: gemm
#: micro-kernels take rows in blocks and round their edge code otherwise
#: (cut at ``n // 2``, 301 of 402 float64 batch sizes gave other bytes
#: than the whole batch; at a multiple of 8 or 16, none above 31 rows)
_SPLIT_ROW_ALIGN = 16


def _cut(n: int) -> int:
    half = n // 2
    return half - half % _SPLIT_ROW_ALIGN if half >= _SPLIT_ROW_ALIGN else half


class _Codegen:
    """Emit straight-line source for a lowered program.

    Tracks, per variable, whether it aliases the caller's input, a
    reusable buffer slot, or a call-owned fresh array — the three cases
    that decide where in-place writes are legal and what may be
    returned.  ``tail=True`` marks an op whose result reaches the
    caller unchanged (possibly through trailing ``Identity`` layers):
    tail ops must allocate fresh output instead of handing back a
    buffer.
    """

    def __init__(self, program: LoweredProgram, instrument: bool = False) -> None:
        self.program = program
        self.instrument = bool(instrument)
        signature = "def _fused_forward(x, B, T):" if instrument else "def _fused_forward(x, B):"
        self.lines = [signature]
        if program.has_conv:
            self.lines.append("    S = B[-1]")
        self._counter = itertools.count()
        self.kind = {"x": "input"}
        self.protected: set = set()
        self.op_labels: list = []

    def fresh(self) -> str:
        return f"v{next(self._counter)}"

    def line(self, text: str) -> None:
        self.lines.append("    " + text)

    def _time_start(self, label: str) -> "int | None":
        """Open a per-op timing bracket (instrumented codegen only).

        The timing lines wrap exactly the op's own emitted expressions —
        the numpy expressions themselves are untouched, so the
        instrumented kernel stays bit-exact with the fast one.
        """
        if not self.instrument:
            return None
        index = len(self.op_labels)
        self.op_labels.append(label)
        self.line(f"_s{index} = _pcns()")
        return index

    def _time_end(self, index: "int | None") -> None:
        if index is not None:
            self.line(f"T[{index}] += _pcns() - _s{index}")

    def run(self) -> str:
        out = self.emit_ops(self.program.ops, "x", tail=True)
        if self.kind[out] == "buffer":  # safety net; tail logic should prevent this
            safe = self.fresh()
            self.line(f"{safe} = {out}.copy()")
            out = safe
        self.line(f"return {out}")
        return "\n".join(self.lines) + "\n"

    def emit_ops(self, ops: "list[LoweredOp]", var: str, tail: bool) -> str:
        for i, op in enumerate(ops):
            op_tail = tail and all(o.kind == "identity" for o in ops[i + 1 :])
            var = self.emit_op(op, var, op_tail)
        return var

    def _can_inplace(self, var: str, tail: bool) -> bool:
        kind = self.kind[var]
        if kind == "input" or var in self.protected:
            return False
        return not (tail and kind == "buffer")

    def emit_op(self, op: LoweredOp, var: str, tail: bool) -> str:
        if op.kind == "identity":
            return var
        if op.kind == "flatten":
            r = self.fresh()
            self.line(f"{r} = {var}.reshape({var}.shape[0], -1)")
            self.kind[r] = self.kind[var]  # reshape is a view of its operand
            return r
        if op.kind == "linear":
            return self._emit_linear(op, var, tail)
        if op.kind == "conv":
            return self._emit_conv(op, var, tail)
        if op.kind == "global_avg_pool":
            timer = self._time_start(op.kind)
            r = self.fresh()
            self.line(f"{r} = _global_avg_pool({var})")
            self.kind[r] = "fresh"
            self._time_end(timer)
            return r
        if op.kind == "residual":
            return self._emit_residual(op, var, tail)
        return self._emit_elementwise(op, var, tail)

    def _emit_elementwise(self, op: LoweredOp, var: str, tail: bool) -> str:
        """One call of the interpreter's own kernel, in place where legal."""
        timer = self._time_start(op.kind)
        args = var
        if op.kind == "leaky_relu":
            args += f", {op.slope!r}"
        elif op.kind == "prelu":
            args += f", s{op.index}"
        if self._can_inplace(var, tail):
            # the kernel writes into its operand when the result dtype is
            # the operand's and returns a fresh array otherwise; either
            # way the name keeps its (conservative) buffer/fresh kind
            self.line(f"{var} = _{op.kind}({args}, out={var})")
            r = var
        else:
            r = self.fresh()
            self.line(f"{r} = _{op.kind}({args})")
            self.kind[r] = "fresh"
        self._time_end(timer)
        return r

    def _emit_linear(self, op: LoweredOp, var: str, tail: bool) -> str:
        timer = self._time_start("linear")
        weight = f"W{op.index}_t"
        if op.bias is None:
            r = self.fresh()
            if tail:
                self.line(f"{r} = {var} @ {weight}")
                self.kind[r] = "fresh"
            else:
                self.line(f"{r} = np.matmul({var}, {weight}, out=B[{op.slot}])")
                self.kind[r] = "buffer"
            self._time_end(timer)
            return r
        m = self.fresh()
        self.line(f"{m} = np.matmul({var}, {weight}, out=B[{op.slot}])")
        self.kind[m] = "buffer"
        if not tail and op.inplace_bias_ok and m not in self.protected:
            self.line(f"np.add({m}, b{op.index}, out={m})")
            self._time_end(timer)
            return m
        r = self.fresh()
        self.line(f"{r} = {m} + b{op.index}")
        self.kind[r] = "fresh"
        self._time_end(timer)
        return r

    def _emit_conv(self, op: LoweredOp, var: str, tail: bool) -> str:
        timer = self._time_start("conv")
        size, stride, padding = op.geometry
        bias = "None" if op.bias is None else f"b{op.index}"
        # a tail conv reaches the caller: fresh output, no slot
        slot = "None" if tail else op.index
        r = self.fresh()
        self.line(
            f"{r}, _ = _conv({var}, W{op.index}, {bias}, ({size}, {size}), "
            f"{stride}, {padding}, S, {slot})"
        )
        self.kind[r] = "fresh" if tail else "buffer"
        self._time_end(timer)
        return r

    def _emit_residual(self, op: LoweredOp, var: str, tail: bool) -> str:
        # the skip operand must survive body/shortcut emission unmutated;
        # an enclosing residual may already be protecting it
        added = []
        if var not in self.protected:
            self.protected.add(var)
            added.append(var)
        branch = self.emit_ops(op.body, var, tail=False)
        if branch not in self.protected:
            self.protected.add(branch)
            added.append(branch)
        skip = var if op.shortcut is None else self.emit_ops(op.shortcut, var, tail=False)
        # body/shortcut ops time themselves; this bracket covers only the add
        timer = self._time_start("residual_add")
        r = self.fresh()
        self.line(f"{r} = {branch} + {skip}")
        self._time_end(timer)
        self.kind[r] = "fresh"
        for name in added:
            self.protected.discard(name)
        if op.post is not None:
            r = self.emit_ops(op.post, r, tail)
        return r


def generate_fused_source(program: LoweredProgram, instrument: bool = False) -> str:
    """Deterministic source text for ``program`` (structure only, no weights).

    ``instrument=True`` emits the same expressions bracketed by
    ``perf_counter_ns`` deltas accumulated into a ``T`` list, one slot
    per timed op (linears, convs, pools, element-wise activations,
    residual adds).
    """
    return _Codegen(program, instrument=instrument).run()


def instrumented_op_labels(program: LoweredProgram) -> list:
    """Per-slot op labels of the instrumented kernel, in ``T`` order.

    Codegen is deterministic: replaying it gives the labels of any
    kernel compiled from the same program.
    """
    codegen = _Codegen(program, instrument=True)
    codegen.run()
    return list(codegen.op_labels)


_PROBE_DTYPES: dict = {}


def _elementwise_dtype(op: LoweredOp, running: np.dtype) -> np.dtype:
    """Output dtype of an element-wise op, measured, not assumed.

    Scalar/array promotion rules differ between numpy's legacy
    value-based casting and NEP 50; running the op's kernel on a
    one-element array gives the answer this interpreter actually
    produces, whichever regime is active.
    """
    key = (op.kind, repr(op.slope), running)
    dtype = _PROBE_DTYPES.get(key)
    if dtype is None:
        z = np.ones(1, dtype=running)
        args = (z,) if op.slope is None else (z, op.slope)
        dtype = _PROBE_DTYPES[key] = ACTIVATION_KERNELS[op.kind](*args).dtype
    return dtype


def _propagate_dtypes(ops: "list[LoweredOp]", running: np.dtype, slots: list) -> np.dtype:
    for op in ops:
        if op.kind == "linear":
            out = np.result_type(running, op.weight_t.dtype)
            slots[op.slot] = out
            if op.bias is not None:
                out = np.result_type(out, op.bias.dtype)
            running = out
        elif op.kind == "residual":
            branch = _propagate_dtypes(op.body, running, slots)
            skip = (
                running
                if op.shortcut is None
                else _propagate_dtypes(op.shortcut, running, slots)
            )
            running = np.result_type(branch, skip)
            if op.post is not None:
                running = _propagate_dtypes(op.post, running, slots)
        elif op.kind == "conv":
            running = np.result_type(running, op.weight.dtype)
            if op.bias is not None:
                running = np.result_type(running, op.bias.dtype)
        elif op.kind in ("identity", "flatten", "global_avg_pool"):
            continue
        else:
            running = _elementwise_dtype(op, running)
    return running


def slot_dtypes(program: LoweredProgram, x_dtype) -> list:
    """Per-slot buffer dtypes for an input of ``x_dtype``.

    ``np.matmul(..., out=buf)`` is only bit-identical to ``x @ Wt`` when
    ``buf`` already has the result dtype, so buffers are sized to the
    dtype each matmul would naturally produce.
    """
    slots = [None] * program.n_linear
    _propagate_dtypes(program.ops, np.dtype(x_dtype), slots)
    return slots


class _BufferSet:
    """One ``(input shape, dtype)``'s scratch and its split verdict: ``None``
    until probed, ``False`` from the start where no split is possible."""

    __slots__ = ("arrays", "split")

    def __init__(self, arrays: list, splittable: bool) -> None:
        self.arrays = arrays
        self.split: "bool | None" = None if splittable else False


class FusedKernel:
    """A bound fused closure plus its per-thread buffer pool.

    Buffers are keyed by ``(input shape, input dtype)`` and held in
    ``threading.local`` storage: concurrent pipeline threads never share
    scratch space, and fork-based pools inherit the compiled closure
    for free.

    A 2-D (MLP) program's batch may run as two halves, rows ``[:cut]``
    here and ``[cut:]`` on the process's side lane, both through ``fn``
    into row slices of the caller's one buffer set.  Equal bytes are a
    property of the BLAS build and a gain one of its threading, so the
    first call of a buffer set that gets the lane runs the batch both
    ways and keeps the split only if the bytes are equal and it took at
    most :data:`_SPLIT_KEEP_RATIO` of the whole.  ``last_split`` holds
    the row counts of the latest call's halves (``None``: it ran whole),
    ``split_rejections`` the probes that said no, by reason.

    Given ``op_labels`` the closure is the per-op-timing variant: it
    accumulates ``perf_counter_ns`` deltas into a per-call list, which
    is converted to seconds, retained as :attr:`last_op_seconds` and
    mirrored into the ``backend_op_seconds{op,index}`` histogram.  It
    never splits: one list of timings, one thread.
    """

    def __init__(self, program: LoweredProgram, fn, op_labels: "list | None" = None) -> None:
        self.program = program
        self.fn = fn
        self.op_labels = None if op_labels is None else list(op_labels)
        self.last_op_seconds: "list | None" = None
        self.last_split: "tuple | None" = None
        self.split_rejections: dict = {}
        # conv programs stay whole: their one workload has the lane busy
        # with the reference forward for the entire quantized forward
        self._splittable = (
            op_labels is None and not program.has_conv and program.input_spec[0] == "2d"
        )
        self._local = threading.local()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        buffers = self._buffers(x)
        self.last_split = None
        if self.op_labels is None:
            if buffers.split is not False:
                if buffers.split is None:
                    return self._probe(x, buffers)
                out = self._halves(x, buffers.arrays)
                if out is not None:
                    self.last_split = (_cut(len(x)), len(x) - _cut(len(x)))
                    return out
            return self.fn(x, buffers.arrays)
        timings = [0] * len(self.op_labels)
        out = self.fn(x, buffers.arrays, timings)
        seconds = [t / 1e9 for t in timings]
        self.last_op_seconds = seconds
        metrics = get_metrics()
        if metrics.enabled:
            for index, (label, value) in enumerate(zip(self.op_labels, seconds)):
                metrics.histogram(
                    "backend_op_seconds", op=label, index=index
                ).observe(value)
        return out

    def _halves(self, x: np.ndarray, arrays: list) -> "np.ndarray | None":
        """``fn`` over both halves at once; ``None`` without the lane."""
        half = _cut(len(x))

        def upper() -> np.ndarray:
            return self.fn(x[half:], [buffer[half:] for buffer in arrays])

        with parallel.side_lane().beside(upper) as result:
            if result is upper:
                return None
            lower = self.fn(x[:half], [buffer[:half] for buffer in arrays])
        return np.concatenate((lower, result()))

    def _probe(self, x: np.ndarray, buffers: _BufferSet) -> np.ndarray:
        """Both ways, best of three each, taking turns so that a noisy
        moment hits both; returns the whole result.  Without the lane there
        is nothing to compare: the next call asks again."""
        arrays, split_s, whole_s = buffers.arrays, [], []
        for _ in range(3):
            start = time.perf_counter()
            split = self._halves(x, arrays)
            if split is None:
                return self.fn(x, arrays)
            middle = time.perf_counter()
            whole = self.fn(x, arrays)
            split_s.append(middle - start)
            whole_s.append(time.perf_counter() - middle)
        same = split.dtype == whole.dtype and split.data.cast("B") == whole.data.cast("B")
        buffers.split = same and min(split_s) <= _SPLIT_KEEP_RATIO * min(whole_s)
        if not buffers.split:
            reason = "slower" if same else "bytes"
            self.split_rejections[reason] = self.split_rejections.get(reason, 0) + 1
            get_metrics().counter("backend_split_rejected_total", reason=reason).inc()
        return whole

    def _buffers(self, x: np.ndarray) -> _BufferSet:
        cache = getattr(self._local, "buffers", None)
        if cache is None:
            cache = self._local.buffers = OrderedDict()
        key = (x.shape, x.dtype)
        buffers = cache.get(key)
        if buffers is None:
            n = x.shape[0]
            dtypes = slot_dtypes(self.program, x.dtype)
            arrays = [
                np.empty((n, width), dtype=dtype)
                for width, dtype in zip(self.program.slot_widths, dtypes)
            ]
            if self.program.has_conv:
                arrays.append(ConvWorkspace())
            buffers = cache[key] = _BufferSet(
                arrays, self._splittable and n > 1 and x.nbytes >= parallel.LANE_MIN_BYTES
            )
            while len(cache) > _BUFFER_SETS:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return buffers


def compile_fused(program: LoweredProgram, instrument: bool = False) -> FusedKernel:
    """Generate the source for ``program`` and bind it to its constants.

    ``instrument=True`` is the opt-in per-op-timing variant: same
    lowering, same expressions, bracketed by ``perf_counter_ns`` deltas.
    """
    codegen = _Codegen(program, instrument=instrument)
    source = codegen.run()
    namespace = constant_bindings(program)
    if instrument:
        namespace["_pcns"] = time.perf_counter_ns
    name = "fused-instr" if instrument else "fused"
    exec(compile(source, f"<repro-{name}-kernel>", "exec"), namespace)
    return FusedKernel(
        program,
        namespace["_fused_forward"],
        codegen.op_labels if instrument else None,
    )
