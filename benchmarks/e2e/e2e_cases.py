"""The four end-to-end workloads, as the benchmark child process runs them.

Each :class:`Case` builds its inputs from the seed through the public
dataset builders, plans and constructs the pipeline the way
``repro pipeline`` does, and exposes one closed-loop iteration plus the
certificate check applied to every operation of that iteration.  Only
public names of ``repro`` are used; every number is taken from outside.

An *operation* is one certified result a user would get back: one
``execute`` / ``execute_chunked`` call, or one ``store.get`` + forward
for one codec.  It fails on any exception, a QoI error above the
tolerance, an input error above the planned input tolerance, a
non-finite output, outputs that differ from the reference outputs of
the first timed iteration (the serial reference for the chunked
workload), or a degraded / quarantined chunk.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import repro
from repro.compress import ErrorBoundMode, get_compressor
from repro.datasets import make_borghesi_flame, make_eurosat, make_h2_combustion
from repro.io import DatasetStore
from repro.nn.backend import CompiledForward
from repro.quant import quantize_model

CODECS = ("sz", "zfp", "mgard")

#: contract slack of ``InferencePipeline`` itself (float round-off in the
#: measurement, not in the codec)
_INPUT_SLACK = 1e-6


def workers() -> int:
    """Pool size of every workload: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)


def fields_to_samples(fields: np.ndarray) -> np.ndarray:
    """``(V, H, W)`` variable planes to ``(H*W, V)`` samples (the
    pipeline's default mapping, restated for calls made outside it)."""
    return fields.reshape(fields.shape[0], -1).T.astype(np.float32)


def images_to_samples(fields: np.ndarray) -> np.ndarray:
    return fields.astype(np.float32)


@dataclass
class Op:
    """One operation's observable outcome, checked by :meth:`Case.certify`."""

    name: str
    outputs: "np.ndarray | None" = None
    reference: "np.ndarray | None" = None
    input_error: float = float("nan")
    stored_bytes: int = 0
    degraded: bool = False
    error: "str | None" = None


def qoi_error_linf(outputs: np.ndarray, reference: np.ndarray) -> float:
    """Worst per-sample absolute QoI error (``PipelineResult.qoi_error``
    with ``relative=False``, for outputs produced outside a pipeline)."""
    delta = np.abs(outputs.astype(np.float64) - reference.astype(np.float64))
    return float(delta.max()) if delta.size else 0.0


class Case:
    """Common set-up: workload, seeded field, plan, quantized pipeline."""

    name = ""
    workload = ""
    tolerance = 0.0
    codec = "sz"
    #: chunking used by the overhead ladder (and by ``h2_chunked_pool``)
    chunk_axis = 1
    n_chunks = 32
    ops_per_iteration = 1

    def __init__(self, seed: int, quick: bool, scratch: str) -> None:
        self.seed = int(seed)
        self.quick = bool(quick)
        self.scratch = scratch
        self.setup_seconds: "dict[str, float]" = {}
        self.first_outputs: "dict[str, np.ndarray]" = {}

        mark = time.perf_counter()
        self.wl = repro.load_workload(self.workload)
        self.setup_seconds["workloads.load_s"] = time.perf_counter() - mark

        mark = time.perf_counter()
        self.fields = self.generate(np.random.default_rng(self.seed))
        self.setup_seconds["datasets.generate_s"] = time.perf_counter() - mark

        self.model = self.wl.qoi_model()
        self.analyzer = self.wl.qoi_analyzer()
        mark = time.perf_counter()
        self.plan = repro.TolerancePlanner(self.analyzer).plan(self.tolerance, norm="linf")
        self.setup_seconds["core.planner.plan_cold_s"] = time.perf_counter() - mark
        fmt = None if self.plan.fmt.is_identity else self.plan.fmt
        self.predicted_bound = float(
            self.analyzer.combined_bound_linf(self.plan.input_tolerance, fmt)
        )
        self.pipe = repro.InferencePipeline(
            self.model, get_compressor(self.codec), self.plan
        )
        self.raw_bytes = int(self.fields.nbytes)
        extent = self.fields.shape[self.chunk_axis]
        self.chunk_size = max(1, -(-extent // self.n_chunks))
        self.build()

    # -- per-workload hooks ------------------------------------------------
    def generate(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    #: ``samples_from_fields`` argument for the pipeline (None = its default)
    reshape = None

    def samples(self, fields: np.ndarray) -> np.ndarray:
        """Model-input samples of ``fields``, for calls made outside the pipeline."""
        return (self.reshape or fields_to_samples)(fields)

    def build(self) -> None:
        """Workload-specific construction after the common set-up."""

    def before_iteration(self) -> None:
        """Untimed preparation of one iteration."""

    def iterate(self) -> "list[Op]":
        raise NotImplementedError

    def after_iteration(self) -> None:
        """Untimed clean-up of one iteration."""

    def close(self) -> None:
        """Remove what the case left on disk."""

    # -- sizes ---------------------------------------------------------------
    @property
    def raw_bytes_per_iteration(self) -> int:
        return self.raw_bytes * self.ops_per_iteration

    def sizes(self) -> dict:
        return {
            "field_shape": list(self.fields.shape),
            "field_dtype": str(self.fields.dtype),
            "raw_bytes": self.raw_bytes,
            "tolerance": self.tolerance,
            "fmt": self.plan.fmt.name,
            "chunk_size": self.chunk_size,
        }

    # -- certificate ---------------------------------------------------------
    def certify(self, op: Op) -> "tuple[str | None, dict]":
        """``(failure reason or None, certificate ratios)`` for one op."""
        if op.error is not None:
            return op.error, {}
        if not np.all(np.isfinite(op.outputs)):
            return "non-finite output", {}
        qoi = qoi_error_linf(op.outputs, op.reference)
        ratios = {
            "qoi_error_over_bound": qoi / self.predicted_bound,
            "qoi_error_over_tolerance": qoi / self.tolerance,
            "input_error_over_tolerance": op.input_error / self.plan.input_tolerance,
        }
        if qoi > self.tolerance:
            return f"QoI error {qoi:.3e} > tolerance {self.tolerance:.3e}", ratios
        if op.input_error > self.plan.input_tolerance * (1.0 + _INPUT_SLACK):
            return (
                f"input error {op.input_error:.3e} > planned "
                f"{self.plan.input_tolerance:.3e}",
                ratios,
            )
        if op.degraded:
            return "degraded or quarantined chunk", ratios
        first = self.first_outputs.setdefault(op.name, op.outputs)
        if first is not op.outputs and not np.array_equal(first, op.outputs):
            return "outputs differ from the reference outputs", ratios
        return None, ratios

    def op_from_result(self, name: str, result) -> Op:
        """An :class:`Op` from a ``PipelineResult``."""
        integrity = result.extra.get("integrity", {})
        chunked = result.extra.get("chunked")
        if chunked is None:
            stored = len(result.blob.payload)
        else:
            stored = int(round(self.raw_bytes / chunked["compression_ratio"]))
        supervision = result.extra.get("supervision") or {}
        return Op(
            name=name,
            outputs=result.outputs,
            reference=result.reference_outputs,
            input_error=float(result.input_error_linf),
            stored_bytes=stored,
            degraded=bool(integrity.get("degraded")) or bool(supervision.get("quarantined")),
        )


class H2SZRoundtrip(Case):
    """``repro pipeline h2combustion`` at production size."""

    name = "h2_sz_roundtrip"
    workload = "h2combustion"
    tolerance = 1e-3

    def generate(self, rng):
        grid = 64 if self.quick else 256
        return make_h2_combustion(grid=grid, rng=rng).fields

    def iterate(self):
        return [self.op_from_result("execute", self.pipe.execute(self.fields))]


class EurosatConvRoundtrip(Case):
    """The conv model: both forwards run the interpreter."""

    name = "eurosat_conv_roundtrip"
    workload = "eurosat"
    tolerance = 1e-1
    chunk_axis = 0
    n_chunks = 15
    reshape = staticmethod(images_to_samples)

    def generate(self, rng):
        # every image of a small balanced set, not the builder's random
        # test split: the class mix decides how well a batch compresses,
        # and a 30-of-120 draw moved the stored ratio by 5 % across seeds
        dataset = make_eurosat(n_per_class=1 if self.quick else 3, image_size=24, rng=rng)
        return np.concatenate([dataset.train_inputs, dataset.test_inputs]).astype(np.float32)

    def iterate(self):
        result = self.pipe.execute(self.fields, samples_from_fields=self.reshape)
        return [self.op_from_result("execute", result)]


class BorghesiStoreRead(Case):
    """Read side only: ``store.get`` + quantized forward, per codec."""

    name = "borghesi_store_read"
    workload = "borghesi"
    tolerance = 1e-1
    ops_per_iteration = len(CODECS)

    def generate(self, rng):
        grid = 48 if self.quick else 128
        return make_borghesi_flame(grid=grid, rng=rng).fields

    def build(self):
        self.forward = CompiledForward(quantize_model(self.model, self.plan.fmt).model)
        self.reference = CompiledForward(self.model)(self.samples(self.fields))
        self.store_dir = os.path.join(self.scratch, f"store-{os.getpid()}")
        self.store = DatasetStore(self.store_dir)
        for codec in CODECS:
            self.store.put(
                codec, self.fields, self.plan.input_tolerance, ErrorBoundMode.ABS, codec=codec
            )
        self.stored = {codec: self.store.stored_bytes(codec) for codec in CODECS}

    def read_one(self, codec: str) -> Op:
        try:
            data = self.store.get(codec)
            outputs = self.forward(self.samples(data))
        except Exception as exc:  # an operation must be counted, not crash the run
            return Op(name=codec, error=f"{type(exc).__name__}: {exc}")
        input_error = float(
            np.abs(data.astype(np.float64) - self.fields.astype(np.float64)).max()
        )
        return Op(
            name=codec,
            outputs=outputs,
            reference=self.reference,
            input_error=input_error,
            stored_bytes=self.stored[codec],
        )

    def iterate(self):
        return [self.read_one(codec) for codec in CODECS]

    def close(self):
        shutil.rmtree(self.store_dir, ignore_errors=True)


class H2ChunkedPool(Case):
    """The single-node production path: chunks, supervised pool, journal."""

    name = "h2_chunked_pool"
    workload = "h2combustion"
    tolerance = 1e-2

    def generate(self, rng):
        grid = 64 if self.quick else 256
        return make_h2_combustion(grid=grid, rng=rng).fields

    def build(self):
        serial = self.pipe.execute_chunked(
            self.fields, self.chunk_size, chunk_axis=self.chunk_axis, executor="serial"
        )
        self.first_outputs["execute_chunked"] = serial.outputs
        self.checkpoint = os.path.join(self.scratch, f"checkpoint-{os.getpid()}")

    def before_iteration(self):
        shutil.rmtree(self.checkpoint, ignore_errors=True)

    def iterate(self):
        result = self.pipe.execute_chunked(
            self.fields,
            self.chunk_size,
            workers=workers(),
            chunk_axis=self.chunk_axis,
            executor="process",
            checkpoint=self.checkpoint,
        )
        return [self.op_from_result("execute_chunked", result)]

    def after_iteration(self):
        shutil.rmtree(self.checkpoint, ignore_errors=True)

    close = after_iteration


CASES = {
    case.name: case
    for case in (H2SZRoundtrip, BorghesiStoreRead, EurosatConvRoundtrip, H2ChunkedPool)
}
