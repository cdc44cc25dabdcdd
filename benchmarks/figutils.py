"""Shared experiment drivers for the figure benchmarks."""

from __future__ import annotations

import numpy as np

from repro import TrainedWorkload, load_workload
from repro.compress import ErrorBoundMode, MGARDCompressor, SZCompressor, ZFPCompressor

CODECS = {
    "sz": SZCompressor,
    "zfp": ZFPCompressor,
    "mgard": MGARDCompressor,
}

N_BATCHES = 5


def batch_slices(n_samples: int, n_batches: int = N_BATCHES) -> list[slice]:
    """Split sample rows into independent evaluation batches."""
    edges = np.linspace(0, n_samples, n_batches + 1, dtype=int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def reference_output_scales(workload: TrainedWorkload) -> tuple[np.ndarray, float, float]:
    """Full-precision QoI reference and its Linf / per-sample-L2 scales."""
    model = workload.qoi_model()
    model.eval()
    samples = workload.dataset.fields_as_samples()
    reference = model(samples)
    flat = reference.reshape(len(reference), -1)
    return reference, float(np.abs(flat).max()), float(np.linalg.norm(flat, axis=1).max())


def compression_error_sweep(
    workload: TrainedWorkload,
    input_tolerances: np.ndarray,
    norm: str,
) -> list[dict]:
    """Achieved QoI error distribution per codec and tolerance (Figs. 3/4).

    For each pointwise input tolerance, each codec compresses the stored
    fields once; QoI errors are evaluated over independent sample batches
    to obtain the distribution the paper plots.
    """
    model = workload.qoi_model()
    model.eval()
    fields = workload.dataset.fields
    samples_ref = workload.dataset.fields_as_samples(fields)
    reference, ref_linf, ref_l2 = reference_output_scales(workload)
    reference = reference.reshape(len(reference), -1)
    input_scale = float(np.abs(samples_ref).max())
    flat_ref = samples_ref.reshape(len(samples_ref), -1)
    input_scale_l2 = float(np.linalg.norm(flat_ref, axis=1).max())

    points = []
    for tolerance in input_tolerances:
        for codec_name, codec_cls in CODECS.items():
            codec = codec_cls()
            blob = codec.compress(fields, float(tolerance), ErrorBoundMode.ABS)
            reconstruction = codec.decompress(blob)
            samples_new = workload.dataset.fields_as_samples(reconstruction)
            outputs = model(samples_new).reshape(len(reference), -1)
            delta_in = (samples_new - samples_ref).reshape(len(samples_ref), -1)
            delta_out = outputs - reference
            for batch in batch_slices(len(reference)):
                if norm == "linf":
                    x_err = float(np.abs(delta_in[batch]).max()) / input_scale
                    y_err = float(np.abs(delta_out[batch]).max()) / ref_linf
                else:
                    x_err = (
                        float(np.linalg.norm(delta_in[batch], axis=1).max())
                        / input_scale_l2
                    )
                    y_err = float(np.linalg.norm(delta_out[batch], axis=1).max()) / ref_l2
                points.append(
                    {
                        "codec": codec_name,
                        "tolerance": float(tolerance),
                        "input_rel_err": x_err,
                        "qoi_rel_err": y_err,
                        "ratio": blob.compression_ratio,
                    }
                )
    return points


def input_output_scales(workload: TrainedWorkload) -> dict[str, float]:
    """Global normalizing constants for relative-error axes."""
    samples = workload.dataset.fields_as_samples()
    flat = samples.reshape(len(samples), -1)
    __, ref_linf, ref_l2 = reference_output_scales(workload)
    return {
        "input_linf": float(np.abs(samples).max()),
        "input_l2": float(np.linalg.norm(flat, axis=1).max()),
        "output_linf": ref_linf,
        "output_l2": ref_l2,
    }


def bound_line(
    analyzer,
    input_rel_errors: np.ndarray,
    norm: str,
    scales: dict[str, float],
) -> np.ndarray:
    """Relative compression-error bound (Eq. 5) along the input-error axis."""
    values = []
    for x_rel in input_rel_errors:
        if norm == "linf":
            absolute = analyzer.compression_bound_linf(x_rel * scales["input_linf"])
            values.append(absolute / scales["output_linf"])
        else:
            input_l2 = x_rel * scales["input_l2"]
            values.append(analyzer.compression_bound(input_l2) / scales["output_l2"])
    return np.asarray(values)


def variant_analyzers(name: str) -> dict:
    """QoI analyzers for the psn / plain / weight-decay variants."""
    analyzers = {}
    for variant in ("psn", "plain", "weight_decay"):
        analyzers[variant] = load_workload(name, variant=variant).qoi_analyzer()
    return analyzers
