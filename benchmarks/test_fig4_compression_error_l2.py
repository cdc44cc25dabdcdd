"""Fig. 4: compression-error bound vs achieved QoI error, L2 norm.

Same experiment as Fig. 3 with per-sample L2 errors on both axes.
"""

import numpy as np
import pytest

from conftest import print_table, run_once
from figutils import (
    bound_line,
    compression_error_sweep,
    input_output_scales,
    variant_analyzers,
)

_INPUT_ERRORS = np.logspace(-6, -2, 5)
_NORM = "l2"


@pytest.mark.parametrize("workload_name", ["h2combustion", "borghesi", "eurosat"])
def test_fig4_global_error(benchmark, workloads, workload_name):
    workload = workloads[workload_name]
    scales = input_output_scales(workload)
    analyzers = variant_analyzers(workload_name)

    def compute():
        return compression_error_sweep(workload, _INPUT_ERRORS, _NORM)

    points = run_once(benchmark, compute)
    x_grid = np.array(sorted({p["input_rel_err"] for p in points}))

    rows = []
    for tolerance in _INPUT_ERRORS:
        at_tol = [p for p in points if p["tolerance"] == tolerance]
        achieved = np.array([p["qoi_rel_err"] for p in at_tol])
        x_vals = np.array([p["input_rel_err"] for p in at_tol])
        geo = float(np.exp(np.mean(np.log(np.maximum(achieved, 1e-300)))))
        bounds = {
            variant: float(bound_line(analyzer, np.array([x_vals.max()]), _NORM, scales)[0])
            for variant, analyzer in analyzers.items()
        }
        rows.append(
            [tolerance, x_vals.max(), geo, achieved.max(), bounds["psn"], bounds["plain"], bounds["weight_decay"]]
        )
    print_table(
        f"Fig. 4 ({workload_name}): relative QoI error vs input error (L2)",
        ["input tol", "input rel L2", "achieved geo", "achieved max", "bound (psn)", "bound (plain)", "bound (wd)"],
        rows,
    )
    for row in rows:
        assert row[3] <= row[4] * (1 + 1e-9)
    assert rows[-1][4] < rows[-1][5]  # psn bound tighter than plain
    del x_grid


@pytest.mark.parametrize("workload_name", ["h2combustion", "borghesi"])
def test_fig4_per_feature_error(benchmark, workloads, workload_name):
    """Right panels: per-feature L2 QoI error at relative input error 1e-5."""
    workload = workloads[workload_name]
    epsilon = 1e-5
    model = workload.qoi_model()
    model.eval()
    analyzer = workload.qoi_analyzer()

    def compute():
        from repro.compress import ErrorBoundMode, MGARDCompressor

        fields = workload.dataset.fields
        codec = MGARDCompressor()
        blob = codec.compress(fields, epsilon, ErrorBoundMode.ABS)
        reconstruction = codec.decompress(blob)
        samples_ref = workload.dataset.fields_as_samples(fields)
        samples_new = workload.dataset.fields_as_samples(reconstruction)
        delta_out = model(samples_new) - model(samples_ref)
        achieved = np.linalg.norm(delta_out, axis=0)  # per-feature L2 over samples
        input_l2 = float(
            np.linalg.norm((samples_new - samples_ref).reshape(len(samples_ref), -1), axis=1).max()
        )
        per_sample_achieved = np.abs(delta_out).max(axis=0)
        bounds = analyzer.per_feature_bounds(input_l2, None)
        return per_sample_achieved, bounds, achieved

    per_sample_achieved, bounds, __ = run_once(benchmark, compute)
    rows = [[f, per_sample_achieved[f], bounds[f]] for f in range(len(bounds))]
    print_table(
        f"Fig. 4 ({workload_name}): per-feature QoI error at input 1e-5 (L2)",
        ["feature", "achieved", "bound"],
        rows,
    )
    assert np.all(per_sample_achieved <= bounds)
