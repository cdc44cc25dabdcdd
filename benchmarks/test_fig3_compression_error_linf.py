"""Fig. 3: compression-error bound vs achieved QoI error, L-infinity norm.

For each workload: the achieved relative QoI error distribution (three
codecs, five independent batches) against the relative input error, the
Eq. (5) bound line of the PSN-trained network, and the baseline /
weight-decay bound lines the paper compares against.  Right panels:
per-feature QoI error at a relative input error of 1e-5.
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
_NORM = "linf"


@pytest.mark.parametrize("workload_name", ["h2combustion", "borghesi", "eurosat"])
def test_fig3_global_error(benchmark, workloads, workload_name):
    workload = workloads[workload_name]
    scales = input_output_scales(workload)
    analyzers = variant_analyzers(workload_name)

    def compute():
        return compression_error_sweep(workload, _INPUT_ERRORS, _NORM)

    points = run_once(benchmark, compute)

    rows = []
    bound_values = {
        variant: bound_line(analyzer, _INPUT_ERRORS / scales["input_linf"], _NORM, scales)
        for variant, analyzer in analyzers.items()
    }
    for index, tolerance in enumerate(_INPUT_ERRORS):
        at_tol = [p for p in points if p["tolerance"] == tolerance]
        achieved = np.array([p["qoi_rel_err"] for p in at_tol])
        geo = float(np.exp(np.mean(np.log(np.maximum(achieved, 1e-300)))))
        rows.append(
            [
                tolerance,
                geo,
                achieved.max(),
                bound_values["psn"][index],
                bound_values["plain"][index],
                bound_values["weight_decay"][index],
            ]
        )
    print_table(
        f"Fig. 3 ({workload_name}): relative QoI error vs input tolerance (Linf)",
        ["input tol", "achieved geo", "achieved max", "bound (psn)", "bound (plain)", "bound (wd)"],
        rows,
    )

    # The PSN bound must cover the worst achieved error at every level.
    for row in rows:
        assert row[2] <= row[3] * (1 + 1e-9), f"bound violated at tol {row[0]}"
    # PSN training yields a tighter bound than the unregularized baseline.
    assert bound_values["psn"][-1] < bound_values["plain"][-1]


@pytest.mark.parametrize("workload_name", ["h2combustion", "borghesi"])
def test_fig3_per_feature_error(benchmark, workloads, workload_name):
    """Right panels: per-feature QoI error at relative input error 1e-5."""
    workload = workloads[workload_name]
    epsilon = 1e-5
    model = workload.qoi_model()
    model.eval()
    analyzer = workload.qoi_analyzer()

    def compute():
        from repro.compress import ErrorBoundMode, SZCompressor

        fields = workload.dataset.fields
        codec = SZCompressor()
        blob = codec.compress(fields, epsilon, ErrorBoundMode.ABS)
        reconstruction = codec.decompress(blob)
        reference = model(workload.dataset.fields_as_samples(fields))
        outputs = model(workload.dataset.fields_as_samples(reconstruction))
        achieved = np.abs(outputs - reference).max(axis=0)
        bounds = analyzer.per_feature_bounds_linf(epsilon, None)
        return achieved, bounds

    achieved, bounds = run_once(benchmark, compute)
    scale = np.abs(model(workload.dataset.fields_as_samples())).max()
    rows = [
        [feature, achieved[feature] / scale, bounds[feature] / scale]
        for feature in range(len(achieved))
    ]
    print_table(
        f"Fig. 3 ({workload_name}): per-feature QoI error at input 1e-5 (Linf)",
        ["feature", "achieved", "bound"],
        rows,
    )
    assert np.all(achieved <= bounds)
