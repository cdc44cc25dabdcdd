"""Ablation: block/row/column-wise INT8 quantization (paper Section VI).

The paper flags granular affine schemes as future work: grouping weights
with per-group scales captures local dynamic range and cuts the effective
step size.  This bench measures the step-size reduction and achieved QoI
error of each granularity on the trained workloads.
"""

import numpy as np
import pytest

from conftest import print_table, run_once
from repro.quant import Granularity, granular_quantize, materialize

_GRANULARITIES = (
    Granularity.PER_TENSOR,
    Granularity.PER_ROW,
    Granularity.PER_COLUMN,
    Granularity.BLOCK,
)


def _granular_error(workload, granularity):
    model = materialize(workload.qoi_model())
    model.eval()
    samples = workload.dataset.fields_as_samples()
    if workload.name == "eurosat":
        samples = samples[:32]
    reference = model(samples)
    from repro.quant import quantizable_layers

    step_rms = []
    for __, layer in quantizable_layers(model):
        result = granular_quantize(
            layer.weight.data.reshape(layer.weight.data.shape[0], -1),
            bits=8,
            granularity=granularity,
            block_size=16,
        )
        layer.weight.data = result.reconstructed.reshape(layer.weight.data.shape).astype(
            np.float32
        )
        step_rms.append(result.step_rms)
    outputs = model(samples)
    scale = float(np.abs(reference).max())
    achieved = float(np.abs(outputs - reference).max()) / scale
    return float(np.mean(step_rms)), achieved


@pytest.mark.parametrize("workload_name", ["h2combustion", "borghesi"])
def test_granular_quantization_ablation(benchmark, workloads, workload_name):
    workload = workloads[workload_name]

    def compute():
        rows = []
        for granularity in _GRANULARITIES:
            mean_step, achieved = _granular_error(workload, granularity)
            rows.append([granularity.value, mean_step, achieved])
        return rows

    rows = run_once(benchmark, compute)
    print_table(
        f"Ablation ({workload_name}): INT8 granularity vs step size and QoI error",
        ["granularity", "mean step q", "achieved rel err"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    # finer granularities never have a larger RMS step than per-tensor
    for name in ("per_row", "per_column", "block"):
        assert by_name[name][1] <= by_name["per_tensor"][1] * (1 + 1e-9)
    # and at least one of them strictly improves the step size
    assert min(by_name[n][1] for n in ("per_row", "per_column", "block")) < (
        by_name["per_tensor"][1] * 0.999
    )
