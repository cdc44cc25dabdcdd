"""Ablation: per-layer mixed-format quantization (paper Section IV-D).

"The granularity of quantization can be improved by enabling per-layer
quantization with different formats, thereby introducing a significantly
larger optimization space."  This bench greedily downgrades each layer to
the cheapest format whose Eq. (3) bound still fits the budget and
compares the resulting memory footprint against uniform quantization.
"""

import numpy as np
import pytest

from conftest import print_table, run_once
from repro.quant import FP16, FP32, INT8, materialize, quantize_model

_LADDER = (FP32, FP16, INT8)  # increasingly cheap per-layer options


def _greedy_mixed_plan(analyzer, budget):
    """Downgrade layers in order of their quantization impact.

    Layers whose INT8 noise moves the bound least are downgraded first,
    so the budget is spent where it buys the most memory.
    """
    n_layers = len(analyzer.spec.linear_specs())
    formats = [FP32] * n_layers

    def single_layer_cost(index):
        trial = [FP32] * n_layers
        trial[index] = INT8
        return analyzer.quantization_bound(trial)

    order = sorted(range(n_layers), key=single_layer_cost)
    for index in order:
        for candidate in reversed(_LADDER):  # cheapest first
            trial = list(formats)
            trial[index] = candidate
            if analyzer.quantization_bound(trial) <= budget:
                formats = trial
                break
    return formats


@pytest.mark.parametrize("workload_name", ["h2combustion", "borghesi"])
def test_mixed_precision_beats_uniform_memory(benchmark, workloads, workload_name):
    workload = workloads[workload_name]
    analyzer = workload.qoi_analyzer()
    # budget between the FP16-uniform and INT8-uniform bounds: uniform
    # selection must fall back to FP16, mixed precision can do better
    fp16_bound = analyzer.quantization_bound(FP16)
    int8_bound = analyzer.quantization_bound(INT8)
    budget = np.sqrt(fp16_bound * int8_bound)

    def compute():
        mixed_formats = _greedy_mixed_plan(analyzer, budget)
        mixed = quantize_model(workload.qoi_model(), mixed_formats)
        uniform = quantize_model(workload.qoi_model(), FP16)
        model = materialize(workload.qoi_model())
        model.eval()
        samples = workload.dataset.fields_as_samples()
        reference = model(samples)
        achieved = float(np.abs(mixed(samples) - reference).max())
        return mixed_formats, mixed, uniform, achieved

    mixed_formats, mixed, uniform, achieved = run_once(benchmark, compute)
    rows = [
        [name, fmt.name, q]
        for name, fmt, q in zip(mixed.layer_names, mixed.formats, mixed.step_sizes)
    ]
    print_table(
        f"Ablation ({workload_name}): greedy per-layer formats (budget {budget:.2e})",
        ["layer", "format", "step q"],
        rows,
    )
    print(
        f"\nmemory: mixed {mixed.quantized_bytes} B vs uniform-fp16 "
        f"{uniform.quantized_bytes} B; achieved {achieved:.3e} <= budget {budget:.3e}"
    )
    assert analyzer.quantization_bound(mixed_formats) <= budget
    assert achieved <= budget
    # the larger optimization space must be exploited: at least one layer
    # dropped below FP16 while respecting a budget uniform INT8 violates
    assert any(fmt is INT8 for fmt in mixed_formats)
    # On deep networks (Borghesi, 9 layers) the per-layer freedom wins on
    # memory; on the 3-layer H2 net the FP32 fallback of the dominant
    # layer can outweigh the INT8 savings — a genuine ablation finding.
    if workload_name == "borghesi":
        assert mixed.quantized_bytes < uniform.quantized_bytes
