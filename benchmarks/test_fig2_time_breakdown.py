"""Fig. 2: share of inference time spent on load / preprocess / execute.

Reproduces the motivation figure: for ResNets of varying depth and the
mlp_s/m/l family, model execution consumes a growing share of total
pipeline time as FLOPs grow, while data loading dominates for the small
MLPs — the premise for combining I/O reduction *and* quantization.
"""

import numpy as np

from conftest import print_table, run_once
from repro import obs
from repro.models import ZOO_INPUT_SHAPES, build_model, model_flops
from repro.perf import ExecutionModel, RTX3080TI, StageBreakdown, measure_inference_seconds

_ZOO = ("resnet8", "resnet14", "resnet20", "mlp_s", "mlp_m", "mlp_l")


def test_fig2_time_breakdown(benchmark):
    exec_model = ExecutionModel(RTX3080TI)

    def compute():
        rows = []
        for name in _ZOO:
            shape = ZOO_INPUT_SHAPES[name]
            rng = np.random.default_rng(0)
            model = build_model(name, rng=rng)
            flops = model_flops(model, shape)
            bytes_per_sample = int(np.prod(shape)) * 4
            breakdown = exec_model.stage_breakdown(flops, bytes_per_sample, n_samples=10000)
            fractions = breakdown.fractions()
            rows.append(
                [
                    name,
                    flops / 1e6,
                    100 * fractions["load"],
                    100 * fractions["preprocess"],
                    100 * fractions["execute"],
                ]
            )
        return rows

    rows = run_once(benchmark, compute)
    print_table(
        "Fig. 2: inference time breakdown (percent)",
        ["model", "MFLOPs", "load %", "preprocess %", "execute %"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    # deeper ResNets spend a larger share executing
    assert by_name["resnet20"][4] > by_name["resnet8"][4]
    # the large MLP is execution-heavier than the small one
    assert by_name["mlp_l"][4] > by_name["mlp_s"][4]
    # small MLPs are dominated by data movement (load + preprocess)
    assert by_name["mlp_s"][2] + by_name["mlp_s"][3] > by_name["mlp_s"][4]
    # percentages sum to 100
    for row in rows:
        assert abs(sum(row[2:]) - 100.0) < 1e-6


def test_fig2_measured_numpy_execution(benchmark):
    """Real wall-clock of the numpy substrate (the measured data point).

    The measurement is trace-backed: ``measure_inference_seconds`` emits
    one ``execute`` span per repeat, and the figure's
    :class:`StageBreakdown` is built from their summed duration — the
    paper figure and production telemetry read the same span data.
    """
    rng = np.random.default_rng(0)
    model = build_model("mlp_s", rng=rng)

    def measured():
        with obs.capture() as (tracer, _):
            seconds = measure_inference_seconds(model, (256,), batch_size=64, repeats=2)
        return seconds, tracer

    seconds, tracer = benchmark.pedantic(measured, rounds=1, iterations=1)
    assert seconds > 0

    # The spans carry the same measurement the function returned...
    execute_spans = tracer.find("execute")
    assert len(execute_spans) == 2
    assert min(s.duration_s for s in execute_spans) <= seconds <= max(
        s.duration_s for s in execute_spans
    ) or abs(seconds - np.median([s.duration_s for s in execute_spans])) < 5e-3

    # ...and rebuild into the Fig. 2 data structures without re-timing.
    execute = tracer.total_seconds("execute")
    assert execute > 0
    breakdown = StageBreakdown.from_phases({"execute": execute})
    assert breakdown.execute_seconds == execute
    assert breakdown.fractions()["execute"] == 1.0  # pure-execution microbench
