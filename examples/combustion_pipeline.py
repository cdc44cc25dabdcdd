"""In-situ combustion analysis: sweeping codecs, formats and tolerances.

Mirrors the paper's hydrogen-combustion scenario (Section IV): a DNS-like
snapshot of 9 species mass fractions is stored compressed; a surrogate
network computes reaction rates from the reconstructed fields while its
weights live in a reduced numeric format.  The script prints, for every
codec and a sweep of QoI tolerances, the selected format, achieved error,
compression ratio and modeled end-to-end throughput — the data behind the
paper's Figs. 10-15.

Run:  python examples/combustion_pipeline.py
"""

import numpy as np

from repro import InferencePipeline, TolerancePlanner, load_workload
from repro.compress import MGARDCompressor, SZCompressor, ZFPCompressor
from repro.models import model_flops
from repro.perf import ExecutionModel, IOModel, RTX3080TI
from repro.quant import materialize

CODECS = {"sz": SZCompressor(), "zfp": ZFPCompressor(), "mgard": MGARDCompressor()}
TOLERANCES = np.logspace(-4, -1, 6)


def main() -> None:
    workload = load_workload("h2combustion")
    planner = TolerancePlanner(workload.analyzer)
    io_model = IOModel()
    exec_model = ExecutionModel(RTX3080TI)
    flops = model_flops(materialize(workload.model), (9,))

    baseline = min(io_model.baseline_gbps, exec_model.data_throughput_gbps(flops, 36, "fp32"))
    print(f"uncompressed FP32 baseline: {baseline:.2f} GB/s\n")
    print(f"{'codec':7s} {'qoi tol':>9s} {'format':>6s} {'achieved':>10s} "
          f"{'ratio':>6s} {'total GB/s':>10s} {'speedup':>8s}")

    for codec_name, codec in CODECS.items():
        for tolerance in TOLERANCES:
            plan = planner.plan(float(tolerance), norm="linf", quant_fraction=0.5)
            pipeline = InferencePipeline(workload.model, codec, plan)
            result = pipeline.execute(workload.dataset.fields)
            achieved = result.certificate.qoi_error
            io_gbps = io_model.throughput_gbps(codec_name, result.compression_ratio)
            exec_gbps = exec_model.data_throughput_gbps(flops, 36, plan.fmt.name)
            total = min(io_gbps, exec_gbps)
            print(f"{codec_name:7s} {tolerance:9.1e} {plan.fmt.name:>6s} "
                  f"{achieved:10.2e} {result.compression_ratio:6.2f} "
                  f"{total:10.2f} {total / baseline:7.2f}x")
            assert achieved <= tolerance
        print()

    print("every run honoured its QoI tolerance")


if __name__ == "__main__":
    main()
