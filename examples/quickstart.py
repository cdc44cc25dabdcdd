"""Quickstart: error-bounded inference in five steps.

1. load a trained scientific workload (hydrogen combustion surrogate);
2. ask the error-flow analyzer what a format / input-error choice costs;
3. let the planner split a QoI tolerance between quantization and
   compression;
4. run the full pipeline (compress -> decompress -> quantized inference);
5. verify the achieved QoI error honours the tolerance.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import InferencePipeline, TolerancePlanner, load_workload
from repro.compress import SZCompressor
from repro.quant import FP16, INT8

TOLERANCE = 1e-2  # user budget for the max absolute QoI error


def main() -> None:
    # --- 1. a trained surrogate (9 mass fractions -> 9 reaction rates) ----
    workload = load_workload("h2combustion")
    analyzer = workload.analyzer
    print(f"workload: {workload.name} ({workload.variant}), "
          f"train loss {workload.final_train_loss:.2e}")
    print(f"layer spectral norms: {[round(s, 3) for s in analyzer.layer_sigmas()]}")

    # --- 2. what do reduction choices cost, before touching the model? ----
    print(f"\nEq. (5) gain (input-error amplification): {analyzer.gain():.2f}")
    for fmt in (FP16, INT8):
        print(f"Eq. (3) quantization-only bound for {fmt.name}: "
              f"{analyzer.quantization_bound(fmt):.3e}")

    # --- 3. allocate the tolerance -----------------------------------------
    planner = TolerancePlanner(analyzer)
    plan = planner.plan(TOLERANCE, norm="linf", quant_fraction=0.5)
    print(f"\nplan: {plan.describe()}")

    # --- 4. run the pipeline on the stored fields ---------------------------
    pipeline = InferencePipeline(workload.model, SZCompressor(), plan)
    result = pipeline.execute(workload.dataset.fields)
    print(f"compression ratio: {result.compression_ratio:.2f}x")
    print(f"stage timings: compress {result.compress_seconds * 1e3:.1f} ms, "
          f"decompress {result.decompress_seconds * 1e3:.1f} ms, "
          f"inference {result.inference_seconds * 1e3:.1f} ms")

    # --- 5. the contract ------------------------------------------------------
    achieved = result.certificate.qoi_error
    print(f"\nachieved QoI error {achieved:.3e} <= tolerance {TOLERANCE:.1e}: "
          f"{achieved <= TOLERANCE}")
    assert achieved <= TOLERANCE
    print("quickstart OK")


if __name__ == "__main__":
    np.seterr(all="raise", under="ignore")
    main()
