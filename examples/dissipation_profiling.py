"""Borghesi-flame dissipation profiling: a sensitivity-aware workflow.

The paper observes (Section IV-B.2) that the dissipation-rate surrogate
amplifies input perturbations ~10x more than the combustion surrogate.
This script shows the workflow the paper recommends: *measure* the
sensitivity first, then pick compression tolerances accordingly, and
confirm with the error-flow bound that the resulting pipeline stays
inside the QoI budget.

Run:  python examples/dissipation_profiling.py
"""

import numpy as np

from repro import InferencePipeline, TolerancePlanner, load_workload, probe_sensitivity
from repro.compress import MGARDCompressor

QOI_TOLERANCE = 5e-3


def main() -> None:
    borghesi = load_workload("borghesi")
    h2 = load_workload("h2combustion")
    rng = np.random.default_rng(0)

    # --- 1. empirical sensitivity, the paper's Section IV-B.2 comparison ----
    print("input perturbation 1e-3 ->")
    for workload in (h2, borghesi):
        report = probe_sensitivity(
            workload.model, workload.dataset.test_inputs[:300], 1e-3, rng=rng
        )
        print(f"  {workload.name:14s} {report.describe()}")
    bf = probe_sensitivity(borghesi.model, borghesi.dataset.test_inputs[:300], 1e-3, rng=rng)
    h2r = probe_sensitivity(h2.model, h2.dataset.test_inputs[:300], 1e-3, rng=rng)
    print(f"BorghesiFlame amplifies {bf.amplification / h2r.amplification:.1f}x more "
          "than H2Combustion (paper reports ~10x)\n")

    # --- 2. the bound agrees: compare Eq. (5) gains --------------------------
    print(f"Eq. (5) gains: h2 {h2.analyzer.gain():.1f}, "
          f"borghesi {borghesi.analyzer.gain():.1f}")

    # --- 3. plan accordingly: the planner hands Borghesi a tighter input tol --
    plans = {
        workload.name: TolerancePlanner(workload.analyzer).plan(
            QOI_TOLERANCE, norm="linf", quant_fraction=0.3
        )
        for workload in (h2, borghesi)
    }
    for name, plan in plans.items():
        print(f"  {name:14s} -> {plan.describe()}")
    assert plans["borghesi"].input_tolerance < plans["h2combustion"].input_tolerance

    # --- 4. execute and verify -------------------------------------------------
    pipeline = InferencePipeline(borghesi.model, MGARDCompressor(), plans["borghesi"])
    result = pipeline.execute(borghesi.dataset.fields)
    achieved = result.certificate.qoi_error
    print(f"\nborghesi pipeline: ratio {result.compression_ratio:.2f}x, "
          f"achieved {achieved:.3e} <= {QOI_TOLERANCE:.0e}")
    assert achieved <= QOI_TOLERANCE
    print("dissipation workflow OK")


if __name__ == "__main__":
    main()
