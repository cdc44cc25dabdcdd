"""In-situ denoising with a U-Net over an error-bounded store.

A Section-VI-flavoured end-to-end scenario: simulation snapshots are
written to an error-bounded :class:`~repro.io.DatasetStore`; an analysis
stage later loads them and runs a spectrally-normalized U-Net denoiser
whose weights are quantized.  The error-flow analyzer certifies, before
any of that runs, that the stored-data tolerance plus the weight format
keeps the denoised fields within budget.

Run:  python examples/insitu_unet_denoising.py
"""


import tempfile

import numpy as np

from repro.core import ErrorFlowAnalyzer
from repro.io import DatasetStore
from repro.models import unet
from repro.nn import Adam, MSELoss, Trainer
from repro.quant import FP16, materialize, quantize_model

# Budget on the denoised field, per sample, in L2 over the 24x24 grid —
# i.e. about 0.3/24 ~ 1e-2 per pixel on fields of order 1.
QOI_TOLERANCE = 3e-1
GRID = 24


def make_snapshots(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(0, 6, GRID)
    clean = np.stack(
        [
            np.sin(grid + phase)[None, :] * np.cos(0.7 * grid)[:, None]
            for phase in rng.uniform(0, 3, n)
        ]
    )[:, None].astype(np.float32)
    noisy = clean + 0.1 * rng.standard_normal(clean.shape).astype(np.float32)
    return clean, noisy


def main() -> None:
    rng = np.random.default_rng(11)

    # --- train the denoiser -------------------------------------------------
    clean, noisy = make_snapshots(64, rng)
    model = unet(in_channels=1, out_channels=1, base_width=8, depth=2, rng=rng)
    trainer = Trainer(
        model, MSELoss(), Adam(model.parameters(), lr=2e-3), spectral_weight=1e-4
    )
    history = trainer.fit(noisy, clean, epochs=25, batch_size=8, rng=rng)
    model.eval()
    print(f"denoiser trained: loss {history.train_loss[0]:.3f} -> "
          f"{history.train_loss[-1]:.3f}")

    # --- certify the pipeline before running it ------------------------------
    analyzer = ErrorFlowAnalyzer(model, (1, GRID, GRID))
    analyzer.calibrate(noisy[:16])
    quant_bound = analyzer.quantization_bound(FP16)
    input_budget_l2 = analyzer.invert_compression_tolerance(QOI_TOLERANCE, FP16)
    storage_tolerance = input_budget_l2 / GRID  # pointwise, sqrt(n0)=GRID
    print(f"FP16 weight bound: {quant_bound:.3e}")
    print(f"certified storage tolerance: {storage_tolerance:.3e} (pointwise)")

    # --- the in-situ side: write snapshots through the store -----------------
    __, fresh_noisy = make_snapshots(8, rng)
    with tempfile.TemporaryDirectory() as directory:
        store = DatasetStore(directory)
        for index, snapshot in enumerate(fresh_noisy):
            store.put(f"snap{index:03d}", snapshot, tolerance=storage_tolerance)
        total = sum(store.stored_bytes(name) for name in store.names())
        raw = fresh_noisy.nbytes
        print(f"stored {len(store.names())} snapshots: {raw} B -> {total} B "
              f"({raw / total:.2f}x)")

        # --- the analysis side: load, denoise with quantized weights ----------
        quantized = quantize_model(model, FP16)
        reference = materialize(model)(fresh_noisy)
        worst = 0.0
        for index, name in enumerate(store.names()):
            loaded = store.get(name)[None]
            output = quantized(loaded)
            error = float(np.linalg.norm(output - reference[index : index + 1]))
            worst = max(worst, error)
        print(f"worst denoised-field L2 error: {worst:.3e} <= {QOI_TOLERANCE:.1e}: "
              f"{worst <= QOI_TOLERANCE}")
        assert worst <= QOI_TOLERANCE
    print("in-situ U-Net workflow OK")



if __name__ == "__main__":
    main()
