"""Extension bench: the paper's Section VI future-work item, measured.

U-Net error flow — Eq. (3)-style bounds on a trained spectral U-Net
(nested skip connections handled by the concat-join algebra).
"""

import numpy as np
import pytest

from conftest import print_table, run_once
from repro.core import ErrorFlowAnalyzer
from repro.models import unet
from repro.nn import Adam, MSELoss, Trainer
from repro.quant import BF16, FP16, INT8, TF32, materialize, quantize_model


@pytest.fixture(scope="module")
def denoising_unet():
    rng = np.random.default_rng(5)
    model = unet(in_channels=1, out_channels=1, base_width=8, depth=2, rng=rng)
    grid = np.linspace(0, 6, 24)
    clean = np.stack(
        [
            np.sin(grid + phase)[None, :] * np.cos(grid * 0.7)[:, None]
            for phase in np.linspace(0, 3, 64)
        ]
    )[:, None].astype(np.float32)
    noisy = clean + 0.1 * rng.standard_normal(clean.shape).astype(np.float32)
    trainer = Trainer(
        model, MSELoss(), Adam(model.parameters(), lr=2e-3), spectral_weight=1e-4
    )
    trainer.fit(noisy, clean, epochs=25, batch_size=8, rng=rng)
    model.eval()
    return model, noisy


def test_unet_error_bounds(benchmark, denoising_unet):
    model, noisy = denoising_unet
    analyzer = ErrorFlowAnalyzer(model, (1, 24, 24))
    x = noisy[:16]

    def compute():
        reference = materialize(model)(x)
        rows = []
        for fmt in (TF32, FP16, BF16, INT8):
            quantized = quantize_model(model, fmt)
            achieved = float(
                np.linalg.norm((quantized(x) - reference).reshape(len(x), -1), axis=1).max()
            )
            rows.append([fmt.name, achieved, analyzer.quantization_bound(fmt)])
        return rows

    rows = run_once(benchmark, compute)
    print_table(
        "Extension: U-Net quantization bounds (Section VI architecture)",
        ["format", "achieved", "bound"],
        rows,
    )
    for fmt_name, achieved, bound in rows:
        assert achieved <= bound, f"{fmt_name} bound violated on the U-Net"
    by_format = {r[0]: r for r in rows}
    assert np.isclose(by_format["tf32"][2], by_format["fp16"][2], rtol=1e-6)
    assert by_format["int8"][2] > by_format["bf16"][2] > by_format["fp16"][2]
