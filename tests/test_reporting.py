"""Tests for the per-layer model report."""


def test_describe_model(trained_spectral_mlp):
    from repro.reporting import describe_model

    text = describe_model(trained_spectral_mlp)
    assert "SpectralLinear" in text
    assert "sigma" in text
    assert "q fp16" in text
    assert len(text.splitlines()) == 5  # header + 3 layers + totals
