"""Tests for the per-layer model and analysis reports."""


def test_describe_model(trained_spectral_mlp):
    from repro.reporting import describe_model

    text = describe_model(trained_spectral_mlp)
    assert "SpectralLinear" in text
    assert "sigma" in text
    assert "q fp16" in text
    assert len(text.splitlines()) == 5  # header + 3 layers + totals


def test_describe_analysis(trained_spectral_mlp):
    from repro.core import ErrorFlowAnalyzer
    from repro.reporting import describe_analysis

    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    text = describe_analysis(analyzer, reference_norm=2.0)
    assert "Eq.(5) gain" in text
    assert "int8" in text
    assert "relative" in text
