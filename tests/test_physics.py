"""Tests for the physics substrates: kinetics, turbulence, flow fields."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.physics import (
    H2Mechanism,
    MOLAR_MASS,
    SPECIES,
    advect_scalar,
    box_filter,
    gradient,
    lamb_oseen_vortex,
    mixture_fraction_jet,
    synthesize_scalar,
)
from repro.datasets.combustion import mass_fractions_from_mixture


# -- H2 kinetics ---------------------------------------------------------------


def test_species_count_matches_paper():
    # nine-species hydrogen mechanism (paper Section IV-A.1)
    assert len(SPECIES) == 9
    assert "H2" in SPECIES and "N2" in SPECIES


def test_production_rates_conserve_mass(rng):
    """Every elementary reaction is mass balanced, so sum_i omega_i = 0."""
    mechanism = H2Mechanism()
    z = rng.uniform(0, 1, (50,))
    c = rng.uniform(0, 1, (50,))
    y = mass_fractions_from_mixture(z, c)
    rates = mechanism.production_rates(y)
    assert np.allclose(rates.sum(axis=-1), 0.0, atol=1e-12 * np.abs(rates).max())


def test_nitrogen_is_inert(rng):
    mechanism = H2Mechanism()
    y = mass_fractions_from_mixture(rng.uniform(0, 1, 20), rng.uniform(0, 1, 20))
    rates = mechanism.production_rates(y)
    n2 = SPECIES.index("N2")
    assert np.all(rates[..., n2] == 0.0)


def test_fuel_consumed_where_burning():
    mechanism = H2Mechanism()
    y = mass_fractions_from_mixture(np.array([0.17]), np.array([0.5]))
    rates = mechanism.production_rates(y)
    h2, h2o = SPECIES.index("H2"), SPECIES.index("H2O")
    assert rates[0, h2] < 0.0  # fuel consumed
    assert rates[0, h2o] > 0.0  # water produced


def test_cold_pure_streams_are_inactive():
    mechanism = H2Mechanism()
    # pure oxidizer, no fuel and no radicals: nothing can react
    y = mass_fractions_from_mixture(np.array([0.0]), np.array([0.0]))
    rates = mechanism.production_rates(y)
    assert np.abs(rates).max() < 1e-8 * mechanism.density


def test_temperature_increases_with_progress():
    mechanism = H2Mechanism()
    cold = mass_fractions_from_mixture(np.array([0.3]), np.array([0.0]))
    hot = mass_fractions_from_mixture(np.array([0.3]), np.array([1.0]))
    assert mechanism.temperature(hot)[0] > mechanism.temperature(cold)[0]


def test_production_rates_shape_checked():
    with pytest.raises(ShapeError):
        H2Mechanism().production_rates(np.zeros((4, 5)))


def test_mass_fractions_sum_to_one(rng):
    y = mass_fractions_from_mixture(rng.uniform(0, 1, 100), rng.uniform(0, 1, 100))
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(y >= 0.0)


# -- turbulence -----------------------------------------------------------------


def test_scalar_field_normalized(rng):
    field = synthesize_scalar((64, 64), rng)
    assert abs(field.std() - 1.0) < 1e-9
    assert field.shape == (64, 64)


def test_scalar_field_has_decaying_spectrum(rng):
    field = synthesize_scalar((128, 128), rng, slope=5.0 / 3.0)
    spectrum = np.abs(np.fft.fft2(field)) ** 2
    k = np.fft.fftfreq(128, d=1.0 / 128)
    kk = np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    low = spectrum[(kk > 1) & (kk < 4)].mean()
    high = spectrum[(kk > 16) & (kk < 32)].mean()
    assert low > 10 * high  # energy concentrated at large scales


def test_gradient_matches_numpy(rng):
    field = rng.standard_normal((16, 16))
    ours = gradient(field)
    theirs = np.gradient(field)
    for a, b in zip(ours, theirs):
        assert np.array_equal(a, b)


# -- flow fields -----------------------------------------------------------------


def test_vortex_is_tangential():
    u, v = lamb_oseen_vortex((64, 64))
    # at the point right of center, flow should be mostly vertical
    assert abs(v[32, 48]) > abs(u[32, 48])
    # velocity magnitude decays far from the core
    speed = np.sqrt(u**2 + v**2)
    assert speed[32, 40] > speed[32, 63]


def test_vortex_center_is_stagnant():
    u, v = lamb_oseen_vortex((65, 65))
    speed = np.sqrt(u**2 + v**2)
    assert speed[32, 32] < speed.max() * 0.1


def test_advect_scalar_preserves_range(rng):
    scalar = mixture_fraction_jet((48, 48))
    u, v = lamb_oseen_vortex((48, 48))
    advected = advect_scalar(scalar, u, v, steps=20)
    assert advected.min() >= scalar.min() - 1e-9
    assert advected.max() <= scalar.max() + 1e-9
    # the vortex must actually deform the interface
    assert np.abs(advected - scalar).max() > 0.1


def test_box_filter_smooths(rng):
    field = rng.standard_normal((64, 64))
    filtered = box_filter(field, 5)
    assert filtered.std() < field.std()
    assert np.allclose(box_filter(field, 1), field)


def test_mixture_fraction_jet_profile():
    z = mixture_fraction_jet((64, 32))
    assert z.shape == (64, 32)
    assert z[32, 16] > 0.9  # core
    assert z[2, 16] < 0.1  # ambient
    assert np.all((z >= 0) & (z <= 1))
