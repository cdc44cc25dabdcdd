"""The generators' numpy filters against the ``scipy.ndimage`` calls they
replace: bit-equal on the parameters the generators use, and within 1e-12
relative on a grid of shapes (odd widths included) and parameters."""

import numpy as np
import pytest

ndimage = pytest.importorskip("scipy.ndimage")

from repro.datasets.eurosat import _TEXTURES, _gaussian_wrap  # noqa: E402
from repro.physics import (  # noqa: E402
    advect_scalar,
    box_filter,
    lamb_oseen_vortex,
    mixture_fraction_jet,
)

_SHAPES = [(1, 1), (1, 7), (2, 3), (7, 5), (9, 13), (31, 17), (64, 64)]


def _advect_with_scipy(scalar, u, v, dt, steps):
    ny, nx = scalar.shape
    yy, xx = np.meshgrid(np.arange(ny, dtype=np.float64), np.arange(nx, dtype=np.float64), indexing="ij")
    out = scalar.astype(np.float64)
    for __ in range(steps):
        out = ndimage.map_coordinates(
            out, [yy - dt * v * ny, xx - dt * u * nx], order=1, mode="nearest"
        )
    return out


@pytest.mark.parametrize("grid", [24, 64, 96, 256])
def test_advection_is_bit_equal_on_the_h2_vortex(grid):
    u, v = lamb_oseen_vortex((grid, grid))
    jet = mixture_fraction_jet((grid, grid))
    ours = advect_scalar(jet, u, v, steps=25)
    assert np.array_equal(ours, _advect_with_scipy(jet, u, v, 0.02, 25))


@pytest.mark.parametrize("shape", [s for s in _SHAPES if min(s) > 1])
@pytest.mark.parametrize("dt", [0.02, 0.5, 5.0])
def test_advection_agrees_on_a_grid(shape, dt):
    rng = np.random.default_rng(sum(shape))
    scalar, u, v = rng.standard_normal((3,) + shape)
    ours = advect_scalar(scalar, u, v, dt=dt, steps=3)
    np.testing.assert_allclose(ours, _advect_with_scipy(scalar, u, v, dt, 3), rtol=1e-12, atol=0)


@pytest.mark.parametrize("grid", [48, 64, 96, 128])
@pytest.mark.parametrize("width", [4, 5])
def test_box_filter_is_bit_equal_on_generator_widths(grid, width):
    field = np.random.default_rng(grid).standard_normal((grid, grid))
    assert np.array_equal(box_filter(field, width), ndimage.uniform_filter(field, size=width, mode="nearest"))


@pytest.mark.parametrize("shape", _SHAPES + [(3, 4, 5)])
@pytest.mark.parametrize("width", [2, 3, 6, 9, 20])
def test_box_filter_agrees_on_a_grid(shape, width):
    field = np.random.default_rng(width).standard_normal(shape)
    expected = ndimage.uniform_filter(field, size=width, mode="nearest")
    np.testing.assert_allclose(box_filter(field, width), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("size", [16, 24, 32])
@pytest.mark.parametrize("texture", _TEXTURES)
def test_gaussian_is_bit_equal_on_every_class_texture(size, texture):
    corr, anisotropy, __ = texture
    sigmas = (corr, corr / anisotropy)
    noise = np.random.default_rng(size).standard_normal((size, size))
    expected = ndimage.gaussian_filter(noise, sigma=sigmas, mode="wrap")
    assert np.array_equal(_gaussian_wrap(noise, sigmas), expected)


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("sigmas", [(0.2, 0.5), (1.0, 3.3), (7.5, 0.1)])
def test_gaussian_agrees_on_a_grid(shape, sigmas):
    noise = np.random.default_rng(len(shape)).standard_normal(shape)
    expected = ndimage.gaussian_filter(noise, sigma=sigmas, mode="wrap")
    np.testing.assert_allclose(_gaussian_wrap(noise, sigmas), expected, rtol=1e-12, atol=0)
