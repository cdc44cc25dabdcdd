"""Analytic flow structures and filtering helpers for dataset synthesis."""

from __future__ import annotations

import numpy as np

__all__ = ["lamb_oseen_vortex", "advect_scalar", "box_filter", "mixture_fraction_jet"]


def lamb_oseen_vortex(
    shape: tuple[int, int],
    circulation: float = 8.0,
    core_radius: float = 0.15,
    center: tuple[float, float] = (0.5, 0.5),
) -> tuple[np.ndarray, np.ndarray]:
    """Velocity field of a single Lamb-Oseen vortex on the unit square.

    The paper's hydrogen-combustion dataset features "a single vortex
    structure positioned at the center" as the turbulence source; this is
    that structure.
    """
    ny, nx = shape
    y = (np.arange(ny) + 0.5) / ny - center[0]
    x = (np.arange(nx) + 0.5) / nx - center[1]
    dy, dx = np.meshgrid(y, x, indexing="ij")
    radius_sq = dx**2 + dy**2
    radius = np.sqrt(radius_sq) + 1e-12
    tangential = (
        circulation
        / (2.0 * np.pi * radius)
        * (1.0 - np.exp(-radius_sq / core_radius**2))
    )
    u = -tangential * dy / radius
    v = tangential * dx / radius
    return u, v


def advect_scalar(
    scalar: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    dt: float = 0.02,
    steps: int = 10,
) -> np.ndarray:
    """Semi-Lagrangian advection of a scalar by a static velocity field.

    Cheap but stable: each step traces characteristics backwards and
    samples with bilinear interpolation, reading the nearest edge value
    off the grid.  The arithmetic is ``scipy.ndimage.map_coordinates(
    order=1, mode="nearest")``'s, term for term, so the result is
    bit-identical to it; since the velocity is static, the corners and
    weights are computed once.  Used to wrap a mixture-fraction interface
    around the central vortex.
    """
    ny, nx = scalar.shape
    yy, xx = np.meshgrid(np.arange(ny, dtype=np.float64), np.arange(nx, dtype=np.float64), indexing="ij")
    taps = []  # per axis: (index, weight) below and above the departure point
    for coord, size in ((yy - dt * v * ny, ny), (xx - dt * u * nx, nx)):
        low = np.floor(coord)
        weight = 1.0 - (coord - low)
        low = low.astype(np.intp)
        taps.append([(np.clip(low, 0, size - 1), weight), (np.clip(low + 1, 0, size - 1), 1.0 - weight)])
    corners = [(iy * nx + ix, wy, wx) for iy, wy in taps[0] for ix, wx in taps[1]]
    out = scalar.astype(np.float64)
    for __ in range(steps):
        flat, out = out.ravel(), 0.0
        for index, wy, wx in corners:
            out = out + flat[index] * wy * wx
    return out


def box_filter(field: np.ndarray, width: int) -> np.ndarray:
    """Top-hat (box) filter, the standard LES filtering operation.

    Bit-identical to ``scipy.ndimage.uniform_filter(mode="nearest")``:
    along each axis in turn, the edge-padded running sum starts from the
    sequential sum of the first window and then adds each ``entering -
    leaving`` in order, which is one ``cumsum``, divided by ``width``.
    """
    out = field.astype(np.float64)
    if width <= 1:
        return out
    for axis in range(out.ndim):
        line = np.moveaxis(out, axis, -1)
        n = line.shape[-1]
        padded = line[..., np.clip(np.arange(-(width // 2), n + (width - 1) // 2), 0, n - 1)]
        steps = np.zeros(line.shape)
        for k in range(width):
            steps[..., 0] += padded[..., k]
        np.subtract(padded[..., width:], padded[..., :-width], out=steps[..., 1:])
        np.cumsum(steps, axis=-1, out=steps)
        out = np.moveaxis(steps / width, -1, axis)
    return out


def mixture_fraction_jet(
    shape: tuple[int, int], jet_width: float = 0.25, steepness: float = 12.0
) -> np.ndarray:
    """Planar-jet mixture-fraction profile: 1 in the core, 0 outside."""
    ny, __ = shape
    y = (np.arange(ny) + 0.5) / ny - 0.5
    profile = 0.5 * (
        np.tanh(steepness * (y + jet_width / 2)) - np.tanh(steepness * (y - jet_width / 2))
    )
    return np.repeat(profile[:, None], shape[1], axis=1)
