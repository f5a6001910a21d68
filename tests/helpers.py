"""Shared helpers for the test suite.

Small scenes, relays and error norms.  The literal propagation sum the
reconstructions are checked against is :func:`phasorfield.oracle.literal_field`.
"""

from __future__ import annotations

import numpy as np

from phasorfield import (
    FrequencySlices,
    PointList,
    Scatterer,
    Scene,
    UniformRelay,
    build_kernel,
    simulate,
    to_frequency,
)
from phasorfield.core import UniformGrid2D


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / denom)


def rel_linf(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.max(np.abs(b))
    if denom == 0.0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / denom)


def centered_grid2d(n: int, pitch: float, z: float = 0.0) -> UniformGrid2D:
    origin = -(n - 1) * pitch / 2.0
    return UniformGrid2D(n, n, pitch, pitch, origin, origin, z)


def centered_relay(n: int, pitch: float, z: float = 0.0) -> UniformRelay:
    return UniformRelay(centered_grid2d(n, pitch, z))


def make_slices(scene: Scene, relay, illuminations: PointList, *,
                lambda_c: float = 0.06, delta_t: float = 16e-12,
                n_bins: int = 1024, t0: float = 0.0,
                falloff: bool = True) -> FrequencySlices:
    m = simulate(scene, relay, illuminations, delta_t=delta_t, n_bins=n_bins,
                 t0=t0, falloff=falloff)
    kernel = build_kernel(lambda_c, n_bins, delta_t)
    return to_frequency(m, kernel)


def two_scatterer_slices(**kwargs) -> FrequencySlices:
    """A small fixed scene used by several reconstruction tests."""
    scene = Scene(scatterers=(Scatterer((0.03, -0.02, 0.9), 1.0),
                              Scatterer((-0.05, 0.04, 1.0), 0.7)))
    relay = kwargs.pop("relay", centered_relay(16, 0.02))
    ill = kwargs.pop("illuminations",
                     PointList(np.array([[0.0, 0.0], [0.05, -0.03]])))
    return make_slices(scene, relay, ill, **kwargs)

