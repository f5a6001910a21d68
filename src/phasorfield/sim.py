"""Synthetic transient capture of point-scatterer scenes.

The renderer deposits each three-bounce return (illumination point ->
scatterer -> detection point) into a time histogram at its exact
time of flight, splitting the energy linearly across the two nearest bins.
Poisson resampling and detector-grid downsampling model the two capture
degradations studied by the reconstruction tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SPEED_OF_LIGHT,
    PointList,
    RelaySampling,
    TransientMeasurement,
    UniformRelay,
    ValidationError,
    _index,
    _require,
    illumination_coordinates,
)

__all__ = [
    "Scatterer",
    "Scene",
    "simulate",
    "add_poisson_noise",
    "subsample_interpolate",
]


@dataclass(frozen=True)
class Scatterer:
    """Isotropic point scatterer at a 3D position with a scalar albedo."""

    position: tuple[float, float, float]
    albedo: float = 1.0

    def __post_init__(self) -> None:
        pos = tuple(float(v) for v in self.position)
        _require(len(pos) == 3 and all(math.isfinite(v) for v in pos),
                 "scatterer position must be a finite 3D point")
        _require(self.albedo >= 0 and math.isfinite(self.albedo),
                 "scatterer albedo must be >= 0")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class Scene:
    """A hidden scene: point scatterers plus a constant ambient level per bin."""

    scatterers: tuple[Scatterer, ...]
    ambient: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        _require(len(self.scatterers) >= 1, "scene needs at least one scatterer")
        _require(self.ambient >= 0 and math.isfinite(self.ambient),
                 "ambient level must be >= 0")


def simulate(scene: Scene, relay: RelaySampling, illuminations: PointList | None,
             delta_t: float, n_bins: int, t0: float = 0.0, confocal: bool = False,
             falloff: bool = True) -> TransientMeasurement:
    """Render three-bounce transients of ``scene`` onto the relay samples.

    Each (illumination p, detector c, scatterer s) return arrives at
    ``t = (|x_p - x_s| + |x_s - x_c|)/c`` with amplitude ``albedo/(r1^2*r2^2)``
    (or plain ``albedo`` with ``falloff=False``) and is split linearly across
    the two bins bracketing ``(t - t0)/delta_t``.  A return falling outside
    the time window is an error naming the scatterer.  Confocal capture uses
    every relay point as its own illumination (square histogram array filled
    on the diagonal only) and ignores ``illuminations``.
    """
    _require(delta_t > 0, "bin width must be > 0")
    n_bins = _index(n_bins, "n_bins")
    _require(n_bins >= 2, "need at least two time bins")
    det = relay.coordinates()
    if confocal:
        ill_points = PointList(det)
        ill = det
    else:
        _require(illuminations is not None,
                 "non-confocal capture needs explicit illumination points")
        ill_points = illuminations
        ill = illumination_coordinates(relay, illuminations)
    hist = np.zeros((ill.shape[0], det.shape[0], n_bins))
    pairs = (((i, i) for i in range(det.shape[0])) if confocal
             else ((p, c) for p in range(ill.shape[0]) for c in range(det.shape[0])))
    for p, c in pairs:
        for si, s in enumerate(scene.scatterers):
            pos = np.asarray(s.position)
            r1 = float(np.linalg.norm(ill[p] - pos))
            r2 = float(np.linalg.norm(pos - det[c]))
            _require(r1 > 0 and r2 > 0,
                     f"scatterer {si} at {s.position} coincides with a relay or "
                     "illumination point")
            amp = s.albedo / (r1 * r1 * r2 * r2) if falloff else s.albedo
            b = ((r1 + r2) / SPEED_OF_LIGHT - t0) / delta_t
            b0 = math.floor(b)
            frac = b - b0
            if b0 < 0 or b0 > n_bins - 1 or (frac > 0 and b0 + 1 > n_bins - 1):
                raise ValidationError(
                    f"scatterer {si} at {s.position} arrives at bin {b:.3f}, outside "
                    f"the {n_bins}-bin window (illumination {p}, detector {c})")
            hist[p, c, b0] += amp * (1.0 - frac)
            if frac > 0:
                hist[p, c, b0 + 1] += amp * frac
        if scene.ambient > 0:
            hist[p, c, :] += scene.ambient
    return TransientMeasurement(relay, ill_points, hist, delta_t, t0)


def add_poisson_noise(m: TransientMeasurement, scale: float,
                      seed: int) -> TransientMeasurement:
    """Replace each histogram value ``v`` with a Poisson draw of mean ``scale*v``.

    The draw is returned as raw counts (no rescaling), so larger ``scale``
    means more photons and relatively less noise.  The generator is seeded,
    making the draw reproducible.
    """
    _require(scale > 0 and math.isfinite(scale), "photon scale must be > 0")
    seed = _index(seed, "seed")
    _require(seed >= 0, "seed must be >= 0")
    rng = np.random.default_rng(seed)
    noisy = rng.poisson(scale * m.histograms).astype(np.float64)
    return TransientMeasurement(m.relay, m.illuminations, noisy, m.delta_t, m.t0)


def _kept_indices(n: int, every: int) -> np.ndarray:
    kept = sorted(set(range(0, n, every)) | {n - 1})
    return np.asarray(kept, dtype=np.int64)


def _interp_axis(values: np.ndarray, kept: np.ndarray, n_full: int, axis: int,
                 scheme: str) -> np.ndarray:
    """Interpolate complex samples at ``kept`` positions onto 0..n_full-1."""
    moved = np.moveaxis(values, axis, -1)
    full = np.arange(n_full, dtype=np.float64)
    knots = kept.astype(np.float64)
    if scheme == "nearest":
        # Ties between two knots resolve to the lower-index knot.
        mids = (knots[:-1] + knots[1:]) / 2.0
        pick = np.searchsorted(mids, full, side="left")
        out = moved[..., pick]
    else:
        flat = moved.reshape(-1, moved.shape[-1])
        out = np.empty(flat.shape[:-1] + (n_full,), dtype=np.complex128)
        for i in range(flat.shape[0]):
            out[i] = (np.interp(full, knots, flat[i].real)
                      + 1j * np.interp(full, knots, flat[i].imag))
        out = out.reshape(moved.shape[:-1] + (n_full,))
    return np.moveaxis(out, -1, axis)


def subsample_interpolate(m: TransientMeasurement, n: int, scheme: str = "linear"
                          ) -> tuple[TransientMeasurement, float]:
    """Keep every ``n``-th detector per grid axis and re-inflate by interpolation.

    Kept columns/rows are ``0, n, 2n, ...`` plus the last index (so the grid
    extent survives).  The kept histograms are moved to the frequency domain
    over time, interpolated spatially axis-by-axis (``nearest`` or ``linear``
    on the real and imaginary parts), transformed back, and clipped at zero.
    Returns the re-inflated measurement on the original grid together with
    the virtual wavelength recommended for reconstructing it
    (``2 * n * pitch``).
    """
    _require(isinstance(m.relay, UniformRelay),
             "detector downsampling needs a uniform relay grid")
    _require(scheme in ("nearest", "linear"), "scheme must be 'nearest' or 'linear'")
    g = m.relay.grid
    n = _index(n, "downsampling factor n")
    _require(n >= 2, "downsampling factor must be >= 2")
    _require(n < min(g.nx, g.ny), "downsampling factor must be smaller than the grid")
    kept_x = _kept_indices(g.nx, n)
    kept_y = _kept_indices(g.ny, n)
    hist = m.histograms.reshape(m.n_illum, g.ny, g.nx, m.n_bins)
    kept = hist[:, kept_y[:, None], kept_x[None, :], :]
    spec = np.fft.rfft(kept, axis=-1)
    spec = _interp_axis(spec, kept_x, g.nx, axis=2, scheme=scheme)
    spec = _interp_axis(spec, kept_y, g.ny, axis=1, scheme=scheme)
    full = np.fft.irfft(spec, n=m.n_bins, axis=-1)
    full = np.clip(full, 0.0, None).reshape(m.n_illum, g.ny * g.nx, m.n_bins)
    out = TransientMeasurement(m.relay, m.illuminations, full, m.delta_t, m.t0)
    return out, 2.0 * n * max(g.dx, g.dy)
