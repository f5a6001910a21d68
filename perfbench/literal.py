"""The benchmark's own reference: the literal 1/r sum at sampled voxels.

Everything here re-derives the physics from the capture's histograms with
plain numpy, independently of the library's I/O, phasor projection and
propagators, so that a change to any timed layer is checked against it.
The sum is the one the test suite's ``literal_field`` helper evaluates:
for each voxel x_v, over frequencies and illuminations in ascending order,

    exp(s*1j*(w/c)*|x_p - x_v|) * sum_c coeff * exp(s*1j*(w/c)*r) / r

with r = |x_c - x_v| and s = +1 the propagation sign.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299792458.0
PROPAGATION_SIGN = +1.0


def phasor_coefficients(hist: np.ndarray, delta_t: float, lambda_c: float,
                        t0: float = 0.0, threshold: float = 0.01):
    """Frequencies and ``[n_illum, n_detect, F]`` coefficients of a histogram array.

    A positive DFT bin is kept when the Gaussian packet centred at
    ``2*pi*c/lambda_c`` with width ``c/(5*lambda_c)`` weighs it at least
    ``threshold``; the coefficient is the FFT value times that weight,
    referred back to absolute time zero.
    """
    n_bins = hist.shape[-1]
    omega_c = 2.0 * math.pi * SPEED_OF_LIGHT / lambda_c
    sigma = SPEED_OF_LIGHT / (5.0 * lambda_c)
    bins = np.arange(1, n_bins // 2 + 1)
    omegas = 2.0 * math.pi * bins / (n_bins * delta_t)
    weights = np.exp(-((omegas - omega_c) ** 2) / (2.0 * sigma * sigma))
    keep = weights >= threshold
    spectrum = np.fft.rfft(hist, axis=-1)[..., bins[keep]]
    coeff = spectrum * weights[keep] * np.exp(-1j * omegas[keep] * t0)
    return omegas[keep], coeff


def voxel_coordinates(grid: dict) -> np.ndarray:
    """``[N, 3]`` voxel positions in the output enumeration (x fastest, then y, then plane)."""
    if grid["kind"] == "planes":
        return np.vstack([np.column_stack([np.asarray(p["points"], float),
                                           np.full(len(p["points"]), p["z"])])
                          for p in grid["planes"]])
    (nx, ny, nz), (dx, dy, dz), (x0, y0, z0) = grid["n"], grid["d"], grid["o"]
    zs = z0 + dz * np.arange(nz)
    if grid["kind"] == "cuboid":
        scale_x = scale_y = np.ones(nz)
        cx, cy, jx, jy = x0, y0, np.arange(nx), np.arange(ny)
    else:
        # Frustum: plane k widens its pitch by 1/alpha(z_k) about the
        # (nx//2, ny//2) node, with x_in/(x_in + (z - z0)/alpha0) as alpha(z).
        a0 = grid["alpha0"]
        scale_x = (nx * dx + (zs - z0) / a0) / (nx * dx)
        scale_y = (ny * dy + (zs - z0) / a0) / (ny * dy)
        cx, cy = x0 + (nx // 2) * dx, y0 + (ny // 2) * dy
        jx, jy = np.arange(nx) - nx // 2, np.arange(ny) - ny // 2
    out = []
    for k, z in enumerate(zs):
        xx, yy = np.meshgrid(cx + dx * scale_x[k] * jx, cy + dy * scale_y[k] * jy)
        out.append(np.column_stack([xx.ravel(), yy.ravel(), np.full(xx.size, z)]))
    return np.vstack(out)


def literal_field(freqs: np.ndarray, coeff: np.ndarray, det: np.ndarray,
                  ill: np.ndarray, voxels: np.ndarray) -> np.ndarray:
    """The literal sum at ``voxels`` (``[K, 3]``) for detectors ``det`` and sources ``ill``."""
    r_det = np.sqrt(((det[None, :, :] - voxels[:, None, :]) ** 2).sum(axis=2))
    r_ill = np.sqrt(((ill[None, :, :] - voxels[:, None, :]) ** 2).sum(axis=2))
    out = np.zeros(voxels.shape[0], dtype=np.complex128)
    for fi, w in enumerate(freqs):
        khat = w / SPEED_OF_LIGHT
        kern = _cis(khat * r_det) / r_det
        for p in range(ill.shape[0]):
            # An explicit product and sum: a complex matrix-vector product
            # through BLAS is tens of times slower at these sizes.
            out += (kern * coeff[p, :, fi]).sum(axis=1) * _cis(khat * r_ill[:, p])
    return out


def _cis(phase: np.ndarray) -> np.ndarray:
    """``exp(PROPAGATION_SIGN * 1j * phase)`` for real ``phase``, without a complex exp."""
    return np.cos(phase) + (PROPAGATION_SIGN * 1j) * np.sin(phase)


def spot_errors(got: np.ndarray, want: np.ndarray) -> tuple[float, float]:
    """``(spot_err, spot_gain_err)`` of ``got`` against the literal values ``want``.

    ``got`` is fitted as ``alpha * want`` with the least-squares complex
    scale ``alpha``; spot_err is the relative L2 residual of ``got / alpha``
    and spot_gain_err is ``abs(abs(alpha) - 1)``.  A zero or non-finite fit
    reads as infinite error.
    """
    alpha = np.vdot(want, got) / np.vdot(want, want)
    if not np.isfinite(alpha) or alpha == 0:
        return math.inf, math.inf
    err = np.linalg.norm(got / alpha - want) / np.linalg.norm(want)
    return float(err), float(abs(abs(alpha) - 1.0))
