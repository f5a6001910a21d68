"""Brute-force reference implementations.

Everything here trades speed for transparency: direct evaluation of the
defining sums with no FFTs, no gridding, and no algebraic shortcuts.  The
scaled DFT and the type-1 and type-2 NUDFTs are the ground truth for the fast
transforms; :func:`literal_field`, the per-voxel propagation sum with the
kernel's 1/r, is the one reference every reconstruction algorithm is tested
against.  Summation orders are fixed and BLAS-free (``einsum`` with
``optimize=False``, sequential Python loops) so results are bit-reproducible
across runs and thread counts.
"""

from __future__ import annotations

import numpy as np

from .core import (
    PROPAGATION_SIGN,
    SPEED_OF_LIGHT,
    FrequencySlices,
    _require,
    illumination_coordinates,
)

__all__ = [
    "scaled_dft",
    "nudft1",
    "nudft2",
    "literal_field",
]


def scaled_dft(u: np.ndarray, alpha: float, offset: int = 0) -> np.ndarray:
    """Direct scaled DFT: ``U[k] = sum_n u[n] exp(-2j*pi/M*alpha*(n-o)*(k-o))``."""
    u = np.asarray(u, dtype=np.complex128)
    _require(u.ndim == 1, "reference scaled DFT takes a 1D array")
    m = u.size
    n = np.arange(m) - offset
    mat = np.exp(-2j * np.pi * alpha * np.outer(n, n) / m)
    return np.einsum("kn,n->k", mat, u, optimize=False)


def nudft1(points: np.ndarray, values: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Direct type-1 sum: ``U[k] = sum_l values[l] * exp(-1j * k . x_l)``.

    Mode axes follow array-shape order with x last, matching the fast
    transform; ``k`` runs over the centered index set per axis.
    """
    pts = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.complex128)
    d = len(modes)
    _require(pts.shape == (vals.size, d), "points must be [L, d] with d = len(modes)")
    phase = _mode_phase(pts, modes)
    out = np.einsum("l,lj->j", vals, np.exp(-1j * phase), optimize=False)
    return out.reshape(modes)


def nudft2(coefficients: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Direct type-2 sum: ``out[l] = sum_k coefficients[k] * exp(+1j * k . x_l)``."""
    coeff = np.asarray(coefficients, dtype=np.complex128)
    pts = np.asarray(points, dtype=np.float64)
    _require(pts.ndim == 2 and pts.shape[1] == coeff.ndim,
             "points must be [L, d] with d = coefficient rank")
    phase = _mode_phase(pts, coeff.shape)
    return np.einsum("j,lj->l", coeff.ravel(), np.exp(1j * phase), optimize=False)


def _mode_phase(pts: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Phase table ``k . x`` of shape [L, prod(modes)], modes flattened C-order."""
    d = len(modes)
    grids = np.meshgrid(*[np.arange(m) - m // 2 for m in modes], indexing="ij")
    phase = np.zeros((pts.shape[0], int(np.prod(modes))))
    for axis in range(d):
        # axis runs over mode axes front-to-back; x is the last axis and
        # pairs with point column 0.
        phase += np.outer(pts[:, d - 1 - axis], grids[axis].ravel())
    return phase


def _distances(points_xyz: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = points_xyz - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff, optimize=False))


def literal_field(slices: FrequencySlices, voxels: np.ndarray,
                  include_illumination: bool = True) -> np.ndarray:
    """The literal propagation of frequency slices onto arbitrary voxel positions.

    For each voxel ``x_v`` the field is the double sum

        I(x_v) = sum_w sum_p exp(s*1j*(w/c)|x_p - x_v|)
                 * sum_c P[p, c, w] * exp(s*1j*(w/c)*r) / r,   r = |x_c - x_v|

    with ``s = PROPAGATION_SIGN``: the Rayleigh-Sommerfeld kernel with its
    1/r falloff, which every reconstruction algorithm evaluates.  With
    ``include_illumination=False`` the illumination phase factor is left
    out.  The frequency-major accumulation order is fixed.
    """
    voxels = np.asarray(voxels, dtype=np.float64)
    _require(voxels.ndim == 2 and voxels.shape[1] == 3, "voxels must be [V, 3]")
    det = slices.relay.coordinates()
    ill = illumination_coordinates(slices.relay, slices.illuminations)
    coeff = slices.coefficients
    khat = PROPAGATION_SIGN * slices.frequencies / SPEED_OF_LIGHT
    nf = slices.n_freq
    npt = ill.shape[0]
    out = np.empty(voxels.shape[0], dtype=np.complex128)
    for v in range(voxels.shape[0]):
        r_det = _distances(det, voxels[v])
        r_ill = _distances(ill, voxels[v])
        terms = np.empty((nf, npt), dtype=np.complex128)
        for f in range(nf):
            kernel = np.exp(1j * khat[f] * r_det) / r_det
            for p in range(npt):
                inner = np.sum(coeff[p, :, f] * kernel)
                if include_illumination:
                    inner = np.exp(1j * khat[f] * r_ill[p]) * inner
                terms[f, p] = inner
        out[v] = np.sum(terms.ravel())
    return out
