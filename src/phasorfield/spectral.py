"""Fast transforms: plain/centered FFTs, scaled FFTs, and non-uniform FFTs.

Centered convention
-------------------
Most of this package indexes length-P axes by the centered index set
``I_P = {k : -P//2 <= k < P - P//2}`` (array slot ``p`` holds centered index
``p - P//2``).  ``cfft*``/``cifft*`` are DFTs in that convention::

    cfft(a)[k] = sum_j a[j] * exp(-2j*pi*j*k/P)    (j, k centered)

and satisfy the centered circular-convolution identity

    cifft(cfft(a) * cfft(b))[p] = sum_j a[j] * b[wrap(p - j)]

with ``wrap`` reducing the lag into ``I_P`` mod P.  When every needed lag
already lies in ``I_P`` the wrap is inactive and the product computes an
exact linear convolution, which is how all propagation convolutions in this
package are arranged.

A propagation keeps only the output window that holds its voxels, so
``cifft_2d`` takes that window (centered row and column indices) and prunes
the inverse: the transforms along x run for every row, those along y only
for the window's columns.  The kept values are bitwise those of the full
inverse.

Scaled FFT
----------
``sfft_1d`` evaluates ``U[k] = sum_n u[n] * exp(-2j*pi/M * alpha *
(n-o)*(k-o))`` for an arbitrary real scale ``alpha`` via chirp factorization:
``(n-o)(k-o) = [(n-o)^2 + (k-o)^2 - (k-n)^2] / 2`` turns the sum into one
linear convolution against the chirp kernel ``exp(+1j*pi*alpha*l^2/M)``,
computed exactly with zero-padded FFTs.  ``alpha = 1, o = 0`` reproduces the
ordinary DFT.

Non-uniform FFT
---------------
``nufft1`` (points -> modes, exponent ``-1j``) and ``nufft2`` (modes ->
points, exponent ``+1j``) use Gaussian gridding on a 2x-oversampled fine
grid.  The deconvolution divides by the exact discrete window transform
(the DFT of the truncated spread stencil), so points lying exactly on fine
grid nodes are reproduced to roundoff.

Each call builds the spread stencils of its points once, as a sparse
operator ``S`` (CSR, ``(2w+1)^k`` taps per row over the ``k <= 2`` lateral
axes): type-1 spreading is ``S^T v`` and type-2 interpolation is ``S f``.
A 3-D transform keeps the depth axis out of ``S`` as a dense per-point
factor, so no row ever holds ``(2w+1)^3`` taps.  ``nufft2`` uses the same
stencils and deconvolution as ``nufft1`` and is its exact structural
adjoint, so ``<nufft1(c), V> = <c, nufft2(V)>`` holds to machine precision.

Both transforms take a batch of vectors that share one point set
(``[L, B]`` values for ``nufft1``, ``batch=True`` with ``[B, *modes]``
coefficients for ``nufft2``) and reuse one operator for every column.
Batch columns go through the fine grid in chunks whose buffers stay within
``_FINE_CHUNK_BYTES``, so memory does not grow with ``B``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import fft as sp_fft
from scipy.fft import next_fast_len
from scipy.sparse import csr_array

from .core import ValidationError, _require

__all__ = [
    "cfft_2d",
    "cifft_2d",
    "cfft_n",
    "cifft_n",
    "SfftPlan",
    "sfft_1d",
    "sfft_2d",
    "sfft_2d_centered",
    "NufftPlan",
    "nufft1",
    "nufft2",
    "next_fast_len",
]


# ---------------------------------------------------------------------------
# Plain and centered FFTs
# ---------------------------------------------------------------------------


def cfft_n(u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Centered-index forward DFT over ``axes``."""
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(u, axes=axes), axes=axes), axes=axes)


def cifft_n(u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Centered-index inverse DFT over ``axes``."""
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(u, axes=axes), axes=axes), axes=axes)


def cfft_2d(u: np.ndarray) -> np.ndarray:
    """Centered-index forward DFT over the last two axes."""
    return cfft_n(u, axes=(-2, -1))


def cifft_2d(u: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """Centered-index inverse DFT over the last two axes, optionally windowed.

    ``rows`` and ``cols`` are the centered output indices to keep along y and
    x (taken mod the axis length; ``None`` keeps the whole axis).  A windowed
    call inverts along x in place, keeps the window's columns, inverts along
    y over those columns only and keeps the window's rows: the same 1-D
    transforms as the full inverse, so every kept value is bitwise equal to
    the full one, and it computes in complex128.
    """
    if rows is None and cols is None:
        return cifft_n(u, axes=(-2, -1))
    py, px = u.shape[-2:]
    rows = np.arange(-(py // 2), py - py // 2) if rows is None else np.asarray(rows)
    cols = np.arange(-(px // 2), px - px // 2) if cols is None else np.asarray(cols)
    a = np.fft.ifftshift(np.asarray(u, dtype=np.complex128), axes=(-2, -1))
    np.fft.ifft(a, axis=-1, out=a)
    a = a.take(cols % px, axis=-1)
    np.fft.ifft(a, axis=-2, out=a)
    return a.take(rows % py, axis=-2)


# ---------------------------------------------------------------------------
# Scaled FFT (chirp factorization)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SfftPlan:
    """Precomputed chirps for a scaled DFT of fixed (length, scale, offset)."""

    m: int
    alpha: float
    offset: int
    pad: int
    chirp: np.ndarray  # [m] pre/post multiplier exp(-1j*pi*alpha*(n-o)^2/m)
    kernel_fft: np.ndarray  # [pad] FFT of the embedded chirp kernel

    @classmethod
    def build(cls, m: int, alpha: float, offset: int = 0) -> "SfftPlan":
        _require(m >= 1, "transform length must be >= 1")
        _require(math.isfinite(alpha) and alpha != 0.0,
                 "scale factor must be finite and nonzero")
        _require(0 <= offset < m, "index offset must lie in [0, length)")
        n = np.arange(m, dtype=np.float64) - offset
        chirp = np.exp(-1j * np.pi * alpha * n * n / m)
        pad = next_fast_len(max(1, 2 * m - 1))
        lags = np.arange(1 - m, m)
        kernel = np.zeros(pad, dtype=np.complex128)
        kernel[lags % pad] = np.exp(1j * np.pi * alpha * lags * lags / m)
        chirp.setflags(write=False)
        kfft = np.fft.fft(kernel)
        kfft.setflags(write=False)
        return cls(m, float(alpha), int(offset), pad, chirp, kfft)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Transform the last axis of ``u`` (length must equal ``m``)."""
        u = np.asarray(u, dtype=np.complex128)
        _require(u.shape[-1] == self.m, "last axis length must match the plan")
        # One padded buffer carries the whole convolution in place (the
        # ``out=`` of ``np.fft`` needs NumPy 2.0).
        buf = np.zeros(u.shape[:-1] + (self.pad,), dtype=np.complex128)
        np.multiply(u, self.chirp, out=buf[..., : self.m])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= self.kernel_fft
        np.fft.ifft(buf, axis=-1, out=buf)
        return buf[..., : self.m] * self.chirp


# Plan caches are bounded LRUs keyed by (length, scale, offset) and by
# (modes, eps).  A capture needs at most one sFFT plan per axis and frustum
# plane and a few NUFFT plans, so both capacities hold a capture's working
# set many times over while a long sweep of scales cannot grow them.
_SFFT_CACHE_SIZE = 256
_NUFFT_CACHE_SIZE = 32


@lru_cache(maxsize=_SFFT_CACHE_SIZE)
def _sfft_plan(m: int, alpha: float, offset: int) -> SfftPlan:
    return SfftPlan.build(m, alpha, offset)


def sfft_1d(u: np.ndarray, alpha: float, offset: int = 0, axis: int = -1) -> np.ndarray:
    """Scaled DFT along one axis.

    Computes ``U[k] = sum_n u[n] * exp(-2j*pi/M * alpha * (n-offset)*(k-offset))``
    over array positions ``n, k = 0..M-1``.  ``alpha = 1, offset = 0`` agrees
    with the ordinary forward DFT.
    """
    u = np.asarray(u, dtype=np.complex128)
    moved = np.moveaxis(u, axis, -1)
    plan = _sfft_plan(int(moved.shape[-1]), float(alpha), int(offset))
    return np.moveaxis(plan.apply(moved), -1, axis)


def sfft_2d(u: np.ndarray, alpha: float, beta: float | None = None,
            offsets: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Separable scaled DFT of the last two axes.

    ``alpha`` scales the last (x) axis and ``beta`` the second-to-last (y)
    axis; ``offsets = (offset_y, offset_x)`` in array-shape order.
    """
    if beta is None:
        beta = alpha
    out = sfft_1d(u, alpha, offset=offsets[1], axis=-1)
    return sfft_1d(out, beta, offset=offsets[0], axis=-2)


def sfft_2d_centered(u: np.ndarray, alpha: float, beta: float | None = None) -> np.ndarray:
    """Scaled DFT of the last two axes in the centered-index convention.

    Equivalent to :func:`sfft_2d` with per-axis offsets ``M//2``:
    ``U[ky, kx] = sum u[jy, jx] * exp(-2j*pi*(alpha*jx*kx/Mx + beta*jy*ky/My))``
    with all indices centered.  At ``alpha = beta = 1`` this matches
    :func:`cfft_2d` up to roundoff.
    """
    ny, nx = np.asarray(u).shape[-2:]
    return sfft_2d(u, alpha, beta, offsets=(ny // 2, nx // 2))


# ---------------------------------------------------------------------------
# Non-uniform FFT (Gaussian gridding)
# ---------------------------------------------------------------------------

_EPS_MIN = 1e-14
_EPS_MAX = 1e-1
_COORD_TOL = 1e-9


@dataclass(frozen=True)
class NufftPlan:
    """Geometry-independent precomputation for one (modes, eps) pair.

    ``w`` spread half-width grows with the accuracy request; each axis gets a
    fine grid of ``mrs[a] >= 2*modes[a]`` samples, a Gaussian variance
    ``taus[a]``, and the exact discrete deconvolution vector ``kers[a]``
    (the real DFT of the truncated spread stencil, evaluated at the centered
    output modes).
    """

    modes: tuple[int, ...]
    eps: float
    w: int
    mrs: tuple[int, ...]
    taus: tuple[float, ...]
    kers: tuple[np.ndarray, ...]

    @classmethod
    def build(cls, modes: tuple[int, ...], eps: float) -> "NufftPlan":
        _require(1 <= len(modes) <= 3, "supported dimensionalities are 1, 2, 3")
        _require(all(int(m) >= 1 for m in modes), "mode counts must be >= 1")
        _require(math.isfinite(eps) and _EPS_MIN <= eps <= _EPS_MAX,
                 f"accuracy target must lie in [{_EPS_MIN:g}, {_EPS_MAX:g}]")
        modes = tuple(int(m) for m in modes)
        w = max(2, math.ceil(math.log10(1.0 / eps)) + 2)
        mrs = []
        taus = []
        kers = []
        for m in modes:
            mr = next_fast_len(max(2 * m, 2 * w + 2))
            # Gaussian width balancing truncation against aliasing at the
            # actual oversampling ratio; at exactly 2x this is pi*w/(3*m^2).
            sigma = mr / m
            tau = math.pi * w / (sigma * (sigma - 0.5) * m * m)
            h = 2.0 * math.pi / mr
            k = np.arange(m) - m // 2
            ker = np.full(m, 1.0)
            for j in range(1, w + 1):
                ker += 2.0 * math.exp(-(j * h) ** 2 / (4.0 * tau)) * np.cos(k * j * h)
            if not (ker > 0).all():
                raise RuntimeError("window transform must stay positive")
            ker.setflags(write=False)
            mrs.append(mr)
            taus.append(tau)
            kers.append(ker)
        return cls(modes, float(eps), w, tuple(mrs), tuple(taus), tuple(kers))

    def mode_slots(self) -> list[np.ndarray]:
        """Fine-grid DFT slots of the centered output modes, per axis."""
        return [(np.arange(m) - m // 2) % mr for m, mr in zip(self.modes, self.mrs)]

    def windows(self, pts: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Spread stencils for every point: per-axis indices and weights.

        Returns ``(idx, win)`` where ``idx[a]`` is ``[L, 2w+1]`` fine-grid
        indices and ``win[a]`` the matching Gaussian weights.  Axis ``a`` of
        the mode array pairs with point column ``d-1-a`` (x is the last axis).
        """
        d = len(self.modes)
        offs = np.arange(-self.w, self.w + 1)
        idx_list = []
        win_list = []
        for a in range(d):
            x = pts[:, d - 1 - a]
            mr = self.mrs[a]
            tau = self.taus[a]
            h = 2.0 * math.pi / mr
            xi = x - 2.0 * math.pi * np.floor(x / (2.0 * math.pi))
            i0 = np.floor(xi / h + 0.5).astype(np.int64)
            grid = i0[:, None] + offs[None, :]
            delta = grid * h - xi[:, None]
            idx_list.append(grid % mr)
            win_list.append(np.exp(-delta * delta / (4.0 * tau)))
        return idx_list, win_list


@lru_cache(maxsize=_NUFFT_CACHE_SIZE)
def _nufft_plan(modes: tuple[int, ...], eps: float) -> NufftPlan:
    return NufftPlan.build(modes, eps)


def _check_points(pts: np.ndarray, d: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    _require(pts.ndim == 2 and pts.shape[1] == d,
             f"points must be [L, {d}] for {d}-dimensional modes")
    _require(pts.shape[0] >= 1, "need at least one point")
    _require(bool(np.isfinite(pts).all()), "point coordinates must be finite")
    _require(bool((pts >= -math.pi - _COORD_TOL).all()
                  and (pts < math.pi + _COORD_TOL).all()),
             "point coordinates must lie in [-pi, pi)")
    return pts


def _outer(arrs: list[np.ndarray]) -> np.ndarray:
    return reduce(np.multiply.outer, arrs)


# Batch columns are spread into, and read from, fine grids in chunks whose
# grids together stay within this many bytes.
_FINE_CHUNK_BYTES = 1 << 20


class _Spread:
    """Gaussian spread stencils of one point set, built once per call.

    ``matrix`` is the CSR spread operator ``S`` of shape ``[L, mry*mrx]``
    (``[L, mr]`` in 1-D) with ``(2w+1)^k`` taps per row, ``k`` the number of
    lateral axes, so type-1 spreading is ``S^T v`` and type-2 interpolation
    ``S f``.  In 3-D the depth axis never enters ``S``: its stencil is the
    dense ``[L, mrz]`` matrix ``Wz`` (periodic wrap included), transformed
    once here to the centered depth modes and deconvolved, so ``depth`` is
    ``[L, mz]`` and a batch column needs only lateral FFTs.  Type-2 uses the
    conjugate depth factor, which keeps it the exact adjoint of type-1.
    """

    def __init__(self, plan: NufftPlan, pts: np.ndarray):
        idx, win = plan.windows(pts)
        n = pts.shape[0]
        slots = plan.mode_slots()
        self.depth = None
        if len(idx) == 3:
            wz = np.zeros((n, plan.mrs[0]))
            np.put_along_axis(wz, idx[0], win[0], axis=1)
            self.depth = np.fft.fft(wz, axis=1)[:, slots[0]] / plan.kers[0]
            idx, win = idx[1:], win[1:]
        k = len(idx)
        self.mrs = plan.mrs[-k:]
        self.modes = plan.modes[-k:]
        self.slots = slots[-k:]
        self.ker = _outer(list(plan.kers[-k:]))
        cols, wts = idx[0], win[0]
        for i, w, mr in zip(idx[1:], win[1:], self.mrs[1:]):
            cols = (cols[:, :, None] * mr + i[:, None, :]).reshape(n, -1)
            wts = (wts[:, :, None] * w[:, None, :]).reshape(n, -1)
        taps = cols.shape[1]
        index = np.int32 if n * taps <= np.iinfo(np.int32).max else np.int64
        self.matrix = csr_array(
            (wts.ravel(), cols.ravel().astype(index),
             np.arange(0, n * taps + 1, taps, dtype=index)),
            shape=(n, math.prod(self.mrs)))
        n_depth = 1 if self.depth is None else self.depth.shape[1]
        self.chunk = max(1, _FINE_CHUNK_BYTES // (16 * math.prod(self.mrs) * n_depth))

    def type1(self, vals: np.ndarray) -> np.ndarray:
        """``[L, c]`` values to ``[c, *modes]`` deconvolved modes."""
        n, c = vals.shape
        if self.depth is not None:
            vals = vals[:, :, None] * self.depth[:, None, :]
        # S is real: applied to the float64 view of complex columns it acts
        # on real and imaginary parts at once, with no complex copy of S.
        flat = np.ascontiguousarray(vals).reshape(n, -1).view(np.float64)
        fine = np.ascontiguousarray(self.matrix.T @ flat).view(np.complex128)
        fine = fine.reshape(self.mrs + (-1,))
        for ax, sl in enumerate(self.slots):
            fine = np.take(sp_fft.fft(fine, axis=ax, overwrite_x=True), sl, axis=ax)
        fine = fine.reshape(self.modes + (-1,)) / self.ker[..., None]
        if self.depth is None:
            return np.moveaxis(fine, -1, 0)
        return fine.reshape(self.modes + (c, -1)).transpose(2, 3, 0, 1)

    def type2(self, coeff: np.ndarray) -> np.ndarray:
        """``[c, *modes]`` coefficients to ``[c, L]`` point values."""
        c = coeff.shape[0]
        fine = coeff / self.ker
        fine = np.moveaxis(fine, 0, -1) if self.depth is None else fine.transpose(2, 3, 0, 1)
        fine = fine.reshape(self.modes + (-1,))
        for ax, (sl, mr) in enumerate(zip(self.slots, self.mrs)):
            arr = np.zeros(fine.shape[:ax] + (mr,) + fine.shape[ax + 1:], dtype=np.complex128)
            arr[(slice(None),) * ax + (sl,)] = fine
            fine = sp_fft.ifft(arr, axis=ax, norm="forward", overwrite_x=True)
        flat = np.ascontiguousarray(fine).reshape(self.matrix.shape[1], -1).view(np.float64)
        out = np.ascontiguousarray(self.matrix @ flat).view(np.complex128)
        if self.depth is None:
            return out.T
        return np.einsum("lck,lk->cl", out.reshape(out.shape[0], c, -1), self.depth.conj())


def nufft1(points: np.ndarray, values: np.ndarray, modes: tuple[int, ...],
           eps: float) -> np.ndarray:
    """Non-uniform points to uniform modes, exponent ``-1j``.

    ``U[k] = sum_l values[l] * exp(-1j * (kx*x_l + ky*y_l + kz*z_l))`` for
    centered integer modes ``k``; output shape is ``modes`` in array-shape
    order (x is the last axis), and relative error is bounded by ``eps``.
    Point coordinates must lie on the torus ``[-pi, pi)``.  ``values`` of
    shape ``[L, B]`` is a batch of ``B`` vectors sharing the points; the
    output is then ``[B, *modes]``, one mode array per column.
    """
    modes = tuple(int(m) for m in modes)
    plan = _nufft_plan(modes, float(eps))
    pts = _check_points(points, len(modes))
    vals = np.asarray(values, dtype=np.complex128)
    _require(vals.ndim in (1, 2) and vals.shape[0] == pts.shape[0],
             "values must be [L] or [L, B] matching the points")
    _require(bool(np.isfinite(vals).all()), "values must be finite")
    spread = _Spread(plan, pts)
    batch = vals.reshape(pts.shape[0], -1)
    out = np.empty((batch.shape[1],) + modes, dtype=np.complex128)
    for lo in range(0, batch.shape[1], spread.chunk):
        out[lo:lo + spread.chunk] = spread.type1(batch[:, lo:lo + spread.chunk])
    return out if vals.ndim == 2 else out[0]


def nufft2(coefficients: np.ndarray, points: np.ndarray, eps: float, *,
           batch: bool = False) -> np.ndarray:
    """Uniform modes to non-uniform points, exponent ``+1j``.

    ``out[l] = sum_k coefficients[k] * exp(+1j * (kx*x_l + ky*y_l + kz*z_l))``
    over centered integer modes ``k``; exact structural adjoint of
    :func:`nufft1` built from the same stencils and deconvolution.  With
    ``batch=True`` the leading axis of ``coefficients`` indexes ``B`` mode
    arrays read at the same points, and the output is ``[B, L]``.
    """
    coeff = np.asarray(coefficients, dtype=np.complex128)
    stack = coeff if batch else coeff[None]
    _require(2 <= stack.ndim <= 4, "mode array must be 1D, 2D, or 3D")
    _require(bool(np.isfinite(stack).all()), "coefficients must be finite")
    plan = _nufft_plan(tuple(int(m) for m in stack.shape[1:]), float(eps))
    pts = _check_points(points, stack.ndim - 1)
    spread = _Spread(plan, pts)
    out = np.empty((stack.shape[0], pts.shape[0]), dtype=np.complex128)
    for lo in range(0, stack.shape[0], spread.chunk):
        out[lo:lo + spread.chunk] = spread.type2(stack[lo:lo + spread.chunk])
    return out if batch else out[0]
