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
``sfft_1d`` maps ``N`` samples to ``M`` modes: ``U[k] = sum_n u[n] *
exp(-2j*pi/M * alpha * (n-o)*(k-q))`` for ``0 <= n < N`` and ``0 <= k < M``,
with an arbitrary real scale ``alpha``, input offset ``o`` and output offset
``q``.  The denominator is the output length ``M``.  Chirp factorization (the
chirp-z transform of Rabiner, Schafer & Rader, 1969) writes ``(n-o)(k-q) =
[(n-o)^2 + (k-q)^2 - l^2] / 2`` with ``l = (k-q) - (n-o)``, which turns the
sum into one linear convolution of the ``N`` chirped samples against the
kernel ``exp(+1j*pi*alpha*l^2/M)`` over the ``N + M - 1`` steps ``k - n``,
computed exactly with zero-padded FFTs of length ``next_fast_len(N + M -
1)``.  By default ``M = N`` and ``q = o``, and ``alpha = 1, o = 0``
reproduces the ordinary DFT.  Each (lengths, scale, offsets) caches its two
chirps and kernel spectrum.  ``sfft_2d_centered`` so takes a centered input
to the modes of a larger lattice without embedding it in zeros first.

Non-uniform FFT
---------------
``nufft1`` (points -> modes, exponent ``-1j``) and ``nufft2`` (modes ->
points, exponent ``+1j``) use Gaussian gridding on a 2x-oversampled fine
grid over the lateral (x and y) axes.  The deconvolution divides by the
exact discrete window transform (the DFT of the truncated spread stencil),
so points lying exactly on fine grid nodes are reproduced to roundoff.

Each call builds the stencils of its points once (``_Spread``, from each
axis's cached ``_nufft_axis`` and the window ``_windows``) as a sparse
operator ``S`` (CSR, ``(2w+1)^k`` taps per row over the ``k <= 2`` lateral
axes): type-1 spreading is ``S^T v`` and type-2 interpolation is ``S f``.
A 3-D transform grids no depth: type 1 multiplies each value column by
``exp(-1j*kz*z_l)`` for every centered depth mode ``kz`` and runs the 2-D
transform over those phased columns, and type 2 runs the 2-D transform of
every depth mode's lateral array and sums them with ``exp(+1j*kz*z_l)``, so
depth is exact.  ``nufft2`` uses the same stencils, deconvolution and
phases as ``nufft1`` and is its exact structural adjoint, so
``<nufft1(c), V> = <c, nufft2(V)>`` holds to machine precision.

Both transforms take a batch of vectors that share one point set
(``[L, B]`` values for ``nufft1``, ``batch=True`` with ``[B, *modes]``
coefficients for ``nufft2``) and reuse one operator for every column.
Batch columns go through the fine grid in chunks whose buffers stay within
``_FINE_CHUNK_BYTES`` (a 3-D column's depth modes go together), so memory
does not grow with ``B``.

SciPy
-----
Importing this module, and the package, needs NumPy alone: the centered and
scaled FFTs run on ``np.fft``, and ``next_fast_len`` is local.  Only the
NUFFT uses SciPy (``scipy.sparse.csr_array`` for ``S`` and ``scipy.fft``
for the fine-grid transforms), importing it on its first call, so the
algorithms ``nursd1``, ``nursd2``, ``nursd3``, ``nursd3d`` and
``srsd-nursd2`` need SciPy and ``rsd``, ``srsd`` and ``rsd3d`` do not.  The
first call may come from several worker threads at once; Python's import
lock makes them wait for one import.  ``metrics.align_by_correlation`` is
the package's only other use of SciPy.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, reduce

import numpy as np

from .core import _require

__all__ = [
    "cfft_2d",
    "cifft_2d",
    "cfft_n",
    "cifft_n",
    "sfft_1d",
    "sfft_2d",
    "sfft_2d_centered",
    "nufft1",
    "nufft2",
    "next_fast_len",
]


# ---------------------------------------------------------------------------
# Plain and centered FFTs
# ---------------------------------------------------------------------------


def next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer ``>= target`` (a fast complex FFT length),
    as ``scipy.fft.next_fast_len`` gives it.

    Each product ``f`` of powers of 3, 5, 7 and 11 below the best length so
    far is completed by the least power of two that takes it to ``target``,
    so a target near ``2**31`` visits about a thousand products.
    """
    target = operator.index(target)
    _require(target >= 1, "FFT length target must be >= 1")
    t1 = target - 1
    best = 1 << t1.bit_length()
    f11 = 1
    while f11 < best:
        f7 = f11
        while f7 < best:
            f5 = f7
            while f5 < best:
                f = f5
                while f < best:
                    # f * 2**s >= target exactly when 2**s > (target - 1) // f.
                    c = f << (t1 // f).bit_length()
                    if c <= best:
                        if c == target:
                            return c
                        best = c
                    f *= 3
                f5 *= 5
            f7 *= 7
        f11 *= 11
    return best


def cfft_n(u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Centered-index forward DFT over ``axes``."""
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(u, axes=axes), axes=axes), axes=axes)


def cifft_n(u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Centered-index inverse DFT over ``axes``."""
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(u, axes=axes), axes=axes), axes=axes)


def cfft_2d(u: np.ndarray) -> np.ndarray:
    """Centered-index forward DFT over the last two axes.

    The transforms run in place on the shifted copy, along x and then along
    y, as :func:`numpy.fft.fftn` orders them, so the result is bitwise
    equal to :func:`cfft_n` over the same axes; it computes in complex128.
    """
    a = np.fft.ifftshift(np.asarray(u, dtype=np.complex128), axes=(-2, -1))
    np.fft.fft(a, axis=-1, out=a)
    np.fft.fft(a, axis=-2, out=a)
    return np.fft.fftshift(a, axes=(-2, -1))


def cifft_2d(u: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """Centered-index inverse DFT over the last two axes, optionally windowed.

    ``rows`` and ``cols`` are the centered output indices to keep along y and
    x (taken mod the axis length; ``None`` keeps the whole axis).  The
    inverse runs along x in place, keeps the window's columns, runs along y
    over those columns only and keeps the window's rows: the same 1-D
    transforms as the full inverse, so every kept value is bitwise equal to
    the full one, and it computes in complex128.
    """
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


# Scaled-FFT plans and NUFFT axes are bounded LRUs keyed by (lengths, scale,
# offsets) and by (modes, eps) of one axis.  A capture needs at most one
# scaled-FFT plan per axis and frustum plane and a few NUFFT axes, so both
# capacities hold its working set many times over while a long sweep of
# scales cannot grow them.
_SFFT_CACHE_SIZE = 256
_NUFFT_CACHE_SIZE = 32


@lru_cache(maxsize=_SFFT_CACHE_SIZE)
def _sfft_plan(n_in: int, m_out: int, alpha: float, offset_in: int,
               offset_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(chirp_in, chirp_out, kernel_fft)`` of one scaled DFT from
    ``n_in`` samples to ``m_out`` modes: the ``[n_in]`` pre-multiplier
    ``exp(-1j*pi*alpha*(n-o_in)^2/m_out)``, the ``[m_out]`` post-multiplier
    likewise in ``k - o_out``, and the FFT of the chirp kernel at the lags
    ``k - n`` embedded in the padded convolution length."""
    n = np.arange(n_in, dtype=np.float64) - offset_in
    chirp_in = np.exp(-1j * np.pi * alpha * n * n / m_out)
    k = np.arange(m_out, dtype=np.float64) - offset_out
    chirp_out = np.exp(-1j * np.pi * alpha * k * k / m_out)
    pad = next_fast_len(n_in + m_out - 1)
    steps = np.arange(1 - n_in, m_out)
    lags = steps + (offset_in - offset_out)
    kernel = np.zeros(pad, dtype=np.complex128)
    kernel[steps % pad] = np.exp(1j * np.pi * alpha * lags * lags / m_out)
    chirp_in.setflags(write=False)
    chirp_out.setflags(write=False)
    kfft = np.fft.fft(kernel)
    kfft.setflags(write=False)
    return chirp_in, chirp_out, kfft


def sfft_1d(u: np.ndarray, alpha: float, offset: int = 0, axis: int = -1,
            m_out: int | None = None, offset_out: int | None = None) -> np.ndarray:
    """Scaled DFT along one axis, from its ``N`` samples to ``m_out`` modes.

    Computes ``U[k] = sum_n u[n] * exp(-2j*pi/M * alpha * (n-offset)*(k-offset_out))``
    over array positions ``n = 0..N-1`` and ``k = 0..M-1``, ``M = m_out``.
    ``m_out`` defaults to ``N`` and ``offset_out`` to ``offset``; then
    ``alpha = 1, offset = 0`` agrees with the ordinary forward DFT.
    """
    u = np.moveaxis(np.asarray(u, dtype=np.complex128), axis, -1)
    n_in, alpha, offset = int(u.shape[-1]), float(alpha), int(offset)
    m_out = n_in if m_out is None else int(m_out)
    offset_out = offset if offset_out is None else int(offset_out)
    _require(n_in >= 1, "transform length must be >= 1")
    _require(m_out >= 1, "output length must be >= 1")
    _require(math.isfinite(alpha) and alpha != 0.0,
             "scale factor must be finite and nonzero")
    _require(0 <= offset < n_in, "index offset must lie in [0, length)")
    _require(0 <= offset_out < m_out, "output index offset must lie in [0, output length)")
    chirp_in, chirp_out, kernel_fft = _sfft_plan(n_in, m_out, alpha, offset, offset_out)
    # One padded buffer carries the whole convolution in place (the ``out=``
    # of ``np.fft`` needs NumPy 2.0).
    buf = np.zeros(u.shape[:-1] + kernel_fft.shape, dtype=np.complex128)
    np.multiply(u, chirp_in, out=buf[..., :n_in])
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= kernel_fft
    np.fft.ifft(buf, axis=-1, out=buf)
    return np.moveaxis(buf[..., :m_out] * chirp_out, -1, axis)


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


def sfft_2d_centered(u: np.ndarray, alpha: float, beta: float | None = None,
                     shape: tuple[int, int] | None = None) -> np.ndarray:
    """Scaled DFT of the last two axes in the centered-index convention.

    Maps ``[..., ny, nx]`` samples to ``[..., my, mx]`` modes,
    ``shape = (my, mx)`` defaulting to ``(ny, nx)``:
    ``U[ky, kx] = sum u[jy, jx] * exp(-2j*pi*(alpha*jx*kx/mx + beta*jy*ky/my))``
    with all indices centered, as :func:`sfft_2d` gives it on the samples
    embedded centered in a ``[my, mx]`` zero array.  The x pass runs over the
    ``ny`` input rows only, then the y pass over the ``mx`` columns.  At
    ``alpha = beta = 1`` and the default shape this matches :func:`cfft_2d`
    up to roundoff.
    """
    if beta is None:
        beta = alpha
    ny, nx = np.asarray(u).shape[-2:]
    my, mx = (ny, nx) if shape is None else (int(shape[0]), int(shape[1]))
    out = sfft_1d(u, alpha, nx // 2, axis=-1, m_out=mx, offset_out=mx // 2)
    return sfft_1d(out, beta, ny // 2, axis=-2, m_out=my, offset_out=my // 2)


# ---------------------------------------------------------------------------
# Non-uniform FFT (Gaussian gridding)
# ---------------------------------------------------------------------------

_EPS_MIN = 1e-14
_EPS_MAX = 1e-1
_COORD_TOL = 1e-9


def _check_eps(eps: float) -> float:
    """``eps`` as a float, refused unless it is an accuracy target the NUFFT meets."""
    eps = float(eps)
    _require(math.isfinite(eps) and _EPS_MIN <= eps <= _EPS_MAX,
             f"accuracy target must lie in [{_EPS_MIN:g}, {_EPS_MAX:g}]")
    return eps


@lru_cache(maxsize=_NUFFT_CACHE_SIZE)
def _nufft_axis(m: int, eps: float) -> tuple[int, int, float, np.ndarray]:
    """``(w, mr, tau, ker)`` of one axis of ``m`` modes at accuracy ``eps``:
    the spread half-width, growing with the accuracy request; a fine grid of
    ``mr >= 2*m`` samples; the Gaussian variance; and the read-only exact
    deconvolution (the real DFT of the truncated stencil at the modes)."""
    w = max(2, math.ceil(math.log10(1.0 / eps)) + 2)
    mr = next_fast_len(max(2 * m, 2 * w + 2))
    # Gaussian width balancing truncation against aliasing at the actual
    # oversampling ratio; at exactly 2x this is pi*w/(3*m^2).
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
    return w, mr, tau, ker


def _windows(x: np.ndarray, w: int, mr: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Spread stencils of coordinates ``x`` on one axis: ``[L, 2w+1]``
    fine-grid indices and the matching Gaussian weights."""
    offs = np.arange(-w, w + 1)
    h = 2.0 * math.pi / mr
    xi = x - 2.0 * math.pi * np.floor(x / (2.0 * math.pi))
    i0 = np.floor(xi / h + 0.5).astype(np.int64)
    grid = i0[:, None] + offs[None, :]
    delta = grid * h - xi[:, None]
    return grid % mr, np.exp(-delta * delta / (4.0 * tau))


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


# Batch columns are spread into, and read from, fine grids in chunks whose
# grids together stay within this many bytes.
_FINE_CHUNK_BYTES = 1 << 20


class _Spread:
    """One call's Gaussian spread of its points over the lateral axes.

    ``modes`` are the lateral modes (x alone in 1-D, y and x otherwise) and
    ``matrix`` is the CSR spread operator ``S`` of shape ``[L, mry*mrx]``
    (``[L, mr]`` in 1-D) with ``(2w+1)^k`` taps per row over those ``k``
    axes, so type-1 spreading is ``S^T v`` and type-2 interpolation ``S f``.
    A 3-D call adds the ``[L, mz]`` depth phases ``exp(-1j*kz*z_l)`` of the
    centered depth modes as ``phase`` (``None`` below 3-D); ``step`` is the
    batch columns per fine-grid chunk.
    """

    def __init__(self, modes: tuple[int, ...], eps: float, points: np.ndarray):
        _require(1 <= len(modes) <= 3, "supported dimensionalities are 1, 2, 3")
        _require(all(m >= 1 for m in modes), "mode counts must be >= 1")
        eps = _check_eps(eps)
        pts = _check_points(points, len(modes))
        self.modes = tuple(modes[-2:])
        ws, self.mrs, taus, kers = zip(*(_nufft_axis(m, eps) for m in self.modes))
        self.w = ws[0]
        self.slots = [(np.arange(m) - m // 2) % mr for m, mr in zip(self.modes, self.mrs)]
        self.ker = reduce(np.multiply.outer, kers)
        # Axis a of the mode array pairs with point column d-1-a (x is last).
        n, d = pts.shape[0], len(self.modes)
        cols, wts = _windows(pts[:, d - 1], ws[0], self.mrs[0], taus[0])
        for a in range(1, d):
            i, w = _windows(pts[:, d - 1 - a], ws[a], self.mrs[a], taus[a])
            cols = (cols[:, :, None] * self.mrs[a] + i[:, None, :]).reshape(n, -1)
            wts = (wts[:, :, None] * w[:, None, :]).reshape(n, -1)
        taps = cols.shape[1]
        from scipy.sparse import csr_array  # only the NUFFT needs SciPy
        index = np.int32 if n * taps <= np.iinfo(np.int32).max else np.int64
        self.matrix = csr_array(
            (wts.ravel(), cols.ravel().astype(index),
             np.arange(0, n * taps + 1, taps, dtype=index)),
            shape=(n, math.prod(self.mrs)))
        self.step = max(1, _FINE_CHUNK_BYTES // (16 * math.prod(self.mrs)))
        self.phase = None
        if len(modes) == 3:
            kz = np.arange(modes[0]) - modes[0] // 2
            self.phase = np.exp(-1j * np.outer(pts[:, 2], kz))
            self.step = max(1, self.step // modes[0])

    def type1(self, vals: np.ndarray) -> np.ndarray:
        """``[L, c]`` values to ``[c, *modes]`` deconvolved modes."""
        from scipy.fft import fft
        # S is real: applied to the float64 view of complex columns it acts
        # on real and imaginary parts at once, with no complex copy of S.
        flat = np.ascontiguousarray(vals).view(np.float64)
        fine = np.ascontiguousarray(self.matrix.T @ flat).view(np.complex128)
        fine = fine.reshape(self.mrs + (-1,))
        for ax, sl in enumerate(self.slots):
            fine = np.take(fft(fine, axis=ax, overwrite_x=True), sl, axis=ax)
        fine = fine.reshape(self.modes + (-1,)) / self.ker[..., None]
        return np.moveaxis(fine, -1, 0)

    def type2(self, coeff: np.ndarray) -> np.ndarray:
        """``[c, *modes]`` coefficients to ``[c, L]`` point values."""
        from scipy.fft import ifft
        fine = np.moveaxis(coeff / self.ker, 0, -1)
        for ax, (sl, mr) in enumerate(zip(self.slots, self.mrs)):
            arr = np.zeros(fine.shape[:ax] + (mr,) + fine.shape[ax + 1:], dtype=np.complex128)
            arr[(slice(None),) * ax + (sl,)] = fine
            fine = ifft(arr, axis=ax, norm="forward", overwrite_x=True)
        flat = np.ascontiguousarray(fine).reshape(self.matrix.shape[1], -1).view(np.float64)
        return np.ascontiguousarray(self.matrix @ flat).view(np.complex128).T


def nufft1(points: np.ndarray, values: np.ndarray, modes: tuple[int, ...],
           eps: float) -> np.ndarray:
    """Non-uniform points to uniform modes, exponent ``-1j``.

    ``U[k] = sum_l values[l] * exp(-1j * (kx*x_l + ky*y_l + kz*z_l))`` for
    centered integer modes ``k``; output shape is ``modes`` in array-shape
    order (x is the last axis), and relative error is bounded by ``eps``
    (the depth factor of a 3-D call is exact).
    Point coordinates must lie on the torus ``[-pi, pi)``.  ``values`` of
    shape ``[L, B]`` is a batch of ``B`` vectors sharing the points; the
    output is then ``[B, *modes]``, one mode array per column.
    """
    modes = tuple(int(m) for m in modes)
    spread = _Spread(modes, eps, points)
    phase, step, n = spread.phase, spread.step, spread.matrix.shape[0]
    vals = np.asarray(values, dtype=np.complex128)
    _require(vals.ndim in (1, 2) and vals.shape[0] == n,
             "values must be [L] or [L, B] matching the points")
    _require(bool(np.isfinite(vals).all()), "values must be finite")
    batch = vals.reshape(n, -1)
    out = np.empty((batch.shape[1],) + modes, dtype=np.complex128)
    for lo in range(0, batch.shape[1], step):
        cols = batch[:, lo:lo + step]
        if phase is not None:
            cols = (cols[:, :, None] * phase[:, None, :]).reshape(n, -1)
        out[lo:lo + step] = spread.type1(cols).reshape((-1,) + modes)
    return out if vals.ndim == 2 else out[0]


def nufft2(coefficients: np.ndarray, points: np.ndarray, eps: float, *,
           batch: bool = False) -> np.ndarray:
    """Uniform modes to non-uniform points, exponent ``+1j``.

    ``out[l] = sum_k coefficients[k] * exp(+1j * (kx*x_l + ky*y_l + kz*z_l))``
    over centered integer modes ``k``; exact structural adjoint of
    :func:`nufft1` built from the same stencils, deconvolution and depth
    phases.  With ``batch=True`` the leading axis of ``coefficients`` indexes
    ``B`` mode arrays read at the same points, and the output is ``[B, L]``.
    """
    coeff = np.asarray(coefficients, dtype=np.complex128)
    stack = coeff if batch else coeff[None]
    _require(2 <= stack.ndim <= 4, "mode array must be 1D, 2D, or 3D")
    _require(bool(np.isfinite(stack).all()), "coefficients must be finite")
    spread = _Spread(stack.shape[1:], eps, points)
    phase, step, n = spread.phase, spread.step, spread.matrix.shape[0]
    out = np.empty((stack.shape[0], n), dtype=np.complex128)
    for lo in range(0, stack.shape[0], step):
        vals = spread.type2(stack[lo:lo + step].reshape((-1,) + spread.modes))
        if phase is not None:
            vals = np.einsum("bkl,lk->bl", vals.reshape(-1, phase.shape[1], n), phase.conj())
        out[lo:lo + step] = vals
    return out if batch else out[0]
