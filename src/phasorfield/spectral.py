"""Fast transforms: plain/centered FFTs, scaled FFTs, and non-uniform FFTs.

Centered convention
-------------------
Most of this package indexes length-P axes by the centered index set
``I_P = {k : -P//2 <= k < P - P//2}`` (array slot ``p`` holds centered index
``p - P//2``).  ``cfft_n``/``cifft_n`` are DFTs in that convention::

    cfft(a)[k] = sum_j a[j] * exp(-2j*pi*j*k/P)    (j, k centered)

and satisfy the centered circular-convolution identity

    cifft(cfft(a) * cfft(b))[p] = sum_j a[j] * b[wrap(p - j)]

with ``wrap`` reducing the lag into ``I_P`` mod P.  When every needed lag
already lies in ``I_P`` the wrap is inactive and the product computes an
exact linear convolution, which is how all propagation convolutions in this
package are arranged.

Every other transform holds its spectra in FFT order, centered index ``k``
at slot ``k mod P`` (``np.fft.ifftshift`` of the centered layout, which
``np.fft.fftshift`` gives back), so a convolution's product needs no roll;
samples and output windows keep their centered indices.  ``cfft_2d`` is the
plain 2-D FFT of samples held at the wrap-around slots of their centered
indices, run in place on its input and returning it.  ``cifft_2d`` takes an
FFT-order spectrum to the samples of a window (centered row and column
indices, 1-D integer arrays), as a propagation keeps only the window that
holds its voxels: the transforms along x run in place for every row, those
along y only for the window's columns, and the kept values are bitwise
those of ``cifft_n`` of the centered spectrum.  Both consume their input,
which must be a writeable complex128 array.  ``sfft_2d_centered`` gives its
modes in FFT order from matrices whose columns are in that order, and
``nufft1`` writes, and ``nufft2`` reads, the modes so.

Scaled FFT
----------
``sfft_1d`` maps ``N`` samples to ``M`` modes: ``U[k] = sum_n u[n] *
exp(-2j*pi/M * alpha * (n-o)*(k-q))`` for ``0 <= n < N`` and ``0 <= k < M``,
with an arbitrary real scale ``alpha``, input offset ``o`` and output offset
``q``.  The denominator is the output length ``M``.  By default ``M = N`` and
``q = o``, and ``alpha = 1, o = 0`` reproduces the ordinary DFT.  The sum is
a product with the ``[N, M]`` matrix of its terms, one BLAS ``gemm`` over
the rows; each (lengths, scale, offsets) caches its matrix.
``sfft_2d_centered`` is ``Wy.T @ (u @ Wx)``, so it takes a centered input to
the modes of a larger lattice without embedding it in zeros first.

A row costs ``N*M`` complex multiply-adds, against two FFTs of the padded
length ``next_fast_len(N + M - 1)`` for the chirp-z factorization (Rabiner,
Schafer & Rader, 1969; Bluestein, 1970), which computes the same map as a
linear convolution.  With one BLAS thread, ``sfft_2d_centered`` from
``[8, N, N]`` samples to ``[8, 2N, 2N]`` modes ran 3.1x faster as matrix
products at N = 48, 3.5x at 96, even at 256 and 0.60x at 512 (x86-64,
OpenBLAS 0.3.31).  The matrix's phases round from ``(n-o)(k-q)`` rather
than from the chirps' larger squares, and no FFT adds its roundoff, so
against an exact sum it is also several times more accurate than the
chirp-z.

Non-uniform FFT
---------------
``nufft1`` (points -> modes, exponent ``-1j``) and ``nufft2`` (modes ->
points, exponent ``+1j``) are two-dimensional: ``(my, mx)`` centered modes
and ``[L, 2]`` points ``(x, y)`` on the torus ``[-pi, pi)``.  They spread
with the "exponential of semicircle" kernel ``exp(beta*(sqrt(1 - z^2) -
1))`` of Barnett, Magland & af Klinteberg (SIAM J. Sci. Comput. 41, 2019),
over ``2w+1`` fine-grid nodes round each point's nearest node, on a fine
grid of ``mr = 2m`` samples per axis for 11-smooth ``m``.  At ``eps = 1e-6``
that is 9 taps per axis.  The deconvolution divides by the exact discrete
window transform (the DFT of the node-centred stencil), so, with the
oversampling an integer, points lying exactly on fine grid nodes are
reproduced to roundoff.

Each call builds the stencils of its points once (``_Spread``, from each
axis's cached ``_nufft_axis`` and the window ``_windows``) as a sparse
operator ``S`` (CSR, ``(2w+1)^2`` taps per row): type-1 spreading is
``S^T v`` and type-2 interpolation is ``S f``.  ``nufft2`` uses the same
stencils and deconvolution as ``nufft1`` and is its exact structural
adjoint, so ``<nufft1(c), V> = <c, nufft2(V)>`` holds to machine precision.

The fine grid is padded for a linear convolution, so points clustered on
the torus touch only some of its rows: about half of them for voxels spread
over a plane's padded lattice.  ``S`` spans the touched rows alone.  Type 2 runs its y
pass over the ``mx`` mode columns, keeps the touched rows and runs its x
pass over those only; type 1 runs the x pass over the touched rows and then
the y pass over the ``mx`` kept columns.  A row's 1-D transforms do not
depend on which other rows are transformed, so the pruned passes give
bitwise the values of the full-grid ones.

Both transforms take a batch of vectors that share one point set (``[L, B]``
values for ``nufft1``, ``[B, my, mx]`` coefficients for ``nufft2``) and
reuse one operator for every column.  Batch columns go through the fine grid
in chunks whose buffers stay within ``_FINE_CHUNK_BYTES``, so memory does
not grow with ``B``.

SciPy
-----
Importing this module, and the package, needs NumPy alone: the centered
FFTs run on ``np.fft``, the scaled FFT on ``np.matmul``, and
``next_fast_len`` is local.  Only the NUFFT uses SciPy
(``scipy.sparse.csr_array`` for ``S`` and ``scipy.fft`` for the fine-grid
transforms), importing it on its first call, so the algorithms ``nursd1``,
``nursd2``, ``nursd3``, ``nursd3d`` and ``srsd-nursd2`` need SciPy and
``rsd``, ``srsd`` and ``rsd3d`` do not.  The first call may come from
several worker threads at once; Python's import lock makes them wait for
one import.  ``metrics.align_by_correlation`` is the package's only other
use of SciPy.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .core import _index, _require

__all__ = [
    "cfft_2d",
    "cifft_2d",
    "cfft_n",
    "cifft_n",
    "sfft_1d",
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


def _check_operand(u) -> None:
    """Refuse all but a writeable complex128 ``[..., py, px]`` array with both
    transform axes nonempty, which :func:`cfft_2d` and :func:`cifft_2d` run
    in place on."""
    _require(isinstance(u, np.ndarray) and u.dtype == np.complex128 and u.flags.writeable,
             "input must be a writeable complex128 array")
    _require(u.ndim >= 2, "input must have at least two axes [..., ny, nx]")
    _require(min(u.shape[-2:]) >= 1, "transform lengths must be >= 1")


def _window(value, n: int, name: str) -> np.ndarray:
    """Centered output indices ``value`` of a length-``n`` axis as the FFT-order
    slots that hold them; ``None`` is the whole axis, in centered order."""
    if value is None:
        return np.arange(-(n // 2), n - n // 2) % n
    try:
        idx = np.asarray(value)
    except (TypeError, ValueError):
        idx = None
    _require(idx is not None and idx.ndim == 1 and idx.dtype.kind in "iu",
             f"{name} must be a 1-D array of integers")
    return idx % n


def cfft_2d(u: np.ndarray) -> np.ndarray:
    """Forward DFT over the last two axes, from samples at the wrap-around
    slots of their centered indices to modes in FFT order.

    The plain 2-D FFT, run in place on ``u`` along x and then along y, as
    :func:`numpy.fft.fftn` orders them, so the result is ``u`` itself,
    bitwise equal to ``np.fft.fftn`` over the same axes.  ``u`` must be a
    writeable complex128 array, which the caller gives up.
    """
    _check_operand(u)
    np.fft.fft(u, axis=-1, out=u)
    np.fft.fft(u, axis=-2, out=u)
    return u


def cifft_2d(u: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """Inverse DFT over the last two axes of a spectrum in FFT order, to
    samples at centered indices, optionally windowed.

    ``rows`` and ``cols`` are 1-D integer arrays of the centered output
    indices to keep along y and x (taken mod the axis length; ``None`` keeps
    the whole axis).  The inverse runs along x in place on ``u``, keeps the
    window's columns, runs along y over those columns only and keeps the
    window's rows: the same 1-D transforms as the full inverse, so every kept
    value is bitwise that of :func:`cifft_n` of the centered spectrum.  ``u``
    must be a writeable complex128 array, which the caller gives up.
    """
    _check_operand(u)
    py, px = u.shape[-2:]
    rows, cols = _window(rows, py, "rows"), _window(cols, px, "cols")
    np.fft.ifft(u, axis=-1, out=u)
    a = u.take(cols, axis=-1)
    np.fft.ifft(a, axis=-2, out=a)
    return a.take(rows, axis=-2)


# ---------------------------------------------------------------------------
# Scaled FFT (matrix products)
# ---------------------------------------------------------------------------


# Scaled-FFT plans and NUFFT axes are bounded LRUs keyed by (lengths, scale,
# offsets) and by (modes, eps) of one axis.  A capture needs at most one
# scaled-FFT plan per axis and frustum plane and a few NUFFT axes, so both
# capacities hold its working set many times over while a long sweep of
# scales cannot grow them.  A scaled-FFT plan is a 16*n_in*m_out-byte matrix,
# so its cache holds at most 19 MB at 96 -> 192 modes per axis.
_SFFT_CACHE_SIZE = 64
_NUFFT_CACHE_SIZE = 32


def _pair(value, name: str) -> tuple[int, int]:
    """``value`` as a pair of integers, as ``(my, mx)`` shapes are given."""
    try:
        pair = tuple(value)
    except TypeError:
        pair = ()
    _require(len(pair) == 2, f"{name} must be a pair of integers")
    return _index(pair[0], name), _index(pair[1], name)


@lru_cache(maxsize=_SFFT_CACHE_SIZE)
def _sfft_plan(n_in: int, m_out: int, alpha: float, offset_in: int,
               offset_out: int, fft_order: bool) -> np.ndarray:
    """The read-only ``[n_in, m_out]`` matrix of one scaled DFT from ``n_in``
    samples to ``m_out`` modes, ``exp(-2j*pi*alpha*(n-o_in)*(k-o_out)/m_out)``,
    its columns rolled as ``ifftshift`` rolls them under ``fft_order`` (into
    FFT order for the centered ``o_out = m_out // 2``): ascending modes for
    :func:`sfft_1d`, FFT order for :func:`sfft_2d_centered`."""
    n = np.arange(n_in, dtype=np.float64) - offset_in
    k = np.arange(m_out, dtype=np.float64) - offset_out
    if fft_order:
        k = np.fft.ifftshift(k)
    w = np.exp(-2j * np.pi * (alpha * np.outer(n, k) / m_out))
    w.setflags(write=False)
    return w


def _sfft_matrix(n_in: int, alpha, offset, m_out, offset_out, fft_order: bool) -> np.ndarray:
    """Check one axis's scaled-DFT arguments and return its cached matrix."""
    alpha, offset = float(alpha), _index(offset, "index offset")
    m_out = n_in if m_out is None else _index(m_out, "output length")
    offset_out = offset if offset_out is None else _index(offset_out, "output index offset")
    _require(n_in >= 1, "transform length must be >= 1")
    _require(m_out >= 1, "output length must be >= 1")
    _require(math.isfinite(alpha) and alpha != 0.0,
             "scale factor must be finite and nonzero")
    _require(0 <= offset < n_in, "index offset must lie in [0, length)")
    _require(0 <= offset_out < m_out, "output index offset must lie in [0, output length)")
    return _sfft_plan(n_in, m_out, alpha, offset, offset_out, fft_order)


def sfft_1d(u: np.ndarray, alpha: float, offset: int = 0, axis: int = -1,
            m_out: int | None = None, offset_out: int | None = None) -> np.ndarray:
    """Scaled DFT along one axis, from its ``N`` samples to ``m_out`` modes.

    Computes ``U[k] = sum_n u[n] * exp(-2j*pi/M * alpha * (n-offset)*(k-offset_out))``
    over array positions ``n = 0..N-1`` and ``k = 0..M-1``, ``M = m_out``.
    ``m_out`` defaults to ``N`` and ``offset_out`` to ``offset``; then
    ``alpha = 1, offset = 0`` agrees with the ordinary forward DFT.
    """
    u = np.moveaxis(np.asarray(u, dtype=np.complex128), axis, -1)
    w = _sfft_matrix(u.shape[-1], alpha, offset, m_out, offset_out, False)
    return np.moveaxis(u @ w, -1, axis)


def sfft_2d_centered(u: np.ndarray, alpha: float, beta: float | None = None,
                     shape: tuple[int, int] | None = None) -> np.ndarray:
    """Scaled DFT of the last two axes in the centered-index convention, to
    modes in FFT order.

    Maps ``[..., ny, nx]`` samples to a contiguous ``[..., my, mx]`` of modes,
    ``shape = (my, mx)`` defaulting to ``(ny, nx)``:
    ``U[ky, kx] = sum u[jy, jx] * exp(-2j*pi*(alpha*jx*kx/mx + beta*jy*ky/my))``
    with all indices centered, as the square transform gives it on the
    samples embedded centered in a ``[my, mx]`` zero array, and centered
    mode ``k`` at slot ``k mod m``.  It is ``Wy.T @ (u @ Wx)`` with the two
    axes' matrices, whose columns are in FFT order, so no mode is moved
    after the products: the x product runs over the ``ny`` input rows only,
    and each ``[ny, nx]`` slice is its own pair of products.  At ``alpha =
    beta = 1`` and the default shape this is ``np.fft.ifftshift`` of
    :func:`cfft_n` over the last two axes, up to roundoff.
    """
    if beta is None:
        beta = alpha
    u = np.asarray(u, dtype=np.complex128)
    _require(u.ndim >= 2, "input must have at least two axes [..., ny, nx]")
    ny, nx = u.shape[-2:]
    my, mx = (ny, nx) if shape is None else _pair(shape, "output shape")
    wx = _sfft_matrix(nx, alpha, nx // 2, mx, mx // 2, True)
    wy = _sfft_matrix(ny, beta, ny // 2, my, my // 2, True)
    return wy.T @ (u @ wx)


# ---------------------------------------------------------------------------
# Non-uniform FFT (exponential-of-semicircle spreading)
# ---------------------------------------------------------------------------

# Targets below 1e-13 fall under roundoff: at 1e-14 the transforms read
# 1.5e-14 to 2.7e-14 against the direct sums at 17 to 21 taps alike.
_EPS_MIN = 1e-13
_EPS_MAX = 1e-1
_COORD_TOL = 1e-9
# Fine-grid oversampling ratio.  An integer, so that points on the mode
# lattice fall on fine-grid nodes for 11-smooth mode counts.
_SIGMA = 2


def _check_eps(eps: float) -> float:
    """``eps`` as a float, refused unless it is an accuracy target the NUFFT meets."""
    eps = float(eps)
    _require(math.isfinite(eps) and _EPS_MIN <= eps <= _EPS_MAX,
             f"accuracy target must lie in [{_EPS_MIN:g}, {_EPS_MAX:g}]")
    return eps


def _es_kernel(z: np.ndarray, beta: float) -> np.ndarray:
    """The exponential of semicircle ``exp(beta*(sqrt(1 - z^2) - 1))`` on
    ``|z| <= 1``; a ``|z|`` that roundoff takes past 1 reads ``exp(-beta)``."""
    return np.exp(beta * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


@lru_cache(maxsize=_NUFFT_CACHE_SIZE)
def _nufft_axis(m: int, eps: float) -> tuple[int, int, float, np.ndarray]:
    """``(w, mr, beta, ker)`` of one axis of ``m`` modes at accuracy ``eps``.

    The stencil has ``2w+1`` taps, the smallest odd count of at least
    ``log10(1/eps) + 3`` (9 at 1e-6).  Against the direct sums the kernel
    read at most ``2.6 * 10**(1 - 2w)`` at ``w = 2..7`` (mode counts 1-54, 60
    draws each), so every target keeps a margin of 3.8 or more.  The fine
    grid has ``mr = next_fast_len(max(2*m, 2*w + 2))`` samples, exactly
    ``2*m`` for 11-smooth ``m > w``; ``beta`` is the kernel's shape for
    that oversampling, as Barnett et al. set it; ``ker`` is the read-only
    exact deconvolution, the real DFT of the node-centred stencil at the
    modes, in FFT order.
    """
    w = max(2, math.ceil(math.log10(1.0 / eps) / 2.0) + 1)
    mr = next_fast_len(max(_SIGMA * m, 2 * w + 2))
    beta = 0.97 * math.pi * (1.0 - 0.5 / _SIGMA) * (2 * w + 1)
    j = np.arange(1, w + 1)
    k = np.arange(m) - m // 2
    ker = 1.0 + 2.0 * (np.cos(np.outer(k, j * (2.0 * math.pi / mr)))
                       @ _es_kernel(j / (w + 0.5), beta))
    if not (ker > 0).all():
        raise RuntimeError("window transform must stay positive")
    ker = np.fft.ifftshift(ker)
    ker.setflags(write=False)
    return w, mr, beta, ker


def _windows(x: np.ndarray, w: int, mr: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Spread stencils of coordinates ``x`` on one axis: ``[L, 2w+1]``
    fine-grid indices round each point's nearest node, and the kernel's
    weights over the support radius ``(w + 1/2)`` nodes."""
    offs = np.arange(-w, w + 1)
    h = 2.0 * math.pi / mr
    xi = x - 2.0 * math.pi * np.floor(x / (2.0 * math.pi))
    i0 = np.floor(xi / h + 0.5).astype(np.int64)
    grid = i0[:, None] + offs[None, :]
    z = (grid * h - xi[:, None]) / ((w + 0.5) * h)
    return grid % mr, _es_kernel(z, beta)


def _check_points(pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.float64)
    _require(pts.ndim == 2 and pts.shape[1] == 2, "points must be [L, 2] for (my, mx) modes")
    _require(pts.shape[0] >= 1, "need at least one point")
    _require(bool(np.isfinite(pts).all()), "point coordinates must be finite")
    _require(bool((pts >= -math.pi - _COORD_TOL).all()
                  and (pts < math.pi + _COORD_TOL).all()),
             "point coordinates must lie in [-pi, pi)")
    return pts


# Batch columns are spread into, and read from, fine grids in chunks whose
# grids together stay within this many bytes.
_FINE_CHUNK_BYTES = 1 << 20


def _halves(m: int, mr: int, fft_order: bool = False) -> tuple[tuple[slice, slice],
                                                                tuple[slice, slice]]:
    """``(modes, fine)`` slice pairs that place ``m`` values, centered (the
    relay samples ``reconstruct`` embeds) or in FFT order (the NUFFT's
    modes), on an axis of ``mr >= m`` samples in FFT order: the non-negative
    indices at its start, the negative ones at its end."""
    h = m // 2
    if fft_order:
        return (slice(0, m - h), slice(0, m - h)), (slice(m - h, m), slice(mr - h, mr))
    return (slice(h, m), slice(0, m - h)), (slice(0, h), slice(mr - h, mr))


class _Spread:
    """One call's spread of its ``[L, 2]`` points onto the fine grid of the
    ``(my, mx)`` modes, pruned to the fine rows its stencils touch.

    ``halves`` are each axis's :func:`_halves` for modes in FFT order, and
    ``inv`` the deconvolution in that layout.
    ``rows`` are the touched fine rows (y indices), ascending.  ``matrix`` is the
    CSR spread operator ``S`` of shape ``[L, len(rows)*mrx]`` over the
    touched rows alone, with ``(2w+1)^2`` taps per row, y then x in
    row-major order, so type-1 spreading is ``S^T v`` and type-2
    interpolation ``S f``; ``step`` is the batch columns per fine-grid chunk.
    """

    def __init__(self, modes: tuple[int, int], eps: float, points: np.ndarray):
        _require(all(m >= 1 for m in modes), "mode counts must be >= 1")
        eps = _check_eps(eps)
        pts = _check_points(points)
        # The half-width w and the shape beta depend on eps alone, so both
        # axes share them.
        (w, mry, beta, ker_y), (_, mrx, _, ker_x) = (_nufft_axis(m, eps) for m in modes)
        self.modes, self.mrs = modes, (mry, mrx)
        self.halves = tuple(_halves(m, mr, True) for m, mr in zip(modes, self.mrs))
        # NumPy divides a complex by a real as a product with its reciprocal,
        # so a product gives the quotient's bits at a fraction of its cost.
        self.inv = 1.0 / np.multiply.outer(ker_y, ker_x)[..., None]
        # Mode axis 0 is y (point column 1), axis 1 is x (point column 0).
        n = pts.shape[0]
        iy, wy = _windows(pts[:, 1], w, mry, beta)
        ix, wx = _windows(pts[:, 0], w, mrx, beta)
        touched = np.zeros(mry, dtype=bool)
        touched[iy.ravel()] = True
        self.rows = np.flatnonzero(touched)
        place = np.cumsum(touched) - 1
        cols = (place[iy][:, :, None] * mrx + ix[:, None, :]).reshape(n, -1)
        wts = (wy[:, :, None] * wx[:, None, :]).reshape(n, -1)
        taps = cols.shape[1]
        from scipy.sparse import csr_array  # only the NUFFT needs SciPy
        index = np.int32 if n * taps <= np.iinfo(np.int32).max else np.int64
        self.matrix = csr_array(
            (wts.ravel(), cols.ravel().astype(index),
             np.arange(0, n * taps + 1, taps, dtype=index)),
            shape=(n, len(self.rows) * mrx))
        self.step = max(1, _FINE_CHUNK_BYTES // (16 * mry * mrx))

    def type1(self, vals: np.ndarray, out: np.ndarray) -> None:
        """``[L, c]`` values to ``[c, my, mx]`` deconvolved modes in ``out``:
        the x pass over the touched rows, then the y pass over the ``mx``
        kept columns."""
        from scipy.fft import fft
        (my, mx), (mry, mrx) = self.modes, self.mrs
        # S is real: applied to the float64 view of complex columns it acts
        # on real and imaginary parts at once, with no complex copy of S.
        flat = np.ascontiguousarray(vals).view(np.float64)
        rows = np.ascontiguousarray(self.matrix.T @ flat).view(np.complex128)
        rows = fft(rows.reshape(len(self.rows), mrx, -1), axis=1, overwrite_x=True)
        fine = np.zeros((mry, mx, rows.shape[-1]), dtype=np.complex128)
        for kept, place in self.halves[1]:
            fine[self.rows, kept] = rows[:, place]
        fine = fft(fine, axis=0, overwrite_x=True)
        modes = out.transpose(1, 2, 0)
        for kept, place in self.halves[0]:
            np.multiply(fine[place], self.inv[kept], out=modes[kept])

    def type2(self, coeff: np.ndarray) -> np.ndarray:
        """``[c, my, mx]`` coefficients to ``[L, c]`` point values: the y pass
        over the ``mx`` mode columns, then the x pass over the touched rows."""
        from scipy.fft import ifft
        (my, mx), (mry, mrx) = self.modes, self.mrs
        modes = coeff.transpose(1, 2, 0)
        fine = np.zeros((mry, mx, len(coeff)), dtype=np.complex128)
        for kept, place in self.halves[0]:
            np.multiply(modes[kept], self.inv[kept], out=fine[place])
        fine = ifft(fine, axis=0, norm="forward", overwrite_x=True)
        rows = np.zeros((len(self.rows), mrx, len(coeff)), dtype=np.complex128)
        for kept, place in self.halves[1]:
            rows[:, place] = fine[self.rows, kept]
        rows = ifft(rows, axis=1, norm="forward", overwrite_x=True)
        flat = rows.reshape(self.matrix.shape[1], -1).view(np.float64)
        return (self.matrix @ flat).view(np.complex128)


def nufft1(points: np.ndarray, values: np.ndarray, modes: tuple[int, int],
           eps: float) -> np.ndarray:
    """Non-uniform points to uniform modes, exponent ``-1j``.

    ``U[ky, kx] = sum_l values[l] * exp(-1j * (kx*x_l + ky*y_l))`` for
    centered integer modes, written in FFT order (``k`` at slot ``k mod
    m``); ``points`` are ``[L, 2]`` coordinates ``(x, y)`` on the torus
    ``[-pi, pi)``, the output has shape ``modes = (my, mx)`` and its
    relative error is bounded by ``eps``.  ``values`` of shape ``[L, B]`` is
    a batch of ``B`` vectors sharing the points; the output is then
    ``[B, my, mx]``, one mode array per column.
    """
    modes = _pair(modes, "modes")
    spread = _Spread(modes, eps, points)
    step, n = spread.step, spread.matrix.shape[0]
    vals = np.asarray(values, dtype=np.complex128)
    _require(vals.ndim in (1, 2) and vals.shape[0] == n,
             "values must be [L] or [L, B] matching the points")
    _require(bool(np.isfinite(vals).all()), "values must be finite")
    batch = vals.reshape(n, -1)
    out = np.empty((batch.shape[1],) + modes, dtype=np.complex128)
    for lo in range(0, batch.shape[1], step):
        spread.type1(batch[:, lo:lo + step], out[lo:lo + step])
    return out if vals.ndim == 2 else out[0]


def nufft2(coefficients: np.ndarray, points: np.ndarray, eps: float) -> np.ndarray:
    """Uniform modes to non-uniform points, exponent ``+1j``.

    ``out[l] = sum_k coefficients[ky, kx] * exp(+1j * (kx*x_l + ky*y_l))``
    over centered integer modes, read in FFT order, at the ``[L, 2]`` points
    ``(x, y)``; exact structural adjoint of :func:`nufft1` built from the
    same stencils and deconvolution.  ``[my, mx]`` coefficients give ``[L]``
    values, and a batch of ``B`` mode arrays ``[B, my, mx]`` read at the
    same points gives ``[B, L]``.
    """
    coeff = np.asarray(coefficients, dtype=np.complex128)
    _require(coeff.ndim in (2, 3), "coefficients must be [my, mx] or [B, my, mx]")
    _require(bool(np.isfinite(coeff).all()), "coefficients must be finite")
    stack = coeff if coeff.ndim == 3 else coeff[None]
    spread = _Spread(stack.shape[1:], eps, points)
    step, n = spread.step, spread.matrix.shape[0]
    out = np.empty((stack.shape[0], n), dtype=np.complex128)
    for lo in range(0, stack.shape[0], step):
        out[lo:lo + step] = spread.type2(stack[lo:lo + step]).T
    return out if coeff.ndim == 3 else out[0]
