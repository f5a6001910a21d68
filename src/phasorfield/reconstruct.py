"""Volumetric reconstruction by frequency-domain wavefront propagation.

Every algorithm here evaluates the same physical quantity: for each retained
frequency and each illumination point, the relay wavefront is propagated to
the requested voxels through the free-space kernel
``exp(s*1j*(w/c)*r)/r`` (``s = PROPAGATION_SIGN``), multiplied by the
illumination phase ``exp(s*1j*(w/c)*|x_p - x_v|)``, and summed over
illuminations and frequencies in ascending order.

Each algorithm is one row of ``_ALGORITHMS``: its grid kind, relay kind,
options and planner.  :func:`reconstruct`, the one way in, takes the
algorithm's name and its options, refuses any other option, checks the kinds
and plans (:func:`_plan`) from the geometry alone, never the coefficients,
then runs the plan
(:func:`_propagate`): each of ``threads`` workers takes one contiguous block
of frequencies through every plane.  A static run adds each plane into the
field as the blocks finish it, in block order, so it never holds a volume
per frequency; a video keeps them and reduces them into its frames at the
end (:func:`_reduce`).  A plan has three parts:

* an **encoder** ``encode(coefficients)`` gives each illumination's relay
  spectrum on a padded ``[py, px]`` lattice per depth node and frequency,
  ``[M, F, py, px]``: embedding and FFT, scaled FFT or type-1 NUFFT of a
  planar relay (one node) or of a 3D relay's samples weighted onto depth
  nodes.  ``srsd``'s encoder alone yields the bare ``[1, F, ny, nx]`` relay,
  because its scale changes with depth: each plane's scaled transform takes
  those ``ny*nx`` samples straight to the padded lattice's modes;
* the **output planes** are the grid's own ``depth_planes()``, in its voxel
  order: each gives its depth's kernel spectra from every node, at the
  lattice pitch the algorithm reads it with, and its voxel positions for
  the illumination phase;
* a **decoder** ``read(plane, spectrum)`` reads each product at the plane's
  voxels: an inverse FFT computed on the voxels' lattice window only, or a
  batched type-2 NUFFT.

========  ===========================  ==========================  =========================
name      relay sampling               voxels                      transforms
========  ===========================  ==========================  =========================
rsd       uniform grid                 cuboid, same pitch          FFT convolution
srsd      uniform grid                 depth-scaled frustum        scaled FFT + FFT
nursd1    scattered points on a plane  cuboid                      type-1 NUFFT + FFT
nursd2    uniform grid                 explicit voxel list         FFT + type-2 NUFFT
nursd3    scattered points on a plane  explicit voxel list         type-1 + type-2 NUFFT
rsd3d     scattered points in 3D       cuboid                      depth-node gridding + FFT
nursd3d   scattered points in 3D       cuboid                      depth-node NUFFT-1 + FFT
srsd-nursd2  uniform grid              explicit list, one scale    scaled FFT + type-2 NUFFT
========  ===========================  ==========================  =========================

All lattice work uses the centered-index convention of :mod:`.spectral`;
padded sizes are chosen so that every lag actually used lies inside the
centered index set, making the circular convolutions exact linear ones.
Kernel spectra alone are built in FFT order (:func:`_kernel_spectrum`) and
read through the shift in the product (:func:`_shifted_product`), so no
plane's kernel is rolled; every product is bitwise the centered one.
The per-frequency phase tables, the kernel's and the illumination's, take a
direct ``exp`` only at anchors, every ``_ANCHOR_EVERY``-th frequency index,
and step from each anchor by ``exp(s*1j*dk*r)`` (:func:`_phases`); they
agree with the direct ``exp`` to about 1e-13.  The anchors sit at fixed
global indices, each row has its own slot in its block's table, and a lone
value (one frequency, one voxel) takes its illumination phase out of place,
as NumPy rounds it within a longer product.  Accumulation order
(frequencies ascending, illuminations ascending, each sum from zero) is fixed
and identical for the static and time-resolved paths, so a frequency's
arithmetic does not depend on the block it falls in: results are
bit-reproducible across runs and across ``threads`` settings, and a video's
``t = 0`` frame is the static field.
"""

from __future__ import annotations

import math
import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    PROPAGATION_SIGN,
    SPEED_OF_LIGHT,
    CuboidGrid,
    DepthPlane,
    ExplicitVoxels,
    FrequencySlices,
    FrustumGrid,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    ReconstructionVolume,
    RelaySampling,
    UniformRelay,
    VoxelGrid,
    _require,
    illumination_coordinates,
)
# cfft_n and cifft_n stay imported unused: the benchmark's layer spans wrap them by name here.
from .spectral import (
    _check_eps,
    cfft_2d,
    cfft_n,
    cifft_2d,
    cifft_n,
    next_fast_len,
    nufft1,
    nufft2,
    sfft_2d_centered,
)

__all__ = ["reconstruct", "project_max_depth", "ALGORITHM_NAMES"]


# ---------------------------------------------------------------------------
# Shared machinery: lattice geometry, kernels, the propagation run
# ---------------------------------------------------------------------------


_ONTO = {CuboidGrid: "a cuboid grid", FrustumGrid: "a frustum grid",
         ExplicitVoxels: "explicit voxels"}

_RELAY_NEEDS = {
    UniformRelay: "this algorithm needs detections on a uniform relay grid",
    NonUniformPlanarRelay: "this algorithm needs scattered detections on a single plane",
    NonPlanarRelay: "this algorithm needs detections scattered in 3D",
}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# A lattice reaching further from its centre would need a padded axis of more
# than 2**31 nodes, past what an int32 index holds.
_MAX_REACH = 2.0 ** 30


def _check_reach(reach: float) -> None:
    _require(math.isfinite(reach) and reach <= _MAX_REACH,
             f"the lattice would reach {float(reach):.3g} pitches from its centre; "
             f"at most {_MAX_REACH:.3g} can be indexed")


def _integer_offset(value: float, pitch: float, what: str) -> int:
    q = value / pitch
    _check_reach(abs(q))
    qi = round(q)
    _require(abs(q - qi) <= 1e-9 * max(1.0, abs(q)),
             f"{what} must be an integer multiple of the lattice pitch")
    return int(qi)


def _depth_planes(grid: VoxelGrid, z_relay: float) -> list[DepthPlane]:
    """The grid's depth planes, refused unless all lie beyond depth ``z_relay``."""
    planes = grid.depth_planes()
    _require(all(z > z_relay for z, _, _ in planes), "every voxel plane must lie beyond "
             f"the relay's deepest detection (z > {float(z_relay):.6g})")
    return planes


def _pad_size(src: np.ndarray, dst: np.ndarray, n_min: int) -> int:
    """Padded axis length whose centered index set holds every needed lag.

    ``src`` are the (possibly fractional) centered indices of the input
    samples along the axis and ``dst`` those of the output samples; every
    lag ``dst - src`` and every index itself (they must map inside the
    torus) lands in ``[-P//2, P - P//2)``.  ``n_min`` is the length of the
    embedded input, whose centered indices reach ``n_min // 2``; the result
    always exceeds it.  A reach beyond ``_MAX_REACH`` pitches, or one that
    is not finite, is refused.
    """
    reach = max(dst.max() - src.min(), src.max() - dst.min(),
                np.abs(src).max(), np.abs(dst).max(), n_min // 2)
    _check_reach(reach)
    return next_fast_len(2 * math.ceil(reach) + 10)


def _relay_lattice(coefficients: np.ndarray, g) -> np.ndarray:
    """The ``[P, L, F]`` coefficients of a uniform relay as ``[P, F, ny, nx]``."""
    coeff = np.swapaxes(coefficients, 1, 2)
    return coeff.reshape(coeff.shape[:2] + (g.ny, g.nx))


def _embed_relay(coefficients: np.ndarray, g, py: int, px: int) -> list[np.ndarray]:
    """``[1, F, py, px]`` spectra of the illuminations' uniform relays centred in zeros."""
    relay = _relay_lattice(coefficients, g)
    out = np.zeros(relay.shape[:2] + (py, px), dtype=np.complex128)
    oy = py // 2 - g.ny // 2
    ox = px // 2 - g.nx // 2
    out[..., oy:oy + g.ny, ox:ox + g.nx] = relay
    return [cfft_2d(u)[None] for u in out]


def _fft_order_lags(n: int) -> np.ndarray:
    """Lag magnitudes of an axis of length ``n`` in FFT order: lag ``j`` at
    index ``j % n``, an even ``n``'s unmatched ``-n/2`` at ``n/2``."""
    return np.abs((np.arange(n) + n // 2) % n - n // 2)


# Phase tables take a direct exp only at every _ANCHOR_EVERY-th frequency bin
# (see _phases).  Against a long-double reference the recurrence's own
# rounding grew by at most 0.55 eps per step, so it stays below the direct
# exp's argument rounding, eps*k*r/2, while the steps from an anchor number
# at most k*r: at 8, from r = 1.4 wavelengths on.  A longer stride saves at
# most a sixteenth of an exp per value.
_ANCHOR_EVERY = 8
_UNIFORM_TOL = 2.0 ** -50  # 4 eps: see _wavenumbers


class _Wavenumbers(NamedTuple):
    """A plan's wavenumbers ``k = w/c``, their mean spacing ``dk`` and the
    spacing ``every`` of the phase tables' anchors: ``_ANCHOR_EVERY`` on
    uniform bins, else 1."""

    k: np.ndarray
    dk: float
    every: int


def _wavenumbers(frequencies: np.ndarray) -> _Wavenumbers:
    """The wavenumbers of ``frequencies``, checked once for uniform spacing.

    Positive bins count as uniform when none lies further than ``_UNIFORM_TOL
    * k_max`` from the line ``k_0 + f*dk``; the recurrence of :func:`_phases`
    then errs by at most ``2 * _UNIFORM_TOL * k_max * r`` beyond the direct
    exp's own rounding.  ``to_frequency``'s bins lay within ``2.4 eps *
    k_max`` over 2,847 random packets; bins further off, as hand-built ones
    may be, get ``every = 1``: a direct exp at each bin.
    """
    k = frequencies / SPEED_OF_LIGHT
    dk = (float(k[-1]) - float(k[0])) / max(k.size - 1, 1)
    uniform = k[0] > 0 and math.isfinite(dk) and (
        float(np.abs(k[0] + np.arange(k.size) * dk - k).max()) <= _UNIFORM_TOL * float(k[-1]))
    return _Wavenumbers(k, dk, _ANCHOR_EVERY if uniform else 1)


def _phases(kn: _Wavenumbers, block: slice, r: np.ndarray) -> np.ndarray:
    """``exp(s*1j*k*r)`` for the wavenumbers ``k = kn.k[block]``, as
    ``[n, *r.shape]`` (``s = PROPAGATION_SIGN``).

    Anchors sit at the global indices that are multiples of ``kn.every``,
    wherever the block starts: an anchor's row is the direct exp, and each
    later row the previous one times ``exp(s*1j*dk*r)``.  One table holds
    every row from the anchor at or before the block, each in its own slot,
    so no product is made in place and a row's arithmetic is the same
    whatever block it falls in.  Against ``exp(s*1j*k_f*r)`` evaluated
    exactly, a row errs by at most ``eps*(k_f*r/2 + 2*every) + 2*dev*r``,
    ``dev`` being the bins' distance from their line (see
    :func:`_wavenumbers`); ``every = 1`` makes every row the direct exp.
    """
    lo, hi, every = int(block.start), int(block.stop), kn.every
    first = lo - lo % every
    # One buffer, rows then step: a worker's malloc arena would keep a smaller temporary.
    rows = np.empty((hi - first + 1,) + r.shape, np.complex128)
    step = rows[-1]
    if hi - first > 1 and every > 1:
        _exp_phase(kn.dk, r, step)
    for i, f in enumerate(range(first, hi)):
        if f % every == 0:
            _exp_phase(kn.k[f], r, rows[i])
        else:
            np.multiply(rows[i - 1], step, out=rows[i])
    return rows[lo - first:-1]


def _exp_phase(k: float, r: np.ndarray, out: np.ndarray) -> None:
    """``exp(s*1j*k*r)`` into ``out``, bitwise ``np.exp(s*1j*k*r)``: the
    argument is built in ``out``, its real part zero and its imaginary part
    ``(s*k)*r``, as the complex product makes them."""
    out.real = 0.0
    np.multiply(r, PROPAGATION_SIGN * k, out=out.imag)
    np.exp(out, out=out)


def _kernel_spectrum(kn: _Wavenumbers, block: slice, shape, pitch, dz: float) -> np.ndarray:
    """DFT of the kernel on the ``shape = (py, px)`` lag lattice of
    ``pitch = (dx, dy)``, in FFT order, for the wavenumbers ``kn.k[block]``:
    an ``[n, py, px]`` stack.

    The lags are ``(arange(P) - P//2) * pitch`` and ``r`` is even in them, so
    the kernel is evaluated on one quadrant, the lag magnitudes ``0..P//2`` of
    each axis (an even ``P``'s unmatched ``-P/2`` lag has magnitude ``P//2``
    too).  ``(-j)*pitch`` is exactly ``-(j*pitch)`` and ``r`` squares it, and
    :func:`_phases` works value by value, so every value is bitwise the one
    the full lattice gives.  The quadrant is spread along x in FFT order and
    transformed in place on its ``py//2 + 1`` distinct rows, then spread
    along y and transformed in place.  Identical rows transform identically,
    so the result is bitwise ``ifftshift(cfft_2d(kernel))`` with no roll
    made; :func:`_shifted_product` reads it through the shift.
    """
    (py, px), (dx, dy) = shape, pitch
    r = np.sqrt((np.arange(px // 2 + 1) * dx)[None, :] ** 2
                + (np.arange(py // 2 + 1) * dy)[:, None] ** 2 + dz * dz)
    quadrant = _phases(kn, block, r) / r
    g = quadrant.take(_fft_order_lags(px), axis=-1)
    np.fft.fft(g, axis=-1, out=g)
    g = g.take(_fft_order_lags(py), axis=-2)
    np.fft.fft(g, axis=-2, out=g)
    return g


def _shift_halves(n: int) -> tuple[tuple[slice, slice], ...]:
    """``(centered, fft_order)`` slice pairs of an axis of length ``n``: the
    centered indices ``[0, n//2)`` hold FFT indices ``[n - n//2, n)`` and the
    rest hold ``[0, n - n//2)``, as :func:`numpy.fft.fftshift` moves them."""
    h = n // 2
    return (slice(0, h), slice(n - h, n)), (slice(h, n), slice(0, n - h))


def _shifted_product(u: np.ndarray, ghat: np.ndarray,
                     spec: np.ndarray | None = None) -> np.ndarray:
    """``u * fftshift(ghat)`` over the last two axes, or, given ``spec``, that
    product added into ``spec``: four quadrant blocks read ``ghat`` through the
    shift, so no shifted copy is made.  Each element pairs the same operands
    as the full product, and ``u`` stays the left one (NumPy's SIMD complex
    product is not bitwise commutative), so every value is bitwise the same.
    """
    first = spec is None
    if first:
        spec = np.empty(u.shape, np.result_type(u, ghat))
    for cy, fy in _shift_halves(u.shape[-2]):
        for cx, fx in _shift_halves(u.shape[-1]):
            ub, gb, sb = u[..., cy, cx], ghat[..., fy, fx], spec[..., cy, cx]
            if first:
                np.multiply(ub, gb, out=sb)
            else:
                np.add(sb, ub * gb, out=sb)
    return spec


class _Plane(NamedTuple):
    """One output depth plane of a propagation.

    The kernels span the distances ``dz`` from the source's depth nodes,
    sampled at the lattice ``pitch = (dx, dy)``; ``z``, ``x`` and ``y`` are
    one of the grid's ``depth_planes()``.
    ``scale`` is the per-plane ``(alpha, beta)`` of the scaled transform
    that takes the encoded bare relay to the padded lattice's modes, and
    ``torus`` the NUFFT coordinates of explicit voxels.
    """

    z: float
    dz: tuple[float, ...]
    pitch: tuple[float, float]
    x: np.ndarray
    y: np.ndarray
    scale: tuple[float, float] | None = None
    torus: np.ndarray | None = None


class _Plan(NamedTuple):
    """One reconstruction from geometry alone, with ``[P, 3]`` illumination
    coordinates; ``read`` gives ``[F, n]`` values at a plane's voxels."""

    grid: VoxelGrid
    frequencies: np.ndarray
    illuminations: np.ndarray
    shape: tuple[int, int]
    planes: list[_Plane]
    encode: Callable
    read: Callable


def _read_window(ny: int, nx: int, origin=None) -> Callable:
    """Lattice decoder: the inverse FFT on the ``[ny, nx]`` window of centered
    indices from ``origin`` only."""
    oy, ox = origin or (-(ny // 2), -(nx // 2))
    rows, cols = np.arange(oy, oy + ny), np.arange(ox, ox + nx)
    return lambda pl, spec: cifft_2d(spec, rows, cols).reshape(len(spec), -1)


def _read_points(eps: float, px: int, py: int) -> Callable:
    """Decoder of explicit planes: a batched type-2 NUFFT at the voxels."""
    _check_eps(eps)
    scale = 1.0 / (px * py)
    return lambda pl, spec: nufft2(spec, pl.torus, eps) * scale


def _torus(nu_x: np.ndarray, nu_y: np.ndarray, px: int, py: int) -> np.ndarray:
    """NUFFT coordinates of fractional centered indices on a ``[py, px]`` lattice."""
    return np.column_stack([2.0 * np.pi * nu_x / px, 2.0 * np.pi * nu_y / py])


def _lateral_nufft(nu_x, nu_y, columns: np.ndarray, shape: tuple[int, int],
                   eps: float) -> np.ndarray:
    """Scattered samples' ``[L, B]`` columns at fractional indices ``(nu_x, nu_y)``
    to their ``[B, py, px]`` lattice spectrum: one batched type-1 NUFFT."""
    return nufft1(_torus(nu_x, nu_y, shape[1], shape[0]), columns, shape, eps)


def _lateral_gridding(nu_x, nu_y, columns: np.ndarray, shape: tuple[int, int],
                      scatter: str) -> np.ndarray:
    """As :func:`_lateral_nufft`, but deposited at the nearest node or bilinearly
    for ``scatter="trilinear"`` (duplicate targets sum) and Fourier transformed."""
    py, px = shape
    fx, fy = nu_x + px // 2, nu_y + py // 2
    if scatter == "nearest":  # all weight on the first corner
        fx, fy = np.round(fx), np.round(fy)
    x0, y0 = np.floor(fx), np.floor(fy)
    tx, ty = fx - x0, fy - y0
    ix, iy = x0[:, None] + [0, 1, 0, 1], y0[:, None] + [0, 0, 1, 1]
    wts = np.column_stack([(1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty])
    fine = np.zeros((py * px, columns.shape[1]), dtype=np.complex128)
    np.add.at(fine, (iy * px + ix).astype(np.int64).ravel(),
              (wts[:, :, None] * columns[:, None, :]).reshape(-1, columns.shape[1]))
    return cfft_2d(fine.T.reshape(-1, py, px))


def _frame_times(times, frequencies: np.ndarray) -> np.ndarray | None:
    """``times`` as a checked vector: nonempty and finite, with every phase
    ``w*t`` of a frame finite too."""
    if times is None:
        return None
    t = np.asarray(times, dtype=np.float64)
    _require(t.ndim == 1 and t.size >= 1, "frame times must be a nonempty vector")
    _require(bool(np.isfinite(t).all()), "frame times must be finite")
    t_max = float(np.abs(t).max())
    _require(math.isfinite(t_max * float(np.abs(frequencies).max())),
             f"frame times up to {t_max:.3g} s give phases beyond floating point "
             "at the highest frequency")
    return t


def _check_planes(planes: list[_Plane], shape: tuple[int, int], k_max: float,
                  ill: np.ndarray | None) -> None:
    """Refuse a plane whose kernel phase ``k*r`` at its largest lag, or whose
    illumination phase at its farthest voxel from ``ill`` (if given), is not
    finite.  ``r`` is computed as :func:`_kernel_spectrum` and
    :func:`_propagate` compute it; every phase :func:`_phases` takes, at an
    anchor or in its step ``dk*r`` (``dk`` below ``k_max``), is then finite."""
    py, px = shape
    for pl in planes:
        lx, ly = (px // 2) * float(pl.pitch[0]), (py // 2) * float(pl.pitch[1])
        dz = max(abs(float(d)) for d in pl.dz)
        _require(math.isfinite(k_max * math.sqrt(lx * lx + ly * ly + dz * dz)),
                 f"voxel plane at z = {pl.z:.6g}: its kernel phases overflow at the "
                 f"lattice pitch {pl.pitch[0]:.3g} x {pl.pitch[1]:.3g} m")
        if ill is not None:
            far = [max(float(v.max()) - float(lo), float(hi) - float(v.min()))
                   for v, lo, hi in zip((pl.x, pl.y, np.array([pl.z])),
                                        ill.min(axis=0), ill.max(axis=0))]
            _require(math.isfinite(k_max * math.sqrt(sum(f * f for f in far))),
                     f"voxel plane at z = {pl.z:.6g}: it lies too far from the "
                     "illumination points for a finite phase")


def _reduce(plan: _Plan, terms: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The video's ``[T, voxels]`` frames from the ``[F, voxels]`` terms: frame
    ``t`` sums ``exp(1j*w*t) * terms[w]`` from zeros, frequencies ascending."""
    field = np.zeros((t.size, plan.grid.count), dtype=np.complex128)
    for fi, term in enumerate(terms):
        w = float(plan.frequencies[fi])
        for ti in range(t.size):
            field[ti] += np.exp(1j * w * t[ti]) * term
    return field


def _propagate(plan: _Plan, coefficients: np.ndarray, times: np.ndarray | None,
               threads: int, include_illumination: bool) -> ReconstructionVolume:
    """Run ``plan`` on the ``[P, L, F]`` coefficients and reduce the result.

    The encoder runs only after the frame times and every plane's phases
    have been checked, so a refused input runs no transform.  Each worker
    takes its block of frequencies through every plane, summing a plane's
    illuminations in ascending order.  A static run adds the block's rows of
    a plane into the field, one frequency at a time, once the block before
    it has added its own, so every voxel sums its frequencies in ascending
    order from zero and no ``[F, voxels]`` array is held.  A video keeps the
    ``[F, voxels]`` terms, which :func:`_reduce` turns into frames; holding
    ``[T, voxels]`` frames through the loop would cost more when ``T > F``.
    """
    try:
        threads = operator.index(threads)
    except TypeError:
        threads = 0  # refused just below
    _require(threads >= 1, "threads must be an integer >= 1")
    times = _frame_times(times, plan.frequencies)
    n_freq = int(plan.frequencies.size)
    kn = _wavenumbers(plan.frequencies)
    shape, planes, ill = plan.shape, plan.planes, plan.illuminations
    _check_planes(planes, shape, float(np.abs(kn.k).max()),
                  ill if include_illumination else None)
    uhats = plan.encode(coefficients)
    ends = np.cumsum([pl.x.size for pl in planes])
    if times is None:
        field = np.zeros(plan.grid.count, dtype=np.complex128)
    else:
        terms = np.zeros((n_freq, plan.grid.count), dtype=np.complex128)
    # turn[j] is the block whose rows plane j takes next; a block that raises
    # sets `failed`, which releases every block waiting for its turn.
    turn, baton, failed = [0] * len(planes), threading.Condition(), threading.Event()

    def add(w: int, j: int, seg: np.ndarray, acc: np.ndarray) -> bool:
        """Add block ``w``'s rows of plane ``j`` into ``seg`` after block
        ``w - 1``'s; False, adding nothing, once a block has failed."""
        with baton:
            baton.wait_for(lambda: turn[j] == w or failed.is_set())
            if failed.is_set():
                return False
        for row in acc:
            seg += row
        with baton:
            turn[j] += 1
            baton.notify_all()
        return True

    def run(w: int, block: slice) -> None:
        try:
            for j, (pl, stop) in enumerate(zip(planes, ends)):
                voxels = slice(stop - pl.x.size, stop)
                acc = None if times is None else terms[block, voxels]
                ghats = [_kernel_spectrum(kn, block, shape, pl.pitch, dz) for dz in pl.dz]
                for p, uhat in enumerate(uhats):
                    spec = None
                    for u, ghat in zip(uhat, ghats):
                        u = (u[block] if pl.scale is None
                             else sfft_2d_centered(u[block], *pl.scale, shape=shape))
                        spec = _shifted_product(u, ghat, spec)
                    vals = plan.read(pl, spec)
                    del spec  # before the phase product: a worker holds one spectrum at a time
                    if include_illumination:
                        src = ill[p]
                        r = np.sqrt((pl.x - src[0]) ** 2 + (pl.y - src[1]) ** 2
                                    + (pl.z - src[2]) ** 2)
                        # `vals` stays the left operand (NumPy's SIMD complex product is
                        # not bitwise commutative) and takes the product in place, but
                        # for a lone value: NumPy rounds that in place unlike in a longer one.
                        vals = np.multiply(vals, _phases(kn, block, r),
                                           out=None if vals.size == 1 else vals)
                    if acc is None:
                        # Not 0 + vals, which differs only in the sign of a zero: the
                        # field starts from +0, so it never holds -0 and adds either alike.
                        acc = vals
                    else:
                        acc += vals
                if times is None and not add(w, j, field[voxels], acc):
                    return  # another block failed and raises
        except BaseException:
            with baton:
                failed.set()
                baton.notify_all()
            raise

    workers = min(threads, n_freq)
    blocks = [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(n_freq), workers)]
    if workers == 1:
        # In this thread: a worker's own malloc arena would keep its temporaries.
        run(0, blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers), blocks))
    if times is not None:
        field = _reduce(plan, terms, times)
    field.setflags(write=False)  # so that the volume adopts it instead of copying it
    return ReconstructionVolume(plan.grid, field, times)


def _explicit_planes(grid: ExplicitVoxels, z_src: float, center, pitch, src,
                     n_min, scale=(1.0, 1.0)):
    """``(px, py, planes)`` for explicit voxels read from a centered lattice.

    A voxel at ``x`` sits at the scaled fractional index ``alpha*(x - cx)/dx``
    (likewise in y); ``src`` holds the input's x and y indices on the same
    scaled axes and ``n_min`` its embedded lengths, which size the padding.
    """
    depth = _depth_planes(grid, z_src)
    (cx, cy), (dx, dy), (al, be) = center, pitch, scale
    nu_x = [al * (x - cx) / dx for _, x, _ in depth]
    nu_y = [be * (y - cy) / dy for _, _, y in depth]
    px = _pad_size(src[0], np.concatenate(nu_x), n_min[0])
    py = _pad_size(src[1], np.concatenate(nu_y), n_min[1])
    return px, py, [_Plane(z, (z - z_src,), (dx / al, dy / be), x, y,
                           torus=_torus(ux, uy, px, py))
                    for (z, x, y), ux, uy in zip(depth, nu_x, nu_y)]


# ---------------------------------------------------------------------------
# Planners, each giving ``(shape, planes, encode, read)``, and their table
# ---------------------------------------------------------------------------


def _plan_rsd(relay: UniformRelay, frequencies, grid: CuboidGrid, padding="exact"):
    """The relay lattice embedded and transformed, read on the cuboid's window."""
    _require(padding in ("exact", "none"), "padding must be 'exact' or 'none'")
    g, vg = relay.grid, grid.grid
    _require(_close(vg.dx, g.dx) and _close(vg.dy, g.dy),
             "output lateral pitch must equal the relay pitch")
    cx, cy = g.center()
    nu0x = _integer_offset(vg.x0 - cx, g.dx, "output grid x origin offset")
    nu0y = _integer_offset(vg.y0 - cy, g.dy, "output grid y origin offset")
    depth = _depth_planes(grid, g.z)
    jx = np.arange(g.nx) - g.nx // 2
    jy = np.arange(g.ny) - g.ny // 2
    if padding == "none":
        _require(vg.nx == g.nx and vg.ny == g.ny and nu0x == jx[0] and nu0y == jy[0],
                 "padding='none' requires the output lattice to coincide with the relay lattice")
        px, py = g.nx, g.ny
    else:
        px = _pad_size(jx, nu0x + np.arange(vg.nx), g.nx)
        py = _pad_size(jy, nu0y + np.arange(vg.ny), g.ny)
    planes = [_Plane(z, (z - g.z,), (g.dx, g.dy), x, y) for z, x, y in depth]
    return ((py, px), planes, lambda cs: _embed_relay(cs, g, py, px),
            _read_window(vg.ny, vg.nx, (nu0y, nu0x)))


def _plan_srsd(relay: UniformRelay, frequencies, grid: FrustumGrid):
    """The bare relay, scaled onto the padded lattice per plane as the run reaches it."""
    g, b = relay.grid, grid.base
    _require(b.nx == g.nx and b.ny == g.ny
             and _close(b.dx, g.dx) and _close(b.dy, g.dy)
             and _close(b.x0, g.x0) and _close(b.y0, g.y0),
             "the frustum base must coincide with the relay lattice")
    planes = [_Plane(z, (z - g.z,), (g.dx / al, g.dy / be), x, y, scale=(al, be))
              for (z, x, y), al, be in zip(_depth_planes(grid, g.z), grid.alphas.tolist(),
                                           grid.betas.tolist())]
    py, px = next_fast_len(2 * g.ny), next_fast_len(2 * g.nx)
    return ((py, px), planes, lambda cs: _relay_lattice(cs, g)[:, None],
            _read_window(g.ny, g.nx))


def _plan_uniform_explicit(relay: UniformRelay, frequencies, grid: ExplicitVoxels, eps=1e-6,
                           alpha=None, beta=None, scaled=False):
    """A uniform relay read at explicit voxels; ``scaled`` (srsd-nursd2) takes it
    through the scaled FFT by ``(alpha, beta)``, ``beta`` defaulting to ``alpha``."""
    al = be = 1.0
    if scaled:
        _require(alpha is not None, "srsd-nursd2 needs a scale factor (alpha)")
        al, be = alpha, alpha if beta is None else beta
        _require(0 < al <= 1 and 0 < be <= 1, "scale factors must lie in (0, 1]")
    g = relay.grid
    jx = np.array([-(g.nx // 2), g.nx - g.nx // 2 - 1])
    jy = np.array([-(g.ny // 2), g.ny - g.ny // 2 - 1])
    px, py, planes = _explicit_planes(grid, g.z, g.center(), (g.dx, g.dy),
                                      (al * jx, be * jy), (g.nx, g.ny), (al, be))

    def encode(coefficients):
        if scaled:
            return [sfft_2d_centered(u, al, be, shape=(py, px))[None]
                    for u in _relay_lattice(coefficients, g)]
        return _embed_relay(coefficients, g, py, px)

    return (py, px), planes, encode, _read_points(eps, px, py)


def _plan_nursd3(relay: NonUniformPlanarRelay, frequencies, grid: ExplicitVoxels, eps=1e-6,
                 lattice_pitch=None):
    """Relay and voxels on one virtual lattice with a node on the first relay
    point; its pitch defaults to half the shortest wavelength, ``pi*c/w_max``."""
    pitch = (float(lattice_pitch) if lattice_pitch is not None
             else math.pi * SPEED_OF_LIGHT / float(frequencies[-1]))
    _require(math.isfinite(pitch) and pitch > 0, "lattice pitch must be finite and > 0")
    rel = np.asarray(relay.points.points)
    both = np.vstack([rel, grid.coordinates()[:, :2]])
    center = (both.min(axis=0) + both.max(axis=0)) / 2.0
    anchor = rel[0] + np.round((center - rel[0]) / pitch) * pitch
    cx, cy = float(anchor[0]), float(anchor[1])
    nu_x = (rel[:, 0] - cx) / pitch
    nu_y = (rel[:, 1] - cy) / pitch
    px, py, planes = _explicit_planes(grid, relay.z, (cx, cy), (pitch, pitch),
                                      (nu_x, nu_y), (1, 1))
    return ((py, px), planes,
            lambda cs: [_lateral_nufft(nu_x, nu_y, c, (py, px), eps)[None] for c in cs],
            _read_points(eps, px, py))


_DEPTH_RATE = 0.125


def _depth_sweep(rel: np.ndarray, grid: CuboidGrid, k_max: float) -> float:
    """``k_max * extent * (1 - cos(theta_max)) / 2``: the phase the demodulated
    kernel (see :func:`_plan_depth_nodes`) sweeps at most over half the
    relay's depth extent, ``theta_max`` pairing the widest lateral lag between
    a detection and a voxel column with the nearest plane; 0 on a flat relay."""
    z_lo, z_hi = float(rel[:, 2].min()), float(rel[:, 2].max())
    zs, xs, ys = zip(*grid.depth_planes())
    reach = [max(v.max() - r.min(), r.max() - v.min())
             for v, r in ((np.concatenate(xs), rel[:, 0]), (np.concatenate(ys), rel[:, 1]))]
    d_min = min(zs) - z_hi
    return k_max * (z_hi - z_lo) * (1.0 - d_min / math.hypot(d_min, *reach)) / 2.0


def _depth_node_count(eps: float, sweep: float) -> int:
    """Fewest depth nodes ``M`` (at most 32) with ``(_DEPTH_RATE * sweep)**M
    <= eps``; one on a flat relay.

    Fitted on 108 geometries (depth extents 0.005-0.15 m, lambda_c
    0.04-0.1 m, planes 0.25-1.5 m beyond the relay, relay and voxels 0.2-0.6
    m wide): the depth-only relative error at M = 2-10 nodes reads
    ``(rate * sweep)**M`` with rates of 0.047-0.124 (median 0.07; the top
    is ``_DEPTH_RATE``) for sweeps of 0.006-7.6.  The worst-lag bound
    ``2*(sweep/2)**M/M!`` overstates it: most lags turn slower than the widest.
    """
    _require(0.0 < eps < 1.0, "eps must lie in (0, 1)")
    m = 1
    while (_DEPTH_RATE * sweep) ** m > eps and m < 32:
        m += 1
    return m


def _depth_nodes(z: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``m`` Chebyshev nodes over ``[z.min(), z.max()]`` and the ``[L, m]``
    Lagrange basis ``L_m(z_l)`` on them (one node at the midpoint, basis 1)."""
    lo, hi = float(z.min()), float(z.max())
    nodes = (lo + hi) / 2.0 + (hi - lo) / 2.0 * np.cos(np.pi * (np.arange(m) + 0.5) / m)
    off = ~np.eye(m, dtype=bool)
    ratio = (z[:, None, None] - nodes) / np.where(off, nodes[:, None] - nodes, 1.0)
    return nodes, np.where(off, ratio, 1.0).prod(axis=-1)


def _plan_depth_nodes(relay, frequencies, grid: CuboidGrid, eps=1e-6, scatter="trilinear",
                      gridded=False):
    """A relay surface read onto a cuboid through planar kernels at depth nodes.

    With ``s = PROPAGATION_SIGN``, ``g = exp(s*1j*k*r)/r`` is ``exp(s*1j*k*d)``
    times a factor ``h`` that varies slowly with the depth distance ``d``.
    Interpolating ``h`` at Chebyshev nodes ``z_m`` over the relay's depths,
    ``g(z_k - z_l) ~= sum_m L_m(z_l) * exp(s*1j*k*(z_m - z_l)) * g(z_k - z_m)``
    for a detection at ``z_l``: each node is a planar source of samples so
    weighted; a flat relay takes one node, at its plane, of weight exactly 1.
    :func:`_lateral_nufft`, or :func:`_lateral_gridding` if ``gridded`` (rsd3d),
    turns the ``[L, M*F]`` columns into their ``[M*F, py, px]`` lattice spectrum.
    """
    _require(scatter in ("nearest", "trilinear"), "scatter must be 'nearest' or 'trilinear'")
    if not gridded:
        _check_eps(eps)
    rel = relay.coordinates()
    vg, z = grid.grid, rel[:, 2]
    depth = _depth_planes(grid, float(z.max()))
    nu_x = (rel[:, 0] - (vg.x0 + (vg.nx // 2) * vg.dx)) / vg.dx  # about the centre node
    nu_y = (rel[:, 1] - (vg.y0 + (vg.ny // 2) * vg.dy)) / vg.dy
    px = _pad_size(nu_x, np.arange(vg.nx) - vg.nx // 2, vg.nx)
    py = _pad_size(nu_y, np.arange(vg.ny) - vg.ny // 2, vg.ny)
    khats = frequencies / SPEED_OF_LIGHT
    m = _depth_node_count(eps, _depth_sweep(rel, grid, float(khats.max())))
    nodes, basis = _depth_nodes(z, m)
    weights = basis[:, :, None] * np.exp(
        PROPAGATION_SIGN * 1j * khats * (nodes[None, :, None] - z[:, None, None]))
    planes = [_Plane(zk, tuple(zk - s for s in nodes.tolist()), (vg.dx, vg.dy), x, y)
              for zk, x, y in depth]
    lateral = (partial(_lateral_gridding, scatter=scatter) if gridded
               else partial(_lateral_nufft, eps=eps))

    def encode(coefficients):
        return [lateral(nu_x, nu_y, (c[:, None, :] * weights).reshape(z.size, -1),
                        (py, px)).reshape(m, frequencies.size, py, px)
                for c in coefficients]

    return (py, px), planes, encode, _read_window(vg.ny, vg.nx)


# name -> (grid kind, relay kind, the options the planner takes, planner)
_ALGORITHMS = {
    "rsd": (CuboidGrid, UniformRelay, ("padding",), _plan_rsd),
    "srsd": (FrustumGrid, UniformRelay, (), _plan_srsd),
    "nursd1": (CuboidGrid, NonUniformPlanarRelay, ("eps",), _plan_depth_nodes),
    "nursd2": (ExplicitVoxels, UniformRelay, ("eps",), _plan_uniform_explicit),
    "nursd3": (ExplicitVoxels, NonUniformPlanarRelay, ("eps", "lattice_pitch"), _plan_nursd3),
    "rsd3d": (CuboidGrid, NonPlanarRelay, ("eps", "scatter"),
              partial(_plan_depth_nodes, gridded=True)),
    "nursd3d": (CuboidGrid, NonPlanarRelay, ("eps",), _plan_depth_nodes),
    "srsd-nursd2": (ExplicitVoxels, UniformRelay, ("eps", "alpha", "beta"),
                    partial(_plan_uniform_explicit, scaled=True)),
}

ALGORITHM_NAMES = tuple(_ALGORITHMS)


def _algorithm(algorithm: str, options, grid: VoxelGrid) -> tuple[str, tuple]:
    """``algorithm``'s normalised name and row, which must list every key of
    ``options`` and then reconstruct onto ``grid``'s kind."""
    name = str(algorithm).replace("_", "-").lower()
    _require(name in _ALGORITHMS,
             f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHM_NAMES)}")
    grid_kind, _, takes, _ = _ALGORITHMS[name]
    key = next((k for k in options if k not in takes), None)
    _require(key is None, f"{name} takes no option {key}; it takes {', '.join(takes) or 'none'}")
    _require(isinstance(grid, grid_kind), f"{name} reconstructs onto {_ONTO[grid_kind]}")
    return name, _ALGORITHMS[name]


def _plan(algorithm: str, relay: RelaySampling, illuminations: PointList,
          frequencies: np.ndarray, grid: VoxelGrid, **options) -> _Plan:
    """Plan ``algorithm`` from the geometry alone once its options and kinds pass."""
    _, (_, relay_kind, _, planner) = _algorithm(algorithm, options, grid)
    _require(isinstance(relay, relay_kind), _RELAY_NEEDS[relay_kind])
    shape, planes, encode, read = planner(relay, frequencies, grid, **options)
    return _Plan(grid, frequencies, illumination_coordinates(relay, illuminations),
                 shape, planes, encode, read)


# ---------------------------------------------------------------------------
# The one way in and projections
# ---------------------------------------------------------------------------


def reconstruct(slices: FrequencySlices, grid: VoxelGrid, algorithm: str, *,
                times: np.ndarray | None = None, threads: int = 1,
                include_illumination: bool = True, **options) -> ReconstructionVolume:
    """Reconstruct ``slices`` onto ``grid`` by the algorithm named ``algorithm``.

    The name is case-blind and reads ``_`` as ``-``.  Each algorithm takes
    only the keyword ``options`` listed here, with the defaults shown; any
    other raises :class:`ValidationError` before anything is planned.

    * ``rsd``, ``padding="exact"``: onto a cuboid at the relay pitch.
      ``"exact"`` sizes the convolution so no lag wraps; ``"none"`` keeps
      the bare relay-sized circular convolution (aliased away from the
      centre) and requires the output lattice to coincide with the relay
      lattice.
    * ``srsd``: onto a frustum based on the relay lattice; plane ``k`` scales
      by ``(alpha_k, beta_k)`` against a kernel sampled at ``dx/alpha_k``
      (likewise in y).  Accurate only while ``dx/alpha_k <= lambda_min/2``,
      half the shortest retained wavelength; beyond it the kernel aliases.
    * ``nursd1``, ``eps=1e-6``: scattered planar detections onto a cuboid by a
      type-1 NUFFT; detections on lattice nodes are exact.
    * ``nursd2``, ``eps=1e-6``: a uniform relay read at explicit voxels by a
      type-2 NUFFT; voxels on lattice nodes are exact.
    * ``nursd3``, ``eps=1e-6, lattice_pitch=None``: scattered planar detections
      to explicit voxels through a virtual lattice whose pitch defaults to
      half the shortest retained wavelength, anchored with a node on the
      first relay point.
    * ``rsd3d``, ``eps=1e-6, scatter="trilinear"``: a 3-D relay onto a cuboid,
      weighted onto depth nodes and deposited at the nearest node or
      bilinearly.  ``eps`` sets only the node count: the lateral gridding
      errs by about 1e-2 off the nodes.
    * ``nursd3d``, ``eps=1e-6``: as ``rsd3d`` with a type-1 NUFFT for the
      gridding; on a flat relay it is ``nursd1`` bit for bit.
    * ``srsd-nursd2``, ``alpha, beta=alpha, eps=1e-6``: ``alpha`` is required;
      one scale pair as in ``srsd``, read at explicit voxels by a type-2 NUFFT.

    ``times`` renders the light-transport video: frame ``t`` is
    ``sum_w exp(1j*w*t) * V_w`` over the per-frequency volumes ``V_w`` the
    static volume sums, so its ``t = 0`` frame equals the static volume bit
    for bit.  ``include_illumination=False`` keeps only the detection-side
    propagation: a scatterer's voxel then lights up when ``t`` is the
    illumination's time of flight to it.  ``threads`` workers (an integer
    >= 1) split the frequencies without changing a bit of the result.
    """
    plan = _plan(algorithm, slices.relay, slices.illuminations, slices.frequencies, grid,
                 **options)
    return _propagate(plan, slices.coefficients, times, threads, include_illumination)


def project_max_depth(volume: ReconstructionVolume, frame: int = 0) -> np.ndarray:
    """Maximum-intensity projection of |field| along depth: a [ny, nx] image."""
    return np.abs(volume.as_array3d(frame)).max(axis=0)
