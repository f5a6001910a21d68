"""Volumetric reconstruction by frequency-domain wavefront propagation.

Every algorithm here evaluates the same physical quantity: for each retained
frequency and each illumination point, the relay wavefront is propagated to
the requested voxels through the free-space kernel
``exp(s*1j*(w/c)*r)/r`` (``s = PROPAGATION_SIGN``), multiplied by the
illumination phase ``exp(s*1j*(w/c)*|x_p - x_v|)``, and summed over
illuminations and frequencies in ascending order.  They differ only in which
sampling patterns they accept and which fast transform carries the
propagation:

========  ===========================  ==========================  =========================
name      relay sampling               voxels                      transforms
========  ===========================  ==========================  =========================
rsd       uniform grid                 cuboid, same pitch          FFT convolution
srsd      uniform grid                 depth-scaled frustum        scaled FFT + FFT
nursd1    scattered points on a plane  cuboid                      type-1 NUFFT + FFT
nursd2    uniform grid                 explicit voxel list         FFT + type-2 NUFFT
nursd3    scattered points on a plane  explicit voxel list         type-1 + type-2 NUFFT
rsd3d     scattered points in 3D       cuboid                      3D FFT convolution
nursd3d   scattered points in 3D       cuboid                      3D type-1 NUFFT + FFT
srsd-nursd2  uniform grid              explicit list, one scale    scaled FFT + type-2 NUFFT
========  ===========================  ==========================  =========================

All lattice work uses the centered-index convention of :mod:`.spectral`;
padded sizes are chosen so that every lag actually used lies inside the
centered index set, making the circular convolutions exact linear ones.
Accumulation order (frequencies ascending, illuminations ascending) is fixed
and identical for the static and time-resolved paths, so results are
bit-reproducible across runs and across ``threads`` settings.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

import numpy as np

from .core import (
    PROPAGATION_SIGN,
    SPEED_OF_LIGHT,
    CuboidGrid,
    ExplicitVoxels,
    FrequencySlices,
    FrustumGrid,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    ReconstructionVolume,
    UniformRelay,
    ValidationError,
    VoxelGrid,
    _require,
    illumination_coordinates,
)
from .spectral import (
    cfft_2d,
    cfft_n,
    cifft_2d,
    cifft_n,
    next_fast_len,
    nufft1,
    nufft2,
    sfft_2d_centered,
)

__all__ = [
    "rsd",
    "srsd",
    "nursd1",
    "nursd2",
    "nursd3",
    "rsd3d",
    "nursd3d",
    "srsd_nursd2",
    "reconstruct",
    "light_transport_video",
    "project_max_depth",
    "ALGORITHM_NAMES",
]


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _integer_offset(value: float, pitch: float, what: str) -> int:
    q = value / pitch
    qi = round(q)
    _require(abs(q - qi) <= 1e-9 * max(1.0, abs(q)),
             f"{what} must be an integer multiple of the lattice pitch")
    return int(qi)


def _pad_size(lag_max: float, nu_max: float, n_min: int) -> int:
    """Padded axis length whose centered index set holds every needed lag.

    ``lag_max`` bounds the |output - input| index lags, ``nu_max`` the
    absolute centered indices themselves (they must map inside the torus),
    and ``n_min`` is the smallest length that fits the embedded input.
    """
    need = 2 * math.ceil(max(lag_max, nu_max)) + 2
    return next_fast_len(max(n_min, need + 8))


def _pad_embed(u: np.ndarray, py: int, px: int) -> np.ndarray:
    """Embed the last two axes of ``u`` centred in a ``[..., py, px]`` zero array."""
    ny, nx = u.shape[-2:]
    out = np.zeros(u.shape[:-2] + (py, px), dtype=np.complex128)
    oy = py // 2 - ny // 2
    ox = px // 2 - nx // 2
    out[..., oy:oy + ny, ox:ox + nx] = u
    return out


def _center_rows(p: int, n: int) -> slice:
    """Slice of the padded axis holding centered output indices m - n//2."""
    start = p // 2 - n // 2
    return slice(start, start + n)


def _kernel_2d(khat, lag_x: np.ndarray, lag_y: np.ndarray, dz: float) -> np.ndarray:
    """Kernel on the lag lattice; a vector ``khat`` gives a ``[n, py, px]`` stack."""
    r = np.sqrt(lag_x[None, :] ** 2 + lag_y[:, None] ** 2 + dz * dz)
    return np.exp(PROPAGATION_SIGN * 1j * np.asarray(khat)[..., None, None] * r) / r


def _illum_mask(khat: float, xs: np.ndarray, ys: np.ndarray, z: float,
                source: np.ndarray) -> np.ndarray:
    r = np.sqrt((xs[None, :] - source[0]) ** 2 + (ys[:, None] - source[1]) ** 2
                + (z - source[2]) ** 2)
    return np.exp(PROPAGATION_SIGN * 1j * khat * r)


def _illum_phase_points(khats: np.ndarray, pts_xy: np.ndarray, z: float,
                        source: np.ndarray) -> np.ndarray:
    """Illumination phase at explicit voxels, ``[n_freq, n_voxels]``."""
    r = np.sqrt((pts_xy[:, 0] - source[0]) ** 2 + (pts_xy[:, 1] - source[1]) ** 2
                + (z - source[2]) ** 2)
    return np.exp(PROPAGATION_SIGN * 1j * khats[:, None] * r)


def _run(slices: FrequencySlices, grid: VoxelGrid,
         freq_volume: Callable[[int], np.ndarray],
         times: np.ndarray | None, threads: int) -> ReconstructionVolume:
    """Evaluate per-frequency volumes and reduce them in ascending order.

    The reduction is always sequential in the calling thread, so the result
    is independent of ``threads``; workers only compute the per-frequency
    terms.
    """
    nf = slices.n_freq
    if threads and int(threads) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return _reduce(slices, grid, pool.map(freq_volume, range(nf)), times)
    return _reduce(slices, grid, map(freq_volume, range(nf)), times)


def _reduce(slices: FrequencySlices, grid: VoxelGrid, results: Iterable[np.ndarray],
            times: np.ndarray | None) -> ReconstructionVolume:
    if times is None:
        out = np.zeros(grid.count, dtype=np.complex128)
        for term in results:
            out += term
        return ReconstructionVolume(grid, out)
    t = np.asarray(times, dtype=np.float64)
    _require(t.ndim == 1 and t.size >= 1, "frame times must be a nonempty vector")
    frames = np.zeros((t.size, grid.count), dtype=np.complex128)
    for fi, term in enumerate(results):
        w = float(slices.frequencies[fi])
        for ti in range(t.size):
            frames[ti] += np.exp(1j * w * t[ti]) * term
    return ReconstructionVolume(grid, frames, t)


def _uniform_relay(slices: FrequencySlices) -> UniformRelay:
    _require(isinstance(slices.relay, UniformRelay),
             "this algorithm needs detections on a uniform relay grid")
    return slices.relay


def _planar_relay(slices: FrequencySlices) -> NonUniformPlanarRelay:
    _require(isinstance(slices.relay, NonUniformPlanarRelay),
             "this algorithm needs scattered detections on a single plane")
    return slices.relay


def _nonplanar_relay(slices: FrequencySlices) -> NonPlanarRelay:
    _require(isinstance(slices.relay, NonPlanarRelay),
             "this algorithm needs detections scattered in 3D")
    return slices.relay


def _check_depths(zs: np.ndarray, z_relay: float) -> None:
    _require(bool((np.asarray(zs) > z_relay).all()),
             "every voxel plane must lie strictly beyond the relay plane")


# ---------------------------------------------------------------------------
# rsd: uniform relay -> cuboid on the same lattice pitch
# ---------------------------------------------------------------------------


def rsd(slices: FrequencySlices, grid: CuboidGrid, padding: str = "exact",
        times: np.ndarray | None = None, threads: int = 1,
        include_illumination: bool = True) -> ReconstructionVolume:
    """Plane-to-plane propagation onto a cuboid sharing the relay pitch.

    ``padding="exact"`` sizes the convolution so no lag wraps; ``"none"``
    keeps the bare relay-sized circular convolution (aliased away from the
    center) and then requires the output lattice to coincide with the relay
    lattice.
    """
    _require(isinstance(grid, CuboidGrid), "rsd reconstructs onto a cuboid grid")
    _require(padding in ("exact", "none"), "padding must be 'exact' or 'none'")
    relay = _uniform_relay(slices)
    g = relay.grid
    vg = grid.grid
    _require(_close(vg.dx, g.dx) and _close(vg.dy, g.dy),
             "output lateral pitch must equal the relay pitch")
    cx, cy = g.center()
    nu0x = _integer_offset(vg.x0 - cx, g.dx, "output grid x origin offset")
    nu0y = _integer_offset(vg.y0 - cy, g.dy, "output grid y origin offset")
    nux = nu0x + np.arange(vg.nx)
    nuy = nu0y + np.arange(vg.ny)
    zs = vg.z_coords()
    _check_depths(zs, g.z)
    jx_lo, jx_hi = -(g.nx // 2), g.nx - g.nx // 2 - 1
    jy_lo, jy_hi = -(g.ny // 2), g.ny - g.ny // 2 - 1
    if padding == "none":
        _require(vg.nx == g.nx and vg.ny == g.ny
                 and nu0x == jx_lo and nu0y == jy_lo,
                 "padding='none' requires the output lattice to coincide with "
                 "the relay lattice")
        px, py = g.nx, g.ny
    else:
        lx = max(abs(int(nux.min()) - jx_hi), abs(int(nux.max()) - jx_lo))
        ly = max(abs(int(nuy.min()) - jy_hi), abs(int(nuy.max()) - jy_lo))
        px = _pad_size(lx, max(abs(int(nux.min())), abs(int(nux.max())), g.nx // 2), g.nx)
        py = _pad_size(ly, max(abs(int(nuy.min())), abs(int(nuy.max())), g.ny // 2), g.ny)
    lag_x = (np.arange(px) - px // 2) * g.dx
    lag_y = (np.arange(py) - py // 2) * g.dy
    ill = illumination_coordinates(relay, slices.illuminations)
    xs = vg.x0 + vg.dx * np.arange(vg.nx)
    ys = vg.y0 + vg.dy * np.arange(vg.ny)
    coeff = slices.coefficients
    freqs = slices.frequencies
    row_ix = np.ix_(py // 2 + nuy, px // 2 + nux)

    def freq_volume(fi: int) -> np.ndarray:
        khat = freqs[fi] / SPEED_OF_LIGHT
        ghats = [cfft_2d(_kernel_2d(khat, lag_x, lag_y, z - g.z)) for z in zs]
        vol = np.zeros((zs.size, vg.ny, vg.nx), dtype=np.complex128)
        for p in range(ill.shape[0]):
            u = coeff[p, :, fi].reshape(g.ny, g.nx)
            uhat = cfft_2d(_pad_embed(u, py, px))
            for k in range(zs.size):
                plane = cifft_2d(uhat * ghats[k])[row_ix]
                if include_illumination:
                    plane = plane * _illum_mask(khat, xs, ys, float(zs[k]), ill[p])
                vol[k] += plane
        return vol.ravel()

    return _run(slices, grid, freq_volume, times, threads)


# ---------------------------------------------------------------------------
# srsd: uniform relay -> depth-scaled frustum
# ---------------------------------------------------------------------------


def srsd(slices: FrequencySlices, grid: FrustumGrid,
         times: np.ndarray | None = None, threads: int = 1,
         include_illumination: bool = True) -> ReconstructionVolume:
    """Scaled propagation onto a frustum whose planes widen with depth.

    Plane ``k`` applies the scaled transform with factors ``(alpha_k,
    beta_k)`` against a kernel sampled at the widened pitch
    ``(dx/alpha_k, dy/beta_k)``; the output plane keeps the relay counts but
    covers the widened extent.  With all factors equal to 1 this reduces
    exactly to :func:`rsd` on the relay lattice.
    """
    _require(isinstance(grid, FrustumGrid), "srsd reconstructs onto a frustum grid")
    relay = _uniform_relay(slices)
    g = relay.grid
    b = grid.base
    _require(b.nx == g.nx and b.ny == g.ny
             and _close(b.dx, g.dx) and _close(b.dy, g.dy)
             and _close(b.x0, g.x0) and _close(b.y0, g.y0),
             "the frustum base must coincide with the relay lattice")
    _check_depths(grid.zs, g.z)
    px = next_fast_len(2 * g.nx)
    py = next_fast_len(2 * g.ny)
    rows = _center_rows(py, g.ny)
    cols = _center_rows(px, g.nx)
    ill = illumination_coordinates(relay, slices.illuminations)
    coeff = slices.coefficients
    freqs = slices.frequencies
    plane_geo = []
    for k in range(grid.n_planes):
        al = float(grid.alphas[k])
        be = float(grid.betas[k])
        lag_x = (np.arange(px) - px // 2) * (g.dx / al)
        lag_y = (np.arange(py) - py // 2) * (g.dy / be)
        xs, ys = grid.plane_xy(k)
        plane_geo.append((al, be, lag_x, lag_y, xs, ys, float(grid.zs[k])))

    def freq_volume(fi: int) -> np.ndarray:
        khat = freqs[fi] / SPEED_OF_LIGHT
        ghats = [cfft_2d(_kernel_2d(khat, lag_x, lag_y, z - g.z))
                 for (_, _, lag_x, lag_y, _, _, z) in plane_geo]
        vol = np.zeros((grid.n_planes, g.ny, g.nx), dtype=np.complex128)
        for p in range(ill.shape[0]):
            u_pad = _pad_embed(coeff[p, :, fi].reshape(g.ny, g.nx), py, px)
            for k, (al, be, _, _, xs, ys, z) in enumerate(plane_geo):
                uhat = sfft_2d_centered(u_pad, al, be)
                plane = cifft_2d(uhat * ghats[k])[rows, cols]
                if include_illumination:
                    plane = plane * _illum_mask(khat, xs, ys, z, ill[p])
                vol[k] += plane
        return vol.ravel()

    return _run(slices, grid, freq_volume, times, threads)


# ---------------------------------------------------------------------------
# nursd1: scattered planar relay -> cuboid
# ---------------------------------------------------------------------------


def nursd1(slices: FrequencySlices, grid: CuboidGrid, eps: float = 1e-6,
           times: np.ndarray | None = None, threads: int = 1,
           include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from scattered planar detections onto a cuboid lattice.

    The relay samples are moved onto the output lattice's frequency grid by
    one type-1 NUFFT per illumination, batched over frequencies; each depth
    plane is then an ordinary kernel convolution.  Detections lying exactly
    on lattice nodes are handled exactly, so a gridded relay reproduces
    :func:`rsd`.
    """
    _require(isinstance(grid, CuboidGrid), "nursd1 reconstructs onto a cuboid grid")
    relay = _planar_relay(slices)
    vg = grid.grid
    zs = vg.z_coords()
    _check_depths(zs, relay.z)
    cx = vg.x0 + (vg.nx // 2) * vg.dx
    cy = vg.y0 + (vg.ny // 2) * vg.dy
    rel = np.asarray(relay.points.points)
    nu_rx = (rel[:, 0] - cx) / vg.dx
    nu_ry = (rel[:, 1] - cy) / vg.dy
    out_lo_x, out_hi_x = -(vg.nx // 2), vg.nx - vg.nx // 2 - 1
    out_lo_y, out_hi_y = -(vg.ny // 2), vg.ny - vg.ny // 2 - 1
    lx = max(out_hi_x - nu_rx.min(), nu_rx.max() - out_lo_x)
    ly = max(out_hi_y - nu_ry.min(), nu_ry.max() - out_lo_y)
    px = _pad_size(lx, max(abs(nu_rx).max(), vg.nx // 2), vg.nx)
    py = _pad_size(ly, max(abs(nu_ry).max(), vg.ny // 2), vg.ny)
    torus = np.column_stack([2.0 * np.pi * nu_rx / px, 2.0 * np.pi * nu_ry / py])
    rows = _center_rows(py, vg.ny)
    cols = _center_rows(px, vg.nx)
    lag_x = (np.arange(px) - px // 2) * vg.dx
    lag_y = (np.arange(py) - py // 2) * vg.dy
    ill = illumination_coordinates(relay, slices.illuminations)
    xs = vg.x0 + vg.dx * np.arange(vg.nx)
    ys = vg.y0 + vg.dy * np.arange(vg.ny)
    freqs = slices.frequencies
    uhats = [nufft1(torus, c, (py, px), eps) for c in slices.coefficients]

    def freq_volume(fi: int) -> np.ndarray:
        khat = freqs[fi] / SPEED_OF_LIGHT
        ghats = [cfft_2d(_kernel_2d(khat, lag_x, lag_y, z - relay.z)) for z in zs]
        vol = np.zeros((zs.size, vg.ny, vg.nx), dtype=np.complex128)
        for p in range(ill.shape[0]):
            uhat = uhats[p][fi]
            for k in range(zs.size):
                plane = cifft_2d(uhat * ghats[k])[rows, cols]
                if include_illumination:
                    plane = plane * _illum_mask(khat, xs, ys, float(zs[k]), ill[p])
                vol[k] += plane
        return vol.ravel()

    return _run(slices, grid, freq_volume, times, threads)


# ---------------------------------------------------------------------------
# nursd2: uniform relay -> explicit voxel list
# ---------------------------------------------------------------------------


def _explicit_plane_geometry(grid: ExplicitVoxels, cx: float, cy: float,
                             dx: float, dy: float, scale_x: float = 1.0,
                             scale_y: float = 1.0):
    """Per-plane fractional lattice indices of explicit voxels.

    Returns a list of ``(start, count, nu_x, nu_y, pts_xy, z)`` with ``start``
    the offset of the plane's voxels in the flat output vector; ``nu`` are
    the (optionally scaled) centered lattice indices of the voxel positions.
    """
    geo = []
    start = 0
    for plane in grid.planes:
        pts = np.asarray(plane.points.points)
        nu_x = scale_x * (pts[:, 0] - cx) / dx
        nu_y = scale_y * (pts[:, 1] - cy) / dy
        geo.append((start, pts.shape[0], nu_x, nu_y, pts, float(plane.z)))
        start += pts.shape[0]
    return geo


def _read_explicit(slices: FrequencySlices, grid: ExplicitVoxels, geo,
                   uhats: list[np.ndarray], lag_x: np.ndarray, lag_y: np.ndarray,
                   z_relay: float, eps: float, times: np.ndarray | None,
                   include_illumination: bool) -> ReconstructionVolume:
    """Read propagated lattice spectra at explicit voxels and reduce them.

    ``uhats[p]`` holds illumination ``p``'s relay spectrum on the padded
    ``[py, px]`` lattice for every frequency.  Each plane stacks its kernel
    spectra over frequencies once, and one batched type-2 NUFFT per
    illumination reads the products at the plane's voxels.  The terms are
    then summed in ascending frequency, then illumination, order.  No
    per-frequency work is left for worker threads, so callers ignore
    ``threads``.
    """
    n_freq, py, px = uhats[0].shape
    khats = slices.frequencies / SPEED_OF_LIGHT
    ill = illumination_coordinates(slices.relay, slices.illuminations)
    scale = 1.0 / (px * py)
    terms = np.empty((len(uhats), n_freq, grid.count), dtype=np.complex128)
    for start, count, nu_x, nu_y, pts, z in geo:
        torus = np.column_stack([2.0 * np.pi * nu_x / px, 2.0 * np.pi * nu_y / py])
        ghat = cfft_2d(_kernel_2d(khats, lag_x, lag_y, z - z_relay))
        for p, uhat in enumerate(uhats):
            vals = nufft2(uhat * ghat, torus, eps, batch=True) * scale
            if include_illumination:
                vals = vals * _illum_phase_points(khats, pts, z, ill[p])
            terms[p, :, start:start + count] = vals

    def freq_volume(fi: int) -> np.ndarray:
        vol = np.zeros(grid.count, dtype=np.complex128)
        for term in terms[:, fi]:
            vol += term
        return vol

    return _reduce(slices, grid, map(freq_volume, range(n_freq)), times)


def nursd2(slices: FrequencySlices, grid: ExplicitVoxels, eps: float = 1e-6,
           times: np.ndarray | None = None, threads: int = 1,
           include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from a uniform relay onto arbitrarily placed voxels.

    Each depth plane's spectrum (relay spectrum times kernel spectrum) is
    evaluated at the voxels' fractional lattice positions by a type-2 NUFFT.
    Voxels on lattice nodes reproduce the :func:`rsd` values exactly.
    """
    _require(isinstance(grid, ExplicitVoxels), "nursd2 reconstructs onto explicit voxels")
    relay = _uniform_relay(slices)
    g = relay.grid
    cx, cy = g.center()
    geo = _explicit_plane_geometry(grid, cx, cy, g.dx, g.dy)
    _check_depths(np.asarray([z for *_, z in geo]), g.z)
    jx_lo, jx_hi = -(g.nx // 2), g.nx - g.nx // 2 - 1
    jy_lo, jy_hi = -(g.ny // 2), g.ny - g.ny // 2 - 1
    all_nu_x = np.concatenate([t[2] for t in geo])
    all_nu_y = np.concatenate([t[3] for t in geo])
    lx = max(all_nu_x.max() - jx_lo, jx_hi - all_nu_x.min())
    ly = max(all_nu_y.max() - jy_lo, jy_hi - all_nu_y.min())
    px = _pad_size(lx, max(abs(all_nu_x).max(), g.nx // 2), g.nx)
    py = _pad_size(ly, max(abs(all_nu_y).max(), g.ny // 2), g.ny)
    lag_x = (np.arange(px) - px // 2) * g.dx
    lag_y = (np.arange(py) - py // 2) * g.dy
    uhats = [cfft_2d(_pad_embed(c.T.reshape(-1, g.ny, g.nx), py, px))
             for c in slices.coefficients]
    return _read_explicit(slices, grid, geo, uhats, lag_x, lag_y, g.z, eps, times,
                          include_illumination)


# ---------------------------------------------------------------------------
# nursd3: scattered planar relay -> explicit voxel list
# ---------------------------------------------------------------------------


def nursd3(slices: FrequencySlices, grid: ExplicitVoxels, eps: float = 1e-6,
           lattice_pitch: float | None = None,
           times: np.ndarray | None = None, threads: int = 1,
           include_illumination: bool = True) -> ReconstructionVolume:
    """Fully non-uniform propagation through a virtual lattice.

    Both the scattered relay samples and the explicit voxels are referred to
    a virtual uniform lattice (pitch defaults to half the shortest retained
    wavelength, anchored so the first relay point lies exactly on a node);
    a type-1 NUFFT forms the lattice spectrum, each plane multiplies the
    kernel spectrum, and a type-2 NUFFT reads the result at the voxels.
    """
    _require(isinstance(grid, ExplicitVoxels), "nursd3 reconstructs onto explicit voxels")
    relay = _planar_relay(slices)
    pitch = (float(lattice_pitch) if lattice_pitch is not None
             else slices.shortest_wavelength / 2.0)
    _require(pitch > 0, "lattice pitch must be > 0")
    rel = np.asarray(relay.points.points)
    tgt = np.vstack([np.asarray(p.points.points) for p in grid.planes])
    lo = np.minimum(rel.min(axis=0), tgt.min(axis=0))
    hi = np.maximum(rel.max(axis=0), tgt.max(axis=0))
    center = (lo + hi) / 2.0
    anchor = rel[0] + np.round((center - rel[0]) / pitch) * pitch
    cx, cy = float(anchor[0]), float(anchor[1])
    nu_rx = (rel[:, 0] - cx) / pitch
    nu_ry = (rel[:, 1] - cy) / pitch
    geo = _explicit_plane_geometry(grid, cx, cy, pitch, pitch)
    _check_depths(np.asarray([z for *_, z in geo]), relay.z)
    all_nu_x = np.concatenate([t[2] for t in geo])
    all_nu_y = np.concatenate([t[3] for t in geo])
    lx = max(all_nu_x.max() - nu_rx.min(), nu_rx.max() - all_nu_x.min())
    ly = max(all_nu_y.max() - nu_ry.min(), nu_ry.max() - all_nu_y.min())
    px = _pad_size(lx, max(abs(all_nu_x).max(), abs(nu_rx).max()), 1)
    py = _pad_size(ly, max(abs(all_nu_y).max(), abs(nu_ry).max()), 1)
    torus_rel = np.column_stack([2.0 * np.pi * nu_rx / px, 2.0 * np.pi * nu_ry / py])
    lag_x = (np.arange(px) - px // 2) * pitch
    lag_y = (np.arange(py) - py // 2) * pitch
    uhats = [nufft1(torus_rel, c, (py, px), eps) for c in slices.coefficients]
    return _read_explicit(slices, grid, geo, uhats, lag_x, lag_y, relay.z, eps, times,
                          include_illumination)


# ---------------------------------------------------------------------------
# srsd-nursd2: uniform relay -> explicit voxels through one scaled transform
# ---------------------------------------------------------------------------


def srsd_nursd2(slices: FrequencySlices, grid: ExplicitVoxels, alpha: float,
                beta: float | None = None, eps: float = 1e-6,
                times: np.ndarray | None = None, threads: int = 1,
                include_illumination: bool = True) -> ReconstructionVolume:
    """Scaled propagation read out at arbitrary voxel positions.

    One global scale pair ``(alpha, beta)`` widens the kernel pitch as in
    :func:`srsd`; voxels are read from the scaled spectrum at fractional
    scaled indices ``alpha*(x - cx)/dx`` by a type-2 NUFFT, combining the
    wide field of view of the scaled transform with free voxel placement.
    """
    _require(isinstance(grid, ExplicitVoxels),
             "srsd-nursd2 reconstructs onto explicit voxels")
    if beta is None:
        beta = alpha
    _require(0 < alpha <= 1 and 0 < beta <= 1, "scale factors must lie in (0, 1]")
    relay = _uniform_relay(slices)
    g = relay.grid
    cx, cy = g.center()
    geo = _explicit_plane_geometry(grid, cx, cy, g.dx, g.dy, alpha, beta)
    _check_depths(np.asarray([z for *_, z in geo]), g.z)
    jx_lo, jx_hi = -(g.nx // 2), g.nx - g.nx // 2 - 1
    jy_lo, jy_hi = -(g.ny // 2), g.ny - g.ny // 2 - 1
    all_nu_x = np.concatenate([t[2] for t in geo])
    all_nu_y = np.concatenate([t[3] for t in geo])
    lx = max(all_nu_x.max() - alpha * jx_lo, alpha * jx_hi - all_nu_x.min())
    ly = max(all_nu_y.max() - beta * jy_lo, beta * jy_hi - all_nu_y.min())
    px = _pad_size(lx, max(abs(all_nu_x).max(), g.nx // 2), g.nx)
    py = _pad_size(ly, max(abs(all_nu_y).max(), g.ny // 2), g.ny)
    lag_x = (np.arange(px) - px // 2) * (g.dx / alpha)
    lag_y = (np.arange(py) - py // 2) * (g.dy / beta)
    uhats = [sfft_2d_centered(_pad_embed(c.T.reshape(-1, g.ny, g.nx), py, px), alpha, beta)
             for c in slices.coefficients]
    return _read_explicit(slices, grid, geo, uhats, lag_x, lag_y, g.z, eps, times,
                          include_illumination)


# ---------------------------------------------------------------------------
# 3D relay surfaces
# ---------------------------------------------------------------------------


def _lattice_3d(slices: FrequencySlices, grid: CuboidGrid, z_pitch: float | None):
    """Shared virtual-lattice geometry for the non-planar relay algorithms."""
    relay = _nonplanar_relay(slices)
    vg = grid.grid
    rel = relay.coordinates()
    dz3 = float(z_pitch) if z_pitch else slices.shortest_wavelength / 2.0
    _require(dz3 > 0, "depth lattice pitch must be > 0")
    z_min = float(rel[:, 2].min())
    z_ext = float(rel[:, 2].max()) - z_min
    nz3 = max(1, math.ceil(z_ext / dz3) + 1)
    pz = next_fast_len(2 * nz3 + 2)
    z0 = z_min + nz3 * dz3
    zs = vg.z_coords()
    _require(bool((zs > z0).all()),
             "every voxel plane must lie beyond the relay surface's far face "
             f"(z > {z0:.6g})")
    cx = vg.x0 + (vg.nx // 2) * vg.dx
    cy = vg.y0 + (vg.ny // 2) * vg.dy
    nu_rx = (rel[:, 0] - cx) / vg.dx
    nu_ry = (rel[:, 1] - cy) / vg.dy
    out_lo_x, out_hi_x = -(vg.nx // 2), vg.nx - vg.nx // 2 - 1
    out_lo_y, out_hi_y = -(vg.ny // 2), vg.ny - vg.ny // 2 - 1
    lx = max(out_hi_x - nu_rx.min(), nu_rx.max() - out_lo_x)
    ly = max(out_hi_y - nu_ry.min(), nu_ry.max() - out_lo_y)
    px = _pad_size(lx, max(abs(nu_rx).max(), vg.nx // 2), vg.nx)
    py = _pad_size(ly, max(abs(nu_ry).max(), vg.ny // 2), vg.ny)
    slab_index = pz // 2 + (nz3 - nz3 // 2)
    return relay, rel, dz3, z_min, nz3, pz, z0, nu_rx, nu_ry, px, py, slab_index


def _kernel_3d(khat: float, px: int, py: int, pz: int, dx: float, dy: float,
               dz3: float) -> np.ndarray:
    lag_x = (np.arange(px) - px // 2) * dx
    lag_y = (np.arange(py) - py // 2) * dy
    lag_z = (np.arange(pz) - pz // 2) * dz3
    r = np.sqrt(lag_z[:, None, None] ** 2 + lag_y[None, :, None] ** 2
                + lag_x[None, None, :] ** 2)
    # The zero-lag slot has r = 0; no extracted slab ever uses it (the
    # extraction plane lies at least one depth step beyond the farthest
    # source), so it carries 0 instead of a singular value.
    center = (pz // 2, py // 2, px // 2)
    r[center] = 1.0
    kern = np.exp(PROPAGATION_SIGN * 1j * khat * r) / r
    kern[center] = 0.0
    return kern


def _stage2_volume(uhat_plane: np.ndarray, khat: float, vg, z0: float,
                   px: int, py: int, ill_p: np.ndarray,
                   include_illumination: bool) -> np.ndarray:
    """Propagate the virtual-plane spectrum to every output plane."""
    zs = vg.z_coords()
    lag_x = (np.arange(px) - px // 2) * vg.dx
    lag_y = (np.arange(py) - py // 2) * vg.dy
    rows = _center_rows(py, vg.ny)
    cols = _center_rows(px, vg.nx)
    xs = vg.x0 + vg.dx * np.arange(vg.nx)
    ys = vg.y0 + vg.dy * np.arange(vg.ny)
    vol = np.zeros((zs.size, vg.ny, vg.nx), dtype=np.complex128)
    for k, z in enumerate(zs):
        ghat = cfft_2d(_kernel_2d(khat, lag_x, lag_y, float(z) - z0))
        plane = cifft_2d(uhat_plane * ghat)[rows, cols]
        if include_illumination:
            plane = plane * _illum_mask(khat, xs, ys, float(z), ill_p)
        vol[k] = plane
    return vol


def rsd3d(slices: FrequencySlices, grid: CuboidGrid, scatter: str = "trilinear",
          z_pitch: float | None = None, times: np.ndarray | None = None,
          threads: int = 1, include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from a 3D relay surface via a gridded 3D convolution.

    Stage 1 scatters the relay samples onto a 3D virtual lattice (depth
    pitch defaults to half the shortest retained wavelength; duplicate
    targets sum) and propagates them by one 3D kernel convolution to a
    virtual plane just beyond the relay surface.  Stage 2 is plane-to-plane
    propagation from that virtual plane onto the output cuboid.
    """
    _require(isinstance(grid, CuboidGrid), "rsd3d reconstructs onto a cuboid grid")
    _require(scatter in ("nearest", "trilinear"), "scatter must be 'nearest' or 'trilinear'")
    (relay, rel, dz3, z_min, nz3, pz, z0, nu_rx, nu_ry, px, py,
     slab_index) = _lattice_3d(slices, grid, z_pitch)
    vg = grid.grid
    fx = nu_rx + px // 2
    fy = nu_ry + py // 2
    fz = (rel[:, 2] - z_min) / dz3 + (pz // 2 - nz3 // 2)
    if scatter == "nearest":
        ix = np.round(fx).astype(np.int64)[:, None]
        iy = np.round(fy).astype(np.int64)[:, None]
        iz = np.round(fz).astype(np.int64)[:, None]
        wts = np.ones((rel.shape[0], 1))
    else:
        def corners(f):
            lo = np.floor(f).astype(np.int64)
            frac = f - lo
            return np.stack([lo, lo + 1], axis=1), np.stack([1.0 - frac, frac], axis=1)
        gx, wx = corners(fx)
        gy, wy = corners(fy)
        gz, wz = corners(fz)
        ix = np.repeat(gx[:, None, None, :], 2, 1).repeat(2, 2).reshape(-1, 8)
        iy = np.repeat(gy[:, None, :, None], 2, 1).repeat(2, 3).reshape(-1, 8)
        iz = np.repeat(gz[:, :, None, None], 2, 2).repeat(2, 3).reshape(-1, 8)
        wts = (wz[:, :, None, None] * wy[:, None, :, None]
               * wx[:, None, None, :]).reshape(-1, 8)
    for name, idx, bound in (("x", ix, px), ("y", iy, py), ("z", iz, pz)):
        if idx.min() < 0 or idx.max() >= bound:
            raise RuntimeError(f"relay scatter indices escaped the {name} lattice")
    ill = illumination_coordinates(relay, slices.illuminations)
    coeff = slices.coefficients
    freqs = slices.frequencies

    def freq_volume(fi: int) -> np.ndarray:
        khat = freqs[fi] / SPEED_OF_LIGHT
        g3 = cfft_n(_kernel_3d(khat, px, py, pz, vg.dx, vg.dy, dz3), axes=(-3, -2, -1))
        vol = np.zeros(grid.count, dtype=np.complex128)
        for p in range(ill.shape[0]):
            fine = np.zeros((pz, py, px), dtype=np.complex128)
            np.add.at(fine, (iz, iy, ix), coeff[p, :, fi][:, None] * wts)
            wave = cifft_n(cfft_n(fine, axes=(-3, -2, -1)) * g3, axes=(-3, -2, -1))
            uhat_plane = cfft_2d(wave[slab_index])
            vol += _stage2_volume(uhat_plane, khat, vg, z0, px, py, ill[p],
                                  include_illumination).ravel()
        return vol

    return _run(slices, grid, freq_volume, times, threads)


def nursd3d(slices: FrequencySlices, grid: CuboidGrid, eps: float = 1e-6,
            z_pitch: float | None = None, times: np.ndarray | None = None,
            threads: int = 1, include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from a 3D relay surface via a 3D type-1 NUFFT.

    Same two-stage structure as :func:`rsd3d`, but stage 1 forms the virtual
    lattice spectrum directly from the scattered samples with a 3D type-1
    NUFFT instead of scatter-gridding.  A relay whose points all share one z
    plane is handed to :func:`nursd1`, which the flat geometry makes exact.
    """
    _require(isinstance(grid, CuboidGrid), "nursd3d reconstructs onto a cuboid grid")
    relay = _nonplanar_relay(slices)
    rel = relay.coordinates()
    if relay.z_extent == 0.0:
        flat = NonUniformPlanarRelay(PointList(rel[:, :2]), z=float(rel[0, 2]))
        flat_slices = FrequencySlices(slices.frequencies, slices.coefficients,
                                      flat, slices.illuminations)
        return nursd1(flat_slices, grid, eps=eps, times=times, threads=threads,
                      include_illumination=include_illumination)
    (relay, rel, dz3, z_min, nz3, pz, z0, nu_rx, nu_ry, px, py,
     slab_index) = _lattice_3d(slices, grid, z_pitch)
    vg = grid.grid
    c_z = z_min + (nz3 // 2) * dz3
    nu_rz = (rel[:, 2] - c_z) / dz3
    torus = np.column_stack([2.0 * np.pi * nu_rx / px,
                             2.0 * np.pi * nu_ry / py,
                             2.0 * np.pi * nu_rz / pz])
    ill = illumination_coordinates(relay, slices.illuminations)
    freqs = slices.frequencies
    uhats = [nufft1(torus, c, (pz, py, px), eps) for c in slices.coefficients]

    def freq_volume(fi: int) -> np.ndarray:
        khat = freqs[fi] / SPEED_OF_LIGHT
        g3 = cfft_n(_kernel_3d(khat, px, py, pz, vg.dx, vg.dy, dz3), axes=(-3, -2, -1))
        vol = np.zeros(grid.count, dtype=np.complex128)
        for p in range(ill.shape[0]):
            wave = cifft_n(uhats[p][fi] * g3, axes=(-3, -2, -1))
            uhat_plane = cfft_2d(wave[slab_index])
            vol += _stage2_volume(uhat_plane, khat, vg, z0, px, py, ill[p],
                                  include_illumination).ravel()
        return vol

    return _run(slices, grid, freq_volume, times, threads)


# ---------------------------------------------------------------------------
# Dispatch, video rendering, projections
# ---------------------------------------------------------------------------

ALGORITHM_NAMES = ("rsd", "srsd", "nursd1", "nursd2", "nursd3", "rsd3d",
                   "nursd3d", "srsd-nursd2")


def reconstruct(slices: FrequencySlices, grid: VoxelGrid, algorithm: str, *,
                eps: float = 1e-6, padding: str = "exact",
                alpha: float | None = None, beta: float | None = None,
                lattice_pitch: float | None = None, z_pitch: float | None = None,
                scatter: str = "trilinear", times: np.ndarray | None = None,
                threads: int = 1,
                include_illumination: bool = True) -> ReconstructionVolume:
    """Run one reconstruction algorithm selected by name.

    Algorithm-specific options are ignored by algorithms that do not use
    them, except ``alpha`` which ``srsd-nursd2`` requires.
    """
    name = algorithm.replace("_", "-").lower()
    common = dict(times=times, threads=threads,
                  include_illumination=include_illumination)
    if name == "rsd":
        return rsd(slices, grid, padding=padding, **common)
    if name == "srsd":
        return srsd(slices, grid, **common)
    if name == "nursd1":
        return nursd1(slices, grid, eps=eps, **common)
    if name == "nursd2":
        return nursd2(slices, grid, eps=eps, **common)
    if name == "nursd3":
        return nursd3(slices, grid, eps=eps, lattice_pitch=lattice_pitch, **common)
    if name == "rsd3d":
        return rsd3d(slices, grid, scatter=scatter, z_pitch=z_pitch, **common)
    if name == "nursd3d":
        return nursd3d(slices, grid, eps=eps, z_pitch=z_pitch, **common)
    if name == "srsd-nursd2":
        _require(alpha is not None, "srsd-nursd2 needs a scale factor (alpha)")
        return srsd_nursd2(slices, grid, alpha=alpha, beta=beta, eps=eps, **common)
    raise ValidationError(
        f"unknown algorithm {algorithm!r}; choose from {', '.join(ALGORITHM_NAMES)}")


def light_transport_video(slices: FrequencySlices, grid: VoxelGrid,
                          times: np.ndarray, algorithm: str = "rsd",
                          threads: int = 1, include_illumination: bool = True,
                          **options) -> ReconstructionVolume:
    """Render the time-resolved light transport of the virtual wavefront.

    Frame ``t`` carries ``sum_w exp(1j*w*t) * V_w`` over the same
    per-frequency volumes ``V_w`` the static reconstruction sums, so the
    ``t = 0`` frame equals the static result bit for bit.  With
    ``include_illumination=False`` the volumes keep only the detection-side
    propagation and a scatterer voxel lights up when ``t`` equals the
    illumination time of flight to it.
    """
    name = algorithm.replace("_", "-").lower()
    _require(name in ("rsd", "srsd"),
             "time-resolved rendering supports the plane-to-plane propagators "
             "('rsd' and 'srsd')")
    return reconstruct(slices, grid, name, times=np.asarray(times, dtype=np.float64),
                       threads=threads, include_illumination=include_illumination,
                       **options)


def project_max_depth(volume: ReconstructionVolume, frame: int = 0) -> np.ndarray:
    """Maximum-intensity projection of |field| along depth: a [ny, nx] image."""
    return np.abs(volume.as_array3d(frame)).max(axis=0)
