"""Volumetric reconstruction by frequency-domain wavefront propagation.

Every algorithm here evaluates the same physical quantity: for each retained
frequency and each illumination point, the relay wavefront is propagated to
the requested voxels through the free-space kernel
``exp(s*1j*(w/c)*r)/r`` (``s = PROPAGATION_SIGN``), multiplied by the
illumination phase ``exp(s*1j*(w/c)*|x_p - x_v|)``, and summed over
illuminations and frequencies in ascending order.  Each algorithm builds the
same propagation from three parts and differs only in the samplers:

* an **encoder** gives each illumination's relay spectrum on a padded
  ``[py, px]`` lattice per depth node and frequency, ``[M, F, py, px]``:
  embedding and FFT, scaled FFT or type-1 NUFFT of a planar relay (one
  node) or of a 3D relay's samples weighted onto depth nodes;
* the **output planes** give each depth's kernel spectra from every node,
  and the voxel positions for the illumination phase;
* a **decoder** ``read(plane, spectrum)`` reads each product at the plane's
  voxels: an inverse FFT computed on the voxels' lattice window only, or a
  batched type-2 NUFFT.

:func:`_propagate` joins them for every algorithm; each of ``threads``
workers takes one contiguous block of frequencies through it.

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
Accumulation order (frequencies ascending, illuminations ascending) is fixed
and identical for the static and time-resolved paths, and a frequency's
arithmetic does not depend on the block it falls in, so results are
bit-reproducible across runs and across ``threads`` settings.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, NamedTuple

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
    ReconstructionVolume,
    UniformRelay,
    ValidationError,
    VoxelGrid,
    _require,
    illumination_coordinates,
)
# cfft_n and cifft_n stay imported unused: the benchmark's layer spans wrap them by name here.
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
# Shared machinery: lattice geometry, kernels, the propagation loop
# ---------------------------------------------------------------------------


_RELAY_NEEDS = {
    UniformRelay: "this algorithm needs detections on a uniform relay grid",
    NonUniformPlanarRelay: "this algorithm needs scattered detections on a single plane",
    NonPlanarRelay: "this algorithm needs detections scattered in 3D",
}


def _relay(slices: FrequencySlices, kind: type):
    _require(isinstance(slices.relay, kind), _RELAY_NEEDS[kind])
    return slices.relay


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


def _check_depths(zs: np.ndarray, z_relay: float) -> None:
    _require(bool((np.asarray(zs) > z_relay).all()),
             "every voxel plane must lie strictly beyond the relay plane")


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


def _embed_relay(slices: FrequencySlices, g, py: int, px: int) -> np.ndarray:
    """Each illumination's uniform relay centred in a ``[F, py, px]`` zero array."""
    coeff = np.swapaxes(slices.coefficients, 1, 2)
    out = np.zeros(coeff.shape[:2] + (py, px), dtype=np.complex128)
    oy = py // 2 - g.ny // 2
    ox = px // 2 - g.nx // 2
    out[..., oy:oy + g.ny, ox:ox + g.nx] = coeff.reshape(coeff.shape[:2] + (g.ny, g.nx))
    return out


def _kernel_2d(khat, lag_x: np.ndarray, lag_y: np.ndarray, dz: float) -> np.ndarray:
    """Kernel on the lag lattice; a vector ``khat`` gives a ``[n, py, px]`` stack.

    The lags are ``(arange(P) - P//2) * pitch`` and ``r`` is even in them, so
    the kernel is evaluated on one quadrant, the lag magnitudes ``0..P//2`` of
    each axis, and mirrored out (an even ``P``'s unmatched ``-P/2`` lag has
    magnitude ``P//2`` too).  The quadrant takes the lags at and below the
    centre, and ``(-j)*pitch`` is exactly ``-(j*pitch)``, so every value is
    bitwise the one the full lattice gives.
    """
    cx, cy = lag_x.size // 2, lag_y.size // 2
    r = np.sqrt(lag_x[cx::-1][None, :] ** 2 + lag_y[cy::-1][:, None] ** 2 + dz * dz)
    quadrant = np.exp(PROPAGATION_SIGN * 1j * np.asarray(khat)[..., None, None] * r) / r
    return (quadrant.take(np.abs(np.arange(lag_y.size) - cy), axis=-2)
            .take(np.abs(np.arange(lag_x.size) - cx), axis=-1))


def _illum_phase(khat, x: np.ndarray, y: np.ndarray, z: float,
                 source: np.ndarray) -> np.ndarray:
    """Illumination phase at voxels ``(x, y, z)``; ``x`` and ``y`` broadcast."""
    r = np.sqrt((x - source[0]) ** 2 + (y - source[1]) ** 2 + (z - source[2]) ** 2)
    return np.exp(PROPAGATION_SIGN * 1j * khat * r)


class _Plane(NamedTuple):
    """One output depth plane of a propagation.

    The kernels span the distances ``dz`` from the source's depth nodes,
    sampled at ``lag_x`` and ``lag_y`` on the padded lattice; ``x`` and
    ``y`` are the plane's voxel positions at depth ``z``, flattened in grid
    order (x fastest).
    ``scale`` is the per-plane ``(alpha, beta)`` of a scaled transform
    applied to the encoded relay, and ``torus`` the NUFFT coordinates of
    explicit voxels.
    """

    z: float
    dz: tuple[float, ...]
    lag_x: np.ndarray
    lag_y: np.ndarray
    x: np.ndarray
    y: np.ndarray
    scale: tuple[float, float] | None = None
    torus: np.ndarray | None = None


def _lattice_planes(vg, px: int, py: int, dx: float, dy: float,
                    z_src: Iterable[float]) -> list[_Plane]:
    """A cuboid's planes, read from a ``[py, px]`` lattice of pitch ``(dx, dy)``."""
    lag_x = (np.arange(px) - px // 2) * dx
    lag_y = (np.arange(py) - py // 2) * dy
    x, y = (a.ravel() for a in np.meshgrid(vg.x0 + vg.dx * np.arange(vg.nx),
                                           vg.y0 + vg.dy * np.arange(vg.ny)))
    return [_Plane(float(z), tuple(float(z) - float(s) for s in z_src), lag_x, lag_y, x, y)
            for z in vg.z_coords()]


def _read_window(ny: int, nx: int, origin=None) -> Callable:
    """Lattice decoder: the inverse FFT on the ``[ny, nx]`` window of centered
    indices from ``origin`` only."""
    oy, ox = origin or (-(ny // 2), -(nx // 2))
    rows, cols = np.arange(oy, oy + ny), np.arange(ox, ox + nx)
    return lambda pl, spec: cifft_2d(spec, rows, cols).reshape(len(spec), -1)


def _read_points(eps: float, px: int, py: int) -> Callable:
    """Decoder of explicit planes: a batched type-2 NUFFT at the voxels."""
    scale = 1.0 / (px * py)
    return lambda pl, spec: nufft2(spec, pl.torus, eps, batch=True) * scale


def _scattered_lattice(vg, rel: np.ndarray):
    """``(nu_x, nu_y, px, py)``: relay points' fractional indices about a
    cuboid's centre node, and the padded size of the cuboid's lattice."""
    cx = vg.x0 + (vg.nx // 2) * vg.dx
    cy = vg.y0 + (vg.ny // 2) * vg.dy
    nu_x = (rel[:, 0] - cx) / vg.dx
    nu_y = (rel[:, 1] - cy) / vg.dy
    px = _pad_size(nu_x, np.arange(vg.nx) - vg.nx // 2, vg.nx)
    py = _pad_size(nu_y, np.arange(vg.ny) - vg.ny // 2, vg.ny)
    return nu_x, nu_y, px, py


def _torus(nu_x: np.ndarray, nu_y: np.ndarray, px: int, py: int) -> np.ndarray:
    """NUFFT coordinates of fractional centered indices on a ``[py, px]`` lattice."""
    return np.column_stack([2.0 * np.pi * nu_x / px, 2.0 * np.pi * nu_y / py])


def _lateral_nufft(nu_x, nu_y, columns: np.ndarray, shape: tuple[int, int],
                   eps: float) -> np.ndarray:
    """Scattered samples' ``[L, B]`` columns at fractional indices ``(nu_x, nu_y)``
    to their ``[B, py, px]`` lattice spectrum: one batched type-1 NUFFT."""
    return nufft1(_torus(nu_x, nu_y, shape[1], shape[0]), columns, shape, eps)


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


def _propagate(slices: FrequencySlices, grid: VoxelGrid, uhats, planes: list[_Plane],
               read: Callable, times: np.ndarray | None, threads: int,
               include_illumination: bool) -> ReconstructionVolume:
    """Propagate encoded relay spectra plane by plane and reduce them.

    ``uhats[p]`` is illumination ``p``'s ``[M, F, py, px]`` relay spectrum
    over ``M`` source depth nodes (the embedded relay, for planes with a
    ``scale``); every plane sums node ``m``'s spectrum times the kernel
    spectra over ``plane.dz[m]`` and ``read(plane, spectrum)`` gives
    ``[F, n]`` values at its voxels.  Each of ``threads`` workers takes one
    contiguous block of frequencies through every plane and illumination
    into its own rows of the terms, which the calling thread then reduces.
    """
    _require(int(threads) >= 1, "threads must be >= 1")
    n_freq = slices.n_freq
    khats = slices.frequencies / SPEED_OF_LIGHT
    ill = illumination_coordinates(slices.relay, slices.illuminations)
    ends = np.cumsum([pl.x.size for pl in planes])
    terms = np.zeros((n_freq, grid.count), dtype=np.complex128)

    def run(block: slice) -> None:
        kh = khats[block]
        for pl, stop in zip(planes, ends):
            ghats = [cfft_2d(_kernel_2d(kh, pl.lag_x, pl.lag_y, dz)) for dz in pl.dz]
            for p, uhat in enumerate(uhats):
                spec = None
                for u, ghat in zip(uhat, ghats):
                    u = u[block] if pl.scale is None else sfft_2d_centered(u[block], *pl.scale)
                    spec = u * ghat if spec is None else np.add(spec, u * ghat, out=spec)
                vals = read(pl, spec)
                del spec  # before the phase product: a worker holds one spectrum at a time
                if include_illumination:
                    # In place: NumPy's SIMD complex product is not bitwise
                    # commutative, and `vals * tmp` may reuse `tmp` as `tmp * vals`.
                    vals *= _illum_phase(kh[:, None], pl.x, pl.y, pl.z, ill[p])
                terms[block, stop - pl.x.size:stop] += vals

    workers = min(int(threads), n_freq)
    blocks = [slice(b[0], b[-1] + 1) for b in np.array_split(np.arange(n_freq), workers)]
    if workers == 1:
        # In this thread: a worker's own malloc arena would keep its temporaries.
        run(blocks[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, blocks))
    return _reduce(slices, grid, terms, times)


def _explicit_planes(grid: ExplicitVoxels, z_src: float, center, pitch, src,
                     n_min, scale=(1.0, 1.0)):
    """``(px, py, planes)`` for explicit voxels read from a centered lattice.

    A voxel at ``x`` sits at the scaled fractional index ``alpha*(x - cx)/dx``
    (likewise in y); ``src`` holds the input's x and y indices on the same
    scaled axes and ``n_min`` its embedded lengths, which size the padding.
    """
    _check_depths(np.asarray([float(plane.z) for plane in grid.planes]), z_src)
    (cx, cy), (dx, dy), (al, be) = center, pitch, scale
    pts = [np.asarray(plane.points.points) for plane in grid.planes]
    nu_x = [al * (q[:, 0] - cx) / dx for q in pts]
    nu_y = [be * (q[:, 1] - cy) / dy for q in pts]
    px = _pad_size(src[0], np.concatenate(nu_x), n_min[0])
    py = _pad_size(src[1], np.concatenate(nu_y), n_min[1])
    lag_x = (np.arange(px) - px // 2) * (dx / al)
    lag_y = (np.arange(py) - py // 2) * (dy / be)
    return px, py, [
        _Plane(float(v.z), (float(v.z) - z_src,), lag_x, lag_y, q[:, 0], q[:, 1],
               torus=_torus(ux, uy, px, py))
        for v, q, ux, uy in zip(grid.planes, pts, nu_x, nu_y)]


# ---------------------------------------------------------------------------
# Lattice readout: rsd, srsd and nursd1
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
    g = _relay(slices, UniformRelay).grid
    vg = grid.grid
    _require(_close(vg.dx, g.dx) and _close(vg.dy, g.dy),
             "output lateral pitch must equal the relay pitch")
    cx, cy = g.center()
    nu0x = _integer_offset(vg.x0 - cx, g.dx, "output grid x origin offset")
    nu0y = _integer_offset(vg.y0 - cy, g.dy, "output grid y origin offset")
    _check_depths(vg.z_coords(), g.z)
    jx = np.arange(g.nx) - g.nx // 2
    jy = np.arange(g.ny) - g.ny // 2
    if padding == "none":
        _require(vg.nx == g.nx and vg.ny == g.ny
                 and nu0x == jx[0] and nu0y == jy[0],
                 "padding='none' requires the output lattice to coincide with "
                 "the relay lattice")
        px, py = g.nx, g.ny
    else:
        px = _pad_size(jx, nu0x + np.arange(vg.nx), g.nx)
        py = _pad_size(jy, nu0y + np.arange(vg.ny), g.ny)

    uhats = [cfft_2d(u)[None] for u in _embed_relay(slices, g, py, px)]
    return _propagate(slices, grid, uhats, _lattice_planes(vg, px, py, g.dx, g.dy, (g.z,)),
                      _read_window(vg.ny, vg.nx, (nu0y, nu0x)),
                      times, threads, include_illumination)


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
    g = _relay(slices, UniformRelay).grid
    b = grid.base
    _require(b.nx == g.nx and b.ny == g.ny
             and _close(b.dx, g.dx) and _close(b.dy, g.dy)
             and _close(b.x0, g.x0) and _close(b.y0, g.y0),
             "the frustum base must coincide with the relay lattice")
    _check_depths(grid.zs, g.z)
    px = next_fast_len(2 * g.nx)
    py = next_fast_len(2 * g.ny)
    planes = [_Plane(float(z), (float(z) - g.z,), (np.arange(px) - px // 2) * (g.dx / al),
                     (np.arange(py) - py // 2) * (g.dy / be),
                     *(a.ravel() for a in np.meshgrid(*grid.plane_xy(k))),
                     scale=(float(al), float(be)))
              for k, (z, al, be) in enumerate(zip(grid.zs, grid.alphas, grid.betas))]
    return _propagate(slices, grid, _embed_relay(slices, g, py, px)[:, None], planes,
                      _read_window(g.ny, g.nx), times, threads, include_illumination)


def nursd1(slices: FrequencySlices, grid: CuboidGrid, eps: float = 1e-6,
           times: np.ndarray | None = None, threads: int = 1,
           include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from scattered planar detections onto a cuboid lattice.

    The relay samples are moved onto the output lattice's frequency grid by
    one type-1 NUFFT per illumination, batched over frequencies; each depth
    plane is then an ordinary kernel convolution: :func:`_from_surface` with
    one depth node.  Detections lying exactly on lattice nodes are handled
    exactly, so a gridded relay reproduces :func:`rsd`.
    """
    _require(isinstance(grid, CuboidGrid), "nursd1 reconstructs onto a cuboid grid")
    return _from_surface(slices, grid, eps, NonUniformPlanarRelay, _lateral_nufft,
                         times, threads, include_illumination)


# ---------------------------------------------------------------------------
# Explicit voxels: nursd2, nursd3 and srsd-nursd2
# ---------------------------------------------------------------------------


def _uniform_to_explicit(slices: FrequencySlices, grid: ExplicitVoxels,
                         scale: tuple[float, float] | None, eps: float,
                         times: np.ndarray | None, threads: int,
                         include_illumination: bool) -> ReconstructionVolume:
    """Uniform relay read at explicit voxels; ``scale`` selects the scaled FFT."""
    g = _relay(slices, UniformRelay).grid
    al, be = scale or (1.0, 1.0)
    jx = np.array([-(g.nx // 2), g.nx - g.nx // 2 - 1])
    jy = np.array([-(g.ny // 2), g.ny - g.ny // 2 - 1])
    px, py, planes = _explicit_planes(grid, g.z, g.center(), (g.dx, g.dy),
                                      (al * jx, be * jy), (g.nx, g.ny), (al, be))
    uhats = [(cfft_2d(u) if scale is None else sfft_2d_centered(u, al, be))[None]
             for u in _embed_relay(slices, g, py, px)]
    return _propagate(slices, grid, uhats, planes, _read_points(eps, px, py), times, threads,
                      include_illumination)


def nursd2(slices: FrequencySlices, grid: ExplicitVoxels, eps: float = 1e-6,
           times: np.ndarray | None = None, threads: int = 1,
           include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from a uniform relay onto arbitrarily placed voxels.

    Each depth plane's spectrum (relay spectrum times kernel spectrum) is
    evaluated at the voxels' fractional lattice positions by a type-2 NUFFT.
    Voxels on lattice nodes reproduce the :func:`rsd` values exactly.
    """
    _require(isinstance(grid, ExplicitVoxels), "nursd2 reconstructs onto explicit voxels")
    return _uniform_to_explicit(slices, grid, None, eps, times, threads, include_illumination)


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
    relay = _relay(slices, NonUniformPlanarRelay)
    pitch = (float(lattice_pitch) if lattice_pitch is not None
             else slices.shortest_wavelength / 2.0)
    _require(math.isfinite(pitch) and pitch > 0, "lattice pitch must be finite and > 0")
    rel = np.asarray(relay.points.points)
    both = np.vstack([rel] + [np.asarray(p.points.points) for p in grid.planes])
    center = (both.min(axis=0) + both.max(axis=0)) / 2.0
    anchor = rel[0] + np.round((center - rel[0]) / pitch) * pitch
    cx, cy = float(anchor[0]), float(anchor[1])
    nu_x = (rel[:, 0] - cx) / pitch
    nu_y = (rel[:, 1] - cy) / pitch
    px, py, planes = _explicit_planes(grid, relay.z, (cx, cy), (pitch, pitch),
                                      (nu_x, nu_y), (1, 1))
    uhats = [_lateral_nufft(nu_x, nu_y, c, (py, px), eps)[None] for c in slices.coefficients]
    return _propagate(slices, grid, uhats, planes, _read_points(eps, px, py), times, threads,
                      include_illumination)


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
    return _uniform_to_explicit(slices, grid, (alpha, beta), eps, times, threads,
                                include_illumination)


# ---------------------------------------------------------------------------
# 3D relay surfaces: depth nodes
# ---------------------------------------------------------------------------


_DEPTH_RATE = 0.125


def _depth_sweep(rel: np.ndarray, vg, k_max: float) -> float:
    """``k_max * extent * (1 - cos(theta_max)) / 2``: the phase the demodulated
    kernel (see :func:`_from_surface`) sweeps at most over half the relay's
    depth extent, ``theta_max`` pairing the widest lateral lag between a
    detection and a voxel column with the nearest plane; 0 on a flat relay."""
    z_lo, z_hi = float(rel[:, 2].min()), float(rel[:, 2].max())
    reach = [max(v.max() - r.min(), r.max() - v.min())
             for v, r in ((vg.x0 + vg.dx * np.arange(vg.nx), rel[:, 0]),
                          (vg.y0 + vg.dy * np.arange(vg.ny), rel[:, 1]))]
    d_min = float(vg.z_coords().min()) - z_hi
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


def _from_surface(slices: FrequencySlices, grid: CuboidGrid, eps: float, kind: type,
                  lateral_spectrum: Callable, times: np.ndarray | None, threads: int,
                  include_illumination: bool) -> ReconstructionVolume:
    """Propagation from a relay surface of ``kind`` through planar kernels at depth nodes.

    With ``s = PROPAGATION_SIGN``, ``g = exp(s*1j*k*r)/r`` is ``exp(s*1j*k*d)``
    times a factor ``h`` that varies slowly with the depth distance ``d``.
    Interpolating ``h`` at Chebyshev nodes ``z_m`` over the relay's depths,
    ``g(z_k - z_l) ~= sum_m L_m(z_l) * exp(s*1j*k*(z_m - z_l)) * g(z_k - z_m)``
    for a detection at ``z_l``: each node is a planar source of samples so
    weighted; a flat relay takes one node, at its plane, of weight exactly 1.
    ``lateral_spectrum(nu_x, nu_y, columns, (py, px), eps)`` turns the
    ``[L, M*F]`` columns into their ``[M*F, py, px]`` lattice spectrum.
    """
    rel = _relay(slices, kind).coordinates()
    vg, z = grid.grid, rel[:, 2]
    _require(bool((vg.z_coords() > z.max()).all()), "every voxel plane must lie beyond "
             f"the relay's deepest detection (z > {z.max():.6g})")
    nu_x, nu_y, px, py = _scattered_lattice(vg, rel)
    khats = slices.frequencies / SPEED_OF_LIGHT
    m = _depth_node_count(eps, _depth_sweep(rel, vg, float(khats.max())))
    nodes, basis = _depth_nodes(z, m)
    weights = basis[:, :, None] * np.exp(
        PROPAGATION_SIGN * 1j * khats * (nodes[None, :, None] - z[:, None, None]))
    uhats = [lateral_spectrum(nu_x, nu_y, (c[:, None, :] * weights).reshape(z.size, -1),
                              (py, px), eps).reshape(m, slices.n_freq, py, px)
             for c in slices.coefficients]
    planes = _lattice_planes(vg, px, py, vg.dx, vg.dy, nodes)
    return _propagate(slices, grid, uhats, planes, _read_window(vg.ny, vg.nx),
                      times, threads, include_illumination)


def rsd3d(slices: FrequencySlices, grid: CuboidGrid, scatter: str = "trilinear",
          eps: float = 1e-6, times: np.ndarray | None = None,
          threads: int = 1, include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from a 3D relay surface via lateral gridding at depth nodes.

    The relay samples, weighted onto depth nodes as in :func:`_from_surface`,
    are deposited on the cuboid's padded lateral lattice, at the nearest node
    or bilinearly for ``scatter="trilinear"`` (duplicate targets sum), and
    Fourier transformed.  ``eps`` sets only the depth node count: the
    lateral error comes from the gridding (about 1e-2 off the nodes).
    """
    _require(isinstance(grid, CuboidGrid), "rsd3d reconstructs onto a cuboid grid")
    _require(scatter in ("nearest", "trilinear"), "scatter must be 'nearest' or 'trilinear'")

    def gridded(nu_x, nu_y, columns, shape, _eps):
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

    return _from_surface(slices, grid, eps, NonPlanarRelay, gridded, times, threads,
                         include_illumination)


def nursd3d(slices: FrequencySlices, grid: CuboidGrid, eps: float = 1e-6,
            times: np.ndarray | None = None, threads: int = 1,
            include_illumination: bool = True) -> ReconstructionVolume:
    """Propagation from a 3D relay surface via a lateral type-1 NUFFT at depth nodes.

    The relay samples, weighted onto depth nodes as in :func:`_from_surface`,
    go through one batched 2D type-1 NUFFT per illumination.  A flat relay
    takes one node of weight 1, which makes this :func:`nursd1`.
    """
    _require(isinstance(grid, CuboidGrid), "nursd3d reconstructs onto a cuboid grid")
    return _from_surface(slices, grid, eps, NonPlanarRelay, _lateral_nufft, times, threads,
                         include_illumination)


# ---------------------------------------------------------------------------
# Dispatch, video rendering, projections
# ---------------------------------------------------------------------------

ALGORITHM_NAMES = ("rsd", "srsd", "nursd1", "nursd2", "nursd3", "rsd3d",
                   "nursd3d", "srsd-nursd2")


def reconstruct(slices: FrequencySlices, grid: VoxelGrid, algorithm: str, *,
                eps: float = 1e-6, padding: str = "exact",
                alpha: float | None = None, beta: float | None = None,
                lattice_pitch: float | None = None,
                scatter: str = "trilinear", times: np.ndarray | None = None,
                threads: int = 1,
                include_illumination: bool = True) -> ReconstructionVolume:
    """Run one reconstruction algorithm selected by name.

    Algorithm-specific options are ignored by algorithms that do not use
    them, except ``alpha`` which ``srsd-nursd2`` requires.
    """
    name = algorithm.replace("_", "-").lower()
    common = dict(times=times, threads=threads, include_illumination=include_illumination)
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
        return rsd3d(slices, grid, scatter=scatter, eps=eps, **common)
    if name == "nursd3d":
        return nursd3d(slices, grid, eps=eps, **common)
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
    return reconstruct(slices, grid, algorithm, times=np.asarray(times, dtype=np.float64),
                       threads=threads, include_illumination=include_illumination,
                       **options)


def project_max_depth(volume: ReconstructionVolume, frame: int = 0) -> np.ndarray:
    """Maximum-intensity projection of |field| along depth: a [ny, nx] image."""
    return np.abs(volume.as_array3d(frame)).max(axis=0)
