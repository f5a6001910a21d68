"""Domain types, coordinate conventions, and file containers.

Conventions used across the package:

* Units are meters, seconds, and rad/s; the speed of light is exact.
* Array enumeration is row-major with x fastest: 2D fields are ``[ny, nx]``,
  volumes are ``[nz, ny, nx]``, and flattened voxel order is x, then y, then z.
* A histogram bin ``b`` of a transient measurement samples time ``t0 + b*dt``.
* Phase conventions come in a conjugate pair governed by one constant:
  temporal analysis uses ``exp(-1j*w*t)`` and spatial propagation uses
  ``exp(PROPAGATION_SIGN * 1j * (w/c) * r)`` with ``PROPAGATION_SIGN = +1``.
  Flipping the constant conjugates every reconstruction; magnitudes are
  unchanged.
* All types here are immutable after construction (arrays are frozen
  read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Sign of the spatial propagation phase exp(sign * 1j * (w/c) * r).  The
# temporal analysis side is fixed at exp(-1j*w*t); together the pair cancels
# the time-of-flight phase at a true scatterer, which is what makes
# backpropagation focus.  Keep the two coupled: flip only this constant to
# obtain the conjugate convention.
PROPAGATION_SIGN = +1.0


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class ContainerFormatError(Exception):
    """Base class for errors in the binary container format."""


class InvalidMagicError(ContainerFormatError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersionError(ContainerFormatError):
    """File declares a container version this library does not speak."""


class TruncatedPayloadError(ContainerFormatError):
    """File ends before the declared payload is complete."""


class NonFiniteDataError(ContainerFormatError):
    """File payload contains NaN or infinite values."""


class _ForeignKindError(ContainerFormatError):
    """The kind tag belongs to the other container type (or to neither)."""


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous read-only copy of ``a``."""
    out = np.ascontiguousarray(a).copy()
    out.setflags(write=False)
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


# ---------------------------------------------------------------------------
# Grids and point lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformGrid2D:
    """Uniform planar lattice: sample (m, n) sits at (x0 + m*dx, y0 + n*dy, z)."""

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float
    z: float = 0.0

    def __post_init__(self) -> None:
        _require(self.nx >= 1 and self.ny >= 1, "grid counts must be >= 1")
        _require(self.dx > 0 and self.dy > 0, "grid pitches must be > 0")
        for v in (self.dx, self.dy, self.x0, self.y0, self.z):
            _require(math.isfinite(v), "grid parameters must be finite")

    @property
    def count(self) -> int:
        return self.nx * self.ny

    def x_coords(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y_coords(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def center(self) -> tuple[float, float]:
        """Lattice anchor used when padding symmetrically: the (nx//2, ny//2) node."""
        return (self.x0 + (self.nx // 2) * self.dx, self.y0 + (self.ny // 2) * self.dy)


@dataclass(frozen=True)
class UniformGrid3D:
    """Uniform cuboid lattice: voxel (m, n, k) sits at (x0+m*dx, y0+n*dy, z0+k*dz)."""

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    x0: float
    y0: float
    z0: float

    def __post_init__(self) -> None:
        _require(min(self.nx, self.ny, self.nz) >= 1, "grid counts must be >= 1")
        _require(self.dx > 0 and self.dy > 0 and self.dz > 0, "grid pitches must be > 0")
        for v in (self.dx, self.dy, self.dz, self.x0, self.y0, self.z0):
            _require(math.isfinite(v), "grid parameters must be finite")

    @property
    def count(self) -> int:
        return self.nx * self.ny * self.nz

    def z_coords(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.nz)


@dataclass(frozen=True)
class PointList:
    """Ordered list of 2D or 3D points in meters; duplicates are permitted."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        _require(pts.ndim == 2 and pts.shape[1] in (2, 3), "points must be (L, 2) or (L, 3)")
        _require(pts.shape[0] >= 1, "point list must contain at least one point")
        _require(bool(np.isfinite(pts).all()), "point coordinates must be finite")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    def as_3d(self, z: float | None = None) -> np.ndarray:
        """Return (L, 3) coordinates, lifting planar lists onto the plane ``z``."""
        if self.dim == 3:
            return np.asarray(self.points)
        _require(z is not None, "planar point list needs an explicit plane z")
        out = np.empty((self.count, 3))
        out[:, :2] = self.points
        out[:, 2] = z
        return out


def grid_coordinates(g: UniformGrid2D) -> PointList:
    """Enumerate physical grid coordinates row-major, x fastest."""
    xs = g.x_coords()
    ys = g.y_coords()
    xx, yy = np.meshgrid(xs, ys)  # shape [ny, nx]
    return PointList(np.column_stack([xx.ravel(), yy.ravel()]))


# ---------------------------------------------------------------------------
# Relay sampling (tagged union)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformRelay:
    """Detection points on a uniform planar grid."""

    grid: UniformGrid2D

    kind = "uniform"

    @property
    def count(self) -> int:
        return self.grid.count

    @property
    def z(self) -> float:
        return self.grid.z

    def coordinates(self) -> np.ndarray:
        return grid_coordinates(self.grid).as_3d(self.grid.z)


@dataclass(frozen=True)
class NonUniformPlanarRelay:
    """Detection points scattered on a single plane."""

    points: PointList
    z: float

    kind = "nonuniform_planar"

    def __post_init__(self) -> None:
        _require(self.points.dim == 2, "planar relay takes 2D points")
        _require(math.isfinite(self.z), "relay plane z must be finite")

    @property
    def count(self) -> int:
        return self.points.count

    def coordinates(self) -> np.ndarray:
        return self.points.as_3d(self.z)


@dataclass(frozen=True)
class NonPlanarRelay:
    """Detection points scattered in 3D (a curved or tilted relay surface)."""

    points: PointList

    kind = "nonplanar"

    def __post_init__(self) -> None:
        _require(self.points.dim == 3, "non-planar relay takes 3D points")

    @property
    def count(self) -> int:
        return self.points.count

    @property
    def z_extent(self) -> float:
        zs = self.points.points[:, 2]
        return float(zs.max() - zs.min())

    def coordinates(self) -> np.ndarray:
        return np.asarray(self.points.points)


RelaySampling = Union[UniformRelay, NonUniformPlanarRelay, NonPlanarRelay]


def illumination_coordinates(relay: RelaySampling, illuminations: PointList) -> np.ndarray:
    """Return illumination positions as (L, 3), lifting planar lists onto the relay plane."""
    if illuminations.dim == 3:
        return np.asarray(illuminations.points)
    _require(not isinstance(relay, NonPlanarRelay),
             "planar illumination lists need a planar relay to supply their z plane")
    return illuminations.as_3d(relay.z)


# ---------------------------------------------------------------------------
# Measurements and frequency slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransientMeasurement:
    """Time-resolved histograms over (illumination, detection, time-bin)."""

    relay: RelaySampling
    illuminations: PointList
    histograms: np.ndarray  # [n_illum, n_detect, n_bins] real, nonnegative
    delta_t: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        h = np.asarray(self.histograms, dtype=np.float64)
        _require(h.ndim == 3, "histograms must be [n_illum, n_detect, n_bins]")
        _require(self.delta_t > 0, "bin width must be > 0")
        _require(math.isfinite(self.t0), "t0 must be finite")
        _require(h.shape[2] >= 1, "need at least one time bin")
        _require(h.shape[1] == self.relay.count, "detector axis must match relay point count")
        _require(h.shape[0] == self.illuminations.count,
                 "illumination axis must match illumination point count")
        _require(bool(np.isfinite(h).all()), "histograms must be finite")
        _require(bool((h >= 0).all()), "histogram values are photon counts and must be >= 0")
        object.__setattr__(self, "histograms", _freeze(h))

    @property
    def n_illum(self) -> int:
        return int(self.histograms.shape[0])

    @property
    def n_detect(self) -> int:
        return int(self.histograms.shape[1])

    @property
    def n_bins(self) -> int:
        return int(self.histograms.shape[2])


@dataclass(frozen=True)
class FrequencySlices:
    """Complex wavefront coefficients per (illumination, detection, frequency)."""

    frequencies: np.ndarray  # [F] rad/s, strictly increasing
    coefficients: np.ndarray  # [n_illum, n_detect, F] complex
    relay: RelaySampling
    illuminations: PointList

    def __post_init__(self) -> None:
        w = np.asarray(self.frequencies, dtype=np.float64)
        c = np.asarray(self.coefficients, dtype=np.complex128)
        _require(w.ndim == 1 and w.size >= 1, "frequencies must be a nonempty vector")
        _require(bool(np.all(np.diff(w) > 0)), "frequencies must be strictly increasing")
        _require(c.ndim == 3 and c.shape[2] == w.size,
                 "coefficients must be [n_illum, n_detect, n_freq]")
        _require(c.shape[1] == self.relay.count, "detection axis must match relay point count")
        _require(c.shape[0] == self.illuminations.count,
                 "illumination axis must match illumination point count")
        _require(bool(np.isfinite(c).all()), "coefficients must be finite")
        object.__setattr__(self, "frequencies", _freeze(w))
        object.__setattr__(self, "coefficients", _freeze(c))

    @property
    def n_freq(self) -> int:
        return int(self.frequencies.size)

    @property
    def n_illum(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def max_frequency(self) -> float:
        return float(self.frequencies[-1])

    @property
    def shortest_wavelength(self) -> float:
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.max_frequency


# ---------------------------------------------------------------------------
# Voxel grids (tagged union)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuboidGrid:
    """Uniform cuboid voxel grid."""

    grid: UniformGrid3D

    kind = "cuboid"

    @property
    def count(self) -> int:
        return self.grid.count

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.grid.nz, self.grid.ny, self.grid.nx)

    def plane_z(self, k: int) -> float:
        return self.grid.z0 + k * self.grid.dz

    def plane_xy(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid
        return (g.x0 + g.dx * np.arange(g.nx), g.y0 + g.dy * np.arange(g.ny))

    def coordinates(self) -> np.ndarray:
        g = self.grid
        xs, ys = self.plane_xy(0)
        zz, yy, xx = np.meshgrid(g.z_coords(), ys, xs, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


@dataclass(frozen=True)
class FrustumGrid:
    """Depth-scaled voxel grid: plane k keeps the base counts but widens its pitch.

    Plane k lies at ``zs[k]`` with lateral pitch ``(base.dx/alphas[k],
    base.dy/betas[k])``, centered on the base lattice anchor, so the covered
    extent grows as the per-plane scale factors shrink.
    """

    base: UniformGrid2D
    zs: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    kind = "frustum"

    def __post_init__(self) -> None:
        zs = np.asarray(self.zs, dtype=np.float64)
        al = np.asarray(self.alphas, dtype=np.float64)
        be = np.asarray(self.betas, dtype=np.float64)
        _require(zs.ndim == 1 and zs.size >= 1, "need at least one depth plane")
        _require(al.shape == zs.shape and be.shape == zs.shape,
                 "per-plane scale arrays must match the depth plane list")
        _require(bool(np.isfinite(zs).all()), "plane depths must be finite")
        _require(bool((al > 0).all() and (al <= 1).all()), "alpha(z) must lie in (0, 1]")
        _require(bool((be > 0).all() and (be <= 1).all()), "beta(z) must lie in (0, 1]")
        object.__setattr__(self, "zs", _freeze(zs))
        object.__setattr__(self, "alphas", _freeze(al))
        object.__setattr__(self, "betas", _freeze(be))

    @classmethod
    def linear(cls, base: UniformGrid2D, zs: Sequence[float], alpha0: float,
               beta0: float | None = None) -> "FrustumGrid":
        """Scale factors following the linear field-of-view growth law.

        The lateral extent grows as ``x_in + (z - z_in)/alpha0``, so plane k
        gets ``alpha(z) = x_in / (x_in + (z - z_in)/alpha0)`` (and likewise in
        y), equal to 1 at the base plane.
        """
        if beta0 is None:
            beta0 = alpha0
        _require(0 < alpha0 <= 1 and 0 < beta0 <= 1, "scale factors must lie in (0, 1]")
        zs = np.asarray(zs, dtype=np.float64)
        x_in = base.nx * base.dx
        y_in = base.ny * base.dy
        dz = zs - base.z
        _require(bool((dz >= 0).all()), "frustum planes must not precede the base plane")
        alphas = x_in / (x_in + dz / alpha0)
        betas = y_in / (y_in + dz / beta0)
        return cls(base, zs, alphas, betas)

    @property
    def n_planes(self) -> int:
        return int(self.zs.size)

    @property
    def count(self) -> int:
        return self.n_planes * self.base.count

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_planes, self.base.ny, self.base.nx)

    def plane_pitch(self, k: int) -> tuple[float, float]:
        return (self.base.dx / float(self.alphas[k]), self.base.dy / float(self.betas[k]))

    def plane_xy(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Lateral coordinates of plane k, centered on the base lattice anchor."""
        cx, cy = self.base.center()
        px, py = self.plane_pitch(k)
        xs = cx + px * (np.arange(self.base.nx) - self.base.nx // 2)
        ys = cy + py * (np.arange(self.base.ny) - self.base.ny // 2)
        return xs, ys

    def plane_z(self, k: int) -> float:
        return float(self.zs[k])

    def coordinates(self) -> np.ndarray:
        out = np.empty((self.count, 3))
        npl = self.base.count
        for k in range(self.n_planes):
            xs, ys = self.plane_xy(k)
            xx, yy = np.meshgrid(xs, ys)
            out[k * npl:(k + 1) * npl, 0] = xx.ravel()
            out[k * npl:(k + 1) * npl, 1] = yy.ravel()
            out[k * npl:(k + 1) * npl, 2] = self.plane_z(k)
        return out


@dataclass(frozen=True)
class VoxelPlane:
    """One depth plane of explicitly listed lateral voxel positions."""

    z: float
    points: PointList

    def __post_init__(self) -> None:
        _require(self.points.dim == 2, "voxel plane takes 2D lateral points")
        _require(math.isfinite(self.z), "plane depth must be finite")


@dataclass(frozen=True)
class ExplicitVoxels:
    """Arbitrary voxel list, grouped per depth plane."""

    planes: tuple[VoxelPlane, ...]

    kind = "explicit"

    def __post_init__(self) -> None:
        _require(len(self.planes) >= 1, "need at least one voxel plane")
        object.__setattr__(self, "planes", tuple(self.planes))

    @property
    def count(self) -> int:
        return sum(p.points.count for p in self.planes)

    def coordinates(self) -> np.ndarray:
        return np.vstack([p.points.as_3d(p.z) for p in self.planes])


VoxelGrid = Union[CuboidGrid, FrustumGrid, ExplicitVoxels]


@dataclass(frozen=True)
class ReconstructionVolume:
    """Complex field over a voxel grid, optionally time-resolved.

    ``field`` is ``[n_voxels]`` for static output and ``[n_frames, n_voxels]``
    when ``times`` is set; voxel order follows the grid enumeration (x fastest,
    then y, then z / plane groups in order).
    """

    grid: VoxelGrid
    field: np.ndarray
    times: np.ndarray | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.field, dtype=np.complex128)
        if self.times is None:
            _require(f.ndim == 1, "static volume field must be 1D over voxels")
            _require(f.size == self.grid.count, "field length must equal voxel count")
        else:
            t = np.asarray(self.times, dtype=np.float64)
            _require(t.ndim == 1 and t.size >= 1, "time axis must be a nonempty vector")
            _require(f.ndim == 2 and f.shape == (t.size, self.grid.count),
                     "time-resolved field must be [n_frames, n_voxels]")
            object.__setattr__(self, "times", _freeze(t))
        _require(bool(np.isfinite(f).all()), "field must be finite")
        object.__setattr__(self, "field", _freeze(f))

    @property
    def n_frames(self) -> int:
        return 1 if self.times is None else int(self.times.size)

    def frame(self, i: int = 0) -> np.ndarray:
        _require(0 <= i < self.n_frames,
                 f"frame index {i} is out of range for a volume of {self.n_frames} frame(s)")
        return self.field if self.times is None else self.field[i]

    def as_array3d(self, frame: int = 0) -> np.ndarray:
        """Reshape one frame to [nz, ny, nx]; only for cuboid/frustum grids."""
        _require(self.grid.kind in ("cuboid", "frustum"),
                 "explicit voxel lists have no 3D array layout")
        return self.frame(frame).reshape(self.grid.shape)


# ---------------------------------------------------------------------------
# Torus rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusMap:
    """Affine map of a half-open box onto [-pi, pi)^d, with its inverse."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        _require(lo.shape == hi.shape and lo.ndim == 1, "box bounds must be 1D and congruent")
        _require(bool(np.isfinite(lo).all() and np.isfinite(hi).all()),
                 "box bounds must be finite")
        _require(bool((hi > lo).all()), "box must have positive extent on every axis")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))

    def forward(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        return -math.pi + 2.0 * math.pi * (pts - self.lo) / (self.hi - self.lo)

    def inverse(self, tor: np.ndarray) -> np.ndarray:
        tor = np.asarray(tor, dtype=np.float64)
        return self.lo + (tor + math.pi) * (self.hi - self.lo) / (2.0 * math.pi)


def rescale_to_torus(p: PointList, lo: Sequence[float], hi: Sequence[float]
                     ) -> tuple[PointList, TorusMap]:
    """Map points inside the half-open box [lo, hi) onto [-pi, pi)^d.

    The box must contain every point with ``lo <= x < hi`` per axis; a
    zero-extent axis is rejected.  Returns the mapped points and the affine
    map for inversion.
    """
    m = TorusMap(np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64))
    _require(m.lo.size == p.dim, "box dimensionality must match the point list")
    pts = np.asarray(p.points)
    _require(bool((pts >= m.lo).all() and (pts < m.hi).all()),
             "every point must lie inside the half-open box")
    return PointList(m.forward(pts)), m


# ---------------------------------------------------------------------------
# Binary container: transient datasets
# ---------------------------------------------------------------------------

_MAGIC = b"NLS1"
_VERSION = 1
_RELAY_KINDS = {"uniform": 0, "nonuniform_planar": 1, "nonplanar": 2}
_VOLUME_KINDS = {"cuboid": 16, "frustum": 17, "explicit": 18}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise TruncatedPayloadError(
                f"file ends at byte {len(self.data)} but {self.off + n} are needed")
        chunk = self.data[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype).newbyteorder("<")
        raw = self.take(dt.itemsize * count)
        return np.frombuffer(raw, dtype=dt).astype(dt.base.type)

    def end(self) -> None:
        """Fail unless the whole input has been consumed."""
        if self.off != len(self.data):
            raise ContainerFormatError(
                f"{len(self.data) - self.off} unexpected byte(s) follow the payload "
                f"at byte {self.off}")


def _pack_points(pts: np.ndarray) -> bytes:
    return np.ascontiguousarray(pts, dtype="<f8").tobytes()


def _relay_to_bytes(relay: RelaySampling) -> bytes:
    out = [struct.pack("<B", _RELAY_KINDS[relay.kind])]
    if isinstance(relay, UniformRelay):
        g = relay.grid
        out.append(struct.pack("<II", g.nx, g.ny))
        out.append(struct.pack("<5d", g.dx, g.dy, g.x0, g.y0, g.z))
    elif isinstance(relay, NonUniformPlanarRelay):
        out.append(struct.pack("<d", relay.z))
        out.append(struct.pack("<I", relay.points.count))
        out.append(_pack_points(relay.points.points))
    else:
        out.append(struct.pack("<I", relay.points.count))
        out.append(_pack_points(relay.points.points))
    return b"".join(out)


def _relay_from_reader(r: _Reader) -> RelaySampling:
    (kind,) = r.unpack("B")
    if kind == 0:
        nx, ny = r.unpack("II")
        dx, dy, x0, y0, z = r.unpack("5d")
        return UniformRelay(UniformGrid2D(nx, ny, dx, dy, x0, y0, z))
    if kind == 1:
        (z,) = r.unpack("d")
        (count,) = r.unpack("I")
        pts = r.array("f8", count * 2).reshape(count, 2)
        return NonUniformPlanarRelay(PointList(pts), z)
    if kind == 2:
        (count,) = r.unpack("I")
        pts = r.array("f8", count * 3).reshape(count, 3)
        return NonPlanarRelay(PointList(pts))
    raise _ForeignKindError(f"unknown relay kind tag {kind} (is this a volume file?)")


def _relay_to_json(relay: RelaySampling) -> dict:
    if isinstance(relay, UniformRelay):
        g = relay.grid
        return {"kind": "uniform", "nx": g.nx, "ny": g.ny, "dx": g.dx, "dy": g.dy,
                "x0": g.x0, "y0": g.y0, "z": g.z}
    if isinstance(relay, NonUniformPlanarRelay):
        return {"kind": "points_planar", "z": relay.z,
                "points": relay.points.points.tolist()}
    return {"kind": "points_3d", "points": relay.points.points.tolist()}


def write_dataset(m: TransientMeasurement, path: str) -> None:
    """Write a transient measurement container plus a human-readable sidecar.

    The binary file is authoritative; ``<path>.json`` summarises the geometry.
    Output is a pure function of the measurement (no timestamps), so repeated
    writes are byte-identical.
    """
    parts = [
        _MAGIC,
        struct.pack("<I", _VERSION),
        struct.pack("<III", m.n_illum, m.n_detect, m.n_bins),
        struct.pack("<dd", m.delta_t, m.t0),
        _relay_to_bytes(m.relay),
        struct.pack("<BI", m.illuminations.dim, m.illuminations.count),
        _pack_points(m.illuminations.points),
        np.ascontiguousarray(m.histograms, dtype="<f4").tobytes(),
    ]
    with open(path, "wb") as f:
        f.write(b"".join(parts))
    sidecar = {
        "format": "NLS1 transient dataset",
        "version": _VERSION,
        "n_illum": m.n_illum,
        "n_detect": m.n_detect,
        "n_bins": m.n_bins,
        "delta_t": m.delta_t,
        "t0": m.t0,
        "relay": _relay_to_json(m.relay),
        "n_illumination_points": m.illuminations.count,
    }
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


@contextmanager
def _format_errors() -> Iterator[None]:
    """Header values the constructors refuse make a malformed file, not bad input."""
    try:
        yield
    except ValidationError as exc:
        raise ContainerFormatError(str(exc)) from exc


@_format_errors()
def read_dataset(path: str) -> TransientMeasurement:
    """Read a transient measurement container written by :func:`write_dataset`."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic = r.take(4)
    if magic != _MAGIC:
        raise InvalidMagicError(f"expected magic {_MAGIC!r}, found {magic!r}")
    (version,) = r.unpack("I")
    if version != _VERSION:
        raise UnsupportedVersionError(f"container version {version} is not supported")
    n_illum, n_detect, n_bins = r.unpack("III")
    delta_t, t0 = r.unpack("dd")
    relay = _relay_from_reader(r)
    dim, n_ill_pts = r.unpack("BI")
    if dim not in (2, 3):
        raise ContainerFormatError(f"illumination dimensionality {dim} invalid")
    ill = r.array("f8", n_ill_pts * dim).reshape(n_ill_pts, dim)
    hist = r.array("f4", n_illum * n_detect * n_bins).reshape(n_illum, n_detect, n_bins)
    r.end()
    if not np.isfinite(hist).all():
        raise NonFiniteDataError("histogram payload contains non-finite values")
    return TransientMeasurement(relay, PointList(ill), hist.astype(np.float64),
                                delta_t, t0)


# ---------------------------------------------------------------------------
# Binary container: reconstruction volumes
# ---------------------------------------------------------------------------


def _grid_to_bytes(grid: VoxelGrid) -> bytes:
    out = []
    if isinstance(grid, CuboidGrid):
        g = grid.grid
        out.append(struct.pack("<III", g.nx, g.ny, g.nz))
        out.append(struct.pack("<6d", g.dx, g.dy, g.dz, g.x0, g.y0, g.z0))
    elif isinstance(grid, FrustumGrid):
        b = grid.base
        out.append(struct.pack("<III", b.nx, b.ny, grid.n_planes))
        out.append(struct.pack("<5d", b.dx, b.dy, b.x0, b.y0, b.z))
        out.append(np.ascontiguousarray(grid.zs, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(grid.alphas, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(grid.betas, dtype="<f8").tobytes())
    else:
        out.append(struct.pack("<I", len(grid.planes)))
        for p in grid.planes:
            out.append(struct.pack("<dI", p.z, p.points.count))
            out.append(_pack_points(p.points.points))
    return b"".join(out)


def _grid_from_reader(r: _Reader, kind: int) -> VoxelGrid:
    if kind == 16:
        nx, ny, nz = r.unpack("III")
        dx, dy, dz, x0, y0, z0 = r.unpack("6d")
        return CuboidGrid(UniformGrid3D(nx, ny, nz, dx, dy, dz, x0, y0, z0))
    if kind == 17:
        nx, ny, npl = r.unpack("III")
        dx, dy, x0, y0, z = r.unpack("5d")
        zs = r.array("f8", npl)
        al = r.array("f8", npl)
        be = r.array("f8", npl)
        return FrustumGrid(UniformGrid2D(nx, ny, dx, dy, x0, y0, z), zs, al, be)
    if kind == 18:
        (npl,) = r.unpack("I")
        planes = []
        for _ in range(npl):
            z, count = r.unpack("dI")
            pts = r.array("f8", count * 2).reshape(count, 2)
            planes.append(VoxelPlane(z, PointList(pts)))
        return ExplicitVoxels(tuple(planes))
    raise ContainerFormatError(f"unknown voxel grid kind tag {kind}")


def write_volume(v: ReconstructionVolume, path: str) -> None:
    """Write a reconstruction volume in the shared container framing.

    Same magic/version as the dataset container with voxel-grid kind tags in
    place of relay kinds; payload is interleaved complex float32 per frame.
    The header word after the voxel count is 1 for a time-resolved volume
    (even of one frame) and 0 for a static one.
    """
    times = v.times if v.times is not None else np.zeros(1)
    field = v.field if v.times is not None else v.field[None, :]
    parts = [
        _MAGIC,
        struct.pack("<I", _VERSION),
        struct.pack("<III", v.n_frames, v.grid.count, int(v.times is not None)),
        struct.pack("<dd", 0.0, 0.0),
        struct.pack("<B", _VOLUME_KINDS[v.grid.kind]),
        _grid_to_bytes(v.grid),
        np.ascontiguousarray(times, dtype="<f8").tobytes(),
        np.ascontiguousarray(field, dtype="<c8").tobytes(),
    ]
    with open(path, "wb") as f:
        f.write(b"".join(parts))


@_format_errors()
def read_volume(path: str) -> ReconstructionVolume:
    """Read a reconstruction volume written by :func:`write_volume`.

    Earlier writers left the time-axis word 0 for every volume, so a volume
    with word 0 is static if it holds one frame and time-resolved otherwise.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic = r.take(4)
    if magic != _MAGIC:
        raise InvalidMagicError(f"expected magic {_MAGIC!r}, found {magic!r}")
    (version,) = r.unpack("I")
    if version != _VERSION:
        raise UnsupportedVersionError(f"container version {version} is not supported")
    n_frames, n_voxels, timed = r.unpack("III")
    r.unpack("dd")
    (kind,) = r.unpack("B")
    if kind not in _VOLUME_KINDS.values():
        raise _ForeignKindError(
            f"kind tag {kind} is not a volume grid (is this a transient dataset?)")
    if timed not in (0, 1):
        raise ContainerFormatError(f"time-axis word {timed} must be 0 or 1")
    if n_frames == 0:
        raise ContainerFormatError("volume declares 0 frames")
    grid = _grid_from_reader(r, kind)
    if grid.count != n_voxels:
        raise ContainerFormatError("declared voxel count does not match grid geometry")
    times = r.array("f8", n_frames)
    field = r.array("c8", n_frames * n_voxels).reshape(n_frames, n_voxels)
    r.end()
    if not np.isfinite(field).all():
        raise NonFiniteDataError("volume payload contains non-finite values")
    if not timed and n_frames == 1:
        return ReconstructionVolume(grid, field[0].astype(np.complex128))
    return ReconstructionVolume(grid, field.astype(np.complex128), times)


# ---------------------------------------------------------------------------
# PGM image output
# ---------------------------------------------------------------------------


def write_pgm(image: np.ndarray, path: str) -> None:
    """Write a 2D nonnegative image as 8-bit binary PGM, max-normalized."""
    img = np.asarray(image, dtype=np.float64)
    _require(img.ndim == 2, "PGM output takes a 2D image")
    _require(bool(np.isfinite(img).all()), "image must be finite")
    mx = img.max()
    if mx > 0:
        scaled = np.floor(img / mx * 255.0 + 0.5)
    else:
        scaled = np.zeros_like(img)
    data = np.clip(scaled, 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
