"""Domain types, coordinate conventions, and file containers.

Conventions used across the package:

* Units are meters, seconds, and rad/s; the speed of light is exact.
* Array enumeration is row-major with x fastest: 2D fields are ``[ny, nx]``,
  volumes are ``[nz, ny, nx]``, and flattened voxel order is x, then y, then z:
  each voxel grid's ``depth_planes()`` lists it.
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
import operator
import os
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
    """The kind tag belongs to the other container family."""


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a C-contiguous read-only array that nothing else can write.

    An ndarray that owns its data, is C-contiguous and is already read-only
    is adopted as it is: making it read-only is its owner's promise not to
    write it again.  Anything else, a writable array or a view of one even if
    the view is read-only, is copied.
    """
    if (isinstance(a, np.ndarray) and a.flags.owndata and a.flags.c_contiguous
            and not a.flags.writeable):
        return a
    out = np.ascontiguousarray(a).copy()
    out.setflags(write=False)
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _index(value, name: str) -> int:
    """``value`` as :func:`operator.index` reads it; anything it refuses is a
    ``ValidationError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer") from None


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


def _require_illumination_plane(relay: RelaySampling, illuminations: PointList) -> None:
    """Refuse a planar illumination list on a relay that has no plane to lift it onto."""
    _require(illuminations.dim == 3 or not isinstance(relay, NonPlanarRelay),
             "planar illumination lists need a planar relay to supply their z plane")


def illumination_coordinates(relay: RelaySampling, illuminations: PointList) -> np.ndarray:
    """Return illumination positions as (L, 3), lifting planar lists onto the relay plane."""
    _require_illumination_plane(relay, illuminations)
    if illuminations.dim == 3:
        return np.asarray(illuminations.points)
    return illuminations.as_3d(relay.z)


# ---------------------------------------------------------------------------
# Measurements and frequency slices
# ---------------------------------------------------------------------------


def _require_capture(relay: RelaySampling, illuminations: PointList, shape: tuple[int, ...],
                     delta_t: float, t0: float) -> None:
    """Refuse histograms of ``shape`` that the relay, the illuminations or the time axis
    do not fit."""
    _require(len(shape) == 3, "histograms must be [n_illum, n_detect, n_bins]")
    _require(delta_t > 0, "bin width must be > 0")
    _require(math.isfinite(t0), "t0 must be finite")
    _require(shape[2] >= 1, "need at least one time bin")
    _require_capture_axes(relay, illuminations, shape)


def _require_capture_axes(relay: RelaySampling, illuminations: PointList, shape) -> None:
    """Refuse an ``[n_illum, n_detect, ...]`` shape the relay or illuminations do not fit."""
    _require(shape[1] == relay.count, "detector axis must match relay point count")
    _require(shape[0] == illuminations.count,
             "illumination axis must match illumination point count")
    _require_illumination_plane(relay, illuminations)


# Values converted or projected per block: a block of histograms stays a
# few MB.  The file's bytes pass through a smaller buffer.
_READ_BLOCK = 1 << 18
_RAW_PIECE = _READ_BLOCK // 8


def _block_rows(n_bins: int, group: int) -> int:
    """Histograms per block: about ``_READ_BLOCK`` values, in whole groups of ``group``."""
    return max(1, _READ_BLOCK // n_bins // group) * group


_NEGATIVE_COUNTS = "histogram values are photon counts and must be >= 0"


def _require_photon_counts(h: np.ndarray) -> None:
    """Refuse non-finite or negative histogram values."""
    # Reductions, not full-size masks: NaN propagates through min and max.
    lo, hi = float(h.min()), float(h.max())
    _require(math.isfinite(lo) and math.isfinite(hi), "histograms must be finite")
    _require(lo >= 0, _NEGATIVE_COUNTS)


@dataclass(frozen=True)
class TransientMeasurement:
    """Time-resolved histograms over (illumination, detection, time-bin).

    ``histograms`` is held as a read-only float64 array.  A float64 array
    that owns its data, is C-contiguous and is read-only is adopted without
    a copy (as :func:`read_dataset` hands over its payload); any other input
    is copied, so later writes to the caller's array do not reach it.
    """

    relay: RelaySampling
    illuminations: PointList
    histograms: np.ndarray  # [n_illum, n_detect, n_bins] real, nonnegative
    delta_t: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        h = np.asarray(self.histograms, dtype=np.float64)
        _require_capture(self.relay, self.illuminations, h.shape, self.delta_t, self.t0)
        _require_photon_counts(h)
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

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.histograms.shape

    def histogram_rows(self, group: int = 1) -> Iterator[np.ndarray]:
        """The histograms as read-only ``[rows, n_bins]`` views, blocked as
        :meth:`DatasetFile.histogram_rows` reads them: each block but the
        last holds a whole number of ``group`` histograms."""
        rows = self.histograms.reshape(-1, self.n_bins)
        step = _block_rows(self.n_bins, group)
        return (rows[i:i + step] for i in range(0, len(rows), step))


@dataclass(frozen=True)
class FrequencySlices:
    """Complex wavefront coefficients per (illumination, detection, frequency).

    Read-only complex128 coefficients that own their data are adopted
    without a copy (as :func:`phasor.to_frequency` hands them over).
    """

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
        _require_capture_axes(self.relay, self.illuminations, c.shape)
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

DepthPlane = tuple[float, np.ndarray, np.ndarray]  # z, and read-only lateral x and y


class _VoxelOrder:
    """The voxel order every grid kind shares: the planes its
    ``depth_planes()`` lists, in order, each plane's voxels x fastest."""

    def coordinates(self) -> np.ndarray:
        """``[count, 3]`` voxel positions in the grid's voxel order."""
        return np.vstack([np.column_stack([x, y, np.full(x.size, z)])
                          for z, x, y in self.depth_planes()])


@dataclass(frozen=True)
class CuboidGrid(_VoxelOrder):
    """Uniform cuboid voxel grid."""

    grid: UniformGrid3D

    kind = "cuboid"

    @property
    def count(self) -> int:
        return self.grid.count

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.grid.nz, self.grid.ny, self.grid.nx)

    def depth_planes(self) -> list[DepthPlane]:
        g = self.grid
        x, y = (_freeze(a.ravel()) for a in np.meshgrid(g.x0 + g.dx * np.arange(g.nx),
                                                        g.y0 + g.dy * np.arange(g.ny)))
        return [(float(z), x, y) for z in g.z_coords()]


@dataclass(frozen=True)
class FrustumGrid(_VoxelOrder):
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

    def depth_planes(self) -> list[DepthPlane]:
        return [(float(z), *(_freeze(a.ravel()) for a in np.meshgrid(*self.plane_xy(k))))
                for k, z in enumerate(self.zs)]


@dataclass(frozen=True)
class VoxelPlane:
    """One depth plane of explicitly listed lateral voxel positions."""

    z: float
    points: PointList

    def __post_init__(self) -> None:
        _require(self.points.dim == 2, "voxel plane takes 2D lateral points")
        _require(math.isfinite(self.z), "plane depth must be finite")


@dataclass(frozen=True)
class ExplicitVoxels(_VoxelOrder):
    """Arbitrary voxel list, grouped per depth plane."""

    planes: tuple[VoxelPlane, ...]

    kind = "explicit"

    def __post_init__(self) -> None:
        _require(len(self.planes) >= 1, "need at least one voxel plane")
        object.__setattr__(self, "planes", tuple(self.planes))

    @property
    def count(self) -> int:
        return sum(p.points.count for p in self.planes)

    def depth_planes(self) -> list[DepthPlane]:
        return [(float(p.z), *p.points.points.T) for p in self.planes]


VoxelGrid = Union[CuboidGrid, FrustumGrid, ExplicitVoxels]


@dataclass(frozen=True)
class ReconstructionVolume:
    """Complex field over a voxel grid, optionally time-resolved.

    ``field`` is ``[n_voxels]`` for static output and ``[n_frames, n_voxels]``
    when ``times`` is set; voxel order follows the grid enumeration (x fastest,
    then y, then z / plane groups in order).  A read-only complex128 field
    that owns its data is adopted without a copy (as :func:`read_volume`
    hands it over); any other field is copied.
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
            _require(bool(np.isfinite(t).all()), "frame times must be finite")
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
# Binary container: the shared framing, and transient datasets
# ---------------------------------------------------------------------------

_MAGIC = b"NLS1"
_VERSION = 1
_RELAY_KINDS = {"uniform": 0, "nonuniform_planar": 1, "nonplanar": 2}
_VOLUME_KINDS = {"cuboid": 16, "frustum": 17, "explicit": 18}
# What a file of each kind tag holds, for the error of a reader of the other family.
_HOLDS = {**{tag: f"a transient dataset on a {k} relay" for k, tag in _RELAY_KINDS.items()},
          **{tag: f"a volume on a {k} grid" for k, tag in _VOLUME_KINDS.items()}}


class _Reader:
    """Reads a container from an open file, front to back.

    Every length is checked against the file's size before it is read or
    allocated, so a header that declares more data than the file holds
    fails at once.
    """

    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0

    def _claim(self, n: int) -> None:
        if self.off + n > self.size:
            raise TruncatedPayloadError(
                f"file ends at byte {self.size} but {self.off + n} are needed")
        self.off += n

    def _short_read(self, got: int, n: int) -> None:
        if got != n:
            raise TruncatedPayloadError("file shrank while it was being read")

    def take(self, n: int) -> bytes:
        self._claim(n)
        chunk = self.f.read(n)
        self._short_read(len(chunk), n)
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def claim(self, dtype: str, count: int) -> np.dtype:
        """Claim ``count`` little-endian ``dtype`` values; return their dtype."""
        dt = np.dtype(dtype).newbyteorder("<")
        self._claim(dt.itemsize * count)
        return dt

    def blocks(self, dt: np.dtype, count: int, out: np.ndarray, block: int,
               what: str) -> Iterator[np.ndarray]:
        """Read ``count`` claimed ``dt`` values ``block`` at a time, refusing
        non-finite ones, and convert each block into the flat 64-bit array
        ``out``; yield each converted block.

        ``out`` holds all ``count`` values, or it is one block's buffer that
        each block overwrites.  The file's bytes pass through a buffer of at
        most ``_RAW_PIECE`` values, converted piece by piece, so a converted
        block is never held beside all of its raw bytes.
        """
        piece = min(block, count, _RAW_PIECE)
        raw = np.empty(dt.itemsize * piece, np.uint8)
        for i in range(0, count, block):
            converted = out[i % out.size:][:min(block, count - i)]
            for j in range(0, converted.size, piece):
                n = dt.itemsize * min(piece, converted.size - j)
                self._short_read(self.f.readinto(raw[:n]), n)
                values = raw[:n].view(dt)
                if not np.isfinite(values).all():
                    raise NonFiniteDataError(f"{what} payload contains non-finite values")
                converted[j:j + values.size] = values
            yield converted

    def array(self, dt: np.dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Read ``shape`` claimed ``dt`` values block by block into one
        read-only array of that shape and 64-bit components, refusing
        non-finite values."""
        out = np.empty(shape, np.result_type(dt, np.float64))
        for _ in self.blocks(dt, out.size, out.reshape(-1), _READ_BLOCK, what):
            pass
        out.setflags(write=False)
        return out

    def payload(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """Claim ``shape`` little-endian ``dtype`` values and read them as :meth:`array`."""
        return self.array(self.claim(dtype, math.prod(shape)), shape, what)

    def end(self) -> None:
        """Fail unless the whole input has been consumed."""
        if self.off != self.size:
            raise ContainerFormatError(
                f"{self.size - self.off} unexpected byte(s) follow the payload "
                f"at byte {self.off}")


def _le_buffer(a: np.ndarray, dtype: str) -> memoryview:
    """``a`` as contiguous little-endian ``dtype``, for writing from its own buffer."""
    return memoryview(np.ascontiguousarray(a, dtype=dtype))


def _write_container(path: str, counts: tuple[int, int, int], scalars: tuple[float, float],
                     kind: int, parts: list) -> None:
    """Write the framing (magic, version, 3 counts, 2 scalars, kind byte), then ``parts``."""
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI3I2dB", _MAGIC, _VERSION, *counts, *scalars, kind))
        for part in parts:
            f.write(part)


def _open_container(f, kinds: dict[str, int], what: str):
    """Read the framing from the open file ``f``; return the reader at the body,
    the counts, the scalars and the kind.

    A kind tag outside ``kinds`` fails, naming what the file holds if it is a known tag.
    """
    r = _Reader(f)
    magic = r.take(4)
    if magic != _MAGIC:
        raise InvalidMagicError(f"expected magic {_MAGIC!r}, found {magic!r}")
    (version,) = r.unpack("I")
    if version != _VERSION:
        raise UnsupportedVersionError(f"container version {version} is not supported")
    *counts, s0, s1, kind = r.unpack("3I2dB")
    if kind not in kinds.values():
        if kind in _HOLDS:
            raise _ForeignKindError(f"expected {what}, but the file holds {_HOLDS[kind]}")
        raise ContainerFormatError(f"unknown container kind tag {kind}")
    return r, counts, (s0, s1), kind


@contextmanager
def _format_errors() -> Iterator[None]:
    """Header values the constructors refuse make a malformed file, not bad input."""
    try:
        yield
    except ValidationError as exc:
        raise ContainerFormatError(str(exc)) from exc


def _relay_parts(relay: RelaySampling) -> list:
    if isinstance(relay, UniformRelay):
        g = relay.grid
        return [struct.pack("<2I5d", g.nx, g.ny, g.dx, g.dy, g.x0, g.y0, g.z)]
    pts = relay.points
    if isinstance(relay, NonUniformPlanarRelay):
        return [struct.pack("<dI", relay.z, pts.count), _le_buffer(pts.points, "<f8")]
    return [struct.pack("<I", pts.count), _le_buffer(pts.points, "<f8")]


def _relay_from_reader(r: _Reader, kind: int) -> RelaySampling:
    if kind == _RELAY_KINDS["uniform"]:
        return UniformRelay(UniformGrid2D(*r.unpack("2I5d")))
    if kind == _RELAY_KINDS["nonuniform_planar"]:
        z, count = r.unpack("dI")
        return NonUniformPlanarRelay(PointList(r.payload("f8", (count, 2), "relay point")), z)
    (count,) = r.unpack("I")  # the last relay kind, "nonplanar"
    return NonPlanarRelay(PointList(r.payload("f8", (count, 3), "relay point")))


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
    ill = m.illuminations
    _write_container(path, (m.n_illum, m.n_detect, m.n_bins), (m.delta_t, m.t0),
                     _RELAY_KINDS[m.relay.kind], [
                         *_relay_parts(m.relay),
                         struct.pack("<BI", ill.dim, ill.count),
                         _le_buffer(ill.points, "<f8"),
                         _le_buffer(m.histograms, "<f4"),
                     ])
    sidecar = {
        "format": "NLS1 transient dataset",
        "version": _VERSION,
        "n_illum": m.n_illum,
        "n_detect": m.n_detect,
        "n_bins": m.n_bins,
        "delta_t": m.delta_t,
        "t0": m.t0,
        "relay": _relay_to_json(m.relay),
        "n_illumination_points": ill.count,
    }
    with open(path + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


class DatasetFile:
    """A transient dataset file read up to its histograms.

    The file's size has been checked against the histograms it declares,
    and the header, relay and illuminations have passed the checks a
    :class:`TransientMeasurement` makes of them, so a truncated or padded
    file, or one whose counts disagree with its relay, fails before any
    histogram is read.  It offers what :func:`phasor.to_frequency` takes of
    a :class:`TransientMeasurement`.  The histograms are read once, whole by
    :meth:`histograms` or in blocks by :meth:`histogram_rows`, inside the
    ``with`` block of :func:`open_dataset`; another read raises
    :class:`ValidationError`.
    """

    def __init__(self, f):
        with _format_errors():
            r, shape, (delta_t, t0), kind = _open_container(f, _RELAY_KINDS,
                                                            "a transient dataset")
            relay = _relay_from_reader(r, kind)
            dim, n_ill_pts = r.unpack("BI")
            if dim not in (2, 3):
                raise ContainerFormatError(f"illumination dimensionality {dim} invalid")
            ill = PointList(r.payload("f8", (n_ill_pts, dim), "illumination point"))
            self._dt = r.claim("f4", math.prod(shape))
            r.end()
            _require_capture(relay, ill, shape, delta_t, t0)
        self._reader, self._read = r, False
        self.relay, self.illuminations, self.delta_t, self.t0 = relay, ill, delta_t, t0
        self.shape = tuple(shape)

    def _start_read(self) -> None:
        _require(not self._reader.f.closed,
                 "the dataset file is closed: read its histograms inside the with block")
        _require(not self._read, "the dataset's histograms were already read: "
                                 "an open dataset file reads them once")
        self._read = True

    def histograms(self) -> np.ndarray:
        """All histograms as one read-only float64 array."""
        self._start_read()
        return self._reader.array(self._dt, self.shape, "histogram")

    def histogram_rows(self, group: int = 1) -> Iterator[np.ndarray]:
        """The histograms as float64 ``[rows, n_bins]`` blocks of about
        ``_READ_BLOCK`` values in whole groups of ``group`` histograms (the
        last block may be shorter), one histogram per (illumination,
        detector) in file order, each refused if it holds a non-finite or
        negative value.

        The blocks share one buffer: each is overwritten by the next.
        """
        self._start_read()
        count, n_bins = math.prod(self.shape), self.shape[2]
        block = _block_rows(n_bins, group) * n_bins
        with _format_errors():
            out = np.empty(min(block, count))
            for values in self._reader.blocks(self._dt, count, out, block, "histogram"):
                h = values.reshape(-1, n_bins)
                # `blocks` has refused every non-finite value already.
                _require(float(h.min()) >= 0, _NEGATIVE_COUNTS)
                yield h


@contextmanager
def open_dataset(path: str) -> Iterator[DatasetFile]:
    """Open a transient dataset container and read it up to its histograms.

    A malformed file raises :class:`ContainerFormatError` here or while its
    histograms are read, as in :func:`read_dataset`.
    """
    with open(path, "rb") as f:
        yield DatasetFile(f)


# The histograms are the one large part of a capture.  The reader converts
# them block by block into one read-only float64 array of their final shape,
# which TransientMeasurement adopts, so a capture is held once in memory: the
# file's bytes are never all in memory, and no float32 or second float64
# copy is made.  phasor.to_frequency of the open DatasetFile projects the
# same blocks as they are read and never holds the float64 array at all.
@_format_errors()
def read_dataset(path: str) -> TransientMeasurement:
    """Read a transient measurement container written by :func:`write_dataset`."""
    with open_dataset(path) as d:
        hist = d.histograms()
    return TransientMeasurement(d.relay, d.illuminations, hist, d.delta_t, d.t0)


# ---------------------------------------------------------------------------
# Binary container: reconstruction volumes
# ---------------------------------------------------------------------------


def _grid_parts(grid: VoxelGrid) -> list:
    if isinstance(grid, CuboidGrid):
        g = grid.grid
        return [struct.pack("<3I6d", g.nx, g.ny, g.nz, g.dx, g.dy, g.dz, g.x0, g.y0, g.z0)]
    if isinstance(grid, FrustumGrid):
        b = grid.base
        return [struct.pack("<3I5d", b.nx, b.ny, grid.n_planes, b.dx, b.dy, b.x0, b.y0, b.z),
                *(_le_buffer(a, "<f8") for a in (grid.zs, grid.alphas, grid.betas))]
    out = [struct.pack("<I", len(grid.planes))]
    for p in grid.planes:
        out += [struct.pack("<dI", p.z, p.points.count), _le_buffer(p.points.points, "<f8")]
    return out


def _grid_from_reader(r: _Reader, kind: int) -> VoxelGrid:
    if kind == _VOLUME_KINDS["cuboid"]:
        return CuboidGrid(UniformGrid3D(*r.unpack("3I6d")))
    if kind == _VOLUME_KINDS["frustum"]:
        nx, ny, npl, *geometry = r.unpack("3I5d")
        zs, al, be = (r.payload("f8", (npl,), what) for what in ("plane depth", "alpha", "beta"))
        return FrustumGrid(UniformGrid2D(nx, ny, *geometry), zs, al, be)
    (npl,) = r.unpack("I")  # the last grid kind, "explicit"
    planes = []
    for _ in range(npl):
        z, count = r.unpack("dI")
        planes.append(VoxelPlane(z, PointList(r.payload("f8", (count, 2), "voxel point"))))
    return ExplicitVoxels(tuple(planes))


def write_volume(v: ReconstructionVolume, path: str) -> None:
    """Write a reconstruction volume in the shared container framing.

    The counts are the frame count, the voxel count and the time-axis word:
    1 for a time-resolved volume (even of one frame) and 0 for a static one.
    Both scalars are 0.  The payload is interleaved complex float32 per frame.
    """
    times = v.times if v.times is not None else np.zeros(1)
    field = v.field if v.times is not None else v.field[None, :]
    _write_container(path, (v.n_frames, v.grid.count, int(v.times is not None)), (0.0, 0.0),
                     _VOLUME_KINDS[v.grid.kind], [
                         *_grid_parts(v.grid),
                         _le_buffer(times, "<f8"),
                         _le_buffer(field, "<c8"),
                     ])


@_format_errors()
def read_volume(path: str) -> ReconstructionVolume:
    """Read a reconstruction volume written by :func:`write_volume`.

    Earlier writers left the time-axis word 0 for every volume, so a volume
    with word 0 is static if it holds one frame and time-resolved otherwise.
    """
    with open(path, "rb") as f:
        r, (n_frames, n_voxels, timed), _, kind = _open_container(
            f, _VOLUME_KINDS, "a reconstruction volume")
        if timed not in (0, 1):
            raise ContainerFormatError(f"time-axis word {timed} must be 0 or 1")
        if n_frames == 0:
            raise ContainerFormatError("volume declares 0 frames")
        grid = _grid_from_reader(r, kind)
        if grid.count != n_voxels:
            raise ContainerFormatError("declared voxel count does not match grid geometry")
        times = r.payload("f8", (n_frames,), "frame time")
        static = not timed and n_frames == 1
        field = r.payload("c8", (n_voxels,) if static else (n_frames, n_voxels), "volume")
        r.end()
    return ReconstructionVolume(grid, field, None if static else times)


def read_container(path: str) -> TransientMeasurement | ReconstructionVolume:
    """Read either container kind: a dataset, or else a volume."""
    try:
        return read_dataset(path)
    except _ForeignKindError:
        return read_volume(path)


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
