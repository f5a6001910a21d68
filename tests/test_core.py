"""Domain containers, the voxel order, and the binary container formats."""

import json
import re
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phasorfield import (
    ContainerFormatError,
    CuboidGrid,
    ExplicitVoxels,
    FrequencySlices,
    FrustumGrid,
    InvalidMagicError,
    NonFiniteDataError,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    ReconstructionVolume,
    TransientMeasurement,
    TruncatedPayloadError,
    UniformRelay,
    UnsupportedVersionError,
    ValidationError,
    VoxelPlane,
    illumination_coordinates,
    read_container,
    read_dataset,
    read_volume,
    write_dataset,
    write_pgm,
    write_volume,
)
from phasorfield import core, phasor
from phasorfield.core import (
    SPEED_OF_LIGHT,
    UniformGrid2D,
    UniformGrid3D,
    _freeze,
    grid_coordinates,
    open_dataset,
)
from phasorfield.cli import main
from phasorfield.phasor import build_kernel, read_frequency_slices, to_frequency

from helpers import MALFORMED_DATASETS, centered_grid2d, centered_relay


# ---------------------------------------------------------------------------
# Grids and point lists
# ---------------------------------------------------------------------------


class TestUniformGrids:
    def test_coordinates_and_center(self):
        g = UniformGrid2D(3, 2, 0.5, 0.25, -1.0, 2.0, z=0.75)
        assert np.allclose(g.x_coords(), [-1.0, -0.5, 0.0])
        assert np.allclose(g.y_coords(), [2.0, 2.25])
        cx, cy = g.center()
        assert cx == -1.0 + 1 * 0.5 and cy == 2.0 + 1 * 0.25
        assert g.count == 6

    def test_grid3d_z_coords(self):
        g = UniformGrid3D(2, 2, 4, 0.1, 0.1, 0.05, 0.0, 0.0, 1.0)
        assert np.allclose(g.z_coords(), [1.0, 1.05, 1.1, 1.15])
        assert g.count == 16

    @pytest.mark.parametrize("bad", [
        dict(nx=0, ny=2, dx=0.1, dy=0.1, x0=0.0, y0=0.0),
        dict(nx=2, ny=2, dx=0.0, dy=0.1, x0=0.0, y0=0.0),
        dict(nx=2, ny=2, dx=0.1, dy=-0.1, x0=0.0, y0=0.0),
        dict(nx=2.5, ny=3, dx=0.1, dy=0.1, x0=0.0, y0=0.0),
        dict(nx=2, ny=3.0, dx=0.1, dy=0.1, x0=0.0, y0=0.0),
    ])
    def test_grid2d_rejects_degenerate(self, bad):
        with pytest.raises(ValidationError):
            UniformGrid2D(**bad)

    # A fractional count would give a fractional voxel count and a lattice
    # of another size: UniformGrid2D(2.5, 3, ...) counted 7.5 and listed 9.
    @pytest.mark.parametrize("name", ["nx", "ny", "nz"])
    @pytest.mark.parametrize("count", [2.5, 2.0, "2"])
    def test_grid3d_refuses_a_count_that_is_not_an_integer(self, name, count):
        counts = {"nx": 2, "ny": 2, "nz": 2, name: count}
        with pytest.raises(ValidationError, match=f"^grid count {name} must be an integer$"):
            UniformGrid3D(**counts, dx=0.1, dy=0.1, dz=0.1, x0=0.0, y0=0.0, z0=1.0)

    # NumPy integer counts are held as Python integers, so the voxel count
    # cannot wrap: three uint8 counts would multiply to 512 mod 256.
    def test_grid_counts_are_held_as_python_integers(self):
        g = UniformGrid3D(np.uint8(16), np.uint8(16), np.uint8(2), 0.1, 0.1, 0.1, 0.0, 0.0, 1.0)
        assert (g.nx, g.ny, g.nz, g.count) == (16, 16, 2, 512)
        assert all(type(n) is int for n in (g.nx, g.ny, g.nz))

    def test_grid_coordinates_is_row_major_in_y(self):
        g = UniformGrid2D(2, 2, 0.5, 0.5, 0.0, 0.0)
        pts = grid_coordinates(g).points
        assert np.allclose(pts, [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])


class TestPointList:
    def test_dims(self):
        assert PointList(np.zeros((4, 2))).dim == 2
        assert PointList(np.zeros((4, 3))).dim == 3

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 4), (2, 2, 2)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValidationError):
            PointList(np.zeros(shape))

    def test_rejects_nonfinite(self):
        pts = np.zeros((2, 2))
        pts[1, 1] = np.nan
        with pytest.raises(ValidationError):
            PointList(pts)

    def test_as_3d_lifts_planar_points(self):
        p = PointList(np.array([[1.0, 2.0], [3.0, 4.0]]))
        lifted = p.as_3d(0.5)
        assert np.allclose(lifted, [[1.0, 2.0, 0.5], [3.0, 4.0, 0.5]])

    def test_as_3d_on_3d_points_is_identity(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(PointList(pts).as_3d(), pts)


class TestRelays:
    def test_uniform_relay_coordinates(self):
        relay = centered_relay(4, 0.25, z=0.5)
        coords = relay.coordinates()
        assert coords.shape == (16, 3)
        assert np.allclose(coords[:, 2], 0.5)
        assert relay.count == 16 and relay.z == 0.5 and relay.kind == "uniform"

    def test_nonuniform_planar_relay(self):
        relay = NonUniformPlanarRelay(PointList(np.array([[0.0, 0.1]])), z=0.2)
        assert np.allclose(relay.coordinates(), [[0.0, 0.1, 0.2]])
        assert relay.kind == "nonuniform_planar"

    def test_nonplanar_relay_needs_3d_points(self):
        with pytest.raises(ValidationError):
            NonPlanarRelay(PointList(np.array([[0.0, 0.1]])))
        relay = NonPlanarRelay(PointList(np.array([[0.0, 0.1, 0.3], [0.0, 0.0, 0.1]])))
        assert relay.z_extent == pytest.approx(0.2)
        assert relay.kind == "nonplanar"

    def test_illumination_coordinates_planar_supplies_z(self):
        relay = centered_relay(2, 0.1, z=0.25)
        ill = PointList(np.array([[0.0, 0.0]]))
        assert np.allclose(illumination_coordinates(relay, ill), [[0.0, 0.0, 0.25]])

    def test_illumination_coordinates_3d_passthrough(self):
        relay = NonPlanarRelay(PointList(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.1]])))
        ill = PointList(np.array([[0.1, 0.2, 0.3]]))
        assert np.allclose(illumination_coordinates(relay, ill), [[0.1, 0.2, 0.3]])

    def test_planar_illuminations_need_planar_relay(self):
        relay = NonPlanarRelay(PointList(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.1]])))
        with pytest.raises(ValidationError):
            illumination_coordinates(relay, PointList(np.array([[0.0, 0.0]])))

    @pytest.mark.parametrize("build", [
        lambda relay, ill: TransientMeasurement(relay, ill, np.zeros((1, 2, 4)), 1e-12),
        lambda relay, ill: FrequencySlices(np.array([1e9]), np.zeros((1, 2, 1), complex),
                                           relay, ill),
    ], ids=["measurement", "slices"])
    def test_planar_illuminations_on_a_nonplanar_relay_are_refused_on_construction(self, build):
        relay = NonPlanarRelay(PointList(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.1]])))
        with pytest.raises(ValidationError, match="need a planar relay to supply their z plane"):
            build(relay, PointList(np.array([[0.0, 0.0]])))
        assert build(relay, PointList(np.array([[0.0, 0.0, 0.0]]))).n_illum == 1


# ---------------------------------------------------------------------------
# Measurements and frequency slices
# ---------------------------------------------------------------------------


class TestTransientMeasurement:
    def _relay(self):
        return centered_relay(2, 0.1)

    def test_accepts_matching_shapes(self):
        m = TransientMeasurement(self._relay(), PointList(np.zeros((1, 2))),
                                 np.zeros((1, 4, 8)), delta_t=1e-12)
        assert (m.n_illum, m.n_detect, m.n_bins) == (1, 4, 8)

    def test_histogram_rows_are_views_in_read_blocks(self):
        h = np.arange(2 * 4 * 8.0).reshape(2, 4, 8)
        m = TransientMeasurement(self._relay(), PointList(np.zeros((2, 2))), h, 1e-12)
        assert m.shape == (2, 4, 8)
        # Three histograms per block: 3 + 3 + 2 rows.
        blocks = list(m.histogram_rows(3))
        assert [len(b) for b in blocks] == [3, 3, 2]
        assert all(np.shares_memory(b, m.histograms) for b in blocks)
        assert np.array_equal(np.concatenate(blocks), h.reshape(8, 8))

    @pytest.mark.parametrize("shape", [(2, 4, 8), (1, 3, 8)])
    def test_rejects_axis_mismatch(self, shape):
        with pytest.raises(ValidationError):
            TransientMeasurement(self._relay(), PointList(np.zeros((1, 2))),
                                 np.zeros(shape), delta_t=1e-12)

    def test_rejects_negative_counts_and_bad_dt(self):
        h = np.zeros((1, 4, 8))
        h[0, 0, 0] = -1.0
        with pytest.raises(ValidationError):
            TransientMeasurement(self._relay(), PointList(np.zeros((1, 2))), h, 1e-12)
        with pytest.raises(ValidationError):
            TransientMeasurement(self._relay(), PointList(np.zeros((1, 2))),
                                 np.zeros((1, 4, 8)), delta_t=0.0)

    @pytest.mark.parametrize("values, message", [
        ([np.nan], "histograms must be finite"),
        ([np.inf], "histograms must be finite"),
        ([-np.inf], "histograms must be finite"),
        ([-1.0, np.nan], "histograms must be finite"),
        ([-1.0], "photon counts and must be >= 0"),
    ])
    def test_refuses_non_finite_before_negative_counts(self, values, message):
        h = np.zeros((1, 4, 8))
        h[0, 0, :len(values)] = values
        with pytest.raises(ValidationError, match=re.escape(message)):
            TransientMeasurement(self._relay(), PointList(np.zeros((1, 2))), h, 1e-12)


class TestFreeze:
    def test_writable_input_is_copied(self):
        h = np.ones((1, 4, 8))
        m = TransientMeasurement(centered_relay(2, 0.1), PointList(np.zeros((1, 2))), h, 1e-12)
        h[0, 0, 0] = 5.0
        assert m.histograms[0, 0, 0] == 1.0 and not m.histograms.flags.writeable

    def test_read_only_view_is_copied(self):
        owner = np.arange(12.0)
        view = owner[2:10]
        view.setflags(write=False)
        frozen = _freeze(view)
        owner[2] = -1.0
        assert frozen is not view and frozen[0] == 2.0

    def test_owned_read_only_array_is_adopted(self):
        h = np.ones((1, 4, 8))
        h.setflags(write=False)
        assert _freeze(h) is h
        m = TransientMeasurement(centered_relay(2, 0.1), PointList(np.zeros((1, 2))), h, 1e-12)
        assert m.histograms is h


class TestFrequencySlices:
    def test_requires_increasing_frequencies(self):
        relay = centered_relay(2, 0.1)
        ill = PointList(np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            FrequencySlices(np.array([2.0e9, 1.0e9]), np.zeros((1, 4, 2), complex),
                            relay, ill)

    def test_shortest_wavelength(self):
        relay = centered_relay(2, 0.1)
        ill = PointList(np.zeros((1, 2)))
        sl = FrequencySlices(np.array([1.0e10, 2.0e10]),
                             np.zeros((1, 4, 2), complex), relay, ill)
        assert sl.shortest_wavelength == pytest.approx(2 * np.pi * 299792458.0 / 2.0e10)

    def test_accepts_noncontiguous_coefficients(self):
        relay = centered_relay(2, 0.1)
        ill = PointList(np.zeros((2, 2)))
        big = (np.arange(2 * 4 * 6) + 1j).reshape(2, 4, 6)
        sl = FrequencySlices(np.array([1.0e10, 2.0e10]), big[:, :, ::3], relay, ill)
        assert sl.n_freq == 2


# ---------------------------------------------------------------------------
# Voxel grids
# ---------------------------------------------------------------------------


class TestVoxelGrids:
    def test_cuboid_coordinates_match_array3d_layout(self):
        g = UniformGrid3D(3, 2, 2, 0.1, 0.2, 0.3, 0.0, 0.0, 1.0)
        cub = CuboidGrid(g)
        coords = cub.coordinates().reshape(2, 2, 3, 3)
        assert np.allclose(coords[1, 0, 2], [0.2, 0.0, 1.3])
        assert cub.shape == (2, 2, 3)
        assert cub.kind == "cuboid"

    def test_frustum_linear_growth_law(self):
        base = centered_grid2d(4, 0.1, z=0.0)
        zs = [0.0, 0.5, 1.0]
        fr = FrustumGrid.linear(base, zs, alpha0=0.5)
        x_in = 4 * 0.1
        assert fr.alphas[0] == pytest.approx(1.0)
        assert fr.alphas[1] == pytest.approx(x_in / (x_in + 0.5 / 0.5))
        assert np.all(np.diff(fr.alphas) < 0)
        dxk, dyk = fr.plane_pitch(2)
        assert dxk == pytest.approx(0.1 / fr.alphas[2])
        assert fr.count == 3 * 16 and fr.kind == "frustum"

    def test_frustum_plane_extent_widens(self):
        base = centered_grid2d(4, 0.1)
        fr = FrustumGrid.linear(base, [0.0, 1.0], alpha0=0.5)
        xs0, _ = fr.plane_xy(0)
        xs1, _ = fr.plane_xy(1)
        assert xs1.max() - xs1.min() > xs0.max() - xs0.min()

    def test_frustum_rejects_planes_before_base(self):
        base = centered_grid2d(4, 0.1, z=1.0)
        with pytest.raises(ValidationError):
            FrustumGrid.linear(base, [0.5], alpha0=0.5)

    def test_explicit_voxels(self):
        planes = (VoxelPlane(1.0, PointList(np.array([[0.0, 0.0], [0.1, 0.0]]))),
                  VoxelPlane(1.5, PointList(np.array([[0.0, 0.2]]))))
        ev = ExplicitVoxels(planes)
        assert ev.count == 3
        assert np.allclose(ev.coordinates()[-1], [0.0, 0.2, 1.5])
        with pytest.raises(ValidationError):
            VoxelPlane(1.0, PointList(np.array([[0.0, 0.0, 0.0]])))

    def test_volume_container_shapes(self):
        g = UniformGrid3D(2, 2, 2, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0)
        cub = CuboidGrid(g)
        v = ReconstructionVolume(cub, np.arange(8.0) + 0j)
        assert v.n_frames == 1 and v.as_array3d().shape == (2, 2, 2)
        frames = np.stack([np.arange(8.0) + 0j, np.zeros(8) + 0j])
        vt = ReconstructionVolume(cub, frames, times=np.array([0.0, 1.0e-9]))
        assert vt.n_frames == 2 and np.allclose(vt.frame(1), 0)
        with pytest.raises(ValidationError):
            ReconstructionVolume(cub, np.arange(7.0) + 0j)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.inf, 1e-9]])
    def test_volume_refuses_non_finite_times(self, times):
        cub = CuboidGrid(UniformGrid3D(2, 2, 2, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="frame times must be finite"):
            ReconstructionVolume(cub, np.zeros((2, 8), complex), times=np.array(times))

    @pytest.mark.parametrize("n_frames, index", [(None, 1), (None, -1), (3, 3), (3, 99), (3, -4),
                                                  (3, -1)])
    def test_frame_index_must_lie_in_range(self, n_frames, index):
        cub = CuboidGrid(UniformGrid3D(2, 2, 2, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0))
        if n_frames is None:
            v = ReconstructionVolume(cub, np.zeros(8, complex))
        else:
            v = ReconstructionVolume(cub, np.zeros((n_frames, 8), complex),
                                     times=np.arange(n_frames) * 1e-9)
        with pytest.raises(ValidationError, match=f"of {v.n_frames} frame"):
            v.frame(index)
        with pytest.raises(ValidationError, match=f"of {v.n_frames} frame"):
            v.as_array3d(index)
        assert v.frame(v.n_frames - 1).shape == (8,)

    # frame(0.5) returned a static volume's field and raised a bare
    # IndexError on a video.
    @pytest.mark.parametrize("n_frames, index", [(None, 0.5), (3, 0.5), (3, 1.0), (3, "1")])
    def test_frame_index_must_be_an_integer(self, n_frames, index):
        cub = CuboidGrid(UniformGrid3D(2, 2, 2, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0))
        if n_frames is None:
            v = ReconstructionVolume(cub, np.zeros(8, complex))
        else:
            v = ReconstructionVolume(cub, np.zeros((n_frames, 8), complex),
                                     times=np.arange(n_frames) * 1e-9)
        with pytest.raises(ValidationError, match="^frame index must be an integer$"):
            v.frame(index)
        assert np.array_equal(v.frame(np.int64(0)), v.frame(0))


# ---------------------------------------------------------------------------
# Binary containers
# ---------------------------------------------------------------------------


def _small_measurement(relay=None):
    relay = relay if relay is not None else centered_relay(2, 0.1)
    ill = PointList(np.zeros((1, 3 if relay.kind == "nonplanar" else 2)))
    hist = np.linspace(0.0, 1.0, 1 * relay.count * 8).reshape(1, relay.count, 8)
    return TransientMeasurement(relay, ill, hist, delta_t=16e-12, t0=1e-10)


def _streamed(path: str):
    """The streamed reader, with a packet centred on bin 2 of _small_measurement's window."""
    return read_frequency_slices(path, SPEED_OF_LIGHT * 8 * 16e-12 / 2)


# Both readers of datasets: whole, and streamed into frequency slices.
_DATASET_READERS = pytest.mark.parametrize("read", [read_dataset, _streamed],
                                           ids=["read_dataset", "read_frequency_slices"])


# One instance of every relay kind and of every grid kind.
_RELAY_CASES = (
    centered_relay(2, 0.1, z=0.3),
    NonUniformPlanarRelay(PointList(np.array([[0.0, 0.0], [0.1, 0.2], [0.3, -0.1]])), z=0.1),
    NonPlanarRelay(PointList(np.array([[0.0, 0.0, 0.0], [0.1, 0.2, 0.05]]))),
)
_GRID_CASES = (
    CuboidGrid(UniformGrid3D(2, 2, 2, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0)),
    FrustumGrid.linear(centered_grid2d(2, 0.1, z=0.5), [0.5, 0.8], alpha0=0.7),
    ExplicitVoxels((VoxelPlane(1.0, PointList(np.array([[0.0, 0.1], [0.2, 0.0]]))),)),
)


def _write_each(tmp_path):
    """Write a dataset of every relay kind and a volume of every grid kind."""
    datasets, volumes = [], []
    for i, relay in enumerate(_RELAY_CASES):
        datasets.append((relay.kind, str(tmp_path / f"d{i}.nls1")))
        write_dataset(_small_measurement(relay), datasets[-1][1])
    for i, grid in enumerate(_GRID_CASES):
        volumes.append((grid.kind, str(tmp_path / f"v{i}.vol")))
        write_volume(ReconstructionVolume(grid, np.zeros(grid.count, complex)), volumes[-1][1])
    return datasets, volumes


# The whole framing of a 1x1 uniform relay with one planar illumination and
# two bins, and of a static 1x1x1 cuboid volume, little-endian throughout.
_GOLDEN_DATASET = bytes.fromhex("".join([
    "4e4c5331", "01000000",                      # magic NLS1, version 1
    "01000000", "01000000", "02000000",          # n_illum, n_detect, n_bins
    "000000000000e03f", "000000000000d03f",      # delta_t 0.5, t0 0.25
    "00",                                        # relay kind tag: uniform
    "01000000", "01000000",                      # nx, ny
    "000000000000f03f", "000000000000f03f",      # dx 1, dy 1
    "0000000000000000", "0000000000000000", "0000000000000000",  # x0, y0, z
    "02", "01000000",                            # illumination dim, count
    "0000000000000000", "0000000000000000",      # illumination (0, 0)
    "0000803f", "00000040",                      # histogram [1, 2] as float32
]))
_GOLDEN_VOLUME = bytes.fromhex("".join([
    "4e4c5331", "01000000",                      # magic NLS1, version 1
    "01000000", "01000000", "00000000",          # n_frames, n_voxels, static
    "0000000000000000", "0000000000000000",      # two unused scalars
    "10",                                        # grid kind tag: cuboid
    "01000000", "01000000", "01000000",          # nx, ny, nz
    "000000000000f03f", "000000000000f03f", "000000000000f03f",  # dx, dy, dz
    "0000000000000000", "0000000000000000", "000000000000f03f",  # x0, y0, z0 1
    "0000000000000000",                          # the static volume's time
    "0000803f", "00000040",                      # field [1+2j] as complex64
]))


class TestDatasetContainer:
    def test_golden_bytes(self, tmp_path):
        m = TransientMeasurement(UniformRelay(UniformGrid2D(1, 1, 1.0, 1.0, 0.0, 0.0)),
                                 PointList(np.array([[0.0, 0.0]])), np.array([[[1.0, 2.0]]]),
                                 delta_t=0.5, t0=0.25)
        path = tmp_path / "d.nls1"
        write_dataset(m, str(path))
        assert path.read_bytes() == _GOLDEN_DATASET
        back = read_container(str(path))
        assert isinstance(back, TransientMeasurement)
        assert np.array_equal(back.histograms, m.histograms)

    @pytest.mark.parametrize("relay", _RELAY_CASES)
    def test_roundtrip_all_relay_kinds(self, tmp_path, relay):
        m = _small_measurement(relay)
        path = str(tmp_path / "d.nls1")
        write_dataset(m, path)
        back = read_dataset(path)
        assert back.relay.kind == m.relay.kind
        assert np.allclose(back.relay.coordinates(), m.relay.coordinates())
        assert back.delta_t == m.delta_t and back.t0 == m.t0
        # payload is float32 on disk
        assert np.array_equal(back.histograms,
                              m.histograms.astype(np.float32).astype(np.float64))

    def test_rewrites_are_byte_identical(self, tmp_path):
        m = _small_measurement()
        p1, p2 = str(tmp_path / "a.nls1"), str(tmp_path / "b.nls1")
        write_dataset(m, p1)
        write_dataset(m, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_sidecar_is_plain_json_without_timestamps(self, tmp_path):
        m = _small_measurement()
        path = str(tmp_path / "d.nls1")
        write_dataset(m, path)
        doc = json.loads(Path(path + ".json").read_text(encoding="utf-8"))
        assert doc["n_bins"] == 8 and doc["relay"]["kind"] == "uniform"
        assert not any("time" in k.lower() and k != "t0" for k in doc
                       if k not in ("delta_t",))

    @_DATASET_READERS
    def test_bad_magic(self, tmp_path, read):
        path = tmp_path / "bad.nls1"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(InvalidMagicError):
            read(str(path))

    @_DATASET_READERS
    def test_unsupported_version(self, tmp_path, read):
        m = _small_measurement()
        path = tmp_path / "d.nls1"
        write_dataset(m, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersionError):
            read(str(path))

    @_DATASET_READERS
    def test_truncated_payload(self, tmp_path, read):
        m = _small_measurement()
        path = tmp_path / "d.nls1"
        write_dataset(m, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 5])
        with pytest.raises(TruncatedPayloadError):
            read(str(path))

    @_DATASET_READERS
    def test_nonfinite_payload(self, tmp_path, read):
        m = _small_measurement()
        path = tmp_path / "d.nls1"
        write_dataset(m, str(path))
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteDataError):
            read(str(path))

    # Header fields the constructors refuse: (byte offset, packed value,
    # message).  delta_t follows magic, version and the three counts; the
    # uniform relay's kind byte, nx, ny and dx follow it and t0.
    @pytest.mark.parametrize("offset, value, message", [
        (20, struct.pack("<d", -1.0), "bin width must be > 0"),
        (37, struct.pack("<I", 0), "grid counts must be >= 1"),
        (45, struct.pack("<d", 0.0), "grid pitches must be > 0"),
    ])
    @_DATASET_READERS
    def test_refused_header_values_are_format_errors(self, tmp_path, read, offset, value,
                                                     message):
        path = tmp_path / "d.nls1"
        write_dataset(_small_measurement(), str(path))
        raw = bytearray(path.read_bytes())
        raw[offset:offset + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError, match=message):
            read(str(path))

    @_DATASET_READERS
    def test_volume_file_is_rejected(self, tmp_path, read):
        _, volumes = _write_each(tmp_path)
        for kind, path in volumes:
            with pytest.raises(ContainerFormatError,
                               match=f"expected a transient dataset, but the file holds "
                                     f"a volume on a {kind} grid"):
                read(path)

    # One histogram per block as well as all in one, so that a bad value in
    # the last block is found after the others were projected.  A read block
    # of 8 values and products of 8 multiply-adds each take one 8-bin
    # histogram at a time, in read_dataset and in the streamed projection.
    @pytest.mark.parametrize("block", [None, 8], ids=["default-block", "one-row-blocks"])
    @pytest.mark.parametrize("malformed", MALFORMED_DATASETS)
    def test_both_readers_refuse_a_malformed_file_alike(self, tmp_path, monkeypatch,
                                                        malformed, block):
        edit, error, message = MALFORMED_DATASETS[malformed]
        path = tmp_path / "bad.nls1"
        path.write_bytes(edit(_container_bytes(write_dataset, _small_measurement(), tmp_path)))
        if block is not None:
            monkeypatch.setattr(core, "_READ_BLOCK", block)
            monkeypatch.setattr(phasor, "_PRODUCT_VALUES", block)
        refusals = []
        for read in (read_dataset, _streamed):
            with pytest.raises(error, match=message) as refused:
                read(str(path))
            refusals.append((type(refused.value), str(refused.value)))
        assert refusals[0] == refusals[1]

    def test_counts_that_disagree_with_the_relay_are_refused_before_the_histograms(
            self, tmp_path, monkeypatch):
        path = tmp_path / "bad.nls1"
        edit = MALFORMED_DATASETS["detector-count"][0]
        path.write_bytes(edit(_container_bytes(write_dataset, _small_measurement(), tmp_path)))

        blocks, read_blocks = core._Reader.blocks, []

        def spy(reader, dt, count, out, block, what):
            read_blocks.append(what)
            return blocks(reader, dt, count, out, block, what)

        monkeypatch.setattr(core._Reader, "blocks", spy)
        for read in (read_dataset, _streamed):
            with pytest.raises(ContainerFormatError, match="detector axis must match"):
                read(str(path))
        assert read_blocks == ["illumination point"] * 2

    # The blocks share one buffer, so each is copied before the next is read.
    @pytest.mark.parametrize("read", [lambda d: d.histograms(),
                                      lambda d: np.concatenate([h.copy() for h
                                                                in d.histogram_rows(3)])],
                             ids=["histograms", "histogram_rows"])
    def test_an_open_dataset_reads_its_histograms_once(self, tmp_path, read):
        path = str(tmp_path / "d.nls1")
        write_dataset(_small_measurement(), path)
        kernel = build_kernel(SPEED_OF_LIGHT * 8 * 16e-12 / 2, 8, 16e-12)
        with open_dataset(path) as d:
            assert np.array_equal(read(d).reshape(-1), read_dataset(path).histograms.reshape(-1))
            for again in (read, lambda d: to_frequency(d, kernel)):
                with pytest.raises(ValidationError, match="^the dataset's histograms were "
                                                          "already read: an open dataset "
                                                          "file reads them once$"):
                    again(d)
        with open_dataset(path) as unread:
            pass
        for closed in (d, unread):
            with pytest.raises(ValidationError, match="^the dataset file is closed: read its "
                                                      "histograms inside the with block$"):
                read(closed)

    @pytest.mark.parametrize("tag", [5, 15, 19, 255])
    @pytest.mark.parametrize("reader", [read_dataset, read_volume, read_container, _streamed])
    def test_unknown_kind_tag(self, tmp_path, reader, tag):
        datasets, volumes = _write_each(tmp_path)
        for _, path in (datasets[0], volumes[0]):
            raw = bytearray(Path(path).read_bytes())
            raw[36] = tag  # the kind byte ends the shared framing
            Path(path).write_bytes(bytes(raw))
            with pytest.raises(ContainerFormatError, match=f"^unknown container kind tag {tag}$"):
                reader(path)


def _traced_peak(fn):
    """``fn()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What a read may hold beyond its result, with room to spare: one block
# (a whole-array read's or one product group), its file bytes and their
# finiteness mask, and the projection's matrix.
_STREAM_SLACK = 4e6


class TestStreamedRead:
    def test_a_capture_is_held_once(self, tmp_path):
        # frustum-video's shape: [2, 2304, 1024].  Reading it and projecting
        # it may hold the float64 histograms, one eighth more for the
        # measurement's own mask checks, and a few blocks.
        relay = UniformRelay(UniformGrid2D(48, 48, 0.01, 0.01, -0.24, -0.24))
        h = np.random.default_rng(3).poisson(2.0, (2, 2304, 1024)).astype(np.float64)
        path = str(tmp_path / "big.nls1")
        write_dataset(TransientMeasurement(relay, PointList(np.zeros((2, 2))), h, 16e-12), path)
        del h
        kernel = build_kernel(0.06, 1024, 16e-12)

        def front_end():
            m = read_dataset(path)
            return m, to_frequency(m, kernel)

        (m, sl), peak = _traced_peak(front_end)
        assert m.histograms.flags.owndata and sl.coefficients.flags.owndata
        assert peak <= 1.15 * m.histograms.nbytes + _STREAM_SLACK

    def test_a_block_is_projected_without_the_files_bytes(self, tmp_path):
        # 256 histograms of 1024 bins, 16 product groups of 16 histograms
        # (2**19 multiply-adds over the matrix's 32 columns).  Beside the
        # coefficients and the [1024, 32] projection matrix, one group is
        # held at a time, as float64 and as its float32 file bytes (0.55 MB
        # traced in all); the capture's 1 MB of float32 file bytes would take
        # the peak past three groups.
        relay = UniformRelay(UniformGrid2D(16, 16, 0.02, 0.02, -0.15, -0.15))
        h = np.random.default_rng(3).poisson(2.0, (1, 256, 1024)).astype(np.float64)
        path = str(tmp_path / "one-block.nls1")
        write_dataset(TransientMeasurement(relay, PointList(np.zeros((1, 2))), h, 16e-12), path)
        del h
        sl, peak = _traced_peak(lambda: read_frequency_slices(path, 0.06))
        assert sl.coefficients.shape == (1, 256, 16)
        columns = 2 * sl.n_freq
        group_bytes = 8 * phasor._PRODUCT_VALUES // columns
        assert group_bytes == 8 * 16 * 1024
        matrix_bytes = 8 * 1024 * columns
        assert peak <= sl.coefficients.nbytes + matrix_bytes + 3 * group_bytes

    def test_a_streamed_capture_is_never_held(self, tmp_path):
        # frustum-video's shape, projected as it is read: beside the
        # coefficients and the projection matrix only one product group is
        # held, as float64 and as its file bytes, never the histograms.
        relay = UniformRelay(UniformGrid2D(48, 48, 0.01, 0.01, -0.24, -0.24))
        h = np.random.default_rng(3).poisson(2.0, (2, 2304, 1024)).astype(np.float64)
        path = str(tmp_path / "big.nls1")
        write_dataset(TransientMeasurement(relay, PointList(np.zeros((2, 2))), h, 16e-12), path)
        del h
        sl, peak = _traced_peak(lambda: read_frequency_slices(path, 0.06))
        assert sl.coefficients.flags.owndata
        assert peak <= sl.coefficients.nbytes + 2 * _STREAM_SLACK

    def test_the_cli_drops_a_capture_once_projected(self, tmp_path, capsys):
        # frustum-video's capture and flags.  The command line projects the
        # histograms as it reads them, so neither their float64 copy nor even
        # the file's float32 bytes are ever held whole.
        relay = UniformRelay(UniformGrid2D(48, 48, 0.02, 0.02, -0.47, -0.47))
        h = np.random.default_rng(3).poisson(2.0, (2, 2304, 1024)).astype(np.float64)
        path = str(tmp_path / "big.nls1")
        illuminations = PointList(np.array([[0.1, -0.05], [-0.12, 0.08]]))
        write_dataset(TransientMeasurement(relay, illuminations, h, 16e-12), path)
        histogram_bytes = h.nbytes
        del h
        argv = ["reconstruct", path, "-o", str(tmp_path / "v.vol"), "--algo", "srsd",
                "--lambda-c", "0.06", "--video", "0:8e-9:64",
                "--grid", "frustum:48,48,4,0.02,0.02,0.08,-0.47,-0.47,0.8,0.5"]
        assert main(argv) == 0  # warm-up: the scaled transforms' plan caches
        code, peak = _traced_peak(lambda: main(argv))
        assert code == 0
        assert peak <= histogram_bytes / 2 + _STREAM_SLACK

    def test_a_measurement_checks_its_histograms_without_masks(self):
        # frustum-video's shape, owned and read-only: adopted, and checked
        # by reductions rather than full-size boolean masks.
        h = np.random.default_rng(3).poisson(2.0, (2, 2304, 1024)).astype(np.float64)
        h.setflags(write=False)
        relay = UniformRelay(UniformGrid2D(48, 48, 0.01, 0.01, -0.24, -0.24))
        m, peak = _traced_peak(
            lambda: TransientMeasurement(relay, PointList(np.zeros((2, 2))), h, 16e-12))
        assert m.histograms is h
        assert peak < 1e6

    @pytest.mark.parametrize("times", [None, np.array([0.0, 1e-9])])
    def test_a_volume_is_held_once(self, tmp_path, times):
        grid = CuboidGrid(UniformGrid3D(500, 400, 2, 0.01, 0.01, 0.01, 0.0, 0.0, 1.0))
        shape = (grid.count,) if times is None else (times.size, grid.count)
        path = str(tmp_path / "v.vol")
        write_volume(ReconstructionVolume(grid, np.full(shape, 1 + 2j), times), path)
        v, peak = _traced_peak(lambda: read_volume(path))
        assert v.field.shape == shape and v.field.flags.owndata
        assert peak <= 1.15 * v.field.nbytes + _STREAM_SLACK

    def test_a_huge_declared_payload_fails_before_allocating(self, tmp_path):
        raw = bytearray(_container_bytes(write_dataset, _small_measurement(), tmp_path))
        raw[8:20] = struct.pack("<3I", 1, 1 << 20, 1 << 20)  # 2^40 histogram values
        path = tmp_path / "huge.nls1"
        path.write_bytes(bytes(raw[:200]).ljust(200, b"\0"))

        def read():
            with pytest.raises(TruncatedPayloadError, match="file ends at byte 200 but"):
                read_dataset(str(path))

        _, peak = _traced_peak(read)
        assert peak < 1e6

    def test_a_file_that_shrinks_while_read_is_truncated(self, tmp_path, monkeypatch):
        raw = _container_bytes(write_dataset, _small_measurement(), tmp_path)
        path = tmp_path / "d.nls1"
        path.write_bytes(raw[:-8])
        # The size taken when the file was opened outlasts the bytes the read finds.
        monkeypatch.setattr(core.os, "fstat", lambda fd: SimpleNamespace(st_size=len(raw)))
        with pytest.raises(TruncatedPayloadError, match="shrank"):
            read_dataset(str(path))


class TestVolumeContainer:
    def test_golden_bytes(self, tmp_path):
        g = UniformGrid3D(1, 1, 1, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
        path = tmp_path / "v.vol"
        write_volume(ReconstructionVolume(CuboidGrid(g), np.array([1 + 2j])), str(path))
        assert path.read_bytes() == _GOLDEN_VOLUME
        back = read_container(str(path))
        assert isinstance(back, ReconstructionVolume) and back.times is None
        assert np.array_equal(back.field, [1 + 2j])

    def test_cuboid_roundtrip(self, tmp_path, rng):
        g = UniformGrid3D(3, 2, 2, 0.1, 0.1, 0.1, -0.1, 0.0, 1.0)
        field = rng.normal(size=12) + 1j * rng.normal(size=12)
        v = ReconstructionVolume(CuboidGrid(g), field)
        path = str(tmp_path / "v.vol")
        write_volume(v, path)
        back = read_volume(path)
        assert back.grid.kind == "cuboid" and back.n_frames == 1
        assert np.array_equal(back.field,
                              field.astype(np.complex64).astype(np.complex128))
        assert np.allclose(back.grid.coordinates(), v.grid.coordinates())

    def test_frustum_multiframe_roundtrip(self, tmp_path, rng):
        base = centered_grid2d(3, 0.1)
        fr = FrustumGrid.linear(base, [0.5, 0.8], alpha0=0.7)
        frames = (rng.normal(size=(2, fr.count))
                  + 1j * rng.normal(size=(2, fr.count)))
        times = np.array([0.0, 2.0e-9])
        v = ReconstructionVolume(fr, frames, times)
        path = str(tmp_path / "v.vol")
        write_volume(v, path)
        back = read_volume(path)
        assert back.grid.kind == "frustum" and back.n_frames == 2
        assert np.allclose(back.times, times)
        assert np.allclose(back.grid.coordinates(), fr.coordinates())

    def test_explicit_roundtrip(self, tmp_path):
        ev = ExplicitVoxels((VoxelPlane(1.0, PointList(np.array([[0.0, 0.1]]))),))
        v = ReconstructionVolume(ev, np.array([1 + 2j]))
        path = str(tmp_path / "v.vol")
        write_volume(v, path)
        back = read_volume(path)
        assert back.grid.kind == "explicit"
        assert np.allclose(back.grid.coordinates(), ev.coordinates())

    def test_dataset_file_is_rejected(self, tmp_path):
        datasets, _ = _write_each(tmp_path)
        for kind, path in datasets:
            with pytest.raises(ContainerFormatError,
                               match=f"expected a reconstruction volume, but the file holds "
                                     f"a transient dataset on a {kind} relay"):
                read_volume(path)

    # The time-axis word is the third uint32 after magic and version.
    _TIME_WORD = slice(16, 20)

    def _written(self, tmp_path, times):
        g = UniformGrid3D(2, 1, 1, 0.1, 0.1, 0.1, 0.0, 0.0, 1.0)
        field = np.ones(2, complex) if times is None else np.ones((len(times), 2), complex)
        path = tmp_path / "v.vol"
        write_volume(ReconstructionVolume(CuboidGrid(g), field, times), str(path))
        return path

    def test_one_frame_video_keeps_its_time(self, tmp_path):
        path = self._written(tmp_path, np.array([3e-9]))
        assert path.read_bytes()[self._TIME_WORD] == (1).to_bytes(4, "little")
        back = read_volume(str(path))
        assert back.n_frames == 1 and np.array_equal(back.times, [3e-9])
        assert back.field.shape == (1, 2)

    def test_static_volume_writes_time_word_zero(self, tmp_path):
        path = self._written(tmp_path, None)
        assert path.read_bytes()[self._TIME_WORD] == bytes(4)
        assert read_volume(str(path)).times is None

    def test_time_word_zero_keeps_frame_count_rule(self, tmp_path):
        one = self._written(tmp_path, np.array([3e-9]))
        raw = bytearray(one.read_bytes())
        raw[self._TIME_WORD] = bytes(4)
        one.write_bytes(bytes(raw))
        assert read_volume(str(one)).times is None
        two = self._written(tmp_path, np.array([1e-9, 2e-9]))
        raw = bytearray(two.read_bytes())
        raw[self._TIME_WORD] = bytes(4)
        two.write_bytes(bytes(raw))
        assert np.array_equal(read_volume(str(two)).times, [1e-9, 2e-9])

    def test_non_finite_frame_time_is_refused(self, tmp_path):
        path = self._written(tmp_path, np.array([1e-9, 2e-9]))
        raw = bytearray(path.read_bytes())
        # The two 8-byte times precede the 2 x 2 complex64 field at the end.
        raw[-40:-32] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteDataError, match="frame time payload"):
            read_volume(str(path))

    def test_zero_frames_are_rejected(self, tmp_path):
        # A one-frame video of 2 voxels, cut to 0 frames: the frame count
        # word (after magic and version) is 0 and the 8-byte time and the
        # two 8-byte voxel values are gone.
        path = self._written(tmp_path, np.array([3e-9]))
        raw = bytearray(path.read_bytes()[:-24])
        raw[8:12] = bytes(4)
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError, match="0 frames"):
            read_volume(str(path))

    # The cuboid's nx follows the grid kind byte at 36, and dz its three
    # counts and dx, dy.
    @pytest.mark.parametrize("offset, value, message", [
        (37, struct.pack("<I", 0), "grid counts must be >= 1"),
        (65, struct.pack("<d", 0.0), "grid pitches must be > 0"),
    ])
    def test_refused_grid_values_are_format_errors(self, tmp_path, offset, value, message):
        path = self._written(tmp_path, None)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError, match=message):
            read_volume(str(path))

    @pytest.mark.parametrize("word", [2, 7, 2**32 - 1])
    def test_other_time_words_are_rejected(self, tmp_path, word):
        path = self._written(tmp_path, np.array([3e-9]))
        raw = bytearray(path.read_bytes())
        raw[self._TIME_WORD] = word.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError, match="time-axis word"):
            read_volume(str(path))


# Geometry is stored as float64 and payloads as float32, so payload values
# are drawn as float32 to make the round trip exact.
_COORD = st.floats(-10.0, 10.0)
_PITCH = st.floats(0.001, 1.0)
_COUNT = st.integers(1, 3)


def _points(dim: int):
    return _COUNT.flatmap(lambda n: hnp.arrays(np.float64, (n, dim), elements=_COORD))


_RELAYS = st.one_of(
    st.builds(lambda nx, ny, dx, dy, x0, y0, z: UniformRelay(UniformGrid2D(nx, ny, dx, dy,
                                                                           x0, y0, z)),
              _COUNT, _COUNT, _PITCH, _PITCH, _COORD, _COORD, _COORD),
    st.builds(lambda pts, z: NonUniformPlanarRelay(PointList(pts), z), _points(2), _COORD),
    st.builds(lambda pts: NonPlanarRelay(PointList(pts)), _points(3)),
)


@st.composite
def _measurements(draw):
    relay = draw(_RELAYS)
    # A non-planar relay has no plane to lift a planar illumination list onto.
    dims = [3] if relay.kind == "nonplanar" else [2, 3]
    ill = PointList(draw(_points(draw(st.sampled_from(dims)))))
    hist = draw(hnp.arrays(np.float64, (ill.count, relay.count, draw(_COUNT)),
                           elements=st.floats(0.0, 1e6, width=32)))
    return TransientMeasurement(relay, ill, hist, delta_t=draw(st.floats(1e-13, 1e-9)),
                                t0=draw(st.floats(-1e-8, 1e-8)))


@st.composite
def _grids(draw):
    kind = draw(st.sampled_from(["cuboid", "frustum", "explicit"]))
    if kind == "cuboid":
        grid = CuboidGrid(UniformGrid3D(draw(_COUNT), draw(_COUNT), draw(_COUNT),
                                        draw(_PITCH), draw(_PITCH), draw(_PITCH),
                                        draw(_COORD), draw(_COORD), draw(_COORD)))
    elif kind == "frustum":
        base = UniformGrid2D(draw(_COUNT), draw(_COUNT), draw(_PITCH), draw(_PITCH),
                             draw(_COORD), draw(_COORD), draw(_COORD))
        steps = draw(hnp.arrays(np.float64, draw(_COUNT), elements=_PITCH))
        grid = FrustumGrid.linear(base, base.z + np.cumsum(steps),
                                  draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0)))
    else:
        grid = ExplicitVoxels(tuple(VoxelPlane(draw(_COORD), PointList(draw(_points(2))))
                                    for _ in range(draw(_COUNT))))
    return grid


@st.composite
def _volumes(draw):
    grid = draw(_grids())
    n_frames = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (grid.count,) if n_frames is None else (n_frames, grid.count)
    part = hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6, width=32))
    field = draw(part) + 1j * draw(part)
    times = None if n_frames is None else np.sort(
        draw(hnp.arrays(np.float64, n_frames, elements=st.floats(-1e-8, 1e-8))))
    return ReconstructionVolume(grid, field, times)


@pytest.fixture(scope="module")
def blob_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("blobs")


def _container_bytes(writer, obj, directory) -> bytes:
    path = directory / "written"
    writer(obj, str(path))
    return path.read_bytes()


def _read_bytes(reader, data: bytes, directory):
    path = directory / "candidate"
    path.write_bytes(data)
    return reader(str(path))


class TestContainerProperties:
    @settings(max_examples=40, deadline=None)
    @given(m=_measurements(), reader=st.sampled_from([read_dataset, read_container]))
    def test_dataset_roundtrip_is_identity(self, blob_dir, m, reader):
        back = _read_bytes(reader, _container_bytes(write_dataset, m, blob_dir), blob_dir)
        assert back.relay.kind == m.relay.kind
        assert np.array_equal(back.relay.coordinates(), m.relay.coordinates())
        assert np.array_equal(back.illuminations.points, m.illuminations.points)
        assert np.array_equal(back.histograms, m.histograms)
        assert back.delta_t == m.delta_t and back.t0 == m.t0

    @settings(max_examples=40, deadline=None)
    @given(v=_volumes(), reader=st.sampled_from([read_volume, read_container]))
    def test_volume_roundtrip_is_identity(self, blob_dir, v, reader):
        back = _read_bytes(reader, _container_bytes(write_volume, v, blob_dir), blob_dir)
        assert back.grid.kind == v.grid.kind
        assert np.array_equal(back.grid.coordinates(), v.grid.coordinates())
        assert np.array_equal(back.field, v.field)
        assert (back.times is None if v.times is None
                else np.array_equal(back.times, v.times))

    @settings(max_examples=10, deadline=None)
    @given(m=_measurements(), reader=st.sampled_from([read_dataset, _streamed]))
    def test_every_strict_dataset_prefix_is_truncated(self, blob_dir, m, reader):
        raw = _container_bytes(write_dataset, m, blob_dir)
        for n in range(len(raw)):
            with pytest.raises(TruncatedPayloadError):
                _read_bytes(reader, raw[:n], blob_dir)

    @settings(max_examples=10, deadline=None)
    @given(v=_volumes())
    def test_every_strict_volume_prefix_is_truncated(self, blob_dir, v):
        raw = _container_bytes(write_volume, v, blob_dir)
        for n in range(len(raw)):
            with pytest.raises(TruncatedPayloadError):
                _read_bytes(read_volume, raw[:n], blob_dir)

    @settings(max_examples=30, deadline=None)
    @given(m=_measurements(), suffix=st.binary(min_size=1, max_size=16),
           reader=st.sampled_from([read_dataset, _streamed]))
    def test_any_dataset_suffix_is_rejected(self, blob_dir, m, suffix, reader):
        raw = _container_bytes(write_dataset, m, blob_dir)
        with pytest.raises(ContainerFormatError, match="follow the payload"):
            _read_bytes(reader, raw + suffix, blob_dir)

    @settings(max_examples=30, deadline=None)
    @given(v=_volumes(), suffix=st.binary(min_size=1, max_size=16))
    def test_any_volume_suffix_is_rejected(self, blob_dir, v, suffix):
        raw = _container_bytes(write_volume, v, blob_dir)
        with pytest.raises(ContainerFormatError, match="follow the payload"):
            _read_bytes(read_volume, raw + suffix, blob_dir)


class TestVoxelOrder:
    @settings(max_examples=60, deadline=None)
    @given(grid=_grids())
    def test_every_layout_follows_the_depth_planes(self, blob_dir, grid):
        planes = grid.depth_planes()
        coords = grid.coordinates()
        assert coords.shape == (grid.count, 3)
        assert np.array_equal(coords, np.vstack([np.column_stack([x, y, np.full(x.size, z)])
                                                 for z, x, y in planes]))
        assert not any(a.flags.writeable for _, x, y in planes for a in (x, y))
        if grid.kind == "cuboid":
            g = grid.grid
            want = [(g.x0 + i * g.dx, g.y0 + j * g.dy, g.z0 + k * g.dz)
                    for k in range(g.nz) for j in range(g.ny) for i in range(g.nx)]
        elif grid.kind == "frustum":
            want = [(xs[i], ys[j], z) for k, z in enumerate(grid.zs)
                    for xs, ys in [grid.plane_xy(k)]
                    for j in range(grid.base.ny) for i in range(grid.base.nx)]
        else:
            want = [(x, y, p.z) for p in grid.planes for x, y in p.points.points]
        assert np.array_equal(coords, want)
        labels = np.arange(grid.count) + 0j
        volume = ReconstructionVolume(grid, labels)
        if grid.kind != "explicit":
            assert np.array_equal(volume.as_array3d(), labels.reshape(grid.shape))
        back = _read_bytes(read_volume, _container_bytes(write_volume, volume, blob_dir),
                           blob_dir)
        assert np.array_equal(back.grid.coordinates(), coords)
        assert np.array_equal(back.field, labels)


class TestPgm:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.array([[0.0, 1.0], [2.0, 4.0]]), str(path))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(np.zeros((2, 3)), str(path))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm(np.zeros(4), str(tmp_path / "x.pgm"))
