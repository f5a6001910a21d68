"""Fast volumetric propagators against literal sums and each other."""

import importlib
import inspect
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phasorfield
from phasorfield import (
    CuboidGrid,
    ExplicitVoxels,
    FrequencySlices,
    FrustumGrid,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    Scatterer,
    Scene,
    TransientMeasurement,
    ValidationError,
    VoxelPlane,
    oracle,
    spectral,
    write_dataset,
)
from phasorfield.core import PROPAGATION_SIGN, SPEED_OF_LIGHT, UniformGrid3D
from phasorfield.metrics import ncc
from phasorfield.reconstruct import (
    _ALGORITHMS,
    _ANCHOR_EVERY,
    _depth_node_count,
    _depth_sweep,
    _kernel_spectrum,
    _pad_size,
    _phases,
    _plan,
    _wavenumbers,
)
from phasorfield.spectral import next_fast_len
from phasorfield.reconstruct import ALGORITHM_NAMES, project_max_depth, reconstruct

from helpers import (
    TRANSFORMS,
    centered_grid2d,
    centered_relay,
    make_slices,
    rel_l2,
    rel_linf,
    two_scatterer_slices,
)

EPS = 1e-8
CHAIN_TOL = 1e-7


# ---------------------------------------------------------------------------
# Shared instances (16x16 relay for the literal check, 8x8 for the chain)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def slices16():
    return two_scatterer_slices()


@pytest.fixture(scope="module")
def grid16_small():
    # pitch matches the relay; origins sit on the relay lattice
    return CuboidGrid(UniformGrid3D(4, 3, 2, 0.02, 0.02, 0.1, -0.03, -0.01, 0.85))


def _plane_points(grid2d):
    xx, yy = np.meshgrid(grid2d.x_coords(), grid2d.y_coords())
    return PointList(np.column_stack([xx.ravel(), yy.ravel()]))


@pytest.fixture(scope="module")
def chain():
    """The same physical capture observed through every relay container."""
    relay_u = centered_relay(8, 0.02)
    xy = relay_u.coordinates()[:, :2]
    relay_p = NonUniformPlanarRelay(PointList(xy), z=0.0)
    relay_3 = NonPlanarRelay(PointList(np.column_stack([xy, np.zeros(len(xy))])))
    ill2 = PointList(np.array([[0.0, 0.0], [0.05, -0.03]]))
    ill3 = PointList(np.array([[0.0, 0.0, 0.0], [0.05, -0.03, 0.0]]))
    return {
        "uniform": two_scatterer_slices(relay=relay_u),
        "planar": two_scatterer_slices(relay=relay_p, illuminations=ill2),
        "scattered": two_scatterer_slices(relay=relay_3, illuminations=ill3),
        "relay": relay_u,
    }


@pytest.fixture(scope="module")
def chain_grid():
    # full relay footprint so the frustum base can coincide with the relay
    return CuboidGrid(UniformGrid3D(8, 8, 2, 0.02, 0.02, 0.08, -0.07, -0.07, 0.86))


@pytest.fixture(scope="module")
def chain_reference(chain, chain_grid):
    return reconstruct(chain["uniform"], chain_grid, "rsd").field


def _cuboid_at(z0):
    """The chain's 8x8 lattice, two planes from depth ``z0``."""
    return CuboidGrid(UniformGrid3D(8, 8, 2, 0.02, 0.02, 0.08, -0.07, -0.07, z0))


def _lit_from(slices, source):
    """``slices``' first illumination's coefficients, lit from ``source`` instead."""
    return FrequencySlices(slices.frequencies, slices.coefficients[:1], slices.relay,
                           PointList(np.array([source])))


# ---------------------------------------------------------------------------
# Exactness against the literal per-voxel sum
# ---------------------------------------------------------------------------


class TestRsdExactness:
    def test_matches_literal_sum(self, slices16, grid16_small):
        vol = reconstruct(slices16, grid16_small, "rsd")
        direct = oracle.literal_field(slices16, grid16_small.coordinates())
        assert rel_linf(vol.field, direct) < 1e-10
        assert vol.grid is grid16_small and vol.n_frames == 1

    def test_detection_only_variant(self, slices16, grid16_small):
        vol = reconstruct(slices16, grid16_small, "rsd", include_illumination=False)
        direct = oracle.literal_field(slices16, grid16_small.coordinates(),
                                      include_illumination=False)
        assert rel_linf(vol.field, direct) < 1e-10

    def test_scaled_grid_recovers_what_the_unpadded_grid_misses(self):
        # a scatterer beyond the relay footprint: the unpadded propagation
        # cannot even represent its position, while a half-scale frustum
        # plane covers it
        relay = centered_relay(16, 0.02)
        scene = Scene((Scatterer((0.25, 0.0, 0.5)),))
        ill = PointList(np.array([[0.0, 0.0]]))
        slices = make_slices(scene, relay, ill, lambda_c=0.04, n_bins=2048)

        frustum = FrustumGrid(centered_grid2d(16, 0.02), np.array([0.5]),
                              np.array([0.5]), np.array([0.5]))
        svol = reconstruct(slices, frustum, "srsd")
        xs, ys = frustum.plane_xy(0)
        xx, yy = np.meshgrid(xs, ys)
        flat = int(np.argmax(np.abs(svol.field)))
        err = np.hypot(xx.ravel()[flat] - 0.25, yy.ravel()[flat])
        assert err <= 0.09  # a couple of scaled voxels

        unpadded_grid = CuboidGrid(UniformGrid3D(16, 16, 1, 0.02, 0.02, 0.1,
                                                 -0.15, -0.15, 0.5))
        uvol = reconstruct(slices, unpadded_grid, "rsd", padding="none")
        coords = unpadded_grid.coordinates()
        peak = coords[int(np.argmax(np.abs(uvol.field)))]
        assert np.hypot(peak[0] - 0.25, peak[1]) > 0.09

    def test_repeat_and_threaded_runs_are_bit_identical(self, slices16, grid16_small):
        a = reconstruct(slices16, grid16_small, "rsd")
        b = reconstruct(slices16, grid16_small, "rsd")
        c = reconstruct(slices16, grid16_small, "rsd", threads=4)
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.field, c.field)


class TestRsdValidation:
    def test_rejects_foreign_pitch(self, slices16):
        grid = CuboidGrid(UniformGrid3D(4, 4, 1, 0.03, 0.02, 0.1, -0.03, -0.01, 0.9))
        with pytest.raises(ValidationError, match="pitch"):
            reconstruct(slices16, grid, "rsd")

    def test_rejects_off_lattice_origin(self, slices16):
        grid = CuboidGrid(UniformGrid3D(4, 4, 1, 0.02, 0.02, 0.1, -0.025, -0.01, 0.9))
        with pytest.raises(ValidationError, match="origin"):
            reconstruct(slices16, grid, "rsd")

    def test_rejects_voxels_behind_the_relay(self, slices16):
        grid = CuboidGrid(UniformGrid3D(4, 4, 2, 0.02, 0.02, 0.1, -0.03, -0.01, -0.05))
        with pytest.raises(ValidationError, match="beyond the relay"):
            reconstruct(slices16, grid, "rsd")

    def test_unpadded_needs_coinciding_lattice(self, slices16, grid16_small):
        with pytest.raises(ValidationError, match="padding="):
            reconstruct(slices16, grid16_small, "rsd", padding="none")

    def test_rejects_unknown_padding(self, slices16, grid16_small):
        with pytest.raises(ValidationError, match="padding"):
            reconstruct(slices16, grid16_small, "rsd", padding="wrap")

    def test_rejects_wrong_grid_kind(self, slices16):
        ev = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),))
        with pytest.raises(ValidationError, match="cuboid"):
            reconstruct(slices16, ev, "rsd")

    def test_rejects_non_uniform_relay(self, chain, grid16_small):
        with pytest.raises(ValidationError):
            reconstruct(chain["planar"], grid16_small, "rsd")

    def test_rejects_bad_times_shape(self, slices16, grid16_small):
        with pytest.raises(ValidationError, match="times"):
            reconstruct(slices16, grid16_small, "rsd", times=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Degeneracy chain: every algorithm collapses to rsd on its degenerate input
# ---------------------------------------------------------------------------


class TestDegeneracyChain:
    def test_srsd_with_unit_scales(self, chain, chain_grid, chain_reference):
        base = centered_grid2d(8, 0.02)
        frustum = FrustumGrid(base, np.array([0.86, 0.94]),
                              np.ones(2), np.ones(2))
        vol = reconstruct(chain["uniform"], frustum, "srsd")
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd1_with_gridded_points(self, chain, chain_grid, chain_reference):
        vol = reconstruct(chain["planar"], chain_grid, "nursd1", eps=EPS)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd2_with_gridded_voxels(self, chain, chain_grid, chain_reference):
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        vol = reconstruct(chain["uniform"], ExplicitVoxels(planes), "nursd2", eps=EPS)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd3_with_everything_on_grid(self, chain, chain_grid, chain_reference):
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        vol = reconstruct(chain["planar"], ExplicitVoxels(planes), "nursd3", eps=EPS,
                          lattice_pitch=0.02)
        assert rel_linf(vol.field, chain_reference) < 2 * CHAIN_TOL

    def test_scaled_scatter_hybrid_with_unit_scale(self, chain, chain_grid,
                                                   chain_reference):
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        vol = reconstruct(chain["uniform"], ExplicitVoxels(planes), "srsd-nursd2",
                          alpha=1.0, eps=EPS)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd3d_with_flat_relay_delegates(self, chain, chain_grid):
        flat = reconstruct(chain["scattered"], chain_grid, "nursd3d", eps=EPS)
        planar = reconstruct(chain["planar"], chain_grid, "nursd1", eps=EPS)
        assert np.array_equal(flat.field, planar.field)

    def test_rsd3d_scatter_modes_agree_on_lattice_points(self, chain, chain_grid):
        # the flat relay sits exactly on the 3D deposit lattice, so nearest
        # and trilinear scattering deposit identically
        tri = reconstruct(chain["scattered"], chain_grid, "rsd3d", scatter="trilinear")
        near = reconstruct(chain["scattered"], chain_grid, "rsd3d", scatter="nearest")
        assert np.array_equal(tri.field, near.field)

    def test_rsd3d_tracks_the_planar_reference(self, chain, chain_grid,
                                               chain_reference):
        vol = reconstruct(chain["scattered"], chain_grid, "rsd3d")
        assert ncc(vol.field, chain_reference) > 0.9


# ---------------------------------------------------------------------------
# Remaining validation paths
# ---------------------------------------------------------------------------


class TestAlgorithmValidation:
    def test_srsd_requires_base_on_relay_lattice(self, chain):
        base = centered_grid2d(6, 0.02)  # wrong side length
        frustum = FrustumGrid(base, np.array([0.9]), np.ones(1), np.ones(1))
        with pytest.raises(ValidationError, match="base"):
            reconstruct(chain["uniform"], frustum, "srsd")

    def test_srsd_rejects_cuboid(self, chain, chain_grid):
        with pytest.raises(ValidationError, match="frustum"):
            reconstruct(chain["uniform"], chain_grid, "srsd")

    def test_nursd1_requires_scattered_planar_relay(self, chain, chain_grid):
        with pytest.raises(ValidationError):
            reconstruct(chain["uniform"], chain_grid, "nursd1")

    def test_nursd2_rejects_cuboid(self, chain, chain_grid):
        with pytest.raises(ValidationError, match="explicit"):
            reconstruct(chain["uniform"], chain_grid, "nursd2")

    def test_nursd3_rejects_bad_lattice_pitch(self, chain):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="pitch"):
            reconstruct(chain["planar"], ExplicitVoxels(planes), "nursd3", lattice_pitch=0.0)

    @pytest.mark.parametrize("pitch", [np.inf, np.nan])
    def test_nursd3_rejects_non_finite_lattice_pitch(self, chain, pitch):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="lattice pitch must be finite"):
            reconstruct(chain["planar"], ExplicitVoxels(planes), "nursd3", lattice_pitch=pitch)

    def test_lattices_too_large_to_index_are_refused(self, chain):
        far = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[1e300, 0.0],
                                                                  [0.0, 0.0]]))),))
        near = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[0.01, 0.0]]))),))
        cuboid = CuboidGrid(UniformGrid3D(4, 4, 1, 0.02, 0.02, 0.1, 1e300, -0.07, 0.9))
        runs = [lambda: reconstruct(chain["uniform"], far, "nursd2"),
                lambda: reconstruct(chain["planar"], far, "nursd3"),
                lambda: reconstruct(chain["planar"], near, "nursd3", lattice_pitch=1e-300),
                lambda: reconstruct(chain["uniform"], far, "srsd-nursd2", alpha=0.5),
                lambda: reconstruct(chain["planar"], cuboid, "nursd1"),
                lambda: reconstruct(chain["uniform"], cuboid, "rsd")]
        for run in runs:
            with pytest.raises(ValidationError, match="pitches"):
                run()

    def test_overflowing_phases_are_refused_before_any_transform(self, chain, chain_grid,
                                                                   no_transforms):
        explicit = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[0.0, 0.0],
                                                                       [0.01, 0.02]]))),))
        frustum = FrustumGrid.linear(centered_grid2d(8, 0.02), [0.9, 1.0], alpha0=1e-300)
        s = chain["uniform"]
        runs = [(lambda: reconstruct(s, explicit, "srsd-nursd2", alpha=1e-300),
                 "plane at z = 0.9:"),
                (lambda: reconstruct(s, frustum, "srsd"), "plane at z = 0.9:"),
                (lambda: reconstruct(s, _cuboid_at(1e300), "rsd"), "plane at z = 1e+300:"),
                (lambda: reconstruct(s, _cuboid_at(1e160), "rsd"), "plane at z = 1e+160:"),
                (lambda: reconstruct(_lit_from(s, [1e200, 0.0]), chain_grid, "rsd"),
                 "too far from the illumination")]
        for run, named in runs:
            with pytest.raises(ValidationError, match=re.escape(named)):
                run()

    def test_far_illumination_is_refused_only_where_its_phase_is_used(self, chain,
                                                                      chain_grid):
        far, near = (reconstruct(_lit_from(chain["uniform"], xy), chain_grid, "rsd",
                                 include_illumination=False)
                     for xy in ([1e200, 0.0], [0.0, 0.0]))
        assert np.array_equal(far.field, near.field)

    @pytest.mark.parametrize("times, message", [
        ([np.nan], "frame times must be finite"),
        ([0.0, np.inf], "frame times must be finite"),
        ([], "frame times must be a nonempty vector"),
        ([[0.0, 1e-9]], "frame times must be a nonempty vector"),
        ([0.0, 1e300], "frame times up to 1e+300 s"),
    ])
    def test_frame_times_are_checked_before_any_transform(self, chain, chain_grid,
                                                          no_transforms, times, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            reconstruct(chain["uniform"], chain_grid, "rsd", times=times)
        with pytest.raises(ValidationError, match=re.escape(message)):
            reconstruct(chain["planar"], chain_grid, "nursd1", times=times)

    def test_hybrid_rejects_out_of_range_scale(self, chain):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="scale"):
            reconstruct(chain["uniform"], ExplicitVoxels(planes), "srsd-nursd2", alpha=1.5)

    def test_rsd3d_rejects_unknown_scatter(self, chain, chain_grid):
        with pytest.raises(ValidationError, match="scatter"):
            reconstruct(chain["scattered"], chain_grid, "rsd3d", scatter="cubic")

    def test_rsd3d_depth_floor_names_the_limit(self, rippled):
        # The ripple's deepest detection sits at z = 0.02: a plane there or
        # before it is refused by both 3-D paths, one beyond it is not.
        for z0 in (0.02, 0.01, -0.05):
            grid = CuboidGrid(UniformGrid3D(8, 8, 2, 0.02, 0.02, 0.1, -0.07, -0.07, z0))
            for name in ("rsd3d", "nursd3d"):
                with pytest.raises(ValidationError, match=r"deepest detection \(z > 0.02\)"):
                    reconstruct(rippled, grid, name)
        grid = CuboidGrid(UniformGrid3D(8, 8, 1, 0.02, 0.02, 0.1, -0.07, -0.07, 0.03))
        assert np.isfinite(reconstruct(rippled, grid, "nursd3d").field).all()

    def test_nursd3d_requires_scattered_3d_relay(self, chain, chain_grid):
        with pytest.raises(ValidationError):
            reconstruct(chain["uniform"], chain_grid, "nursd3d")


# ---------------------------------------------------------------------------
# Dispatcher and names
# ---------------------------------------------------------------------------


class TestDispatcher:
    def test_name_table(self):
        assert ALGORITHM_NAMES == ("rsd", "srsd", "nursd1", "nursd2", "nursd3",
                                   "rsd3d", "nursd3d", "srsd-nursd2")

    def test_case_and_separator_normalization(self, chain, chain_grid,
                                              chain_reference):
        vol = reconstruct(chain["uniform"], chain_grid, "RSD")
        assert np.array_equal(vol.field, chain_reference)
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        a = reconstruct(chain["uniform"], ExplicitVoxels(planes),
                        "srsd_nursd2", alpha=1.0, eps=EPS)
        b = reconstruct(chain["uniform"], ExplicitVoxels(planes),
                        "SRSD-NURSD2", alpha=1.0, eps=EPS)
        assert np.array_equal(a.field, b.field)

    def test_hybrid_requires_alpha(self, chain):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="alpha"):
            reconstruct(chain["uniform"], ExplicitVoxels(planes), "srsd-nursd2")

    def test_unknown_algorithm(self, chain, chain_grid):
        for name in ("fbp", None, 3):
            with pytest.raises(ValidationError, match=f"^unknown algorithm {name!r}; choose"):
                reconstruct(chain["uniform"], chain_grid, name)

    def test_reconstruct_is_the_one_way_in(self):
        recon = sys.modules["phasorfield.reconstruct"]
        for name in ("rsd", "srsd", "nursd1", "nursd2", "nursd3", "rsd3d", "nursd3d",
                     "srsd_nursd2", "light_transport_video"):
            assert not hasattr(phasorfield, name) and not hasattr(recon, name)
        assert recon.__all__ == ["reconstruct", "project_max_depth", "ALGORITHM_NAMES"]


# ---------------------------------------------------------------------------
# The table: kinds checked before any transform, plans built from geometry alone
# ---------------------------------------------------------------------------


_ONTO = {"rsd": "a cuboid grid", "srsd": "a frustum grid", "nursd1": "a cuboid grid",
         "nursd2": "explicit voxels", "nursd3": "explicit voxels", "rsd3d": "a cuboid grid",
         "nursd3d": "a cuboid grid", "srsd-nursd2": "explicit voxels"}
_NEEDS = {"uniform": "this algorithm needs detections on a uniform relay grid",
          "planar": "this algorithm needs scattered detections on a single plane",
          "scattered": "this algorithm needs detections scattered in 3D"}
_KINDS = {"rsd": ("cuboid", "uniform"), "srsd": ("frustum", "uniform"),
          "nursd1": ("cuboid", "planar"), "nursd2": ("explicit", "uniform"),
          "nursd3": ("explicit", "planar"), "rsd3d": ("cuboid", "scattered"),
          "nursd3d": ("cuboid", "scattered"), "srsd-nursd2": ("explicit", "uniform")}
_OPTIONS = {"srsd-nursd2": {"alpha": 0.8}}


@pytest.fixture(scope="module")
def kind_grids(chain_grid):
    planes = tuple(VoxelPlane(z, PointList(np.array([[0.0, 0.0], [0.013, -0.02]])))
                   for z in (0.86, 0.94))
    return {"cuboid": chain_grid, "explicit": ExplicitVoxels(planes),
            "frustum": FrustumGrid.linear(centered_grid2d(8, 0.02), [0.86, 0.94], alpha0=0.8)}


def _run(name, slices, grid):
    """``reconstruct`` under ``name`` with the options it cannot do without."""
    return reconstruct(slices, grid, name, **_OPTIONS.get(name, {}))


class TestKindMismatches:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_wrong_grid_kind_is_named(self, chain, kind_grids, no_transforms, name):
        grid_kind, relay_kind = _KINDS[name]
        for kind, grid in kind_grids.items():
            if kind != grid_kind:
                with pytest.raises(ValidationError,
                                   match=f"^{re.escape(name)} reconstructs onto {_ONTO[name]}$"):
                    _run(name, chain[relay_kind], grid)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_wrong_relay_kind_is_named(self, chain, kind_grids, no_transforms, name):
        grid_kind, relay_kind = _KINDS[name]
        for kind in _NEEDS:
            if kind != relay_kind:
                with pytest.raises(ValidationError, match=f"^{_NEEDS[relay_kind]}$"):
                    _run(name, chain[kind], kind_grids[grid_kind])

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_the_grid_kind_is_checked_before_the_relay_kind(self, chain, kind_grids,
                                                            no_transforms, name):
        grid_kind, relay_kind = _KINDS[name]
        grid = next(g for k, g in kind_grids.items() if k != grid_kind)
        slices = next(chain[k] for k in _NEEDS if k != relay_kind)
        with pytest.raises(ValidationError, match="reconstructs onto"):
            _run(name, slices, grid)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_every_fft_of_a_run_is_inside_a_refused_transform(chain, kind_grids, monkeypatch,
                                                          name):
    """So ``no_transforms`` misses none: with its names passed through, a run
    reaches NumPy's FFTs only from inside one of them."""
    rec = importlib.import_module("phasorfield.reconstruct")
    depth, stray = [0], []

    def inside(transform):
        def passed(*args, **kwargs):
            depth[0] += 1
            try:
                return transform(*args, **kwargs)
            finally:
                depth[0] -= 1
        return passed

    def watched(fft, fft_name):
        def call(*args, **kwargs):
            if depth[0] == 0:
                stray.append(fft_name)
            return fft(*args, **kwargs)
        return call

    for transform in TRANSFORMS:
        monkeypatch.setattr(rec, transform, inside(getattr(rec, transform)))
    for fft_name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, fft_name, watched(getattr(np.fft, fft_name), fft_name))
    grid_kind, relay_kind = _KINDS[name]
    assert np.isfinite(_run(name, chain[relay_kind], kind_grids[grid_kind]).field).all()
    assert stray == []


# The options each algorithm takes: 11 of the 48 (algorithm, option) pairs.
_TAKES = {"rsd": {"padding"}, "srsd": set(), "nursd1": {"eps"}, "nursd2": {"eps"},
          "nursd3": {"eps", "lattice_pitch"}, "rsd3d": {"eps", "scatter"}, "nursd3d": {"eps"},
          "srsd-nursd2": {"eps", "alpha", "beta"}}
# A value for each option, its default wherever it has one.
_VALUES = {"eps": 1e-6, "padding": "exact", "alpha": 0.8, "beta": None,
           "lattice_pitch": None, "scatter": "trilinear"}
_REFUSED = [(name, option) for name in ALGORITHM_NAMES for option in _VALUES
            if option not in _TAKES[name]]


class TestOptionTable:
    def test_the_table_accepts_exactly_the_algorithms_own_options(self):
        assert {name: set(row[2]) for name, row in _ALGORITHMS.items()} == _TAKES
        assert sum(map(len, _TAKES.values())) == 11 and len(_REFUSED) == 37

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_every_listed_option_is_a_parameter_of_the_planner(self, name):
        # So the table cannot pass an option the planner would refuse with a
        # TypeError.
        planner = inspect.signature(_ALGORITHMS[name][3]).parameters
        assert all(p.kind is not p.VAR_KEYWORD for p in planner.values())
        for option in _ALGORITHMS[name][2]:
            assert option in planner

    @pytest.mark.parametrize("name, option", _REFUSED)
    def test_an_option_the_algorithm_does_not_take_is_refused(self, chain, kind_grids,
                                                              no_transforms, name, option):
        grid_kind, relay_kind = _KINDS[name]
        slices, grid = chain[relay_kind], kind_grids[grid_kind]
        options = {**_OPTIONS.get(name, {}), option: _VALUES[option]}
        takes = ", ".join(_ALGORITHMS[name][2]) or "none"
        message = f"^{re.escape(f'{name} takes no option {option}; it takes {takes}')}$"
        with pytest.raises(ValidationError, match=message):
            reconstruct(slices, grid, name, **options)
        with pytest.raises(ValidationError, match=message):
            reconstruct(slices, grid, name, times=[0.0], **options)

    def test_the_refusal_names_what_the_algorithm_takes(self, chain, kind_grids,
                                                       chain_grid, no_transforms):
        runs = [(lambda: reconstruct(chain["uniform"], kind_grids["frustum"], "srsd",
                                     alpha=0.5), "srsd takes no option alpha; it takes none"),
                (lambda: reconstruct(chain["scattered"], chain_grid, "RSD3D", padding="none"),
                 "rsd3d takes no option padding; it takes eps, scatter"),
                (lambda: reconstruct(chain["uniform"], chain_grid, "rsd", foo=1),
                 "rsd takes no option foo; it takes padding"),
                # before the kinds: neither the grid nor the relay suits nursd2
                (lambda: reconstruct(chain["planar"], chain_grid, "nursd2", padding="none"),
                 "nursd2 takes no option padding; it takes eps")]
        for run, message in runs:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                run()


def _geometry(slices):
    return slices.relay, slices.illuminations, slices.frequencies


class TestPlan:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_planes_follow_the_grid_without_coefficients(self, chain, kind_grids, rippled,
                                                         no_transforms, name):
        grid_kind, relay_kind = _KINDS[name]
        slices = rippled if relay_kind == "scattered" else chain[relay_kind]
        grid = kind_grids[grid_kind]
        plan = _plan(name, *_geometry(slices), grid, **_OPTIONS.get(name, {}))
        depth = grid.depth_planes()
        assert [pl.z for pl in plan.planes] == [z for z, _, _ in depth]
        for pl, (_, x, y) in zip(plan.planes, depth):
            assert np.array_equal(pl.x, x) and np.array_equal(pl.y, y)
        assert plan.grid is grid and plan.illuminations.shape == (2, 3)

    def test_rsd_pads_to_every_lag_unless_told_not_to(self, chain, no_transforms):
        g = chain["relay"].grid
        grid = CuboidGrid(UniformGrid3D(3, 5, 2, 0.02, 0.02, 0.08, 0.05, -0.11, 0.86))
        plan = _plan("rsd", *_geometry(chain["uniform"]), grid)
        nu0x, nu0y = round((0.05 - g.center()[0]) / g.dx), round((-0.11 - g.center()[1]) / g.dy)
        jx, jy = np.arange(8) - 4, np.arange(8) - 4
        assert plan.shape == (_pad_size(jy, nu0y + np.arange(5), 8),
                              _pad_size(jx, nu0x + np.arange(3), 8))
        bare = _plan("rsd", *_geometry(chain["uniform"]), _cuboid_at(0.86), padding="none")
        assert bare.shape == (g.ny, g.nx)

    def test_srsd_doubles_the_relay_and_scales_each_plane(self, chain, kind_grids,
                                                          no_transforms):
        frustum = kind_grids["frustum"]
        plan = _plan("srsd", *_geometry(chain["uniform"]), frustum)
        assert plan.shape == (next_fast_len(16), next_fast_len(16))
        assert [pl.scale for pl in plan.planes] == list(zip(frustum.alphas.tolist(),
                                                            frustum.betas.tolist()))

    def test_srsd_encodes_the_bare_relay(self, chain, kind_grids):
        slices, g = chain["uniform"], chain["relay"].grid
        plan = _plan("srsd", *_geometry(slices), kind_grids["frustum"])
        encoded = plan.encode(slices.coefficients)
        n_ill, _, n_freq = slices.coefficients.shape
        assert np.shape(encoded) == (n_ill, 1, n_freq, g.ny, g.nx)
        assert np.array_equal(encoded[:, 0].reshape(n_ill, n_freq, -1),
                              np.swapaxes(slices.coefficients, 1, 2))

    def test_srsd_adds_at_most_two_scaled_fft_plans_per_plane(self, chain):
        frustum = FrustumGrid.linear(centered_grid2d(8, 0.02), [0.86, 0.9, 0.94, 0.98],
                                     alpha0=0.7, beta0=0.6)
        spectral._sfft_plan.cache_clear()
        reconstruct(chain["uniform"], frustum, "srsd")
        info = spectral._sfft_plan.cache_info()
        assert info.misses <= 2 * 4 and info.currsize <= 2 * 4

    @pytest.mark.parametrize("name", ["nursd1", "nursd2", "nursd3", "nursd3d", "srsd-nursd2"])
    @pytest.mark.parametrize("eps", [0.5, 1e-20])
    def test_a_nufft_eps_out_of_range_is_refused_while_planning(self, chain, kind_grids, rippled,
                                                               no_transforms, name, eps):
        grid_kind, relay_kind = _KINDS[name]
        slices = rippled if relay_kind == "scattered" else chain[relay_kind]
        with pytest.raises(ValidationError,
                           match=f"^{re.escape('accuracy target must lie in [1e-13, 0.1]')}$"):
            reconstruct(slices, kind_grids[grid_kind], name, eps=eps, **_OPTIONS.get(name, {}))

    def test_nursd3d_takes_one_depth_node_only_on_a_flat_relay(self, chain, chain_grid,
                                                              rippled, no_transforms):
        flat = _plan("nursd3d", *_geometry(chain["scattered"]), chain_grid)
        rippling = _plan("nursd3d", *_geometry(rippled), chain_grid)
        assert all(len(pl.dz) == 1 for pl in flat.planes)
        assert all(len(pl.dz) > 1 for pl in rippling.planes)

    @settings(max_examples=50, deadline=None)
    @given(w_max=st.floats(1e9, 1e12))
    def test_nursd3_pitch_defaults_to_half_the_shortest_wavelength(self, chain, w_max):
        freqs = np.array([w_max / 2, w_max])
        sl = FrequencySlices(freqs, np.zeros((2, 64, 2), complex), chain["planar"].relay,
                             chain["planar"].illuminations)
        voxels = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),))
        plan = _plan("nursd3", *_geometry(sl), voxels)
        assert plan.planes[0].pitch == (sl.shortest_wavelength / 2.0,) * 2


# ---------------------------------------------------------------------------
# Time-resolved rendering
# ---------------------------------------------------------------------------


class TestLightTransportVideo:
    def test_time_zero_frame_is_the_static_field(self, slices16, grid16_small):
        static = reconstruct(slices16, grid16_small, "rsd")
        vid = reconstruct(slices16, grid16_small, "rsd",
                          times=np.array([0.0, 1.0e-9]))
        assert vid.n_frames == 2
        assert np.array_equal(vid.frame(0), static.frame(0))
        assert not np.array_equal(vid.frame(1), static.frame(0))
        assert np.allclose(vid.times, [0.0, 1.0e-9])

    def test_time_zero_frame_for_scaled_variant(self, chain):
        base = centered_grid2d(8, 0.02)
        frustum = FrustumGrid(base, np.array([0.86, 0.94]),
                              np.full(2, 0.8), np.full(2, 0.8))
        static = reconstruct(chain["uniform"], frustum, "srsd")
        vid = reconstruct(chain["uniform"], frustum, "srsd",
                          times=np.array([0.0]))
        assert np.array_equal(vid.frame(0), static.frame(0))

    def test_detection_only_peak_at_illumination_flight_time(self):
        relay = centered_relay(8, 0.02)
        scene = Scene((Scatterer((0.01, 0.01, 1.0)),))
        ill = PointList(np.array([[0.0, 0.0]]))
        slices = make_slices(scene, relay, ill, lambda_c=0.04, n_bins=2048)
        grid = CuboidGrid(UniformGrid3D(1, 1, 1, 0.02, 0.02, 0.05,
                                        0.01, 0.01, 1.0))
        r_ill = np.linalg.norm([0.01, 0.01, 1.0])
        t_star = r_ill / SPEED_OF_LIGHT
        times = np.linspace(t_star - 0.5e-9, t_star + 0.5e-9, 21)
        vid = reconstruct(slices, grid, "rsd", times=times,
                          include_illumination=False)
        peak = int(np.argmax(np.abs(vid.field[:, 0])))
        assert abs(peak - 10) <= 1

    def test_the_volume_adopts_the_frames_without_a_copy(self, chain):
        # 400 frames on an 8x8x8 cuboid: the 3.3 MB of frames dominate, and
        # a copy of them into the volume would double the peak.
        grid = CuboidGrid(UniformGrid3D(8, 8, 8, 0.02, 0.02, 0.01, -0.07, -0.07, 0.86))
        tracemalloc.start()
        try:
            vid = reconstruct(chain["uniform"], grid, "rsd", times=np.linspace(0.0, 1e-9, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vid.field.nbytes == 400 * grid.count * 16
        assert peak < 1.5 * vid.field.nbytes + 2**18

    @pytest.mark.parametrize("algorithm", ["nursd1", "nursd3"])
    def test_time_zero_frame_for_point_sampled_paths(self, chain, chain_grid, algorithm):
        grid = chain_grid if algorithm == "nursd1" else ExplicitVoxels(
            (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0], [0.013, -0.02]]))),))
        static = reconstruct(chain["planar"], grid, algorithm)
        vid = reconstruct(chain["planar"], grid, algorithm, times=np.array([0.0]))
        assert vid.n_frames == 1
        assert np.array_equal(vid.frame(0), static.frame(0))


# ---------------------------------------------------------------------------
# Projections and threading on the scattered paths
# ---------------------------------------------------------------------------


# Runs the algorithm named by its argument and prints whether SciPy was
# imported before the threads=3 run, whether that run imported it, and
# whether its field is bitwise the threads=1 field.
_FIRST_SCIPY_IMPORT_IN_POOL = """
import sys
import numpy as np
from phasorfield import (ExplicitVoxels, PointList, Scatterer, Scene, UniformRelay,
                         VoxelPlane, reconstruct)
from phasorfield.core import UniformGrid2D
from phasorfield.phasor import build_kernel, to_frequency
from phasorfield.sim import simulate

relay = UniformRelay(UniformGrid2D(8, 8, 0.02, 0.02, -0.07, -0.07))
m = simulate(Scene((Scatterer((0.01, 0.01, 0.9)),)), relay, PointList(np.array([[0.0, 0.0]])),
             delta_t=16e-12, n_bins=1024)
slices = to_frequency(m, build_kernel(0.04, 1024, 16e-12))
rng = np.random.default_rng(3)
voxels = ExplicitVoxels(tuple(
    VoxelPlane(z, PointList(rng.uniform(-0.08, 0.08, (9, 2)))) for z in (0.86, 0.94)))
algo = sys.argv[1]
options = {"alpha": 0.8} if algo == "srsd-nursd2" else {}
print("scipy" in sys.modules)
sys.setswitchinterval(1e-6)
pooled = reconstruct(slices, voxels, algo, threads=3, **options)
print("scipy.sparse" in sys.modules)
print(np.array_equal(pooled.field, reconstruct(slices, voxels, algo, threads=1, **options).field))
"""


# Prints the digests of srsd's static field and 3-frame video and of
# srsd-nursd2's static field on a 48x48 relay.  Its 96x96 lattice makes each
# frequency's y product of the scaled DFT (96 x 48 x 96 complex) large enough
# for OpenBLAS to split it across its threads.
_SCALED_DFT_DIGESTS = """
import hashlib
import numpy as np
from phasorfield import (ExplicitVoxels, FrustumGrid, PointList, Scatterer, Scene,
                         UniformRelay, VoxelPlane, reconstruct)
from phasorfield.core import UniformGrid2D
from phasorfield.phasor import build_kernel, to_frequency
from phasorfield.sim import simulate

base = UniformGrid2D(48, 48, 0.01, 0.01, -0.235, -0.235)
m = simulate(Scene((Scatterer((0.02, -0.01, 0.9)), Scatterer((-0.05, 0.04, 0.95), 0.7))),
             UniformRelay(base), PointList(np.array([[0.0, 0.0]])), delta_t=16e-12, n_bins=512)
slices = to_frequency(m, build_kernel(0.04, 512, 16e-12))
frustum = FrustumGrid.linear(base, [0.88, 0.92, 0.96], alpha0=0.7, beta0=0.6)
rng = np.random.default_rng(5)
voxels = ExplicitVoxels(tuple(
    VoxelPlane(z, PointList(rng.uniform(-0.3, 0.3, (40, 2)))) for z in (0.88, 0.94)))
for grid, algo, options in [(frustum, "srsd", {}),
                            (frustum, "srsd", {"times": np.array([0.0, 1e-9, 2e-9])}),
                            (voxels, "srsd-nursd2", {"alpha": 0.7, "eps": 1e-8})]:
    field = reconstruct(slices, grid, algo, **options).field
    print(hashlib.sha256(np.ascontiguousarray(field).tobytes()).hexdigest())
"""


# Prints the digest of the coefficients of each dataset and virtual wavelength.
_PROJECTION_DIGESTS = """
import hashlib, sys
from phasorfield.phasor import read_frequency_slices

for path, lambda_c in zip(sys.argv[1::2], sys.argv[2::2]):
    slices = read_frequency_slices(path, float(lambda_c))
    print(hashlib.sha256(slices.coefficients.tobytes()).hexdigest())
"""


class TestMisc:
    def test_project_max_depth(self, slices16, grid16_small):
        vol = reconstruct(slices16, grid16_small, "rsd")
        img = project_max_depth(vol)
        assert img.shape == (3, 4)
        assert np.array_equal(img, np.abs(vol.as_array3d()).max(axis=0))

    # F = 16: two, three and four workers start blocks at 8; at 6 and 11; and
    # at 4, 8 and 12, each relative to the phase anchors in its own way.  At
    # sixteen every block holds one frequency, so on a one-voxel plane each
    # illumination product holds one value, which NumPy rounds differently
    # in place.  The video keeps each frequency's term apart, where the
    # static sum can hide a moved bit.  The static run adds each plane into
    # the field as the blocks finish it and the video reduces its terms after
    # the last plane, yet the video's t = 0 frame is the static field.
    @pytest.mark.parametrize("algo, threads, illumination, one_voxel", [
        pytest.param(algo, t, ill, one, id=(algo if (t, ill) == (3, True)
                     else f"{algo}-threads{t}" + ("" if ill else "-no-illumination"))
                     + ("-one-voxel" if one else ""))
        for algo in ("nursd1", "srsd", "rsd3d", "nursd3d", "rsd", "nursd2", "nursd3",
                     "srsd-nursd2")
        # srsd's frustum base must coincide with the relay lattice.
        for one in ((False,) if algo == "srsd" else (False, True))
        for t in (2, 3, 4, 16) for ill in (True, False)])
    def test_nufft_paths_are_thread_stable(self, chain, chain_grid, rippled, algo, threads,
                                           illumination, one_voxel):
        frustum = FrustumGrid.linear(centered_grid2d(8, 0.02), [0.86, 0.94], alpha0=0.8)
        rng = np.random.default_rng(3)
        cuboid, points = chain_grid, [rng.uniform(-0.08, 0.08, (9, 2)) for _ in range(2)]
        if one_voxel:  # one voxel per plane, on the relay lattice or off it
            cuboid = CuboidGrid(UniformGrid3D(1, 1, 2, 0.02, 0.02, 0.08, -0.03, 0.01, 0.86))
            points = [np.array([[0.013, -0.021]])] * 2
        voxels = ExplicitVoxels(tuple(
            VoxelPlane(z, PointList(xy)) for z, xy in zip((0.86, 0.94), points)))
        slices, grid, options = {
            "nursd1": (chain["planar"], cuboid, {"eps": EPS}),
            "srsd": (chain["uniform"], frustum, {}),
            "rsd3d": (rippled, cuboid, {}),
            "nursd3d": (rippled, cuboid, {"eps": EPS}),
            "rsd": (chain["uniform"], cuboid, {}),
            "nursd2": (chain["uniform"], voxels, {"eps": EPS}),
            "nursd3": (chain["planar"], voxels, {"eps": EPS}),
            "srsd-nursd2": (chain["uniform"], voxels, {"alpha": 0.8, "eps": EPS}),
        }[algo]

        def run(t, times):
            return reconstruct(slices, grid, algo, threads=t, times=times,
                               include_illumination=illumination, **options).field

        assert slices.n_freq == 16
        static, video = [], []
        for times, fields in ((None, static), (np.array([0.0, 1e-9, 2e-9]), video)):
            fields.append(run(1, times))
            # More workers than cores, switching as often as the interpreter allows.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                fields.append(run(threads, times))
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(*fields)
        assert all(np.array_equal(v[0], s) for v, s in zip(video, static))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_static_run_holds_no_per_frequency_volume(self, threads):
        # 16 frequencies onto 65,536 voxels: [F, voxels] terms would take
        # 16.8 MB.  A static run holds the field and a few [F, py, px]
        # lattice spectra (7.3 MB traced; the terms made it 23 MB).
        slices = two_scatterer_slices(relay=centered_relay(32, 0.02),
                                      illuminations=PointList(np.zeros((1, 2))))
        grid = CuboidGrid(UniformGrid3D(32, 32, 64, 0.02, 0.02, 0.01, -0.31, -0.31, 0.6))
        py, px = _plan("rsd", *_geometry(slices), grid).shape
        spectrum_bytes = slices.n_freq * py * px * 16
        reconstruct(slices, grid, "rsd", threads=threads)  # warm-up: FFT caches
        tracemalloc.start()
        try:
            vol = reconstruct(slices, grid, "rsd", threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert slices.n_freq == 16 and vol.field.nbytes == grid.count * 16
        assert peak <= vol.field.nbytes + 6 * spectrum_bytes < slices.n_freq * vol.field.nbytes

    # Scaled by 1e306, the first two frequencies overflow in the first block's
    # kernel product (to inf, or to nan on NumPy's baseline loops) and nufft2
    # refuses them; the later blocks wait for the first to add each plane
    # before them, and must be released.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("threads", [2, 4])
    def test_a_failing_thread_releases_the_others(self, chain, threads):
        sl = chain["uniform"]
        coefficients = sl.coefficients.copy()
        coefficients[..., :2] *= 1e306
        bad = FrequencySlices(sl.frequencies, coefficients, sl.relay, sl.illuminations)
        rng = np.random.default_rng(3)
        voxels = ExplicitVoxels(tuple(VoxelPlane(z, PointList(rng.uniform(-0.08, 0.08, (9, 2))))
                                      for z in (0.86, 0.94)))
        raised = []

        def run():
            try:
                reconstruct(bad, voxels, "nursd2", threads=threads)
            except ValidationError as e:
                raised.append(e)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(e) for e in raised] == ["coefficients must be finite"]

    @pytest.mark.parametrize("algo", ["nursd2", "srsd-nursd2"])
    def test_first_scipy_import_inside_the_pool(self, algo):
        # These two read their planes by NUFFT inside the workers, so in a
        # fresh interpreter the workers race to import SciPy.
        env = {**os.environ, "PYTHONPATH": str(Path(phasorfield.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", _FIRST_SCIPY_IMPORT_IN_POOL, algo],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True", "True"]

    @staticmethod
    def _digests_with_and_without_blas_threads(script, *args):
        """The digests ``script`` prints with BLAS's default threads and with one."""
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["PYTHONPATH"] = str(Path(phasorfield.__file__).parents[1])
        digests = []
        for extra in ({}, dict.fromkeys(blas, "1")):
            done = subprocess.run([sys.executable, "-c", script, *args],
                                  env={**env, **extra}, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout.split())
        return digests

    def test_scaled_dft_bytes_do_not_depend_on_blas_threads(self):
        # The scaled DFT is one matrix product per frequency and axis; BLAS
        # may split a product across its own threads, but no element's sum.
        digests = self._digests_with_and_without_blas_threads(_SCALED_DFT_DIGESTS)
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]

    def test_projection_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # read_frequency_slices projects groups of histograms by matrix
        # products.  1024 bins at 0.06 m keep 16 frequencies in products of
        # 16 histograms, and 600 histograms leave a group of 8.  4096 bins at
        # 0.04 m keep 95, in products of 2 histograms and 64 of their 190
        # columns, and 81 histograms leave one: as one product per histogram
        # OpenBLAS would split them across its threads and move their bits.
        rng = np.random.default_rng(11)
        args = []
        for n_bins, (n_illum, n_detect), lambda_c in [(1024, (2, 300), "0.06"),
                                                      (4096, (3, 27), "0.04")]:
            relay = NonUniformPlanarRelay(PointList(rng.uniform(-0.3, 0.3, (n_detect, 2))), 0.0)
            h = rng.poisson(3.0, (n_illum, n_detect, n_bins)).astype(np.float64)
            path = str(tmp_path / f"capture-{n_bins}.nls1")
            write_dataset(TransientMeasurement(relay, PointList(np.zeros((n_illum, 2))), h,
                                               16e-12, t0=1e-10), path)
            args += [path, lambda_c]
        digests = self._digests_with_and_without_blas_threads(_PROJECTION_DIGESTS, *args)
        assert len(digests[0]) == 2
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("threads", [0, -1, 2.7, "3", None, float("nan")])
    def test_threads_below_one_are_rejected(self, chain, chain_grid, threads):
        with pytest.raises(ValidationError, match="^threads must be an integer >= 1$"):
            reconstruct(chain["uniform"], chain_grid, "rsd", threads=threads)


@pytest.fixture(scope="module")
def rippled(chain):
    """Two illuminations on a relay that is not flat: a 0-2 cm ripple."""
    xy = chain["relay"].coordinates()[:, :2]
    relay = NonPlanarRelay(PointList(np.column_stack([xy, 0.01 * (np.arange(len(xy)) % 3)])))
    ill = PointList(np.array([[0.0, 0.0, 0.0], [0.05, -0.03, 0.01]]))
    return two_scatterer_slices(relay=relay, illuminations=ill)


_INDICES = hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-300.0, 300.0))


@settings(max_examples=200, deadline=None)
@given(src=_INDICES, dst=_INDICES, n_min=st.integers(1, 256))
def test_pad_size_holds_every_lag_and_index(src, dst, n_min):
    p = _pad_size(src, dst, n_min)
    assert p >= n_min
    lags = (dst[:, None] - src[None, :]).ravel()
    embedded = np.arange(n_min) - n_min // 2
    for v in (lags, -lags, src, -src, dst, -dst, embedded):
        assert v.min() >= -(p // 2) and v.max() < p - p // 2


@pytest.mark.parametrize("dst", [[0.0, 5e301], [0.0, np.inf], [0.0, 2.0 ** 31]])
def test_pad_size_refuses_a_span_it_cannot_index(dst):
    with pytest.raises(ValidationError, match="pitches"):
        _pad_size(np.array([-1.0, 1.0]), np.array(dst), 4)
    assert _pad_size(np.array([-1.0, 1.0]), np.array([0.0, 2.0 ** 20]), 4) > 2 ** 21


_KHAT = st.floats(1.0, 400.0)


def _bins(first: int, n: int, n_bins: int = 1024, delta_t: float = 16e-12) -> np.ndarray:
    """Angular frequencies of ``n`` consecutive DFT bins, as ``build_kernel`` computes them."""
    return 2.0 * np.pi * np.arange(first, first + n) / (n_bins * delta_t)


# Uniform bins, whose phase tables run the recurrence, or hand-built
# wavenumbers, mostly not uniform, which take a direct exp at every bin.
_KHATS = st.one_of(
    st.builds(lambda k0, dk, n: k0 + dk * np.arange(n), _KHAT, st.floats(0.1, 5.0),
              st.integers(1, 20)),
    hnp.arrays(np.float64, st.integers(1, 4), elements=_KHAT))


@settings(max_examples=150, deadline=None)
@given(px=st.integers(1, 120), py=st.integers(1, 120), dx=st.floats(1e-3, 0.1),
       dy=st.floats(1e-3, 0.1), dz=st.floats(1e-3, 3.0), khat=_KHATS,
       lo=st.integers(0, 19), size=st.integers(1, 20))
@example(px=1, py=1, dx=0.02, dy=0.02, dz=0.9, khat=np.array([100.0]), lo=0, size=1)
@example(px=2, py=1, dx=0.02, dy=0.03, dz=0.9, khat=np.array([50.0, 120.0]), lo=1, size=1)
@example(px=2, py=2, dx=0.013, dy=0.02, dz=0.5, khat=np.array([80.0]), lo=0, size=1)
@example(px=105, py=108, dx=0.02, dy=0.02, dz=0.8, khat=np.array([60.0, 90.0, 130.0]),
         lo=0, size=3)
@example(px=105, py=108, dx=0.02, dy=0.02, dz=0.8, khat=_bins(60, 16) / SPEED_OF_LIGHT,
         lo=6, size=5)
def test_kernel_spectrum_is_the_full_lattice_formulas_spectrum_unshifted(px, py, dx, dy, dz,
                                                                          khat, lo, size):
    kn = _wavenumbers(khat * SPEED_OF_LIGHT)
    lo %= khat.size
    block = slice(lo, min(khat.size, lo + size))
    lag_x = (np.arange(px) - px // 2) * dx
    lag_y = (np.arange(py) - py // 2) * dy
    r = np.sqrt(lag_x[None, :] ** 2 + lag_y[:, None] ** 2 + dz * dz)
    # The same phase table over the full lattice: the layout claim stays
    # bitwise, and test_phases_match_the_exact_exponential bounds the table.
    direct = _phases(kn, block, r) / r
    want = np.fft.ifftshift(spectral.cfft_n(direct, (-2, -1)), axes=(-2, -1))
    out = _kernel_spectrum(kn, block, (py, px), (dx, dy), dz)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()


def _exact_phases(k: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine of ``PROPAGATION_SIGN * k * r`` in long double, from the
    float64 ``k`` and ``r`` as given."""
    theta = (PROPAGATION_SIGN * k.astype(np.longdouble)[:, None]
             * r.astype(np.longdouble)[None, :])
    return np.cos(theta), np.sin(theta)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60,
                    reason="the reference needs a long double wider than float64")
@pytest.mark.parametrize("n", [1, 2, 16, 512])
@pytest.mark.parametrize("n_bins, delta_t, first", [(1024, 16e-12, 60), (1 << 16, 2e-12, 2000)])
def test_phases_match_the_exact_exponential(rng, n, n_bins, delta_t, first):
    # Uniform bins: anchors every _ANCHOR_EVERY bins, and the recurrence
    # between them, within eps*(k*r/2 + 2*every) + 2*dev*r of exp(s*1j*k*r).
    kn = _wavenumbers(_bins(first, n, n_bins, delta_t))
    assert kn.every == _ANCHOR_EVERY
    r = np.concatenate([rng.uniform(0.5, 3.0, 3000), rng.uniform(1e-3, 0.05, 200)])
    got = _phases(kn, slice(0, n), r)
    cos, sin = _exact_phases(kn.k, r)
    err = np.hypot((got.real - cos).astype(np.float64), (got.imag - sin).astype(np.float64))
    eps = np.finfo(np.float64).eps
    dev = np.abs(kn.k[0] + np.arange(n) * kn.dk - kn.k).max()
    bound = eps * (kn.k[:, None] * r / 2 + 2 * kn.every) + 2 * dev * r
    assert (err <= bound).all()
    assert err.max() < 1e-12


@pytest.mark.parametrize("shape", [(1,), (300,), (7, 9)])
def test_phases_of_bins_that_are_not_uniform_are_the_direct_exponential(rng, shape):
    r = rng.uniform(0.5, 3.0, shape)
    uneven = _bins(60, 16)
    uneven[5] *= 1 + 1e-12  # one bin 1e-12 off the line: far beyond _UNIFORM_TOL
    for w in (uneven, np.array([3e11, 5e11, 5.5e11, 9e11])):
        kn = _wavenumbers(w)
        assert kn.every == 1
        # One batched exp over every bin: the reference, bit for bit.
        k = (w / SPEED_OF_LIGHT).reshape((-1,) + (1,) * r.ndim)
        want = np.exp(PROPAGATION_SIGN * 1j * k * r)
        assert _phases(kn, slice(0, w.size), r).tobytes() == want.tobytes()
        assert _phases(kn, slice(2, 3), r).tobytes() == want[2:3].tobytes()


@pytest.mark.parametrize("shape", [(300,), (53, 53), (1,)])
def test_phase_rows_do_not_depend_on_the_block(rng, shape):
    # Every block of F = 16 bins, so every start relative to the anchors.
    kn = _wavenumbers(_bins(60, 16))
    r = rng.uniform(0.5, 3.0, shape)
    whole = _phases(kn, slice(0, 16), r)
    for lo in range(16):
        for hi in range(lo + 1, 17):
            assert _phases(kn, slice(lo, hi), r).tobytes() == whole[lo:hi].tobytes()


def _centred_field(plan, spectra, rows, cols):
    """Each plane's static field, illumination off, from the centred
    reference transforms: the illuminations' ``[M, F, py, px]`` centred relay
    spectra times each node's ``fftshift``-ed kernel spectrum, summed over
    nodes, read by ``cifft_n`` on the ``rows`` x ``cols`` window, summed over
    illuminations and then over frequencies from zero."""
    kn = _wavenumbers(plan.frequencies)
    block = slice(0, plan.frequencies.size)
    (py, px), planes = plan.shape, []
    for pl in plan.planes:
        ghats = [np.fft.fftshift(_kernel_spectrum(kn, block, plan.shape, pl.pitch, dz),
                                 axes=(-2, -1)) for dz in pl.dz]
        acc = None
        for uhat in spectra:
            spec = None
            for u, ghat in zip(uhat, ghats):
                spec = u * ghat if spec is None else spec + u * ghat
            full = spectral.cifft_n(spec, (-2, -1))[..., rows + py // 2, :]
            vals = full[..., cols + px // 2].reshape(len(spec), -1)
            acc = vals if acc is None else acc + vals
        field = np.zeros(acc.shape[1], dtype=np.complex128)
        for row in acc:
            field += row
        planes.append(field)
    return np.concatenate(planes)


def test_rsd_field_is_the_centred_transforms_field(slices16, grid16_small):
    # Spectra in FFT order end to end give the centred pipeline's bits.
    plan = _plan("rsd", slices16.relay, slices16.illuminations, slices16.frequencies,
                 grid16_small)
    g, vg, (py, px) = slices16.relay.grid, grid16_small.grid, plan.shape
    relay = np.swapaxes(slices16.coefficients, 1, 2).reshape(-1, slices16.n_freq, g.ny, g.nx)
    embedded = np.zeros(relay.shape[:2] + (py, px), dtype=np.complex128)
    oy, ox = py // 2 - g.ny // 2, px // 2 - g.nx // 2
    embedded[..., oy:oy + g.ny, ox:ox + g.nx] = relay
    cx, cy = g.center()
    y0, x0 = round((vg.y0 - cy) / g.dy), round((vg.x0 - cx) / g.dx)
    want = _centred_field(plan, [spectral.cfft_n(u, (-2, -1))[None] for u in embedded],
                          np.arange(y0, y0 + vg.ny), np.arange(x0, x0 + vg.nx))
    got = reconstruct(slices16, grid16_small, "rsd", include_illumination=False).field
    assert got.tobytes() == want.tobytes()


def test_nursd3d_field_is_the_centred_transforms_field(rippled, chain_grid, monkeypatch):
    # The NUFFT-1's modes as the run gives them, rolled to the centred layout
    # and carried through the centred pipeline.
    recon = sys.modules["phasorfield.reconstruct"]
    calls = []

    def recorded(*call):
        calls.append(call)
        return spectral.nufft1(*call)

    monkeypatch.setattr(recon, "nufft1", recorded)
    got = reconstruct(rippled, chain_grid, "nursd3d", include_illumination=False).field
    plan = _plan("nursd3d", rippled.relay, rippled.illuminations, rippled.frequencies,
                 chain_grid)
    m = len(plan.planes[0].dz)
    assert m > 1 and len(calls) == rippled.n_illum
    spectra = [np.fft.fftshift(spectral.nufft1(*call), axes=(-2, -1))
               .reshape((m, rippled.n_freq) + plan.shape)
               for call in calls]
    vg = chain_grid.grid
    want = _centred_field(plan, spectra, np.arange(vg.ny) - vg.ny // 2,
                          np.arange(vg.nx) - vg.nx // 2)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_nursd1_on_drawn_lattice_nodes_equals_rsd(chain, data):
    """nursd1 on any subset of relay lattice nodes equals rsd on that lattice
    with the other nodes silent, onto any cuboid aligned with it."""
    planar = chain["planar"]
    nodes = data.draw(st.lists(st.integers(0, 63), min_size=1, max_size=64, unique=True))
    silent = np.ones(64, bool)
    silent[nodes] = False
    coeff = planar.coefficients.copy()
    coeff[:, silent] = 0.0
    uniform = FrequencySlices(planar.frequencies, coeff, chain["relay"], planar.illuminations)
    xy = planar.relay.points.points[nodes]
    drawn = FrequencySlices(planar.frequencies, planar.coefficients[:, nodes],
                            NonUniformPlanarRelay(PointList(xy), z=0.0), planar.illuminations)
    nx, ny = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    ox, oy = data.draw(st.integers(0, 8 - nx)), data.draw(st.integers(0, 8 - ny))
    grid = CuboidGrid(UniformGrid3D(nx, ny, 2, 0.02, 0.02, 0.08,
                                    -0.07 + 0.02 * ox, -0.07 + 0.02 * oy, 0.86))
    expected = reconstruct(uniform, grid, "rsd").field
    assert rel_linf(reconstruct(drawn, grid, "nursd1", eps=EPS).field, expected) < CHAIN_TOL


# ---------------------------------------------------------------------------
# 3-D relays: depth nodes against the literal sum
# ---------------------------------------------------------------------------


# Relay x/y on the cuboid's lattice nodes, so that only the depth
# interpolation (and, for nursd3d, the NUFFT) can err.
_LIFTED_GRID = CuboidGrid(UniformGrid3D(8, 8, 3, 0.02, 0.02, 0.05, -0.07, -0.07, 0.8))


@pytest.fixture(scope="module")
def lifted():
    """A 12x12 relay lattice at 0.02 m lifted to depths drawn in [0, extent],
    with the literal sum at the cuboid, per depth extent."""
    out = {}
    for extent in (0.01, 0.05, 0.15):
        xy = centered_relay(12, 0.02).coordinates()[:, :2]
        z = np.random.default_rng(11).uniform(0.0, extent, len(xy))
        z[[0, -1]] = 0.0, extent
        relay = NonPlanarRelay(PointList(np.column_stack([xy, z])))
        ill = PointList(np.array([[0.0, 0.0, 0.0], [0.05, -0.03, 0.01]]))
        slices = two_scatterer_slices(relay=relay, illuminations=ill)
        out[extent] = slices, oracle.literal_field(slices, _LIFTED_GRID.coordinates())
    return out


@pytest.mark.parametrize("extent", [0.01, 0.05, 0.15])
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("name", ["nursd3d", "rsd3d"])
def test_3d_paths_match_the_literal_sum(lifted, name, extent, eps):
    slices, direct = lifted[extent]
    assert rel_l2(reconstruct(slices, _LIFTED_GRID, name, eps=eps).field, direct) <= eps


def _depth_error(monkeypatch, slices, grid, m, reference):
    """nursd3d's relative error with ``m`` depth nodes and a 1e-12 NUFFT."""
    recon = sys.modules["phasorfield.reconstruct"]
    monkeypatch.setattr(recon, "_depth_node_count", lambda eps, sweep: m)
    return rel_l2(reconstruct(slices, grid, "nursd3d", eps=1e-12).field, reference)


@pytest.mark.parametrize("extent", [0.01, 0.05, 0.15])
def test_depth_node_rule_meets_eps(lifted, monkeypatch, extent):
    slices, direct = lifted[extent]
    sweep = _depth_sweep(slices.relay.coordinates(), _LIFTED_GRID,
                         float(slices.frequencies[-1] / SPEED_OF_LIGHT))
    for eps in (1e-4, 1e-6, 1e-9):
        m = _depth_node_count(eps, sweep)
        assert _depth_error(monkeypatch, slices, _LIFTED_GRID, m, direct) <= eps


def test_depth_node_rule_on_the_benchmark_geometry(monkeypatch):
    # 128 detections over a 0.3 m square and 0.02 m of depth, a 16x16x8
    # cuboid from 0.8 m: the rule takes at most 4 nodes at the default eps,
    # and they meet it against a 12-node reference.
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(-0.15, 0.15, (128, 2)), rng.uniform(0.0, 0.02, 128)])
    slices = two_scatterer_slices(relay=NonPlanarRelay(PointList(pts)),
                                  illuminations=PointList(np.zeros((1, 3))))
    grid = CuboidGrid(UniformGrid3D(16, 16, 8, 0.02, 0.02, 0.075, -0.15, -0.15, 0.8))
    m = _depth_node_count(1e-6, _depth_sweep(pts, grid,
                                             float(slices.frequencies[-1] / SPEED_OF_LIGHT)))
    assert m <= 4
    recon = sys.modules["phasorfield.reconstruct"]
    monkeypatch.setattr(recon, "_depth_node_count", lambda eps, sweep: 12)
    reference = reconstruct(slices, grid, "nursd3d", eps=1e-12).field
    assert _depth_error(monkeypatch, slices, grid, m, reference) <= 1e-6


def test_flat_relay_takes_one_depth_node():
    assert _depth_node_count(1e-12, 0.0) == 1
    rel = np.column_stack([np.zeros((3, 2)), np.full(3, 0.3)])
    assert _depth_sweep(rel, _LIFTED_GRID, 100.0) == 0.0


@pytest.mark.parametrize("eps", [0.0, -1e-6, 1.0, float("nan")])
def test_rsd3d_rejects_eps_outside_the_unit_interval(rippled, chain_grid, eps):
    with pytest.raises(ValidationError, match="eps"):
        reconstruct(rippled, chain_grid, "rsd3d", eps=eps)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_nursd3d_on_a_flat_relay_is_nursd1(data):
    """On a relay flat at any depth nursd3d is nursd1 bit for bit, with no
    hand-off: one depth node of weight 1."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 40))
    z = data.draw(st.floats(-0.5, 0.5))
    xy = rng.uniform(-0.1, 0.1, (n, 2))
    pitch = data.draw(st.floats(0.01, 0.03))
    grid = CuboidGrid(UniformGrid3D(
        data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)),
        pitch, pitch, 0.05, data.draw(st.floats(-0.1, 0.0)), data.draw(st.floats(-0.1, 0.0)),
        z + data.draw(st.floats(0.1, 1.0))))
    freqs = SPEED_OF_LIGHT * np.array([60.0, 90.0, 120.0])
    coeff = rng.normal(size=(1, n, 3)) + 1j * rng.normal(size=(1, n, 3))
    flat = FrequencySlices(freqs, coeff, NonPlanarRelay(PointList(np.column_stack(
        [xy, np.full(n, z)]))), PointList(np.array([[0.0, 0.0, z]])))
    planar = FrequencySlices(freqs, coeff, NonUniformPlanarRelay(PointList(xy), z=z),
                             PointList(np.array([[0.0, 0.0]])))
    assert np.array_equal(reconstruct(flat, grid, "nursd3d").field,
                          reconstruct(planar, grid, "nursd1").field)
