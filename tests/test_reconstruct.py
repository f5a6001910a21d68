"""Fast volumetric propagators against literal sums and each other."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    ValidationError,
    VoxelPlane,
)
from phasorfield.core import PROPAGATION_SIGN, SPEED_OF_LIGHT, UniformGrid3D
from phasorfield.metrics import ncc
from phasorfield.reconstruct import _depth_node_count, _depth_sweep, _kernel_2d, _pad_size
from phasorfield.reconstruct import (
    ALGORITHM_NAMES,
    light_transport_video,
    nursd1,
    nursd2,
    nursd3,
    nursd3d,
    project_max_depth,
    reconstruct,
    rsd,
    rsd3d,
    srsd,
    srsd_nursd2,
)

from helpers import (
    centered_grid2d,
    centered_relay,
    literal_field,
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
    return rsd(chain["uniform"], chain_grid).field


# ---------------------------------------------------------------------------
# Exactness against the literal per-voxel sum
# ---------------------------------------------------------------------------


class TestRsdExactness:
    def test_matches_literal_sum(self, slices16, grid16_small):
        vol = rsd(slices16, grid16_small)
        direct = literal_field(slices16, grid16_small.coordinates())
        assert rel_linf(vol.field, direct) < 1e-10
        assert vol.grid is grid16_small and vol.n_frames == 1

    def test_detection_only_variant(self, slices16, grid16_small):
        vol = rsd(slices16, grid16_small, include_illumination=False)
        direct = literal_field(slices16, grid16_small.coordinates(),
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
        svol = srsd(slices, frustum)
        xs, ys = frustum.plane_xy(0)
        xx, yy = np.meshgrid(xs, ys)
        flat = int(np.argmax(np.abs(svol.field)))
        err = np.hypot(xx.ravel()[flat] - 0.25, yy.ravel()[flat])
        assert err <= 0.09  # a couple of scaled voxels

        unpadded_grid = CuboidGrid(UniformGrid3D(16, 16, 1, 0.02, 0.02, 0.1,
                                                 -0.15, -0.15, 0.5))
        uvol = rsd(slices, unpadded_grid, padding="none")
        coords = unpadded_grid.coordinates()
        peak = coords[int(np.argmax(np.abs(uvol.field)))]
        assert np.hypot(peak[0] - 0.25, peak[1]) > 0.09

    def test_repeat_and_threaded_runs_are_bit_identical(self, slices16, grid16_small):
        a = rsd(slices16, grid16_small)
        b = rsd(slices16, grid16_small)
        c = rsd(slices16, grid16_small, threads=4)
        assert np.array_equal(a.field, b.field)
        assert np.array_equal(a.field, c.field)


class TestRsdValidation:
    def test_rejects_foreign_pitch(self, slices16):
        grid = CuboidGrid(UniformGrid3D(4, 4, 1, 0.03, 0.02, 0.1, -0.03, -0.01, 0.9))
        with pytest.raises(ValidationError, match="pitch"):
            rsd(slices16, grid)

    def test_rejects_off_lattice_origin(self, slices16):
        grid = CuboidGrid(UniformGrid3D(4, 4, 1, 0.02, 0.02, 0.1, -0.025, -0.01, 0.9))
        with pytest.raises(ValidationError, match="origin"):
            rsd(slices16, grid)

    def test_rejects_voxels_behind_the_relay(self, slices16):
        grid = CuboidGrid(UniformGrid3D(4, 4, 2, 0.02, 0.02, 0.1, -0.03, -0.01, -0.05))
        with pytest.raises(ValidationError, match="beyond the relay"):
            rsd(slices16, grid)

    def test_unpadded_needs_coinciding_lattice(self, slices16, grid16_small):
        with pytest.raises(ValidationError, match="padding="):
            rsd(slices16, grid16_small, padding="none")

    def test_rejects_unknown_padding(self, slices16, grid16_small):
        with pytest.raises(ValidationError, match="padding"):
            rsd(slices16, grid16_small, padding="wrap")

    def test_rejects_wrong_grid_kind(self, slices16):
        ev = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),))
        with pytest.raises(ValidationError, match="cuboid"):
            rsd(slices16, ev)

    def test_rejects_non_uniform_relay(self, chain, grid16_small):
        with pytest.raises(ValidationError):
            rsd(chain["planar"], grid16_small)

    def test_rejects_bad_times_shape(self, slices16, grid16_small):
        with pytest.raises(ValidationError, match="times"):
            rsd(slices16, grid16_small, times=np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# Degeneracy chain: every algorithm collapses to rsd on its degenerate input
# ---------------------------------------------------------------------------


class TestDegeneracyChain:
    def test_srsd_with_unit_scales(self, chain, chain_grid, chain_reference):
        base = centered_grid2d(8, 0.02)
        frustum = FrustumGrid(base, np.array([0.86, 0.94]),
                              np.ones(2), np.ones(2))
        vol = srsd(chain["uniform"], frustum)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd1_with_gridded_points(self, chain, chain_grid, chain_reference):
        vol = nursd1(chain["planar"], chain_grid, eps=EPS)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd2_with_gridded_voxels(self, chain, chain_grid, chain_reference):
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        vol = nursd2(chain["uniform"], ExplicitVoxels(planes), eps=EPS)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd3_with_everything_on_grid(self, chain, chain_grid, chain_reference):
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        vol = nursd3(chain["planar"], ExplicitVoxels(planes), eps=EPS,
                     lattice_pitch=0.02)
        assert rel_linf(vol.field, chain_reference) < 2 * CHAIN_TOL

    def test_scaled_scatter_hybrid_with_unit_scale(self, chain, chain_grid,
                                                   chain_reference):
        planes = tuple(VoxelPlane(z, _plane_points(centered_grid2d(8, 0.02)))
                       for z in (0.86, 0.94))
        vol = srsd_nursd2(chain["uniform"], ExplicitVoxels(planes),
                          alpha=1.0, eps=EPS)
        assert rel_linf(vol.field, chain_reference) < CHAIN_TOL

    def test_nursd3d_with_flat_relay_delegates(self, chain, chain_grid):
        flat = nursd3d(chain["scattered"], chain_grid, eps=EPS)
        planar = nursd1(chain["planar"], chain_grid, eps=EPS)
        assert np.array_equal(flat.field, planar.field)

    def test_rsd3d_scatter_modes_agree_on_lattice_points(self, chain, chain_grid):
        # the flat relay sits exactly on the 3D deposit lattice, so nearest
        # and trilinear scattering deposit identically
        tri = rsd3d(chain["scattered"], chain_grid, scatter="trilinear")
        near = rsd3d(chain["scattered"], chain_grid, scatter="nearest")
        assert np.array_equal(tri.field, near.field)

    def test_rsd3d_tracks_the_planar_reference(self, chain, chain_grid,
                                               chain_reference):
        vol = rsd3d(chain["scattered"], chain_grid)
        assert ncc(vol.field, chain_reference) > 0.9


# ---------------------------------------------------------------------------
# Remaining validation paths
# ---------------------------------------------------------------------------


class TestAlgorithmValidation:
    def test_srsd_requires_base_on_relay_lattice(self, chain):
        base = centered_grid2d(6, 0.02)  # wrong side length
        frustum = FrustumGrid(base, np.array([0.9]), np.ones(1), np.ones(1))
        with pytest.raises(ValidationError, match="base"):
            srsd(chain["uniform"], frustum)

    def test_srsd_rejects_cuboid(self, chain, chain_grid):
        with pytest.raises(ValidationError, match="frustum"):
            srsd(chain["uniform"], chain_grid)

    def test_nursd1_requires_scattered_planar_relay(self, chain, chain_grid):
        with pytest.raises(ValidationError):
            nursd1(chain["uniform"], chain_grid)

    def test_nursd2_rejects_cuboid(self, chain, chain_grid):
        with pytest.raises(ValidationError, match="explicit"):
            nursd2(chain["uniform"], chain_grid)

    def test_nursd3_rejects_bad_lattice_pitch(self, chain):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="pitch"):
            nursd3(chain["planar"], ExplicitVoxels(planes), lattice_pitch=0.0)

    @pytest.mark.parametrize("pitch", [np.inf, np.nan])
    def test_nursd3_rejects_non_finite_lattice_pitch(self, chain, pitch):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="lattice pitch must be finite"):
            nursd3(chain["planar"], ExplicitVoxels(planes), lattice_pitch=pitch)

    def test_lattices_too_large_to_index_are_refused(self, chain):
        far = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[1e300, 0.0],
                                                                  [0.0, 0.0]]))),))
        near = ExplicitVoxels((VoxelPlane(0.9, PointList(np.array([[0.01, 0.0]]))),))
        cuboid = CuboidGrid(UniformGrid3D(4, 4, 1, 0.02, 0.02, 0.1, 1e300, -0.07, 0.9))
        runs = [lambda: nursd2(chain["uniform"], far),
                lambda: nursd3(chain["planar"], far),
                lambda: nursd3(chain["planar"], near, lattice_pitch=1e-300),
                lambda: srsd_nursd2(chain["uniform"], far, alpha=0.5),
                lambda: nursd1(chain["planar"], cuboid),
                lambda: rsd(chain["uniform"], cuboid)]
        for run in runs:
            with pytest.raises(ValidationError, match="pitches"):
                run()

    def test_hybrid_rejects_out_of_range_scale(self, chain):
        planes = (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0]]))),)
        with pytest.raises(ValidationError, match="scale"):
            srsd_nursd2(chain["uniform"], ExplicitVoxels(planes), alpha=1.5)

    def test_rsd3d_rejects_unknown_scatter(self, chain, chain_grid):
        with pytest.raises(ValidationError, match="scatter"):
            rsd3d(chain["scattered"], chain_grid, scatter="cubic")

    def test_rsd3d_depth_floor_names_the_limit(self, rippled):
        # The ripple's deepest detection sits at z = 0.02: a plane there or
        # before it is refused by both 3-D paths, one beyond it is not.
        for z0 in (0.02, 0.01, -0.05):
            grid = CuboidGrid(UniformGrid3D(8, 8, 2, 0.02, 0.02, 0.1, -0.07, -0.07, z0))
            for run in (rsd3d, nursd3d):
                with pytest.raises(ValidationError, match=r"deepest detection \(z > 0.02\)"):
                    run(rippled, grid)
        grid = CuboidGrid(UniformGrid3D(8, 8, 1, 0.02, 0.02, 0.1, -0.07, -0.07, 0.03))
        assert np.isfinite(nursd3d(rippled, grid).field).all()

    def test_nursd3d_requires_scattered_3d_relay(self, chain, chain_grid):
        with pytest.raises(ValidationError):
            nursd3d(chain["uniform"], chain_grid)


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
        with pytest.raises(ValidationError, match="unknown algorithm"):
            reconstruct(chain["uniform"], chain_grid, "fbp")


# ---------------------------------------------------------------------------
# Time-resolved rendering
# ---------------------------------------------------------------------------


class TestLightTransportVideo:
    def test_time_zero_frame_is_the_static_field(self, slices16, grid16_small):
        static = rsd(slices16, grid16_small)
        vid = light_transport_video(slices16, grid16_small,
                                    np.array([0.0, 1.0e-9]))
        assert vid.n_frames == 2
        assert np.array_equal(vid.frame(0), static.frame(0))
        assert not np.array_equal(vid.frame(1), static.frame(0))
        assert np.allclose(vid.times, [0.0, 1.0e-9])

    def test_time_zero_frame_for_scaled_variant(self, chain):
        base = centered_grid2d(8, 0.02)
        frustum = FrustumGrid(base, np.array([0.86, 0.94]),
                              np.full(2, 0.8), np.full(2, 0.8))
        static = srsd(chain["uniform"], frustum)
        vid = light_transport_video(chain["uniform"], frustum,
                                    np.array([0.0]), algorithm="srsd")
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
        vid = light_transport_video(slices, grid, times,
                                    include_illumination=False)
        peak = int(np.argmax(np.abs(vid.field[:, 0])))
        assert abs(peak - 10) <= 1

    @pytest.mark.parametrize("algorithm", ["nursd1", "nursd3"])
    def test_time_zero_frame_for_point_sampled_paths(self, chain, chain_grid, algorithm):
        grid = chain_grid if algorithm == "nursd1" else ExplicitVoxels(
            (VoxelPlane(0.9, PointList(np.array([[0.0, 0.0], [0.013, -0.02]]))),))
        static = reconstruct(chain["planar"], grid, algorithm)
        vid = light_transport_video(chain["planar"], grid, np.array([0.0]),
                                    algorithm=algorithm)
        assert vid.n_frames == 1
        assert np.array_equal(vid.frame(0), static.frame(0))


# ---------------------------------------------------------------------------
# Projections and threading on the scattered paths
# ---------------------------------------------------------------------------


class TestMisc:
    def test_project_max_depth(self, slices16, grid16_small):
        vol = rsd(slices16, grid16_small)
        img = project_max_depth(vol)
        assert img.shape == (3, 4)
        assert np.array_equal(img, np.abs(vol.as_array3d()).max(axis=0))

    @pytest.mark.parametrize("algo", ["nursd1", "srsd", "rsd3d", "nursd3d", "rsd", "nursd2",
                                      "nursd3", "srsd-nursd2"])
    def test_nufft_paths_are_thread_stable(self, chain, chain_grid, rippled, algo):
        frustum = FrustumGrid.linear(centered_grid2d(8, 0.02), [0.86, 0.94], alpha0=0.8)
        rng = np.random.default_rng(3)
        voxels = ExplicitVoxels(tuple(
            VoxelPlane(z, PointList(rng.uniform(-0.08, 0.08, (9, 2)))) for z in (0.86, 0.94)))
        run = {
            "nursd1": lambda t: nursd1(chain["planar"], chain_grid, eps=EPS, threads=t),
            "srsd": lambda t: srsd(chain["uniform"], frustum, times=np.array([0.0, 1e-9]),
                                   threads=t),
            "rsd3d": lambda t: rsd3d(rippled, chain_grid, threads=t),
            "nursd3d": lambda t: nursd3d(rippled, chain_grid, eps=EPS, threads=t),
            "rsd": lambda t: rsd(chain["uniform"], chain_grid, threads=t),
            "nursd2": lambda t: nursd2(chain["uniform"], voxels, eps=EPS, threads=t),
            "nursd3": lambda t: nursd3(chain["planar"], voxels, eps=EPS,
                                       times=np.array([0.0, 1e-9]), threads=t),
            "srsd-nursd2": lambda t: srsd_nursd2(chain["uniform"], voxels, alpha=0.8,
                                                 eps=EPS, threads=t),
        }[algo]
        a = run(1)
        # More workers than cores, switching as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = run(3)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(a.field, b.field)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_are_rejected(self, chain, chain_grid, threads):
        with pytest.raises(ValidationError, match="threads"):
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


@settings(max_examples=150, deadline=None)
@given(px=st.integers(1, 120), py=st.integers(1, 120), dx=st.floats(1e-3, 0.1),
       dy=st.floats(1e-3, 0.1), dz=st.floats(1e-3, 3.0),
       khat=st.one_of(_KHAT, hnp.arrays(np.float64, st.integers(1, 4), elements=_KHAT)))
@example(px=1, py=1, dx=0.02, dy=0.02, dz=0.9, khat=100.0)
@example(px=2, py=1, dx=0.02, dy=0.03, dz=0.9, khat=np.array([50.0, 120.0]))
@example(px=2, py=2, dx=0.013, dy=0.02, dz=0.5, khat=80.0)
@example(px=105, py=108, dx=0.02, dy=0.02, dz=0.8, khat=np.array([60.0, 90.0, 130.0]))
def test_mirrored_kernel_equals_full_lattice_formula(px, py, dx, dy, dz, khat):
    lag_x = (np.arange(px) - px // 2) * dx
    lag_y = (np.arange(py) - py // 2) * dy
    r = np.sqrt(lag_x[None, :] ** 2 + lag_y[:, None] ** 2 + dz * dz)
    direct = np.exp(PROPAGATION_SIGN * 1j * np.asarray(khat)[..., None, None] * r) / r
    out = _kernel_2d(khat, lag_x, lag_y, dz)
    assert out.shape == direct.shape and out.tobytes() == direct.tobytes()


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
    expected = rsd(uniform, grid).field
    assert rel_linf(nursd1(drawn, grid, eps=EPS).field, expected) < CHAIN_TOL


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
        out[extent] = slices, literal_field(slices, _LIFTED_GRID.coordinates())
    return out


@pytest.mark.parametrize("extent", [0.01, 0.05, 0.15])
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("run", [nursd3d, rsd3d])
def test_3d_paths_match_the_literal_sum(lifted, run, extent, eps):
    slices, direct = lifted[extent]
    assert rel_l2(run(slices, _LIFTED_GRID, eps=eps).field, direct) <= eps


def _depth_error(monkeypatch, slices, grid, m, reference):
    """nursd3d's relative error with ``m`` depth nodes and a 1e-12 NUFFT."""
    recon = sys.modules["phasorfield.reconstruct"]
    monkeypatch.setattr(recon, "_depth_node_count", lambda eps, sweep: m)
    return rel_l2(nursd3d(slices, grid, eps=1e-12).field, reference)


@pytest.mark.parametrize("extent", [0.01, 0.05, 0.15])
def test_depth_node_rule_meets_eps(lifted, monkeypatch, extent):
    slices, direct = lifted[extent]
    sweep = _depth_sweep(slices.relay.coordinates(), _LIFTED_GRID.grid,
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
    m = _depth_node_count(1e-6, _depth_sweep(pts, grid.grid,
                                             float(slices.frequencies[-1] / SPEED_OF_LIGHT)))
    assert m <= 4
    recon = sys.modules["phasorfield.reconstruct"]
    monkeypatch.setattr(recon, "_depth_node_count", lambda eps, sweep: 12)
    reference = nursd3d(slices, grid, eps=1e-12).field
    assert _depth_error(monkeypatch, slices, grid, m, reference) <= 1e-6


def test_flat_relay_takes_one_depth_node():
    assert _depth_node_count(1e-12, 0.0) == 1
    rel = np.column_stack([np.zeros((3, 2)), np.full(3, 0.3)])
    assert _depth_sweep(rel, _LIFTED_GRID.grid, 100.0) == 0.0


@pytest.mark.parametrize("eps", [0.0, -1e-6, 1.0, float("nan")])
def test_rsd3d_rejects_eps_outside_the_unit_interval(rippled, chain_grid, eps):
    with pytest.raises(ValidationError, match="eps"):
        rsd3d(rippled, chain_grid, eps=eps)


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
    assert np.array_equal(nursd3d(flat, grid).field, nursd1(planar, grid).field)
