"""Acceptance suite: closed-form reference numbers plus oracle/property checks.

Each test here pins one headline guarantee of the package at its contractual
tolerance.  Module-level tests elsewhere probe the same code more tightly;
this file is the end-to-end contract.
"""

import json

import numpy as np
import pytest

from phasorfield import (
    CuboidGrid,
    ExplicitVoxels,
    FrustumGrid,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    Scatterer,
    Scene,
    UniformRelay,
    VoxelPlane,
    oracle,
    read_volume,
)
from phasorfield.cli import main
from phasorfield.core import SPEED_OF_LIGHT, UniformGrid2D, UniformGrid3D
from phasorfield.metrics import ncc, ssim
from phasorfield.phasor import (
    build_kernel,
    compression_factor,
    cuboid_volume,
    frustum_volume,
    lateral_resolution,
    sampling_report,
    to_frequency,
)
from phasorfield.reconstruct import ALGORITHM_NAMES, project_max_depth, reconstruct
from phasorfield.sim import add_poisson_noise, simulate, subsample_interpolate
from phasorfield.spectral import nufft1, nufft2, sfft_1d

from helpers import (
    centered_grid2d,
    centered_relay,
    make_slices,
    rel_l2,
    rel_linf,
    two_scatterer_slices,
)


def _normalized(img):
    peak = np.max(img)
    return img / peak if peak > 0 else img


# ---------------------------------------------------------------------------
# 1. Frustum worked example
# ---------------------------------------------------------------------------


def test_frustum_worked_example():
    v_f = frustum_volume(4, 4, 0, 4, 0.5, 0.5)
    v_c = cuboid_volume(4, 4, 0, 4)
    assert v_f == pytest.approx(277.33, abs=0.5)
    assert v_c == 64.0
    assert v_f - v_c == pytest.approx(213.33, abs=0.5)
    assert round((v_f - v_c) / v_c * 100) == 333


# ---------------------------------------------------------------------------
# 2. Compression accounting
# ---------------------------------------------------------------------------


def test_compression_factor_is_exactly_125():
    assert compression_factor(100, 5, 100, 10) == 125.0
    assert compression_factor(25, 5, 4000, 400) == 125.0
    assert compression_factor(1000, 5, 20, 2) == 125.0


# ---------------------------------------------------------------------------
# 3. Scaled FFT against the quadratic-time scaled DFT
# ---------------------------------------------------------------------------


def test_scaled_fft_oracle_equivalence():
    rng = np.random.default_rng(301)
    for m in (4, 8, 16, 32):
        u = rng.normal(size=m) + 1j * rng.normal(size=m)
        for alpha in (0.25, 0.5, 0.9, 1.0):
            fast = sfft_1d(u, alpha)
            slow = oracle.scaled_dft(u, alpha)
            assert rel_l2(fast, slow) <= 1e-9
        assert rel_l2(sfft_1d(u, 1.0), np.fft.fft(u)) <= 1e-9


# ---------------------------------------------------------------------------
# 4. NUFFT accuracy over 100 random instances
# ---------------------------------------------------------------------------


def test_nufft_accuracy_and_adjointness():
    rng = np.random.default_rng(401)
    for i in range(100):
        eps = (1e-4, 1e-6, 1e-8)[(i // 3) % 3]
        n_pts = int(rng.integers(4, 65))
        modes = tuple(int(rng.integers(2, 33)) for _ in range(2))
        pts = rng.uniform(-np.pi, np.pi, size=(n_pts, 2))
        pts[pts >= np.pi] -= 2 * np.pi
        vals = rng.normal(size=n_pts) + 1j * rng.normal(size=n_pts)
        coeff = rng.normal(size=modes) + 1j * rng.normal(size=modes)

        # The transforms hold their modes in FFT order, the oracle centred.
        fast1 = nufft1(pts, vals, modes, eps)
        assert rel_linf(np.fft.fftshift(fast1), oracle.nudft1(pts, vals, modes)) <= eps
        fast2 = nufft2(coeff, pts, eps)
        assert rel_linf(fast2, oracle.nudft2(np.fft.fftshift(coeff), pts)) <= eps

        lhs = np.vdot(fast1, coeff)
        rhs = np.vdot(vals, fast2)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# 5. Degeneracy chain on a 16x16 synthetic scene
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def capture():
    relay_u = centered_relay(16, 0.02)
    xy = relay_u.coordinates()[:, :2]
    ill2 = PointList(np.array([[0.0, 0.0], [0.05, -0.03]]))
    ill3 = PointList(np.array([[0.0, 0.0, 0.0], [0.05, -0.03, 0.0]]))
    slices_u = two_scatterer_slices(relay=relay_u)
    slices_p = two_scatterer_slices(
        relay=NonUniformPlanarRelay(PointList(xy), z=0.0), illuminations=ill2)
    slices_3 = two_scatterer_slices(
        relay=NonPlanarRelay(PointList(np.column_stack([xy, np.zeros(256)]))),
        illuminations=ill3)
    grid = CuboidGrid(UniformGrid3D(16, 16, 2, 0.02, 0.02, 0.1,
                                    -0.15, -0.15, 0.9))
    reference = reconstruct(slices_u, grid, "rsd").field
    return dict(u=slices_u, p=slices_p, s=slices_3, grid=grid, ref=reference)


class TestDegeneracyChain:
    EPS = 1e-8

    def _lattice_planes(self):
        g = centered_grid2d(16, 0.02)
        xx, yy = np.meshgrid(g.x_coords(), g.y_coords())
        pts = PointList(np.column_stack([xx.ravel(), yy.ravel()]))
        return tuple(VoxelPlane(z, pts) for z in (0.9, 1.0))

    def test_srsd_unit_scale_equals_rsd(self, capture):
        frustum = FrustumGrid(centered_grid2d(16, 0.02), np.array([0.9, 1.0]),
                              np.ones(2), np.ones(2))
        out = reconstruct(capture["u"], frustum, "srsd").field
        assert rel_l2(out, capture["ref"]) <= 1e-8

    def test_nursd1_on_uniform_points_equals_rsd(self, capture):
        out = reconstruct(capture["p"], capture["grid"], "nursd1", eps=self.EPS).field
        assert rel_l2(out, capture["ref"]) <= self.EPS + 1e-8

    def test_nursd2_on_lattice_targets_equals_rsd(self, capture):
        out = reconstruct(capture["u"], ExplicitVoxels(self._lattice_planes()),
                          "nursd2", eps=self.EPS).field
        assert rel_l2(out, capture["ref"]) <= self.EPS + 1e-8

    def test_nursd3_on_uniform_everything_equals_rsd(self, capture):
        out = reconstruct(capture["p"], ExplicitVoxels(self._lattice_planes()),
                          "nursd3", eps=self.EPS, lattice_pitch=0.02).field
        assert rel_l2(out, capture["ref"]) <= 2 * self.EPS + 1e-8

    def test_scaled_hybrid_unit_scale_equals_rsd(self, capture):
        out = reconstruct(capture["u"], ExplicitVoxels(self._lattice_planes()),
                          "srsd-nursd2", alpha=1.0, eps=self.EPS).field
        assert rel_l2(out, capture["ref"]) <= self.EPS + 1e-8

    def test_nursd3d_on_flat_relay_equals_nursd1(self, capture):
        flat = reconstruct(capture["s"], capture["grid"], "nursd3d", eps=self.EPS).field
        planar = reconstruct(capture["p"], capture["grid"], "nursd1", eps=self.EPS).field
        assert np.array_equal(flat, planar)


# ---------------------------------------------------------------------------
# 6. Oracle consistency across all eight algorithm paths
# ---------------------------------------------------------------------------


def _consistency_instance(i):
    """Instance i of 20: algorithms cycle so each path is hit at least twice."""
    rng = np.random.default_rng(6000 + i)
    algo = ALGORITHM_NAMES[i % len(ALGORITHM_NAMES)]
    lambda_c = (0.04, 0.05, 0.06)[i % 3]
    z_mid = float(rng.uniform(1.0, 1.2))
    scatterers = [Scatterer((float(rng.uniform(-0.06, 0.06)),
                             float(rng.uniform(-0.06, 0.06)),
                             z_mid + float(rng.uniform(-0.05, 0.05))),
                            float(rng.uniform(0.6, 1.0)))
                  for _ in range(1 + i % 2)]
    scene = Scene(tuple(scatterers))

    side, pitch = 16, 0.02
    grid2d = centered_grid2d(side, pitch)
    inner = centered_grid2d(12, pitch)
    xy = np.column_stack([c.ravel() for c in
                          np.meshgrid(grid2d.x_coords(), grid2d.y_coords())])
    n_ill = 1 + i % 2
    ill_xy = rng.uniform(-0.08, 0.08, size=(n_ill, 2))

    if algo in ("rsd", "srsd", "nursd2", "srsd-nursd2"):
        relay = UniformRelay(grid2d)
        ill = PointList(ill_xy)
    elif algo in ("nursd1", "nursd3"):
        jitter = rng.uniform(-0.006, 0.006, size=xy.shape)
        relay = NonUniformPlanarRelay(PointList(xy + jitter), z=0.0)
        ill = PointList(ill_xy)
    else:  # rsd3d, nursd3d: detections scattered in depth as well
        zs = rng.uniform(0.0, 0.01, size=len(xy))
        relay = NonPlanarRelay(PointList(np.column_stack([xy, zs])))
        ill = PointList(np.column_stack([ill_xy, np.zeros(n_ill)]))

    slices = make_slices(scene, relay, ill, lambda_c=lambda_c,
                         delta_t=32e-12, n_bins=512)

    z0 = z_mid - 0.09
    if algo in ("rsd", "rsd3d", "nursd3d", "nursd1"):
        grid = CuboidGrid(UniformGrid3D(12, 12, 4, pitch, pitch, 0.06,
                                        inner.x0, inner.y0, z0))
    elif algo == "srsd":
        grid = FrustumGrid(grid2d, z0 + 0.06 * np.arange(4),
                           np.linspace(1.0, 0.85, 4), np.linspace(1.0, 0.85, 4))
    else:  # explicit scattered voxels
        planes = []
        for k in range(3):
            pts = rng.uniform(-0.1, 0.1, size=(120, 2))
            planes.append(VoxelPlane(z0 + 0.07 * k, PointList(pts)))
        grid = ExplicitVoxels(tuple(planes))

    options = {}
    if algo == "srsd-nursd2":
        options["alpha"] = 0.8
    volume = reconstruct(slices, grid, algo, **options)
    return algo, volume.field, oracle.literal_field(slices, grid.coordinates())


# Relative L2 error against the literal sum, per algorithm: about twice the
# worst of its instances below (rsd 2.3e-14, srsd 3.2e-3, nursd1 1.8e-3,
# nursd2 1.1e-3, nursd3 9.9e-4, rsd3d 1.6e-8, nursd3d 2.5e-8, srsd-nursd2
# 2.2e-3).  The lattice paths err by roundoff alone; the others by the
# off-lattice reads of the jittered relay, the frustum's kernel sampling and
# the NUFFT.
_ORACLE_REL_L2 = {"rsd": 5e-14, "srsd": 6.4e-3, "nursd1": 3.6e-3, "nursd2": 2.2e-3,
                  "nursd3": 2e-3, "rsd3d": 3.2e-8, "nursd3d": 5e-8, "srsd-nursd2": 4.4e-3}


@pytest.mark.parametrize("i", range(20))
def test_oracle_consistency(i):
    algo, field, reference = _consistency_instance(i)
    score, floor = float(ncc(field, reference)), 0.9999
    assert score >= floor, f"instance {i} ({algo}): ncc {score:.7f} < {floor}"
    err = rel_l2(field, reference)
    assert err <= _ORACLE_REL_L2[algo], f"instance {i} ({algo}): relative L2 {err:.3g}"


def test_every_algorithm_has_an_oracle_bound():
    assert sorted(_ORACLE_REL_L2) == sorted(ALGORITHM_NAMES)


# ---------------------------------------------------------------------------
# 7. Localization at three standoff depths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z_true", [0.5, 1.0, 2.0])
def test_single_scatterer_localization(z_true):
    lambda_c = 0.04
    relay = centered_relay(32, 0.02)
    aperture = 32 * 0.02
    scene = Scene((Scatterer((0.01, 0.03, z_true)),))
    ill = PointList(np.array([[0.0, 0.0]]))
    slices = make_slices(scene, relay, ill, lambda_c=lambda_c, n_bins=1024)

    dz = 0.05
    grid = CuboidGrid(UniformGrid3D(9, 9, 9, 0.02, 0.02, dz,
                                    0.01 - 4 * 0.02, 0.03 - 4 * 0.02,
                                    z_true - 4 * dz))
    volume = reconstruct(slices, grid, "rsd")
    peak = grid.coordinates()[int(np.argmax(np.abs(volume.field)))]

    delta_x = lateral_resolution(lambda_c, z_true, aperture)
    lateral_err = np.hypot(peak[0] - 0.01, peak[1] - 0.03)
    assert lateral_err <= max(0.02, delta_x)
    assert abs(peak[2] - z_true) <= max(dz, delta_x)


# ---------------------------------------------------------------------------
# 8. Subsampling robustness on a 1 cm grid
# ---------------------------------------------------------------------------


def test_keep_every_fifth_detector():
    pitch, side = 0.01, 64
    scatterer_pos = np.array([0.075, -0.045, 1.5])
    relay = centered_relay(side, pitch)
    scene = Scene((Scatterer(tuple(scatterer_pos)),))
    ill = PointList(np.array([[0.0, 0.0]]))
    m = simulate(scene, relay, ill, delta_t=16e-12, n_bins=2048)

    # the sampling-rate certificate must admit D=5 for the worst relay point
    offsets = relay.coordinates() - scatterer_pos
    worst_lateral = float(np.max(np.hypot(offsets[:, 0], offsets[:, 1])))
    kernel = build_kernel(0.04, 2048, 16e-12)
    slices_full = to_frequency(m, kernel)
    report = sampling_report(worst_lateral, 1.5, slices_full.shortest_wavelength)
    assert report.max_downsample >= 5

    sub, _ = subsample_interpolate(m, 5, "nearest")
    slices_sub = to_frequency(sub, kernel)

    grid = CuboidGrid(UniformGrid3D(16, 16, 5, pitch, pitch, 0.05,
                                    0.075 - 7 * pitch, -0.045 - 7 * pitch, 1.4))
    vol_full = reconstruct(slices_full, grid, "rsd")
    vol_sub = reconstruct(slices_sub, grid, "rsd")
    proj_full = project_max_depth(vol_full)
    proj_sub = project_max_depth(vol_sub)
    assert ssim(proj_full, proj_sub) >= 0.8
    assert (int(np.argmax(np.abs(vol_full.field)))
            == int(np.argmax(np.abs(vol_sub.field))))


# ---------------------------------------------------------------------------
# 9. Noise degradation direction
# ---------------------------------------------------------------------------


def test_poisson_noise_degrades_monotonically():
    relay = centered_relay(16, 0.02)
    ill = PointList(np.array([[0.0, 0.0]]))
    scene = Scene((Scatterer((0.03, -0.02, 0.9), 1.0),
                   Scatterer((-0.05, 0.04, 1.0), 0.7)))
    m = simulate(scene, relay, ill, delta_t=16e-12, n_bins=1024)
    kernel = build_kernel(0.06, 1024, 16e-12)
    grid = CuboidGrid(UniformGrid3D(16, 16, 3, 0.02, 0.02, 0.08,
                                    -0.15, -0.15, 0.86))
    clean = _normalized(project_max_depth(reconstruct(to_frequency(m, kernel), grid, "rsd")))

    scores = []
    for scale in (1e4, 1e2, 1e0):
        noisy = add_poisson_noise(m, scale, seed=42)
        vol = reconstruct(to_frequency(noisy, kernel), grid, "rsd")
        scores.append(ssim(clean, _normalized(project_max_depth(vol))))
    assert scores[0] >= scores[1] - 1e-12
    assert scores[1] >= scores[2] - 1e-12


# ---------------------------------------------------------------------------
# 10. Time-resolved rendering sanity
# ---------------------------------------------------------------------------


class TestVideoSanity:
    def test_time_zero_frame_is_bitwise_static(self):
        slices = two_scatterer_slices()
        grid = CuboidGrid(UniformGrid3D(8, 8, 2, 0.02, 0.02, 0.1,
                                        -0.07, -0.07, 0.9))
        static = reconstruct(slices, grid, "rsd")
        vid = reconstruct(slices, grid, "rsd", times=np.array([0.0]))
        assert np.array_equal(vid.frame(0), static.frame(0))

    def test_wavefront_arrival_at_one_meter(self):
        depth = 1.0
        relay = centered_relay(16, 0.02)
        scene = Scene((Scatterer((0.01, 0.01, depth)),))
        ill = PointList(np.array([[0.0, 0.0]]))
        slices = make_slices(scene, relay, ill, lambda_c=0.04, n_bins=2048)
        grid = CuboidGrid(UniformGrid3D(1, 1, 1, 0.02, 0.02, 0.05,
                                        0.01, 0.01, depth))
        t_flight = depth / SPEED_OF_LIGHT
        frame_dt = 50e-12
        times = t_flight + frame_dt * (np.arange(17) - 8)
        vid = reconstruct(slices, grid, "rsd", times=times,
                          include_illumination=False)
        peak = int(np.argmax(np.abs(vid.field[:, 0])))
        assert abs(times[peak] - t_flight) <= frame_dt


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------


def test_cli_pipeline_is_byte_deterministic(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "relay": {"kind": "uniform", "nx": 8, "ny": 8, "dx": 0.02, "dy": 0.02,
                  "x0": -0.07, "y0": -0.07, "z": 0.0},
        "illuminations": [[0.0, 0.0]],
        "scatterers": [{"pos": [0.01, 0.01, 0.9]}],
        "delta_t": 16e-12,
        "n_bins": 1024,
    }))

    def run(tag, threads):
        ds = tmp_path / f"{tag}.nls1"
        vol = tmp_path / f"{tag}.vol"
        pgm = tmp_path / f"{tag}.pgm"
        assert main(["simulate", str(scene), "-o", str(ds),
                     "--poisson-scale", "100", "--seed", "5"]) == 0
        assert main(["reconstruct", str(ds), "-o", str(vol),
                     "--algo", "rsd", "--lambda-c", "0.04",
                     "--grid", "cuboid:8,8,2,0.02,0.02,0.08,-0.07,-0.07,0.86",
                     "--threads", str(threads), "--pgm", str(pgm)]) == 0
        return ds.read_bytes(), vol.read_bytes(), pgm.read_bytes()

    first = run("a", 1)
    second = run("b", 1)
    threaded = run("c", 4)
    assert first == second == threaded
    vol = read_volume(str(tmp_path / "a.vol"))
    assert vol.grid.count == 128
