"""Forward transient simulator, shot noise, and detector downsampling."""

import numpy as np
import pytest

from phasorfield import (
    NonUniformPlanarRelay,
    PointList,
    Scatterer,
    Scene,
    TransientMeasurement,
    UniformRelay,
    ValidationError,
)
from phasorfield.core import SPEED_OF_LIGHT, UniformGrid2D
from phasorfield.sim import add_poisson_noise, simulate, subsample_interpolate

from helpers import centered_relay

C = SPEED_OF_LIGHT


def _point_relay():
    return UniformRelay(UniformGrid2D(1, 1, 1.0, 1.0, 0.0, 0.0, z=0.0))


def _origin_ill():
    return PointList(np.array([[0.0, 0.0]]))


class TestSimulate:
    def test_bin_exact_arrival(self):
        # round trip 2 m at unit radii: exactly bin 100 when delta_t = 2/(100c)
        dt = 2.0 / (C * 100)
        m = simulate(Scene((Scatterer((0.0, 0.0, 1.0)),)),
                     _point_relay(), _origin_ill(), dt, 128)
        expected = np.zeros((1, 1, 128))
        expected[0, 0, 100] = 1.0  # falloff 1/(r1^2 r2^2) = 1 at r = 1
        assert np.array_equal(m.histograms, expected)

    def test_two_bin_linear_split(self):
        dt = 2.0 / (C * 100)
        z = 100.25 * dt * C / 2  # arrival at fractional bin 100.25
        m = simulate(Scene((Scatterer((0.0, 0.0, z)),)),
                     _point_relay(), _origin_ill(), dt, 128, falloff=False)
        assert m.histograms[0, 0, 100] == pytest.approx(0.75)
        assert m.histograms[0, 0, 101] == pytest.approx(0.25)
        assert np.count_nonzero(m.histograms) == 2

    def test_falloff_scales_like_inverse_r4(self):
        dt = 16e-12
        m1 = simulate(Scene((Scatterer((0.0, 0.0, 1.0)),)),
                      _point_relay(), _origin_ill(), dt, 4096)
        m2 = simulate(Scene((Scatterer((0.0, 0.0, 2.0)),)),
                      _point_relay(), _origin_ill(), dt, 4096)
        assert m2.histograms.sum() == pytest.approx(m1.histograms.sum() / 16.0)

    def test_albedo_scales_linearly(self):
        dt = 16e-12
        base = Scene((Scatterer((0.02, -0.01, 0.8), 1.0),))
        scaled = Scene((Scatterer((0.02, -0.01, 0.8), 2.5),))
        relay = centered_relay(3, 0.05)
        m1 = simulate(base, relay, _origin_ill(), dt, 2048)
        m2 = simulate(scaled, relay, _origin_ill(), dt, 2048)
        assert np.allclose(m2.histograms, 2.5 * m1.histograms, rtol=1e-14)

    def test_zero_albedo_scene_is_dark(self):
        m = simulate(Scene((Scatterer((0.0, 0.0, 1.0), 0.0),)),
                     centered_relay(3, 0.05), _origin_ill(), 16e-12, 2048)
        assert np.all(m.histograms == 0)

    def test_superposition_of_scatterers(self):
        relay = centered_relay(4, 0.05)
        ill = PointList(np.array([[0.0, 0.0], [0.05, -0.03]]))
        a = Scatterer((0.03, -0.02, 0.9), 1.0)
        b = Scatterer((-0.05, 0.04, 1.1), 0.7)
        dt = 16e-12
        ma = simulate(Scene((a,)), relay, ill, dt, 2048)
        mb = simulate(Scene((b,)), relay, ill, dt, 2048)
        mab = simulate(Scene((a, b)), relay, ill, dt, 2048)
        assert np.array_equal(mab.histograms, ma.histograms + mb.histograms)

    def test_ambient_floor(self):
        scene = Scene((Scatterer((0.0, 0.0, 1.0), 0.0),), ambient=0.5)
        dt = 2.0 / (C * 100)
        m = simulate(scene, centered_relay(2, 0.05), _origin_ill(), dt, 128)
        assert np.all(m.histograms == 0.5)

    @pytest.mark.parametrize("n_bins", [256.5, 256.0, "256"])
    def test_rejects_a_bin_count_that_is_not_an_integer(self, n_bins):
        with pytest.raises(ValidationError, match="^n_bins must be an integer$"):
            simulate(Scene((Scatterer((0.0, 0.0, 1.0)),)),
                     _point_relay(), _origin_ill(), 16e-12, n_bins)

    def test_out_of_window_names_the_scatterer(self):
        with pytest.raises(ValidationError, match="scatterer"):
            simulate(Scene((Scatterer((0.0, 0.0, 5.0)),)),
                     _point_relay(), _origin_ill(), 16e-12, 16)

    def test_confocal_is_the_nonconfocal_diagonal(self):
        relay = centered_relay(3, 0.05)
        scene = Scene((Scatterer((0.03, -0.02, 0.9)),))
        dt = 16e-12
        mc = simulate(scene, relay, None, dt, 2048, confocal=True)
        ill = PointList(relay.coordinates()[:, :2])
        mn = simulate(scene, relay, ill, dt, 2048)
        n = relay.count
        assert mc.histograms.shape == (n, n, 2048)
        diag_c = np.stack([mc.histograms[i, i] for i in range(n)])
        diag_n = np.stack([mn.histograms[i, i] for i in range(n)])
        assert np.array_equal(diag_c, diag_n)
        off = mc.histograms.copy()
        for i in range(n):
            off[i, i] = 0.0
        assert np.all(off == 0)

    def test_t0_shifts_the_deposit(self):
        dt = 2.0 / (C * 100)
        m = simulate(Scene((Scatterer((0.0, 0.0, 1.0)),)),
                     _point_relay(), _origin_ill(), dt, 128, t0=10 * dt)
        assert m.histograms[0, 0, 90] == pytest.approx(1.0)


class TestPoissonNoise:
    def _measurement(self, scale=1.0):
        dt = 2.0 / (C * 100)
        m = simulate(Scene((Scatterer((0.0, 0.0, 1.0)),)),
                     _point_relay(), _origin_ill(), dt, 128)
        return TransientMeasurement(m.relay, m.illuminations,
                                    m.histograms * scale, m.delta_t, m.t0)

    def test_zero_stays_zero(self):
        m = self._measurement(0.0)
        noisy = add_poisson_noise(m, 100.0, seed=7)
        assert np.all(noisy.histograms == 0)

    def test_seed_determinism(self):
        m = self._measurement()
        a = add_poisson_noise(m, 50.0, seed=11)
        b = add_poisson_noise(m, 50.0, seed=11)
        c = add_poisson_noise(m, 50.0, seed=12)
        assert np.array_equal(a.histograms, b.histograms)
        assert not np.array_equal(a.histograms, c.histograms)

    def test_counts_are_integers_at_the_scaled_level(self):
        m = self._measurement()
        noisy = add_poisson_noise(m, 1000.0, seed=3)
        assert np.all(noisy.histograms == np.round(noisy.histograms))

    def test_large_exposure_concentrates(self):
        m = self._measurement()
        noisy = add_poisson_noise(m, 1e6, seed=5)
        expected_total = 1e6 * m.histograms.sum()
        assert abs(noisy.histograms.sum() - expected_total) / expected_total < 0.01

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            add_poisson_noise(self._measurement(), 0.0, seed=1)

    @pytest.mark.parametrize("seed, message", [(1.5, "^seed must be an integer$"),
                                               (None, "^seed must be an integer$"),
                                               (-1, "^seed must be >= 0$")])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed, message):
        with pytest.raises(ValidationError, match=message):
            add_poisson_noise(self._measurement(), 1.0, seed)


class TestSubsampleInterpolate:
    def _measurement(self, rng, side=5, pitch=0.02, n_bins=32):
        relay = centered_relay(side, pitch)
        ill = PointList(np.zeros((1, 2)))
        h = rng.uniform(0.0, 4.0, size=(1, side * side, n_bins))
        return TransientMeasurement(relay, ill, h, 16e-12)

    def test_recommended_wavelength(self, rng):
        m = self._measurement(rng)
        _, lam = subsample_interpolate(m, 2, "nearest")
        assert lam == pytest.approx(2 * 2 * 0.02)

    def test_nearest_is_identity_on_retained_positions(self, rng):
        m = self._measurement(rng)
        out, _ = subsample_interpolate(m, 2, "nearest")
        kept = [iy * 5 + ix for iy in (0, 2, 4) for ix in (0, 2, 4)]
        assert np.max(np.abs(out.histograms[:, kept] - m.histograms[:, kept])) < 1e-12
        assert out.histograms.shape == m.histograms.shape
        dropped = [i for i in range(25) if i not in kept]
        assert np.max(np.abs(out.histograms[:, dropped]
                             - m.histograms[:, dropped])) > 0.1

    @pytest.mark.parametrize("scheme", ["nearest", "linear"])
    def test_constant_field_is_a_fixed_point(self, scheme):
        relay = centered_relay(5, 0.02)
        h = np.full((1, 25, 16), 3.7)
        m = TransientMeasurement(relay, PointList(np.zeros((1, 2))), h, 16e-12)
        out, _ = subsample_interpolate(m, 2, scheme)
        assert np.max(np.abs(out.histograms - 3.7)) < 1e-12

    def test_partial_stride_keeps_last_row_and_column(self, rng):
        m = self._measurement(rng, side=6)
        out, _ = subsample_interpolate(m, 4, "nearest")
        kept = [iy * 6 + ix for iy in (0, 4, 5) for ix in (0, 4, 5)]
        assert np.max(np.abs(out.histograms[:, kept] - m.histograms[:, kept])) < 1e-12

    def test_rejects_identity_factor(self, rng):
        with pytest.raises(ValidationError):
            subsample_interpolate(self._measurement(rng), 1)

    @pytest.mark.parametrize("factor", [2.5, 2.0])
    def test_rejects_a_factor_that_is_not_an_integer(self, rng, factor):
        with pytest.raises(ValidationError,
                           match="^downsampling factor n must be an integer$"):
            subsample_interpolate(self._measurement(rng), factor)

    def test_rejects_factor_at_grid_side(self, rng):
        with pytest.raises(ValidationError):
            subsample_interpolate(self._measurement(rng), 5)

    def test_rejects_unknown_scheme(self, rng):
        with pytest.raises(ValidationError):
            subsample_interpolate(self._measurement(rng), 2, "cubic")

    def test_requires_a_uniform_grid(self, rng):
        relay = NonUniformPlanarRelay(PointList(rng.uniform(-0.1, 0.1, (4, 2))), 0.0)
        m = TransientMeasurement(relay, PointList(np.zeros((1, 2))),
                                 rng.uniform(0.0, 1.0, (1, 4, 8)), 16e-12)
        with pytest.raises(ValidationError):
            subsample_interpolate(m, 2)
