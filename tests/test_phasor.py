"""Illumination kernel, frequency projection, and closed-form calculators."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phasorfield import (
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    TransientMeasurement,
    UniformRelay,
    ValidationError,
    read_dataset,
    write_dataset,
)
from phasorfield import core, phasor
from phasorfield.core import SPEED_OF_LIGHT, UniformGrid2D
from phasorfield.phasor import (
    build_kernel,
    compression_factor,
    cuboid_volume,
    frustum_volume,
    lateral_resolution,
    read_frequency_slices,
    sampling_report,
    scale_bounds,
    to_frequency,
)

from helpers import centered_relay, rel_linf


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


class TestBuildKernel:
    def test_reference_bin_count(self):
        k = build_kernel(0.04, 4096, 16e-12, threshold=0.01)
        assert k.n_freq == 95
        # roughly a tenth of the time bins survive the threshold
        assert 4096 / 100 < k.n_freq < 4096

    def test_weights_recompute_from_gaussian(self):
        k = build_kernel(0.04, 4096, 16e-12, threshold=0.01)
        omega_c = 2 * np.pi * SPEED_OF_LIGHT / 0.04
        sigma = SPEED_OF_LIGHT / (5 * 0.04)
        assert k.omega_c == pytest.approx(omega_c)
        assert k.sigma == pytest.approx(sigma)
        expected = np.exp(-((k.frequencies - omega_c) ** 2) / (2 * sigma**2))
        assert rel_linf(k.weights, expected) < 1e-12
        assert np.all(k.weights > 0.01) and np.all(k.weights <= 1.0)

    def test_frequencies_sit_on_dft_bins(self):
        n_bins, dt = 1024, 16e-12
        k = build_kernel(0.06, n_bins, dt)
        d_omega = 2 * np.pi / (n_bins * dt)
        assert np.allclose(k.frequencies, k.bin_indices * d_omega, rtol=1e-12)
        assert np.all(np.diff(k.bin_indices) > 0)
        # The shortest retained wavelength is the one its slices report.
        m = _measurement(np.zeros((1, 4, n_bins)), dt)
        assert k.lambda_star == to_frequency(m, k).shortest_wavelength

    def test_center_on_a_bin_gives_unit_weight(self):
        n_bins, dt, m = 1024, 16e-12, 100
        lambda_c = SPEED_OF_LIGHT * n_bins * dt / m
        k = build_kernel(lambda_c, n_bins, dt)
        assert k.weights.max() == pytest.approx(1.0, abs=1e-12)
        assert k.bin_indices[np.argmax(k.weights)] == m

    def test_no_bin_clears_threshold(self):
        with pytest.raises(ValidationError):
            build_kernel(0.04, 4096, 16e-12, threshold=0.9999999)

    @pytest.mark.parametrize("kwargs", [
        dict(lambda_c=0.0, n_bins=64, delta_t=1e-12),
        dict(lambda_c=0.04, n_bins=0, delta_t=1e-12),
        dict(lambda_c=0.06, n_bins=1024.5, delta_t=16e-12),
        dict(lambda_c=0.04, n_bins=64, delta_t=0.0),
        dict(lambda_c=0.04, n_bins=64, delta_t=1e-12, threshold=0.0),
        dict(lambda_c=0.04, n_bins=64, delta_t=1e-12, threshold=1.0),
    ])
    def test_rejects_degenerate_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            build_kernel(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(lambda_c=math.inf, n_bins=64, delta_t=1e-12), "lambda_c"),
        (dict(lambda_c=math.nan, n_bins=64, delta_t=1e-12), "lambda_c"),
        (dict(lambda_c=0.04, n_bins=64, delta_t=math.inf), "delta_t"),
    ])
    def test_rejects_non_finite_inputs(self, kwargs, name):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            build_kernel(**kwargs)

    # A packet width or bin frequency beyond floating point: each is refused
    # with no RuntimeWarning on the way, which the test settings make an error.
    @pytest.mark.parametrize("lambda_c, delta_t", [
        (1e-300, 1e-12), (1e-146, 1e-12), (1e300, 1e-12), (0.04, 1e-320), (0.04, 1e-300),
    ])
    def test_refuses_packets_beyond_floating_point(self, lambda_c, delta_t):
        with pytest.raises(ValidationError):
            build_kernel(lambda_c, 1024, delta_t)


# ---------------------------------------------------------------------------
# Frequency projection
# ---------------------------------------------------------------------------


def _long_double_projection(m, k):
    """The coefficients by a direct DFT in long double, each angle reduced in
    integers as ``2*pi*((b*k) mod n_bins)/n_bins``."""
    n = m.n_bins
    pi = 4 * np.arctan(np.longdouble(1))
    angle = 2 * pi * (np.outer(np.arange(n), k.bin_indices) % n) / n
    h = m.histograms.astype(np.longdouble)
    phase = k.frequencies.astype(np.longdouble) * m.t0
    return ((h @ np.cos(angle) - 1j * (h @ np.sin(angle)))
            * (k.weights * (np.cos(phase) - 1j * np.sin(phase))))


def _measurement(h, dt=16e-12, t0=0.0):
    relay = centered_relay(2, 0.1)
    ill = PointList(np.zeros((h.shape[0], 2)))
    return TransientMeasurement(relay, ill, h, dt, t0=t0)


class TestToFrequency:
    def test_zero_histograms_give_zero_coefficients(self):
        m = _measurement(np.zeros((1, 4, 256)))
        k = build_kernel(0.06, 256, 16e-12)
        sl = to_frequency(m, k)
        assert sl.coefficients.shape == (1, 4, k.n_freq)
        assert np.all(sl.coefficients == 0)
        assert np.allclose(sl.frequencies, k.frequencies)

    def test_single_delta_formula(self):
        n_bins, dt, t0, b = 512, 16e-12, 3e-10, 41
        h = np.zeros((1, 4, n_bins))
        h[0, 2, b] = 2.5
        m = _measurement(h, dt, t0)
        k = build_kernel(0.06, n_bins, dt)
        sl = to_frequency(m, k)
        pred = k.weights * 2.5 * np.exp(-1j * k.frequencies * (t0 + b * dt))
        assert rel_linf(sl.coefficients[0, 2], pred) < 1e-12
        assert np.all(sl.coefficients[0, [0, 1, 3]] == 0)

    def test_matches_direct_weighted_dft(self, rng):
        n_bins, dt, t0 = 128, 32e-12, 1e-10
        h = rng.uniform(0.0, 5.0, size=(2, 4, n_bins))
        m = _measurement(h, dt, t0)
        k = build_kernel(0.08, n_bins, dt)
        sl = to_frequency(m, k)
        times = t0 + np.arange(n_bins) * dt
        direct = np.einsum("wpb,fb->wpf", h,
                           np.exp(-1j * np.outer(k.frequencies, times)))
        direct *= k.weights
        assert rel_linf(sl.coefficients, direct) < 1e-10

    def test_linear_in_histogram(self, rng):
        n_bins, dt = 128, 32e-12
        h1 = rng.uniform(0.0, 1.0, size=(1, 4, n_bins))
        h2 = rng.uniform(0.0, 1.0, size=(1, 4, n_bins))
        k = build_kernel(0.08, n_bins, dt)
        c1 = to_frequency(_measurement(h1, dt), k).coefficients
        c2 = to_frequency(_measurement(h2, dt), k).coefficients
        c12 = to_frequency(_measurement(2.0 * h1 + 3.0 * h2, dt), k).coefficients
        assert rel_linf(c12, 2.0 * c1 + 3.0 * c2) < 1e-10

    @staticmethod
    def _counts(rng, n_bins, n_detect=300):
        """Poisson counts on ``n_detect`` scattered detections, two illuminations."""
        relay = NonUniformPlanarRelay(PointList(rng.uniform(-0.3, 0.3, (n_detect, 2))), 0.0)
        h = rng.poisson(3.0, (2, n_detect, n_bins)).astype(np.float64)
        return TransientMeasurement(relay, PointList(np.zeros((2, 2))), h, 16e-12, t0=1e-10)

    # The worst of 40 seeds per bin count read 2.5e-15 at 1024 and 1023
    # bins, 4.6e-15 at 4096 and 1.1e-15 at 300; the bound is about twice
    # that.  The sums of a direct DFT round more than an FFT's (a real FFT
    # reads 2.6e-16 to 5.8e-16 here).
    @pytest.mark.parametrize("n_bins, n_detect", [(1024, 300), (1023, 300), (4096, 100),
                                                  (300, 900)])
    def test_projection_matches_a_long_double_dft(self, rng, n_bins, n_detect):
        m = self._counts(rng, n_bins, n_detect)
        k = build_kernel(0.06, n_bins, m.delta_t)
        # The histograms span three read blocks or more.
        assert m.n_illum * m.n_detect > core._READ_BLOCK // n_bins * 2
        reference = _long_double_projection(m, k)
        error = to_frequency(m, k).coefficients.astype(np.clongdouble) - reference
        assert np.linalg.norm(error) <= 1e-14 * np.linalg.norm(reference)

    # Groups of 3 histograms split the 80 into 26 groups and a pair; blocks
    # of 1, 2 and all groups then split them differently.
    @pytest.mark.parametrize("group", [None, 3], ids=["product-groups", "groups-of-3"])
    def test_block_size_does_not_change_a_bit(self, rng, monkeypatch, group):
        m = self._counts(rng, 1023, n_detect=40)
        k = build_kernel(0.06, 1023, m.delta_t)
        if group is not None:
            monkeypatch.setattr(phasor, "_PRODUCT_VALUES", group * 1023 * 2 * k.n_freq)
        monkeypatch.setattr(core, "_READ_BLOCK", 1 << 40)
        whole = to_frequency(m, k).coefficients
        for block in (1, 7 * 1023):
            monkeypatch.setattr(core, "_READ_BLOCK", block)
            assert np.array_equal(to_frequency(m, k).coefficients, whole)

    # The phase omega*t0 overflows to inf; it is refused, with no
    # RuntimeWarning, before any histogram is read.
    @pytest.mark.parametrize("t0", [1e300, -1e300])
    def test_refuses_a_t0_whose_phase_overflows(self, tmp_path, monkeypatch, t0):
        m = _measurement(np.ones((1, 4, 256)), t0=t0)
        k = build_kernel(0.06, 256, 16e-12)
        path = str(tmp_path / "capture.nls1")
        write_dataset(m, path)
        monkeypatch.setattr(core.DatasetFile, "histogram_rows",
                            lambda d, group=1: pytest.fail("a histogram was read"))
        monkeypatch.setattr(core.TransientMeasurement, "histogram_rows",
                            lambda m, group=1: pytest.fail("a histogram was read"))
        for project in (lambda: to_frequency(m, k), lambda: read_frequency_slices(path, 0.06)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=re.escape(f"t0 = {t0:g} s puts the phase")):
                    project()

    def test_rejects_kernel_built_for_other_time_axis(self):
        m = _measurement(np.zeros((1, 4, 256)))
        with pytest.raises(ValidationError):
            to_frequency(m, build_kernel(0.06, 128, 16e-12))
        with pytest.raises(ValidationError):
            to_frequency(m, build_kernel(0.06, 256, 8e-12))


_COORD = st.floats(-1.0, 1.0)


def _points(n: int, dim: int):
    return hnp.arrays(np.float64, (n, dim), elements=_COORD)


@st.composite
def _captures(draw):
    """A small capture on a relay of any kind, and the rows per projection block."""
    kind = draw(st.sampled_from(["uniform", "planar", "3d"]))
    if kind == "uniform":
        relay = UniformRelay(UniformGrid2D(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                                           0.02, 0.03, -0.05, 0.01, draw(_COORD)))
    elif kind == "planar":
        relay = NonUniformPlanarRelay(PointList(draw(_points(draw(st.integers(1, 9)), 2))),
                                      draw(_COORD))
    else:
        relay = NonPlanarRelay(PointList(draw(_points(draw(st.integers(1, 9)), 3))))
    dim = 3 if kind == "3d" else draw(st.sampled_from([2, 3]))
    ill = PointList(draw(_points(draw(st.integers(1, 3)), dim)))
    n_bins = draw(st.integers(8, 64))
    h = draw(hnp.arrays(np.float64, (ill.count, relay.count, n_bins),
                        elements=st.floats(0.0, 1e4, width=32)))
    t0 = draw(st.floats(1e-11, 1e-8) | st.floats(-1e-8, -1e-11))
    rows = draw(st.integers(2, 5))
    assume(ill.count * relay.count % rows != 0)
    return TransientMeasurement(relay, ill, h, 16e-12, t0=t0), rows


class TestReadFrequencySlices:
    @staticmethod
    def _streamed_equals_held(path, m, rows, bin_index, group=None):
        write_dataset(m, path)
        # The packet centred on one DFT bin of the window keeps at least that bin.
        lambda_c = SPEED_OF_LIGHT * m.n_bins * m.delta_t / bin_index
        kernel = build_kernel(lambda_c, m.n_bins, m.delta_t)
        products = (phasor._PRODUCT_VALUES if group is None
                    else group * m.n_bins * 2 * kernel.n_freq)
        with mock.patch.object(phasor, "_PRODUCT_VALUES", products):
            # Blocks of `rows` histograms.
            with mock.patch.object(core, "_READ_BLOCK", rows * m.n_bins):
                streamed = read_frequency_slices(path, lambda_c)
            held = to_frequency(read_dataset(path), kernel)
        assert streamed.frequencies.tobytes() == held.frequencies.tobytes()
        assert streamed.coefficients.shape == held.coefficients.shape
        assert streamed.coefficients.tobytes() == held.coefficients.tobytes()
        assert streamed.coefficients.flags.owndata
        assert streamed.relay.kind == held.relay.kind
        assert np.array_equal(streamed.relay.coordinates(), held.relay.coordinates())
        assert np.array_equal(streamed.illuminations.points, held.illuminations.points)

    @settings(max_examples=60, deadline=None)
    @given(capture=_captures(), bin_index=st.integers(1, 4))
    def test_streamed_slices_equal_the_in_memory_ones(self, tmp_path_factory, capture,
                                                      bin_index):
        m, rows = capture
        path = str(tmp_path_factory.mktemp("stream") / "capture.nls1")
        self._streamed_equals_held(path, m, rows, bin_index)

    # Products of 2 or 3 histograms, and a read block of fewer histograms than
    # the capture holds, which the reader rounds to whole groups: both the
    # groups and the blocks split the capture.
    @settings(max_examples=60, deadline=None)
    @given(capture=_captures(), bin_index=st.integers(1, 4), data=st.data())
    def test_streamed_slices_equal_the_in_memory_ones_in_small_groups(
            self, tmp_path_factory, capture, bin_index, data):
        m, _ = capture
        count = m.n_illum * m.n_detect
        assume(count >= 3)
        group = data.draw(st.integers(2, min(3, count - 1)), label="group")
        rows = data.draw(st.integers(1, count - 1), label="rows")
        path = str(tmp_path_factory.mktemp("stream") / "capture.nls1")
        self._streamed_equals_held(path, m, rows, bin_index, group)

    def test_a_window_too_short_for_the_wavelength_is_invalid_input(self, tmp_path):
        # The file is sound; its 8 bins of 16 ps carry no bin near 0.5 m.
        path = str(tmp_path / "capture.nls1")
        write_dataset(_measurement(np.ones((1, 4, 8))), path)
        with pytest.raises(ValidationError, match="no DFT bin reaches the retention threshold"):
            read_frequency_slices(path, 0.5)


# ---------------------------------------------------------------------------
# Closed-form calculators
# ---------------------------------------------------------------------------


class TestLateralResolution:
    def test_reference_values(self):
        assert lateral_resolution(0.04, 1.8, 1.8) == pytest.approx(0.0488)
        assert lateral_resolution(0.04, 3.0, 1.8) == pytest.approx(0.08133, abs=5e-6)

    def test_linear_in_depth(self):
        assert lateral_resolution(0.04, 3.6, 1.8) == pytest.approx(
            2 * lateral_resolution(0.04, 1.8, 1.8))

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            lateral_resolution(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            lateral_resolution(0.04, 1.0, -1.0)


class TestSamplingReport:
    def test_unit_ratio_blocks_compression(self):
        r = sampling_report(2.0, 1.0, 0.04)
        assert r.ratio == pytest.approx(1.0)
        assert r.max_downsample == 0.0

    def test_ratio_five_admits_factor_four(self):
        r = sampling_report(1.0, 2.5, 0.04)
        assert r.ratio == pytest.approx(5.0)
        assert r.max_downsample == 4.0
        assert r.lambda_sz == pytest.approx(0.02)
        assert r.lambda_sx == pytest.approx(r.ratio * r.lambda_sz)

    def test_confocal_halves_intervals_not_ratio(self):
        r = sampling_report(1.0, 2.5, 0.04)
        rc = sampling_report(1.0, 2.5, 0.04, confocal=True)
        assert rc.ratio == r.ratio and rc.max_downsample == r.max_downsample
        assert rc.lambda_sz == pytest.approx(r.lambda_sz / 2)
        assert rc.lambda_sx == pytest.approx(r.lambda_sx / 2)

    def test_on_axis_is_unbounded(self):
        r = sampling_report(0.0, 1.0, 0.04)
        assert np.isinf(r.ratio) and np.isinf(r.max_downsample)

    def test_ratio_scale_invariant(self):
        a = sampling_report(0.7, 1.9, 0.04)
        b = sampling_report(0.7 * 3.5, 1.9 * 3.5, 0.04)
        assert a.ratio == pytest.approx(b.ratio)

    def test_rejects_on_plane_scatterer(self):
        with pytest.raises(ValidationError):
            sampling_report(1.0, 0.0, 0.04)

    def test_overflowing_ratio_is_unbounded(self):
        r = sampling_report(1e-320, 0.4, 0.04)
        assert np.isinf(r.ratio) and np.isinf(r.lambda_sx) and np.isinf(r.max_downsample)

    @pytest.mark.parametrize("args, name", [
        ((0.4, math.inf, 0.04), "z_offset"),
        ((math.nan, 0.4, 0.04), "x_offset"),
        ((math.inf, 0.4, 0.04), "x_offset"),
        ((0.4, 1.0, math.inf), "lambda_star"),
    ])
    def test_rejects_non_finite_inputs(self, args, name):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            sampling_report(*args)


class TestFrustumVolume:
    def test_reference_case(self):
        vf = frustum_volume(4, 4, 0, 4, 0.5, 0.5)
        vc = cuboid_volume(4, 4, 0, 4)
        assert vf == pytest.approx(277.33, abs=0.5)
        assert vc == pytest.approx(64.0)
        assert vf - vc == pytest.approx(213.33, abs=0.5)
        assert (vf - vc) / vc == pytest.approx(10.0 / 3.0, abs=0.01)

    def test_large_scale_limit_is_cuboid(self):
        assert frustum_volume(4, 4, 0, 4, 1e9, 1e9) == pytest.approx(64.0, rel=1e-6)

    @pytest.mark.parametrize("args", [
        (4.0, 4.0, 0.0, 4.0, 0.5, 1.0),
        (2.0, 3.0, 0.5, 2.5, 0.8, 0.4),
        (1.0, 1.0, 1.0, 3.0, 1.3, 2.0),
    ])
    def test_matches_numerical_integration(self, args):
        x_in, y_in, z_in, z_out, alpha, beta = args
        zs = np.linspace(z_in, z_out, 10_001)
        # x_in × y_in is the cross-section at the near plane; the extents
        # grow with distance from that plane
        areas = (x_in + (zs - z_in) / alpha) * (y_in + (zs - z_in) / beta)
        numeric = np.trapezoid(areas, zs)
        assert frustum_volume(*args) == pytest.approx(numeric, rel=1e-6)

    def test_zero_height_span_is_empty(self):
        assert frustum_volume(4, 4, 2, 2, 0.5, 0.5) == 0.0

    def test_never_below_cuboid_for_shrinking_scales(self, rng):
        for _ in range(20):
            x_in, y_in = rng.uniform(0.5, 4.0, size=2)
            z_in = rng.uniform(0.0, 1.0)
            z_out = z_in + rng.uniform(0.5, 3.0)
            a, b = rng.uniform(0.2, 1.0, size=2)
            assert (frustum_volume(x_in, y_in, z_in, z_out, a, b)
                    >= cuboid_volume(x_in, y_in, z_in, z_out) - 1e-9)

    def test_rejects_bad_span_and_scales(self):
        with pytest.raises(ValidationError):
            frustum_volume(4, 4, 2, 1, 0.5, 0.5)
        with pytest.raises(ValidationError):
            frustum_volume(4, 4, 0, 4, 0.0, 0.5)
        with pytest.raises(ValidationError):
            frustum_volume(4, 4, 0, 4, 0.5, -1.0)

    @pytest.mark.parametrize("args", [
        (4.0, 4.0, 1.0, 1e200, 0.5, 0.5),    # h**3 overflows
        (4.0, 4.0, 1.0, 2.0, 1e-200, 1e-200),  # alpha*beta underflows to 0
        (1e300, 1e300, 0.0, 1e10, 0.5, 0.5),
    ])
    def test_refuses_a_volume_that_overflows(self, args):
        with pytest.raises(ValidationError, match="frustum volume overflows"):
            frustum_volume(*args)

    def test_cuboid_refuses_a_volume_that_overflows(self):
        with pytest.raises(ValidationError, match="cuboid volume overflows"):
            cuboid_volume(1e300, 1e300, 0.0, 1e10)
        assert cuboid_volume(1e-300, 1e-300, 1.0, 2.0) == 0.0

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_inputs(self, position, bad):
        args = [4.0, 4.0, 0.0, 4.0, 0.5, 0.5]
        args[position] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            frustum_volume(*args)
        if position < 4:
            with pytest.raises(ValidationError, match="must be finite"):
                cuboid_volume(*args[:4])


class TestScaleBounds:
    def test_reference_values(self):
        b = scale_bounds(0.01, 0.04, 3.0, 1.8)
        assert b.pitch_limit == pytest.approx(0.04067, abs=5e-6)
        assert b.alpha_min == pytest.approx(0.2459, abs=5e-5)
        assert b.alpha_max == 1.0

    def test_pitch_at_limit_pins_alpha_to_one(self):
        limit = scale_bounds(0.01, 0.04, 3.0, 1.8).pitch_limit
        assert scale_bounds(limit, 0.04, 3.0, 1.8).alpha_min == pytest.approx(1.0)

    def test_limit_linear_in_depth(self):
        full = scale_bounds(0.01, 0.04, 3.0, 1.8).pitch_limit
        half = scale_bounds(0.01, 0.04, 1.5, 1.8).pitch_limit
        assert half == pytest.approx(full / 2)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            scale_bounds(0.0, 0.04, 3.0, 1.8)
        with pytest.raises(ValidationError):
            scale_bounds(0.01, 0.04, 3.0, 0.0)


class TestCompressionFactor:
    def test_reference_ratio(self):
        assert compression_factor(100, 5, 100, 10) == 125.0

    def test_no_compression_baseline(self):
        assert compression_factor(64, 1, 2048, 1024) == pytest.approx(1.0)

    def test_arithmetic_case(self):
        assert compression_factor(64, 2, 2048, 200) == pytest.approx(20.48)

    def test_detector_count_floors(self):
        # 32/5 floors to 6 retained detectors per side
        assert compression_factor(32, 5, 100, 10) == pytest.approx(1024 * 100 / (36 * 20))

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            compression_factor(0, 5, 100, 10)
        with pytest.raises(ValidationError):
            compression_factor(100, 5, 100, 0)
