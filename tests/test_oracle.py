"""The brute-force reference transforms and the literal propagation sum."""

import numpy as np
import pytest

from phasorfield import FrequencySlices, PointList, ValidationError, oracle
from phasorfield.core import (PROPAGATION_SIGN, SPEED_OF_LIGHT, UniformGrid2D, UniformRelay,
                              illumination_coordinates)

from helpers import centered_relay, rel_linf


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _literal_alt(slices: FrequencySlices, voxels: np.ndarray) -> np.ndarray:
    """The sum of :func:`oracle.literal_field` filled illumination-major.

    Walks the (frequency, illumination) table in transposed order and places
    each factor on the other side of the product.
    """
    det = slices.relay.coordinates()
    ill = illumination_coordinates(slices.relay, slices.illuminations)
    khat = PROPAGATION_SIGN * slices.frequencies / SPEED_OF_LIGHT
    out = np.empty(len(voxels), dtype=np.complex128)
    for v, x in enumerate(voxels):
        r_det = oracle._distances(det, x)
        r_ill = oracle._distances(ill, x)
        terms = np.empty((slices.n_freq, len(ill)), dtype=np.complex128)
        for p in range(len(ill)):
            for f in range(slices.n_freq):
                kernel = np.exp(1j * khat[f] * r_det) / r_det
                inner = np.sum(slices.coefficients[p, :, f] * kernel)
                terms[f, p] = inner * np.exp(1j * khat[f] * r_ill[p])
        out[v] = np.sum(terms.ravel())
    return out


class TestScaledDft:
    def test_alpha_one_is_plain_dft(self, rng):
        u = _complex(rng, (17,))
        assert rel_linf(oracle.scaled_dft(u, 1.0), np.fft.fft(u)) < 1e-10

    def test_single_sample(self):
        u = np.array([3.0 - 1.0j])
        assert oracle.scaled_dft(u, 0.37, 0) == pytest.approx(u[0])

    def test_literal_quadratic_sum(self, rng):
        m, alpha, offset = 6, 0.7, 2
        u = _complex(rng, (m,))
        direct = np.array([
            sum(u[n] * np.exp(-2j * np.pi * alpha * (n - offset) * (k - offset) / m)
                for n in range(m))
            for k in range(m)
        ])
        assert rel_linf(oracle.scaled_dft(u, alpha, offset), direct) < 1e-12

    def test_rejects_batched_input(self):
        with pytest.raises(ValidationError):
            oracle.scaled_dft(np.ones((2, 4), complex), 0.5)


class TestNudft:
    def test_origin_point_sums_values(self, rng):
        vals = _complex(rng, (3,))
        out = oracle.nudft1(np.zeros((3, 2)), vals, (4, 5))
        assert np.allclose(out, np.sum(vals))

    def test_type2_single_mode_is_plane_wave(self):
        coeff = np.zeros((8,), complex)
        coeff[8 // 2 + 3] = 1.0  # centered index k = +3
        pts = np.array([[0.25], [-1.1]])
        out = oracle.nudft2(coeff, pts)
        assert np.allclose(out, np.exp(3j * pts[:, 0]))

    def test_type1_matches_literal_sum(self, rng):
        pts = rng.uniform(-np.pi, np.pi, size=(7, 2))
        vals = _complex(rng, (7,))
        out = oracle.nudft1(pts, vals, (3, 4))
        ky = np.arange(3) - 1
        kx = np.arange(4) - 2
        direct = np.zeros((3, 4), complex)
        for i, y in enumerate(ky):
            for j, x in enumerate(kx):
                direct[i, j] = np.sum(
                    vals * np.exp(-1j * (x * pts[:, 0] + y * pts[:, 1])))
        assert rel_linf(out, direct) < 1e-12

    def test_types_are_adjoint(self, rng):
        pts = rng.uniform(-np.pi, np.pi, size=(9, 3))
        vals = _complex(rng, (9,))
        coeff = _complex(rng, (4, 3, 5))
        lhs = np.vdot(oracle.nudft1(pts, vals, (4, 3, 5)), coeff)
        rhs = np.vdot(vals, oracle.nudft2(coeff, pts))
        assert abs(lhs - rhs) / abs(lhs) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            oracle.nudft1(np.zeros((3, 2)), np.zeros(3, complex), (4,))
        with pytest.raises(ValidationError):
            oracle.nudft2(np.zeros((4, 4), complex), np.zeros((3, 1)))
        # A bare vector of points is not read as one coordinate per point.
        with pytest.raises(ValidationError):
            oracle.nudft1(np.zeros(3), np.zeros(3, complex), (4,))
        with pytest.raises(ValidationError):
            oracle.nudft2(np.zeros(4, complex), np.zeros(3))


class TestLiteralField:
    def _one_term_slices(self, omega, coeff_value):
        grid = UniformGrid2D(1, 1, 1.0, 1.0, 0.2, -0.1, z=0.0)
        relay = UniformRelay(grid)
        ill = PointList(np.array([[-0.3, 0.4]]))
        coeff = np.full((1, 1, 1), coeff_value, dtype=np.complex128)
        return FrequencySlices(np.array([omega]), coeff, relay, ill)

    def test_single_term_closed_form(self):
        omega, cval = 3.1e9, 1.7 - 0.4j
        sl = self._one_term_slices(omega, cval)
        vox = np.array([[0.05, 0.02, 0.9]])
        r_det = np.linalg.norm(np.array([0.2, -0.1, 0.0]) - vox[0])
        r_ill = np.linalg.norm(np.array([-0.3, 0.4, 0.0]) - vox[0])
        k = PROPAGATION_SIGN * omega / SPEED_OF_LIGHT
        detected = cval * np.exp(1j * k * r_det) / r_det
        for include_illumination, expected in ((True, np.exp(1j * k * r_ill) * detected),
                                               (False, detected)):
            got = oracle.literal_field(sl, vox, include_illumination=include_illumination)
            assert got.shape == (1,)
            assert abs(got[0] - expected) / abs(expected) < 1e-12

    def test_zero_coefficients_give_zero_field(self):
        sl = self._one_term_slices(3.1e9, 0.0)
        assert np.all(oracle.literal_field(sl, np.array([[0.0, 0.0, 1.0]])) == 0)

    def test_fill_order_cannot_change_the_sum(self, rng):
        relay = centered_relay(8, 0.05)
        ill = PointList(rng.uniform(-0.2, 0.2, size=(2, 2)))
        freqs = np.sort(rng.uniform(1e9, 6e9, size=6))
        coeff = _complex(rng, (2, 64, 6))
        sl = FrequencySlices(freqs, coeff, relay, ill)
        vox = rng.uniform(-0.3, 0.3, size=(64, 3))
        vox[:, 2] = rng.uniform(0.6, 1.2, size=64)
        a = oracle.literal_field(sl, vox)
        b = _literal_alt(sl, vox)
        assert np.array_equal(a, b)

    def test_repeat_calls_are_bit_identical(self, rng):
        relay = centered_relay(4, 0.1)
        ill = PointList(np.zeros((1, 2)))
        coeff = _complex(rng, (1, 16, 3))
        sl = FrequencySlices(np.array([1e9, 2e9, 3e9]), coeff, relay, ill)
        vox = rng.uniform(-0.2, 0.2, size=(10, 3))
        vox[:, 2] += 1.0
        assert np.array_equal(oracle.literal_field(sl, vox),
                              oracle.literal_field(sl, vox))

    def test_conjugate_symmetric_slices_give_real_field(self, rng):
        relay = centered_relay(2, 0.1)
        ill = PointList(np.zeros((1, 2)))
        c = _complex(rng, (1, 4, 1))
        coeff = np.concatenate([np.conj(c), c], axis=2)
        sl = FrequencySlices(np.array([-2.0e9, 2.0e9]), coeff, relay, ill)
        vox = rng.uniform(-0.2, 0.2, size=(5, 3))
        vox[:, 2] += 1.0
        field = oracle.literal_field(sl, vox)
        assert np.max(np.abs(field.imag)) <= 1e-10 * np.max(np.abs(field.real))

    def test_rejects_bad_voxel_shape(self, rng):
        sl = self._one_term_slices(3.1e9, 1.0)
        with pytest.raises(ValidationError):
            oracle.literal_field(sl, np.zeros((4, 2)))
