"""SSIM, correlation alignment, and magnitude correlation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasorfield
from phasorfield import ValidationError
from phasorfield.metrics import align_by_correlation, apply_shift, ncc, ssim


class TestSsim:
    def test_self_similarity_is_one(self, rng):
        a = rng.uniform(0.0, 1.0, size=(16, 16))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_zero_mean_is_negative(self):
        # full-period sinusoid: every 8x8 window has exactly zero mean, so
        # negation flips the structure term without touching luminance
        x = np.arange(16)
        a = np.add.outer(np.sin(2 * np.pi * x / 8), np.cos(2 * np.pi * x / 8))
        assert ssim(a, -a) < 0.0

    def test_matches_direct_windowed_recomputation(self, rng):
        a = rng.uniform(0.0, 2.0, size=(16, 16))
        b = a + 0.3 * rng.normal(size=(16, 16))
        span = a.max() - a.min()
        c1 = (0.01 * span) ** 2
        c2 = (0.03 * span) ** 2
        scores = []
        for i in range(16 - 8 + 1):
            for j in range(16 - 8 + 1):
                wa = a[i:i + 8, j:j + 8]
                wb = b[i:i + 8, j:j + 8]
                mu_a, mu_b = wa.mean(), wb.mean()
                va = wa.var()
                vb = wb.var()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                scores.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                              / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2)))
        assert ssim(a, b) == pytest.approx(np.mean(scores), abs=1e-10)

    def test_degrades_with_noise(self, rng):
        a = rng.uniform(0.0, 1.0, size=(24, 24))
        noisy_small = a + 0.01 * rng.normal(size=a.shape)
        noisy_big = a + 0.5 * rng.normal(size=a.shape)
        assert ssim(a, noisy_big) < ssim(a, noisy_small) <= 1.0

    def test_rejects_constant_reference(self, rng):
        with pytest.raises(ValidationError, match="constant"):
            ssim(np.ones((16, 16)), rng.uniform(size=(16, 16)))

    def test_rejects_shape_mismatch_and_small_images(self, rng):
        with pytest.raises(ValidationError):
            ssim(rng.uniform(size=(16, 16)), rng.uniform(size=(16, 17)))
        with pytest.raises(ValidationError):
            ssim(rng.uniform(size=(4, 4)), rng.uniform(size=(4, 4)))


class TestAlign:
    def test_identical_images(self, rng):
        a = rng.normal(size=(12, 12))
        assert align_by_correlation(a, a) == (0, 0)

    @pytest.mark.parametrize("shift", [(3, -2), (-4, 1), (0, 5)])
    def test_recovers_constructed_shift(self, rng, shift):
        dx, dy = shift
        a = rng.normal(size=(20, 20))
        b = apply_shift(a, dx, dy)
        assert align_by_correlation(a, b) == (dx, dy)

    def test_constant_images_tie_break_to_zero(self):
        assert align_by_correlation(np.full((8, 8), 3.0),
                                    np.full((8, 8), 7.0)) == (0, 0)

    def test_shift_contract_roundtrip(self, rng):
        a = np.zeros((10, 10))
        a[4, 5] = 1.0
        b = apply_shift(a, 2, -3)
        assert b[1, 7] == 1.0 and b.sum() == 1.0
        assert align_by_correlation(a, b) == (2, -3)

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValidationError):
            align_by_correlation(rng.normal(size=(8, 8)),
                                 rng.normal(size=(8, 9)))


class TestApplyShift:
    def test_zero_fill_at_the_border(self):
        a = np.arange(9.0).reshape(3, 3)
        out = apply_shift(a, 1, 0)
        assert np.array_equal(out[:, 0], np.zeros(3))
        assert np.array_equal(out[:, 1:], a[:, :2])

    def test_overlong_shift_blanks_the_image(self):
        a = np.ones((3, 3))
        assert np.all(apply_shift(a, 5, 0) == 0)

    @pytest.mark.parametrize("dx, dy, name", [(1.5, 0, "dx"), (0, 1.0, "dy"), (0, "1", "dy")])
    def test_rejects_a_shift_that_is_not_an_integer(self, dx, dy, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer$"):
            apply_shift(np.ones((3, 3)), dx, dy)


class TestNcc:
    def test_perfect_correlation_under_scaling_and_phase(self, rng):
        f = rng.normal(size=40) + 1j * rng.normal(size=40)
        assert ncc(f, 3.0 * f) == pytest.approx(1.0, abs=1e-12)
        assert ncc(f, f * np.exp(1j * 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_uses_magnitudes_not_signs(self, rng):
        f = rng.normal(size=40)
        assert ncc(f, -f) == pytest.approx(1.0, abs=1e-12)

    def test_bounded(self, rng):
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        assert -1.0 <= ncc(a, b) <= 1.0

    def test_rejects_constant_field(self):
        with pytest.raises(ValidationError, match="constant"):
            ncc(np.ones(10), np.arange(10.0))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValidationError):
            ncc(np.ones(10), np.ones(9))


@pytest.mark.parametrize("module", ["phasorfield", "phasorfield.cli"])
def test_import_leaves_scipy_signal_out(module):
    # scipy.signal alone roughly doubles the import time and resident memory
    # of the package; only align_by_correlation needs it.
    code = f"import sys, {module}; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(phasorfield.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["phasorfield", "phasorfield.cli"])
def test_import_leaves_scipy_out(module):
    # Only the NUFFT paths and align_by_correlation need SciPy, and each
    # imports it on first use; the FFT-only paths run on NumPy alone.
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(phasorfield.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
