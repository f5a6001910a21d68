"""Image and volume comparison metrics.

``ssim`` follows the classic structural-similarity construction with 8x8 box
windows at every valid offset; the dynamic range is taken from the first
(reference) image.  ``align_by_correlation`` recovers an integer translation
by direct cross-correlation with deterministic tie-breaking, and ``ncc`` is
the Pearson correlation of two magnitude patterns.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ValidationError, _index, _require

__all__ = ["ssim", "align_by_correlation", "apply_shift", "ncc"]

_WINDOW = 8
_K1 = 0.01
_K2 = 0.03


def ssim(reference: np.ndarray, image: np.ndarray) -> float:
    """Mean structural similarity over all 8x8 windows (stride 1).

    The dynamic range constant comes from the first argument; comparing
    against a constant reference is an error.
    """
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(image, dtype=np.float64)
    _require(a.ndim == 2 and a.shape == b.shape, "images must be 2D and congruent")
    _require(min(a.shape) >= _WINDOW, f"images must be at least {_WINDOW}x{_WINDOW}")
    span = float(a.max() - a.min())
    if span == 0.0:
        raise ValidationError("reference image is constant; its dynamic range is zero")
    c1 = (_K1 * span) ** 2
    c2 = (_K2 * span) ** 2
    wa = sliding_window_view(a, (_WINDOW, _WINDOW))
    wb = sliding_window_view(b, (_WINDOW, _WINDOW))
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    var_a = (wa * wa).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2) /
             ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
    return float(score.mean())


def align_by_correlation(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Integer translation ``(dx, dy)`` maximizing correlation of ``b`` with ``a``.

    The contract is ``b ~ apply_shift(a, dx, dy)``.  Near-tied correlation
    peaks (within an absolute floor of 1e-12 or 1e-9 of the correlation
    range) resolve to the smallest ``dx^2 + dy^2``, then lexicographically by
    ``(dy, dx)``; two constant images align at ``(0, 0)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _require(a.ndim == 2 and a.shape == b.shape, "images must be 2D and congruent")
    a0 = a - a.mean()
    b0 = b - b.mean()
    if not a0.any() or not b0.any():
        return (0, 0)
    # Imported here: scipy.signal alone roughly doubles the package's import
    # time and resident memory, and nothing else needs it.
    from scipy.signal import correlate2d

    corr = correlate2d(b0, a0, mode="full")
    h, w = a.shape
    c_max = corr.max()
    window = max(1e-12, 1e-9 * float(c_max - corr.min()))
    cand = np.argwhere(corr >= c_max - window)
    shifts = [(int(j - (w - 1)), int(i - (h - 1))) for i, j in cand]
    shifts.sort(key=lambda s: (s[0] * s[0] + s[1] * s[1], s[1], s[0]))
    return shifts[0]


def apply_shift(a: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Translate ``a`` by integer ``(dx, dy)``: ``out[y, x] = a[y-dy, x-dx]``."""
    a = np.asarray(a)
    dx, dy = _index(dx, "dx"), _index(dy, "dy")
    _require(a.ndim == 2, "shift takes a 2D image")
    h, w = a.shape
    out = np.zeros_like(a)
    if abs(dx) >= w or abs(dy) >= h:
        return out
    out[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)] = \
        a[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)]
    return out


def ncc(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the magnitude patterns of two fields."""
    x = np.abs(np.asarray(a)).ravel().astype(np.float64)
    y = np.abs(np.asarray(b)).ravel().astype(np.float64)
    _require(x.size == y.size and x.size >= 2, "fields must have equal size >= 2")
    x0 = x - x.mean()
    y0 = y - y.mean()
    den = np.sqrt(np.sum(x0 * x0)) * np.sqrt(np.sum(y0 * y0))
    if den == 0.0:
        raise ValidationError("correlation is undefined for a constant field")
    return float(np.sum(x0 * y0) / den)
