"""Virtual-wavefront construction and design-rule helpers.

A transient measurement is turned into a small set of complex monochromatic
wavefronts by projecting each time histogram onto a Gaussian frequency
packet centered on a chosen virtual wavelength.  :func:`to_frequency` is the
one projection, over the blocks of histograms that a measurement in memory or
an open dataset file gives, so :func:`read_frequency_slices` never holds a
file's histograms whole.  It computes the retained DFT bins only, as real
matrix products of fixed groups of histograms small enough to stay on the
calling thread.  The remaining functions are
closed-form design rules for that virtual wave: resolution limits, frustum
scale-factor bounds, swept-volume bookkeeping, relay sampling-rate
certificates, and the storage compression won by detector downsampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SPEED_OF_LIGHT,
    DatasetFile,
    FrequencySlices,
    TransientMeasurement,
    ValidationError,
    _freeze,
    _index,
    _require,
    open_dataset,
)

__all__ = [
    "PhasorKernel",
    "build_kernel",
    "to_frequency",
    "read_frequency_slices",
    "lateral_resolution",
    "ScaleBounds",
    "scale_bounds",
    "frustum_volume",
    "cuboid_volume",
    "SamplingReport",
    "sampling_report",
    "compression_factor",
]


@dataclass(frozen=True)
class PhasorKernel:
    """Gaussian frequency packet sampled on the DFT bins of a time window.

    ``bin_indices[i]`` is the positive DFT bin carrying angular frequency
    ``frequencies[i] = 2*pi*bin/(n_bins*delta_t)`` with Gaussian envelope
    weight ``weights[i]``; only bins whose weight reaches ``threshold`` are
    retained.
    """

    lambda_c: float
    delta_t: float
    n_bins: int
    threshold: float
    omega_c: float
    sigma: float
    bin_indices: np.ndarray
    frequencies: np.ndarray
    weights: np.ndarray

    @property
    def n_freq(self) -> int:
        return int(self.bin_indices.size)

    @property
    def lambda_star(self) -> float:
        """Shortest retained wavelength (sets the finest spatial detail)."""
        return 2.0 * math.pi * SPEED_OF_LIGHT / float(self.frequencies[-1])


def _require_finite(**values: float) -> None:
    """Refuse NaN and infinite inputs, naming the first one."""
    for name, v in values.items():
        _require(math.isfinite(v), f"{name} must be finite, not {v}")


def _check_packet(lambda_c: float, threshold: float) -> None:
    """Refuse a virtual wavelength or retention threshold that no time axis could use."""
    _require_finite(lambda_c=lambda_c)
    _require(lambda_c > 0, "virtual wavelength must be > 0")
    sigma = SPEED_OF_LIGHT / (5.0 * lambda_c)
    _require(0.0 < 2.0 * sigma * sigma < math.inf,
             f"virtual wavelength {lambda_c:g} m gives a packet width beyond floating point")
    _require(0.0 < threshold < 1.0, "retention threshold must lie in (0, 1)")


def build_kernel(lambda_c: float, n_bins: int, delta_t: float,
                 threshold: float = 0.01) -> PhasorKernel:
    """Select and weight the DFT bins of a Gaussian packet at ``lambda_c``.

    The packet is centered at ``omega_c = 2*pi*c/lambda_c`` with spectral
    width ``sigma = c/(5*lambda_c)``; a positive bin ``k`` (1..n_bins//2) is
    retained when ``exp(-(omega_k - omega_c)^2 / (2*sigma^2)) >= threshold``.
    """
    _check_packet(lambda_c, threshold)
    _require_finite(delta_t=delta_t)
    n_bins = _index(n_bins, "n_bins")
    _require(n_bins >= 2, "need at least two time bins")
    _require(delta_t > 0, "bin width must be > 0")
    omega_c = 2.0 * math.pi * SPEED_OF_LIGHT / lambda_c
    sigma = SPEED_OF_LIGHT / (5.0 * lambda_c)
    bins = np.arange(1, n_bins // 2 + 1)
    # A bin whose exponent overflows lies far outside the packet: its weight is 0.
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        omegas = 2.0 * math.pi * bins / (n_bins * delta_t)
        weights = np.exp(-((omegas - omega_c) ** 2) / (2.0 * sigma * sigma))
    keep = weights >= threshold
    if not keep.any():
        raise ValidationError(
            "no DFT bin reaches the retention threshold; the time window is too "
            "short or the virtual wavelength is outside the sampled band")
    return PhasorKernel(
        lambda_c=float(lambda_c),
        delta_t=float(delta_t),
        n_bins=n_bins,
        threshold=float(threshold),
        omega_c=omega_c,
        sigma=sigma,
        bin_indices=_freeze(bins[keep]),
        frequencies=_freeze(omegas[keep]),
        weights=_freeze(weights[keep]),
    )


# Multiply-adds per matrix product of the projection.  The OpenBLAS that
# NumPy's wheels bundle (0.3.31) runs a [rows, 1024] x [1024, 32] product on
# the calling thread up to 28 rows and splits it across its own threads from
# 32; a one-row product, which it runs as a matrix-vector product, stays on
# one thread up to about 4e5 and at 4096 x 190 is split, which moves its
# bits.  Split products would contend with reconstruct's worker pool, and
# after one the idle workers keep a second CPU busy through the rest of the
# capture.  2**19 is 16 rows at 1024 x 32.
_PRODUCT_VALUES = 1 << 19


def _projection_matrix(kernel: PhasorKernel, t0: float) -> np.ndarray:
    """The real ``[n_bins, 2F]`` matrix that takes a histogram row to its
    coefficients as interleaved real and imaginary parts.

    Column pair ``f`` holds ``weight_f * exp(-1j*omega_f*t0) *
    exp(-2j*pi*((b*k_f) mod n_bins)/n_bins)`` at sample ``b``: each DFT
    angle is reduced in integers before it is scaled, so it is a root of
    unity from one table of ``n_bins``.
    """
    n = kernel.n_bins
    roots = np.exp(-2j * np.pi * np.arange(n) / n)
    w = roots[np.outer(np.arange(n), kernel.bin_indices) % n]
    w *= kernel.weights * np.exp(-1j * kernel.frequencies * t0)
    return w.view(np.float64)


def to_frequency(measurement: TransientMeasurement | DatasetFile,
                 kernel: PhasorKernel) -> FrequencySlices:
    """Project time histograms onto the kernel's weighted frequency bins.

    Coefficient for bin ``k``: ``DFT(histogram)[k] * weight_k *
    exp(-1j*omega_k*t0)`` — the forward DFT analyzes against
    ``exp(-1j*omega*t)`` and the ``t0`` phase refers bin 0 back to absolute
    time zero.  ``measurement`` is a :class:`TransientMeasurement` or the
    :class:`DatasetFile` that :func:`open_dataset` yields, and gives its real
    histograms in blocks of rows.  Only the retained bins are computed: each
    group of histograms is one real matrix product with
    :func:`_projection_matrix`, small enough to stay on the calling thread,
    written straight into the coefficients.  The groups are fixed by
    histogram index and every block holds whole groups, so a coefficient's
    bits do not depend on the blocks the histograms are read in.
    """
    shape, t0 = measurement.shape, measurement.t0
    _require(shape[2] == kernel.n_bins,
             "measurement and kernel disagree on the number of time bins")
    _require(math.isclose(measurement.delta_t, kernel.delta_t, rel_tol=1e-12),
             "measurement and kernel disagree on the bin width")
    _require(math.isfinite(float(kernel.frequencies[-1]) * t0),
             f"t0 = {t0:g} s puts the phase omega*t0 of the retained frequencies "
             "beyond floating point")
    w = _projection_matrix(kernel, t0)
    n_bins, n_cols = w.shape
    # Columns and histograms per product: within _PRODUCT_VALUES, and two
    # histograms or more unless a single one fills it, so that the one-row
    # product of a capture's last group stays within half of it.
    cols = min(n_cols, max(1, _PRODUCT_VALUES // (2 * n_bins)))
    group = max(1, _PRODUCT_VALUES // (n_bins * cols))
    coeff = np.empty((shape[0], shape[1], kernel.n_freq), dtype=np.complex128)
    out = coeff.reshape(-1, kernel.n_freq).view(np.float64)
    i = 0
    for h in measurement.histogram_rows(group):
        n = len(h) - len(h) % group
        for j in range(0, n_cols, cols):
            wj, oj = w[:, j:j + cols], out[i:i + len(h), j:j + cols]
            np.matmul(h[:n].reshape(-1, group, n_bins), wj,
                      out=oj[:n].reshape(-1, group, wj.shape[1]))
            np.matmul(h[n:], wj, out=oj[n:])
        i += len(h)
    coeff.setflags(write=False)
    return FrequencySlices(kernel.frequencies, coeff, measurement.relay,
                           measurement.illuminations)


def read_frequency_slices(path: str, lambda_c: float, threshold: float = 0.01) -> FrequencySlices:
    """Read a dataset container straight into its frequency slices.

    :func:`to_frequency` of the opened file, with the kernel built from its
    time axis: the same slices as ``to_frequency(read_dataset(path),
    build_kernel(lambda_c, n_bins, delta_t, threshold))``, bit for bit, but
    the histograms are projected block by block as they are read, so no
    float64 copy of them is ever held.  A malformed file raises the
    :class:`ContainerFormatError` that :func:`read_dataset` raises; a kernel
    the time axis cannot carry raises :class:`ValidationError`.
    """
    with open_dataset(path) as d:
        return to_frequency(d, build_kernel(lambda_c, d.shape[2], d.delta_t, threshold))


def lateral_resolution(lambda_c: float, z: float, aperture: float) -> float:
    """Diffraction-limited lateral resolution ``1.22 * lambda_c * z / aperture``."""
    _require(lambda_c > 0 and z > 0 and aperture > 0,
             "wavelength, depth, and aperture must be > 0")
    return 1.22 * lambda_c * z / aperture


@dataclass(frozen=True)
class ScaleBounds:
    """Admissible per-plane scale factors at one depth.

    ``pitch_limit`` is half the diffraction-limited resolution (largest
    useful output pitch); ``alpha_min`` keeps the widened output pitch
    ``delta_in/alpha`` at or below that limit; ``alpha_max`` is always 1.
    """

    pitch_limit: float
    alpha_min: float
    alpha_max: float = 1.0


def scale_bounds(delta_in: float, lambda_c: float, z: float, aperture: float) -> ScaleBounds:
    """Bounds on the depth-plane scale factor given relay pitch ``delta_in``."""
    _require(delta_in > 0, "input pitch must be > 0")
    res = lateral_resolution(lambda_c, z, aperture)
    return ScaleBounds(pitch_limit=res / 2.0, alpha_min=2.0 * delta_in / res)


def frustum_volume(x_in: float, y_in: float, z_in: float, z_out: float,
                   alpha: float, beta: float) -> float:
    """Volume swept by a depth-scaled grid whose extent grows linearly.

    The lateral extents grow as ``x(z) = x_in + (z - z_in)/alpha`` and
    ``y(z) = y_in + (z - z_in)/beta``; integrating ``x(z)*y(z)`` in closed
    form over ``[z_in, z_out]`` gives, with ``h = z_out - z_in``::

        h*x_in*y_in + (h^2/2)*(x_in/beta + y_in/alpha) + h^3/(3*alpha*beta)
    """
    _require_finite(x_in=x_in, y_in=y_in, z_in=z_in, z_out=z_out, alpha=alpha, beta=beta)
    _require(x_in > 0 and y_in > 0, "base extents must be > 0")
    _require(z_out >= z_in, "far plane must not precede the near plane")
    _require(alpha > 0 and beta > 0, "scale factors must be > 0")
    h = np.float64(z_out - z_in)
    if h == 0:
        return 0.0
    # In float64 an overflow gives inf and a vanishing alpha*beta divides to
    # inf, where Python floats raise; either result is then refused.
    with np.errstate(over="ignore", divide="ignore"):
        volume = (h * x_in * y_in
                  + 0.5 * h * h * (x_in / beta + y_in / alpha)
                  + h ** 3 / (3.0 * alpha * beta))
    return _finite_volume(float(volume), "frustum")


def cuboid_volume(x_in: float, y_in: float, z_in: float, z_out: float) -> float:
    """Volume of the unscaled cuboid with the same base and depth span."""
    _require_finite(x_in=x_in, y_in=y_in, z_in=z_in, z_out=z_out)
    _require(x_in > 0 and y_in > 0, "base extents must be > 0")
    _require(z_out >= z_in, "far plane must not precede the near plane")
    return _finite_volume(x_in * y_in * (z_out - z_in), "cuboid")


def _finite_volume(volume: float, what: str) -> float:
    _require(math.isfinite(volume),
             f"the {what} volume overflows a float: the depth span is too long "
             "for these extents and scale factors")
    return volume


@dataclass(frozen=True)
class SamplingReport:
    """Relay sampling-rate certificate for one scatterer offset.

    ``ratio = 2|z|/|x|`` compares the lateral modulation wavelength on the
    relay against the depth one; an integer downsampling factor ``D`` is
    admissible when ``ratio > D``, so ``max_downsample = ceil(ratio) - 1``
    (unbounded when the scatterer is on-axis or the ratio overflows a float).
    """

    ratio: float
    lambda_sz: float
    lambda_sx: float
    max_downsample: float


def sampling_report(x_offset: float, z_offset: float, lambda_star: float,
                    confocal: bool = False) -> SamplingReport:
    """Certify lateral downsampling for a scatterer at the given offsets.

    ``x_offset`` is the lateral distance from the scatterer to a relay
    point, ``z_offset`` its depth from the relay plane, and ``lambda_star``
    the shortest retained wavelength.  Confocal capture halves the sampling
    wavelengths because illumination and detection phases add.
    """
    _require_finite(x_offset=x_offset, z_offset=z_offset, lambda_star=lambda_star)
    _require(lambda_star > 0, "shortest wavelength must be > 0")
    _require(z_offset != 0, "scatterer must be off the relay plane")
    lambda_sz = lambda_star / (4.0 if confocal else 2.0)
    ratio = 2.0 * abs(z_offset) / abs(x_offset) if x_offset != 0.0 else math.inf
    if math.isinf(ratio):  # on-axis, or so near it that the ratio overflows
        return SamplingReport(ratio=math.inf, lambda_sz=lambda_sz,
                              lambda_sx=math.inf, max_downsample=math.inf)
    return SamplingReport(
        ratio=ratio,
        lambda_sz=lambda_sz,
        lambda_sx=ratio * lambda_sz,
        max_downsample=float(math.ceil(ratio) - 1),
    )


def compression_factor(n: int, d: int, t: int, f: int) -> float:
    """Storage ratio of the full capture to the downsampled frequency-domain one.

    Full capture stores ``n^2 * t`` real histogram values; keeping every
    ``d``-th detector per axis and ``f`` complex frequency coefficients
    stores ``(n//d)^2 * 2f``, so the ratio is ``n^2*t / ((n//d)^2 * 2f)``.
    """
    _require(n >= 1 and t >= 1 and f >= 1, "counts must be >= 1")
    _require(1 <= d <= n, "downsampling factor must lie in [1, n]")
    kept = n // d
    _require(kept >= 1, "downsampling must keep at least one detector per axis")
    return (n * n * t) / (kept * kept * 2.0 * f)
