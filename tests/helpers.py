"""Shared helpers for the test suite.

Small scenes, relays, error norms and malformed dataset files.  The literal
propagation sum the reconstructions are checked against is
:func:`phasorfield.oracle.literal_field`.
"""

from __future__ import annotations

import struct

import numpy as np

from phasorfield import (
    ContainerFormatError,
    FrequencySlices,
    InvalidMagicError,
    NonFiniteDataError,
    PointList,
    Scatterer,
    Scene,
    TruncatedPayloadError,
    UniformRelay,
    UnsupportedVersionError,
    build_kernel,
    simulate,
    to_frequency,
)
from phasorfield.core import UniformGrid2D


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / denom)


def rel_linf(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.max(np.abs(b))
    if denom == 0.0:
        return float(np.max(np.abs(a - b)))
    return float(np.max(np.abs(a - b)) / denom)


def centered_grid2d(n: int, pitch: float, z: float = 0.0) -> UniformGrid2D:
    origin = -(n - 1) * pitch / 2.0
    return UniformGrid2D(n, n, pitch, pitch, origin, origin, z)


def centered_relay(n: int, pitch: float, z: float = 0.0) -> UniformRelay:
    return UniformRelay(centered_grid2d(n, pitch, z))


def make_slices(scene: Scene, relay, illuminations: PointList, *,
                lambda_c: float = 0.06, delta_t: float = 16e-12,
                n_bins: int = 1024, t0: float = 0.0,
                falloff: bool = True) -> FrequencySlices:
    m = simulate(scene, relay, illuminations, delta_t=delta_t, n_bins=n_bins,
                 t0=t0, falloff=falloff)
    kernel = build_kernel(lambda_c, n_bins, delta_t)
    return to_frequency(m, kernel)


def two_scatterer_slices(**kwargs) -> FrequencySlices:
    """A small fixed scene used by several reconstruction tests."""
    scene = Scene(scatterers=(Scatterer((0.03, -0.02, 0.9), 1.0),
                              Scatterer((-0.05, 0.04, 1.0), 0.7)))
    relay = kwargs.pop("relay", centered_relay(16, 0.02))
    ill = kwargs.pop("illuminations",
                     PointList(np.array([[0.0, 0.0], [0.05, -0.03]])))
    return make_slices(scene, relay, ill, **kwargs)



def _histogram_bytes(raw: bytes) -> int:
    """Bytes of the float32 histograms that end a dataset container."""
    n_illum, n_detect, n_bins = struct.unpack("<3I", raw[8:20])
    return 4 * n_illum * n_detect * n_bins


def _set_last_count(value: float):
    return lambda raw: raw[:-4] + np.float32(value).tobytes()


def _add_detector(raw: bytes) -> bytes:
    """One more detector in the header, and its histograms at the payload's end."""
    n_illum, n_detect, n_bins = struct.unpack("<3I", raw[8:20])
    return (raw[:12] + struct.pack("<I", n_detect + 1) + raw[16:]
            + bytes(4 * n_illum * n_bins))


def _add_illumination(raw: bytes) -> bytes:
    """One more illumination in the header, and its histograms at the payload's end."""
    n_illum = struct.unpack("<I", raw[8:12])[0]
    return (raw[:8] + struct.pack("<I", n_illum + 1) + raw[12:]
            + bytes(_histogram_bytes(raw) // n_illum))


# Malformed dataset files, made from a sound one: (edit of its bytes,
# exception class, message pattern).  Every reader of datasets refuses each
# with that class and message, and the command line with exit code 3.
MALFORMED_DATASETS = {
    "bad-magic": (lambda raw: b"JUNK" + raw[4:], InvalidMagicError,
                  r"^expected magic b'NLS1', found b'JUNK'$"),
    "version": (lambda raw: raw[:4] + struct.pack("<I", 99) + raw[8:],
                UnsupportedVersionError, r"^container version 99 is not supported$"),
    "kind-tag": (lambda raw: raw[:36] + b"\x05" + raw[37:], ContainerFormatError,
                 r"^unknown container kind tag 5$"),
    "bin-width": (lambda raw: raw[:20] + struct.pack("<d", -1.0) + raw[28:],
                  ContainerFormatError, r"^bin width must be > 0$"),
    "truncated": (lambda raw: raw[:-1], TruncatedPayloadError,
                  r"^file ends at byte \d+ but \d+ are needed$"),
    "trailing": (lambda raw: raw + b"\0", ContainerFormatError,
                 r"^1 unexpected byte\(s\) follow the payload at byte \d+$"),
    "nan": (_set_last_count(np.nan), NonFiniteDataError,
            r"^histogram payload contains non-finite values$"),
    "inf": (_set_last_count(-np.inf), NonFiniteDataError,
            r"^histogram payload contains non-finite values$"),
    "negative": (_set_last_count(-1.0), ContainerFormatError,
                 r"^histogram values are photon counts and must be >= 0$"),
    "detector-count": (_add_detector, ContainerFormatError,
                       r"^detector axis must match relay point count$"),
    "illumination-count": (_add_illumination, ContainerFormatError,
                           r"^illumination axis must match illumination point count$"),
}
