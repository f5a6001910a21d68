"""Phasor-field reconstruction of hidden scenes from relay-wall transients.

The package turns time-resolved three-bounce measurements captured on a
visible relay surface into complex volumetric images of the hidden scene by
propagating a small set of monochromatic virtual wavefronts.  Propagation is
carried by three fast transform families — FFT convolution, scaled FFTs, and
non-uniform FFTs — selected by the sampling pattern of the relay and of the
requested voxels.

Typical flow::

    from phasorfield import build_kernel, to_frequency, reconstruct

    kernel = build_kernel(lambda_c=0.04, n_bins=m.n_bins, delta_t=m.delta_t)
    slices = to_frequency(m, kernel)
    volume = reconstruct(slices, grid, "rsd")

``read_frequency_slices(path, lambda_c)`` is ``to_frequency`` of the opened
dataset file: the same slices, projected block by block as it is read.
"""

from .core import (
    PROPAGATION_SIGN,
    SPEED_OF_LIGHT,
    ContainerFormatError,
    CuboidGrid,
    ExplicitVoxels,
    FrequencySlices,
    FrustumGrid,
    InvalidMagicError,
    NonFiniteDataError,
    NonPlanarRelay,
    NonUniformPlanarRelay,
    PointList,
    ReconstructionVolume,
    TransientMeasurement,
    TruncatedPayloadError,
    UniformGrid2D,
    UniformGrid3D,
    UniformRelay,
    UnsupportedVersionError,
    ValidationError,
    VoxelPlane,
    grid_coordinates,
    illumination_coordinates,
    read_container,
    read_dataset,
    read_volume,
    write_dataset,
    write_pgm,
    write_volume,
)
from .metrics import align_by_correlation, apply_shift, ncc, ssim
from .phasor import (
    PhasorKernel,
    SamplingReport,
    ScaleBounds,
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
from .reconstruct import ALGORITHM_NAMES, project_max_depth, reconstruct
from .sim import Scatterer, Scene, add_poisson_noise, simulate, subsample_interpolate
from .spectral import (
    cfft_2d,
    cifft_2d,
    nufft1,
    nufft2,
    sfft_1d,
    sfft_2d_centered,
)

__version__ = "0.1.0"

__all__ = [
    "PROPAGATION_SIGN",
    "SPEED_OF_LIGHT",
    "ContainerFormatError",
    "CuboidGrid",
    "ExplicitVoxels",
    "FrequencySlices",
    "FrustumGrid",
    "InvalidMagicError",
    "NonFiniteDataError",
    "NonPlanarRelay",
    "NonUniformPlanarRelay",
    "PointList",
    "ReconstructionVolume",
    "TransientMeasurement",
    "TruncatedPayloadError",
    "UniformGrid2D",
    "UniformGrid3D",
    "UniformRelay",
    "UnsupportedVersionError",
    "ValidationError",
    "VoxelPlane",
    "grid_coordinates",
    "illumination_coordinates",
    "read_container",
    "read_dataset",
    "read_volume",
    "write_dataset",
    "write_pgm",
    "write_volume",
    "align_by_correlation",
    "apply_shift",
    "ncc",
    "ssim",
    "PhasorKernel",
    "SamplingReport",
    "ScaleBounds",
    "build_kernel",
    "compression_factor",
    "cuboid_volume",
    "frustum_volume",
    "lateral_resolution",
    "read_frequency_slices",
    "sampling_report",
    "scale_bounds",
    "to_frequency",
    "ALGORITHM_NAMES",
    "project_max_depth",
    "reconstruct",
    "Scatterer",
    "Scene",
    "add_poisson_noise",
    "simulate",
    "subsample_interpolate",
    "cfft_2d",
    "cifft_2d",
    "nufft1",
    "nufft2",
    "sfft_1d",
    "sfft_2d_centered",
    "__version__",
]
