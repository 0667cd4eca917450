"""Frequency-band guidance scales for diffusion ODE sampling, verified
against analytic Gaussian-mixture denoisers."""

from .analytic import (
    BlobTextureSpec,
    IsotropicGaussianMixture,
    blob_mixture_from_spec,
    class_labels,
    degrade,
    make_denoiser_pair,
    posterior_mean,
)
from .diffusion import (
    NoiseSchedule,
    SampleRunConfig,
    initial_noise,
    sample,
)
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    FreqGuideError,
    ShapeError,
    UsageError,
)
from .frequency import (
    TransformKind,
    inverse_bands,
    transform_bands,
)
from .guidance import (
    BandNormRecord,
    DenoiserPair,
    GuidanceConfig,
    NormRecorder,
    crossover_step,
    freqcfg_combine,
    freqcfg_combine_bands,
    guided_denoise,
    project,
)
from .metrics import ModeReport, band_energy_fraction, default_tau, mode_report, saturation_proxy
from .tensor import Tensor4, read_tensor, write_csv, write_tensor

__version__ = "0.1.0"

__all__ = [
    "BandNormRecord",
    "BlobTextureSpec",
    "ConfigError",
    "DenoiserPair",
    "DomainError",
    "FormatError",
    "FreqGuideError",
    "GuidanceConfig",
    "IsotropicGaussianMixture",
    "ModeReport",
    "NoiseSchedule",
    "NormRecorder",
    "SampleRunConfig",
    "ShapeError",
    "Tensor4",
    "TransformKind",
    "UsageError",
    "band_energy_fraction",
    "blob_mixture_from_spec",
    "class_labels",
    "crossover_step",
    "default_tau",
    "degrade",
    "freqcfg_combine",
    "freqcfg_combine_bands",
    "guided_denoise",
    "initial_noise",
    "inverse_bands",
    "make_denoiser_pair",
    "mode_report",
    "posterior_mean",
    "project",
    "read_tensor",
    "sample",
    "saturation_proxy",
    "transform_bands",
    "write_csv",
    "write_tensor",
]
