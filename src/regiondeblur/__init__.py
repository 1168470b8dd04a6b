"""Blind deblurring that learns which image regions to estimate from.

The pipeline: synthesize blurred images from sharp ones, label every patch
by how well a blind kernel estimator recovers the true kernel from it, train
a small convolutional classifier on those labels, then deblur new images by
estimating only from the highest-scoring patch.
"""

from .classifier import Network, TrainConfig, build_small_resnet, load_model, save_model, train
from .errors import (
    DegenerateDenominatorError,
    DegenerateInputError,
    DimensionError,
    ModelFormatError,
    ParseError,
    RegionDeblurError,
    ValidationError,
)
from .estimator import EstimatorConfig, estimate_kernel, solve_latent
from .evaluation import align_to_reference, error_ratio, evaluate_pipeline, psnr, success_curve
from .imagecore import (
    BoundaryMode,
    Image,
    Kernel,
    convolve_direct,
    convolve_fft,
    read_image,
    read_kernel,
    resample,
    write_image,
    write_kernel,
)
from .kernelsim import kernel_similarity
from .labeling import LabeledDataset, build_dataset, load_training_samples
from .selector import score_patches
from .synthesis import CorpusManifest, NoiseModel, PatchGridSpec, PatchRef, blur_image, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "BoundaryMode",
    "CorpusManifest",
    "DegenerateDenominatorError",
    "DegenerateInputError",
    "DimensionError",
    "EstimatorConfig",
    "Image",
    "Kernel",
    "LabeledDataset",
    "ModelFormatError",
    "Network",
    "NoiseModel",
    "ParseError",
    "PatchGridSpec",
    "PatchRef",
    "RegionDeblurError",
    "TrainConfig",
    "ValidationError",
    "blur_image",
    "build_dataset",
    "build_small_resnet",
    "convolve_direct",
    "convolve_fft",
    "align_to_reference",
    "error_ratio",
    "estimate_kernel",
    "evaluate_pipeline",
    "generate_corpus",
    "kernel_similarity",
    "load_model",
    "load_training_samples",
    "psnr",
    "read_image",
    "read_kernel",
    "resample",
    "save_model",
    "score_patches",
    "solve_latent",
    "success_curve",
    "train",
    "write_image",
    "write_kernel",
]
