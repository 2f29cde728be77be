"""Rotation-based iterative Gaussianization.

Multivariate density estimation through alternating marginal Gaussianization
and orthogonal rotations, with sampling and information-theoretic measures
(per-sample information, entropy, total correlation, mutual information) on
tabular and spatio-temporal data.
"""

from .errors import (
    DegenerateDimension,
    DimensionMismatch,
    InfeasibleBudget,
    NonFiniteInput,
    NotConvergedWarning,
    PairedLengthMismatch,
    PatchLargerThanCube,
    ProbabilityOutOfRange,
    RankDeficientWarning,
    RbigError,
    SeriesTooShort,
)
from .marginal import (
    GAUSS_ENTROPY_BITS,
    MarginalGaussianizer,
    MarginalUniformizer,
    fit_gaussianizer,
    fit_uniformizer,
    marginal_entropy,
    marginal_kl_to_standard_normal,
    normal_cdf,
    probit,
)
from .rotation import (
    RotationMatrix,
    fit_pca_rotation,
    random_haar_rotation,
    rotate,
    rotate_inverse,
)
from .flow import FitConfig, GaussLayer, GaussModel, fit, load_model
from .measures import (
    ITReport,
    entropy,
    mutual_information,
    total_correlation,
)
from .cube import (
    DataCube,
    GridMeta,
    PatchConfig,
    extract_patches,
    lag_embed,
    load_csv,
    load_cube,
    patch_grid_shape,
    ratio_sweep_configs,
    save_csv,
    save_cube,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GAUSS_ENTROPY_BITS",
    "DataCube",
    "DegenerateDimension",
    "DimensionMismatch",
    "FitConfig",
    "GaussLayer",
    "GaussModel",
    "GridMeta",
    "ITReport",
    "InfeasibleBudget",
    "MarginalGaussianizer",
    "MarginalUniformizer",
    "NonFiniteInput",
    "NotConvergedWarning",
    "PairedLengthMismatch",
    "PatchConfig",
    "PatchLargerThanCube",
    "ProbabilityOutOfRange",
    "RankDeficientWarning",
    "RbigError",
    "RotationMatrix",
    "SeriesTooShort",
    "entropy",
    "extract_patches",
    "fit",
    "fit_gaussianizer",
    "fit_pca_rotation",
    "fit_uniformizer",
    "lag_embed",
    "load_csv",
    "load_cube",
    "load_model",
    "marginal_entropy",
    "marginal_kl_to_standard_normal",
    "mutual_information",
    "normal_cdf",
    "patch_grid_shape",
    "probit",
    "random_haar_rotation",
    "ratio_sweep_configs",
    "rotate",
    "rotate_inverse",
    "save_csv",
    "save_cube",
    "total_correlation",
]
