import importlib

import rbig

# The package's public names: each is listed once, in its module's __all__.
PUBLIC_NAMES = {
    "__version__",
    "DataCube", "DegenerateDimension", "DimensionMismatch", "FitConfig", "GAUSS_ENTROPY_BITS",
    "GaussModel", "GridMeta", "ITReport", "InfeasibleBudget", "MarginalGaussianizer",
    "MarginalUniformizer", "NonFiniteInput", "NotConvergedWarning", "PairedLengthMismatch",
    "PatchConfig", "PatchLargerThanCube", "ProbabilityOutOfRange", "RankDeficientWarning",
    "RbigError", "RotationMatrix", "SeriesTooShort", "entropy", "extract_patches", "fit",
    "fit_gaussianizer", "fit_pca_rotation", "fit_uniformizer", "lag_embed", "load_csv",
    "load_cube", "load_model", "marginal_entropy", "marginal_kl_to_standard_normal",
    "mutual_information", "normal_cdf", "patch_grid_shape", "probit", "random_haar_rotation",
    "ratio_sweep_configs", "rotate", "rotate_inverse", "save_csv", "save_cube",
    "total_correlation",
}
MODULES = ("errors", "marginal", "rotation", "flow", "measures", "cube")


def test_exports_are_the_module_lists():
    assert len(PUBLIC_NAMES) == 45
    assert len(rbig.__all__) == len(set(rbig.__all__)) == 45
    assert set(rbig.__all__) == PUBLIC_NAMES
    listed = ["__version__"]
    for name in MODULES:
        module = importlib.import_module(f"rbig.{name}")
        listed += module.__all__
        for public in module.__all__:
            assert getattr(rbig, public) is getattr(module, public), public
    assert sorted(listed) == sorted(rbig.__all__)


def test_every_export_resolves():
    namespace = {}
    exec("from rbig import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
