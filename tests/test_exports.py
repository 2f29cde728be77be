import importlib
import importlib.util
from pathlib import Path

import rbig

# The package's public names: each is listed once, in its module's __all__.
PUBLIC_NAMES = {
    "__version__",
    "DataCube", "DegenerateDimension", "DimensionMismatch", "FitConfig", "GAUSS_ENTROPY_BITS",
    "GaussModel", "GridMeta", "ITReport", "InfeasibleBudget", "NonFiniteInput",
    "NotConvergedWarning", "PairedLengthMismatch", "PatchConfig", "PatchLargerThanCube",
    "RankDeficientWarning", "RbigError", "SeriesTooShort", "entropy", "extract_patches", "fit",
    "lag_embed", "load_csv", "load_cube", "load_model", "marginal_entropy",
    "marginal_kl_to_standard_normal", "mutual_information", "patch_grid_shape",
    "ratio_sweep_configs", "save_csv", "save_cube", "total_correlation",
}
# The rotation kernels in rbig.rotation are internal: a layer's rotation is a
# row of the model's rotation_entries block.
MODULES = ("errors", "marginal", "flow", "measures", "cube")


def test_exports_are_the_module_lists():
    assert len(PUBLIC_NAMES) == 33
    assert len(rbig.__all__) == len(set(rbig.__all__)) == 33
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


def test_every_trace_target_resolves():
    # The benchmark's traced run wraps these names and fails on a missing
    # one; a rename fails here first.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []
