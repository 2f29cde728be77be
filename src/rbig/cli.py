"""Command-line front end: fit/transform/sample, measures, synthesis, maps.

Every subcommand is deterministic given its inputs, flags, and seed; each
file-producing run also writes a ``<out>.run.json`` record with input
digests, timing and the resolved flags under their ``FitConfig`` and
``PatchConfig`` field names (the record itself is the only
non-reproducible output).  Exit codes: 0 success, 1 input or configuration
error (one ``error:`` line; a read error names its file, a CSV with no
data rows after its header is one, and so is a size too large to allocate),
2 finished with a convergence warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cube import (
    DataCube,
    PatchConfig,
    extract_patches,
    load_csv,
    load_cube,
    patch_grid_shape,
    save_csv,
    save_cube,
)
from .errors import DimensionMismatch, RbigError
from .flow import FitConfig, GaussModel, fit
from .measures import entropy as entropy_measure
from .measures import mutual_information, total_correlation
from .synth import (
    _cholesky,
    _gaussian,
    ar1_cube,
    equicorrelated_gaussian,
    gaussian_mixture,
    noisy_sine,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_WARNINGS = 2


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for convergence warnings, so remap to an input error.
    def error(self, message):
        raise _CliInputError(message)


def _fit_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ``FitConfig`` field, with the field's default."""
    default = FitConfig()
    parser.add_argument(
        "--rotation", dest="rotation_kind", choices=["pca", "random"], default=default.rotation_kind
    )
    parser.add_argument("--bins", type=int, default=default.bins)
    parser.add_argument("--max-layers", type=int, default=default.max_layers)
    parser.add_argument(
        "--tol", dest="tol_delta_t", metavar="TOL", type=float, default=default.tol_delta_t
    )
    parser.add_argument("--patience", type=int, default=default.patience)
    parser.add_argument("--seed", type=int, default=default.seed)


def _patch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spatial", type=int, default=None)
    parser.add_argument("--temporal", type=int, default=None)
    parser.add_argument("--stride-space", type=int, default=1)
    parser.add_argument("--stride-time", type=int, default=1)


def _config(cls, args):
    """``cls`` built from the flags stored under its field names."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def _patch_config_from_args(args, path: str) -> PatchConfig:
    if args.spatial is None or args.temporal is None:
        raise _CliInputError(f"{path} is a cube; --spatial and --temporal are required")
    return _config(PatchConfig, args)


def _read(loader, path):
    """``loader(path)``, with its ``ValueError`` re-raised as ``<path>: <message>``."""
    try:
        return loader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _patches(path: str, cube: DataCube, cfg: PatchConfig):
    """``extract_patches(cube, cfg)``, refusing a cube with no NaN-free patch
    with one line that names its file and the patch shape."""
    samples, anchors = extract_patches(cube, cfg)
    if not len(samples):
        s, t = cfg.spatial, cfg.temporal
        raise ValueError(f"{path}: no {s}x{s}x{t} patch is free of holes (NaN values)")
    return samples, anchors


def _load_samples(path: str, args) -> np.ndarray:
    """CSV paths load directly; anything else is a cube needing patch flags."""
    if path.endswith(".csv"):
        return _read(load_csv, path)
    cfg = _patch_config_from_args(args, path)
    return _patches(path, _read(load_cube, path), cfg)[0]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_run_record(args, inputs, outputs, wall_time_s) -> None:
    record = {
        "subcommand": args.subcommand + (f"-{args.kind}" if args.subcommand == "synth" else ""),
        "config": {
            k: v for k, v in vars(args).items() if k not in ("func", "subcommand", "kind")
        },
        "inputs": {path: _sha256(path) for path in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time_s,
        "version": __version__,
    }
    path = Path(str(outputs[0]) + ".run.json")
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")


# Each command returns (exit code, input paths, output paths); main writes
# the run record of a command with outputs.
def _cmd_fit(args) -> tuple[int, list, list]:
    data = _load_samples(args.input, args)
    config = _config(FitConfig, args)
    # Kept off stderr: the exit code and one line below report non-convergence.
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        model = fit(data, config)
    model.save(args.out)
    trace = {
        "delta_t": model.delta_t.tolist(),
        "non_gaussianity": model.non_gaussianity.tolist(),
        "total_correlation": model.total_correlation,
        "n_layers": model.n_layers,
        "converged": model.converged,
    }
    trace_path = Path(str(args.out) + ".trace.json")
    with open(trace_path, "w") as fh:
        json.dump(trace, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if not model.converged:
        print("warning: fit did not converge within the layer cap", file=sys.stderr)
    code = EXIT_OK if model.converged else EXIT_WARNINGS
    return code, [args.input], [args.out, trace_path]


def _cmd_transform(args) -> tuple[int, list, list]:
    model = _read(GaussModel.load, args.model)
    data = _read(load_csv, args.input)
    z, logjac = model.transform(data)
    header = [f"z{j}" for j in range(z.shape[1])] + ["logjac"]
    save_csv(args.out, np.column_stack([z, logjac]), header)
    return EXIT_OK, [args.model, args.input], [args.out]


def _cmd_sample(args) -> tuple[int, list, list]:
    model = _read(GaussModel.load, args.model)
    x = model.sample(args.n, args.seed)
    save_csv(args.out, x)
    return EXIT_OK, [args.model], [args.out]


def _cmd_measure(args) -> tuple[int, list, list]:
    config = _config(FitConfig, args)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        if args.subcommand == "mi":
            x = _read(load_csv, args.x)
            y = _read(load_csv, args.y)
            report = mutual_information(x, y, config)
            inputs = [args.x, args.y]
        else:
            data = _load_samples(args.input, args)
            inputs = [args.input]
            if args.subcommand == "tc":
                report = total_correlation(data, config)
            else:
                report = entropy_measure(data, config)
    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    if not report.converged:
        print("warning: a fit did not converge within the layer cap", file=sys.stderr)
    code = EXIT_OK if report.converged else EXIT_WARNINGS
    return code, inputs, [args.out] if args.out else []


def _cmd_synth(args) -> tuple[int, list, list]:
    if args.kind == "gauss":
        if args.corr is not None:
            # The matrix's errors name its file, as read errors do.
            chol = _read(lambda path: _cholesky(load_csv(path)), args.corr)
            data = _gaussian(args.n, chol, args.seed)
        else:
            if args.rho is None:
                raise _CliInputError("synth gauss needs --rho or --corr")
            data = equicorrelated_gaussian(args.n, args.dim, args.rho, args.seed)
        save_csv(args.out, data)
    elif args.kind == "sine":
        data = noisy_sine(args.n, args.seed, args.noise)
        save_csv(args.out, data, ["t", "y"])
    elif args.kind == "mixture":
        data = gaussian_mixture(args.n, args.seed, args.separation)
        save_csv(args.out, data)
    else:  # ar1-cube
        cube = ar1_cube(args.t, args.height, args.width, args.phi, args.seed)
        save_cube(args.out, cube)
    return EXIT_OK, [], [args.out]


def _cmd_info_map(args) -> tuple[int, list, list]:
    model = _read(GaussModel.load, args.model)
    cube = _read(load_cube, args.cube)
    cfg = _patch_config_from_args(args, args.cube)
    if model.dim != cfg.dim:
        raise DimensionMismatch(
            f"model dimension {model.dim} != patch dimension {cfg.dim}"
        )
    samples, anchors = _patches(args.cube, cube, cfg)
    info = model.information(samples)
    grid = np.full(patch_grid_shape(cube.shape, cfg), np.nan)
    grid[tuple((anchors // (cfg.stride_time, cfg.stride_space, cfg.stride_space)).T)] = info
    save_cube(args.out, DataCube(values=grid))
    return EXIT_OK, [args.model, args.cube], [args.out]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbig", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit a Gaussianization model to CSV or cube data")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _fit_flags(p)
    _patch_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("transform", help="map CSV rows to the Gaussian domain")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("sample", help="draw synthetic rows from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    for name, help_text in [
        ("entropy", "joint differential entropy of a dataset"),
        ("tc", "total correlation of a dataset"),
        ("mi", "mutual information between two paired datasets"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "mi":
            p.add_argument("--x", required=True)
            p.add_argument("--y", required=True)
        else:
            p.add_argument("--input", required=True)
            _patch_flags(p)
        p.add_argument("--out", default=None)
        _fit_flags(p)
        p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("synth", help="write seeded synthetic datasets")
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    k = kinds.add_parser("gauss")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--rho", type=float, default=None)
    k.add_argument("--corr", default=None, help="CSV file with a correlation matrix")
    k.add_argument("--dim", type=int, default=2)

    k = kinds.add_parser("sine")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--noise", type=float, default=0.25)

    k = kinds.add_parser("mixture")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--separation", type=float, default=2.0)

    k = kinds.add_parser("ar1-cube")
    k.add_argument("--t", type=int, required=True)
    k.add_argument("--height", type=int, required=True)
    k.add_argument("--width", type=int, required=True)
    k.add_argument("--phi", type=float, required=True)

    for k in kinds.choices.values():
        k.add_argument("--seed", type=int, default=0)
        k.add_argument("--out", required=True)
        k.set_defaults(func=_cmd_synth)

    p = sub.add_parser("info-map", help="per-patch information map over a cube")
    p.add_argument("--model", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out", required=True)
    _patch_flags(p)
    p.set_defaults(func=_cmd_info_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.monotonic()
        code, inputs, outputs = args.func(args)
        if outputs:
            _write_run_record(args, inputs, outputs, time.monotonic() - started)
        return code
    except (_CliInputError, RbigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
