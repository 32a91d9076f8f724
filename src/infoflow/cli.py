"""Command-line front end.

Subcommands: analyze (two-series flow estimate), simulate (sample paths),
theory (moment trajectory + stationary flows), map (index vs gridded field),
validate (reference-band harness).

Exit codes: 0 success, 1 validation bands failed, 2 input error,
3 numerical degeneracy. Every output embeds a run manifest (resolved
parameters, input digests, tool version) for reproducibility. The
environment variable INFOFLOW_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import os
import stat
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import InputError, NumericalError
from .estimator import (
    FlowEstimate,
    bootstrap_ci,
    covariances,
    fisher_ci,
    fit_mle,
)
from .fieldmap import load_grid, map_flows, write_flow_maps
from .series import (
    _Lines,
    _open_input,
    _open_output,
    _write_rows,
    align,
    load_csv,
    star_window_from_times,
    subsample,
    window,
)
from .simulator import SimConfig, simulate
from .theory import LinearModel2D, MomentState, analytic_flows, integrate_moments, stationary_covariance
from .validate import FIXTURE_SEEDS, run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _sha256(path: str) -> str:
    """The digest of the input file at path (see series._open_input)."""
    digest = hashlib.sha256()
    with _open_input(path) as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _seed(*sources: tuple[str, object], default: int = 0) -> int:
    """The first seed set among (name, value) sources and INFOFLOW_SEED, else default.

    A value that is not a non-negative integer is an InputError naming its source.
    """
    for name, raw in (*sources, ("INFOFLOW_SEED", os.environ.get("INFOFLOW_SEED"))):
        if raw is None:
            continue
        try:
            seed = int(raw)
        except ValueError:
            raise InputError(f"{name} must be an integer, got {raw!r}")
        if seed < 0:
            raise InputError(f"{name} must be >= 0, got {seed}")
        return seed
    return default


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise InputError(f"--alpha must be in (0, 1), got {alpha}")


def _utf8(value):
    """A string as the UTF-8 decoding of its bytes in the locale's encoding, so that
    a path is spelled alike under any locale; text that has no such bytes (read
    from a UTF-8 file) and other values as they are."""
    if isinstance(value, str):
        with contextlib.suppress(UnicodeEncodeError):
            return os.fsencode(value).decode("utf-8", "surrogateescape")
    return value


def _manifest(args, output: str | None = None, inputs=(), **resolved) -> dict:
    """The run record every output embeds: the parsed flags bar the output path,
    resolved values over them, and the SHA-256 of each input path that is not
    None, every string spelled by _utf8."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func", output)}
    return {
        "command": args.command,
        "parameters": {k: _utf8(v) for k, v in {**flags, **resolved}.items()},
        "input_digests": {_utf8(path): _sha256(path) for path in inputs if path is not None},
        "tool_version": __version__,
    }


def _comment(manifest: dict) -> str:
    """The text of the '# manifest: {...}' line that heads a text output."""
    return f"manifest: {json.dumps(manifest, sort_keys=True)}"


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.replace(";", ",").split(",")
    if not all(p.strip() for p in parts):
        raise InputError(f"{what} has an empty entry in {text!r}")
    if len(parts) != n:
        raise InputError(f"{what} needs {n} comma-separated reals, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise InputError(f"{what}: cannot parse {text!r} as reals")


def _parse_window(text: str, what: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError(f"{what} must look like T_START:T_END, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise InputError(f"{what}: cannot parse {text!r}")


@contextlib.contextmanager
def _output(path: str | None):
    """The file at path, open for writing until exit; stdout, left open, for None or "-"."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with _open_output(path) as out:
            yield out


def _parse_model(f: str, a: str, b: str, prefix: str) -> LinearModel2D:
    """The model of drift constants f, row-major drift matrix a and diffusion b.

    An error names the value as prefix + "f", "a" or "b": its flag or its config key.
    """
    f_vec = np.array(_parse_floats(f, 2, prefix + "f"))
    a_mat = np.array(_parse_floats(a, 4, prefix + "a")).reshape(2, 2)
    b1, b2 = _parse_floats(b, 2, prefix + "b")
    if b1 < 0 or b2 < 0:
        raise InputError(f"{prefix}b entries must be >= 0, got {[b1, b2]}")
    return LinearModel2D(f=f_vec, a=a_mat, b1=b1, b2=b2)


def _flow_json(est: FlowEstimate, model, cov, manifest: dict, units: str) -> dict:
    fields = asdict(est)
    del fields["block_len"]  # the manifest records it
    return {
        **fields,
        "variant": est.variant.value,
        "a_hat": [[model.a11_hat, model.a12_hat], [model.a21_hat, model.a22_hat]],
        "f_hat": [model.f1_hat, model.f2_hat],
        "b_hat": [model.b1_hat, model.b2_hat],
        "det_c": cov.det,
        "units": units,
        "manifest": manifest,
    }


def _summary_line(direction: str, t: float, significant: bool, alpha: float, units: str) -> str:
    if t > 0:
        kind = "destabilizing (source makes target more uncertain)"
    elif t < 0:
        kind = "stabilizing"
    else:
        kind = "zero"
    sig = "significant" if significant else "not significant"
    return f"{direction}: {t:+.6g} {units}, {kind}, {sig} at alpha={alpha:g}"


# --- analyze ------------------------------------------------------------------


def cmd_analyze(args) -> int:
    seed = _seed(("--seed", args.seed))
    _check_alpha(args.alpha)
    if args.ci == "bootstrap" and args.n_boot < 100:
        raise InputError(f"--n-boot must be >= 100, got {args.n_boot}")
    if args.ci == "bootstrap" and args.block_len is not None and args.block_len < 1:
        raise InputError(f"--block-len must be >= 1, got {args.block_len}")
    if args.detrend_star and not args.star_window:
        raise InputError("--detrend-star needs --star-window")
    if args.star_window and args.ci == "bootstrap":
        raise InputError(
            "bootstrap intervals are not defined for the star variant; use --ci fisher"
        )
    if args.subsample < 1:
        raise InputError(f"--subsample must be >= 1, got {args.subsample}")
    if not 0 < args.dt < np.inf:
        raise InputError(f"--dt must be a positive finite real, got {args.dt}")
    span = _parse_window(args.window, "--window") if args.window else None
    star_span = _parse_window(args.star_window, "--star-window") if args.star_window else None
    x1, x2 = load_csv(args.input, args.x1, args.x2, args.dt)
    if span:
        x1, x2 = window(x1, *span), window(x2, *span)
    if args.subsample > 1:
        x1, x2 = subsample(x1, args.subsample), subsample(x2, args.subsample)
    pair = align(x1, x2)
    if args.ci == "bootstrap" and args.block_len is not None and args.block_len > pair.m:
        raise InputError(
            f"--block-len must be at most m = {pair.m}, the aligned length, got {args.block_len}"
        )
    cov = covariances(pair)
    model = fit_mle(pair, cov)

    star = star_window_from_times(x1, *star_span) if star_span else None
    if args.ci == "bootstrap":
        est = bootstrap_ci(
            pair, cov, alpha=args.alpha, n_boot=args.n_boot, block_len=args.block_len, seed=seed
        )
    else:
        est = fisher_ci(
            pair, model, cov, alpha=args.alpha, star_window=star, detrend_star=args.detrend_star
        )

    units = f"nats/{args.time_unit}"
    n_boot = args.n_boot if args.ci == "bootstrap" else None
    manifest = _manifest(args, "output", [args.input], seed=seed, n_boot=n_boot, block_len=est.block_len)
    payload = _flow_json(est, model, cov, manifest, units)
    with _output(args.output) as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    name1, name2 = x1.label or "x1", x2.label or "x2"
    for direction, t, significant in (
        (f"{name2} -> {name1}", est.t21, est.significant21()),
        (f"{name1} -> {name2}", est.t12, est.significant12()),
    ):
        print(_summary_line(direction, t, significant, est.alpha, units), file=sys.stderr)
    return EXIT_OK


# --- simulate -----------------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with _open_input(path) as fh:
        for i, line in enumerate(_Lines(fh), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path}: line {i}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


_SIM_DEFAULTS = {
    "dt": "0.001",
    "steps": "100000",
    "x0": "1,2",
    "f": "0,0",
    "a": "-1,0.5,0,-1",
    "b": "0.1,0.1",
}


def cmd_simulate(args) -> int:
    config = dict(_SIM_DEFAULTS)
    if args.config:
        file_cfg = _read_config_file(args.config)
        unknown = set(file_cfg) - set(_SIM_DEFAULTS) - {"seed"}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        config.update(file_cfg)
    for key in _SIM_DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            config[key] = str(flag)
    seed = _seed(("--seed", args.seed), (f"{args.config}: seed", config.get("seed")))
    manifest = _manifest(args, "out", [args.config], **{**config, "seed": seed})

    try:
        dt = float(config["dt"])
        n_steps = int(config["steps"])
    except ValueError as exc:
        raise InputError(f"bad simulate configuration: {exc}")
    x0 = _parse_floats(config["x0"], 2, "x0")
    model = _parse_model(config["f"], config["a"], config["b"], "")
    try:
        cfg = SimConfig(model, (x0[0], x0[1]), dt, n_steps, seed)
    except ValueError as exc:
        raise InputError(str(exc))
    x1, x2 = simulate(cfg)

    with _output(args.out) as out:
        out.write(f"# {_comment(manifest)}\n")
        out.write("t,x1,x2\n")
        _write_rows(out, np.column_stack([np.arange(len(x1)) * dt, x1.values, x2.values]))
    if out is not sys.stdout:
        print(f"wrote {len(x1)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


# --- theory -------------------------------------------------------------------


def cmd_theory(args) -> int:
    model = _parse_model(args.f, args.a, args.b, "--")
    sigma = stationary_covariance(model)
    t21_inf, t12_inf = analytic_flows(model, sigma)

    mu0 = _parse_floats(args.mu0, 2, "--mu0")
    s0 = _parse_floats(args.sigma0, 3, "--sigma0")
    init = MomentState(
        mu=np.array(mu0), sigma=np.array([[s0[0], s0[1]], [s0[1], s0[2]]]), t=0.0
    )
    trajectory = integrate_moments(model, init, args.t_end, args.dt)
    t21, t12 = analytic_flows(model, trajectory.sigma)
    s11_s12_s22 = trajectory.sigma[:, [0, 0, 1], [0, 1, 1]]

    manifest = _manifest(args, "out")
    with _output(args.out) as out:
        out.write(f"# {_comment(manifest)}\n")
        out.write("t,mu1,mu2,s11,s12,s22,t21,t12\n")
        _write_rows(out, np.column_stack([trajectory.t, trajectory.mu, s11_s12_s22, t21, t12]))
    summary = {"stationary_sigma": sigma.tolist(), "t21": t21_inf, "t12": t12_inf, "manifest": manifest}
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_OK


# --- map ----------------------------------------------------------------------


def cmd_map(args) -> int:
    _check_alpha(args.alpha)
    field_grid = load_grid(args.grid_manifest)
    index, _ = load_csv(args.index, args.index_col, args.index_col, field_grid.dt)
    flow_map = map_flows(index, field_grid, alpha=args.alpha)
    manifest = _manifest(args, "out_dir", [*field_grid.files, args.index])
    paths = write_flow_maps(flow_map, args.out_dir, _comment(manifest))
    n_cells = int(field_grid.mask.sum())
    n_sig_i2f = int(flow_map.significant_index_to_field.sum())
    n_sig_f2i = int(flow_map.significant_field_to_index.sum())
    n_missing = int(np.isnan(flow_map.t_index_to_field[field_grid.mask]).sum())
    print(
        f"{n_cells} unmasked cells; significant index->field: {n_sig_i2f}, "
        f"field->index: {n_sig_f2i}; {n_missing} missing; outputs in {args.out_dir}",
        file=sys.stderr,
    )
    for path in paths.values():
        print(path, file=sys.stderr)
    return EXIT_OK


# --- validate -------------------------------------------------------------------


def cmd_validate(args) -> int:
    seed = _seed(("--seed", args.seed), default=FIXTURE_SEEDS[0])
    manifest = _manifest(args, seed=seed)
    rows = run_validation(seed)
    print(f"# {_comment(manifest)}")
    print(f"{'check':44s} {'value':>12s} {'reference':>10s} {'band':>24s} result")
    failed = []
    for row in rows:
        ref = f"{row.reference:.4g}" if row.reference is not None else "-"
        if row.lo is not None and row.hi is not None:
            band = f"[{row.lo:.4g}, {row.hi:.4g}]"
        elif row.lo is not None:
            band = f"> {row.lo:.4g}"
        else:
            band = "-"
        if row.passed is None:
            result = "info"
        elif row.passed:
            result = "pass"
        else:
            result = "FAIL"
            failed.append(row.name)
        print(f"{row.name:44s} {row.value:12.5g} {ref:>10s} {band:>24s} {result}")
    if failed:
        print(f"{len(failed)} band(s) failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VALIDATION
    print("all bands pass", file=sys.stderr)
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="Information-flow causality rates between two time series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate flow rates between two CSV columns")
    p.add_argument("--input", required=True, help="CSV file with a header row")
    p.add_argument("--x1", required=True, help="column name of the target series x1")
    p.add_argument("--x2", required=True, help="column name of the source series x2")
    p.add_argument("--dt", required=True, type=float, help="sampling step in time units")
    p.add_argument("--subsample", type=int, default=1, metavar="N", help="keep every N-th sample")
    p.add_argument("--window", metavar="T1:T2", help="analyze user times [T1, T2] only")
    p.add_argument(
        "--star-window",
        metavar="T1:T2",
        help="stationary slab for the starred covariance ratio (nonstationary variant)",
    )
    p.add_argument(
        "--detrend-star",
        action="store_true",
        help="remove a linear trend from the star slab before the starred covariances",
    )
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--ci", choices=("fisher", "bootstrap"), default="fisher")
    p.add_argument("--n-boot", type=int, default=1000)
    p.add_argument("--block-len", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-unit", default="unit-time", help="label for reported units")
    p.add_argument("--output", default=None, help="write the JSON result here (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="generate a sample path of the 2-D linear SDE")
    p.add_argument("--config", help="key=value file with dt/steps/x0/f/a/b/seed")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--x0", default=None, help="initial point, e.g. '1,2'")
    p.add_argument("--f", default=None, help="drift constants, e.g. '0,0'")
    p.add_argument("--a", default=None, help="drift matrix row-major, e.g. '-1,0.5,0,-1'")
    p.add_argument("--b", default=None, help="diagonal diffusion, e.g. '0.1,0.1'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("theory", help="moment trajectory and analytic stationary flows")
    p.add_argument("--f", default="0,0")
    p.add_argument("--a", default="-1,0.5,0,-1")
    p.add_argument("--b", default="0.1,0.1")
    p.add_argument("--mu0", default="1,2")
    p.add_argument("--sigma0", default="0.1,0,0.1", help="initial s11,s12,s22")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--out", default=None, help="trajectory CSV path (default stdout)")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("map", help="flow maps between an index series and a gridded field")
    p.add_argument("--index", required=True, help="CSV with the index series")
    p.add_argument("--index-col", default="index")
    p.add_argument("--grid-manifest", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("validate", help="run the reference validation harness")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_validate)
    return parser


def _check_outputs(args) -> None:
    """Raise the InputError that writing an output would, before any input is
    read and creating nothing: the directory of --output or --out must be a
    directory, as must the nearest existing ancestor of --out-dir (made on write)."""
    for name in ("output", "out", "out_dir"):
        path = getattr(args, name, None)
        if path is None or (path == "-" and name != "out_dir"):
            continue
        near = path if name == "out_dir" else os.path.dirname(path) or "."
        while name == "out_dir" and not os.path.lexists(near) and near != ".":
            near = os.path.dirname(near) or "."
        try:
            code = 0 if stat.S_ISDIR(os.stat(near).st_mode) else errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
        if code:
            raise InputError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        # the estimator's floors report what numpy would warn of, in one line
        with np.errstate(all="ignore"):
            return args.func(args)
    except (InputError, NumericalError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
