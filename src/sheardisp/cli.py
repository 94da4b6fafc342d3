"""Command-line entry point.

Subcommands mirror the module operations:

    kappa-eff       closed-form eigenvalue derivatives and kappa_eff
    aris            pathwise Aris moment records (CSV per realization)
    simulate        forward particle ensembles (NDJSON summaries)
    pdf             analytic invariant-measure tables (CSV)
    estimate-gamma  damping estimator over an OU ensemble
    validate        run the acceptance suite

Each subcommand takes only the flags it reads (``aris`` has no-flux walls
only, so no --bc).  Configuration may come from a JSON document (--config)
whose fields are flags of the subcommand; a flag given on the command line
overrides its document field.  Every writing subcommand drops a
manifest.json recording the resolved config (with the output directory,
and the seed where one is read), its hash and the package version, so a
run can be reproduced byte-for-byte (manifest timestamp aside).  Each
handler imports the layers it runs in its first lines, so a start-up loads
only those: ``kappa-eff`` never loads the Aris, Monte Carlo, invariant-
measure or acceptance modules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ou_process import OUParams, _step_count, _write_csv, sample_ou, time_grid


def _load_profile(spec: str) -> GridFunction:
    """Flow presets 'linear', 'cosine', 'cosine:k', or a CSV of finite (y, u)
    rows with y increasing from <= 0 to >= 1; 512 intervals."""
    from .spectral_core import GridFunction
    from .eff_diffusivity import cosine_profile, linear_profile
    if spec == "linear":
        return linear_profile()
    if spec == "cosine":
        return cosine_profile(1)
    try:
        if spec.startswith("cosine:"):
            return cosine_profile(int(spec.split(":", 1)[1]))
        path = Path(spec)
        if not path.exists():
            raise SystemExit(f"flow spec {spec!r}: not a preset and file does not exist")
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SystemExit(f"flow spec {spec!r}: {exc}") from None
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise SystemExit(f"flow spec {spec!r}: need at least two rows of y,u values")
    if not np.isfinite(data[:, :2]).all():
        raise SystemExit(f"flow spec {spec!r}: y and u must be finite")
    y, u = data[:, 0], data[:, 1]
    if np.any(np.diff(y) <= 0):
        raise SystemExit(f"flow spec {spec!r}: y must increase strictly down the rows")
    if y[0] > 0.0 or y[-1] < 1.0:
        raise SystemExit(f"flow spec {spec!r}: y must cover the channel [0, 1]")
    return GridFunction.from_callable(lambda grid: np.interp(grid, y, u))


_NOT_FIELDS = ("config", "func", "command", "subparser")


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv) -> dict:
    """Document fields first, command-line flags override.

    The document's fields become the subcommand's defaults and the command
    line is parsed again, so a flag overrides its field even when given at
    its default value.  argparse neither converts nor checks a non-string
    default, and would convert a string default such as "2" through the
    flag's type, so each field's kind is checked against its flag first.
    """
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise SystemExit(f"config file {args.config}: {exc.strerror or exc}") from None
        except ValueError as exc:           # JSONDecodeError, UnicodeDecodeError
            raise SystemExit(f"config file {args.config}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise SystemExit(f"config file {args.config}: not a JSON object of fields")
        unknown = sorted(k for k in doc if k in _NOT_FIELDS or k not in vars(args))
        if unknown:
            raise SystemExit(f"config fields not read by {args.command}: {', '.join(unknown)}")
        actions = {a.dest: a for a in args.subparser._actions}
        for key, value in doc.items():
            _check_kind(key, value, actions[key])
        args.subparser.set_defaults(**doc)
        args = parser.parse_args(argv)
    return {k: v for k, v in vars(args).items() if k not in _NOT_FIELDS}


def _check_kind(key: str, value, action: argparse.Action) -> None:
    """A document field holds what its flag parses to (a choice, a bool, a string,
    an int or a number); null only where the flag's default is None."""
    if value is None and action.default is None:
        return
    if action.choices is not None:
        ok, kind = value in action.choices, f"one of {', '.join(action.choices)}"
    elif action.nargs == 0:
        ok, kind = isinstance(value, bool), "a bool"
    elif action.type is None:
        ok, kind = isinstance(value, str), "a string"
    elif action.type is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an int"
    else:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    if not ok:
        raise SystemExit(f"config field {key}={value!r} is not {kind}")


# dest -> (argparse keywords, range rule); a subcommand may override the default.
# Every rule is a lower bound, so NaN and -inf fail it; +inf fails `< math.inf`.
_FLAGS = {
    "seed": (dict(type=int, default=0), lambda v: v >= 0),
    "outdir": (dict(help="output directory (default ./runs, or $SHEARDISP_OUTDIR)"), None),
    "threads": (dict(type=int, default=1, help="thread pool for independent realizations; "
                     "outputs are identical for any value"), lambda v: v >= 1),
    "flow": (dict(default="linear"), None),
    "steady": (dict(action="store_true"), None),
    "white_noise": (dict(action="store_true"), None),
    "gamma": (dict(type=float, default=1.0), lambda v: v > 0),
    "pe": (dict(type=float, default=1.0), lambda v: v >= 0),
    "bc": (dict(choices=["no-flux", "periodic"], default="no-flux"), None),
    "t_end": (dict(type=float), lambda v: v > 0),
    "dt": (dict(type=float), lambda v: v > 0),
    "particles": (dict(type=int, default=20_000), lambda v: v >= 1),
    "realizations": (dict(type=int, default=1), lambda v: v >= 1),
    "n_modes": (dict(type=int, default=8), lambda v: v >= 1),
    "init_s": (dict(type=float, help="gaussian initial variance (default: delta line source)"),
               lambda v: v > 0),
    "bins": (dict(type=int), lambda v: v >= 2),
    "mode": (dict(choices=["deterministic", "random-wave"], default="deterministic"), None),
    "beta": (dict(type=float, default=1.0), lambda v: v > 0),
    "paths": (dict(type=int, default=20), lambda v: v >= 1),
    "mode_index": (dict(type=int, default=1), lambda v: v >= 1),
    "only": (dict(help="comma-separated criterion numbers"), None),
}


def _validate_ranges(cfg: dict) -> None:
    """Range rules from _FLAGS, finite numbers, t_end a whole number of dt steps."""
    for key, value in cfg.items():
        if (ok := _FLAGS[key][1]) and value is not None and not (ok(value) and value < math.inf):
            raise SystemExit(f"config field {key}={value!r} out of range")
    if "dt" in cfg:
        try:
            _step_count(cfg["t_end"], cfg["dt"])
        except ValueError:
            raise SystemExit(f"config field t_end={cfg['t_end']!r} is not a whole number "
                             f"of dt={cfg['dt']!r} steps") from None


def _write_manifest(outdir: Path, cfg: dict, extra: dict | None = None) -> None:
    import hashlib
    import scipy    # only for its version; loads no submodule
    doc = {k: v for k, v in sorted(cfg.items())}
    payload = json.dumps(doc, sort_keys=True).encode()
    manifest = {
        "config": doc,
        "config_sha256": hashlib.sha256(payload).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        manifest.update(extra)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _outdir(cfg: dict) -> Path:
    """--outdir, else $SHEARDISP_OUTDIR, else ./runs; resolved into cfg for the manifest."""
    cfg["outdir"] = cfg["outdir"] or os.environ.get("SHEARDISP_OUTDIR") or "runs"
    out = Path(cfg["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _map_realizations(fn, n: int, threads: int) -> list:
    """Run per-realization work, optionally on a thread pool, in index order."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_kappa_eff(cfg: dict) -> int:
    from .eff_diffusivity import lambda_multiplicative, lambda_white, taylor_steady
    u = _load_profile(cfg["flow"])
    record = {"flow": cfg["flow"], "bc": cfg["bc"], "pe": cfg["pe"]}
    if cfg["white_noise"]:
        eig = lambda_white(u, cfg["pe"])
        record["mode"] = "white-noise"
    else:
        eig = lambda_multiplicative(u, cfg["gamma"], cfg["pe"], bc=cfg["bc"])
        record["mode"] = "ou"
        record["gamma"] = cfg["gamma"]
        white = lambda_white(u, cfg["pe"])
        record["white_noise_limit"] = {
            "lambda2": white.lambda2, "lambda11": white.lambda11,
            "kappa_eff": white.kappa_eff,
        }
    record.update({"lambda2": eig.lambda2, "lambda11": eig.lambda11,
                   "kappa_eff": eig.kappa_eff})
    record["steady_taylor_kappa_eff"] = taylor_steady(u, cfg["pe"], bc=cfg["bc"])
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_aris(cfg: dict) -> int:
    from .eff_diffusivity import lambda_multiplicative
    from .aris_solver import MIN_WINDOW, kappa_from_realization, solve_aris
    # checked before any output: the kappa_window_slope summary needs its window
    if cfg["t_end"] < 2.0 * MIN_WINDOW:
        raise SystemExit(f"config field t_end={cfg['t_end']!r} below {2.0 * MIN_WINDOW:g}, "
                         f"twice the {MIN_WINDOW:g}-time window of the kappa slope estimate")
    if cfg["dt"] > cfg["t_end"] / 2.0:
        raise SystemExit(f"config field dt={cfg['dt']!r} above {cfg['t_end'] / 2.0:g}, half "
                         "of t_end: the kappa slope window needs two record times")
    u = _load_profile(cfg["flow"])
    out = _outdir(cfg)
    grid = time_grid(cfg["t_end"], cfg["dt"])

    def one(i: int) -> dict:
        path = sample_ou(OUParams(cfg["gamma"]), grid, seed=cfg["seed"], realization=i)
        rec = solve_aris(u, cfg["pe"], path, n_max=cfg["n_modes"])
        rec_path = out / f"aris_{i:04d}.csv"
        rec.to_csv(rec_path)
        return {
            "realization": i,
            "kappa_estimate_final": float(rec.kappa_estimate[-1]),
            "kappa_window_slope": kappa_from_realization(rec),
            "t1bar_final": float(rec.t1bar[-1]),
            "t2bar_final": float(rec.t2bar[-1]),
            "csv": rec_path.name,
        }

    # realizations are independent and seeded by index, so any thread count
    # produces identical outputs; the writer below stays single-threaded
    summaries = _map_realizations(one, cfg["realizations"], cfg["threads"])
    with open(out / "aris_summary.ndjson", "w") as fh:
        for s in summaries:
            fh.write(json.dumps(s) + "\n")
    closed = lambda_multiplicative(u, cfg["gamma"], cfg["pe"])
    _write_manifest(out, cfg, {"kappa_eff_closed_form": closed.kappa_eff})
    print(f"wrote {cfg['realizations']} Aris records to {out} "
          f"(closed-form kappa_eff {closed.kappa_eff:.6f})")
    return 0


def cmd_simulate(cfg: dict) -> int:
    from .eff_diffusivity import FlowSpec
    from .monte_carlo import InitialData, SimConfig, simulate_forward
    u = _load_profile(cfg["flow"])
    out = _outdir(cfg)
    flow = (FlowSpec.steady(u, cfg["bc"]) if cfg["steady"]
            else FlowSpec.multiplicative(u, cfg["bc"]))
    init = (InitialData.gaussian(cfg["init_s"]) if cfg["init_s"] is not None
            else InitialData.delta_line())
    sim = SimConfig(dt=cfg["dt"], n_particles=cfg["particles"], seed=cfg["seed"],
                    pe=cfg["pe"])
    grid = time_grid(cfg["t_end"], cfg["dt"])
    keeper = {}

    def one(i: int) -> dict:
        path = (None if cfg["steady"]
                else sample_ou(OUParams(cfg["gamma"]), grid, seed=cfg["seed"], realization=i))
        res = simulate_forward(flow, cfg["gamma"], init, cfg["t_end"], sim,
                               path, keep_positions=(i == 0), realization=i)
        if i == 0:
            keeper["final_x"] = res.final_x
        return {
            "realization": i,
            "kappa_estimate_final": float(res.kappa_estimate[-1]),
            "kappa_standard_error": res.kappa_se,
            "t1bar_final": float(res.t1bar[-1]),
            "t2bar_final": float(res.t2bar[-1]),
        }

    summaries = _map_realizations(one, cfg["realizations"], cfg["threads"])
    with open(out / "simulate_summary.ndjson", "w") as fh:
        for s in summaries:
            fh.write(json.dumps(s) + "\n")
    final_x = keeper["final_x"]
    density, edges = np.histogram(final_x, bins=cfg["bins"], density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    _write_csv(out / "x_histogram.csv", "x,density", [centers, density])
    _write_manifest(out, cfg)
    print(f"wrote ensemble summaries and final-position histogram to {out}")
    return 0


def cmd_pdf(cfg: dict) -> int:
    from .invariant_measure import (
        cdf_deterministic, cdf_random_wave, pdf_deterministic, pdf_random_wave)
    out = _outdir(cfg)
    bins = cfg["bins"]
    if cfg["mode"] == "deterministic":
        edges = np.linspace(0.0, 1.0, bins + 1)
        cdf = cdf_deterministic(edges, cfg["beta"])
        density = np.diff(cdf) / np.diff(edges)   # bin averages: sums exactly to 1
        centers = 0.5 * (edges[:-1] + edges[1:])
        analytic = pdf_deterministic(np.clip(centers, 1e-12, 1 - 1e-12), cfg["beta"])
    else:
        edges = np.linspace(-6.0, 6.0, bins + 1)
        cdf = cdf_random_wave(edges)
        density = np.diff(cdf) / np.diff(edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        analytic = pdf_random_wave(centers)
    _write_csv(out / f"pdf_{cfg['mode']}.csv", "z,bin_average_density,pointwise_density",
               [centers, density, analytic])
    _write_manifest(out, cfg)
    total = float(np.sum(density * np.diff(edges)))
    print(f"wrote {out}/pdf_{cfg['mode']}.csv (bin-average mass {total:.6f})")
    return 0


def cmd_estimate_gamma(cfg: dict) -> int:
    from .aris_solver import EstimatorDomainError, estimate_gamma
    grid = time_grid(cfg["t_end"], cfg["dt"])
    ghats = []
    for i in range(cfg["paths"]):
        path = sample_ou(OUParams(cfg["gamma"]), grid, seed=cfg["seed"], realization=i)
        try:
            ghats.append(estimate_gamma(path, cfg["mode_index"]))
        except EstimatorDomainError as exc:
            raise SystemExit(f"estimate-gamma path {i}: {exc}") from None
    record = {
        "true_gamma": cfg["gamma"],
        "paths": cfg["paths"],
        "t_end": cfg["t_end"],
        "gamma_hat_mean": float(np.mean(ghats)),
        "gamma_hat_std": float(np.std(ghats)),
        "gamma_hats": [float(g) for g in ghats],
    }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_validate(cfg: dict) -> int:
    from . import acceptance
    names = cfg["only"].split(",") if cfg["only"] else None
    unknown = [k for k in names or () if k not in acceptance.CRITERIA]
    if unknown:
        raise SystemExit(f"unknown criteria {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(acceptance.CRITERIA)}")
    results = acceptance.run_all(names)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

# subcommand -> (handler, help, defaults that differ from _FLAGS, flags it reads)
_COMMANDS = {
    "kappa-eff": (cmd_kappa_eff, "closed-form effective diffusivity", {},
                  "flow gamma pe bc white_noise"),
    "aris": (cmd_aris, "pathwise Aris moment records (no-flux walls)", dict(t_end=200.0, dt=0.005),
             "seed outdir threads flow gamma pe t_end dt realizations n_modes"),
    "simulate": (cmd_simulate, "forward particle Monte Carlo", dict(t_end=50.0, dt=0.01, bins=100),
                 "seed outdir threads flow steady gamma pe bc t_end dt particles realizations "
                 "init_s bins"),
    "pdf": (cmd_pdf, "analytic invariant-measure tables", dict(bins=200), "outdir mode beta bins"),
    "estimate-gamma": (cmd_estimate_gamma, "damping estimator over an OU ensemble",
                       dict(gamma=5.0, t_end=500.0, dt=0.005),
                       "seed gamma t_end dt paths mode_index"),
    "validate": (cmd_validate, "run the acceptance suite", {}, "only"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheardisp",
        description="Random shear dispersion laboratory: effective diffusivities, "
                    "Aris moments, invariant measures, Monte Carlo.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, defaults, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON config document; flags override fields")
        for dest in flags.split():
            p.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest][0])
        p.set_defaults(func=func, subparser=p, **defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args, parser, argv)
    _validate_ranges(cfg)
    return args.func(cfg)


if __name__ == "__main__":
    sys.exit(main())
