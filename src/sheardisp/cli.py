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
run can be reproduced byte-for-byte (manifest timestamp aside).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .ou_process import OUParams, sample_ou, time_grid, integral_variance
from .spectral_core import GridFunction
from .eff_diffusivity import (
    FlowSpec, lambda_multiplicative, lambda_white, taylor_steady,
    linear_profile, cosine_profile,
)
from .aris_solver import solve_aris, kappa_from_realization, estimate_gamma
from .monte_carlo import SimConfig, InitialData, simulate_forward, ensemble_pdf
from .invariant_measure import (
    pdf_deterministic, cdf_deterministic, pdf_random_wave, cdf_random_wave,
)
from . import acceptance


def _load_profile(spec: str, n: int = 512) -> GridFunction:
    """Flow presets: 'linear', 'cosine', 'cosine:k', or a CSV of (y, u)."""
    if spec == "linear":
        return linear_profile(n)
    if spec == "cosine":
        return cosine_profile(1, n)
    if spec.startswith("cosine:"):
        return cosine_profile(int(spec.split(":", 1)[1]), n)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(f"flow spec {spec!r}: not a preset and file does not exist")
    data = np.loadtxt(path, delimiter=",")
    y, u = data[:, 0], data[:, 1]
    grid = np.linspace(0.0, 1.0, n + 1)
    return GridFunction(grid, np.interp(grid, y, u))


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Document fields first, explicit command-line flags override.

    A flag counts as explicit when it differs from the subcommand default,
    so re-passing a default value cannot override a document field.
    """
    skip = ("config", "func", "command")
    defaults = vars(parser.parse_args([args.command]))
    merged = json.loads(Path(args.config).read_text()) if args.config else {}
    unknown = sorted(k for k in merged if k in skip or k not in defaults)
    if unknown:
        raise SystemExit(f"config fields not read by {args.command}: {', '.join(unknown)}")
    for key, value in vars(args).items():
        if key not in skip and (key not in merged or value != defaults[key]):
            merged[key] = value
    return merged


# count fields take an int only; a float such as 2.5 from a --config
# document would otherwise fail deep inside range() or numpy
_INT_FIELDS = ("paths", "realizations", "particles", "n_modes", "mode_index",
               "bins", "seed", "threads")


def _validate_numeric(cfg: dict) -> None:
    """Range rules for the numeric fields; a value that is not an int or
    float (a string or a bool from a --config document), or not an int for
    a count field, is rejected too."""
    rules = {
        "gamma": lambda v: v > 0, "pe": lambda v: v >= 0,
        "t_end": lambda v: v > 0, "dt": lambda v: v > 0,
        "particles": lambda v: v >= 1, "realizations": lambda v: v >= 1,
        "paths": lambda v: v >= 1, "bins": lambda v: v >= 2,
        "beta": lambda v: v > 0, "n_modes": lambda v: v >= 1,
        "mode_index": lambda v: v >= 1, "init_s": lambda v: v > 0,
        "seed": lambda v: v >= 0, "threads": lambda v: v >= 1,
    }
    for key, ok in rules.items():
        value = cfg.get(key)
        if value is None:
            continue
        kinds = int if key in _INT_FIELDS else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            kind = "an int" if key in _INT_FIELDS else "a number"
            raise SystemExit(f"config field {key}={value!r} is not {kind}")
        if not ok(value):
            raise SystemExit(f"config field {key}={value!r} out of range")


def _write_manifest(outdir: Path, cfg: dict, extra: dict | None = None) -> None:
    doc = {k: v for k, v in sorted(cfg.items())}
    payload = json.dumps(doc, sort_keys=True).encode()
    manifest = {
        "config": doc,
        "config_sha256": hashlib.sha256(payload).hexdigest(),
        "package_version": __version__,
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
    u = _load_profile(cfg["flow"])
    record = {"flow": cfg["flow"], "bc": cfg["bc"], "pe": cfg["pe"]}
    if cfg.get("white_noise"):
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
    u = _load_profile(cfg["flow"])
    out = _outdir(cfg)
    flow = (FlowSpec.steady(u, cfg["bc"]) if cfg.get("steady")
            else FlowSpec.multiplicative(u, cfg["bc"]))
    init = (InitialData.gaussian(cfg["init_s"]) if cfg.get("init_s") is not None
            else InitialData.delta_line())
    sim = SimConfig(dt=cfg["dt"], n_particles=cfg["particles"], seed=cfg["seed"],
                    pe=cfg["pe"])
    grid = time_grid(cfg["t_end"], cfg["dt"])
    keeper = {}

    def one(i: int) -> dict:
        path = (None if cfg.get("steady")
                else sample_ou(OUParams(cfg["gamma"]), grid, seed=cfg["seed"], realization=i))
        res = simulate_forward(flow, cfg["gamma"], init, cfg["t_end"], sim,
                               path, keep_positions=(i == 0), realization=i)
        if i == 0:
            keeper["final_x"] = res.final_x
        return {
            "realization": i,
            "kappa_estimate_final": float(res.kappa_estimate[-1]),
            "kappa_standard_error": res.kappa_standard_error(),
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
    np.savetxt(out / "x_histogram.csv",
               np.column_stack([centers, density]),
               delimiter=",", header="x,density", comments="")
    _write_manifest(out, cfg)
    print(f"wrote ensemble summaries and final-position histogram to {out}")
    return 0


def cmd_pdf(cfg: dict) -> int:
    out = _outdir(cfg)
    bins = cfg["bins"]
    if cfg["mode"] == "deterministic":
        edges = np.linspace(0.0, 1.0, bins + 1)
        cdf = cdf_deterministic(edges, cfg["beta"])
        density = np.diff(cdf) / np.diff(edges)   # bin averages: sums exactly to 1
        centers = 0.5 * (edges[:-1] + edges[1:])
        analytic = pdf_deterministic(np.clip(centers, 1e-12, 1 - 1e-12), cfg["beta"])
    elif cfg["mode"] == "random-wave":
        edges = np.linspace(-6.0, 6.0, bins + 1)
        cdf = cdf_random_wave(edges)
        density = np.diff(cdf) / np.diff(edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        analytic = pdf_random_wave(centers)
    else:
        raise SystemExit(f"unknown pdf mode {cfg['mode']!r}")
    np.savetxt(out / f"pdf_{cfg['mode']}.csv",
               np.column_stack([centers, density, analytic]),
               delimiter=",", header="z,bin_average_density,pointwise_density",
               comments="")
    _write_manifest(out, cfg)
    total = float(np.sum(density * np.diff(edges)))
    print(f"wrote {out}/pdf_{cfg['mode']}.csv (bin-average mass {total:.6f})")
    return 0


def cmd_estimate_gamma(cfg: dict) -> int:
    grid = time_grid(cfg["t_end"], cfg["dt"])
    ghats = []
    for i in range(cfg["paths"]):
        path = sample_ou(OUParams(cfg["gamma"]), grid, seed=cfg["seed"], realization=i)
        ghats.append(estimate_gamma(path, cfg["mode_index"]))
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
    names = cfg.get("only")
    results = acceptance.run_all(names.split(",") if names else None)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheardisp",
        description="Random shear dispersion laboratory: effective diffusivities, "
                    "Aris moments, invariant measures, Monte Carlo.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "seed": dict(type=int, default=0),
        "outdir": dict(default=None, help="output directory (default ./runs, or $SHEARDISP_OUTDIR)"),
        "threads": dict(type=int, default=1,
                        help="thread pool for independent realizations; outputs are identical for any value"),
    }

    def common(p, *flags):
        p.add_argument("--config", help="JSON config document; flags override fields")
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])

    p = sub.add_parser("kappa-eff", help="closed-form effective diffusivity")
    common(p)
    p.add_argument("--flow", default="linear")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--pe", type=float, default=1.0)
    p.add_argument("--bc", choices=["no-flux", "periodic"], default="no-flux")
    p.add_argument("--white-noise", action="store_true", dest="white_noise")
    p.set_defaults(func=cmd_kappa_eff)

    p = sub.add_parser("aris", help="pathwise Aris moment records (no-flux walls)")
    common(p, "seed", "outdir", "threads")
    p.add_argument("--flow", default="linear")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--pe", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=200.0, dest="t_end")
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--n-modes", type=int, default=8, dest="n_modes")
    p.set_defaults(func=cmd_aris)

    p = sub.add_parser("simulate", help="forward particle Monte Carlo")
    common(p, "seed", "outdir", "threads")
    p.add_argument("--flow", default="linear")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--pe", type=float, default=1.0)
    p.add_argument("--bc", choices=["no-flux", "periodic"], default="no-flux")
    p.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--particles", type=int, default=20_000)
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--init-s", type=float, default=None, dest="init_s",
                   help="gaussian initial variance (default: delta line source)")
    p.add_argument("--bins", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pdf", help="analytic invariant-measure tables")
    common(p, "outdir")
    p.add_argument("--mode", choices=["deterministic", "random-wave"], default="deterministic")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=200)
    p.set_defaults(func=cmd_pdf)

    p = sub.add_parser("estimate-gamma", help="damping estimator over an OU ensemble")
    common(p, "seed")
    p.add_argument("--gamma", type=float, default=5.0)
    p.add_argument("--t-end", type=float, default=500.0, dest="t_end")
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--paths", type=int, default=20)
    p.add_argument("--mode-index", type=int, default=1, dest="mode_index")
    p.set_defaults(func=cmd_estimate_gamma)

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p)
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args, parser)
    _validate_numeric(cfg)
    return args.func(cfg)


if __name__ == "__main__":
    sys.exit(main())
