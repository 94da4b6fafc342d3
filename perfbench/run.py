"""sheardisp benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload particles --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from ``src/``;
nothing is installed.  Tasks run one after another in this process
(``cli`` runs one child process at a time), single-threaded.

``--trace 0`` times set-up, then runs whole rounds of the workload's task
mix for about ``--seconds``, and reports the end-to-end metrics of
``BENCHMARK.json``, with both times scaled to reference pace
(``pace.py``).  ``--trace 1`` runs a fixed number of rounds twice,
untraced and then with every public function of the package wrapped in a
timing span, and reports the per-layer metrics plus the tracing overhead.
Both modes run every correctness check and print each one with its value,
bound and ratio.  The last line of standard output is the JSON result;
the full report (environment, checks, metrics) and, when tracing, the
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# single-threaded library workloads: pin BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# one CPU, the highest-numbered allowed, for this process and every child it
# starts, so that pace marks and timed work run on the same CPU (pace.py)
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = ("sheardisp", "ou_process", "spectral_core", "eff_diffusivity", "aris_solver",
           "monte_carlo", "invariant_measure", "acceptance", "cli")
SETUP_SAMPLES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up in a fresh process, print the set-up time and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(args, spec: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():   # a plain checkout falls back to the source digest
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sheardisp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    why = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why.get(args.workload),
    }


# ---------------------------------------------------------------------------
# running tasks
# ---------------------------------------------------------------------------

def run_one(workload, kind, seed, errors, tracer=None):
    """Run one task, then its checks outside the timer and untraced.  A
    task that raises counts as failed and is reported, and the run goes on."""
    try:
        if tracer is None:
            task = workload.run_task(kind, seed)
        else:
            with tracer.span(f"task.{kind}"):
                task = workload.run_task(kind, seed)
    except Exception:   # a benchmark must keep going and report the failure
        errors.append(traceback.format_exc())
        return wl.Task(kind, error=traceback.format_exc(limit=3))
    paused = tracer is not None and tracer.active
    if paused:
        tracer.active = False
    try:
        task.checks = workload.check(task)
    except Exception:
        errors.append(traceback.format_exc())
        task.error = traceback.format_exc(limit=3)
    finally:
        if paused:
            tracer.active = True
    task.payload = None
    return task


def run_rounds(workload, seed, seconds=None, rounds=None, tracer=None, pacer=None):
    """Closed loop of whole rounds: by count, or by time until the next
    round, checks included, would end after ``seconds`` (at least one
    round).  A round's time is the sum of its tasks' times; checks are
    not in it.  With a ``pacer``, each task's time is also scaled to
    reference pace (``pace.py``) into ``Task.scaled``; a ``cli`` task
    scales its own."""
    tasks, round_secs, errors, done = [], [], [], []
    t_phase = time.perf_counter()
    r = 0
    while True:
        first = len(tasks)
        for slot, kind in enumerate(workload.round_plan):
            if tracer is not None:
                tracer.task = len(tasks)
            tasks.append(run_one(workload, kind, wl.task_seed(seed, r, slot), errors, tracer))
            done.append(time.perf_counter())
            if pacer is not None:
                pacer.maybe_take()
        round_secs.append(sum(t.seconds for t in tasks[first:]))
        r += 1
        if rounds is not None and r >= rounds:
            break
        elapsed = time.perf_counter() - t_phase
        if seconds is not None and elapsed * (r + 1) / r > seconds:
            break
    if pacer is not None:
        pacer.take()
        for task, t in zip(tasks, done):
            task.scaled = task.seconds * pacer.scale_at(t)
    return tasks, round_secs, errors


def setup_probe_samples(args, n: int) -> list:
    """(raw, scaled) wall time of ``n`` fresh benchmark processes that
    each set up and exit."""
    samples = []
    for _ in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        proc, secs, scale = pace.run_sampled(cmd, 170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append((secs, secs * scale))
    return samples


# ---------------------------------------------------------------------------
# fresh-process probes for the traced run
# ---------------------------------------------------------------------------

CDF_PROBE = ("import time, sheardisp.cli\n"
             "from sheardisp.invariant_measure import cdf_random_wave\n"
             "t = time.perf_counter(); cdf_random_wave(0.5)\n"
             "print(time.perf_counter() - t)\n")


def fresh_process_metrics() -> dict:

    def wall(code, n=3):
        return statistics.median(wl.run_child([sys.executable, "-c", code], ROOT)[1] for _ in range(n))

    out = {"cli.import_s": wall("import sheardisp.cli") - wall("pass")}
    proc, _, _ = wl.run_child([sys.executable, "-X", "importtime", "-c", CDF_PROBE], ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed:\n{proc.stderr[-2000:]}")
    out["invariant_measure.cdf_table_build_s"] = float(proc.stdout.strip().splitlines()[-1])
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    for mod in MODULES:
        full = mod if mod == "sheardisp" else f"sheardisp.{mod}"
        out[f"cli.import.{mod}_s"] = cumulative.get(full, 0.0)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tr, tasks) -> dict:
    ns, self_ns, calls, c = tr.total_ns, tr.self_ns, tr.calls, tr.counters

    def per(total, n, scale=1.0):
        return total / scale / n if n else 0.0

    def per_call(name, scale):
        return per(ns[name], calls[name], scale)

    look, vel = "spectral_core.GridFunction.__call__", "eff_diffusivity.FlowSpec.velocity"
    fwd, bwd = "monte_carlo.simulate_forward", "monte_carlo.evaluate_point_backward"
    fwd_steps, bwd_steps = c[f"{fwd}.particle_steps"], c[f"{bwd}.particle_steps"]
    forward_ids = [i for i, t in enumerate(tasks) if t.kind in ("forward_steady", "forward_ou")]
    return {
        "ou_process.sample_ou.calls": calls["ou_process.sample_ou"],
        "ou_process.sample_ou.nodes": c["ou_process.sample_ou.nodes"],
        "ou_process.sample_ou.ns_per_node": per(c["sample_ou.long_ns"], c["sample_ou.long_nodes"]),
        "ou_process.sample_ou.us_per_call": per(c["sample_ou.short_ns"], c["sample_ou.short_calls"], 1e3),
        "spectral_core.lookup.points": c["lookup.points"],
        "spectral_core.lookup.ns_per_point": per(ns[look], c["lookup.points"]),
        "spectral_core.synthesize.us_per_point": per(ns["spectral_core.HermiteSeries.synthesize"],
                                                     c["synthesize.points"], 1e3),
        "spectral_core.helmholtz_inverse.calls": calls["spectral_core.helmholtz_inverse"],
        "spectral_core.helmholtz_inverse.us_per_node": per(ns["spectral_core.helmholtz_inverse"],
                                                           c["helmholtz_inverse.nodes"], 1e3),
        "spectral_core.vbar.us_per_call": per_call("spectral_core.HermiteSeries.vbar", 1e3),
        "spectral_core.bessel_k0.evals": c["bessel_k0.evals"],
        "spectral_core.bessel_k0.ns_per_eval": per(ns["spectral_core.bessel_k0"], c["bessel_k0.evals"]),
        "spectral_core.cosine_project.ms_per_call": per_call("spectral_core.cosine_project", 1e6),
        "eff_diffusivity.velocity.calls": calls[vel],
        "eff_diffusivity.velocity.self_ns_per_point": per(self_ns[vel], c["velocity.points"]),
        "eff_diffusivity.lambda2_general.ms_per_call": per_call("eff_diffusivity.lambda2_general", 1e6),
        "eff_diffusivity.lambda2_general.terms": c["eff_diffusivity.lambda2_general.terms"],
        "eff_diffusivity.lambda11_general.ms_per_call": per_call("eff_diffusivity.lambda11_general", 1e6),
        "eff_diffusivity.lambda11_general.max_rel_gap": c["eff_diffusivity.lambda11_general.max_rel_gap"],
        "eff_diffusivity.lambda_multiplicative.us_per_call":
            per_call("eff_diffusivity.lambda_multiplicative", 1e3),
        "eff_diffusivity.lambda_white.us_per_call": per_call("eff_diffusivity.lambda_white", 1e3),
        "eff_diffusivity.taylor_steady.us_per_call": per_call("eff_diffusivity.taylor_steady", 1e3),
        "aris_solver.solve_aris.calls": calls["aris_solver.solve_aris"],
        "aris_solver.solve_aris.modes": c["aris_solver.solve_aris.modes"],
        "aris_solver.solve_aris.ms_per_path_mode": per(ns["aris_solver.solve_aris"],
                                                       c["aris_solver.solve_aris.modes"], 1e6),
        "aris_solver.kappa_from_realization.us_per_call":
            per_call("aris_solver.kappa_from_realization", 1e3),
        f"{fwd}.particle_steps": fwd_steps,
        f"{fwd}.self_ns_per_particle_step": per(self_ns[fwd], fwd_steps),
        f"{fwd}.lookup_share": tr.child_share(look, fwd, tasks=forward_ids),
        f"{bwd}.particle_steps": bwd_steps,
        f"{bwd}.self_ns_per_particle_step": per(self_ns[bwd], bwd_steps),
        f"{bwd}.lookup_share": tr.child_share(look, bwd),
        "monte_carlo.wind_model_solution.us_per_call": per_call("monte_carlo.wind_model_solution", 1e3),
        "monte_carlo.ensemble_pdf.ms_per_call": per_call("monte_carlo.ensemble_pdf", 1e6),
        "invariant_measure.pdf_random_wave.ns_per_point": per(ns["invariant_measure.pdf_random_wave"],
                                                              c["pdf_random_wave.points"]),
        "invariant_measure.reconstruct_pdf_from_moments.ms_per_call":
            per_call("invariant_measure.reconstruct_pdf_from_moments", 1e6),
        "invariant_measure.cdf_deterministic.ns_per_point": per(ns["invariant_measure.cdf_deterministic"],
                                                                c["cdf_deterministic.points"]),
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_library(args, workload) -> dict:
    """Library workload in-process; returns tasks, checks and metrics."""
    workload.setup()
    if args.trace == 0:
        setup = setup_probe_samples(args, SETUP_SAMPLES)
        pacer = pace.Pacer(workload.pace)
        tasks, rounds, errors = run_rounds(workload, args.seed, seconds=args.seconds, pacer=pacer)
        return {"tasks": tasks, "errors": errors, "setup_samples": setup, "rounds": rounds,
                "pace_marks": [m for _, m in pacer.marks],
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF)}
    plain, _, errors = run_rounds(workload, args.seed, rounds=workload.trace_rounds)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    traced, _, more = run_rounds(workload, args.seed, rounds=workload.trace_rounds, tracer=tracer)
    tracer.active = False
    metrics = layer_metrics(tracer, traced)
    metrics.update(workload.trace_diagnostics())
    metrics["trace.overhead_frac"] = (sum(t.seconds for t in traced)
                                      / sum(t.seconds for t in plain) - 1.0)
    metrics.update(fresh_process_metrics())
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    # the untraced pass repeats the traced inputs: run-level checks see one copy
    return {"tasks": plain + traced, "errors": errors + more, "metrics": metrics,
            "run_check_tasks": traced}


def run_cli(args, workload) -> dict:
    workload.out.mkdir(parents=True, exist_ok=True)
    if args.trace == 0:
        setup = [workload.setup_sample() for _ in range(SETUP_SAMPLES)]
        tasks, rounds, errors = run_rounds(workload, args.seed, seconds=args.seconds)
        result = {"setup_samples": setup, "rounds": rounds,
                  "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}
    else:
        tasks, _, errors = run_rounds(workload, args.seed, rounds=workload.trace_rounds)
        metrics = {f"cli.{t.kind}_s": t.seconds for t in tasks}
        metrics.update(in_process_aris(args, workload))
        metrics.update(fresh_process_metrics())
        result = {"metrics": metrics}
    check = workload.thread_determinism(wl.task_seed(args.seed, 10**6, 0))
    return {**result, "tasks": tasks, "errors": errors, "run_checks": [check]}


def in_process_aris(args, workload) -> dict:
    """The ``aris`` recipe in this process, untraced then traced, for the
    CSV writer's share and the bytes the recipe writes."""
    from sheardisp import cli
    out = workload.out / "in_process_aris"
    # the recipe's arguments without the interpreter and ``-m sheardisp.cli``
    argv = workload.recipe_args("aris", wl.task_seed(args.seed, 0, 2), out)[3:]

    def once():
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        with redirect_stdout(sys.stderr):
            if cli.main(argv) != 0:
                raise RuntimeError("in-process aris recipe failed")
        return time.perf_counter() - t0

    plain = once()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    traced = once()
    tracer.active = False
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = layer_metrics(tracer, [])
    metrics.update({
        "cli.to_csv_s": tracer.total_ns["aris_solver.ArisRecord.to_csv"] / 1e9,
        "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "trace.overhead_frac": traced / plain - 1.0,
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sheardisp" / "__init__.py").is_file():
        print(f"error: no sheardisp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = wl.WORKLOADS[args.workload](ROOT)
        workload.setup()
        return 0

    if args.workload == "cli":
        workload = wl.Cli(ROOT, OUT)
        result = run_cli(args, workload)
    else:
        workload = wl.WORKLOADS[args.workload](ROOT)
        result = run_library(args, workload)
    tasks = result["tasks"]
    run_checks = result.get("run_checks", []) + workload.run_checks(result.get("run_check_tasks", tasks))
    checks = [c for t in tasks for c in t.checks] + run_checks
    attempted = len(tasks) + len(run_checks)
    failed = sum(t.failed for t in tasks) + sum(not c.passed for c in run_checks)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace == 0:
        plan = len(workload.round_plan)
        scaled_rounds = [sum(t.scaled for t in tasks[i:i + plan]) for i in range(0, len(tasks), plan)]
        result["scaled_rounds"] = scaled_rounds
        metrics = {"setup_s": statistics.median(s for _, s in result["setup_samples"]),
                   "wall_s": statistics.fmean(scaled_rounds),
                   "peak_rss_mb": result["peak_rss_mb"]}
        secs = [t.seconds for t in tasks]
        report = {"setup_raw_s": (statistics.median(r for r, _ in result["setup_samples"]), "s"),
                  "wall_raw_s": (statistics.fmean(result["rounds"]), "s"),
                  "task_p10_ms": (1e3 * float(np.percentile(secs, 10)), "ms"),
                  "task_p90_ms": (1e3 * float(np.percentile(secs, 90)), "ms"),
                  **workload.report(tasks), "error_rate": (failed / attempted, "1")}
    else:
        # a layer this workload does not call reads 0
        metrics = {**dict.fromkeys(units, 0), **result["metrics"]}
        report = {}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"benchmark did not measure {sorted(missing)}")

    env = environment(args, spec)
    print(f"# sheardisp benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print(f"# why: {env['why']}")
    print("# environment: " + json.dumps({k: env[k] for k in (
        "python", "numpy", "scipy", "nproc", "cpu_model", "git_commit", "source_sha256")}))
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    for name, group in by_name.items():
        c = max(group, key=lambda g: g.ratio)
        print(f"# check {name:<50} n={len(group):<4} failed={sum(not g.passed for g in group)}  "
              f"worst: value={c.value:.4g} bound={c.bound:.4g} ratio={c.ratio:.3f}")
    print(f"# tasks and run-level checks: {attempted} attempted, {failed} failed")
    for err in result["errors"]:
        print("# task error: " + err.strip().replace("\n", "\n#   "))
    for name in sorted(units):
        print(f"# metric {name:<56} {metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in sorted(report.items()):
        print(f"# metric {name:<56} {value:.6g} {unit}")

    OUT.mkdir(parents=True, exist_ok=True)
    full = {"environment": env, "attempted": attempted, "failed": failed,
            "metrics": metrics, "workload_metrics": {k: v for k, (v, _) in report.items()},
            "checks": [c.as_dict() for c in checks],
            **{k: result[k] for k in ("setup_samples", "rounds", "scaled_rounds", "pace_marks") if k in result}}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
