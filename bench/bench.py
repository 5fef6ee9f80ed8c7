"""areamix benchmark: run one workload from synthetic inputs and report metrics.

    python3 bench/bench.py --workload county_truncated --seed 1 --seconds 30 --trace 0
    python3 bench/bench.py --workload all --seed 1      # every workload in turn

A run makes its inputs from ``--seed`` (under ``.bench_work/`` in the
checkout), then repeats the workload ("reps") for about ``--seconds``
seconds, starting another rep only while one more fits in the budget.
Every rep checks its outputs.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is nonzero when any check failed.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: first input read until the basis is ready (the whole
  ``areamix basis`` command on cli_fit); the median of the run's
  set-ups.  Cheap set-ups are repeated until there are at least five
  samples.
- ``wall_s``: one rep, tracing off; the mean over the run's reps.
- ``sweeps_per_s``: Gibbs sweeps per second of sampler time, over every
  sampler call of the run (pool workers included).  A call's sampler
  time is its sweeps times its median sweep time (sweeps are timed one
  by one, see workloads.py).
- ``ess_per_s``: the median, over every ``y`` entry of every fit in the
  run, of ``diagnostics.effective_sample_size`` per sweep, times the
  sweeps per second of those fits (msmm fits only on study_pool).
- ``replicates_per_s``: study replicates per second of ``run_study`` on
  study_pool; elsewhere a replicate is one dataset's fit job (the
  ``areamix fit`` command on cli_fit), per second of fitting; the mean
  over reps.
- ``peak_rss_mb``: peak resident memory of this process plus that of
  its largest child.
- ``cpu_s``: user plus system CPU seconds of the process and its
  children, per rep (the mean over reps).
- ``mab_truth``: median absolute error of the posterior-mean ``y``
  against the synthetic truth, log scale, over every entry of every
  rep's fit (of every msmm fit on study_pool).

Failed operations (fits, chains, replicate-model pairs, CLI commands)
and failed checks are the ``failed`` count; ``failed / attempted`` is the
failure fraction.

With ``--trace 1`` the run alternates untraced and traced reps and the
metrics are the per-layer ones, from the traced reps: seconds in each
wrapped layer, per-sweep sampler times, counts, and ``trace.overhead_s``
(traced minus untraced rep wall time; the first rep also pays one-time
warm-up costs, so it is noise-dominated and can read negative).  A
layer a workload does not run reports 0.  Spans go to
``.bench_work/traces/`` when the run ends.

The environment (CPU count, Python, numpy, scipy, BLAS, and any
``*_NUM_THREADS`` variables) is printed and stored with each result.
The benchmark never sets thread variables itself.  Prediction digests
must be byte-identical across reps and across runs with the same seed in
the same environment; they are kept in ``.bench_work/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("county_truncated", "dp_collapsed", "cli_fit", "study_pool")

MIN_SETUP_SAMPLES = 5
CHEAP_SETUP_S = 2.0  # set-ups this fast are repeated to reach MIN_SETUP_SAMPLES

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sweeps_per_s": "1/s",
    "ess_per_s": "1/s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "mab_truth": "log",
}

# per-layer metric -> span name whose total seconds it reports
LAYER_SECONDS = {
    "tabulation.load_s": "tabulation.load",
    "tabulation.gvf_s": "tabulation.gvf",
    "design.build_s": "design.build",
    "spatial.adjacency_s": "spatial.adjacency",
    "spatial.expand_s": "spatial.expand",
    "spatial.icar_s": "spatial.icar",
    "basis.operator_s": "basis.operator",
    "basis.eigensolve_s": "basis.eigensolve",
    "basis.precision_s": "basis.precision",
    "basis.cache_key_s": "basis.cache_key",
    "basis.save_s": "basis.save",
    "basis.load_s": "basis.load",
    "tabulation.summaries_s": "tabulation.summaries",
    "diagnostics.report_s": "diagnostics.report",
    "cli.fit_cmd_s": "cli.fit_cmd",
    "simulate.run_study_s": "simulate.run_study",
}
# per-layer metric -> sampler span name whose milliseconds per sweep it reports
LAYER_MS_PER_SWEEP = {
    "mixture.truncated_ms_per_sweep": "mixture.truncated",
    "mixture.dp_ms_per_sweep": "mixture.dp",
    "msm.ms_per_sweep": "msm.fit",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SECONDS},
    **{name: "ms" for name in LAYER_MS_PER_SWEEP},
    "basis.dense_bytes": "computed_bytes",
    "mixture.mean_clusters": "count",
    "cli.fit_cmd_self_s": "s",
    "cli.artifact_bytes": "bytes",
    "simulate.child_cpu_s": "s",
    "simulate.cpu_per_core": "ratio",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    import numpy as np
    import scipy

    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources, so digests compare like with like."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/areamix/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digest(workload: str, seed: int, env: dict, digest: str, which: str = "") -> bool:
    """Same code, seed, input and environment must give the same output bytes."""
    path = WORK / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}|{seed}|{which}|{code_fingerprint()}|{json.dumps(env, sort_keys=True)}"
    known = store.setdefault(key, digest)
    if known == digest:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(path)
    return known == digest


def layer_metrics(spans: list[dict], rep) -> dict[str, float]:
    from spans import children_of, descendants, duration, self_time

    totals: dict[str, float] = {}
    sampler_s: dict[str, float] = {}
    sweeps: dict[str, int] = {}
    for span in spans:
        name = span["name"]
        totals[name] = totals.get(name, 0.0) + duration(span)
        if "sweeps" in span:
            sampler_s[name] = sampler_s.get(name, 0.0) + span["sweeps"] * span["sweep_s"]
            sweeps[name] = sweeps.get(name, 0) + span["sweeps"]
    out = {metric: totals.get(name, 0.0) for metric, name in LAYER_SECONDS.items()}
    for metric, name in LAYER_MS_PER_SWEEP.items():
        out[metric] = 1000.0 * sampler_s[name] / sweeps[name] if sweeps.get(name) else 0.0
    children = children_of(spans)
    setups = [s for s in spans if s["name"] == "bench.setup"]
    out["basis.dense_bytes"] = float(
        sum(d.get("dense_bytes", 0) for d in descendants(setups[0]["id"], children)) if setups else 0
    )
    clusters = [s["mean_clusters"] for s in spans if "mean_clusters" in s]
    out["mixture.mean_clusters"] = statistics.fmean(clusters) if clusters else 0.0
    fit_cmds = [s for s in spans if s["name"] == "cli.fit_cmd"]
    out["cli.fit_cmd_self_s"] = sum(self_time(s, children) for s in fit_cmds)
    out["cli.artifact_bytes"] = float(rep.artifact_bytes)
    out["simulate.child_cpu_s"] = rep.child_cpu_s
    study = out["simulate.run_study_s"]
    out["simulate.cpu_per_core"] = rep.child_cpu_s / (study * rep.workers) if study else 0.0
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports kilobytes


def measure(workload, ctx, name: str, env: dict, seconds: float, trace: bool) -> dict:
    """Repeat the workload's rep while another fits in ``seconds``.

    Traced runs alternate untraced and traced reps, starting untraced.
    A categorised program error counts as a failed operation and ends
    the run.
    """
    from areamix.errors import AreamixError

    recorder = ctx.recorder
    reps, traced_flags, rep_times, failures = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        out = ctx.work / f"rep{len(reps)}"
        out.mkdir(parents=True)
        began = time.perf_counter()
        mark = len(recorder.spans)
        workload.install(recorder, traced)
        try:
            rep = workload.rep(ctx, out)
        except AreamixError as exc:
            attempted += 1
            failed += 1
            failures.append(f"rep{len(reps)}: {type(exc).__name__}: {exc}")
            break
        finally:
            recorder.restore()
        rep.spans = recorder.spans[mark:]
        if rep.digest:
            rep.checks["digest_repeats"] = check_digest(name, ctx.seed, env, rep.digest, rep.digest_key)
        shutil.rmtree(out, ignore_errors=True)
        rep_times.append(time.perf_counter() - began)
        reps.append(rep)
        traced_flags.append(traced)
        attempted += rep.ops + len(rep.checks)
        failed += rep.failed_ops + sum(not ok for ok in rep.checks.values())
        failures += [f"rep{len(reps) - 1}: check {c}" for c, ok in rep.checks.items() if not ok]
        elapsed = time.perf_counter() - start
        if len(reps) >= (2 if trace else 1) and elapsed + statistics.median(rep_times) > seconds:
            break
    plain = [r for r, t in zip(reps, traced_flags) if not t]
    setups = [t for r in plain for t in r.setups]
    if not trace and setups:
        while len(setups) < MIN_SETUP_SAMPLES and statistics.median(setups) < CHEAP_SETUP_S:
            setups.append(workload.setup(ctx))
    return {
        "plain": plain,
        "traced": [r for r, t in zip(reps, traced_flags) if t],
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def _median(values) -> float:
    """Median, or NaN (which marks the run incorrect) when nothing was measured."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else math.nan


def _sweep_rate(chains: list) -> float:
    return _rate(sum(c.sweeps for c in chains), sum(c.sweeps * c.sweep_s for c in chains))


def end_to_end_metrics(plain: list, setups: list[float]) -> dict[str, float]:
    """Times per rep are averaged over reps rather than taken at their
    median: a shared host's processors drift between fast and slow phases
    of several seconds, and the median of reps from two phases jumps from
    one phase to the other while their mean moves smoothly."""
    chains = [c for r in plain for c in r.chains]
    fitted = [c for c in chains if c.ess is not None]
    ess_per_sweep = _median(e / c.sweeps for c in fitted for e in c.ess)
    return {
        "setup_s": _median(setups),
        "wall_s": _mean(r.wall_s for r in plain),
        "sweeps_per_s": _sweep_rate(chains),
        "ess_per_s": ess_per_sweep * _sweep_rate(fitted),
        "replicates_per_s": _mean(_rate(r.replicates, r.replicate_s) for r in plain),
        "peak_rss_mb": peak_rss_mb(),
        "cpu_s": _mean(r.cpu_s for r in plain),
        "mab_truth": _median(e for r in plain if r.errors is not None for e in r.errors),
    }


def per_layer_metrics(plain: list, traced: list) -> dict[str, float]:
    per_rep = [layer_metrics(r.spans, r) for r in traced]
    values = {m: statistics.median(p[m] for p in per_rep) for m in per_rep[0]}
    values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    from spans import Recorder
    from workloads import WORKLOADS, Context

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    run_dir = WORK / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ctx = Context(seed=seed, work=run_dir, recorder=Recorder(run_dir / "spool"))
    workload = WORKLOADS[name]()
    workload.prepare(ctx)
    run = measure(workload, ctx, name, env, seconds, trace)

    metrics = {}
    if trace and run["plain"] and run["traced"]:
        values, units = per_layer_metrics(run["plain"], run["traced"]), PER_LAYER_UNITS
        metrics = {m: {"value": float(values[m]), "unit": units[m]} for m in units}
    elif not trace and run["plain"]:
        values, units = end_to_end_metrics(run["plain"], run["setups"]), END_TO_END_UNITS
        metrics = {m: {"value": float(values[m]), "unit": units[m]} for m in units}
    correct = (
        run["failed"] == 0
        and bool(metrics)
        and all(np.isfinite(v["value"]) for v in metrics.values())
    )

    tag = f"{name}-seed{seed}-trace{int(trace)}"
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    with open(WORK / "traces" / f"{tag}.json", "w") as fh:
        json.dump({"spans": ctx.recorder.spans}, fh)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "rep_walls": [r.wall_s for r in run["plain"] + run["traced"]],
        "traced_reps": len(run["traced"]),
        "setup_samples": run["setups"],
        "failures": run["failures"],
        "metrics": metrics,
    }
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir, ignore_errors=True)

    for metric, entry in metrics.items():
        print(f"{name:18s} {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    for failure in run["failures"]:
        print(f"{name}: failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run["attempted"], 1),
                "failed": run["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "areamix" / "__init__.py").is_file():
        print(f"bench: no areamix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
