"""The benchmark's workloads and the layer wrappers each one installs.

Every workload makes its inputs from the seed in ``prepare`` (untimed),
then runs passes ("reps") of its work.  One rep returns a ``Rep`` with
its timings, counts, correctness checks and spans.  Sizes are
``two_field_study(side, side, 4)`` grids; iteration and replicate counts
are fixed here so that a rep costs about the same on every seed.  A
workload with several datasets fits one of them per rep, in turn.

Layers are timed from outside by wrapping the public functions a
workload calls, under the names the caller looks them up by: the library
modules for the library workloads, ``areamix.cli`` for the CLI, and
``areamix.simulate`` for the study.  Sampler entry points are always
wrapped, because sweeps and ESS per second need their timings; every
other layer is wrapped only on traced reps.

Sweeps are timed one by one.  Every sampler (msm, fh and both mixture
samplers) calls ``draw_inverse_gamma`` exactly once per sweep, so the
benchmark stamps the clock on each call, as bound in the sampler's own
module; a sampler call's sweep time is the median interval between its
stamps.  The median keeps the pauses in which other processes hold the
processor out of the sampler metrics.  Should a sampler stop making
exactly one such call per sweep, its sweep time falls back to the
call's duration divided by its sweeps.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from areamix import basis, cli, design, diagnostics, fh, mixture, msm, simulate, spatial, tabulation
from areamix.errors import AreamixError
from areamix.fh import FhConfig
from areamix.mixture import MixtureConfig
from areamix.msm import MsmConfig
from areamix.synthetic import SyntheticStudy
from areamix.util import derive_seed, sha256_file

from inputs import write_inputs
from spans import Recorder, duration

FIT_SEED_TAG = 2


@dataclass
class Dataset:
    inputs: Path  # directory holding the three input files
    study: SyntheticStudy  # the truth they were drawn from
    seed: int


@dataclass
class Context:
    seed: int
    work: Path
    recorder: Recorder
    datasets: list = field(default_factory=list)


@dataclass
class Chain:
    """One sampler call: its sweeps, median sweep time and per-entry ESS."""

    sweeps: int
    sweep_s: float
    ess: np.ndarray | None = None  # diagnostics.effective_sample_size per y entry


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setups: list = field(default_factory=list)
    chains: list = field(default_factory=list)
    replicates: int = 1
    replicate_s: float = 0.0
    errors: np.ndarray | None = None  # |posterior-mean y - truth| of every entry fitted
    digest: str = ""
    digest_key: str = ""  # which input the digest belongs to
    ops: int = 0
    failed_ops: int = 0
    checks: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    artifact_bytes: int = 0
    child_cpu_s: float = 0.0
    workers: int = 1


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def entry_ess(y: np.ndarray) -> np.ndarray:
    """diagnostics.effective_sample_size of every y entry (column) of one fit."""
    y = np.asarray(y, dtype=float)
    return np.array([diagnostics.effective_sample_size(y[:, j]) for j in range(y.shape[1])])


def _chain(span: dict, y: np.ndarray | None = None) -> Chain:
    return Chain(span["sweeps"], span["sweep_s"], None if y is None else entry_ess(y))


SWEEP_STAMPS: list[float] = []  # clock readings, one per sweep, of this process


def _stamped(original):
    @functools.wraps(original)
    def stamp(*args, **kwargs):
        SWEEP_STAMPS.append(time.perf_counter())
        return original(*args, **kwargs)

    return stamp


def _install_sweep_clock(rec: Recorder) -> None:
    for module in (msm, fh, mixture):
        rec.patch(module, "draw_inverse_gamma", _stamped(module.draw_inverse_gamma))


def _sampler_attrs(span, args, kwargs, result) -> dict:
    """Sweeps and median sweep time of one sampler call (see the module notes)."""
    config = kwargs.get("config")
    if config is None:
        config = next(a for a in reversed(args) if hasattr(a, "iterations"))
    sweeps = int(config.iterations)
    stamps = [t for t in SWEEP_STAMPS if span["start"] <= t <= span["end"]]
    SWEEP_STAMPS.clear()
    if sweeps > 1 and len(stamps) == sweeps:
        clock, sweep_s = "stamps", float(np.median(np.diff(stamps)))
    else:
        clock, sweep_s = "call", duration(span) / sweeps
    attrs = {"sweeps": sweeps, "sweep_s": sweep_s, "sweep_clock": clock}
    n_clusters = getattr(result, "n_clusters", None)
    if n_clusters is not None:
        attrs["mean_clusters"] = float(np.mean(n_clusters))
    return attrs


def _dense_attrs(span, args, kwargs, result) -> dict:
    """Bytes of an n x n float64 result: the dense entry-level matrices."""
    if isinstance(result, np.ndarray) and result.ndim == 2 and result.shape[0] == result.shape[1]:
        if result.dtype == np.float64:
            return {"dense_bytes": int(result.nbytes)}
    return {}


# (module, function, span name, observer) for every non-sampler layer
LAYERS = (
    (tabulation, "load_tabulation", "tabulation.load", None),
    (tabulation, "log_transform", "tabulation.log_transform", None),
    (tabulation, "gvf_impute", "tabulation.gvf", None),
    (tabulation, "predict_summaries", "tabulation.summaries", None),
    (tabulation, "write_prediction_csv", "tabulation.write_predictions", None),
    (design, "read_population_csv", "design.read_population", None),
    (design, "build_design", "design.build", None),
    (spatial, "read_edge_list", "spatial.read_edges", None),
    (spatial, "build_adjacency", "spatial.adjacency", None),
    (spatial, "expand_multivariate", "spatial.expand", _dense_attrs),
    (spatial, "icar_precision", "spatial.icar", _dense_attrs),
    (basis, "basis_cache_key", "basis.cache_key", None),
    (basis, "load_basis", "basis.load", None),
    (basis, "build_basis", "basis.build", None),
    (basis, "save_basis", "basis.save", None),
    (diagnostics, "diagnostics_report", "diagnostics.report", None),
)
# build_basis looks these up in its own module at call time, whoever calls it
BASIS_INTERNALS = (
    (basis, "moran_operator", "basis.operator", _dense_attrs),
    (basis, "select_basis", "basis.eigensolve", None),
    (basis, "basis_precision", "basis.precision", None),
)


def _wrap_layers(rec: Recorder, caller=None) -> None:
    """Wrap every layer where ``caller`` looks it up (its own module by default).

    A layer the caller does not bind is skipped and reports 0.
    """
    for module, attr, name, observe in LAYERS:
        owner = module if caller is None else caller
        if hasattr(owner, attr):
            rec.wrap(owner, attr, name, observe)
    for module, attr, name, observe in BASIS_INTERNALS:
        rec.wrap(module, attr, name, observe)


def _library_setup(ctx: Context, data: Dataset):
    """Files to basis, all cold: the README's library pipeline."""
    with ctx.recorder.span("bench.setup") as span:
        table = tabulation.load_tabulation(data.inputs / "tabulation.csv")
        log_table = tabulation.gvf_impute(tabulation.log_transform(table))
        population = design.read_population_csv(data.inputs / "population.csv")
        x, _ = design.build_design(log_table, population)
        edges = spatial.read_edge_list(data.inputs / "adjacency.txt")
        w = spatial.build_adjacency(log_table.areas, edges)
        a = spatial.expand_multivariate(w, log_table.n_cells)
        moran = basis.build_basis(x, a)
    return duration(span), log_table, x, moran


def _ingest_ok(data: Dataset, log_table) -> bool:
    """Areas line up with the truth and every zeroed entry got a variance."""
    return bool(
        log_table.areas == data.study.areas
        and log_table.imputed is not None
        and log_table.imputed.any()
        and np.all(np.isfinite(log_table.d))
        and np.all(log_table.d > 0)
    )


def _finite_summary(summary) -> bool:
    return bool(
        np.all(np.isfinite(summary.log_mean))
        and np.all(np.isfinite(summary.log_sd))
        and np.all(np.isfinite(summary.count.mean))
        and np.all(np.isfinite(summary.count.sd))
    )


class Workload:
    side: int
    datasets = 1

    def prepare(self, ctx: Context) -> None:
        for k in range(self.datasets):
            seed = derive_seed(ctx.seed, k)
            inputs = ctx.work / f"inputs{k}"
            ctx.datasets.append(Dataset(inputs, write_inputs(inputs, self.side, seed), seed))


class LibraryFit(Workload):
    """Per rep: a cold library set-up of the next dataset, then its chains."""

    chains = 1
    iterations: int
    burn_in: int
    fit_name: str  # attribute of areamix.mixture
    span_name: str

    def __init__(self):
        self._reps = 0

    def install(self, rec: Recorder, traced: bool) -> None:
        _install_sweep_clock(rec)
        rec.wrap(mixture, self.fit_name, self.span_name, _sampler_attrs)
        if traced:
            _wrap_layers(rec)

    def setup(self, ctx: Context) -> float:
        return _library_setup(ctx, ctx.datasets[0])[0]

    def rep(self, ctx: Context, out: Path) -> Rep:
        rec = ctx.recorder
        k = self._reps % len(ctx.datasets)
        self._reps += 1
        data = ctx.datasets[k]
        configs = [
            MixtureConfig(
                iterations=self.iterations,
                burn_in=self.burn_in,
                seed=derive_seed(data.seed, FIT_SEED_TAG, chain),
            )
            for chain in range(self.chains)
        ]
        mark = len(rec.spans)
        cpu0 = _cpu_seconds()
        with rec.span("bench.rep") as rep_span:
            setup_s, log_table, x, moran = _library_setup(ctx, data)
            with rec.span("bench.fit") as fit_span:
                sampler = getattr(mixture, self.fit_name)
                fits = [sampler(log_table.z, log_table.d, x, moran, c) for c in configs]
            with rec.span("bench.outputs"):
                summary = tabulation.predict_summaries(np.vstack([fit.y for fit in fits]))
                tabulation.write_prediction_csv(out / "predictions.csv", log_table, summary)
        rep = Rep(cpu_s=_cpu_seconds() - cpu0, wall_s=duration(rep_span), setups=[setup_s])
        spans = [s for s in rec.spans[mark:] if s["name"] == self.span_name]
        for span, fit in zip(spans, fits):
            rep.chains.append(_chain(span, fit.y))
        rep.replicate_s = duration(fit_span)
        rep.ops = len(fits)
        rep.checks["ingest_ok"] = _ingest_ok(data, log_table)
        rep.checks["predictions_finite"] = _finite_summary(summary)
        rep.errors = np.abs(summary.log_mean - data.study.truth.z)
        rep.digest = sha256_file(out / "predictions.csv")
        rep.digest_key = f"dataset{k}"
        return rep


class CountyTruncated(LibraryFit):
    """Two side-26 grids in turn, two chains each.

    A run must hold several reps, so that its medians can leave out
    reps slowed by other processes on the host: the rate of a shared
    host's processors drifts by a fifth for tens of seconds at a time.
    A side-30 grid with its set-up and 800 sweeps took one whole run;
    a side-26 rep (n = 2704) takes about 8.5 s, so three fit in a run
    even when the host runs a tenth slow.  The truncated sweep costs
    more while more components are occupied, which depends on the
    chain's random path (one chain of 800 sweeps left ESS per second
    with a quartile spread of 0.17 over ten seeds), so a run pools the
    six chains of its three reps.
    """

    side = 26
    datasets = 2
    chains = 2
    iterations = 170
    burn_in = 50
    fit_name = "fit_msmm_truncated"
    span_name = "mixture.truncated"
class DpCollapsed(LibraryFit):
    """Many side-4 grids, one collapsed-DP chain each, rather than one side-12 grid.

    From dataset to dataset (and from chain to chain on fixed data) a
    collapsed-DP chain's sweep time varies by about 10 %, with how
    often its assignments move and how many clusters it holds, and its
    ESS per sweep and error against the truth by about 15 %.  A run
    therefore fits as many small datasets as its time allows (about
    twenty), each rep the next one, and pools them.  The per-observation
    loop stays nearly all of a rep; the basis is negligible.
    """

    side = 4
    datasets = 32
    iterations = 105  # the 100 retained draws diagnostics.effective_sample_size needs
    burn_in = 5
    fit_name = "fit_msmm_dp"
    span_name = "mixture.dp"


class CliFit(Workload):
    """``areamix basis`` then ``areamix fit`` in-process, sharing one cache."""

    side = 20
    chains = 2
    iterations = 3000
    burn_in = 1000

    def __init__(self):
        self._captured: list = []

    def install(self, rec: Recorder, traced: bool) -> None:
        captured = self._captured

        def keep_fit(span, args, kwargs, result):
            captured.append((span, result))
            return _sampler_attrs(span, args, kwargs, result)

        _install_sweep_clock(rec)
        rec.wrap(cli, "fit_msm", "msm.fit", keep_fit)
        if not traced:
            return
        rec.wrap(cli.COMMANDS, "fit", "cli.fit_cmd")
        rec.wrap(cli.COMMANDS, "basis", "cli.basis_cmd")
        _wrap_layers(rec, caller=cli)

    def _config(self, ctx: Context, directory: Path) -> Path:
        inputs = ctx.datasets[0].inputs
        path = directory / "run.cfg"
        path.write_text(
            "\n".join(
                [
                    f"tabulation = {inputs / 'tabulation.csv'}",
                    f"adjacency = {inputs / 'adjacency.txt'}",
                    f"population = {inputs / 'population.csv'}",
                    f"basis_cache = {directory / 'cache'}",
                    "model = msm",
                    f"chains = {self.chains}",
                    f"iterations = {self.iterations}",
                    f"burn_in = {self.burn_in}",
                    "write_draws = true",
                    f"seed = {ctx.seed}",
                    "",
                ]
            )
        )
        return path

    def _run(self, ctx: Context, command: str, config: Path, out: Path, span_name: str):
        with contextlib.redirect_stdout(io.StringIO()):
            with ctx.recorder.span(span_name) as span:
                code = cli.main([command, str(config), "--out", str(out)])
        return code, duration(span)

    def setup(self, ctx: Context) -> float:
        directory = ctx.work / "setup-probe"
        directory.mkdir(parents=True, exist_ok=True)
        try:
            config = self._config(ctx, directory)
            code, seconds = self._run(ctx, "basis", config, directory / "basis", "bench.setup")
            if code != 0:
                raise AreamixError(f"areamix basis exited with {code}")
            return seconds
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def rep(self, ctx: Context, out: Path) -> Rep:
        rec = ctx.recorder
        rep = Rep()
        config = self._config(ctx, out)
        self._captured.clear()
        cpu0 = _cpu_seconds()
        with rec.span("bench.rep") as rep_span:
            basis_code, setup_s = self._run(ctx, "basis", config, out / "basis", "bench.setup")
            fit_code, fit_s = self._run(ctx, "fit", config, out / "fit", "bench.fit")
        rep.cpu_s = _cpu_seconds() - cpu0
        rep.wall_s = duration(rep_span)
        rep.setups = [setup_s]
        rep.replicate_s = fit_s
        rep.ops = 2 + len(self._captured)
        rep.failed_ops = int(basis_code != 0) + int(fit_code != 0)
        rep.checks["basis_exit_0"] = basis_code == 0
        rep.checks["fit_exit_0"] = fit_code == 0
        rep.checks["chains_ran"] = len(self._captured) == self.chains
        for span, fit in self._captured:
            rep.chains.append(_chain(span, fit.y))
        self._captured.clear()
        rep.artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        predictions = out / "fit" / "predictions.csv"
        if fit_code == 0:
            study = ctx.datasets[0].study
            log_mean, finite = _read_predictions(predictions, study)
            rep.checks["predictions_finite"] = finite
            rep.errors = np.abs(log_mean - study.truth.z)
            rep.digest = sha256_file(predictions)
        return rep


def _read_predictions(path: Path, study) -> tuple[np.ndarray, bool]:
    expected = [(a, c) for a in study.areas for c in range(1, study.n_cells + 1)]
    keys, rows = [], []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            keys.append((rec["area_id"], int(rec["cell_index"])))
            values = []
            for col in ("pred_log_mean", "pred_log_sd", "pred_count_mean", "pred_count_sd"):
                try:
                    values.append(float(rec[col]))
                except ValueError:
                    values.append(math.nan)
            rows.append(values)
    arr = np.array(rows)
    finite = keys == expected and bool(np.all(np.isfinite(arr)))
    return arr[:, 0], finite


class StudyPool(Workload):
    """``run_study`` through a two-worker process pool.

    Side 12 rather than 20: at side 20 the two workers' BLAS threads
    contend so that identical fits take 4 to 10 s from run to run.  At
    side 12 the pool is still slower than a serial study, and a study of
    identical work still varies by a third from rep to rep, so a rep is
    kept short (4 replicates, one pool) and the run reports the middle
    of many.  Reps take their master seed from three studies in turn,
    so a run scores twelve replicates and still repeats each study.
    """

    side = 12
    workers = 2
    replicates = 4
    studies = 3
    models = ("msm", "msmm", "fh")

    def __init__(self):
        self._reps = 0

    def install(self, rec: Recorder, traced: bool) -> None:
        def keep_draws(span, args, kwargs, result):
            # runs in the pool worker: hand the draws to the parent on disk
            rec.spool.mkdir(parents=True, exist_ok=True)
            np.save(rec.spool / f"y-{span['id']}.npy", result.y)
            return dict(_sampler_attrs(span, args, kwargs, result), y_file=f"y-{span['id']}.npy")

        _install_sweep_clock(rec)
        rec.wrap(simulate, "fit_msm", "msm.fit", _sampler_attrs)
        rec.wrap(simulate, "fit_fh", "fh.fit", _sampler_attrs)
        rec.wrap(simulate, "fit_msmm_truncated", "mixture.truncated", keep_draws)
        if traced:
            rec.wrap(simulate, "run_study", "simulate.run_study")
            _wrap_layers(rec)

    def _study_config(self, ctx: Context, study: int) -> simulate.StudyConfig:
        return simulate.StudyConfig(
            replicates=self.replicates,
            master_seed=derive_seed(ctx.seed, study),
            models=self.models,
            msm=MsmConfig(iterations=300, burn_in=100),
            msmm=MixtureConfig(iterations=150, burn_in=50),
            fh=FhConfig(iterations=300, burn_in=100),
            workers=self.workers,
            reference_groups=ctx.datasets[0].study.groups,
        )

    def _setup(self, ctx: Context):
        study = ctx.datasets[0].study
        with ctx.recorder.span("bench.setup") as span:
            x, _ = design.build_design(study.truth, study.population)
            w = spatial.build_adjacency(study.areas, list(study.edges))
            a = spatial.expand_multivariate(w, study.n_cells)
            moran = basis.build_basis(x, a)
        return duration(span), x, moran

    def setup(self, ctx: Context) -> float:
        return self._setup(ctx)[0]

    def rep(self, ctx: Context, out: Path) -> Rep:
        rec = ctx.recorder
        rep = Rep(workers=self.workers, replicates=self.replicates)
        study = self._reps % self.studies
        self._reps += 1
        config = self._study_config(ctx, study)
        cpu0 = _cpu_seconds()
        with rec.span("bench.rep") as rep_span:
            setup_s, x, moran = self._setup(ctx)
            child0 = _child_cpu_seconds()
            with rec.span("bench.fit") as fit_span:
                result = simulate.run_study(ctx.datasets[0].study.truth, x, moran, config)
            rep.child_cpu_s = _child_cpu_seconds() - child0
            with rec.span("bench.outputs"):
                simulate.write_study_csv(result, out / "study.csv")
        rep.cpu_s = _cpu_seconds() - cpu0
        rep.wall_s = duration(rep_span)
        rep.setups = [setup_s]
        rep.replicate_s = duration(fit_span)
        truth = ctx.datasets[0].study.truth.z
        errors = []
        for span in rec.collect():  # the pool workers' spans
            if "sweeps" not in span:
                continue
            y_file = span.pop("y_file", None)
            if y_file is None:
                rep.chains.append(_chain(span))
                continue
            path = rec.spool / y_file
            y = np.load(path)
            path.unlink()
            rep.chains.append(_chain(span, y))
            errors.append(np.abs(y.mean(axis=0) - truth))
        rep.ops = self.replicates * len(self.models)
        rep.failed_ops = len(result.divergent)
        summary = result.summary()
        rep.checks["no_divergent_replicates"] = not result.divergent
        rep.checks["scores_finite"] = bool(
            all(np.isfinite(row[2]) and np.isfinite(row[3]) for row in result.rows)
        )
        msmm_mab = summary["msmm"]["mab"]
        fh_mab = summary["fh"]["mab"]
        rep.checks["msmm_beats_fh_on_mab"] = bool(
            msmm_mab is not None and fh_mab is not None and msmm_mab["median"] < fh_mab["median"]
        )
        rep.checks["draws_from_every_msmm_fit"] = len(errors) == self.replicates
        rep.errors = np.concatenate(errors) if errors else None
        rep.digest = sha256_file(out / "study.csv")
        rep.digest_key = f"study{study}"
        return rep


WORKLOADS = {
    "county_truncated": CountyTruncated,
    "dp_collapsed": DpCollapsed,
    "cli_fit": CliFit,
    "study_pool": StudyPool,
}
