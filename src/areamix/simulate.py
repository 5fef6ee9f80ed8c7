"""Perturb-and-refit study harness.

A study treats a log-scale table as ground truth, repeatedly adds
Gaussian noise with the known design variances, refits the requested
models, and scores the log-scale posterior means against the truth.
Replicate seeds derive deterministically from the master seed, so the
study is reproducible whether replicates run serially or in a pool.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .basis import MoranBasis
from .errors import DefinitenessError, DivergenceError, DomainError, ShapeError
from .fh import FhConfig, fit_fh
from .mixture import MixtureConfig, fit_msmm_dp, fit_msmm_truncated
from .models import MODELS, check_models
from .msm import MsmConfig, fit_msm
from .util import derive_seed, format_value, rand_index


def perturb(z, d, rng: np.random.Generator) -> np.ndarray:
    """One noisy replicate: truth plus N(0, d_i) noise per entry."""
    z = np.asarray(z, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    if z.shape != d.shape:
        raise ShapeError("z and d must have the same length")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise DomainError("perturbation variances must be positive and finite")
    return z + rng.normal(0.0, np.sqrt(d))


def _errors(pred, truth) -> np.ndarray:
    pred = np.asarray(pred, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if pred.shape != truth.shape or pred.size == 0:
        raise ShapeError("prediction and truth must be nonempty and congruent")
    return pred - truth


def mab(pred, truth) -> float:
    """Median absolute error (midpoint of the central pair when even)."""
    return float(np.median(np.abs(_errors(pred, truth))))


def amse(pred, truth) -> float:
    """Average squared error."""
    return float(np.mean(_errors(pred, truth) ** 2))


# the study's scores of a prediction against the truth, in column order
METRICS = {"mab": mab, "amse": amse}
# a summary's statistics of one model's scores, in column order
SUMMARY_STATISTICS = ("min", "q1", "median", "q3", "max")


@dataclass
class StudyConfig:
    """What to run: models, replicate count, seeds, and worker pool size.

    The per-model configs' own ``seed`` fields are ignored; every fit
    gets a seed derived from (master_seed, replicate, model).  When
    ``reference_groups`` labels are supplied, mixture fits also score
    the mean Rand index of their partitions against that reference.
    """

    replicates: int = 100
    master_seed: int = 0
    models: tuple[str, ...] = ("msmm", "fh")
    msmm_algorithm: str = "truncated"
    msm: MsmConfig = field(default_factory=MsmConfig)
    msmm: MixtureConfig = field(default_factory=MixtureConfig)
    fh: FhConfig = field(default_factory=FhConfig)
    workers: int = 1
    reference_groups: np.ndarray | None = None

    def validate(self) -> None:
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")
        if not self.models:
            raise DomainError("at least one model is required")
        check_models(self.models, self.msmm_algorithm)
        if not (0 <= self.master_seed < 2**64):
            raise DomainError("master_seed must be a 64-bit nonnegative integer")


@dataclass(frozen=True)
class StudyResult:
    """Rows (replicate, model, *scores), a score per METRICS entry; failures kept apart."""

    rows: tuple[tuple[int, str, float, float], ...]
    divergent: tuple[tuple[int, str, str], ...]
    rand: dict[int, float]
    models: tuple[str, ...]
    replicates: int
    master_seed: int

    def scores(self, model: str, metric: str) -> np.ndarray:
        col = 2 + list(METRICS).index(metric)
        return np.array([row[col] for row in self.rows if row[1] == model])

    def summary(self) -> dict:
        out: dict[str, dict] = {}
        for model in self.models:
            n_div = sum(1 for rec in self.divergent if rec[1] == model)
            out[model] = {"n_divergent": n_div}
            for metric in METRICS:
                vals = self.scores(model, metric)
                if vals.size == 0:
                    out[model][metric] = None
                    continue
                quartiles = np.percentile(vals, [25.0, 50.0, 75.0])
                stats = map(float, (vals.min(), *quartiles, vals.max()))
                out[model][metric] = {**dict(zip(SUMMARY_STATISTICS, stats)), "n": int(vals.size)}
        return out


def _fit_model(model: str, z_rep, truth_d, x, basis, config: StudyConfig, seed: int):
    cfg = replace(getattr(config, model), seed=seed)
    if model == "msm":
        return fit_msm(z_rep, truth_d, x, basis, cfg)
    if model == "fh":
        return fit_fh(z_rep, truth_d, x, cfg)
    fit = fit_msmm_dp if config.msmm_algorithm == "dp" else fit_msmm_truncated
    return fit(z_rep, truth_d, x, basis, cfg)


def _replicate_task(args) -> tuple[list, list, float | None]:
    rep, z_truth, d, x, basis, config = args
    rng = np.random.default_rng(derive_seed(config.master_seed, rep))
    z_rep = perturb(z_truth, d, rng)
    rows: list = []
    failures: list = []
    rand_value: float | None = None
    for model in config.models:
        seed = derive_seed(config.master_seed, rep, MODELS[model].seed_tag)
        try:
            fit = _fit_model(model, z_rep, d, x, basis, config, seed)
        except (DivergenceError, DefinitenessError) as exc:
            failures.append((rep, model, str(exc)))
            continue
        pred = fit.y.mean(axis=0)  # scoring uses log-scale posterior means
        rows.append((rep, model, *(score(pred, z_truth) for score in METRICS.values())))
        draws = getattr(fit, "assignments", None)  # mixture fits carry partitions
        if draws is not None and config.reference_groups is not None:
            ref = np.asarray(config.reference_groups).ravel()
            rand_value = float(
                np.mean([rand_index(draws[t], ref) for t in range(draws.shape[0])])
            )
    return rows, failures, rand_value


def run_study(
    truth, x, basis: MoranBasis | None, config: StudyConfig | None = None
) -> StudyResult:
    """Run the full perturb-and-refit loop.

    ``truth`` is a log-scale table (anything with ``.z`` and ``.d``);
    ``basis`` may be None when no requested model needs one.
    Replicates are independent and may run in a process pool; results
    are identical either way because every random stream is derived
    from (master_seed, replicate) and outputs are collected in
    replicate order.
    """
    config = config or StudyConfig()
    config.validate()
    needing = [name for name in config.models if MODELS[name].needs_basis]
    if basis is None and needing:
        raise DomainError(f"models {needing} need a basis, and none was given")
    z_truth = np.asarray(truth.z, dtype=float).ravel()
    d = np.asarray(truth.d, dtype=float).ravel()
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise DomainError("truth table has undefined variances; impute first")
    x = np.asarray(x, dtype=float)

    tasks = [(rep, z_truth, d, x, basis, config) for rep in range(config.replicates)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_replicate_task, tasks, chunksize=1))
    else:
        outcomes = [_replicate_task(t) for t in tasks]

    rows: list = []
    failures: list = []
    rand: dict[int, float] = {}
    for rep, (rep_rows, rep_failures, rand_value) in enumerate(outcomes):
        rows.extend(rep_rows)
        failures.extend(rep_failures)
        if rand_value is not None:
            rand[rep] = rand_value
    return StudyResult(
        rows=tuple(rows),
        divergent=tuple(failures),
        rand=rand,
        models=tuple(config.models),
        replicates=config.replicates,
        master_seed=config.master_seed,
    )


def write_study_csv(result: StudyResult, path: str | Path) -> None:
    """Per-replicate scores, one row per (replicate, model)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replicate", "model", *METRICS])
        for rep, model, *scores in result.rows:
            writer.writerow([rep, model, *map(format_value, scores)])


def write_study_summary_csv(result: StudyResult, path: str | Path) -> None:
    """Boxplot-ready quantile block per model and metric."""
    summary = result.summary()
    # a metric without scores has blank statistics: format_value writes NaN blank
    unscored = {**dict.fromkeys(SUMMARY_STATISTICS, math.nan), "n": 0}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "metric", *SUMMARY_STATISTICS, "n_scored", "n_divergent"])
        for model in result.models:
            block = summary[model]
            for metric in METRICS:
                stats = block[metric] or unscored
                values = [format_value(stats[name]) for name in SUMMARY_STATISTICS]
                writer.writerow([model, metric, *values, stats["n"], block["n_divergent"]])
