"""Tabulation ingest and the log-scale / count-scale bridge.

A tabulation is a complete rectangle of (area, cell) direct estimates with
design-based standard errors.  Rows are normalised to area-major order:
areas sorted lexicographically, cells 1..L within each area, so the flat
index of (area i, cell s) is i * L + (s - 1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DomainError,
    DuplicateKeyError,
    InsufficientDataError,
    SchemaError,
    ShapeError,
)
from .loess import loess_fit
from .util import format_value, open_text

DEFAULT_COLUMNS = {
    "state": "state",
    "county": "county",
    "order": "order",
    "count": "count",
    "std_err": "std_err",
    "sample_size": "sample_size",
}

# Smoothed variances are clipped away from zero so every entry stays usable
# as a Gaussian sampling variance.
IMPUTATION_FLOOR = 1e-6
# the variance smoother's span: the share of defined variances in each local fit
GVF_SPAN = 0.75


@dataclass(frozen=True)
class TabulationTable:
    """Direct estimates for every (area, cell) pair, area-major."""

    areas: tuple[str, ...]
    n_cells: int
    estimates: np.ndarray
    std_errors: np.ndarray
    sample_sizes: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return len(self.areas) * self.n_cells

    def keys(self) -> list[tuple[str, int]]:
        return [(a, s) for a in self.areas for s in range(1, self.n_cells + 1)]


@dataclass(frozen=True, kw_only=True)
class LogTable(TabulationTable):
    """Log-scale working data: z = log(estimate + 1) with variances d,
    beside the direct estimates it came from.

    Entries of ``d`` are NaN where no usable sampling variance exists; they
    must be imputed (see gvf_impute) before model fitting.  ``imputed``
    marks the entries gvf_impute filled.
    """

    z: np.ndarray
    d: np.ndarray
    imputed: np.ndarray | None = None


def load_tabulation(
    path: str | Path, columns: Mapping[str, str] | None = None
) -> TabulationTable:
    """Read a tabulation CSV.

    Parameters
    ----------
    path : str or Path
        CSV with one row per (area, cell).  Required columns: state,
        county, order (the 1-based cell index), count, std_err.  A
        sample_size column is picked up when present.
    columns : mapping, optional
        Overrides for the physical column names, keyed by the logical
        names above.

    The area identifier is the concatenation of the state and county
    codes, kept as strings so leading zeros survive.  Names and fields are
    read with surrounding whitespace stripped.  A row may stop short of
    the header (its missing fields read as blank) but may not run past it.
    """
    names = dict(DEFAULT_COLUMNS)
    if columns:
        unknown = set(columns) - set(DEFAULT_COLUMNS)
        if unknown:
            raise SchemaError(f"unknown column roles: {sorted(unknown)}")
        names.update(columns)

    rows: dict[tuple[str, int], tuple[float, float, float | None]] = {}
    with open_text(path) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in first]
        required = ("state", "county", "order", "count", "std_err")
        for role in required:
            if names[role] not in header:
                raise SchemaError(f"{path}: missing column {names[role]!r}")
        # a repeated header name reads its last column
        position = {name: i for i, name in enumerate(header)}
        required_at = [position[names[role]] for role in required]
        n_field = position.get(names["sample_size"])
        width = len(header)
        for raw in reader:
            if not raw:
                continue
            lineno = reader.line_num
            if len(raw) > width:
                raise SchemaError(
                    f"{path}:{lineno}: {len(raw)} fields, but the header names {width}"
                )
            if len(raw) < width:
                raw += [""] * (width - len(raw))  # missing trailing fields read as blank
            state, county, order, count, std_err = (raw[i].strip() for i in required_at)
            if not state or not county:
                raise SchemaError(f"{path}:{lineno}: blank state or county code")
            area = state + county
            try:
                cell = int(order)
            except ValueError:
                raise SchemaError(
                    f"{path}:{lineno}: cell index {order!r} is not an integer"
                ) from None
            if cell < 1:
                raise SchemaError(f"{path}:{lineno}: cell index must be >= 1")
            try:
                est = float(count)
                se = float(std_err)
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: non-numeric count or std_err") from None
            if not (math.isfinite(est) and math.isfinite(se)):
                raise DomainError(f"{path}:{lineno}: count and std_err must be finite")
            if est < 0 or se < 0:
                raise DomainError(f"{path}:{lineno}: negative count or std_err")
            nsz: float | None = None
            if n_field is not None:
                try:
                    nsz = float(raw[n_field].strip())
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: non-numeric sample_size") from None
                if not math.isfinite(nsz) or nsz <= 0:
                    raise DomainError(f"{path}:{lineno}: sample_size must be positive")
            key = (area, cell)
            if key in rows:
                raise DuplicateKeyError(f"{path}: duplicate entry for area {area}, cell {cell}")
            rows[key] = (est, se, nsz)

    if not rows:
        raise SchemaError(f"{path}: no data rows")

    areas = tuple(sorted({a for a, _ in rows}))
    n_cells = max(c for _, c in rows)
    entries = []  # area-major
    for a in areas:
        cells = [rows.get((a, s)) for s in range(1, n_cells + 1)]
        if None in cells:
            missing = [s for s, entry in enumerate(cells, start=1) if entry is None]
            raise SchemaError(f"{path}: area {a} lacks cells {missing}")
        entries.extend(cells)
    est, se, nsz = zip(*entries)
    return TabulationTable(
        areas=areas,
        n_cells=n_cells,
        estimates=np.array(est, dtype=float),
        std_errors=np.array(se, dtype=float),
        sample_sizes=None if n_field is None else np.array(nsz, dtype=float),
    )


def delta_method_variance(estimate, std_err):
    """Log-scale sampling variance se^2 / (estimate + 1)^2.

    A result of exactly 0 (which happens when std_err is 0) carries no
    usable information and is treated as undefined downstream.
    """
    est = np.asarray(estimate, dtype=float)
    se = np.asarray(std_err, dtype=float)
    if np.any(est < 0) or np.any(se < 0):
        raise DomainError("estimates and standard errors must be nonnegative")
    out = (se / (est + 1.0)) ** 2
    if out.ndim == 0:
        return float(out)
    return out


def log_transform(table: TabulationTable) -> LogTable:
    """Move a tabulation to the log scale: z = log(estimate + 1).

    Variances come from the delta method.  Entries are left undefined
    (NaN) wherever the direct estimate is zero or the delta-method value
    collapses to zero; those positions need gvf_impute before modelling.
    The result shares the table's arrays: tables are read, never written.
    """
    est = table.estimates
    d = delta_method_variance(est, table.std_errors)
    return LogTable(
        **{f.name: getattr(table, f.name) for f in fields(TabulationTable)},
        z=np.log1p(est),
        d=np.where((est > 0) & (d > 0), d, np.nan),
    )


def gvf_impute(log_table: LogTable, span: float = GVF_SPAN) -> LogTable:
    """Fill undefined log-scale variances by smoothing the defined ones.

    A local-linear tricube smoother of variance on a size predictor plays
    the role of a generalised variance function; ``span`` is its
    neighbourhood share, GVF_SPAN by default.  The predictor is log
    sample size when the table has one, otherwise z itself.  Smoothed
    values are clipped below at IMPUTATION_FLOOR.  Each distinct predictor
    value is smoothed once: without sample sizes every zero-count entry
    sits at z = 0, which clamps to the smallest defined z, so one smoother
    evaluation serves them all.  The result shares every array of
    ``log_table`` but ``d``.
    """
    d = log_table.d
    defined = np.isfinite(d)
    n_defined = int(defined.sum())
    if n_defined == 0:
        raise InsufficientDataError("all variances are undefined; nothing to smooth on")
    if log_table.sample_sizes is not None:
        predictor = np.log(log_table.sample_sizes)
    else:
        predictor = log_table.z
    if n_defined < 5:
        raise InsufficientDataError(
            f"need at least 5 defined variances to smooth, got {n_defined}"
        )
    smoother = loess_fit(predictor[defined], d[defined], span=span)
    filled = d.copy()
    filled[~defined] = np.maximum(smoother(predictor[~defined]), IMPUTATION_FLOOR)
    return replace(log_table, d=filled, imputed=~defined)


@dataclass(frozen=True)
class CountSummary:
    """Count-scale posterior summaries derived from log-scale draws."""

    mean: np.ndarray
    sd: np.ndarray
    cv: np.ndarray


@dataclass(frozen=True)
class PredictionSummary:
    """Per-entry posterior summaries on both scales."""

    log_mean: np.ndarray
    log_sd: np.ndarray
    count: CountSummary


# Summaries are formed over blocks of entries (columns) holding about this
# many bytes of pooled draws, so no pooled copy and no temporary the size of
# the draws is made.
_BLOCK_BYTES = 512 * 1024


def back_transform(draws) -> CountSummary:
    """Summarise log-scale draws on the count scale via y* = exp(y) - 1.

    ``draws`` is read as in ``predict_summaries``: a (T, n) matrix of T
    retained draws for n entries, a 1-D vector as a single draw, or a list
    or tuple of chains pooled in order.  The inverse decodes exactly on
    encoded integer counts: a draw y is read as k = rint(expm1(y)) where
    log1p(k) == y bit for bit, and as expm1(y) elsewhere, so an encoded
    count maps back to k with no rounding residue.  Standard
    deviations use the n-1 denominator (a single draw gives 0), and CV =
    sd / mean is left undefined where the mean is 0.
    """
    return predict_summaries(draws).count


def predict_summaries(draws) -> PredictionSummary:
    """Posterior mean/sd of log-scale predictions plus count-scale summaries.

    ``draws`` is a (T, n) array of retained y draws (a 1-D vector is one
    draw), any fit result exposing a ``.y`` attribute, or a list or tuple
    of such chains, which are pooled in order, as ``np.vstack`` would pool
    them.  The five summaries are formed one block of entries at a time,
    each block holding that slice of every chain, about 512 KiB, so the
    pooled draws are never copied whole.  Every entry is reduced over its
    draws in the order numpy reduces the whole pooled array, so the
    results are bit-for-bit those of the pooled array.  The count-scale
    summaries are those of ``back_transform``.
    """
    chains = _chains(draws)
    n = chains[0].shape[1]
    log_mean, log_sd, mean, sd = (np.empty(n) for _ in range(4))
    for lo, hi in _column_blocks(n, sum(len(chain) for chain in chains)):
        block = np.concatenate([chain[:, lo:hi] for chain in chains]).astype(float, copy=False)
        log_mean[lo:hi], log_sd[lo:hi], mean[lo:hi], sd[lo:hi] = _summarise_block(block)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(mean != 0.0, sd / mean, np.nan)
    return PredictionSummary(
        log_mean=log_mean, log_sd=log_sd, count=CountSummary(mean=mean, sd=sd, cv=cv)
    )


def _chains(draws) -> list[np.ndarray]:
    """The chains of ``draws`` as (T_c, n) arrays over one n, checked."""
    items = draws if isinstance(draws, (list, tuple)) else [draws]
    chains = []
    for item in items:
        chain = np.asarray(getattr(item, "y", item))
        if chain.ndim == 1:
            chain = chain[None, :]
        if chain.ndim != 2:
            raise ShapeError(f"draws must be (T, n) or a single draw (n,), got {chain.ndim}-D")
        chains.append(chain)
    widths = sorted({chain.shape[1] for chain in chains})
    if len(widths) > 1:
        raise ShapeError(f"chains disagree on the number of entries: {widths}")
    if not chains or widths == [0] or not any(len(chain) for chain in chains):
        raise ShapeError("no retained draws to summarise")
    return chains


def _column_blocks(n: int, draws: int) -> list[tuple[int, int]]:
    """Column bounds of blocks holding about _BLOCK_BYTES of ``draws`` rows.

    A block is at least two columns wide unless n is 1: numpy sums a lone
    column pairwise, but each column of a wider row-major array row by
    row, as it does the whole (T, n) array, so no column changes its bits.
    (Column-major draws give column-major blocks, summed pairwise whole or
    in blocks.)
    """
    width = max(2, _BLOCK_BYTES // (8 * draws))
    starts = list(range(0, n, width))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # a lone last column joins the block before it
    return list(zip(starts, starts[1:] + [n]))


def _summarise_block(block: np.ndarray):
    """Log mean and sd, then count mean and sd, of each column; DomainError on overflow."""
    if not np.all(np.isfinite(block)):
        raise DomainError("draws must be finite")
    # log1p(-1) = -inf matches no draw; an overflow is reported below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        counts = np.expm1(block)
        nearest = np.rint(counts)
        np.copyto(counts, nearest, where=np.log1p(nearest) == block)
        mean, sd = counts.mean(axis=0), _sd(counts)
    if not (math.isfinite(mean.max()) and math.isfinite(sd.max())):  # max keeps a NaN
        raise DomainError(
            f"count summaries overflow: a draw of {block.max():.6g} is at or near "
            f"log(max float) = {math.log(np.finfo(float).max):.2f}"
        )
    return block.mean(axis=0), _sd(block), mean, sd


def _sd(block: np.ndarray) -> np.ndarray:
    if len(block) == 1:
        return np.zeros(block.shape[1])
    return block.std(axis=0, ddof=1)


PREDICTION_COLUMNS = [
    "area_id",
    "cell_index",
    "pred_log_mean",
    "pred_log_sd",
    "pred_count_mean",
    "pred_count_sd",
    "cv",
    "direct_count",
    "direct_se",
]


def write_prediction_csv(path: str | Path, log_table: LogTable, summary: PredictionSummary) -> None:
    """Write per-entry predictions next to the direct estimates."""
    n = log_table.n_rows
    for name, arr in (
        ("log_mean", summary.log_mean),
        ("count mean", summary.count.mean),
    ):
        if arr.shape != (n,):
            raise ShapeError(f"summary {name} has {arr.shape}, table has {n} rows")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTION_COLUMNS)
        for flat, (area, cell) in enumerate(log_table.keys()):
            writer.writerow(
                [
                    area,
                    cell,
                    format_value(summary.log_mean[flat]),
                    format_value(summary.log_sd[flat]),
                    format_value(summary.count.mean[flat]),
                    format_value(summary.count.sd[flat]),
                    format_value(summary.count.cv[flat]),
                    format_value(log_table.estimates[flat]),
                    format_value(log_table.std_errors[flat]),
                ]
            )
