"""Command line front end.

Four subcommands drive the library end to end:

    areamix fit      config.txt   # fit msm | msmm | fh, write predictions
    areamix basis    config.txt   # build + cache the spatial basis
    areamix simulate config.txt   # perturb-and-refit study
    areamix diagnose config.txt   # recompute diagnostics from a draw dump

Configs are flat ``key = value`` text files (``#`` starts a comment
line); every statistical default is pre-filled, so a minimal config
names only the input files.  The ``--seed``, ``--chains``, and ``--out``
flags override their config keys.  Every run writes a ``manifest.json``
recording the resolved configuration, its hash, the seed, and content
hashes of the inputs, and never embeds timestamps, so reruns with the
same seed produce byte-identical outputs.

Errors exit nonzero with a categorised message: config (exit 2), data
(exit 3), or numerical (exit 4).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import operator
import sys
from collections.abc import Sequence
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import (
    EIGENVALUE_TOLERANCE,
    basis_cache_key,
    build_basis,
    cache_path,
    check_basis_request,
    load_basis,
    save_basis,
)
from .design import build_design, read_population_csv
from .diagnostics import diagnostics_report
from .errors import AreamixError, ConfigError, DomainError, SchemaError
from .fh import fit_fh
from .loess import check_span
from .mixture import fit_msmm_dp, fit_msmm_truncated
from .models import MODELS, Model, check_models
from .msm import fit_msm
from .simulate import StudyConfig, run_study, write_study_csv, write_study_summary_csv
from .spatial import build_adjacency, read_edge_list
from .tabulation import (
    DEFAULT_COLUMNS,
    gvf_impute,
    load_tabulation,
    log_transform,
    predict_summaries,
    write_prediction_csv,
)
from .util import derive_seed, format_value, open_text, sha256_bytes, sha256_file

# the input files of every command that reads a table, as config keys
TABLE_INPUTS = ("tabulation", "adjacency", "population")

# key -> (type, default); None means "no default, may be required per command".
# iterations and burn_in default per model (models.Model); the other sampler
# settings are added below from the models' config classes
CONFIG_SPEC: dict[str, tuple[str, object]] = {
    **{key: ("path", None) for key in TABLE_INPUTS},
    "draws": ("path", None),
    "out": ("str", "."),
    "model": ("str", "msmm"),
    "algorithm": ("str", "truncated"),
    "basis_fraction": ("float", 0.5),
    "basis_r": ("int", None),
    "basis_cache": ("str", None),
    "iterations": ("int", None),
    "burn_in": ("int", None),
    "chains": ("int", 2),
    "seed": ("int", 0),
    "gvf_span": ("float", 0.75),
    "replicates": ("int", 100),
    "workers": ("int", 1),
    "models": ("str", "msmm,fh"),
    "write_draws": ("bool", True),
    **{f"col_{role}": ("str", None) for role in DEFAULT_COLUMNS},
}
# one key per sampler setting with a default, typed as its field is declared;
# a field whose default is None (a test pin such as alpha_fixed) is no key
CONFIG_SPEC |= {
    f.name: (f.type, f.default)
    for model in MODELS.values()
    for f in fields(model.config_class)
    if f.default is not None and f.name not in CONFIG_SPEC
}

DRAW_COLUMNS = ("chain", "iteration", "parameter", "value")  # of draws.csv
N_TRACKED_ENTRIES = 5
_ENTRY_SEED_TAG = 7777


def _convert(key: str, raw: str):
    kind, _ = CONFIG_SPEC[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from None


def read_config(path: str | Path) -> dict:
    """Parse a flat key = value config file against the known key table; one line per key."""
    values = {k: default for k, (_, default) in CONFIG_SPEC.items()}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SPEC:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _convert(key, value)
    return values


def _require(config: dict, keys: Sequence[str]) -> None:
    missing = [k for k in keys if config.get(k) in (None, "")]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")


def _column_overrides(config: dict) -> dict | None:
    mapping = {role: config[f"col_{role}"] for role in DEFAULT_COLUMNS if config[f"col_{role}"]}
    return mapping or None


def _config_hash(config: dict) -> str:
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return sha256_bytes(canon.encode())


def _write_json(path: Path, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(
    out_dir: Path, command: str, config: dict, input_keys: Sequence[str], outputs: list[str]
) -> None:
    """manifest.json: the config, its hash, and the hashes of the inputs ``input_keys`` name."""
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "config_sha256": _config_hash(config),
        "seed": config["seed"],
        "inputs": {name: sha256_file(name) for name in sorted(config[k] for k in input_keys)},
        "outputs": sorted(outputs),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _basis_request(config: dict) -> tuple[float | None, int | None]:
    """The basis size request (fraction, r): ``basis_r``, when set, wins."""
    r = config["basis_r"]
    return (None if r is not None else config["basis_fraction"]), r


def _load_pipeline(config: dict):
    """Common ingest: table -> imputed log table, design, area adjacency.

    The basis and GVF settings are checked before any input is read.
    """
    _require(config, TABLE_INPUTS)
    try:
        check_basis_request(*_basis_request(config))
        check_span(config["gvf_span"])
    except DomainError as exc:
        raise ConfigError(f"invalid basis or GVF settings: {exc}") from None
    table = load_tabulation(config["tabulation"], columns=_column_overrides(config))
    log_table = log_transform(table)
    if np.any(~np.isfinite(log_table.d)):
        log_table = gvf_impute(log_table, span=config["gvf_span"])
    population = read_population_csv(config["population"])
    x, names = build_design(log_table, population)
    edges = read_edge_list(config["adjacency"])
    w = build_adjacency(log_table.areas, edges)
    return log_table, x, names, w


def _get_basis(config: dict, x, w):
    """The basis over the area adjacency w, from the cache if present.

    The cache key covers the inputs and the resolved size request, so the
    default fraction and an explicit 0.5 share an entry and another
    ``basis_r`` does not.
    """
    fraction, r = _basis_request(config)
    cache_dir = config["basis_cache"]
    key = sha256_bytes(f"{basis_cache_key(x, w)} fraction={fraction!r} r={r!r}".encode())
    if cache_dir:
        cached = load_basis(cache_dir, key)
        if cached is not None:
            return cached, key, True
    basis = build_basis(x, w, fraction=fraction, r=r)
    if cache_dir:
        save_basis(basis, cache_dir, key)
    return basis, key, False


def _model_config(config: dict, model: Model):
    """The model's sampler config from every config key that names one of its fields."""
    values = {f.name: config[f.name] for f in fields(model.config_class) if f.name in CONFIG_SPEC}
    for key, default in (("iterations", model.iterations), ("burn_in", model.burn_in)):
        if values[key] is None:
            values[key] = default
    cfg = model.config_class(**values)
    cfg.validate()
    return cfg


def _fit_settings(config: dict):
    """Model and sampler config of a fit, checked before any input is read."""
    if config["chains"] < 1:
        raise ConfigError("chains must be >= 1")
    try:
        check_models([config["model"]], config["algorithm"])
        model = MODELS[config["model"]]
        return model, _model_config(config, model)
    except DomainError as exc:
        raise ConfigError(f"invalid fit settings: {exc}") from None


def _fit_one_chain(model: str, algorithm: str, z, d, x, basis, cfg):
    if model == "msm":
        return fit_msm(z, d, x, basis, cfg)
    if model == "fh":
        return fit_fh(z, d, x, cfg)
    if algorithm == "dp":
        return fit_msmm_dp(z, d, x, basis, cfg)
    return fit_msmm_truncated(z, d, x, basis, cfg)


def _tracked_entries(config: dict, log_table) -> list[int]:
    rng = np.random.default_rng(derive_seed(config["seed"], _ENTRY_SEED_TAG))
    n = log_table.n_rows
    picks = rng.choice(n, size=min(N_TRACKED_ENTRIES, n), replace=False)
    return sorted(int(i) for i in picks)


def cmd_fit(config: dict, out_dir: Path) -> list[str]:
    """fit a model and write predictions"""
    model, cfg = _fit_settings(config)
    log_table, x, _, w = _load_pipeline(config)
    basis = _get_basis(config, x, w)[0] if model.needs_basis else None

    z, d = log_table.z, log_table.d
    fits = []
    for chain in range(config["chains"]):
        chain_cfg = replace(cfg, seed=derive_seed(config["seed"], chain))
        fits.append(_fit_one_chain(model.name, config["algorithm"], z, d, x, basis, chain_cfg))

    summary = predict_summaries([fit.y for fit in fits])
    write_prediction_csv(out_dir / "predictions.csv", log_table, summary)
    outputs = ["predictions.csv"]

    keys = log_table.keys()
    entries = [(f"y_{keys[i][0]}_{keys[i][1]}", i) for i in _tracked_entries(config, log_table)]
    # per chain: the model's scalar series, then the tracked entries
    chain_series = [
        model.scalar_series(fit) | {name: fit.y[:, i] for name, i in entries} for fit in fits
    ]
    report = diagnostics_report({name: [s[name] for s in chain_series] for name in chain_series[0]})
    _write_json(out_dir / "diagnostics.json", report)
    outputs.append("diagnostics.json")

    if config["write_draws"]:
        with open(out_dir / "draws.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(DRAW_COLUMNS)
            for chain, series in enumerate(chain_series):
                for name in sorted(series):
                    for iteration, value in zip(cfg.retained(), series[name]):
                        writer.writerow([chain, iteration, name, format_value(float(value))])
        outputs.append("draws.csv")

    _write_manifest(out_dir, "fit", config, TABLE_INPUTS, outputs)
    return outputs


def cmd_basis(config: dict, out_dir: Path) -> list[str]:
    """build and cache the spatial basis"""
    _, x, names, w = _load_pipeline(config)
    cache_dir = config["basis_cache"] or str(out_dir)
    config = dict(config, basis_cache=cache_dir)
    basis, key, from_cache = _get_basis(config, x, w)
    cache_file = cache_path(cache_dir, key)
    area = basis.area_psi
    # Psi'X from the area rows and each area's sum of x rows: no n x r product
    psi_x = area.T @ x.reshape(area.shape[0], basis.cells, -1).sum(axis=1)
    report = {
        "n": basis.n,
        "r": basis.r,
        "n_positive": basis.n_positive,
        "tolerance": EIGENVALUE_TOLERANCE,
        "design_columns": names,
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "psi_x_max_abs": float(np.max(np.abs(psi_x))),
        "k_inv_min_eigenvalue": float(np.linalg.eigvalsh(basis.k_inv).min()),
        "cache_file": cache_file.name,
        "cache_sha256": sha256_file(cache_file),
        "from_cache": bool(from_cache),
    }
    _write_json(out_dir / "basis_report.json", report)
    outputs = ["basis_report.json"]
    if Path(cache_dir) == out_dir:
        outputs.append(cache_file.name)
    _write_manifest(out_dir, "basis", config, TABLE_INPUTS, outputs)
    return outputs


def cmd_simulate(config: dict, out_dir: Path) -> list[str]:
    """run a perturb-and-refit study"""
    models = tuple(m.strip() for m in config["models"].split(",") if m.strip())
    study_cfg = StudyConfig(
        replicates=config["replicates"],
        master_seed=config["seed"],
        models=models,
        msmm_algorithm=config["algorithm"],
        workers=config["workers"],
    )
    try:
        study_cfg.validate()
        samplers = {name: _model_config(config, MODELS[name]) for name in models}
    except DomainError as exc:
        raise ConfigError(f"invalid study settings: {exc}") from None
    log_table, x, _, w = _load_pipeline(config)
    basis = None
    if any(MODELS[name].needs_basis for name in models):
        basis = _get_basis(config, x, w)[0]
    result = run_study(log_table, x, basis, replace(study_cfg, **samplers))
    write_study_csv(result, out_dir / "study.csv")
    write_study_summary_csv(result, out_dir / "study_summary.csv")
    outputs = ["study.csv", "study_summary.csv"]
    _write_manifest(out_dir, "simulate", config, TABLE_INPUTS, outputs)
    return outputs


def cmd_diagnose(config: dict, out_dir: Path) -> list[str]:
    """recompute diagnostics from a draw dump"""
    _require(config, ["draws"])
    path = config["draws"]
    rows: list[tuple[str, int, int, float]] = []  # (parameter, chain, iteration, value)
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(DRAW_COLUMNS).issubset(reader.fieldnames):
            raise SchemaError(f"{path}: draw dump needs columns {sorted(DRAW_COLUMNS)}")
        for rec in reader:
            try:
                if rec["parameter"] is None:  # the row ends before its parameter
                    raise ValueError
                rows.append(
                    (rec["parameter"], int(rec["chain"]), int(rec["iteration"]), float(rec["value"]))
                )
            except (TypeError, ValueError):
                raise SchemaError(f"{path}:{reader.line_num}: malformed draw row") from None
    if not rows:
        raise SchemaError(f"{path}: no draws found")
    param_chains: dict[str, list[np.ndarray]] = {}
    for (name, _), chain in itertools.groupby(sorted(rows), key=operator.itemgetter(0, 1)):
        param_chains.setdefault(name, []).append(np.array([row[3] for row in chain]))
    _write_json(out_dir / "diagnostics.json", diagnostics_report(param_chains))
    _write_manifest(out_dir, "diagnose", config, ["draws"], ["diagnostics.json"])
    return ["diagnostics.json"]


COMMANDS = {
    "fit": cmd_fit,
    "basis": cmd_basis,
    "simulate": cmd_simulate,
    "diagnose": cmd_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="areamix",
        description="Area-level spatial mixture models for survey tabulations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():  # a command's help is its docstring
        cmd = sub.add_parser(name, help=command.__doc__)
        cmd.add_argument("config", help="flat key = value config file")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--chains", type=int, help="override the number of chains")
        cmd.add_argument("--out", help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = read_config(args.config)
        for key in ("seed", "chains", "out"):
            if getattr(args, key) is not None:
                config[key] = getattr(args, key)
        out_dir = Path(config["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = COMMANDS[args.command](config, out_dir)
    except AreamixError as exc:
        print(f"areamix: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path from the config or its flags that cannot be opened
        if exc.filename is None:
            raise
        print(f"areamix: config error: {exc}", file=sys.stderr)
        return 2
    for name in outputs:
        print(f"wrote {Path(config['out']) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
