import csv
import json
from pathlib import Path

import numpy as np
import pytest

from areamix import ConfigError, basis, cli, errors, spatial
from areamix.cli import main, read_config

from conftest import DATA_DIR, write_csv


def fit_config(fixture10, tmp_path, **extra):
    """A fit config on fixture10; ``extra`` keys replace the defaults (a key
    may be set only once)."""
    values = {
        "tabulation": fixture10 / "tabulation.csv",
        "adjacency": fixture10 / "adjacency.txt",
        "population": fixture10 / "population.csv",
        "iterations": 160,
        "burn_in": 40,
        "chains": 2,
        "seed": 7,
    }
    values.update(extra)
    lines = [f"{k} = {v}" for k, v in values.items()]
    return write_csv(tmp_path / "run.cfg", "\n".join(lines) + "\n")


class TestReadConfig:
    def test_defaults_and_overrides(self, tmp_path):
        path = write_csv(
            tmp_path / "c.cfg",
            "# comment\n\nseed = 11\nmodel = msm\ngvf_span = 0.5\nwrite_draws = false\n",
        )
        config = read_config(path)
        assert config["seed"] == 11
        assert config["model"] == "msm"
        assert config["gvf_span"] == 0.5
        assert config["write_draws"] is False
        assert config["chains"] == 2  # untouched default
        assert config["truncation_m"] == 25

    def test_unknown_key(self, tmp_path):
        path = write_csv(tmp_path / "c.cfg", "mystery = 3\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            read_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write_csv(tmp_path / "c.cfg", "iterations = soon\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            read_config(path)

    def test_line_without_equals(self, tmp_path):
        path = write_csv(tmp_path / "c.cfg", "just a sentence\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_config("/nonexistent.cfg")

    def test_readme_fit_config(self, tmp_path):
        # the README's minimal fit config reads and passes the fit settings checks
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        model, cfg = cli._fit_settings(read_config(write_csv(tmp_path / "run.cfg", block)))
        assert model.name == "msmm"
        assert (cfg.iterations, cfg.burn_in, cfg.seed) == (10000, 5000, 5)


class TestFitCommand:
    def test_artifacts_written(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path)
        out = tmp_path / "out"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        for name in ("predictions.csv", "diagnostics.json", "draws.csv", "manifest.json"):
            assert (out / name).exists(), name

        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + 30  # 10 areas x 3 cells
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["seed"] == 7
        assert len(manifest["inputs"]) == 3
        assert sorted(manifest["outputs"]) == manifest["outputs"]

        report = json.loads((out / "diagnostics.json").read_text())
        assert {"alpha", "sigma2_eta", "n_clusters"} <= set(report)
        tracked = [k for k in report if k.startswith("y_")]
        assert len(tracked) == 5
        assert report["alpha"]["n_chains"] == 2
        assert "psrf" in report["alpha"]

    def test_byte_identical_reruns(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["fit", str(cfg), "--out", str(out1)]) == 0
        assert main(["fit", str(cfg), "--out", str(out2)]) == 0
        for name in ("predictions.csv", "draws.csv", "diagnostics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_changes_output(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["fit", str(cfg), "--out", str(out1)]) == 0
        assert main(["fit", str(cfg), "--out", str(out2), "--seed", "8"]) == 0
        assert (out1 / "predictions.csv").read_bytes() != (out2 / "predictions.csv").read_bytes()
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 8

    def test_single_chain_override(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path)
        out = tmp_path / "one"
        assert main(["fit", str(cfg), "--out", str(out), "--chains", "1"]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert report["alpha"]["n_chains"] == 1
        assert "psrf" not in report["alpha"]

    def test_msm_fit(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path, model="msm", write_draws="false")
        out = tmp_path / "msm"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        assert not (out / "draws.csv").exists()
        report = json.loads((out / "diagnostics.json").read_text())
        assert "sigma2_eta" in report
        assert "alpha" not in report

    def test_fh_fit(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path, model="fh")
        out = tmp_path / "fh"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert "sigma2" in report

    def test_dp_algorithm(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path, algorithm="dp", iterations=60, burn_in=20)
        out = tmp_path / "dp"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0


class TestDiagnoseCommand:
    def test_reproduces_fit_diagnostics(self, fixture10, tmp_path, capsys):
        cfg = fit_config(fixture10, tmp_path)
        out = tmp_path / "fit"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        dcfg = write_csv(tmp_path / "d.cfg", f"draws = {out / 'draws.csv'}\n")
        dout = tmp_path / "diag"
        assert main(["diagnose", str(dcfg), "--out", str(dout)]) == 0
        capsys.readouterr()
        assert (out / "diagnostics.json").read_bytes() == (dout / "diagnostics.json").read_bytes()

    def test_thinned_draw_dump(self, fixture10, tmp_path, capsys):
        cfg = fit_config(fixture10, tmp_path, thin=3)  # iterations 160, burn_in 40
        out = tmp_path / "fit"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        with open(out / "draws.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        series: dict[tuple[str, str], list[int]] = {}
        for row in rows:
            series.setdefault((row["chain"], row["parameter"]), []).append(int(row["iteration"]))
        assert {chain for chain, _ in series} == {"0", "1"}
        for iterations in series.values():
            assert iterations == list(range(40, 160, 3))

        dcfg = write_csv(tmp_path / "d.cfg", f"draws = {out / 'draws.csv'}\n")
        dout = tmp_path / "diag"
        assert main(["diagnose", str(dcfg), "--out", str(dout)]) == 0
        capsys.readouterr()
        assert (out / "diagnostics.json").read_bytes() == (dout / "diagnostics.json").read_bytes()

    def test_malformed_draws(self, tmp_path, capsys):
        draws = write_csv(tmp_path / "draws.csv", "chain,step,name,value\n0,1,a,2.0\n")
        dcfg = write_csv(tmp_path / "d.cfg", f"draws = {draws}\n")
        assert main(["diagnose", str(dcfg), "--out", str(tmp_path / 'x')]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0,0,1.0,a\n0,1,2.0\n", 3),  # ends before its parameter
            ("\n\n0,0,x,a\n", 4),  # blank lines count toward the line number
        ],
        ids=["short_row", "after_blank_lines"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, capsys, body, line):
        draws = write_csv(tmp_path / "draws.csv", "chain,iteration,value,parameter\n" + body)
        dcfg = write_csv(tmp_path / "d.cfg", f"draws = {draws}\n")
        assert main(["diagnose", str(dcfg), "--out", str(tmp_path / 'x')]) == 3
        assert f"draws.csv:{line}: malformed draw row" in capsys.readouterr().err

    def test_missing_draws_key(self, tmp_path, capsys):
        dcfg = write_csv(tmp_path / "d.cfg", "seed = 1\n")
        assert main(["diagnose", str(dcfg), "--out", str(tmp_path / 'x')]) == 2


class TestBasisCommand:
    def test_report_and_cache(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path)
        out = tmp_path / "basis"
        assert main(["basis", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "basis_report.json").read_text())
        assert report["n"] == 30
        assert report["r"] >= 1
        assert report["psi_x_max_abs"] < 1e-8
        assert report["k_inv_min_eigenvalue"] > 0
        assert report["from_cache"] is False
        assert (out / report["cache_file"]).exists()

        # second run with the same output directory reuses the cache
        assert main(["basis", str(cfg), "--out", str(out)]) == 0
        report2 = json.loads((out / "basis_report.json").read_text())
        assert report2["from_cache"] is True
        assert report2["cache_sha256"] == report["cache_sha256"]

    def test_fit_uses_cache_dir(self, fixture10, tmp_path):
        cache = tmp_path / "cache"
        cfg = fit_config(fixture10, tmp_path, basis_cache=str(cache), model="msm")
        out = tmp_path / "fit"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        cached = list(cache.glob("moran_*.npz"))
        assert len(cached) == 1


class TestBasisCache:
    def basis_report(self, fixture10, directory, cache, **request) -> dict:
        directory.mkdir()
        cfg = fit_config(fixture10, directory, basis_cache=str(cache), **request)
        assert main(["basis", str(cfg), "--out", str(directory / "out")]) == 0
        return json.loads((directory / "out" / "basis_report.json").read_text())

    def test_key_tracks_size_request(self, fixture10, tmp_path):
        cache = tmp_path / "cache"
        one = self.basis_report(fixture10, tmp_path / "one", cache, basis_r=1)
        two = self.basis_report(fixture10, tmp_path / "two", cache, basis_r=2)
        assert (one["r"], one["from_cache"]) == (1, False)
        assert (two["r"], two["from_cache"]) == (2, False)
        again = self.basis_report(fixture10, tmp_path / "again", cache, basis_r=1)
        assert (again["from_cache"], again["cache_file"]) == (True, one["cache_file"])
        # the default fraction and an explicit 0.5 are one request
        default = self.basis_report(fixture10, tmp_path / "default", cache)
        half = self.basis_report(fixture10, tmp_path / "half", cache, basis_fraction=0.5)
        assert default["from_cache"] is False
        assert (half["from_cache"], half["cache_file"]) == (True, default["cache_file"])

    @staticmethod
    def check_damaged_entry_is_rebuilt(inputs, tmp_path, damage):
        """A fit on ``inputs`` whose cache entry ``damage`` rewrote rebuilds the
        entry, byte for byte, and predicts what the cold fit did."""
        cache = tmp_path / "cache"
        cfg = fit_config(
            inputs, tmp_path, model="msm", basis_cache=str(cache), iterations=60, burn_in=20
        )
        assert main(["fit", str(cfg), "--out", str(tmp_path / "cold")]) == 0
        (entry,) = cache.iterdir()
        whole = entry.read_bytes()
        damage(entry)
        assert main(["fit", str(cfg), "--out", str(tmp_path / "rebuilt")]) == 0
        cold = (tmp_path / "cold" / "predictions.csv").read_bytes()
        assert (tmp_path / "rebuilt" / "predictions.csv").read_bytes() == cold
        assert list(cache.iterdir()) == [entry]
        assert entry.read_bytes() == whole

    def test_truncated_entry_is_rebuilt(self, fixture10, tmp_path):
        def truncate(entry):
            entry.write_bytes(entry.read_bytes()[:300])

        self.check_damaged_entry_is_rebuilt(fixture10, tmp_path, truncate)

    def test_entry_with_wrong_size_k_inv_is_rebuilt(self, fixture10, tmp_path):
        # a readable entry whose k_inv disagrees with its area rows
        def grow_k_inv(entry):
            with np.load(entry) as data:
                arrays = dict(data)
            arrays["k_inv"] = np.eye(arrays["k_inv"].shape[0] + 1)
            with open(entry, "wb") as fh:
                np.savez(fh, **arrays)

        self.check_damaged_entry_is_rebuilt(fixture10, tmp_path, grow_k_inv)

    def test_entry_with_altered_k_inv_is_rebuilt(self, tmp_path):
        # a readable entry of consistent shapes whose k_inv was doubled
        def double_k_inv(entry):
            with np.load(entry) as data:
                arrays = dict(data)
            arrays["k_inv"] = 2.0 * arrays["k_inv"]
            with open(entry, "wb") as fh:
                np.savez(fh, **arrays)

        self.check_damaged_entry_is_rebuilt(DATA_DIR / "fixture_grid", tmp_path, double_k_inv)

    def test_entry_holding_k_loads(self, tmp_path):
        # entries once also held the covariance k = inv(k_inv); one loads as
        # it is, and a mixture fit from it writes the bytes of a fresh entry's
        cache = tmp_path / "cache"
        cfg = fit_config(
            DATA_DIR / "fixture_grid", tmp_path, basis_cache=str(cache), iterations=60,
            burn_in=20,
        )
        assert main(["fit", str(cfg), "--out", str(tmp_path / "fresh")]) == 0
        (entry,) = cache.iterdir()
        with np.load(entry) as data:
            arrays = dict(data)
        assert "k" not in arrays and arrays["k_inv"].shape[0] > 1
        with open(entry, "wb") as fh:
            np.savez(fh, **arrays, k=np.linalg.inv(arrays["k_inv"]))
        with_k = entry.read_bytes()
        assert main(["fit", str(cfg), "--out", str(tmp_path / "old")]) == 0
        assert entry.read_bytes() == with_k  # loaded, not rebuilt
        for name in ("predictions.csv", "draws.csv", "diagnostics.json"):
            old = (tmp_path / "old" / name).read_bytes()
            assert old == (tmp_path / "fresh" / name).read_bytes(), name


class TestSimulateCommand:
    def test_study_files(self, fixture10, tmp_path):
        cfg = fit_config(
            fixture10, tmp_path, replicates=2, models="msm,fh", iterations=100, burn_in=20
        )
        out = tmp_path / "sim"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        study_lines = (out / "study.csv").read_text().splitlines()
        assert study_lines[0] == "replicate,model,mab,amse"
        assert len(study_lines) == 1 + 2 * 2
        summary_lines = (out / "study_summary.csv").read_text().splitlines()
        assert len(summary_lines) == 1 + 2 * 2


class TestErrorExits:
    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_csv(tmp_path / "c.cfg", "bogus = 1\n")
        assert main(["fit", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_input_is_config_error(self, fixture10, tmp_path, capsys):
        cfg = write_csv(
            tmp_path / "c.cfg",
            f"tabulation = {tmp_path / 'gone.csv'}\n"
            f"adjacency = {fixture10 / 'adjacency.txt'}\n"
            f"population = {fixture10 / 'population.csv'}\n",
        )
        assert main(["fit", str(cfg), "--out", str(tmp_path / 'x')]) == 2

    @pytest.mark.parametrize("key", ["tabulation", "adjacency", "population"])
    def test_input_directory_is_config_error(self, fixture10, tmp_path, capsys, key):
        # reading a directory raised IsADirectoryError: a traceback and exit 1
        cfg = fit_config(fixture10, tmp_path, **{key: tmp_path})
        assert main(["fit", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("areamix: config error: ")
        assert f"Is a directory: '{tmp_path}'" in err

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: cannot read config {tmp_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tabulation", "adjacency", "population", "draws"])
    def test_input_not_utf8_is_data_error(self, fixture10, tmp_path, capsys, key):
        # a Latin-1 byte raised UnicodeDecodeError: a traceback and exit 1
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"caf\xe9,1\n")
        command = "diagnose" if key == "draws" else "fit"
        cfg = fit_config(fixture10, tmp_path, **{key: bad})
        assert main([command, str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == (
            f"areamix: data error: {bad}: not UTF-8 text (invalid continuation byte)\n"
        )

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"# caf\xe9\nseed = 1\n")
        assert main(["fit", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: cannot read config {cfg}: " in capsys.readouterr().err

    def test_bad_data_is_data_error(self, fixture10, tmp_path, capsys):
        bad = write_csv(
            tmp_path / "bad.csv", "state,county,order,count,std_err\n19,001,1,-4,1.0\n"
        )
        cfg = write_csv(
            tmp_path / "c.cfg",
            f"tabulation = {bad}\n"
            f"adjacency = {fixture10 / 'adjacency.txt'}\n"
            f"population = {fixture10 / 'population.csv'}\n",
        )
        assert main(["fit", str(cfg), "--out", str(tmp_path / 'x')]) == 3
        assert "data error" in capsys.readouterr().err

    def test_row_longer_than_header_is_data_error(self, fixture10, tmp_path, capsys):
        lines = (fixture10 / "tabulation.csv").read_text().splitlines()
        lines[3] += ",1"
        bad = write_csv(tmp_path / "bad.csv", "\n".join(lines) + "\n")
        cfg = fit_config(fixture10, tmp_path, tabulation=bad)
        assert main(["fit", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == (
            f"areamix: data error: {bad}:4: 7 fields, but the header names 6\n"
        )

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # two areas, one cell: the design absorbs everything and no
        # positive-eigenvalue directions survive
        tab = write_csv(
            tmp_path / "t.csv",
            "state,county,order,count,std_err\n19,001,1,10,2.0\n19,003,1,12,2.0\n",
        )
        adj = write_csv(tmp_path / "a.txt", "19001,19003\n")
        pop = write_csv(tmp_path / "p.csv", "19001,100\n19003,200\n")
        cfg = write_csv(
            tmp_path / "c.cfg",
            f"tabulation = {tab}\nadjacency = {adj}\npopulation = {pop}\n",
        )
        assert main(["basis", str(cfg), "--out", str(tmp_path / 'x')]) == 4
        assert "numerical error" in capsys.readouterr().err

    def test_invalid_model_is_config_error(self, fixture10, tmp_path, capsys):
        cfg = fit_config(fixture10, tmp_path, model="mystery")
        assert main(["fit", str(cfg), "--out", str(tmp_path / 'x')]) == 2

    def test_invalid_iterations_is_config_error(self, fixture10, tmp_path, capsys):
        cfg = fit_config(fixture10, tmp_path, burn_in=500)  # exceeds iterations
        assert main(["fit", str(cfg), "--out", str(tmp_path / 'x')]) == 2

    def test_repeated_key_is_config_error(self, tmp_path, capsys, monkeypatch):
        # the second model line must not silently win; the error names both
        # lines and comes before any input is read
        def no_input(*args, **kwargs):
            raise AssertionError("input read despite a config error")

        monkeypatch.setattr(cli, "load_tabulation", no_input)
        cfg = write_csv(tmp_path / "c.cfg", "# models\nmodel = msm\n\nmodel = msmm\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:4: .*'model'.*line 2"):
            read_config(cfg)
        assert main(["fit", str(cfg), "--out", str(tmp_path / 'x')]) == 2
        assert "line 2" in capsys.readouterr().err


# every error class's exit code and stderr label, as the command line reports them
EXIT_CATEGORIES = {
    "AreamixError": (1, "error"),
    "ConfigError": (2, "config error"),
    "SchemaError": (3, "data error"),
    "DuplicateKeyError": (3, "data error"),
    "DomainError": (3, "data error"),
    "ShapeError": (3, "data error"),
    "UnknownAreaError": (3, "data error"),
    "InsufficientDataError": (3, "data error"),
    "DegenerateChainError": (3, "data error"),
    "RankError": (4, "numerical error"),
    "EmptyBasisError": (4, "numerical error"),
    "DefinitenessError": (4, "numerical error"),
    "DivergenceError": (4, "numerical error"),
}


def test_exit_categories_cover_every_error():
    classes = [errors.AreamixError, *errors.AreamixError.__subclasses__()]
    assert sorted(cls.__name__ for cls in classes) == sorted(EXIT_CATEGORIES)


@pytest.mark.parametrize("name", sorted(EXIT_CATEGORIES))
def test_error_exit_category(fixture10, tmp_path, monkeypatch, capsys, name):
    error = getattr(errors, name)

    def failing_command(config, out_dir):
        raise error("boom")

    monkeypatch.setitem(cli.COMMANDS, "fit", failing_command)
    code, label = EXIT_CATEGORIES[name]
    assert main(["fit", str(fit_config(fixture10, tmp_path)), "--out", str(tmp_path / "x")]) == code
    assert capsys.readouterr().err == f"areamix: {label}: boom\n"


class TestManifest:
    def test_hashes_inputs(self, fixture10, tmp_path):
        cfg = fit_config(fixture10, tmp_path, model="fh", write_draws="false")
        out = tmp_path / "out"
        assert main(["fit", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        from areamix.util import sha256_file

        for name, digest in manifest["inputs"].items():
            assert digest == sha256_file(name)
        assert manifest["config"]["model"] == "fh"
        assert "config_sha256" in manifest

    def test_default_config_section(self, tmp_path):
        # every key, value and type of a config that names only its input
        draws = write_csv(tmp_path / "draws.csv", "chain,iteration,parameter,value\n0,0,a,1.0\n")
        cfg = write_csv(tmp_path / "d.cfg", f"draws = {draws}\n")
        out = tmp_path / "out"
        assert main(["diagnose", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        expected = DEFAULT_CONFIG | {"draws": str(draws), "out": str(out)}
        assert [(k, v, type(v)) for k, v in config.items()] == [
            (k, expected[k], type(expected[k])) for k in sorted(expected)
        ]


# the config section of every manifest when the config file sets no other key
DEFAULT_CONFIG = {
    "a_alpha": 1.0,
    "a_eta": 0.1,
    "a_sigma": 0.1,
    "adjacency": None,
    "algorithm": "truncated",
    "b_alpha": 4.0,
    "b_eta": 0.1,
    "b_sigma": 0.1,
    "basis_cache": None,
    "basis_fraction": 0.5,
    "basis_r": None,
    "burn_in": None,
    "chains": 2,
    "col_count": None,
    "col_county": None,
    "col_order": None,
    "col_sample_size": None,
    "col_state": None,
    "col_std_err": None,
    "gvf_span": 0.75,
    "iterations": None,
    "model": "msmm",
    "models": "msmm,fh",
    "population": None,
    "replicates": 100,
    "seed": 0,
    "sigma2_beta": 100.0,
    "tabulation": None,
    "thin": 1,
    "truncation_m": 25,
    "workers": 1,
    "write_draws": True,
}


def spy(monkeypatch, calls: list, module, name: str) -> None:
    """Record each call of ``module.name`` in ``calls``, then run the real function."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestSettingsBeforeInput:
    @pytest.mark.parametrize(
        "setting",
        [
            dict(model="mystery"),
            dict(algorithm="exact"),
            dict(chains=0),
            dict(burn_in=500),
            dict(truncation_m=1),
        ],
        ids=["model", "algorithm", "chains", "burn_in", "truncation_m"],
    )
    def test_fit_setting_error_wins_over_bad_table(self, fixture10, tmp_path, capsys, setting):
        # the table lacks std_err, a data error (exit 3) once it is read
        bad = write_csv(tmp_path / "t.csv", "state,county,order,count\n19,001,1,4\n")
        cfg = fit_config(fixture10, tmp_path, tabulation=bad, **setting)
        assert main(["fit", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["msmm", "msm", "fh"])
    def test_fit_non_finite_setting_reads_no_input(
        self, fixture10, tmp_path, monkeypatch, capsys, model
    ):
        calls: list = []
        spy(monkeypatch, calls, cli, "load_tabulation")
        cfg = fit_config(fixture10, tmp_path, model=model, sigma2_beta="nan")
        assert main(["fit", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "sigma2_beta must be finite and positive" in err
        assert calls == []

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(basis_fraction=1.5), "fraction must lie in (0, 1]"),
            (dict(basis_r=0), "r must be >= 1"),
            (dict(gvf_span=2), "span must lie in (0, 1]"),
        ],
        ids=["basis_fraction", "basis_r", "gvf_span"],
    )
    def test_fit_basis_or_gvf_setting_reads_no_input(
        self, fixture10, tmp_path, monkeypatch, capsys, setting, message
    ):
        calls: list = []
        spy(monkeypatch, calls, cli, "load_tabulation")
        cfg = fit_config(fixture10, tmp_path, **setting)
        assert main(["fit", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert message in err
        assert calls == []

    def test_simulate_unknown_model_reads_no_input(self, fixture10, tmp_path, monkeypatch, capsys):
        calls: list = []
        spy(monkeypatch, calls, spatial, "expand_multivariate")
        for name in ("load_tabulation", "build_basis"):
            spy(monkeypatch, calls, cli, name)
        cfg = fit_config(fixture10, tmp_path, models="msm,nope", replicates=1)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "nope" in capsys.readouterr().err
        assert calls == []

    def test_simulate_repeated_model_reads_no_input(
        self, fixture10, tmp_path, monkeypatch, capsys
    ):
        # a repeated name would fit the model twice with one seed and
        # write every study row twice
        calls: list = []
        for name in ("load_tabulation", "run_study"):
            spy(monkeypatch, calls, cli, name)
        cfg = fit_config(fixture10, tmp_path, models="msm,fh,msm", replicates=1)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "more than once" in capsys.readouterr().err
        assert calls == []


class TestDenseMatricesOnDemand:
    @pytest.fixture
    def dense_calls(self, monkeypatch) -> list:
        # cli binds no expansion of its own, so the spy sees every call
        assert not hasattr(cli, "expand_multivariate")
        calls: list = []
        spy(monkeypatch, calls, spatial, "expand_multivariate")
        spy(monkeypatch, calls, basis, "icar_precision")  # what build_basis looks up
        return calls

    def test_fh_fit_builds_no_entry_level_matrix(self, fixture10, tmp_path, dense_calls):
        cfg = fit_config(fixture10, tmp_path, model="fh", iterations=60, burn_in=20)
        assert main(["fit", str(cfg), "--out", str(tmp_path / "fh")]) == 0
        assert dense_calls == []

    def test_fh_study_builds_no_entry_level_matrix(self, fixture10, tmp_path, dense_calls):
        cfg = fit_config(
            fixture10, tmp_path, models="fh", replicates=1, iterations=60, burn_in=20
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        assert dense_calls == []

    def test_cache_hit_builds_no_precision(self, fixture10, tmp_path, dense_calls):
        cfg = fit_config(
            fixture10,
            tmp_path,
            model="msm",
            basis_cache=str(tmp_path / "cache"),
            iterations=60,
            burn_in=20,
            write_draws="false",
        )
        assert main(["fit", str(cfg), "--out", str(tmp_path / "miss")]) == 0
        assert dense_calls == ["icar_precision"]  # of the 10 x 10 area adjacency
        dense_calls.clear()
        assert main(["fit", str(cfg), "--out", str(tmp_path / "hit")]) == 0
        assert dense_calls == []
        hit = (tmp_path / "hit" / "predictions.csv").read_bytes()
        assert hit == (tmp_path / "miss" / "predictions.csv").read_bytes()
