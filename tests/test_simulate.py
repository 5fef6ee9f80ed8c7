import re
from dataclasses import replace

import numpy as np
import pytest

from areamix import (
    DomainError,
    FhConfig,
    MixtureConfig,
    MsmConfig,
    ShapeError,
    StudyConfig,
    amse,
    mab,
    perturb,
    run_study,
    write_study_csv,
    write_study_summary_csv,
)
from areamix import simulate
from areamix.models import MODELS
from areamix.simulate import StudyResult


def quick_config(**kwargs) -> StudyConfig:
    fast = dict(iterations=120, burn_in=40)
    defaults = dict(
        replicates=3,
        master_seed=5,
        models=("msm", "fh"),
        msm=MsmConfig(**fast),
        msmm=MixtureConfig(**fast),
        fh=FhConfig(**fast),
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestMetrics:
    def test_pinned_values(self):
        pred = np.array([1.0, 2.0, 3.0])
        truth = np.array([1.0, 1.0, 1.0])
        assert mab(pred, truth) == 1.0
        assert amse(pred, truth) == pytest.approx(5.0 / 3.0)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            mab(np.ones(3), np.ones(4))
        with pytest.raises(ShapeError):
            amse(np.array([]), np.array([]))


class TestPerturb:
    def test_deterministic(self):
        z = np.zeros(6)
        d = np.full(6, 0.25)
        a = perturb(z, d, np.random.default_rng(3))
        b = perturb(z, d, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert np.std(a) > 0

    def test_noise_scales_with_d(self):
        rng = np.random.default_rng(4)
        z = np.zeros(20000)
        d = np.full(20000, 0.09)
        noise = perturb(z, d, rng)
        assert noise.std() == pytest.approx(0.3, rel=0.05)

    def test_invalid_variance(self):
        with pytest.raises(DomainError):
            perturb(np.zeros(3), np.array([0.1, -0.1, 0.2]), np.random.default_rng(0))


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            quick_config(replicates=0).validate()
        with pytest.raises(DomainError):
            quick_config(models=()).validate()
        with pytest.raises(DomainError):
            quick_config(models=("msm", "nope")).validate()
        with pytest.raises(DomainError, match="more than once"):
            quick_config(models=("msm", "msm")).validate()
        with pytest.raises(DomainError):
            quick_config(msmm_algorithm="exact").validate()
        with pytest.raises(DomainError):
            quick_config(workers=0).validate()
        # fit seeds derive from these tags: changing one changes every study output
        assert {name: model.seed_tag for name, model in MODELS.items()} == {
            "msm": 1,
            "msmm": 2,
            "fh": 3,
        }


class TestRunStudy:
    def test_rows_cover_grid(self, small_inputs):
        study, x, _, basis = small_inputs
        result = run_study(study.truth, x, basis, quick_config())
        assert len(result.rows) == 3 * 2
        assert {(rep, model) for rep, model, *_ in result.rows} == {
            (rep, model) for rep in range(3) for model in ("msm", "fh")
        }
        assert result.divergent == ()
        for _, _, mab_val, amse_val in result.rows:
            assert np.isfinite(mab_val) and np.isfinite(amse_val)

    def test_deterministic_across_runs(self, small_inputs):
        study, x, _, basis = small_inputs
        a = run_study(study.truth, x, basis, quick_config())
        b = run_study(study.truth, x, basis, quick_config())
        assert a.rows == b.rows

    def test_workers_do_not_change_results(self, small_inputs):
        study, x, _, basis = small_inputs
        serial = run_study(study.truth, x, basis, quick_config(replicates=4))
        pooled = run_study(study.truth, x, basis, quick_config(replicates=4, workers=2))
        assert serial.rows == pooled.rows
        assert serial.divergent == pooled.divergent

    def test_mixture_rand_scoring(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = quick_config(
            replicates=2,
            models=("msmm",),
            reference_groups=study.groups,
        )
        result = run_study(study.truth, x, basis, cfg)
        assert set(result.rand) == {0, 1}
        assert all(0.0 <= v <= 1.0 for v in result.rand.values())

    def test_undefined_truth_variance_rejected(self, small_inputs):
        study, x, _, basis = small_inputs
        bad = type(study.truth)(
            areas=study.truth.areas,
            n_cells=study.truth.n_cells,
            z=study.truth.z,
            d=np.where(np.arange(study.truth.n_rows) == 0, np.nan, study.truth.d),
            estimates=study.truth.estimates,
            std_errors=study.truth.std_errors,
        )
        with pytest.raises(DomainError):
            run_study(bad, x, basis, quick_config())

    @pytest.mark.parametrize("models", [("msm",), ("fh", "msmm")])
    def test_model_needing_a_basis_without_one(self, small_inputs, monkeypatch, models):
        # the sampler would fail on basis.n inside every replicate (and pool worker)
        study, x, _, _ = small_inputs

        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran without the basis its model needs")

        monkeypatch.setattr(simulate, "_replicate_task", no_replicate)
        needing = [name for name in models if MODELS[name].needs_basis]
        with pytest.raises(DomainError, match=re.escape(f"models {needing} need a basis")):
            run_study(study.truth, x, None, quick_config(models=models))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_fit_recorded_not_raised(self, small_inputs):
        study, x, _, basis = small_inputs
        huge = type(study.truth)(
            areas=study.truth.areas,
            n_cells=study.truth.n_cells,
            z=np.full(study.truth.n_rows, 1e200),
            d=study.truth.d,
            estimates=study.truth.estimates,
            std_errors=study.truth.std_errors,
        )
        result = run_study(huge, x, basis, quick_config(replicates=2, models=("msm",)))
        assert result.rows == ()
        assert len(result.divergent) == 2
        assert all(model == "msm" for _, model, _ in result.divergent)

    @pytest.mark.parametrize("algorithm", ["truncated", "dp"])
    def test_indefinite_atom_precision_recorded_not_raised(self, small_inputs, algorithm):
        # K^{-1} = -100 I has no Cholesky factor: each mixture replicate fails
        # with DefinitenessError, and the study records it and goes on
        study, x, _, basis = small_inputs
        r = basis.r
        broken = replace(basis, k_inv=-100.0 * np.eye(r))
        cfg = quick_config(replicates=2, models=("msmm", "fh"), msmm_algorithm=algorithm)
        result = run_study(study.truth, x, broken, cfg)
        assert [model for _, model, *_ in result.rows] == ["fh", "fh"]
        assert [(rep, model) for rep, model, _ in result.divergent] == [(0, "msmm"), (1, "msmm")]
        assert all("not positive definite" in message for *_, message in result.divergent)

    def test_summary_quantiles(self, small_inputs):
        study, x, _, basis = small_inputs
        result = run_study(study.truth, x, basis, quick_config(replicates=5))
        block = result.summary()["fh"]["amse"]
        vals = np.sort(result.scores("fh", "amse"))
        assert block["min"] == vals[0]
        assert block["max"] == vals[-1]
        assert block["median"] == pytest.approx(np.median(vals))
        assert block["n"] == 5
        assert result.summary()["fh"]["n_divergent"] == 0


class TestStudyCsv:
    def test_row_file(self, small_inputs, tmp_path):
        study, x, _, basis = small_inputs
        result = run_study(study.truth, x, basis, quick_config(replicates=2))
        path = tmp_path / "study.csv"
        write_study_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,model,mab,amse"
        assert len(lines) == 1 + len(result.rows)

    def test_summary_file(self, small_inputs, tmp_path):
        study, x, _, basis = small_inputs
        result = run_study(study.truth, x, basis, quick_config(replicates=2))
        path = tmp_path / "summary.csv"
        write_study_summary_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,metric,min,q1,median,q3,max,n_scored,n_divergent"
        assert len(lines) == 1 + 2 * 2  # two models x two metrics

    def test_summary_file_blanks_an_unscored_model(self, tmp_path):
        result = StudyResult(
            rows=((0, "fh", 0.5, 0.25),),
            divergent=((0, "msm", "diverged"),),
            rand={},
            models=("msm", "fh"),
        )
        path = tmp_path / "summary.csv"
        write_study_summary_csv(result, path)
        assert path.read_text().splitlines()[1:] == [
            "msm,mab,,,,,,0,1",
            "msm,amse,,,,,,0,1",
            "fh,mab,0.5,0.5,0.5,0.5,0.5,1,0",
            "fh,amse,0.25,0.25,0.25,0.25,0.25,1,0",
        ]
