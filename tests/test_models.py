import math
from dataclasses import fields

import pytest

from areamix import DomainError, FhConfig, MixtureConfig, MsmConfig, fh, mixture, msm
from areamix.cli import _model_config, read_config
from areamix.models import MODELS

from conftest import write_csv


@pytest.mark.parametrize("config_class", [MsmConfig, FhConfig, MixtureConfig])
@pytest.mark.parametrize(
    "bad",
    [
        dict(iterations=50, burn_in=50),
        dict(iterations=50, burn_in=60),
        dict(thin=0),
        dict(seed=-1),
        dict(seed=2**64),
    ],
    ids=["burn_in_eq_iterations", "burn_in_gt_iterations", "thin_0", "seed_neg", "seed_2_64"],
)
def test_chain_settings_rejected(config_class, bad):
    with pytest.raises(DomainError):
        config_class(**bad).validate()


@pytest.mark.parametrize(
    "config_class, name",
    [
        (MsmConfig, "sigma2_beta"),
        (MsmConfig, "a_eta"),
        (MsmConfig, "sigma2_eta_fixed"),
        (FhConfig, "b_sigma"),
        (FhConfig, "sigma2_fixed"),
        (MixtureConfig, "sigma2_beta"),
        (MixtureConfig, "a_alpha"),
        (MixtureConfig, "alpha_fixed"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_settings_rejected(config_class, name, value):
    with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
        config_class(**{name: value}).validate()


def test_table_builds_each_config_through_cli(tmp_path):
    config = read_config(write_csv(tmp_path / "c.cfg", "truncation_m = 7\na_sigma = 0.3\n"))
    expected = {
        "msm": (MsmConfig, 5000, 1000),
        "msmm": (MixtureConfig, 10000, 5000),
        "fh": (FhConfig, 5000, 1000),
    }
    built = {name: _model_config(config, model) for name, model in MODELS.items()}
    assert {
        name: (type(cfg), cfg.iterations, cfg.burn_in) for name, cfg in built.items()
    } == expected
    # a shared config key reaches only the class that has the field
    assert built["msmm"].truncation_m == 7
    assert built["fh"].a_sigma == 0.3
    assert not hasattr(built["msm"], "truncation_m")
    assert not hasattr(built["msm"], "a_sigma")


def test_explicit_iterations_override_table_defaults(tmp_path):
    config = read_config(write_csv(tmp_path / "c.cfg", "iterations = 90\nburn_in = 30\n"))
    for model in MODELS.values():
        cfg = _model_config(config, model)
        assert (cfg.iterations, cfg.burn_in) == (90, 30)


def test_config_classes_agree_on_shared_defaults():
    # one config key feeds every model whose config class has the field
    defaults: dict[str, set] = {}
    for model in MODELS.values():
        for f in fields(model.config_class):
            defaults.setdefault(f.name, set()).add((f.type, f.default))
    assert {name: seen for name, seen in defaults.items() if len(seen) > 1} == {}


SAMPLERS = [
    (msm, "fit_msm", MsmConfig, True),
    (fh, "fit_fh", FhConfig, False),
    (mixture, "fit_msmm_truncated", MixtureConfig, True),
    (mixture, "fit_msmm_dp", MixtureConfig, True),
]


@pytest.mark.parametrize(
    "module, name, config_class, needs_basis", SAMPLERS, ids=[s[1] for s in SAMPLERS]
)
def test_one_inverse_gamma_draw_per_sweep(
    small_inputs, monkeypatch, module, name, config_class, needs_basis
):
    # the benchmark times sweeps by stamping each call of draw_inverse_gamma,
    # as bound in the sampler's own module, so every sampler makes exactly
    # one such call per sweep under its default settings
    study, x, _, basis = small_inputs
    calls: list = []
    real = module.draw_inverse_gamma

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "draw_inverse_gamma", counted)
    config = config_class(iterations=17, burn_in=3, seed=5)
    data = (study.truth.z, study.truth.d, x) + ((basis,) if needs_basis else ())
    getattr(module, name)(*data, config)
    assert len(calls) == config.iterations


def test_shared_sampler_settings_agree_on_defaults():
    # the CLI makes one config key per field name, with the default of the
    # first config class that has it, so every class sharing it must agree
    defaults: dict[str, dict[str, object]] = {}
    for model in MODELS.values():
        for f in fields(model.config_class):
            defaults.setdefault(f.name, {})[model.name] = f.default
    assert len(defaults["sigma2_beta"]) == 3
    disagree = {name: seen for name, seen in defaults.items() if len(set(seen.values())) > 1}
    assert disagree == {}
