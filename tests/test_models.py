import math

import pytest

from areamix import DomainError, FhConfig, MixtureConfig, MsmConfig
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
