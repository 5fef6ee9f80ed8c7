"""The model table: one record per model, read by the CLI and the study.

Adding a model means adding a row here, its config class and sampler,
and its branch where ``cli._fit_one_chain`` and ``simulate._fit_model``
pick the sampler; nothing else dispatches on a model name.  Those two
branches stay, rather than a fit call on ``Model``, because the benchmark
wraps the samplers where ``cli`` and ``simulate`` bind them.  A new
hyperparameter is a field with a default on each config class that uses
it; the CLI makes it a config key, one key for every class sharing it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fh import FhConfig
from .mixture import MixtureConfig
from .msm import ChainConfig, MsmConfig

# samplers for msmm: truncated stick-breaking, or the exact Dirichlet process by
# slice sampling; both run the same blocked sweep
MSMM_ALGORITHMS = ("truncated", "dp")


@dataclass(frozen=True)
class Model:
    """What the CLI and the study need to know about one model.

    ``iterations`` and ``burn_in`` are the CLI defaults when the config
    leaves them unset; ``seed_tag`` is the model's component of a study
    fit seed, ``derive_seed(master, replicate, seed_tag)``, so changing
    it changes every study output; ``series`` names the scalar draws the
    fit reports in diagnostics and the draw dump.
    """

    name: str
    config_class: type[ChainConfig]
    iterations: int
    burn_in: int
    seed_tag: int
    needs_basis: bool
    series: tuple[str, ...]

    def scalar_series(self, fit) -> dict[str, np.ndarray]:
        return {name: np.asarray(getattr(fit, name), dtype=float) for name in self.series}


MODELS: dict[str, Model] = {
    model.name: model
    for model in (
        Model("msm", MsmConfig, 5000, 1000, 1, True, ("sigma2_eta",)),
        Model("msmm", MixtureConfig, 10000, 5000, 2, True, ("alpha", "sigma2_eta", "n_clusters")),
        Model("fh", FhConfig, 5000, 1000, 3, False, ("sigma2",)),
    )
}


def check_models(names: Iterable[str], algorithm: str) -> None:
    """Reject model names outside the table or repeated, and an unknown msmm algorithm."""
    names = list(names)
    unknown = [name for name in names if name not in MODELS]
    if unknown:
        raise DomainError(f"unknown models {unknown}; known: {'|'.join(MODELS)}")
    if len(set(names)) != len(names):
        raise DomainError(f"models listed more than once: {names}")
    if algorithm not in MSMM_ALGORITHMS:
        raise DomainError(f"algorithm must be one of {'|'.join(MSMM_ALGORITHMS)}, got {algorithm!r}")
