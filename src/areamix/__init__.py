"""Area-level spatial mixture models for survey tabulations.

The package turns a table of direct survey estimates into model-based
small-area predictions:

>>> import areamix as am
>>> table = am.load_tabulation("tabulation.csv")
>>> log_table = am.gvf_impute(am.log_transform(table))
>>> x, _ = am.build_design(log_table, am.read_population_csv("population.csv"))
>>> w = am.build_adjacency(log_table.areas, am.read_edge_list("adjacency.txt"))
>>> basis = am.build_basis(x, w)  # L = n / m cells per area; n x n is L = 1
>>> fit = am.fit_msmm_truncated(log_table.z, log_table.d, x, basis,
...                             am.MixtureConfig(seed=1))
>>> summary = am.predict_summaries(fit)

Submodules group the pieces: ``tabulation`` (ingest and transforms),
``spatial`` (adjacency), ``basis`` (spatial basis), ``msm`` / ``mixture``
/ ``fh`` (samplers), ``models`` (the model table), ``diagnostics``,
``simulate`` (perturbation studies), ``synthetic`` (toy truths), and
``cli``.
"""

from .basis import (
    MoranBasis,
    basis_cache_key,
    basis_precision,
    build_basis,
    load_basis,
    moran_operator,
    save_basis,
    select_basis,
)
from .design import build_design, read_population_csv
from .diagnostics import (
    batch_means_se,
    diagnostics_report,
    effective_sample_size,
    gelman_rubin,
    geweke,
)
from .errors import (
    AreamixError,
    ConfigError,
    DefinitenessError,
    DegenerateChainError,
    DivergenceError,
    DomainError,
    DuplicateKeyError,
    EmptyBasisError,
    InsufficientDataError,
    RankError,
    SchemaError,
    ShapeError,
    UnknownAreaError,
)
from .fh import FhConfig, FhDraws, fit_fh
from .loess import LoessSmoother, loess_fit
from .mixture import (
    BaseMeasure,
    MixtureConfig,
    MixturePosterior,
    MixtureState,
    cluster_posterior,
    crp_assignment_probs,
    crp_simulate,
    fit_msmm_dp,
    fit_msmm_truncated,
    prior_expected_clusters,
    stick_break,
)
from .msm import (
    MsmConfig,
    PosteriorDraws,
    draw_inverse_gamma,
    fit_msm,
)
from .simulate import (
    StudyConfig,
    StudyResult,
    amse,
    mab,
    perturb,
    run_study,
    write_study_csv,
    write_study_summary_csv,
)
from .spatial import (
    build_adjacency,
    connected_components,
    expand_multivariate,
    icar_precision,
    read_edge_list,
)
from .tabulation import (
    CountSummary,
    LogTable,
    PredictionSummary,
    TabulationTable,
    back_transform,
    delta_method_variance,
    gvf_impute,
    load_tabulation,
    log_transform,
    predict_summaries,
    write_prediction_csv,
)
from .util import derive_seed, rand_index

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
