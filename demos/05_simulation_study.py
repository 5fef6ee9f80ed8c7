"""Score the models against each other on perturb-and-refit replicates.

Every replicate adds fresh noise at the true sampling variances, refits
each model, and scores median absolute bias and average mean squared
error of the log-scale predictions against the noise-free truth.  The
area-effect baseline is fit first on one replicate to show what it
estimates; the study then runs all replicates in two worker processes
(results are identical to a serial run).
"""

import numpy as np

from areamix import (
    FhConfig,
    MixtureConfig,
    StudyConfig,
    build_adjacency,
    build_basis,
    fit_fh,
    perturb,
    run_study,
)
from areamix.synthetic import two_field_study

study = two_field_study(6, 6, 4, seed=8)
n = study.truth.n_rows
log_pop = np.log([study.population[area] for area in study.areas])
x = np.column_stack([np.ones(n), np.repeat(log_pop, study.n_cells)])
basis = build_basis(x, build_adjacency(study.areas, study.edges), r=10)

# the classical baseline: independent area effects, no spatial borrowing
rng = np.random.default_rng(0)
z_rep = perturb(study.truth.z, study.truth.d, rng)
fh = fit_fh(z_rep, study.truth.d, x, FhConfig(iterations=2000, burn_in=500, seed=1))
print("area-effect baseline on one replicate:")
print(f"  beta: {np.round(fh.beta.mean(axis=0), 3)}")
print(f"  posterior mean effect variance: {fh.sigma2.mean():.3f}")

config = StudyConfig(
    replicates=12,
    master_seed=99,
    models=("msmm", "fh"),
    msmm=MixtureConfig(iterations=1200, burn_in=400),
    fh=FhConfig(iterations=1200, burn_in=400),
    workers=2,
    reference_groups=study.groups,
)
result = run_study(study.truth, x, basis, config)

print(f"\n{config.replicates} replicates, mean perturbation variance {study.truth.d.mean():.3f}")
print("model   median mab   median amse")
for model in result.models:
    mab = np.median(result.scores(model, "mab"))
    amse = np.median(result.scores(model, "amse"))
    print(f"{model:6s}  {mab:10.4f}   {amse:11.4f}")
print(f"median Rand index of mixture partitions: {np.median(list(result.rand.values())):.3f}")
if result.divergent:
    print("divergent fits:", result.divergent)

summary = result.summary()
block = summary["msmm"]["amse"]
print(
    f"mixture amse quartiles: {block['q1']:.4f} / {block['median']:.4f} / {block['q3']:.4f}"
)
