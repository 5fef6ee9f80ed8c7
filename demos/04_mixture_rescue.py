"""Diagnose a shared-field failure and fix it with the mixture model.

The data here violate the single-field assumption on purpose: half the
table cells follow a steep west-east field at a high level, the other
half a gentler north-south field near zero.  A single spatial model must
compromise between the two patterns, and its errors split cleanly by
group.  Letting the process mix over latent clusters repairs the fit and
recovers the generating split without being told it exists.
"""

import numpy as np

from areamix import (
    MixtureConfig,
    MsmConfig,
    build_adjacency,
    build_basis,
    fit_msm,
    fit_msmm_truncated,
    perturb,
)
from areamix.synthetic import two_field_study
from areamix.util import rand_index

study = two_field_study(6, 6, 4, seed=2)
n = study.truth.n_rows
log_pop = np.log([study.population[area] for area in study.areas])
x = np.column_stack([np.ones(n), np.repeat(log_pop, study.n_cells)])
basis = build_basis(x, build_adjacency(study.areas, study.edges), r=10)

rng = np.random.default_rng(5)
z = perturb(study.truth.z, study.truth.d, rng)
d = study.truth.d

single = fit_msm(z, d, x, basis, MsmConfig(iterations=3000, burn_in=1000, seed=1))
err = single.y.mean(axis=0) - study.truth.z
print("single shared field:")
for g in (0, 1):
    sel = study.groups == g
    print(
        f"  group {g}: mean error {err[sel].mean():+.3f}, "
        f"rmse {np.sqrt(np.mean(err[sel] ** 2)):.3f}"
    )
print(f"  overall rmse vs truth: {np.sqrt(np.mean(err ** 2)):.3f}")
# the compromise shows up as opposite-signed group biases: the fitted
# field is pulled below one regime and above the other

mixture = fit_msmm_truncated(
    z, d, x, basis, MixtureConfig(iterations=3000, burn_in=1000, seed=1)
)
ks, counts = np.unique(mixture.n_clusters, return_counts=True)
print("\nmixture over latent clusters:")
print("  posterior on cluster count:", {int(k): int(c) for k, c in zip(ks, counts)})
print(f"  posterior mean alpha: {mixture.alpha.mean():.2f}")

rand = np.mean(
    [rand_index(mixture.assignments[t], study.groups) for t in range(mixture.n_retained)]
)
print(f"  mean Rand index vs generating split: {rand:.3f}")

err_mix = mixture.y.mean(axis=0) - study.truth.z
for g in (0, 1):
    sel = study.groups == g
    print(
        f"  group {g}: mean error {err_mix[sel].mean():+.3f}, "
        f"rmse {np.sqrt(np.mean(err_mix[sel] ** 2)):.3f}"
    )
print(f"  overall rmse vs truth: {np.sqrt(np.mean(err_mix ** 2)):.3f}")
