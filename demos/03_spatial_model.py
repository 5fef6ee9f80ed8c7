"""Fit the reduced-rank spatial model and read its convergence report.

One smooth field over a 5x5 county grid, two table cells per county.
Two independent chains are run from different seeds so the scale
reduction factor means something, the chains are pooled for prediction,
and the model's count-scale coefficients of variation are compared with
the direct estimates' to show the precision gain.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from areamix import (
    MsmConfig,
    build_adjacency,
    build_basis,
    build_design,
    diagnostics_report,
    fit_msm,
    predict_summaries,
)
from areamix.synthetic import grid_graph

areas, edges = grid_graph(5, 5)
m, n_cells = len(areas), 2
n = m * n_cells
rng = np.random.default_rng(42)
population = {area: float(rng.integers(2000, 80000)) for area in areas}
x, _ = build_design(SimpleNamespace(areas=tuple(areas), n_cells=n_cells), population)

# one shared field: a north-south gradient plus a log-population effect
rows = np.repeat(np.arange(m) // 5, n_cells)
truth = 3.0 + 0.8 * (rows / 4.0) + 0.3 * (x[:, 1] - x[:, 1].mean()) - 0.2 * (np.arange(n) % 2)
d = rng.uniform(0.05, 0.25, size=n)
z = truth + rng.normal(0.0, np.sqrt(d))

# the area adjacency: L = n / m = 2 cells per area, read from the shapes
basis = build_basis(x, build_adjacency(areas, edges), fraction=0.5)
config = MsmConfig(iterations=4000, burn_in=1000, seed=1)
chains = [fit_msm(z, d, x, basis, replace(config, seed=s)) for s in (1, 2)]

report = diagnostics_report(
    {
        "sigma2_eta": [fit.sigma2_eta for fit in chains],
        "beta_logpop": [fit.beta[:, 1] for fit in chains],
        "y_0": [fit.y[:, 0] for fit in chains],
    }
)
print("parameter      psrf     ess/chain      geweke z")
for name, entry in report.items():
    ess = ", ".join(f"{e:.0f}" for e in entry["ess"])
    zs = ", ".join(f"{v:+.2f}" for v in entry["geweke_z"])
    print(f"{name:12s}  {entry['psrf']:.4f}   {ess:>12s}   {zs}")

# the chains pool inside predict_summaries, one block of entries at a time
summary = predict_summaries(chains)

# direct CV versus model CV, the whole point of borrowing strength
direct_est = np.expm1(z)
direct_cv = np.where(direct_est > 0, np.sqrt(d) * (direct_est + 1.0) / direct_est, np.nan)
model_cv = summary.count.cv
usable = np.isfinite(direct_cv) & np.isfinite(model_cv)
reduction = 1.0 - model_cv[usable] / direct_cv[usable]
print(f"\nmedian direct CV {np.nanmedian(direct_cv):.3f} -> model CV {np.nanmedian(model_cv):.3f}")
print(f"median CV reduction: {100 * np.median(reduction):.0f}%")
print(f"prediction RMSE vs truth: {np.sqrt(np.mean((summary.log_mean - truth) ** 2)):.3f}")
print(f"direct RMSE vs truth:     {np.sqrt(np.mean((z - truth) ** 2)):.3f}")
