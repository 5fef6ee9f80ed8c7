"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single verdict line (visible under ``pytest -s`` or in
the captured output of a failure), so a run of this module doubles as the
acceptance report.  Tolerances and problem sizes are part of the contract;
do not loosen them to make a failing build pass.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from areamix import (
    BaseMeasure,
    FhConfig,
    MixtureConfig,
    MsmConfig,
    StudyConfig,
    batch_means_se,
    build_adjacency,
    build_basis,
    build_design,
    crp_simulate,
    delta_method_variance,
    expand_multivariate,
    fit_fh,
    fit_msm,
    fit_msmm_dp,
    fit_msmm_truncated,
    geweke,
    gelman_rubin,
    gvf_impute,
    icar_precision,
    perturb,
    run_study,
)
from areamix.cli import main
from areamix.synthetic import grid_graph, two_field_study
from areamix.tabulation import LogTable, back_transform

from collapsed_reference import crp_assignment_probs, prior_covariance, prior_expected_clusters
from conftest import entry_psi, random_connected_adjacency
from test_loess import wls_oracle
from test_msm import joint_gaussian_condition


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "pass" if ok else "FAIL"
    line = f"acceptance {num:02d} {status} - {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid_study():
    """6x6 grid, four cells, two spatial regimes; shared by the slow checks.

    The design holds intercept and log population only.  Per-cell dummy
    columns would let a single atom absorb the between-group level gap
    (the groups are cell-aligned), hiding the very split being recovered.
    """
    study = two_field_study(6, 6, 4, seed=11)
    log_pop = np.log([study.population[area] for area in study.areas])
    x = np.column_stack(
        [np.ones(study.truth.n_rows), np.repeat(log_pop, study.n_cells)]
    )
    a = expand_multivariate(build_adjacency(study.areas, study.edges), study.n_cells)
    basis = build_basis(x, a, r=10)
    return study, x, basis


def _three_mcse_gap(theta, mean_exact, cov_exact):
    """Worst |error| / (3 mcse) over posterior means and covariance entries."""
    worst = 0.0
    q = theta.shape[1]
    for j in range(q):
        se = batch_means_se(theta[:, j])
        worst = max(worst, abs(theta[:, j].mean() - mean_exact[j]) / (3.0 * se))
    centered = theta - mean_exact  # exact-mean centering keeps the oracle clean
    for j in range(q):
        for l in range(j, q):
            prod = centered[:, j] * centered[:, l]
            se = batch_means_se(prod)
            worst = max(worst, abs(prod.mean() - cov_exact[j, l]) / (3.0 * se))
    return worst


def test_01_msm_conjugacy():
    start = time.monotonic()
    areas, edges = grid_graph(2, 4)
    a = build_adjacency(areas, edges)
    rng = np.random.default_rng(101)
    population = {area: float(rng.integers(500, 5000)) for area in areas}
    x, _ = build_design(SimpleNamespace(areas=tuple(areas), n_cells=1), population)
    basis = build_basis(x, a, r=2)

    n = 8
    z = rng.normal(1.0, 1.0, size=n)
    d = rng.uniform(0.2, 0.5, size=n)
    sigma2_beta, sigma2_eta = 10.0, 0.7
    config = MsmConfig(
        iterations=24000,
        burn_in=4000,
        seed=31,
        sigma2_beta=sigma2_beta,
        sigma2_eta_fixed=sigma2_eta,
    )
    draws = fit_msm(z, d, x, basis, config)
    theta = np.hstack([draws.beta, draws.eta])
    assert theta.shape == (20000, 4)

    prior_cov = np.zeros((4, 4))
    prior_cov[:2, :2] = sigma2_beta * np.eye(2)
    prior_cov[2:, 2:] = sigma2_eta * np.linalg.inv(basis.k_inv)
    mean_exact, cov_exact = joint_gaussian_condition(prior_cov, np.hstack([x, entry_psi(basis)]), d, z)

    worst = _three_mcse_gap(theta, mean_exact, cov_exact)
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "spatial model Gibbs matches the closed-form Gaussian posterior",
        worst < 1.0 and elapsed < 60.0,
        f"worst error {worst:.2f} of the 3-mcse budget, {elapsed:.1f}s",
    )


def test_02_fh_conjugacy():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    n = 10
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    z = rng.normal(2.0, 1.0, size=n)
    d = rng.uniform(0.2, 0.6, size=n)
    sigma2_beta, sigma2 = 10.0, 0.5
    config = FhConfig(
        iterations=24000, burn_in=4000, seed=32, sigma2_beta=sigma2_beta, sigma2_fixed=sigma2
    )
    draws = fit_fh(z, d, x, config)
    theta = np.hstack([draws.beta, draws.nu])
    assert theta.shape == (20000, 12)

    prior_cov = np.zeros((12, 12))
    prior_cov[:2, :2] = sigma2_beta * np.eye(2)
    prior_cov[2:, 2:] = sigma2 * np.eye(n)
    mean_exact, cov_exact = joint_gaussian_condition(prior_cov, np.hstack([x, np.eye(n)]), d, z)

    worst = _three_mcse_gap(theta, mean_exact, cov_exact)
    elapsed = time.monotonic() - start
    _verdict(
        2,
        "area-effect model Gibbs matches the closed-form Gaussian posterior",
        worst < 1.0 and elapsed < 60.0,
        f"worst error {worst:.2f} of the 3-mcse budget, {elapsed:.1f}s",
    )


def test_03_basis_correctness():
    rng = np.random.default_rng(303)
    rng_perturb = np.random.default_rng(304)
    worst_design = worst_orth = 0.0
    min_eig = np.inf
    optimal = True
    for _ in range(20):
        m = int(rng.integers(6, 16))
        n_cells = int(rng.integers(1, 4))
        a = expand_multivariate(random_connected_adjacency(m, rng), n_cells)
        x = np.ones((a.shape[0], 1))
        q = icar_precision(a)
        basis = build_basis(x, a, fraction=0.5)
        psi = entry_psi(basis)

        worst_design = max(worst_design, float(np.max(np.abs(psi.T @ x))))
        worst_orth = max(
            worst_orth,
            float(np.max(np.abs(psi.T @ psi - np.eye(basis.r)))),
        )
        min_eig = min(min_eig, float(np.linalg.eigvalsh(basis.k_inv).min()))

        target = np.linalg.norm(q - psi @ basis.k_inv @ psi.T, ord="fro")
        for _ in range(50):
            e = rng_perturb.normal(size=basis.k_inv.shape)
            e = (e + e.T) / 2.0
            e *= 0.01 / np.linalg.norm(e, ord="fro")
            moved = np.linalg.norm(q - psi @ (basis.k_inv + e) @ psi.T, ord="fro")
            optimal &= moved >= target

    ok = worst_design < 1e-8 and worst_orth < 1e-8 and min_eig > 0 and optimal
    _verdict(
        3,
        "basis is design-orthogonal, orthonormal, positive, Frobenius-optimal",
        ok,
        f"|psi'x| {worst_design:.1e}, orth {worst_orth:.1e}, min eig {min_eig:.2e}",
    )


def test_04_crp_cluster_law():
    rng = np.random.default_rng(404)
    ok = True
    details = []
    for alpha, n in ((0.5, 50), (1.0, 100), (2.0, 200)):
        counts = np.empty(10000)
        for s in range(10000):
            counts[s] = crp_simulate(alpha, n, rng).max() + 1
        law = prior_expected_clusters(alpha, n)
        rel = abs(counts.mean() - law) / law
        ok &= rel < 0.05
        details.append(f"a={alpha} n={n} rel {rel:.3f}")
        if n == 200:
            asym = alpha * math.log(n)
            rel_asym = abs(counts.mean() - asym) / asym
            ok &= rel_asym < 0.15
            details.append(f"log-growth rel {rel_asym:.3f}")
    _verdict(4, "prior cluster counts follow the seating law", ok, "; ".join(details))


def _set_partitions(n: int):
    """All set partitions of range(n) as lists of index lists."""
    if n == 0:
        yield []
        return
    for rest in _set_partitions(n - 1):
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1 :]
        yield rest + [[n - 1]]


def _log_evidence(z, d, u, members, base) -> float:
    rows = u[members]
    cov = rows @ prior_covariance(base) @ rows.T + np.diag(d[members])
    return float(
        stats.multivariate_normal(mean=np.zeros(len(members)), cov=cov).logpdf(z[members])
    )


def _brute_force_probs(i, parts, z, d, u, alpha, base) -> np.ndarray:
    """Assignment distribution from full joint evidence over each option."""
    logw = []
    for opt in range(len(parts) + 1):
        groups = [list(g) for g in parts]
        if opt == len(parts):
            groups.append([i])
        else:
            groups[opt].append(i)
        lw = len(groups) * math.log(alpha)
        lw += sum(math.lgamma(len(g)) for g in groups)
        lw += sum(_log_evidence(z, d, u, g, base) for g in groups)
        logw.append(lw)
    logw = np.asarray(logw)
    w = np.exp(logw - logsumexp(logw))
    return w / w.sum()


def test_05_assignment_probability_oracle():
    dims = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]
    alpha = 0.8
    max_diff = 0.0
    checked = 0
    for n in range(1, 7):
        for p, r in dims:
            rng = np.random.default_rng(505 + 100 * n + 10 * p + r)
            u = rng.normal(size=(n, p + r))
            z = rng.normal(size=n)
            d = rng.uniform(0.3, 1.2, size=n)
            if r:
                half = rng.normal(size=(r, r))
                k = half @ half.T + r * np.eye(r)
                k_inv = np.linalg.inv(k)
            else:
                k = np.zeros((0, 0))
                k_inv = np.zeros((0, 0))
            base = BaseMeasure(p=p, sigma2_beta=2.0, sigma2_eta=0.9, k_inv=k_inv)
            held_out = n - 1
            for parts in _set_partitions(n - 1):
                assign = np.full(n, -1, dtype=int)
                for label, members in enumerate(parts):
                    assign[members] = label
                labels, probs = crp_assignment_probs(held_out, assign, alpha, z, d, u, base)
                assert labels == list(range(len(parts)))
                brute = _brute_force_probs(held_out, parts, z, d, u, alpha, base)
                max_diff = max(max_diff, float(np.max(np.abs(probs - brute))))
                checked += 1
    _verdict(
        5,
        "assignment probabilities equal brute-force evidence ratios",
        max_diff < 1e-10,
        f"{checked} partitions, max |diff| {max_diff:.1e}",
    )


def test_06_two_field_recovery(grid_study):
    start = time.monotonic()
    study, x, basis = grid_study
    config = StudyConfig(
        replicates=30,
        master_seed=2026,
        models=("msmm", "fh"),
        msmm=MixtureConfig(iterations=1500, burn_in=500),
        fh=FhConfig(iterations=1500, burn_in=500),
        workers=2,
        reference_groups=study.groups,
    )
    result = run_study(study.truth, x, basis, config)
    elapsed = time.monotonic() - start

    med_msmm = float(np.median(result.scores("msmm", "amse")))
    med_fh = float(np.median(result.scores("fh", "amse")))
    mean_d = float(study.truth.d.mean())
    rand_med = float(np.median(list(result.rand.values())))
    ok = (
        not result.divergent
        and len(result.rand) == 30
        and med_msmm < med_fh < mean_d
        and rand_med > 0.8
        and elapsed < 1800.0
    )
    _verdict(
        6,
        "mixture beats the single-effect baseline and recovers the split",
        ok,
        f"amse {med_msmm:.3f} < {med_fh:.3f} < {mean_d:.3f}, rand {rand_med:.2f}, {elapsed:.0f}s",
    )


def test_07_dp_truncation_agreement(grid_study):
    study, x, basis = grid_study
    rng = np.random.default_rng(707)
    z_rep = perturb(study.truth.z, study.truth.d, rng)
    config = MixtureConfig(iterations=4000, burn_in=1000, truncation_m=25, seed=17)
    fit_dp = fit_msmm_dp(z_rep, study.truth.d, x, basis, config)
    fit_tr = fit_msmm_truncated(z_rep, study.truth.d, x, basis, replace(config, seed=18))
    gap = float(np.max(np.abs(fit_dp.y.mean(axis=0) - fit_tr.y.mean(axis=0))))
    _verdict(
        7,
        "slice and truncated samplers agree on posterior means",
        gap < 0.1,
        f"max |mean diff| {gap:.3f}",
    )


def test_08_diagnostics_calibration():
    rng = np.random.default_rng(808)
    n = 2000
    z_scores = np.array([geweke(rng.normal(size=n)) for _ in range(500)])
    frac_ok = float(np.mean(np.abs(z_scores) < 3.0))

    psrf_max = max(
        gelman_rubin([rng.normal(size=n), rng.normal(size=n)]) for _ in range(100)
    )

    drifted = rng.normal(size=n) + np.linspace(0.0, 5.0, n)
    drift_z = abs(geweke(drifted))

    separated = gelman_rubin([rng.normal(0.0, 1.0, size=1000), rng.normal(10.0, 1.0, size=1000)])

    ok = frac_ok >= 0.99 and psrf_max < 1.05 and drift_z > 5.0 and separated > 2.0
    _verdict(
        8,
        "stationary chains pass and constructed failures are flagged",
        ok,
        f"geweke ok {frac_ok:.1%}, psrf max {psrf_max:.3f}, "
        f"drift z {drift_z:.1f}, split psrf {separated:.1f}",
    )


def test_09_determinism(grid_study, fixture10, tmp_path):
    study, x, basis = grid_study
    z, d = study.truth.z, study.truth.d

    msm_cfg = MsmConfig(iterations=400, burn_in=100, seed=3)
    m1 = fit_msm(z, d, x, basis, msm_cfg)
    m2 = fit_msm(z, d, x, basis, msm_cfg)
    same_msm = all(
        np.array_equal(getattr(m1, name), getattr(m2, name))
        for name in ("beta", "eta", "sigma2_eta", "y")
    )

    mix_cfg = MixtureConfig(iterations=200, burn_in=50, seed=4)
    x1 = fit_msmm_dp(z, d, x, basis, mix_cfg)
    x2 = fit_msmm_dp(z, d, x, basis, mix_cfg)
    same_mix = all(
        np.array_equal(getattr(x1, name), getattr(x2, name))
        for name in ("y", "alpha", "sigma2_eta", "n_clusters", "assignments")
    )

    base_study = StudyConfig(
        replicates=6,
        master_seed=9,
        models=("msmm", "fh"),
        msmm=MixtureConfig(iterations=150, burn_in=50),
        fh=FhConfig(iterations=150, burn_in=50),
        reference_groups=study.groups,
    )
    serial = run_study(study.truth, x, basis, replace(base_study, workers=1))
    pooled = run_study(study.truth, x, basis, replace(base_study, workers=2))
    same_study = serial.rows == pooled.rows and serial.rand == pooled.rand

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"tabulation = {fixture10 / 'tabulation.csv'}\n"
        f"adjacency = {fixture10 / 'adjacency.txt'}\n"
        f"population = {fixture10 / 'population.csv'}\n"
        "iterations = 160\nburn_in = 40\nchains = 2\nseed = 7\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fit", str(cfg), "--out", str(out1)]) == 0
    assert main(["fit", str(cfg), "--out", str(out2)]) == 0
    same_cli = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("predictions.csv", "draws.csv", "diagnostics.json")
    )

    ok = same_msm and same_mix and same_study and same_cli
    _verdict(
        9,
        "repeated seeds reproduce fits, parallel studies, and artifacts",
        ok,
        f"msm {same_msm}, mixture {same_mix}, study {same_study}, cli {same_cli}",
    )


def test_10_transform_suite():
    counts = np.arange(0, 10**6 + 1, dtype=float)
    summary = back_transform(np.log1p(counts)[None, :])
    round_trip = np.array_equal(summary.mean, counts) and not summary.sd.any()

    delta_ok = (
        math.isclose(delta_method_variance(325.0, 49.2), 49.2**2 / 326.0**2, rel_tol=1e-14)
        and delta_method_variance(0.0, 0.0) == 0.0
        and math.isclose(
            delta_method_variance(math.e - 1.0, math.e - 1.0),
            (math.e - 1.0) ** 2 / math.e**2,
            rel_tol=1e-14,
        )
    )

    rng = np.random.default_rng(1010)
    n = 40
    sizes = rng.integers(20, 400, size=n).astype(float)
    variance = 2.0 - 0.3 * np.log(sizes) + rng.normal(0.0, 0.02, size=n)
    missing = np.zeros(n, dtype=bool)
    missing[[4, 11, 30]] = True
    d = np.where(missing, np.nan, variance)
    z = rng.normal(3.0, 0.5, size=n)
    table = LogTable(
        areas=tuple(f"19{i:03d}" for i in range(n)),
        n_cells=1,
        z=z,
        d=d,
        estimates=np.expm1(z),
        std_errors=np.sqrt(np.abs(variance)) * (np.expm1(z) + 1.0),
        sample_sizes=sizes,
    )
    filled = gvf_impute(table)
    log_sizes = np.log(sizes)
    defined_x = log_sizes[~missing]
    # the smoother interpolates only: clamp queries into the defined range
    queries = np.clip(log_sizes, defined_x.min(), defined_x.max())
    gvf_gap = max(
        abs(filled.d[i] - wls_oracle(defined_x, d[~missing], 0.75, queries[i]))
        for i in np.flatnonzero(missing)
    )

    ok = round_trip and delta_ok and gvf_gap < 1e-9
    _verdict(
        10,
        "round trip is exact and variance rules match their oracles",
        ok,
        f"gvf oracle gap {gvf_gap:.1e}",
    )
