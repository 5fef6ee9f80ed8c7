"""Ingest a tabulation CSV, repair its variances, and return to counts.

A synthetic 4x4-county tabulation with three cells per county is written
to disk, read back through the normal ingest path, moved to the log
scale, and its unusable variances (the zero-count rows) are filled by
smoothing.  At the end the inverse transform is applied to point masses
to show the count scale is recovered exactly.
"""

import tempfile
from pathlib import Path

import numpy as np

from areamix import back_transform, gvf_impute, load_tabulation, log_transform
from areamix.synthetic import study_table, two_field_study

study = two_field_study(4, 4, 3, seed=3)
table = study_table(study, seed=9)

with tempfile.TemporaryDirectory(prefix="areamix_demo_") as workdir:
    csv_path = Path(workdir) / "tabulation.csv"
    # sample sizes let the smoother key on log(n) instead of the estimate itself
    rng = np.random.default_rng(4)
    sizes = rng.integers(30, 900, size=table.n_rows)
    lines = ["state,county,order,count,std_err,sample_size"]
    for row, (area, cell) in enumerate(table.keys()):
        lines.append(
            f"{area[:2]},{area[2:]},{cell},{table.estimates[row]},{table.std_errors[row]},{sizes[row]}"
        )
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {csv_path} ({len(lines) - 1} rows)")

    loaded = load_tabulation(csv_path)
log_table = log_transform(loaded)
undefined = np.flatnonzero(~np.isfinite(log_table.d))
print(f"{undefined.size} rows have no usable sampling variance:")
for row in undefined:
    area, cell = loaded.keys()[row]
    print(f"  area {area} cell {cell}: count {loaded.estimates[row]:.0f}")

# zero counts mean zero delta-method variance, which the model cannot use;
# the smoother borrows a value from rows of similar size
filled = gvf_impute(log_table)
print("imputed log-scale variances (smoothed against log sample size):")
for row in undefined:
    print(f"  row {row}: n = {loaded.sample_sizes[row]:>3.0f}  d = {filled.d[row]:.4f}")
print(f"defined variances untouched: {np.array_equal(filled.d[np.isfinite(log_table.d)], log_table.d[np.isfinite(log_table.d)])}")

# the inverse transform snaps point masses back to exact integers
counts = np.array([0.0, 1.0, 17.0, 325.0, 40000.0])
summary = back_transform(np.log1p(counts)[None, :])
print("round trip on point masses:", summary.mean, "sd", summary.sd)
assert np.array_equal(summary.mean, counts)

# with genuine posterior spread the count-scale CV is reported per entry
draws = np.log1p(np.array([[100.0, 220.0], [110.0, 180.0], [90.0, 205.0]]))
summary = back_transform(draws)
for j in range(2):
    print(
        f"entry {j}: mean {summary.mean[j]:8.2f}  sd {summary.sd[j]:6.2f}  cv {summary.cv[j]:.3f}"
    )
