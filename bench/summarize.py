"""Run the benchmark over several seeds and write a summary JSON.

    python3 bench/summarize.py --seeds 301-310 --out bench/baseline.json

For every workload, each seed gets one untraced run; the summary keeps
each end-to-end metric's ten values, median, quartiles and quartile
spread as a share of the median (``statistics.quantiles(values, n=4)``).
One traced run on the first seed gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent / "bench.py"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    environment = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["environment"] = environment
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH.parent))
    from bench import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="inclusive range, such as 101-110")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    summary: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        ok = ok and all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced])
        summary["environment"] = runs[0]["environment"]
        summary["workloads"][workload] = {
            "runs_correct": sum(r["correct"] for r in runs),
            "end_to_end": {
                name: dict(spread([r["metrics"][name]["value"] for r in runs]), unit=entry["unit"])
                for name, entry in runs[0]["metrics"].items()
            },
            "per_layer": {name: entry for name, entry in traced["metrics"].items()},
        }
        for name, entry in summary["workloads"][workload]["end_to_end"].items():
            print(f"{workload:18s} {name:18s} median {entry['median']:12.5g} "
                  f"iqr/median {entry['iqr_share']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
