"""Steadiness of the benchmark: run each workload a number of times,
one seed per run, and compare each end-to-end metric's spread with its
bound.

    python3 perfbench/steady.py --runs 10 [--workloads serve train]
        [--first-seed 1] [--seconds S]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (the
inter-quartile distance as a share of the median) and the spread as a
share of the metric's bound in ``BENCHMARK.json``.  It also says
whether the attempted and failed counts repeated exactly and whether
every run's checks passed.  Runs are sequential, never concurrent.
The last line is the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from checks import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  seed {seed}: checks failed\n    "
              + "\n    ".join(lines[:-1]))
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[item["name"] for item in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)

    summary = {}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        rows = {}
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}-"
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s} {'/bound':>7s}")
        for item in spec["end_to_end"]:
            values = [run["metrics"][item["name"]]["value"] for run in runs]
            q1, median, q3, spread = quartile_spread(values)
            share = spread / item["bound"]
            if item["name"] != "setup_s" and share >= 1 / 3:
                steady = False
            rows[item["name"]] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "bound": item["bound"],
                                  "values": values}
            print(f"  {item['name']:18s} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {item['bound']:6.2f} "
                  f"{share:7.3f}")
        attempted = sorted({run["attempted"] for run in runs})
        failed = sorted({run["failed"] for run in runs})
        correct = all(run["correct"] for run in runs)
        print(f"  attempted repeated exactly: {len(attempted) == 1} "
              f"{attempted}; failed repeated exactly: {len(failed) == 1} "
              f"{failed}; checks passed in every run: {correct}")
        summary[workload] = {"metrics": rows, "attempted": attempted,
                             "failed": failed, "correct": correct}
    print(f"every spread below a third of its bound (setup_s excepted): "
          f"{steady}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
