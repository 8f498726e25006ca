"""The benchmark's one command.

    python3 perfbench/run.py --workload serve|train|simulate --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout.  It starts the workload in fresh
Python processes (``perfbench/workloads.py``) with BLAS pinned to one
thread and every ``REPRO_*`` knob unset, so the program runs at its
defaults.  ``--trace 0`` runs the workload once, sets it up twice more
in further processes, and reports the end-to-end metrics with set-up
time as the median of the three.  ``--trace 1`` runs it once untraced
and once traced, and reports the per-layer metrics of the traced run
and the tracing overhead.  The spans of the traced run are written to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 175.0
SETUP_SAMPLES = 3
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, mode: str, deadline: float, trace_out: str = None) -> dict:
    """Run one workload process to its end; returns its JSON result."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
    if trace_out:
        command += ["--trace-out", trace_out]
    command += ["--spawned-at", repr(time.monotonic())]
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process of {args.workload} exited with "
                           f"{completed.returncode}")
    return json.loads(lines[-1])


def report(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {item["name"] for item in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    timed = spawn(args, "timed", deadline)
    print(f"host: {json.dumps(timed['fingerprint'])}")
    print(f"{args.workload} seed={args.seed}: {timed['rounds']} rounds, "
          f"{timed['latency_samples']} latency samples, "
          f"{timed['beyond_p95']} beyond p95")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_out = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        traced = spawn(args, "traced", deadline, trace_out)
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            traced["measured_s"] / timed["measured_s"] - 1.0)
        metrics = {item["name"]: layers[item["name"]]
                   for item in spec["per_layer"]}
        units = {item["name"]: item["unit"] for item in spec["per_layer"]}
        result = traced
        correct = timed["correct"] and traced["correct"]
        print(f"spans: {os.path.relpath(trace_out, ROOT)}")
    else:
        setups = [timed["metrics"]["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, "setup", deadline)["setup_s"])
        values = dict(timed["metrics"], setup_s=statistics.median(setups))
        metrics = {item["name"]: values[item["name"]]
                   for item in spec["end_to_end"]}
        units = {item["name"]: item["unit"] for item in spec["end_to_end"]}
        result = timed
        correct = timed["correct"]
        print("set-up samples (s): "
              + ", ".join(f"{value:.3f}" for value in setups))
    report("metrics:", metrics, units)
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(f"checks: {'passed' if correct else 'FAILED'}")
    for note in timed["notes"] + (traced["notes"] if args.trace else []):
        print(f"  {note}")
    for name in ("failed_requests", "psnr_gain_db"):
        if name in result:
            print(f"{name}: {json.dumps(result[name])}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
