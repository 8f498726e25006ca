"""Gen-NeRF training-step time at the ``train`` workload's shape with the
footprint-restricted encode on and forced off.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/footprint_ab.py \
        [--seed 1] [--steps 64]

Two trainers share one ``SceneData`` and alternate steps, so host drift
hits both alike; both follow the same byte-identical trajectory, which
the script checks.  Prints the median step time of each with quartiles.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro import models as M

from workloads import Train


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--steps", type=int, default=64)
    args = parser.parse_args(argv)

    shape = Train(args.seed)
    shape.variants = ()
    shape.setup()
    trainers = {flag: M.Trainer(shape.build("gen_nerf"), [shape.data],
                                shape.config(), footprint=flag)
                for flag in (True, False)}
    times = {True: [], False: []}
    for step in range(args.steps):
        for flag in ((True, False) if step % 2 else (False, True)):
            started = time.perf_counter()
            trainers[flag].step()
            times[flag].append(time.perf_counter() - started)
    for flag, label in ((True, "footprint on"), (False, "forced off")):
        q1, median, q3 = statistics.quantiles(times[flag], n=4)
        print(f"{label:13s} median {median * 1e3:7.2f} ms "
              f"(quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms) over "
              f"{args.steps} steps; encodes {trainers[flag].footprint_stats}")
    same = trainers[True].history == trainers[False].history
    print(f"losses identical: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
