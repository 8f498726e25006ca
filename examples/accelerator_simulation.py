"""Simulate the Gen-NeRF accelerator on the paper's typical workload.

Reproduces the headline hardware story in one script: the delivered
(pruned, Ray-Mixer, coarse-then-focus) model rendering 800x800 frames
from 6 source views on

* the Gen-NeRF accelerator (cycle-level simulator; paper: 24.9 FPS),
* an RTX 2080Ti and a Jetson TX2 (calibrated roofline models), and
* the Fig. 12 dataflow/storage ablation variants.

Also prints the Table 1 area/power budget and the prefetch traffic the
greedy 3D-point-patch partition achieves, then demonstrates the batched
``simulate_frame`` fast path directly: one frame plan reused across a
workload sweep (the ``plan=`` argument) and the speedup over the
preserved per-patch seed loop.
"""

import time

from repro.core import (CoDesignPipeline, dataflow_ablation, format_table,
                        get_experiment, hardware_rig)
from repro.hardware import GenNerfAccelerator
from repro.models.workload import typical_workload
from repro.perf.reference import simulate_frame_loop
from repro.scenes.datasets import DATASETS


def batched_simulation_demo() -> None:
    """Drive the batched ``simulate_frame`` directly (no pipeline glue).

    The whole frame is evaluated as one grouped array pass; scheduling
    is paid once and the resulting plan is shared across a point-budget
    sweep and with the seed per-patch loop (which stays bit-identical —
    the equivalence suite pins every output field).
    """
    spec = DATASETS["nerf_synthetic"]
    rig = hardware_rig(spec, num_views=6, seed=0)
    workload = typical_workload(spec.height, spec.width, num_views=6)
    accelerator = GenNerfAccelerator()

    start = time.perf_counter()
    plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                  rig.far, workload)
    plan_s = time.perf_counter() - start
    print(f"greedy plan: {plan.num_patches} patches, "
          f"{plan.total_prefetch_bytes / 1e6:.0f} MB prefetch "
          f"({plan_s * 1e3:.0f} ms to schedule)")

    rows = []
    for points in (128, 96, 64):
        sweep_load = typical_workload(spec.height, spec.width, num_views=6,
                                      points_per_ray=points)
        sim = accelerator.simulate_frame(sweep_load, rig.novel, rig.sources,
                                         rig.near, rig.far, plan=plan)
        rows.append([points, f"{sim.fps:.1f}",
                     f"{sim.compute_time_s * 1e3:.1f}",
                     f"{sim.data_time_s * 1e3:.2f}",
                     f"{sim.pe_utilization:.2f}"])
    print(format_table(
        ["points/ray", "FPS", "compute ms", "exposed data ms", "PE util"],
        rows, title="one plan, three workloads (plan= reuse)"))

    start = time.perf_counter()
    fast = accelerator.simulate_frame(workload, rig.novel, rig.sources,
                                      rig.near, rig.far, plan=plan)
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    loop = simulate_frame_loop(accelerator, workload, rig.novel,
                               rig.sources, rig.near, rig.far, plan=plan)
    loop_s = time.perf_counter() - start
    assert fast.total_time_s == loop.total_time_s   # bit-identical
    print(f"batched frame simulation: {fast_s * 1e3:.0f} ms vs "
          f"{loop_s * 1e3:.0f} ms seed per-patch loop "
          f"({loop_s / max(fast_s, 1e-9):.1f}x), outputs bit-identical")


def main() -> None:
    print("=== Gen-NeRF accelerator simulation ===\n")
    print(format_table(
        ["module", "area mm^2", "paper", "power mW", "paper"],
        get_experiment("table1").run().rows,
        title="Table 1 — area & power (28 nm @ 1 GHz)"))

    pipeline = CoDesignPipeline()
    rows = []
    for dataset in ("deepvoxels", "nerf_synthetic", "llff"):
        result = pipeline.fps_comparison(dataset)
        rows.append([dataset, result["gen_nerf_fps"],
                     result["rtx2080ti_fps"], result["tx2_fps"],
                     f"{result['speedup_vs_2080ti']:.0f}x",
                     f"{result['speedup_vs_tx2']:.0f}x"])
    print()
    print(format_table(
        ["dataset", "Gen-NeRF FPS", "2080Ti FPS", "TX2 FPS",
         "speedup vs 2080Ti", "vs TX2"],
        rows, title="Fig. 10 — throughput (paper: 239-256x vs 2080Ti)"))

    sim = pipeline.simulate_accelerator("nerf_synthetic")
    print(f"\ntypical workload detail: {sim.fps:.1f} FPS, "
          f"{sim.num_patches} patches, "
          f"{sim.prefetch_bytes / 1e6:.0f} MB prefetch traffic, "
          f"PE utilization {sim.pe_utilization:.2f}, "
          f"exposed data latency {sim.data_time_s * 1e3:.2f} ms "
          f"(scheduler hidden: {sim.scheduler_hidden})")

    print()
    rows = []
    for name, result in dataflow_ablation("nerf_synthetic", 6).items():
        rows.append([name, f"{result.fps:.1f}",
                     f"{result.fetch_time_s * 1e3:.0f}",
                     f"{result.compute_time_s * 1e3:.0f}",
                     f"{result.pe_utilization:.2f}"])
    print(format_table(
        ["variant", "FPS", "data ms", "compute ms", "PE util"],
        rows, title="Fig. 12 — dataflow/storage ablation (6 views)"))

    print("\n=== batched simulate_frame demo ===\n")
    batched_simulation_demo()


if __name__ == "__main__":
    main()
