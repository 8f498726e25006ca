"""Top-level Gen-NeRF accelerator: cycle-level frame simulation.

Composes the pieces of Fig. 7 — workload scheduler, memory controller +
LPDDR4 DRAM, prefetch double buffer, rendering engine (PPU, PE pool,
SFU) — into a per-frame simulation:

1. The scheduler partitions the H x W x D cube into point patches
   (greedy, or Var-1's fixed slicing for the ablation).
2. Each patch's prefetch time comes from the DRAM bank model under the
   configured feature-storage layout (spatial interleaving, or Var-2/3's
   row/view interleaving).
3. Each patch's compute time comes from the rendering engine model; the
   on-chip SRAM balance of the layout throttles the interpolator.
4. The double buffer overlaps fetch i+1 with compute i; the frame time
   is the pipelined fold plus the coarse stage (stage 1 of Sec. 4.5).

Results carry the latency breakdown (data vs compute), PE utilisation
and energy — the quantities in Figs. 10-12 and Tables 1/4.

Steps 2-3 run as one grouped array pass over *all* patches (batched
bank loads -> batched DRAM service -> deduplicated batched engine
compute) rather than a per-patch Python loop; the seed loop survives as
:func:`repro.perf.reference.simulate_frame_loop` and
``tests/hardware/test_accelerator_equivalence.py`` pins the two
bit-identical.  See ``docs/performance.md`` for the conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.camera import Camera
from ..models.workload import RenderWorkload
from .dram import DramConfig, DramModel
from .engine import EngineConfig, RenderingEngine
from .interleave import FeatureStore, balance_factors, batched_bank_load
from .scheduler import (FramePlan, GreedyPatchScheduler, SchedulerConfig,
                        _ordered_sum, fixed_partition)
from .sram import PrefetchDoubleBuffer, SramConfig
from .units import ACCELERATOR_FREQ_HZ, DEFAULT_ENERGY, EnergyTable


@dataclass(frozen=True)
class AcceleratorConfig:
    """The paper's accelerator instance (Sec. 5.1 / Table 4)."""

    name: str = "Gen-NeRF"
    frequency_hz: float = ACCELERATOR_FREQ_HZ
    engine: EngineConfig = EngineConfig()
    dram: DramConfig = DramConfig()
    scheduler: SchedulerConfig = SchedulerConfig()
    feature_layout: str = "spatial_interleaved"
    use_greedy_partition: bool = True
    energy: EnergyTable = DEFAULT_ENERGY

    def variant(self, **changes) -> "AcceleratorConfig":
        """A copy of this config with ``changes`` applied — how the
        Fig. 12 ablation variants are derived (see
        :func:`variant_config`)."""
        return replace(self, **changes)


@dataclass
class FrameSimulation:
    """Outcome of simulating one rendered frame."""

    config_name: str
    total_time_s: float
    data_time_s: float          # exposed (non-hidden) prefetch time
    fetch_time_s: float         # total DRAM prefetch time (hidden or not)
    compute_time_s: float       # rendering-engine busy time
    coarse_time_s: float
    prefetch_bytes: float
    pool_macs: float
    pe_utilization: float
    num_patches: int
    energy_j: float
    scheduler_hidden: bool      # run-time partition kept ahead of engine
    plan: Optional[FramePlan] = None

    @property
    def fps(self) -> float:
        """Frames per second at this frame time (Figs. 10/11, Table 4)."""
        return 0.0 if self.total_time_s <= 0 else 1.0 / self.total_time_s

    @property
    def power_w(self) -> float:
        """Average dynamic power over the frame (event-priced energy)."""
        return 0.0 if self.total_time_s <= 0 else \
            self.energy_j / self.total_time_s


class GenNerfAccelerator:
    """Cycle-level simulator for the Gen-NeRF accelerator and variants."""

    def __init__(self, config: AcceleratorConfig = AcceleratorConfig()):
        self.config = config
        self.engine = RenderingEngine(config.engine)
        self.dram = DramModel(config.dram)
        self.double_buffer = PrefetchDoubleBuffer(
            config.engine.prefetch_sram)

    # ------------------------------------------------------------------
    def _feature_store(self, workload: RenderWorkload,
                       sources: Sequence[Camera]) -> FeatureStore:
        """The DRAM-resident scene-feature geometry for this workload:
        S feature maps at the scheduler's feature scale, laid out under
        the configured interleaving scheme (Sec. 4.4)."""
        scale = self.config.scheduler.feature_scale
        intr = sources[0].intrinsics
        return FeatureStore(
            num_views=len(sources),
            height=max(1, int(round(intr.height * scale))),
            width=max(1, int(round(intr.width * scale))),
            channels=workload.fine_dims.feature_dim,
            bytes_per_element=1,
            layout=self.config.feature_layout)

    def plan_frame(self, novel: Camera, sources: Sequence[Camera],
                   near: float, far: float,
                   workload: RenderWorkload) -> FramePlan:
        """Partition the frame into point patches: the greedy scheduler
        (Sec. 4.3) by default, Var-1's fixed slicing when configured.

        Public so callers can schedule once and feed the resulting plan
        to several ``simulate_frame(..., plan=...)`` calls (workload
        sweeps over one camera rig)."""
        sched_cfg = replace(self.config.scheduler,
                            channels=workload.fine_dims.feature_dim)
        if self.config.use_greedy_partition:
            return GreedyPatchScheduler(sched_cfg).plan_frame(
                novel, sources, near, far)
        return fixed_partition(novel, sources, near, far, sched_cfg)

    # ------------------------------------------------------------------
    def simulate_frame(self, workload: RenderWorkload, novel: Camera,
                       sources: Sequence[Camera], near: float, far: float,
                       keep_plan: bool = False,
                       plan: Optional[FramePlan] = None) -> FrameSimulation:
        """Simulate rendering one frame of ``workload`` from ``novel``.

        The whole frame is evaluated as one grouped array pass — all
        patches' DRAM footprints and SRAM residencies go through the
        batched bank-load / DRAM-service / engine-compute models at
        once instead of a per-patch Python loop (at 800x800 a plan
        holds ~10^4 patches).  Outputs are **bit-identical** to the
        preserved seed loop (:func:`repro.perf.reference.simulate_frame_loop`,
        pinned by ``tests/hardware/test_accelerator_equivalence.py``);
        ``benchmarks/harness.py``'s ``accel_frame_sim`` bench tracks the
        speedup.

        ``plan`` optionally injects a precomputed :class:`FramePlan`
        (e.g. to amortise scheduling across workload sweeps over the
        same camera rig); by default the configured scheduler plans the
        frame first.
        """
        if len(sources) != workload.num_views:
            raise ValueError(f"workload expects {workload.num_views} views, "
                             f"got {len(sources)} cameras")
        cfg = self.config
        freq = cfg.frequency_hz
        if plan is None:
            plan = self.plan_frame(novel, sources, near, far, workload)
        store = self._feature_store(workload, sources)
        # On-chip copy of the layout: the prefetch scratchpads use the
        # same interleaving *scheme* over their own bank count
        # (Sec. 4.5), so the scratchpad reuses the DRAM FeatureStore
        # object — deliberately, not stale aliasing: FeatureStore
        # carries geometry + layout only, while the bank count is a
        # call-site parameter, and the Fig. 12 Var-2/3 ablation measures
        # each storage scheme end to end (DRAM *and* scratchpad).
        # ``tests/hardware/test_accelerator.py`` pins this behaviour.
        sram_banks = cfg.engine.prefetch_sram.num_banks
        sram_store = store

        points_per_cell = workload.fine_points_per_ray / plan.depth_bins
        num_patches = plan.num_patches

        if num_patches:
            (fetch_times, compute_times, pool_macs, pool_busy_cycles,
             dram_energy_pj, sram_bytes, sfu_ops) = self._simulate_patches(
                workload, plan, store, sram_store, sram_banks,
                points_per_cell, freq)
        else:
            fetch_times = np.empty(0)
            compute_times = np.empty(0)
            pool_macs = 0.0
            pool_busy_cycles = 0.0
            dram_energy_pj = 0.0
            sram_bytes = 0.0
            sfu_ops = 0.0

        pipeline_s, engine_busy_s = PrefetchDoubleBuffer.pipeline_time(
            fetch_times, compute_times)

        # Stage 1: the lightweight coarse pass.  It reuses the same patch
        # plan with the coarse model's views/channels; its traffic and
        # compute scale accordingly (Sec. 4.5's two-stage execution).
        coarse_time_s = 0.0
        if workload.coarse_points > 0:
            coarse_points_total = (plan.image_height * plan.image_width
                                   * workload.coarse_points)
            avg_points = max(1, int(round(coarse_points_total
                                          / max(plan.num_patches, 1))))
            compute = self.engine.patch_compute(
                workload, avg_points, num_rays=0, coarse_stage=True)
            coarse_compute_s = compute.cycles * plan.num_patches / freq
            traffic_scale = ((workload.coarse_dims.feature_dim
                              / workload.fine_dims.feature_dim)
                             * (workload.coarse_views
                                / max(workload.num_views, 1)))
            coarse_bytes = plan.total_prefetch_bytes * traffic_scale
            coarse_fetch_s = coarse_bytes / cfg.dram.peak_bandwidth_bytes
            coarse_time_s = max(coarse_compute_s, coarse_fetch_s)
            pool_macs += compute.pool_macs * plan.num_patches
            pool_busy_cycles += compute.cycles * plan.num_patches
            dram_energy_pj += coarse_bytes * cfg.dram.io_pj_per_byte
            sram_bytes += coarse_bytes * 2

        total_time_s = pipeline_s + coarse_time_s
        exposed_data_s = max(0.0, pipeline_s - engine_busy_s)

        # Scheduler run-ahead check: the partition for frame t+1 computes
        # during frame t; hidden iff its cycles fit in the frame time.
        sched = GreedyPatchScheduler(cfg.scheduler)
        sched_cycles = sched.scheduling_cycles(len(sources),
                                               plan.image_height,
                                               plan.image_width)
        scheduler_hidden = (sched_cycles / freq) <= total_time_s

        peak_macs_per_s = cfg.engine.pool.macs_per_cycle * freq
        pe_utilization = pool_macs / max(peak_macs_per_s * total_time_s, 1e-12)

        energy_j = (pool_macs * cfg.energy.mac_int8_pj
                    + sram_bytes * (cfg.energy.sram_read_pj_per_byte
                                    + cfg.energy.sram_write_pj_per_byte) / 2
                    + sfu_ops * cfg.energy.special_func_pj
                    + dram_energy_pj) * 1e-12

        return FrameSimulation(
            config_name=cfg.name,
            total_time_s=total_time_s,
            data_time_s=exposed_data_s,
            fetch_time_s=float(fetch_times.sum()),
            compute_time_s=engine_busy_s,
            coarse_time_s=coarse_time_s,
            prefetch_bytes=plan.total_prefetch_bytes,
            pool_macs=pool_macs,
            pe_utilization=pe_utilization,
            num_patches=plan.num_patches,
            energy_j=energy_j,
            scheduler_hidden=scheduler_hidden,
            plan=plan if keep_plan else None,
        )

    # ------------------------------------------------------------------
    def _simulate_patches(self, workload: RenderWorkload, plan: FramePlan,
                          store: FeatureStore, sram_store: FeatureStore,
                          sram_banks: int, points_per_cell: float,
                          freq: float):
        """The per-patch portion of :meth:`simulate_frame`, batched.

        One grouped array pass replaces
        the seed per-patch loop:

        1. every patch's footprints are concatenated into one (N, 5)
           region array with per-patch segment counts and pushed through
           :func:`repro.hardware.interleave.batched_bank_load` (DRAM
           delta fetches and SRAM residencies alike);
        2. :meth:`repro.hardware.dram.DramModel.service_batch` prices
           all prefetches at once;
        3. patch compute runs through
           :meth:`repro.hardware.engine.RenderingEngine.patch_compute_many`,
           which reproduces the scalar path's memoisation semantics
           exactly (first-occurrence representatives, cache persistence
           across frames) around the array-valued compute formulas.

        Scalar totals reduce with the left-to-right :func:`_ordered_sum`
        over the full per-patch arrays, so every output bit matches the
        seed loop's ``+=`` chain.
        """
        # Both planners (plan_frame and fixed_partition) build
        # struct-of-arrays plans, which feed the batched bank loads with
        # no per-patch object walk at all; object-built plans (the seed
        # planners in repro.perf.reference) pack lazily through
        # ``plan.arrays``.
        arrays = plan.arrays
        bank_bytes, bank_acts = batched_bank_load(
            store, arrays.fetch_regions, arrays.fetch_counts,
            self.config.dram.num_banks)
        dram_stats = self.dram.service_batch(bank_bytes, bank_acts)
        fetch_times = dram_stats.service_time_s
        dram_energy_pj = _ordered_sum(dram_stats.energy_pj)

        sram_bank_bytes, _ = batched_bank_load(
            sram_store, arrays.resident_regions, arrays.resident_counts,
            sram_banks)
        balances = balance_factors(sram_bank_bytes)

        bounds = arrays.bounds
        num_rays = (bounds[:, 1] - bounds[:, 0]) \
            * (bounds[:, 3] - bounds[:, 2])
        cells = num_rays * (bounds[:, 5] - bounds[:, 4])
        num_points = np.maximum(
            1, np.rint(cells * points_per_cell).astype(np.int64))

        compute = self.engine.patch_compute_many(workload, num_points,
                                                 num_rays, balances)
        compute_times = compute.cycles / freq
        pool_macs = _ordered_sum(compute.pool_macs)
        pool_busy_cycles = _ordered_sum(compute.pool_cycles)
        sram_bytes = _ordered_sum(arrays.prefetch_bytes * 2)  # write + read
        sfu_ops = _ordered_sum(self.engine.sfu.ops_for_points(num_points))
        return (fetch_times, compute_times, pool_macs, pool_busy_cycles,
                dram_energy_pj, sram_bytes, sfu_ops)


# Fig. 12 ablation variants -------------------------------------------------
def variant_config(name: str) -> AcceleratorConfig:
    """Named configurations of the dataflow/storage ablation.

    * ``ours``  — greedy partition + spatial interleaving.
    * ``var1``  — fixed {k, k, D} partition + spatial interleaving.
    * ``var2``  — fixed partition + row-major storage (Fig. 6a).
    * ``var3``  — fixed partition + view-wise interleaving.
    """
    base = AcceleratorConfig()
    if name == "ours":
        return base.variant(name="Gen-NeRF (ours)")
    if name == "var1":
        return base.variant(name="Var-1 (fixed slicing)",
                            use_greedy_partition=False)
    if name == "var2":
        return base.variant(name="Var-2 (row-major storage)",
                            use_greedy_partition=False,
                            feature_layout="row_major")
    if name == "var3":
        return base.variant(name="Var-3 (view-wise storage)",
                            use_greedy_partition=False,
                            feature_layout="view_interleaved")
    raise KeyError(f"unknown variant {name!r}")
