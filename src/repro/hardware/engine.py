"""Rendering engine compute model: PPU + PE pool + SFU per point patch.

Maps the paper-scale generalizable-NeRF layers
(:class:`repro.models.workload.PaperScaleDims`) onto the PE pool's
systolic arrays as batched GEMMs, and the sampling/projection/
interpolation and compositing work onto the PPU and SFU.  Steps 1-4 run
pipelined (paper Sec. 4.5), so a patch's compute time is bounded by its
slowest stage.

The Ray-Mixer (and Step 5 compositing) need a whole ray; thanks to the
scheduler's constraint (1) the depth patches of a pixel tile are
processed back-to-back, and the mixer cost is amortised per depth slab
here (its total per-frame cost is exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..models.workload import (DIRECTION_DIM, PaperScaleDims, RGB_DIM,
                               RenderWorkload)
from .pe_pool import PePool, PePoolConfig, PoolExecution, PoolExecutionBatch
from .preprocessing import PreprocessingConfig, PreprocessingUnit
from .special_function import SfuConfig, SpecialFunctionUnit
from .sram import SramConfig
from .systolic import GemmShape


@dataclass(frozen=True)
class EngineConfig:
    pool: PePoolConfig = PePoolConfig()
    ppu: PreprocessingConfig = PreprocessingConfig()
    sfu: SfuConfig = SfuConfig()
    prefetch_sram: SramConfig = SramConfig()


@dataclass
class PatchCompute:
    """Cycle breakdown for one patch's compute."""

    ppu_cycles: float
    pool_cycles: float
    sfu_cycles: float
    pool_macs: float

    @property
    def cycles(self) -> float:
        """Pipelined stages: throughput set by the slowest stage."""
        return max(self.ppu_cycles, self.pool_cycles, self.sfu_cycles)


@dataclass
class PatchComputeBatch:
    """Array-valued :class:`PatchCompute` for many patches at once."""

    ppu_cycles: np.ndarray
    pool_cycles: np.ndarray
    sfu_cycles: np.ndarray
    pool_macs: np.ndarray

    @property
    def cycles(self) -> np.ndarray:
        """Per-patch pipelined cycles (slowest stage per patch)."""
        return np.maximum(np.maximum(self.ppu_cycles, self.pool_cycles),
                          self.sfu_cycles)

    def scalar(self, index: int) -> PatchCompute:
        """The scalar :class:`PatchCompute` of patch ``index``."""
        return PatchCompute(ppu_cycles=float(self.ppu_cycles[index]),
                            pool_cycles=float(self.pool_cycles[index]),
                            sfu_cycles=float(self.sfu_cycles[index]),
                            pool_macs=float(self.pool_macs[index]))


def point_network_gemms(dims: PaperScaleDims, num_points: int,
                        num_views: int) -> List[GemmShape]:
    """GEMM list for the per-point network over a batch of points."""
    view_in = dims.feature_dim + RGB_DIM + DIRECTION_DIM
    h1, h2, hd = dims.view_hidden, dims.score_hidden, dims.density_hidden
    return [
        GemmShape(num_points, view_in, h1, count=num_views),     # view MLP 1
        GemmShape(num_points, h1, h1, count=num_views),          # view MLP 2
        GemmShape(num_points, 3 * h1, h2, count=num_views),      # score 1
        GemmShape(num_points, h2, 1, count=num_views),           # score 2
        GemmShape(num_points, 2 * h1 + DIRECTION_DIM, h2,
                  count=num_views),                              # colour 1
        GemmShape(num_points, h2, 1, count=num_views),           # colour 2
        GemmShape(num_points, 2 * h1, hd),                       # density 1
        GemmShape(num_points, hd, dims.density_feature_dim),     # density 2
    ]


def ray_module_gemms(workload: RenderWorkload, num_rays: int
                     ) -> List[GemmShape]:
    """GEMM list for the cross-point module over ``num_rays`` rays."""
    dims = workload.fine_dims
    d_sigma = dims.density_feature_dim
    if workload.ray_module == "mixer":
        n = workload.n_max
        return [
            GemmShape(d_sigma, n, n, count=num_rays),        # W1 token mix
            GemmShape(n, d_sigma, d_sigma, count=num_rays),  # W2 channel mix
            GemmShape(n, d_sigma, 1, count=num_rays),        # W3 head
        ]
    if workload.ray_module == "none":
        return [GemmShape(int(workload.fine_points_per_ray), d_sigma, 1,
                          count=num_rays)]
    # Transformer: QKV/out projections (weight-shared) plus the two
    # attention matmuls, whose operands are per-ray dynamic data — the
    # systolic arrays must reload them per ray (shared_weights=False),
    # which is the micro-architectural cost of attention the Ray-Mixer
    # removes (Sec. 3.3).
    points = int(round(workload.fine_points_per_ray))
    qk = dims.transformer_qk_dim
    return [
        GemmShape(points, d_sigma, qk, count=4 * num_rays),
        GemmShape(points, qk, points, count=num_rays,
                  shared_weights=False),                 # scores
        GemmShape(points, points, qk, count=num_rays,
                  shared_weights=False),                 # mix
        GemmShape(points, d_sigma, 1, count=num_rays),   # head
    ]


def _round_balances(balances: np.ndarray) -> np.ndarray:
    """``round(float(b), 3)`` for every element, bit for bit.

    Python rounds the exact binary value to 3 decimals, while numpy's
    ``np.round`` rounds the scaled product ``b * 1000``: ``round(0.0005,
    3)`` is 0.001 but ``np.round(0.0005, 3)`` is 0.0, and ``round(0.1235,
    3)`` is 0.123 but ``np.round`` gives 0.124.  The product is off by at
    most half an ulp, below 1e-6 while ``|b * 1000| < 2**32``, so its
    nearest integer is Python's wherever it lies more than 1e-6 from a
    half-integer; elements closer than that, larger, or not finite are
    rounded by Python itself.
    """
    balances = np.asarray(balances, dtype=np.float64)
    scaled = balances * 1000.0
    nearest = np.rint(scaled)
    rounded = nearest / 1000.0
    with np.errstate(invalid="ignore"):
        sure = ((np.abs(np.abs(scaled - nearest) - 0.5) > 1e-6)
                & (np.abs(scaled) < 2.0 ** 32))
    for index in np.flatnonzero(~sure).tolist():
        rounded[index] = round(float(balances[index]), 3)
    return rounded


class RenderingEngine:
    """Compute-side model shared by all accelerator variants."""

    def __init__(self, config: EngineConfig = EngineConfig()):
        self.config = config
        self.pool = PePool(config.pool)
        self.ppu = PreprocessingUnit(config.ppu, config.prefetch_sram)
        self.sfu = SpecialFunctionUnit(config.sfu)
        self._cache: Dict[Tuple, PatchCompute] = {}

    @staticmethod
    def _cache_key(num_points: int, num_rays: int, sram_balance: float,
                   coarse_stage: bool, workload: RenderWorkload) -> tuple:
        """The memoisation key shared by the scalar and batched paths.

        RenderWorkload is a frozen dataclass, so it hashes by value —
        never key on id(): CPython reuses addresses after GC and a
        stale hit would silently time the wrong configuration.  The
        balance rounds to 3 decimals, so patches whose balances differ
        only past that share one entry (first occurrence wins).  It is
        rounded as a Python float whatever its type: ``round`` on a
        numpy float would use numpy's rule, which differs (0.1235 gives
        0.124, not 0.123).
        """
        return (num_points, num_rays, round(float(sram_balance), 3),
                coarse_stage, workload)

    def patch_compute(self, workload: RenderWorkload, num_points: int,
                      num_rays: int, sram_balance: float = 1.0,
                      coarse_stage: bool = False) -> PatchCompute:
        """Cycle breakdown for a patch with ``num_points`` samples from
        ``num_rays`` rays.

        ``coarse_stage`` selects the lightweight coarse model (stage 1 of
        the two-stage rendering flow, Sec. 4.5).
        """
        key = self._cache_key(num_points, num_rays, sram_balance,
                              coarse_stage, workload)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        if coarse_stage:
            dims = workload.coarse_dims
            views = workload.coarse_views
        else:
            dims = workload.fine_dims
            views = workload.num_views
        gemms = point_network_gemms(dims, num_points, views)

        execution = self.pool.run(gemms)
        pool_cycles = execution.cycles
        pool_macs = execution.macs
        if not coarse_stage and num_rays > 0:
            # Fraction of each ray's points contained in this patch.
            fraction = min(1.0, (num_points / max(num_rays, 1))
                           / max(workload.fine_points_per_ray, 1e-9))
            module = self.pool.run(ray_module_gemms(workload, num_rays))
            pool_cycles += module.cycles * fraction
            pool_macs += module.macs * fraction

        ppu_cycles = self.ppu.cycles_for_patch(num_points, views,
                                               dims.feature_dim,
                                               sram_balance)
        sfu_cycles = self.sfu.cycles_for_points(num_points)
        result = PatchCompute(ppu_cycles=ppu_cycles, pool_cycles=pool_cycles,
                              sfu_cycles=sfu_cycles, pool_macs=pool_macs)
        self._cache[key] = result
        return result

    def patch_compute_many(self, workload: RenderWorkload,
                           num_points: np.ndarray, num_rays: np.ndarray,
                           sram_balance: np.ndarray) -> PatchComputeBatch:
        """Per-patch compute arrays *through the memoisation cache*.

        The batched front door the frame simulator uses.  Patches group
        by the scalar :meth:`patch_compute` cache key — (points, rays,
        balance rounded as :func:`_round_balances` rounds it) — in one
        array pass, so the Python work is one dict lookup per distinct
        key, not per patch.  Each key missing from the cache runs
        through one :meth:`patch_compute_batch` call, one row per key
        in first-occurrence order, with the unrounded balance of the
        key's first patch: a later patch whose balance differs only
        past the 3rd decimal reuses the first patch's result.  Cached
        results persist across calls exactly as the scalar path's do,
        so mixing scalar and batched callers on one engine stays
        bit-identical to an all-scalar run.
        """
        num_points = np.asarray(num_points, dtype=np.int64)
        num_rays = np.asarray(num_rays, dtype=np.int64)
        sram_balance = np.asarray(sram_balance, dtype=np.float64)
        # + 0.0 makes -0.0 the key 0.0, as a dict key does.
        rounded = _round_balances(sram_balance) + 0.0
        bits = rounded.view(np.int64)
        # lexsort is stable, so each key's run lists its patches in
        # order and starts with its first occurrence.
        order = np.lexsort((bits, num_rays, num_points))
        new_key = np.zeros(order.shape[0], dtype=bool)
        new_key[:1] = True
        for column in (num_points, num_rays, bits):
            ordered = column[order]
            new_key[1:] |= ordered[1:] != ordered[:-1]
        # Number the keys by first occurrence.
        first = order[new_key]
        by_first = np.argsort(first)
        first = first[by_first]
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.shape[0])
        inverse = np.empty_like(order)
        inverse[order] = rank[np.cumsum(new_key) - 1]

        keys = [self._cache_key(points, rays, balance, False, workload)
                for points, rays, balance in zip(
                    num_points[first].tolist(), num_rays[first].tolist(),
                    rounded[first].tolist())]
        computes = [self._cache.get(key) for key in keys]
        missing = [slot for slot, compute in enumerate(computes)
                   if compute is None]
        if missing:
            patches = first[missing]
            batch = self.patch_compute_batch(
                workload, num_points[patches], num_rays[patches],
                sram_balance[patches])
            for row, slot in enumerate(missing):
                computes[slot] = self._cache[keys[slot]] = batch.scalar(row)

        return PatchComputeBatch(**{
            name: np.array([getattr(compute, name) for compute in computes],
                           dtype=np.float64)[inverse]
            for name in ("ppu_cycles", "pool_cycles", "sfu_cycles",
                         "pool_macs")})

    def patch_compute_batch(self, workload: RenderWorkload,
                            num_points: np.ndarray, num_rays: np.ndarray,
                            sram_balance: np.ndarray,
                            coarse_stage: bool = False) -> PatchComputeBatch:
        """:meth:`patch_compute` for per-patch arrays in one array pass.

        ``num_points`` / ``num_rays`` are int64 arrays, ``sram_balance``
        float64, all of one length.  Element *i* of the result equals
        ``patch_compute(workload, num_points[i], num_rays[i],
        sram_balance[i], coarse_stage)`` bit for bit (the GEMM, PPU and
        SFU formulas are elementwise; see :meth:`PePool.run_batch`).

        Unlike the scalar method this performs **no memoisation** —
        callers that want the scalar path's cache semantics (the frame
        simulator does, for bit-parity with the seed loop) deduplicate
        the patch keys themselves and feed only representatives here.
        """
        num_points = np.asarray(num_points, dtype=np.int64)
        num_rays = np.asarray(num_rays, dtype=np.int64)
        sram_balance = np.asarray(sram_balance, dtype=np.float64)

        if coarse_stage:
            dims = workload.coarse_dims
            views = workload.coarse_views
        else:
            dims = workload.fine_dims
            views = workload.num_views
        gemms = point_network_gemms(dims, num_points, views)

        execution = self.pool.run_batch(gemms)
        pool_cycles = execution.cycles
        pool_macs = execution.macs
        if not coarse_stage:
            active = num_rays > 0
            fraction = np.minimum(
                1.0, (num_points / np.maximum(num_rays, 1))
                / max(workload.fine_points_per_ray, 1e-9))
            module = self.pool.run_batch(
                ray_module_gemms(workload, num_rays))
            pool_cycles = pool_cycles + np.where(
                active, module.cycles * fraction, 0.0)
            pool_macs = pool_macs + np.where(
                active, module.macs * fraction, 0.0)

        ppu_cycles = self.ppu.cycles_for_patch(num_points, views,
                                               dims.feature_dim,
                                               sram_balance)
        sfu_cycles = self.sfu.cycles_for_points(num_points)
        return PatchComputeBatch(
            ppu_cycles=np.asarray(ppu_cycles, dtype=np.float64),
            pool_cycles=np.asarray(pool_cycles, dtype=np.float64),
            sfu_cycles=np.asarray(sfu_cycles, dtype=np.float64),
            pool_macs=np.asarray(pool_macs, dtype=np.float64))
