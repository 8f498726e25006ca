"""End-to-end co-design pipeline: workload -> device -> FPS/latency/energy.

Ties the algorithm side (paper-scale :class:`RenderWorkload`) to the
device models (Gen-NeRF accelerator simulator, GPU rooflines) for every
hardware experiment.  Camera rigs here follow the paper's deployment
model: IBRNet-style systems condition on the source views *closest* to
the novel view (Sec. 3.2 picks S_c closest; IBRNet picks the 10 closest
of its pose library), so novel-to-source baselines are small — which is
precisely what gives point patches their compact source-view footprints
(Property-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.camera import Camera, Intrinsics
from ..geometry.transforms import camera_at
from ..hardware.accelerator import (AcceleratorConfig, FrameSimulation,
                                    GenNerfAccelerator, variant_config)
from ..hardware.gpu_model import (GpuModel, GpuSimulation, JETSON_TX2,
                                  RTX_2080TI)
from ..hardware.scheduler import FramePlan
from ..models.workload import RenderWorkload, typical_workload
from ..scenes.datasets import DATASETS, DatasetSpec


@dataclass
class HardwareRig:
    """A posed novel view plus clustered source views at paper scale."""

    novel: Camera
    sources: List[Camera]
    near: float
    far: float


def hardware_rig(spec: DatasetSpec, num_views: int,
                 seed: int = 0) -> HardwareRig:
    """Build the evaluation rig for one dataset family.

    Sources sit within a ~±18 degree cone around the novel viewpoint
    (the "closest views" regime); forward-facing datasets use a small
    planar offset pattern instead, matching handheld capture.
    """
    rng = np.random.default_rng(seed)
    intr = spec.intrinsics(1.0)
    radius = spec.rig_distance
    if spec.rig == "orbit":
        elevation = np.radians(20.0)
        novel_azimuth = 0.0
        novel_eye = radius * np.array([
            np.cos(elevation) * np.cos(novel_azimuth),
            -np.sin(elevation),
            np.cos(elevation) * np.sin(novel_azimuth)])
        novel = camera_at(novel_eye, np.zeros(3), intr)
        sources = []
        spread = np.radians(18.0)
        for index in range(num_views):
            azimuth = novel_azimuth + spread * (
                (index - (num_views - 1) / 2.0) / max((num_views - 1) / 2.0, 1))
            elev = elevation + np.radians(rng.uniform(-4.0, 4.0))
            eye = radius * np.array([
                np.cos(elev) * np.cos(azimuth),
                -np.sin(elev),
                np.cos(elev) * np.sin(azimuth)])
            sources.append(camera_at(eye, np.zeros(3), intr))
    else:  # forward-facing
        novel = camera_at(np.array([0.0, 0.0, -radius]), np.zeros(3), intr)
        sources = []
        cols = int(np.ceil(np.sqrt(num_views)))
        for index in range(num_views):
            row, col = divmod(index, cols)
            offset = np.array([
                (col - (cols - 1) / 2.0) * 0.35,
                (row - (cols - 1) / 2.0) * 0.25,
                rng.uniform(-0.1, 0.1)])
            sources.append(camera_at(offset + np.array([0, 0, -radius]),
                                     np.zeros(3), intr))
    return HardwareRig(novel=novel, sources=sources, near=spec.near,
                       far=spec.far)


@dataclass
class CoDesignPipeline:
    """Run a rendering workload on the accelerator and GPU baselines."""

    accelerator_config: Optional[AcceleratorConfig] = None

    def __post_init__(self):
        self.accelerator = GenNerfAccelerator(
            self.accelerator_config or AcceleratorConfig())
        self._gpus = {"rtx2080ti": GpuModel(RTX_2080TI),
                      "tx2": GpuModel(JETSON_TX2)}

    # ------------------------------------------------------------------
    def dataset_workload(self, dataset: str, num_views: int = 6,
                         points_per_ray: float = 64) -> RenderWorkload:
        """Delivered Gen-NeRF workload at a dataset's resolution."""
        spec = DATASETS[dataset]
        return typical_workload(height=spec.height, width=spec.width,
                                num_views=num_views,
                                points_per_ray=points_per_ray)

    def simulate_accelerator(self, dataset: str, num_views: int = 6,
                             points_per_ray: float = 64,
                             seed: int = 0,
                             workload: Optional[RenderWorkload] = None
                             ) -> FrameSimulation:
        spec = DATASETS[dataset]
        rig = hardware_rig(spec, num_views, seed=seed)
        load = workload or self.dataset_workload(dataset, num_views,
                                                 points_per_ray)
        return self.accelerator.simulate_frame(load, rig.novel, rig.sources,
                                               rig.near, rig.far)

    def simulate_gpu(self, device: str, dataset: str, num_views: int = 6,
                     points_per_ray: float = 64,
                     workload: Optional[RenderWorkload] = None
                     ) -> GpuSimulation:
        load = workload or self.dataset_workload(dataset, num_views,
                                                 points_per_ray)
        return self._gpus[device].simulate_frame(load)

    def fps_comparison(self, dataset: str, num_views: int = 6,
                       points_per_ray: float = 64,
                       seed: int = 0) -> Dict[str, float]:
        """Fig. 10-style row: accelerator vs both GPUs on one dataset."""
        accel = self.simulate_accelerator(dataset, num_views, points_per_ray,
                                          seed=seed)
        gpu = self.simulate_gpu("rtx2080ti", dataset, num_views,
                                points_per_ray)
        tx2 = self.simulate_gpu("tx2", dataset, num_views, points_per_ray)
        return {
            "gen_nerf_fps": accel.fps,
            "rtx2080ti_fps": gpu.fps,
            "tx2_fps": tx2.fps,
            "speedup_vs_2080ti": accel.fps / max(gpu.fps, 1e-12),
            "speedup_vs_tx2": accel.fps / max(tx2.fps, 1e-12),
        }


def dataflow_ablation(dataset: str, num_views: int,
                      points_per_ray: float = 64, seed: int = 0
                      ) -> Dict[str, FrameSimulation]:
    """Fig. 12: ours vs Var-1/2/3 on one dataset/view-count point.

    A plan depends only on the rig, the workload and the variant's
    partitioning (greedy or fixed, and its scheduler config), never on
    the feature layout, so Var-1/2/3 share one fixed partition."""
    spec = DATASETS[dataset]
    rig = hardware_rig(spec, num_views, seed=seed)
    workload = typical_workload(height=spec.height, width=spec.width,
                                num_views=num_views,
                                points_per_ray=points_per_ray)
    plans: Dict[tuple, FramePlan] = {}
    results: Dict[str, FrameSimulation] = {}
    for name in ("ours", "var1", "var2", "var3"):
        accelerator = GenNerfAccelerator(variant_config(name))
        key = (accelerator.config.use_greedy_partition,
               accelerator.config.scheduler)
        if key not in plans:
            plans[key] = accelerator.plan_frame(
                rig.novel, rig.sources, rig.near, rig.far, workload)
        results[name] = accelerator.simulate_frame(
            workload, rig.novel, rig.sources, rig.near, rig.far,
            plan=plans[key])
    return results
