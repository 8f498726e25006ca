"""Gen-NeRF: the paper's delivered algorithm (Sec. 3).

Combines three ingredients on top of the IBRNet-style backbone:

1. a **lightweight coarse model** — channel scale 0.25, conditioned on
   only the S_c source views closest to the novel view, run with N_c
   uniform samples per ray, used *only* to estimate densities (Step 1);
2. the **coarse-then-focus sampler** from
   :mod:`repro.models.sampling` (Steps 2-3);
3. a **fine model with the Ray-Mixer** evaluated at the focused samples
   (padded to N_max), whose outputs are composited into pixels.

Training note: the paper trains end-to-end and states the coarse pass
"does not reconstruct the RGB value".  For supervision we follow vanilla
NeRF practice and attach an auxiliary rendering loss to the coarse
model's (cheap) colour branch during training only; inference uses the
coarse pass strictly for densities.  This substitution is recorded in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..nn import Tensor
from ..geometry.camera import Camera
from ..geometry.rays import RayBundle, stratified_depths
from .ibrnet import GeneralizableNeRF, ModelConfig, RenderOutput
from .sampling import SampleSet, coarse_then_focus_plan
from .volume_rendering import composite


@dataclass(frozen=True)
class GenNerfConfig:
    """Hyper-parameters of the full Gen-NeRF algorithm.

    Paper defaults (Sec. 5.1): coarse channel scale 0.25, 4 coarse source
    views; typical sampling 16 coarse / 48 focused (Table 2) or the
    coarse/focus pairs of Fig. 9.
    """

    fine: ModelConfig = field(
        default_factory=lambda: ModelConfig(ray_module="mixer"))
    coarse_scale: float = 0.25
    coarse_views: int = 4
    coarse_points: int = 16        # N_c
    focused_points: int = 48       # N_f (average per ray)
    tau: float = 1e-3              # critical-point threshold on w_k
    train_min_points: int = 1      # keep >=1 sample per ray during training

    @property
    def n_max(self) -> int:
        return self.fine.n_max


class GenNeRF(nn.Module):
    """Coarse-then-focus Gen-NeRF model pair."""

    def __init__(self, config: Optional[GenNerfConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config or GenNerfConfig()
        rng = rng or np.random.default_rng(0)
        coarse_cfg = self.config.fine.scaled(self.config.coarse_scale)
        # The coarse pass only estimates densities; the cheapest
        # homogeneous choice is a pointwise head (no cross-point module).
        coarse_cfg = replace(coarse_cfg, ray_module="none")
        self.coarse = GeneralizableNeRF(coarse_cfg, rng=rng)
        self.fine = GeneralizableNeRF(self.config.fine, rng=rng)

    # ------------------------------------------------------------------
    def encode_scene(self, source_images: np.ndarray
                     ) -> Tuple[Tensor, Tensor]:
        """(coarse maps, fine maps) for (S, 3, H, W) source images.

        Each element is the stacked channel-last (S, Hf, Wf, C) feature
        tensor of its encoder (index per view or pass whole).
        """
        return (self.coarse.encode_scene(source_images),
                self.fine.encode_scene(source_images))

    def select_coarse_views(self, bundle: RayBundle,
                            source_cameras: Sequence[Camera]) -> np.ndarray:
        """Indices of the S_c sources closest to the bundle's mean
        viewing direction (paper Sec. 3.2, Step 1)."""
        mean_dir = bundle.directions.mean(axis=0)
        mean_dir = mean_dir / np.linalg.norm(mean_dir)
        sims = np.array([float(np.dot(cam.forward, mean_dir))
                         for cam in source_cameras])
        order = np.argsort(sims)[::-1]
        return order[:min(self.config.coarse_views, len(source_cameras))]

    # ------------------------------------------------------------------
    def coarse_pass(self, bundle: RayBundle,
                    source_cameras: Sequence[Camera],
                    coarse_maps: Union[Tensor, Sequence[Tensor]],
                    source_images: np.ndarray,
                    rng: Optional[np.random.Generator] = None,
                    depths: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray, RenderOutput]:
        """Step 1: lightweight coarse sampling.

        Returns (coarse_depths, coarse_weights, coarse_output); weights
        are detached numpy (the sampler is not differentiated through).
        ``depths`` injects pre-drawn coarse depths — the trainer draws
        them *before* encoding so it can plan the encode footprint from
        the step's sample points without disturbing the RNG stream.
        """
        cfg = self.config
        chosen = self.select_coarse_views(bundle, source_cameras)
        cams = [source_cameras[i] for i in chosen]
        if isinstance(coarse_maps, Tensor):
            maps = coarse_maps[chosen]     # batched view gather, grad-aware
        else:
            maps = [coarse_maps[i] for i in chosen]
        images = source_images[chosen]

        if depths is None:
            gen = rng or np.random.default_rng(0)
            depths = stratified_depths(gen, len(bundle), cfg.coarse_points,
                                       bundle.near, bundle.far,
                                       jitter=rng is not None)
        points = bundle.points_at(depths)
        output = self.coarse(points, bundle.directions, cams, maps, images)
        _, weights = composite(output.sigma, output.rgb, depths, bundle.far)
        return depths, weights.data.astype(np.float64), output

    def plan_samples(self, coarse_depths: np.ndarray,
                     coarse_weights: np.ndarray, bundle: RayBundle,
                     rng: Optional[np.random.Generator] = None,
                     min_points: int = 0) -> SampleSet:
        """Steps 2-3: PDF estimation + sparse focused sampling."""
        cfg = self.config
        plan = coarse_then_focus_plan(
            coarse_depths, coarse_weights, cfg.focused_points, cfg.n_max,
            cfg.tau, bundle.near, bundle.far, rng=rng)
        if min_points > 0:
            # Guarantee a minimal sample count per ray (training batches
            # need every ray to produce a differentiable pixel).  One
            # boolean-masked scatter covers all deficient rays — this
            # runs on every render, so no per-ray Python loop.
            needs = plan.counts < min_points
            if needs.any():
                fallback = np.linspace(bundle.near, bundle.far,
                                       min_points + 2)[1:-1]
                rows = np.broadcast_to(needs[:, None],
                                       (needs.shape[0], min_points))
                plan.depths[:, :min_points] = np.where(
                    rows, fallback, plan.depths[:, :min_points])
                plan.mask[:, :min_points] |= rows
        return plan

    def fine_pass(self, bundle: RayBundle, samples: SampleSet,
                  source_cameras: Sequence[Camera],
                  fine_maps: Union[Tensor, Sequence[Tensor]],
                  source_images: np.ndarray
                  ) -> Tuple[Tensor, Tensor, RenderOutput]:
        """Steps 2-5 of the vanilla pipeline at the focused samples.

        The fine model packs the focused samples wherever that keeps its
        outputs byte-identical on this host (see
        :meth:`GeneralizableNeRF.forward`).
        """
        points = bundle.points_at(samples.depths)
        output = self.fine(points, bundle.directions, source_cameras,
                           fine_maps, source_images, mask=samples.mask)
        bin_width = (bundle.far - bundle.near) / max(self.config.coarse_points,
                                                     1)
        pixel, weights = composite(output.sigma, output.rgb, samples.depths,
                                   bundle.far, mask=samples.mask,
                                   max_delta=bin_width)
        return pixel, weights, output

    def render_rays(self, bundle: RayBundle,
                    source_cameras: Sequence[Camera],
                    coarse_maps: Union[Tensor, Sequence[Tensor]],
                    fine_maps: Union[Tensor, Sequence[Tensor]],
                    source_images: np.ndarray,
                    rng: Optional[np.random.Generator] = None,
                    return_aux: bool = False):
        """Full Gen-NeRF pipeline for a ray bundle -> (R, 3) pixels."""
        coarse_depths, coarse_weights, coarse_out = self.coarse_pass(
            bundle, source_cameras, coarse_maps, source_images, rng=rng)
        samples = self.plan_samples(
            coarse_depths, coarse_weights, bundle, rng=rng,
            min_points=self.config.train_min_points if self.training else 0)
        pixel, weights, fine_out = self.fine_pass(
            bundle, samples, source_cameras, fine_maps, source_images)
        if not return_aux:
            return pixel
        coarse_pixel, _ = composite(coarse_out.sigma, coarse_out.rgb,
                                    coarse_depths, bundle.far)
        aux = {
            "samples": samples,
            "coarse_pixel": coarse_pixel,
            "coarse_weights": coarse_weights,
            "weights": weights,
        }
        return pixel, aux
