"""Training loop (paper Sec. 5.1) for the generalizable NeRF variants.

The paper trains for 250K Adam steps (lr 5e-4, exponential decay) on a
multi-dataset corpus; offline we run short numpy-scale schedules on
procedural scenes.  The loop structure is faithful: sample a scene,
sample a batch of rays of a held-out target view, render with the model
under its own sampling strategy, and minimise the MSE of Eq. 3.  A
per-scene finetuning entry point reproduces the Table 3 protocol.

Training fast path
------------------
Three amortisations keep short numpy runs honest about where compute
goes (the paper's own thesis: stop recomputing per step what the scene
fixes once):

* **Supervision reuse** — the trainer draws scene choices and pixel
  batches from a dedicated ``pixel_rng`` stream in blocks of
  ``TrainConfig.pixel_block_steps`` steps, renders the ground-truth
  quadrature (Eq. 2 at ``gt_points``) for a whole block's rays of each
  scene in one call, and caches the result on the
  :class:`SceneData` keyed by ``(seed, scene position, block, batch
  geometry)``.  Harnesses that train several variants with the same
  schedule on shared :class:`SceneData` (Tables 2/3) then pay the GT
  reference render once, not once per variant.  Per-ray quadrature is
  ray-independent, so blocked GT is bit-identical to per-step GT
  (pinned in ``tests/models/test_training_equivalence.py``).
* **Scene-level encoder cache** — each loss step runs under
  :class:`repro.nn.conv_patch_cache` over ``SceneData.conv_cache``, so
  every conv layer with the same (kernel, stride, padding) over the
  scene's source images (the Gen-NeRF coarse/fine encoder pair, and
  every model variant trained on the scene) shares one im2col per
  scene per process.  ``SceneData.encoded_maps`` additionally caches
  full encoded feature maps for *evaluation* paths, invalidated via
  ``Parameter.version`` — i.e. only when an optimiser actually updated
  an encoder parameter (gradients flowed), not merely because a step
  ran somewhere.
* **Fused optimisation** — gradient clipping is folded into the fused
  flat-buffer :class:`repro.nn.Adam` (``grad_clip=``), removing the
  per-parameter Python loops from the update.

The unfused, per-step seed implementation of this loop is preserved as
:func:`repro.perf.reference.trainer_fit_loop`; the equivalence suite
pins losses and final weights bit-identical against it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..geometry.rays import RayBundle, rays_for_pixels, stratified_depths
from ..scenes.datasets import Scene
from ..scenes.render_gt import render_rays as render_gt_rays
from .features import fetched_pixel_mask
from .footprint import FOOTPRINT_STATS, plan_conv_footprint
from .gen_nerf import GenNeRF
from .ibrnet import GeneralizableNeRF
from .renderer import render_source_views
from .volume_rendering import composite

_LOG = logging.getLogger("repro.models.training")


@dataclass
class TrainConfig:
    """Hyper-parameters for the (scaled-down) training runs."""

    steps: int = 200
    rays_per_batch: int = 48
    num_points: int = 24          # per-ray samples for baseline models
    learning_rate: float = 5e-4
    lr_decay_rate: float = 0.5
    lr_decay_steps: int = 2000
    gt_points: int = 128          # reference quadrature for supervision
    coarse_loss_weight: float = 0.3
    grad_clip: float = 5.0
    seed: int = 0
    pixel_block_steps: int = 16   # pixel batches pre-generated per block


def _encoder_parameters(model: nn.Module) -> List[nn.Parameter]:
    """The parameters whose updates invalidate encoded feature maps."""
    if isinstance(model, GenNeRF):
        return (model.coarse.encoder.parameters()
                + model.fine.encoder.parameters())
    encoder = getattr(model, "encoder", None)
    if encoder is not None:
        return encoder.parameters()
    return model.parameters()


@dataclass
class SceneData:
    """A scene plus everything precomputed for training against it.

    Beyond the rendered source images, a ``SceneData`` owns the
    scene-keyed caches of the training fast path:

    * ``conv_cache`` — im2col columns of the source images, shared by
      every conv layer (and model) encoding this scene
      (:class:`repro.nn.conv_patch_cache`);
    * ``gt_cache`` — ground-truth supervision per (trainer schedule,
      pixel block);
    * ``feature_cache`` — encoded feature maps for evaluation renders,
      invalidated by encoder ``Parameter.version`` bumps (i.e. only
      when gradients actually flowed into the encoder).
    """

    scene: Scene
    source_images: np.ndarray      # (S, 3, H, W)
    conv_cache: Dict = field(default_factory=dict, repr=False)
    gt_cache: Dict = field(default_factory=dict, repr=False)
    feature_cache: Dict = field(default_factory=dict, repr=False)

    @staticmethod
    def prepare(scene: Scene, gt_points: int = 128,
                workers: Optional[int] = 1) -> "SceneData":
        """Render the conditioning source views (the minutes-scale cold
        path).  ``workers`` shards the render over the frame pool —
        byte-identical images at any width (see
        :func:`repro.models.renderer.render_source_views`)."""
        return SceneData(scene=scene,
                         source_images=render_source_views(
                             scene, num_points=gt_points,
                             workers=workers))

    def encoded_maps(self, model: nn.Module):
        """Cached ``model.encode_scene(source_images)`` for evaluation.

        The entry is keyed by the model object (kept alive by the
        cache, so ids cannot alias) and validated against the version
        tuple of the model's *encoder* parameters: a finetune step that
        updated the encoder re-encodes, a head-only update would not.
        Inference-mode maps carry no graph — training losses must not
        consume them.
        """
        versions = tuple(p.version for p in _encoder_parameters(model))
        entry = self.feature_cache.get(id(model))
        if entry is not None and entry[0] is model and entry[1] == versions \
                and entry[2] is self.source_images:
            return entry[3]
        with nn.inference_mode():
            maps = model.encode_scene(self.source_images)
        if len(self.feature_cache) >= 16:
            # Scene data can outlive many evaluated models (the scene
            # memo in repro.core.experiments); bound the held models.
            self.feature_cache.clear()
        self.feature_cache[id(model)] = (model, versions,
                                         self.source_images, maps)
        return maps


def sample_pixel_batch(scene: Scene, count: int,
                       rng: np.random.Generator) -> RayBundle:
    """Random pixel rays of the scene's target view."""
    width = scene.target_camera.intrinsics.width
    height = scene.target_camera.intrinsics.height
    us = rng.uniform(0.5, width - 0.5, size=count)
    vs = rng.uniform(0.5, height - 0.5, size=count)
    pixels = np.stack([us, vs], axis=-1)
    return rays_for_pixels(scene.target_camera, pixels, scene.near, scene.far)


def draw_pixel_block(scenes: Sequence[SceneData], config: TrainConfig,
                     pixel_rng: np.random.Generator
                     ) -> List[Tuple[int, np.ndarray]]:
    """Draw one block of (scene index, pixel batch) pairs.

    This is the canonical pixel-stream protocol shared by the fast
    trainer and the seed reference loop: per block, one ``integers``
    draw for all scene choices, then per step one ``uniform`` draw per
    pixel coordinate.  Pixel values for a given scene position depend
    only on the stream position and that scene's target camera, so
    ground truth cached under the block key stays valid across
    trainers with the same schedule.
    """
    count = config.rays_per_batch
    indices = pixel_rng.integers(0, len(scenes), size=config.pixel_block_steps)
    entries: List[Tuple[int, np.ndarray]] = []
    for scene_pos in indices:
        scene = scenes[int(scene_pos)].scene
        width = scene.target_camera.intrinsics.width
        height = scene.target_camera.intrinsics.height
        us = pixel_rng.uniform(0.5, width - 0.5, size=count)
        vs = pixel_rng.uniform(0.5, height - 0.5, size=count)
        entries.append((int(scene_pos), np.stack([us, vs], axis=-1)))
    return entries


class Trainer:
    """Shared training driver for baseline and Gen-NeRF models."""

    def __init__(self, model: nn.Module, scenes: Sequence[SceneData],
                 config: Optional[TrainConfig] = None,
                 footprint: bool = True):
        if not scenes:
            raise ValueError("need at least one scene")
        self.model = model
        self.scenes = list(scenes)
        self.config = config or TrainConfig()
        # ``footprint`` allows the footprint-restricted training encode
        # (see :mod:`repro.models.footprint`); ``False`` always encodes
        # whole images, the reference seam of
        # ``repro.perf.reference.trainer_full_encode``.  Either way the
        # training trajectory is byte-identical.
        self._footprint = footprint
        self.footprint_stats = {"footprint": 0, "dense": 0, "coverage": 0.0}
        schedule = nn.ExponentialDecayLR(self.config.learning_rate,
                                         self.config.lr_decay_rate,
                                         self.config.lr_decay_steps)
        self.optimizer = nn.Adam(model.parameters(), schedule=schedule,
                                 grad_clip=self.config.grad_clip)
        # Two independent streams: ``pixel_rng`` drives scene choice and
        # pixel batches (pre-generated blockwise), ``rng`` drives the
        # model-side randomness (depth jitter, focused sampling) whose
        # draw counts depend on model state and therefore cannot be
        # hoisted.
        self.rng = np.random.default_rng(self.config.seed)
        self.pixel_rng = np.random.default_rng((self.config.seed, 0x5EED))
        self.history: List[float] = []
        self._step_index = 0
        self._remaining_hint: Optional[int] = None
        self._block: List[List] = []   # [scene_pos, bundle, target] rows

    # ------------------------------------------------------------------
    def _ground_truth(self, scene_data: SceneData,
                      bundle: RayBundle) -> np.ndarray:
        return render_gt_rays(
            scene_data.scene.field, bundle, self.config.gt_points,
            white_background=scene_data.scene.spec.white_background)

    def _gt_block_key(self, scene_pos: int, block_index: int) -> tuple:
        cfg = self.config
        return (cfg.seed, len(self.scenes), scene_pos, block_index,
                cfg.pixel_block_steps, cfg.rays_per_batch, cfg.gt_points)

    def _advance_block(self) -> None:
        """Pre-generate the next block of pixel batches + supervision.

        The pixel draws always cover the whole block (stream fidelity —
        a later ``fit`` must resume mid-block bit-exactly), but ground
        truth is only rendered for the steps :meth:`fit` says it will
        actually take (``_remaining_hint``); a run ending mid-block
        does not pay quadrature for steps it never reaches.  Rendering
        happens per scene in one call over the needed steps' rays and
        is cached per (schedule, block) offset-by-offset on the scene,
        so identically scheduled trainers (the Table 2/3 variant
        ladders) — including ones that stopped mid-block — reuse and
        extend each other's supervision instead of re-rendering.
        """
        cfg = self.config
        entries = draw_pixel_block(self.scenes, cfg, self.pixel_rng)
        self._block = []
        for scene_pos, pixels in entries:
            data = self.scenes[scene_pos]
            bundle = rays_for_pixels(data.scene.target_camera, pixels,
                                     data.scene.near, data.scene.far)
            self._block.append([scene_pos, bundle, None])
        needed = len(entries) if self._remaining_hint is None \
            else min(len(entries), self._remaining_hint)
        self._fill_targets(range(needed))

    def _fill_targets(self, offsets) -> None:
        """Render (or fetch cached) supervision for block offsets."""
        cfg = self.config
        block_index = self._step_index // cfg.pixel_block_steps
        count = cfg.rays_per_batch
        pending = [offset for offset in offsets
                   if self._block[offset][2] is None]
        for scene_pos in sorted({self._block[j][0] for j in pending}):
            data = self.scenes[scene_pos]
            steps = [j for j in pending if self._block[j][0] == scene_pos]
            key = self._gt_block_key(scene_pos, block_index)
            cached = data.gt_cache.get(key)
            if cached is None:
                if len(data.gt_cache) >= 512:
                    # Block keys are per (schedule, block index) and a
                    # paper-scale run would otherwise accumulate GT for
                    # every block it ever trained; reuse only spans
                    # identically scheduled runs, so dropping the lot
                    # costs a re-render, never correctness.
                    data.gt_cache.clear()
                cached = {}
                data.gt_cache[key] = cached
            missing = [j for j in steps if j not in cached]
            if missing:
                pixels = np.concatenate(
                    [self._block[j][1].pixels for j in missing], axis=0)
                bundle = rays_for_pixels(data.scene.target_camera, pixels,
                                         data.scene.near, data.scene.far)
                block_gt = self._ground_truth(data, bundle)
                for k, j in enumerate(missing):
                    cached[j] = block_gt[k * count:(k + 1) * count]
            for j in steps:
                self._block[j][2] = cached[j]

    def _encode_footprint(self, encoder, scene_data: SceneData, groups):
        """Encode ``scene_data.source_images`` restricted to the feature
        pixels this step will actually gather.

        ``groups`` lists ``(cameras, view_indices_or_None, points)``
        gathers the step is about to perform; the union of their
        bilinear corner sets is the footprint.  Falls back to the dense
        :meth:`ConvEncoder.encode_views` when the footprint cannot be
        restricted profitably (planner returns ``None``) or is
        trivially dense (cheap ray-count guard) — the dense path
        produces the same bits, so the choice is pure performance.
        """
        images = scene_data.source_images
        num_views = images.shape[0]
        height, width = images.shape[2], images.shape[3]
        map_h, map_w = encoder.feature_shape(height, width)
        cells = num_views * map_h * map_w
        candidates = 4 * sum(len(cams) * points.shape[0] * points.shape[1]
                             for cams, _, points in groups)
        plan = None
        if 2 * candidates < cells:
            mask = np.zeros((num_views, map_h, map_w), dtype=bool)
            for cams, view_idx, points in groups:
                part = fetched_pixel_mask(points, cams, map_h, map_w,
                                          encoder.feature_scale)
                if view_idx is None:
                    mask |= part
                else:
                    mask[view_idx] |= part
            plan = plan_conv_footprint(encoder.convs, num_views, height,
                                       width, mask)
        if plan is None:
            self.footprint_stats["dense"] += 1
            FOOTPRINT_STATS["dense"] += 1
            return encoder.encode_views(images)
        self.footprint_stats["footprint"] += 1
        self.footprint_stats["coverage"] += plan.coverage
        FOOTPRINT_STATS["footprint"] += 1
        return encoder.encode_views_footprint(images, plan)

    def _loss_ibrnet(self, model: GeneralizableNeRF, scene_data: SceneData,
                     bundle: RayBundle, target: np.ndarray):
        # Depths are drawn *before* the encode so the footprint planner
        # can see the step's sample points; the encode consumes no RNG,
        # so the stream is bit-identical to the draw-after-encode order.
        depths = stratified_depths(self.rng, len(bundle),
                                   self.config.num_points, bundle.near,
                                   bundle.far, jitter=True)
        points = bundle.points_at(depths)
        cameras = scene_data.scene.source_cameras
        if self._footprint:
            feature_maps = self._encode_footprint(
                model.encoder, scene_data, [(cameras, None, points)])
        else:
            feature_maps = model.encode_scene(scene_data.source_images)
        output = model(points, bundle.directions, cameras, feature_maps,
                       scene_data.source_images)
        pixel, _ = composite(output.sigma, output.rgb, depths, bundle.far)
        return nn.functional.mse_loss(pixel, target.astype(np.float32))

    def _loss_gen_nerf(self, model: GenNeRF, scene_data: SceneData,
                       bundle: RayBundle, target: np.ndarray):
        cameras = scene_data.scene.source_cameras
        if self._footprint:
            cfg = model.config
            # Pre-draw the coarse depths (first RNG consumer of the
            # step) so both encodes can be footprint-planned; the
            # stream order is unchanged because encoding draws nothing.
            coarse_depths = stratified_depths(
                self.rng, len(bundle), cfg.coarse_points, bundle.near,
                bundle.far, jitter=True)
            chosen = model.select_coarse_views(bundle, cameras)
            coarse_cams = [cameras[i] for i in chosen]
            coarse_points = bundle.points_at(coarse_depths)
            coarse_maps = self._encode_footprint(
                model.coarse.encoder, scene_data,
                [(coarse_cams, chosen, coarse_points)])
            coarse_out_tuple = model.coarse_pass(
                bundle, cameras, coarse_maps, scene_data.source_images,
                rng=self.rng, depths=coarse_depths)
            coarse_depths, coarse_weights, coarse_out = coarse_out_tuple
            samples = model.plan_samples(coarse_depths, coarse_weights,
                                         bundle, rng=self.rng, min_points=2)
            fine_points = bundle.points_at(samples.depths)
            fine_maps = self._encode_footprint(
                model.fine.encoder, scene_data,
                [(cameras, None, fine_points)])
        else:
            coarse_maps, fine_maps = model.encode_scene(
                scene_data.source_images)
            coarse_depths, coarse_weights, coarse_out = model.coarse_pass(
                bundle, cameras, coarse_maps,
                scene_data.source_images, rng=self.rng)
            samples = model.plan_samples(coarse_depths, coarse_weights,
                                         bundle, rng=self.rng, min_points=2)
        pixel, _, _ = model.fine_pass(bundle, samples, cameras,
                                      fine_maps, scene_data.source_images)
        loss = nn.functional.mse_loss(pixel, target.astype(np.float32))
        # Auxiliary coarse loss (vanilla-NeRF style) trains the coarse
        # density estimator that steers the sampler.
        coarse_pixel, _ = composite(coarse_out.sigma, coarse_out.rgb,
                                    coarse_depths, bundle.far)
        coarse_loss = nn.functional.mse_loss(coarse_pixel,
                                             target.astype(np.float32))
        return loss + self.config.coarse_loss_weight * coarse_loss

    # ------------------------------------------------------------------
    def step(self) -> float:
        offset = self._step_index % self.config.pixel_block_steps
        if offset == 0:
            self._advance_block()
        if self._block[offset][2] is None:
            # A previous fit() ended mid-block; render supervision for
            # the steps this fit will take (or just this one, stepping
            # manually).
            stop = len(self._block) if self._remaining_hint is None \
                else min(len(self._block), offset + self._remaining_hint)
            self._fill_targets(range(offset, max(stop, offset + 1)))
        scene_pos, bundle, target = self._block[offset]
        scene_data = self.scenes[scene_pos]

        self.optimizer.zero_grad()
        with nn.conv_patch_cache(scene_data.conv_cache):
            if isinstance(self.model, GenNeRF):
                loss = self._loss_gen_nerf(self.model, scene_data, bundle,
                                           target)
            else:
                loss = self._loss_ibrnet(self.model, scene_data, bundle,
                                         target)
            loss.backward()
        self.optimizer.step()        # grad clip + LR schedule folded in
        self._step_index += 1
        value = loss.item()
        self.history.append(value)
        return value

    def fit(self, steps: Optional[int] = None,
            log_every: int = 0) -> List[float]:
        total = steps if steps is not None else self.config.steps
        start = time.time()
        for index in range(total):
            self._remaining_hint = total - index
            value = self.step()
            if log_every and (index + 1) % log_every == 0:
                elapsed = time.time() - start
                print(f"step {index + 1:5d}/{total} loss={value:.5f} "
                      f"({elapsed:.1f}s)")
        self._remaining_hint = None
        footprint_steps = self.footprint_stats["footprint"]
        if footprint_steps or self.footprint_stats["dense"]:
            from ..core import log
            log.event(
                _LOG, "train.encode_footprint", level=logging.INFO,
                footprint=footprint_steps,
                dense=self.footprint_stats["dense"],
                mean_coverage=round(
                    self.footprint_stats["coverage"] / footprint_steps, 4)
                if footprint_steps else None)
        return self.history


def finetune(model: nn.Module, scene: Scene, steps: int,
             config: Optional[TrainConfig] = None,
             gt_points: int = 128,
             data: Optional[SceneData] = None) -> List[float]:
    """Per-scene finetuning (paper Table 3 protocol): continue training
    the pretrained model on a single scene's views.

    ``data`` accepts an already-prepared :class:`SceneData` so harnesses
    that finetune many variants on the same scene render its ground-truth
    source views once instead of once per call — and, through the
    ``SceneData`` caches, share GT supervision and im2col columns
    between identically scheduled finetunes.
    """
    cfg = config or TrainConfig()
    if data is None:
        data = SceneData.prepare(scene, gt_points=gt_points)
    trainer = Trainer(model, [data], cfg)
    return trainer.fit(steps)
