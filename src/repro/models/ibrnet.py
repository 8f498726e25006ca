"""IBRNet-style generalizable NeRF (paper Sec. 2.2, Fig. 1).

One model class covers every algorithm variant in the paper's Table 2 by
swapping the cross-point density module:

* ``ray_module="transformer"`` — vanilla IBRNet (rows 1 of Table 2),
* ``ray_module="none"``        — "- ray transformer" ablation,
* ``ray_module="mixer"``       — "+ Ray-Mixer" (the Gen-NeRF model).

Pipeline per sampled point (Steps 2-4 of Sec. 2.2): fetch per-view scene
features -> per-view latent -> visibility-masked mean/variance pooling ->
view-weighted feature pooling (density branch) and view-weighted colour
blending (colour branch) -> density features -> cross-point module ->
density.  ``channel_scale`` shrinks every hidden width, which is how the
lightweight coarse model (Sec. 3.2 Step 1, scale 0.25) and the pruned
models (Table 2's channel-pruning rows) are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..nn import Tensor, regime
from ..geometry.camera import Camera
from .encoder import ConvEncoder
from .features import FetchedFeatures, fetch_features
from .ray_mixer import RayMixer
from .ray_transformer import PointwiseDensityHead, RayTransformer
from .sampling import SamplePacking, _aligned_rows, pack_samples

DIRECTION_DIM = 4  # relative-direction encoding width (diff vec + dot)

# Running tally of packed-vs-dense forward calls, keyed for the test
# suite (engagement assertions) and cheap introspection; not thread- or
# process-shared.
PACK_STATS = {"packed": 0, "dense": 0}


def _scaled(width: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(width * scale)))


def _mlp_split(mlp: "nn.MLP", inputs) -> Tensor:
    """Run an MLP whose first layer consumes a (virtual) concatenation.

    ``inputs`` partition the first ``Linear``'s input width; they pass
    through :func:`repro.nn.functional.linear_split` (no concat copy,
    broadcast inputs multiply their weight slice once) and the rest of
    the stack applies as usual.
    """
    modules = list(mlp.net)
    first = modules[0]
    x = nn.functional.linear_split(inputs, first.weight, first.bias)
    for module in modules[1:]:
        x = module(x)
    return x


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of the generalizable NeRF.

    Defaults are the repo's "small scale" for numpy training; the
    paper-scale dimensions used for FLOPs accounting live in
    :mod:`repro.models.workload`.
    """

    feature_dim: int = 16          # C: encoder feature channels
    view_hidden: int = 16          # H1: per-view latent width
    score_hidden: int = 8          # H2: view-weighting head width
    density_hidden: int = 32       # Hd: density branch width
    density_feature_dim: int = 8   # D_sigma: f_sigma width
    transformer_qk_dim: int = 4
    transformer_heads: int = 1
    ray_module: str = "transformer"   # "transformer" | "mixer" | "none"
    n_max: int = 32                # point capacity (mixer W1 size / padding)
    channel_scale: float = 1.0
    encoder_hidden: int = 16

    def scaled(self, scale: float) -> "ModelConfig":
        """Config with every hidden width multiplied by ``scale``.

        Used for the coarse model (paper: channel scale 0.25) and for
        channel pruning (75% sparsity -> scale 0.25 on survivors).
        """
        return replace(
            self,
            feature_dim=_scaled(self.feature_dim, scale),
            view_hidden=_scaled(self.view_hidden, scale),
            score_hidden=_scaled(self.score_hidden, scale),
            density_hidden=_scaled(self.density_hidden, scale),
            density_feature_dim=_scaled(self.density_feature_dim, scale),
            encoder_hidden=_scaled(self.encoder_hidden, scale),
            channel_scale=self.channel_scale * scale,
        )


@dataclass
class RenderOutput:
    """Per-point predictions plus bookkeeping for compositing.

    Convention at masked (padded) sample positions: ``rgb`` and
    ``sigma`` are exactly ``+0.0`` and ``any_visible`` is False on both
    the padded and the packed fine pass; ``density_features`` is
    path-dependent there (the padded path leaves the MLP-of-zeros
    values, the packed path scatters zeros) — nothing downstream reads
    masked ``density_features``, and the equivalence suite pins the
    observable fields byte-identical.
    """

    rgb: Tensor          # (R, P, 3)
    sigma: Tensor        # (R, P) non-negative densities
    density_features: Tensor  # (R, P, D_sigma), pre-ray-module
    any_visible: np.ndarray   # (R, P) point is seen by >= 1 source view


class GeneralizableNeRF(nn.Module):
    """The full conditioned NeRF: encoder + aggregation + density module."""

    def __init__(self, config: Optional[ModelConfig] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config or ModelConfig()
        rng = rng or np.random.default_rng(0)
        cfg = self.config

        self.encoder = ConvEncoder(cfg.feature_dim, hidden=cfg.encoder_hidden,
                                   rng=rng)
        view_in = cfg.feature_dim + 3 + DIRECTION_DIM
        self.view_mlp = nn.MLP(view_in, [cfg.view_hidden], cfg.view_hidden,
                               rng=rng)
        self.score_mlp = nn.MLP(3 * cfg.view_hidden, [cfg.score_hidden], 1,
                                rng=rng)
        self.color_mlp = nn.MLP(2 * cfg.view_hidden + DIRECTION_DIM,
                                [cfg.score_hidden], 1, rng=rng)
        self.density_mlp = nn.MLP(2 * cfg.view_hidden, [cfg.density_hidden],
                                  cfg.density_feature_dim, rng=rng)
        if cfg.ray_module == "transformer":
            self.ray_module = RayTransformer(cfg.density_feature_dim,
                                             qk_dim=cfg.transformer_qk_dim,
                                             heads=cfg.transformer_heads,
                                             rng=rng)
        elif cfg.ray_module == "mixer":
            self.ray_module = RayMixer(cfg.density_feature_dim, cfg.n_max,
                                       rng=rng)
        elif cfg.ray_module == "none":
            self.ray_module = PointwiseDensityHead(cfg.density_feature_dim,
                                                   rng=rng)
        else:
            raise ValueError(f"unknown ray_module {cfg.ray_module!r}")

    # ------------------------------------------------------------------
    def encode_scene(self, source_images: np.ndarray) -> Tensor:
        """One-time per-scene encoding of (S, 3, H, W) source images.

        Returns the stacked channel-last (S, Hf, Wf, C) feature tensor;
        index it per view or hand it to the batched fetcher whole.
        """
        return self.encoder.encode_views(source_images)

    def forward(self, points: np.ndarray, ray_dirs: np.ndarray,
                source_cameras: Sequence[Camera],
                feature_maps: Union[Tensor, Sequence[Tensor]],
                source_images: np.ndarray,
                mask: Optional[np.ndarray] = None,
                sparse: bool = True) -> RenderOutput:
        """Predict (rgb, sigma) for (R, P, 3) sampled points.

        ``mask`` (R, P) marks valid (non-padded) samples; padded points
        get sigma = 0 via the compositing mask downstream, but are also
        excluded from the ray module's context here.

        ``sparse`` allows the packed fine pass: when the mask has holes
        and the kernel-regime solver finds a feasible padded row count
        (none does where the host fails the check of
        :func:`repro.nn.regime.host_matches`), the feature fetch and the
        pointwise MLP stacks run on the packed valid samples only and
        the results scatter back to the dense grid before the ray
        module — byte-identical outputs, cost proportional to per-ray
        occupancy instead of N_max.  ``sparse=False`` forces the padded
        path, the reference seam of
        :func:`repro.perf.reference.model_forward_padded`.
        """
        packing = self._plan_packing(mask, len(source_cameras), sparse)
        if packing is None:
            fetched = fetch_features(points, ray_dirs, source_cameras,
                                     feature_maps, source_images,
                                     self.encoder.feature_scale)
            return self._forward_fetched(fetched, mask)
        return self._forward_packed(points, ray_dirs, source_cameras,
                                    feature_maps, source_images,
                                    np.asarray(mask, dtype=bool), packing)

    def _forward_fetched(self, fetched: FetchedFeatures,
                         mask: Optional[np.ndarray]) -> RenderOutput:
        """The padded (dense-grid) path: every (ray, point) cell pays."""
        PACK_STATS["dense"] += 1
        visibility = fetched.visibility  # (S, R, P) bool
        if mask is not None:
            visibility = visibility & np.asarray(mask, dtype=bool)[None]
        rgb, density_features, ray_mask = self._pointwise_stage(fetched,
                                                                visibility)
        return self._ray_stage(rgb, density_features, ray_mask)

    def _pointwise_stage(self, fetched: FetchedFeatures,
                         visibility: np.ndarray):
        """Steps 2-3 of the per-point pipeline: per-view latents, masked
        pooling, and the colour/density heads — everything that treats
        each sample independently of its ray neighbours.  Works on the
        dense (S, R, P, ...) grid and on packed (S, V_pad, 1, ...)
        buffers alike; all reductions run along the view axis, so each
        sample column computes identically in either layout."""
        # Dense renders usually see every point in every view; masking
        # is then multiplication by exactly 1.0 and a constant S
        # denominator, so the masking passes are skipped outright —
        # element values are unchanged (both modes share this branch,
        # so grad/inference bit-equality is unaffected).
        all_visible = bool(visibility.all())
        if all_visible:
            vis_t = None
            denom = Tensor(np.float32(visibility.shape[0]))
        else:
            vis_f = visibility.astype(np.float32)[..., None]  # (S, R, P, 1)
            vis_t = Tensor(vis_f)
            denom = Tensor(np.maximum(vis_f.sum(axis=0), 1e-6))  # (R, P, 1)
        rgb_t = Tensor(fetched.rgb)
        dirs_t = Tensor(fetched.direction_delta)

        # The aggregation MLPs consume concatenations of per-view and
        # pooled inputs; ``_mlp_split`` routes each part through its own
        # slice of the first layer's weight, so the (S, R, P, sum-width)
        # concat copies are never built and the per-ray pooled
        # statistics multiply their weight slice once instead of once
        # per view — the dominant non-gather cost of the render path.
        latents = _mlp_split(self.view_mlp,
                             [fetched.features, rgb_t, dirs_t])
        if not all_visible:
            latents = latents * vis_t

        mean = latents.sum(axis=0) / denom                  # (R, P, H1)
        centered = latents - mean.expand_dims(0)
        if not all_visible:
            centered = centered * vis_t
        var = (centered * centered).sum(axis=0) / denom     # (R, P, H1)
        mean_b = mean.expand_dims(0)                        # (1, R, P, H1)
        var_b = var.expand_dims(0)

        scores = _mlp_split(self.score_mlp,
                            [latents, mean_b, var_b])       # (S, R, P, 1)
        alpha = nn.functional.masked_softmax(
            scores, visibility[..., None], axis=0)
        pooled = (alpha * latents).sum(axis=0)              # (R, P, H1)

        color_logits = _mlp_split(self.color_mlp,
                                  [latents, mean_b, dirs_t])
        beta = nn.functional.masked_softmax(
            color_logits, visibility[..., None], axis=0)
        rgb = (beta * rgb_t).sum(axis=0)                    # (R, P, 3)

        density_features = _mlp_split(self.density_mlp,
                                      [pooled, var])         # (R, P, D_sigma)

        ray_mask = visibility.any(axis=0)                    # (R, P)
        return rgb, density_features, ray_mask

    def _ray_stage(self, rgb: Tensor, density_features: Tensor,
                   ray_mask: np.ndarray) -> RenderOutput:
        """Step 4: the cross-point density module.  Always runs on the
        dense (R, P) grid — the packed path scatters back first, so the
        Ray-Mixer / ray transformer see byte-identical inputs."""
        logits = self.ray_module(density_features, mask=ray_mask)
        sigma = nn.functional.softplus(logits) \
            * Tensor(ray_mask.astype(np.float32))
        return RenderOutput(rgb=rgb, sigma=sigma,
                            density_features=density_features,
                            any_visible=ray_mask)

    # ------------------------------------------------------------------
    # Sparse fine pass: pack -> fetch + pointwise MLPs on valid samples
    # only -> scatter zeros back -> dense ray stage.
    # ------------------------------------------------------------------
    def _forward_packed(self, points: np.ndarray, ray_dirs: np.ndarray,
                        source_cameras: Sequence[Camera],
                        feature_maps: Union[Tensor, Sequence[Tensor]],
                        source_images: np.ndarray, mask: np.ndarray,
                        packing: SamplePacking) -> RenderOutput:
        """Packed fine pass — byte-identical to the padded path.

        Each packed row is one valid (ray, point) cell, treated as a
        one-point ray: the gathered f64 points go through the same
        projection GEMM (row-stable at any count >= the padded
        alignment), the bilinear gathers and direction features are
        per-sample, and every pointwise GEMM runs at a padded row count
        chosen by :meth:`_packed_pad_bounds` to share its dense
        counterpart's kernel regime.  Valid rows then scatter into
        zero-filled dense buffers; masked cells get exactly the ``+0.0``
        the padded path computes for them (fully-masked softmax weights
        are ``+0.0`` and source colours are non-negative), so the ray
        stage and compositing see byte-identical inputs.
        """
        PACK_STATS["packed"] += 1
        num_rays, points_per_ray = mask.shape
        packed_points = points[packing.ray_index,
                               packing.point_index][:, None, :]
        packed_dirs = np.ascontiguousarray(ray_dirs[packing.ray_index])
        fetched = fetch_features(packed_points, packed_dirs, source_cameras,
                                 feature_maps, source_images,
                                 self.encoder.feature_scale)
        # Every packed row is a valid sample (padding rows replicate a
        # valid cell and are dropped below), so the sample mask is
        # all-True and per-view visibility is the whole story.
        rgb_p, density_p, ray_mask_p = self._pointwise_stage(
            fetched, fetched.visibility)

        valid, cells = packing.valid, num_rays * points_per_ray
        flat = packing.flat_index
        feature_dim = density_p.shape[-1]
        rgb = nn.functional.scatter_rows(
            rgb_p.reshape(packing.padded, 3)[:valid], flat,
            cells).reshape(num_rays, points_per_ray, 3)
        density_features = nn.functional.scatter_rows(
            density_p.reshape(packing.padded, feature_dim)[:valid], flat,
            cells).reshape(num_rays, points_per_ray, feature_dim)
        ray_mask = np.zeros(cells, dtype=bool)
        ray_mask[flat] = ray_mask_p.reshape(-1)[:valid]
        return self._ray_stage(rgb, density_features,
                               ray_mask.reshape(num_rays, points_per_ray))

    def _plan_packing(self, mask: Optional[np.ndarray], num_views: int,
                      sparse: bool) -> Optional[SamplePacking]:
        """Decide whether (and how) to pack this forward call.

        Returns None — the dense path — whenever packing cannot both
        save work and stay byte-identical: training mode (trajectories
        are pinned against the padded reference), no mask / a mask
        without holes, an infeasible kernel-regime constraint set, or a
        padded row count that wouldn't beat the dense cell count.
        """
        if mask is None or self.training or not sparse:
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            return None
        valid = int(mask.sum())
        cells = mask.size
        if valid == 0 or valid == cells:
            return None
        floor, cap = self._packed_pad_bounds(num_views, cells)
        if floor is None:
            return None
        padded = _aligned_rows(max(valid, floor))
        if cap is not None and padded > cap:
            return None
        if padded >= cells:
            return None
        return pack_samples(mask, pad_to=padded)

    def _pointwise_gemm_shapes(self, num_views: int):
        """(row-scale, K, N) of every f32 GEMM the pointwise stage
        issues.  Row-scale is the multiplier on the sample-column count:
        ``num_views`` for per-view buffers, 1 for pooled/broadcast
        buffers (``linear_split`` multiplies broadcast inputs at their
        own shape).  Later layers of a split MLP run at the widest
        family of their inputs."""
        cfg = self.config
        per_view, pooled = num_views, 1
        shapes = []

        def add_mlp(mlp, first_slices):
            layers = [m for m in mlp.net if isinstance(m, nn.Linear)]
            for width, scale in first_slices:
                shapes.append((scale, width, layers[0].out_features))
            scale = max(s for _, s in first_slices)
            for layer in layers[1:]:
                shapes.append((scale, layer.in_features,
                               layer.out_features))

        add_mlp(self.view_mlp, [(cfg.feature_dim, per_view), (3, per_view),
                                (DIRECTION_DIM, per_view)])
        add_mlp(self.score_mlp, [(cfg.view_hidden, per_view),
                                 (cfg.view_hidden, pooled),
                                 (cfg.view_hidden, pooled)])
        add_mlp(self.color_mlp, [(cfg.view_hidden, per_view),
                                 (cfg.view_hidden, pooled),
                                 (DIRECTION_DIM, per_view)])
        add_mlp(self.density_mlp, [(cfg.view_hidden, pooled),
                                   (cfg.view_hidden, pooled)])
        return shapes

    def _packed_pad_bounds(self, num_views: int, dense_columns: int):
        """(min rows, max rows | None) keeping every packed GEMM bitwise
        equal to its dense counterpart, or (None, None) if no count does
        (:func:`repro.nn.regime.batch_interval`)."""
        bounds = regime.batch_interval(
            self._pointwise_gemm_shapes(num_views), dense_columns)
        return bounds if bounds is not None else (None, None)

    # ------------------------------------------------------------------
    def per_point_flops(self, num_views: int) -> int:
        """FLOPs per sampled point at this model's (small) scale."""
        cfg = self.config
        per_view = (self.view_mlp.flops(1) + self.score_mlp.flops(1)
                    + self.color_mlp.flops(1))
        return num_views * per_view + self.density_mlp.flops(1)

    def per_ray_flops(self, points_per_ray: int) -> int:
        return self.ray_module.flops(1, points_per_ray)

    def gemm_shapes(self, num_views: int, points_per_ray: int):
        """(rows per ray, K, N) of every f32 GEMM of a dense forward
        pass: the pointwise stage's, then the ray module's."""
        return ([(scale * points_per_ray, k, n) for scale, k, n
                 in self._pointwise_gemm_shapes(num_views)]
                + self.ray_module.gemm_shapes(points_per_ray))
