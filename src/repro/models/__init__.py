"""``repro.models`` — the Gen-NeRF algorithm side (paper Secs. 2-3, 5.2).

Generalizable NeRF backbone (IBRNet-style), the ray transformer baseline
and Ray-Mixer replacement, the coarse-then-focus sampler, volume
rendering, pruning, metrics, training, and paper-scale workload
accounting.
"""

from .encoder import ConvEncoder
from .features import (FetchedFeatures, bilinear_gather,
                       feature_access_bytes, fetch_features,
                       fetched_pixel_mask)
from .footprint import FOOTPRINT_STATS, FootprintPlan, plan_conv_footprint
from .gen_nerf import GenNeRF, GenNerfConfig
from .ibrnet import GeneralizableNeRF, ModelConfig, RenderOutput
from .metrics import lpips_proxy, mse, psnr, ssim
from .oracle import OracleStrategy, oracle_render, oracle_render_image
from .pruning import (channel_importance, prune_gen_nerf,
                      prune_generalizable_nerf, select_channels)
from .ray_mixer import RayMixer
from .ray_transformer import PointwiseDensityHead, RayTransformer
from .renderer import (render_image_gen_nerf, render_image_ibrnet,
                       render_source_views, render_target_reference)
from .sampling import (SampleSet, allocate_ray_budget, coarse_then_focus_plan,
                       focused_depths, hierarchical_depths,
                       merge_critical_points, sampling_pdf,
                       stratified_depths)
from .training import (SceneData, TrainConfig, Trainer, finetune,
                       sample_pixel_batch)
from .volume_rendering import composite, expected_depth, opacity
from .workload import (DEFAULT_DIMS, PaperScaleDims, RenderWorkload,
                       encoder_macs_per_view, per_point_macs,
                       per_view_point_macs, profiling_workload,
                       ray_mixer_macs, ray_transformer_macs, table2_workload,
                       typical_workload)

__all__ = [
    "ConvEncoder", "FetchedFeatures", "bilinear_gather", "fetch_features",
    "feature_access_bytes", "fetched_pixel_mask",
    "FOOTPRINT_STATS", "FootprintPlan", "plan_conv_footprint",
    "GenNeRF", "GenNerfConfig", "GeneralizableNeRF", "ModelConfig",
    "RenderOutput", "RayMixer", "RayTransformer", "PointwiseDensityHead",
    "SampleSet", "stratified_depths", "hierarchical_depths", "sampling_pdf",
    "allocate_ray_budget", "focused_depths", "coarse_then_focus_plan",
    "merge_critical_points",
    "composite", "expected_depth", "opacity",
    "OracleStrategy", "oracle_render", "oracle_render_image",
    "psnr", "mse", "ssim", "lpips_proxy",
    "prune_generalizable_nerf", "prune_gen_nerf", "channel_importance",
    "select_channels",
    "render_source_views", "render_image_ibrnet", "render_image_gen_nerf",
    "render_target_reference",
    "SceneData", "TrainConfig", "Trainer", "finetune", "sample_pixel_batch",
    "PaperScaleDims", "DEFAULT_DIMS", "RenderWorkload", "per_point_macs",
    "per_view_point_macs", "ray_transformer_macs", "ray_mixer_macs",
    "encoder_macs_per_view", "profiling_workload", "table2_workload",
    "typical_workload",
]
