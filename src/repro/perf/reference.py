"""Seed loop implementations of the vectorised hot paths.

These are verbatim copies of the original per-ray / per-request /
per-view Python loop code that :mod:`repro.models.sampling`,
:mod:`repro.hardware.trace`, :mod:`repro.models.features`, and
:mod:`repro.hardware.scheduler` shipped with.  The scheduler's seeds
are self-contained: the per-frustum corner projection and point-major
area calculator (``_footprint_stats``, ``_polygon_areas``), the
all-slab corner unprojection (``_frustum_corners_slabs``), the
per-patch delta regions (``_delta_footprints``) and the object-built
Var-1 partition (``fixed_partition_loop``) live here, so the scheduler's
corner lattice and array-built plans are never pinned against
themselves.  They are kept for two jobs:

* the equivalence suites (``tests/models/test_sampling_equivalence.py``,
  ``tests/hardware/test_trace_equivalence.py``,
  ``tests/hardware/test_scheduler_equivalence.py``) assert the batched
  numpy paths reproduce these bit-for-bit at fixed seeds, and
* ``benchmarks/harness.py`` times them to report the speedup of the
  vectorised paths (recorded in ``BENCH_hotpaths.json``).

The end-to-end ``render_rays_chunked_loop`` reproduces the seed
inference path in structure: fixed 512-ray renderer chunks, a per-view
feature-gather loop, the v0 per-ray sampler loops, ``stack``-copied
pooled statistics, float64 colour/direction interpolation, and
grad-mode graph construction (no :class:`repro.nn.inference_mode`).
Its pixels agree with the fast path to float32 interpolation tolerance
(the fast path carries the colour and direction lerps at float32),
which ``tests/models/test_render_e2e_equivalence.py`` pins.

Do not "optimise" this module — its value is being the slow, obviously
correct original.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor
from ..hardware.dram import DramConfig
from ..hardware.interleave import FeatureStore, FootprintRegion, spatial_skew
from ..hardware.trace import MemoryRequest, ReplayResult
from ..models.features import FetchedFeatures, bilinear_gather
from ..models.sampling import SampleSet, _edges_from_centers
from ..models.volume_rendering import composite

__all__ = [
    "inverse_transform_loop", "focused_depths_loop",
    "merge_critical_points_loop", "footprint_trace_loop",
    "replay_trace_loop", "encode_views_loop", "fetch_features_loop",
    "forward_fetched_loop", "model_forward_padded",
    "render_rays_chunked_loop",
    "evaluate_candidate_loop", "plan_frame_loop", "fixed_partition_loop",
    "simulate_frame_loop",
    "AdamLoop", "clip_grad_norm_loop", "TrainerLoop", "trainer_fit_loop",
    "trainer_full_encode",
]


def inverse_transform_loop(bin_edges: np.ndarray, pdf: np.ndarray,
                           uniforms: np.ndarray) -> np.ndarray:
    """Seed ``_inverse_transform``: per-ray ``searchsorted`` loop."""
    pdf = np.maximum(pdf, 0.0) + 1e-12
    cdf = np.cumsum(pdf, axis=-1)
    cdf = cdf / cdf[..., -1:]
    cdf = np.concatenate([np.zeros_like(cdf[..., :1]), cdf], axis=-1)

    rows = np.arange(cdf.shape[0])[:, None]
    indices = np.empty(uniforms.shape, dtype=np.int64)
    for r in range(cdf.shape[0]):  # per-ray searchsorted keeps memory flat
        indices[r] = np.searchsorted(cdf[r], uniforms[r], side="right") - 1
    indices = np.clip(indices, 0, pdf.shape[-1] - 1)

    cdf_lo = cdf[rows, indices]
    cdf_hi = cdf[rows, indices + 1]
    frac = (uniforms - cdf_lo) / np.maximum(cdf_hi - cdf_lo, 1e-12)
    edge_lo = bin_edges[rows, indices]
    edge_hi = bin_edges[rows, indices + 1]
    return edge_lo + frac * (edge_hi - edge_lo)


def focused_depths_loop(coarse_depths: np.ndarray, point_pdf: np.ndarray,
                        counts: np.ndarray, n_max: int, near: float,
                        far: float, rng: np.random.Generator) -> SampleSet:
    """Seed ``focused_depths``: per-ray slice/sort/pack loop."""
    num_rays = coarse_depths.shape[0]
    counts = np.minimum(np.asarray(counts, dtype=np.int64), n_max)
    edges = _edges_from_centers(coarse_depths, near, far)
    max_count = int(counts.max()) if len(counts) else 0
    depths = np.full((num_rays, n_max), far, dtype=np.float64)
    mask = np.zeros((num_rays, n_max), dtype=bool)
    if max_count == 0:
        return SampleSet(depths, mask)

    uniforms = rng.random((num_rays, max_count))
    all_samples = inverse_transform_loop(edges, point_pdf, uniforms)
    for j in range(num_rays):
        c = int(counts[j])
        if c == 0:
            continue
        chosen = np.sort(all_samples[j, :c])
        depths[j, :c] = chosen
        mask[j, :c] = True
    return SampleSet(depths, mask)


def merge_critical_points_loop(plan: SampleSet, coarse_depths: np.ndarray,
                               coarse_weights: np.ndarray, tau: float,
                               n_max: int, far: float) -> SampleSet:
    """Seed ``merge_critical_points``: per-ray concatenate/unique loop."""
    weights = np.asarray(coarse_weights)
    critical = weights * max(weights.shape[-1], 1) >= tau
    num_rays = plan.depths.shape[0]
    depths = np.full((num_rays, n_max), far, dtype=np.float64)
    mask = np.zeros((num_rays, n_max), dtype=bool)
    for j in range(num_rays):
        merged = np.concatenate([plan.depths[j][plan.mask[j]],
                                 coarse_depths[j][critical[j]]])
        merged = np.unique(merged)[:n_max]
        depths[j, :len(merged)] = merged
        mask[j, :len(merged)] = True
    return SampleSet(depths, mask)


def footprint_trace_loop(store: FeatureStore, region: FootprintRegion,
                         num_banks: int, row_bytes: int
                         ) -> Iterator[MemoryRequest]:
    """Seed ``footprint_trace``: per-location generator with a Python
    per-bank byte cursor."""
    skew = spatial_skew(num_banks)
    cursors = [0] * num_banks
    for row in range(region.row0, region.row1):
        for col in range(region.col0, region.col1):
            if store.layout == "row_major":
                rows_per_bank = max(1, (store.num_views * store.height)
                                    // num_banks)
                bank = min((region.view * store.height + row)
                           // rows_per_bank, num_banks - 1)
            elif store.layout == "row_interleaved":
                bank = (region.view * store.height + row) % num_banks
            elif store.layout == "view_interleaved":
                bank = region.view % num_banks
            else:
                bank = (skew * row + col) % num_banks
            dram_row = cursors[bank] // row_bytes
            cursors[bank] += store.location_bytes
            yield MemoryRequest(bank=bank, row=dram_row,
                                num_bytes=store.location_bytes)


def replay_trace_loop(requests: Sequence[MemoryRequest],
                      config: DramConfig = DramConfig()) -> ReplayResult:
    """Seed ``replay_trace``: per-request bank state machine loop."""
    bank_time = np.zeros(config.num_banks)
    open_row = np.full(config.num_banks, -1, dtype=np.int64)
    total_bytes = 0.0
    hits = 0
    misses = 0
    for request in requests:
        bursts = int(np.ceil(request.num_bytes / config.burst_bytes))
        time = bursts * config.t_burst_s
        if open_row[request.bank] != request.row:
            time += config.t_rc_s
            open_row[request.bank] = request.row
            misses += 1
        else:
            hits += 1
        bank_time[request.bank] += time
        total_bytes += request.num_bytes

    bus_time = total_bytes / config.peak_bandwidth_bytes
    service = max(float(bank_time.max(initial=0.0)), bus_time)
    return ReplayResult(service_time_s=service, total_bytes=total_bytes,
                        row_hits=hits, row_misses=misses)


# ----------------------------------------------------------------------
# Seed end-to-end inference path (pre-batched-gather, pre-no-grad mode)
# ----------------------------------------------------------------------

def encode_views_loop(encoder, images: np.ndarray) -> List[Tensor]:
    """Seed ``ConvEncoder.encode_views``: per-image transpose list."""
    features = encoder.forward(Tensor(np.asarray(images, dtype=np.float32)))
    return [features[i].transpose((1, 2, 0))
            for i in range(features.shape[0])]


def _bilinear_numpy_loop(image_hwc: np.ndarray,
                         pixels: np.ndarray) -> np.ndarray:
    """Seed float64 bilinear sample of one (H, W, C) view."""
    height, width = image_hwc.shape[:2]
    u = np.clip(pixels[:, 0], 0.0, width - 1.0)
    v = np.clip(pixels[:, 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0)[:, None]
    fy = (v - y0)[:, None]
    top = image_hwc[y0, x0] * (1 - fx) + image_hwc[y0, x1] * fx
    bottom = image_hwc[y1, x0] * (1 - fx) + image_hwc[y1, x1] * fx
    return (top * (1 - fy) + bottom * fy).astype(np.float32)


def _direction_features_loop(points: np.ndarray, ray_dirs: np.ndarray,
                             source) -> np.ndarray:
    """Seed per-view relative direction encoding (float64 geometry)."""
    to_point = points - source.center
    norms = np.linalg.norm(to_point, axis=-1, keepdims=True)
    source_dirs = to_point / np.maximum(norms, 1e-9)
    target_dirs = np.broadcast_to(ray_dirs[:, None, :], points.shape)
    diff = target_dirs - source_dirs
    dot = np.sum(target_dirs * source_dirs, axis=-1, keepdims=True)
    return np.concatenate([diff, dot], axis=-1).astype(np.float32)


def fetch_features_loop(points: np.ndarray, ray_dirs: np.ndarray,
                        source_cameras, feature_maps: Sequence[Tensor],
                        source_images: np.ndarray,
                        feature_scale: float = 0.5) -> FetchedFeatures:
    """Seed ``fetch_features``: one Python iteration per source view."""
    num_views = len(source_cameras)
    rays, pts_per_ray = points.shape[0], points.shape[1]
    flat_points = points.reshape(-1, 3)

    view_features = []
    view_rgb = np.empty((num_views, rays, pts_per_ray, 3), dtype=np.float32)
    view_dirs = np.empty((num_views, rays, pts_per_ray, 4), dtype=np.float32)
    view_visible = np.empty((num_views, rays, pts_per_ray), dtype=bool)

    for index, camera in enumerate(source_cameras):
        pixels, depth = camera.project(flat_points, return_depth=True)
        finite = np.isfinite(pixels).all(axis=-1) & (depth > 1e-6)
        safe_pixels = np.where(finite[:, None], pixels, 0.0)

        feature_pixels = safe_pixels * feature_scale
        gathered = bilinear_gather(feature_maps[index], feature_pixels)
        view_features.append(
            gathered.reshape(rays, pts_per_ray, gathered.shape[-1]))

        image_hwc = np.ascontiguousarray(
            np.transpose(source_images[index], (1, 2, 0)).astype(np.float32))
        rgb = _bilinear_numpy_loop(image_hwc, safe_pixels)
        view_rgb[index] = rgb.reshape(rays, pts_per_ray, 3)

        view_dirs[index] = _direction_features_loop(points, ray_dirs, camera)
        inside = (finite
                  & (pixels[:, 0] >= 0)
                  & (pixels[:, 0] <= camera.intrinsics.width - 1)
                  & (pixels[:, 1] >= 0)
                  & (pixels[:, 1] <= camera.intrinsics.height - 1))
        view_visible[index] = inside.reshape(rays, pts_per_ray)

    stacked = nn.concatenate([f.expand_dims(0) for f in view_features],
                             axis=0)
    return FetchedFeatures(features=stacked, rgb=view_rgb,
                           direction_delta=view_dirs,
                           visibility=view_visible)


def forward_fetched_loop(model, fetched: FetchedFeatures,
                         mask) -> "object":
    """Seed ``GeneralizableNeRF._forward_fetched``: ``stack``-copied
    pooled statistics instead of broadcast views."""
    from ..models.ibrnet import RenderOutput

    num_views = fetched.num_views
    visibility = fetched.visibility
    if mask is not None:
        visibility = visibility & np.asarray(mask, dtype=bool)[None]
    vis_f = visibility.astype(np.float32)[..., None]
    vis_t = Tensor(vis_f)

    per_view_in = nn.concatenate(
        [fetched.features, Tensor(fetched.rgb),
         Tensor(fetched.direction_delta)], axis=-1)
    latents = model.view_mlp(per_view_in) * vis_t

    denom = Tensor(np.maximum(vis_f.sum(axis=0), 1e-6))
    mean = latents.sum(axis=0) / denom
    centered = (latents - mean.expand_dims(0)) * vis_t
    var = (centered * centered).sum(axis=0) / denom

    mean_b = nn.stack([mean] * num_views, axis=0)
    var_b = nn.stack([var] * num_views, axis=0)

    scores = model.score_mlp(
        nn.concatenate([latents, mean_b, var_b], axis=-1))
    alpha = nn.functional.masked_softmax(
        scores, visibility[..., None], axis=0)
    pooled = (alpha * latents).sum(axis=0)

    color_logits = model.color_mlp(
        nn.concatenate([latents, mean_b,
                        Tensor(fetched.direction_delta)], axis=-1))
    beta = nn.functional.masked_softmax(
        color_logits, visibility[..., None], axis=0)
    rgb = (beta * Tensor(fetched.rgb)).sum(axis=0)

    density_features = model.density_mlp(
        nn.concatenate([pooled, var], axis=-1))

    ray_mask = visibility.any(axis=0)
    logits = model.ray_module(density_features, mask=ray_mask)
    sigma = nn.functional.softplus(logits) \
        * Tensor(ray_mask.astype(np.float32))
    return RenderOutput(rgb=rgb, sigma=sigma,
                        density_features=density_features,
                        any_visible=ray_mask)


def model_forward_padded(model, points: np.ndarray, ray_dirs: np.ndarray,
                         source_cameras, feature_maps,
                         source_images: np.ndarray, mask=None):
    """Pinned padded reference for the sparse fine pass.

    Forces the dense ``(R, n_max)`` grid path (``sparse=False``) — the
    layout every committed artefact was generated with.  The sparse
    equivalence suite (``tests/models/test_sparse_fine_pass.py``)
    asserts the packed path reproduces this output **byte-for-byte**,
    the same convention as the other equivalence pins in this module.
    Unlike the seed loops above, this is not a historical copy: it calls
    the current model with the packing disabled, so it tracks pointwise
    stage changes while staying layout-pinned.
    """
    return model(points, ray_dirs, source_cameras, feature_maps,
                 source_images, mask=mask, sparse=False)


def _model_forward_loop(model, points: np.ndarray, ray_dirs: np.ndarray,
                        source_cameras, feature_maps: Sequence[Tensor],
                        source_images: np.ndarray, mask=None):
    fetched = fetch_features_loop(points, ray_dirs, source_cameras,
                                  feature_maps, source_images,
                                  model.encoder.feature_scale)
    return forward_fetched_loop(model, fetched, mask)


def render_rays_chunked_loop(model, bundle, source_cameras,
                             coarse_maps: Sequence[Tensor],
                             fine_maps: Sequence[Tensor],
                             source_images: np.ndarray,
                             chunk: int = 512) -> np.ndarray:
    """Seed end-to-end inference: fixed-size renderer chunks, per-view
    gathers, the v0 per-ray sampler loops, and full grad-mode graph
    construction (the path a naive ``render_rays`` call took before
    ``inference_mode``)."""
    from ..geometry.rays import stratified_depths
    from ..models.sampling import allocate_ray_budget, sampling_pdf

    cfg = model.config
    out = np.zeros((len(bundle), 3), dtype=np.float64)
    for start in range(0, len(bundle), chunk):
        part = bundle.select(slice(start, start + chunk))

        chosen = model.select_coarse_views(part, source_cameras)
        cams = [source_cameras[i] for i in chosen]
        maps = [coarse_maps[i] for i in chosen]
        images = source_images[chosen]
        gen = np.random.default_rng(0)
        coarse_depths = stratified_depths(gen, len(part), cfg.coarse_points,
                                          part.near, part.far, jitter=False)
        coarse_points = part.points_at(coarse_depths)
        coarse_out = _model_forward_loop(model.coarse, coarse_points,
                                         part.directions, cams, maps, images)
        _, weights = composite(coarse_out.sigma, coarse_out.rgb,
                               coarse_depths, part.far)
        coarse_weights = weights.data.astype(np.float64)

        # Steps 2-3 with the v0 per-ray loops (the same seed loop
        # implementations the sampling benches time).
        plan_gen = np.random.default_rng(0)
        ray_p, point_pdf, _ = sampling_pdf(coarse_weights, cfg.tau)
        budget = cfg.focused_points * len(part)
        counts = allocate_ray_budget(ray_p, budget, cfg.n_max)
        plan = focused_depths_loop(coarse_depths, point_pdf, counts,
                                   cfg.n_max, part.near, part.far, plan_gen)
        plan = merge_critical_points_loop(plan, coarse_depths,
                                          coarse_weights, cfg.tau,
                                          cfg.n_max, part.far)

        fine_points = part.points_at(plan.depths)
        fine_out = _model_forward_loop(model.fine, fine_points,
                                       part.directions, source_cameras,
                                       fine_maps, source_images,
                                       mask=plan.mask)
        bin_width = (part.far - part.near) / max(cfg.coarse_points, 1)
        pixel, _ = composite(fine_out.sigma, fine_out.rgb, plan.depths,
                             part.far, mask=plan.mask, max_delta=bin_width)
        out[start:start + chunk] = pixel.data
    return out


# ----------------------------------------------------------------------
# Seed scheduler slab sweep (per-slab / per-view footprint loops)
# ----------------------------------------------------------------------

def _polygon_areas(points: np.ndarray) -> np.ndarray:
    """Areas of near-convex point sets (T, K, 2) via centroid-angle sort.

    Exact for points in convex position (true for projected frustum
    corners away from degeneracies); a documented estimator otherwise —
    this is the same quantity the hardware's area calculator produces
    from the projected tetragon.
    """
    centroid = points.mean(axis=1, keepdims=True)
    angles = np.arctan2(points[..., 1] - centroid[..., 1],
                        points[..., 0] - centroid[..., 0])
    order = np.argsort(angles, axis=1)
    ordered = np.take_along_axis(points, order[..., None], axis=1)
    x, y = ordered[..., 0], ordered[..., 1]
    x_next = np.roll(x, -1, axis=1)
    y_next = np.roll(y, -1, axis=1)
    return 0.5 * np.abs(np.sum(x * y_next - y * x_next, axis=1))


def _frustum_corners_slabs(novel, h0: np.ndarray,
                           w0: np.ndarray, h1: np.ndarray,
                           w1: np.ndarray, depth_edges: np.ndarray
                           ) -> np.ndarray:
    """(n_slabs, T, 8, 3) world corners for every depth slab at once.

    ``depth_edges`` has n_slabs+1 entries; slab s spans
    [edges[s], edges[s+1]].  One unprojection covers all slabs — the
    per-point math is unchanged from the per-slab version, so the
    corners are bit-identical.
    """
    tiles = h0.shape[0]
    n_slabs = depth_edges.shape[0] - 1
    pixel_corners = np.stack([
        np.stack([w0, h0], axis=-1),
        np.stack([w1, h0], axis=-1),
        np.stack([w1, h1], axis=-1),
        np.stack([w0, h1], axis=-1),
    ], axis=1).astype(np.float64)                      # (T, 4, 2)
    # (n_slabs, 2 ends, T, 4 corners): every (slab, end) pair reuses
    # the same pixel corners at its own depth.
    slab_depths = np.stack([depth_edges[:-1], depth_edges[1:]], axis=1)
    pixels = np.broadcast_to(pixel_corners,
                             (n_slabs, 2, tiles, 4, 2)).reshape(-1, 2)
    depths = np.broadcast_to(slab_depths[..., None, None],
                             (n_slabs, 2, tiles, 4)).reshape(-1)
    points = novel.unproject(pixels, depths)
    corners = points.reshape(n_slabs, 2, tiles, 4, 3)
    return corners.transpose(0, 2, 1, 3, 4).reshape(n_slabs, tiles, 8, 3)


def _footprint_stats(scheduler, corners: np.ndarray, source
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-tile (location count, bbox rows/cols) on one source view.

    Returns ``(locations, bbox)`` with bbox as (T, 4) int arrays of
    (row0, row1, col0, col1) at feature resolution, clipped to the
    feature map.  Tiles with corners behind the camera are charged
    the full feature map (worst case, forcing the comparator away
    from such shapes).
    """
    cfg = scheduler.config
    feat_w = max(1, int(round(source.intrinsics.width * cfg.feature_scale)))
    feat_h = max(1, int(round(source.intrinsics.height * cfg.feature_scale)))
    tiles = corners.shape[0]

    pixels, depth = source.project(corners.reshape(-1, 3),
                                   return_depth=True)
    pixels = (pixels * cfg.feature_scale).reshape(tiles, 8, 2)
    depth = depth.reshape(tiles, 8)
    bad = (depth <= 1e-9).any(axis=1)

    clipped = np.clip(pixels, [0.0, 0.0], [feat_w - 1.0, feat_h - 1.0])
    areas = _polygon_areas(clipped)
    col0 = np.floor(clipped[..., 0].min(axis=1)).astype(np.int64)
    col1 = np.ceil(clipped[..., 0].max(axis=1)).astype(np.int64) + 1
    row0 = np.floor(clipped[..., 1].min(axis=1)).astype(np.int64)
    row1 = np.ceil(clipped[..., 1].max(axis=1)).astype(np.int64) + 1

    guard = cfg.guard_band * ((row1 - row0) + (col1 - col0))
    locations = np.minimum(areas + guard, float(feat_w * feat_h))
    locations = np.where(bad, float(feat_w * feat_h), locations)
    row0 = np.where(bad, 0, row0)
    row1 = np.where(bad, feat_h, row1)
    col0 = np.where(bad, 0, col0)
    col1 = np.where(bad, feat_w, col1)
    bbox = np.stack([row0, row1, col0, col1], axis=-1)
    return locations, bbox


def _delta_footprints(bboxes_sv: np.ndarray, delta_locs_sv: np.ndarray
                      ) -> List[FootprintRegion]:
    """Footprint regions for the delta-fetched part of a slab patch.

    The DRAM-visible region keeps each view's bbox row span (row
    activations are per feature row) with the column span shrunk to
    carry the delta location count.
    """
    regions: List[FootprintRegion] = []
    for view in range(bboxes_sv.shape[0]):
        row0, row1, col0, col1 = (int(x) for x in bboxes_sv[view])
        rows = max(1, row1 - row0)
        cols = max(1, int(np.ceil(delta_locs_sv[view] / rows)))
        cols = min(cols, max(1, col1 - col0))
        regions.append(FootprintRegion(view=view, row0=row0, row1=row1,
                                       col0=col0, col1=col0 + cols))
    return regions


def evaluate_candidate_loop(scheduler, novel, sources, height: int,
                            width: int, shape, near: float, far: float
                            ) -> Tuple[np.ndarray, ...]:
    """Seed ``GreedyPatchScheduler.evaluate_candidate``: one frustum
    projection per (slab, view) pair and a per-slab overlap loop."""
    cfg = scheduler.config
    h0, w0 = scheduler._tile_grid(height, width, shape)
    h1 = np.minimum(h0 + shape.dh, height)
    w1 = np.minimum(w0 + shape.dw, width)
    n_slabs = cfg.depth_bins // shape.dd
    tiles = h0.shape[0]
    num_views = len(sources)

    def frustum_corners(depth_lo, depth_hi):
        pixel_corners = np.stack([
            np.stack([w0, h0], axis=-1),
            np.stack([w1, h0], axis=-1),
            np.stack([w1, h1], axis=-1),
            np.stack([w0, h1], axis=-1),
        ], axis=1).astype(np.float64)
        corners = np.empty((tiles, 8, 3))
        for index, depth in enumerate((depth_lo, depth_hi)):
            pts = novel.unproject(pixel_corners.reshape(-1, 2),
                                  np.full(tiles * 4, depth))
            corners[:, index * 4:(index + 1) * 4, :] = \
                pts.reshape(tiles, 4, 3)
        return corners

    locs = np.zeros((tiles, n_slabs, num_views))
    bboxes = np.zeros((tiles, n_slabs, num_views, 4), dtype=np.int64)
    for slab in range(n_slabs):
        depth_lo = near + (far - near) * (slab * shape.dd) / cfg.depth_bins
        depth_hi = near + (far - near) * ((slab + 1) * shape.dd) \
            / cfg.depth_bins
        corners = frustum_corners(depth_lo, depth_hi)
        for view, source in enumerate(sources):
            locations, bbox = _footprint_stats(scheduler, corners, source)
            locs[:, slab, view] = locations
            bboxes[:, slab, view] = bbox

    delta_locs = locs.copy()
    for slab in range(1, n_slabs):
        prev = bboxes[:, slab - 1]
        curr = bboxes[:, slab]
        inter_rows = np.maximum(
            0, np.minimum(prev[..., 1], curr[..., 1])
            - np.maximum(prev[..., 0], curr[..., 0]))
        inter_cols = np.maximum(
            0, np.minimum(prev[..., 3], curr[..., 3])
            - np.maximum(prev[..., 2], curr[..., 2]))
        area = np.maximum(
            (curr[..., 1] - curr[..., 0])
            * (curr[..., 3] - curr[..., 2]), 1)
        overlap_fraction = np.clip(inter_rows * inter_cols / area, 0, 1)
        delta_locs[:, slab] *= (1.0 - overlap_fraction)
    delta_locs = np.maximum(delta_locs, 16.0)

    elem = cfg.channels * cfg.bytes_per_element
    full_bytes = locs.sum(axis=2) * elem
    delta_bytes = delta_locs.sum(axis=2) * elem
    return h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs, bboxes


def plan_frame_loop(scheduler, novel, sources, near: float, far: float):
    """Seed ``GreedyPatchScheduler.plan_frame``: per-(slab, view)
    candidate evaluation plus the per-tile / per-slab Python patch
    assembly with per-patch ``int`` conversions."""
    from ..hardware.scheduler import FramePlan, Patch

    cfg = scheduler.config
    height = novel.intrinsics.height
    width = novel.intrinsics.width
    macro = cfg.macro_tile
    macro_rows = int(np.ceil(height / macro))
    macro_cols = int(np.ceil(width / macro))
    num_macros = macro_rows * macro_cols

    per_candidate = []
    macro_cost = np.full((len(cfg.candidates), num_macros), np.inf)
    for c_index, shape in enumerate(cfg.candidates):
        evaluated = evaluate_candidate_loop(scheduler, novel, sources,
                                            height, width, shape, near, far)
        h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs, bboxes = \
            evaluated
        per_candidate.append(evaluated)
        macro_index = (h0 // macro) * macro_cols + (w0 // macro)
        tile_total = delta_bytes.sum(axis=1)
        fits = (full_bytes <= cfg.buffer_bytes).all(axis=1)
        cost = np.where(fits, tile_total, np.inf)
        sums = np.zeros(num_macros)
        bad = np.zeros(num_macros, dtype=bool)
        np.add.at(sums, macro_index, np.where(np.isinf(cost), 0.0, cost))
        np.logical_or.at(bad, macro_index, np.isinf(cost))
        macro_cost[c_index] = np.where(bad, np.inf, sums)

    chosen = np.argmin(macro_cost, axis=0)
    fallback = int(np.argmin([c.cells for c in cfg.candidates]))
    no_fit = np.isinf(macro_cost.min(axis=0))
    chosen[no_fit] = fallback

    patches = []
    histogram = {c: 0 for c in cfg.candidates}
    total_bytes = 0.0
    for c_index, shape in enumerate(cfg.candidates):
        h0, w0, h1, w1, full_bytes, delta_bytes, delta_locs, bboxes = \
            per_candidate[c_index]
        macro_index = (h0 // macro) * macro_cols + (w0 // macro)
        selected_tiles = np.where(chosen[macro_index] == c_index)[0]
        if selected_tiles.size == 0:
            continue
        n_slabs = delta_bytes.shape[1]
        histogram[shape] += selected_tiles.size * n_slabs
        for t in selected_tiles:
            for slab in range(n_slabs):
                d0 = slab * shape.dd
                footprints = _delta_footprints(bboxes[t, slab],
                                               delta_locs[t, slab])
                resident = [
                    FootprintRegion(view=v,
                                    row0=int(bboxes[t, slab, v, 0]),
                                    row1=int(bboxes[t, slab, v, 1]),
                                    col0=int(bboxes[t, slab, v, 2]),
                                    col1=int(bboxes[t, slab, v, 3]))
                    for v in range(len(sources))]
                patch = Patch(h0=int(h0[t]), h1=int(h1[t]),
                              w0=int(w0[t]), w1=int(w1[t]),
                              d0=d0, d1=d0 + shape.dd,
                              prefetch_bytes=float(delta_bytes[t, slab]),
                              footprints=footprints,
                              resident_footprints=resident)
                patches.append(patch)
                total_bytes += patch.prefetch_bytes
    return FramePlan(patches=patches, total_prefetch_bytes=total_bytes,
                     candidate_histogram=histogram, image_height=height,
                     image_width=width, depth_bins=cfg.depth_bins)


def fixed_partition_loop(novel, sources, near: float, far: float, config):
    """Var-1 baseline (Fig. 12): constant {k, k, D} patches.

    k is the largest candidate-independent square tile whose worst-case
    footprint fits the prefetch buffer; patches span the full depth
    range, so footprints are long epipolar stripes and neighbouring
    tiles re-fetch heavily overlapping regions (no depth-delta reuse is
    possible — each tile is a single patch).

    Seed ``repro.hardware.scheduler.fixed_partition``: one
    :class:`Patch` of :class:`FootprintRegion` objects per tile, packed
    into arrays only when a consumer reads ``plan.arrays``.  Tiles are
    costed by :func:`evaluate_candidate_loop`.
    """
    from ..hardware.scheduler import (FramePlan, GreedyPatchScheduler,
                                      Patch, PatchShape)

    scheduler = GreedyPatchScheduler(config)
    height = novel.intrinsics.height
    width = novel.intrinsics.width

    best_plan = None
    k = config.macro_tile
    while k >= 4:
        shape = PatchShape(k, k, config.depth_bins)
        h0, w0, h1, w1, full_bytes, _delta, delta_locs, bboxes = \
            evaluate_candidate_loop(scheduler, novel, sources, height,
                                    width, shape, near, far)
        if (full_bytes <= config.buffer_bytes).all() or k == 4:
            patches = []
            total = 0.0
            bbox_list = bboxes[:, 0].tolist()
            bytes_list = full_bytes[:, 0].tolist()
            bounds = np.stack([h0, h1, w0, w1], axis=-1).tolist()
            for t, (th0, th1, tw0, tw1) in enumerate(bounds):
                footprints = [FootprintRegion(view=v, row0=bb[0], row1=bb[1],
                                              col0=bb[2], col1=bb[3])
                              for v, bb in enumerate(bbox_list[t])]
                patches.append(Patch(h0=th0, h1=th1, w0=tw0, w1=tw1,
                                     d0=0, d1=config.depth_bins,
                                     prefetch_bytes=bytes_list[t],
                                     footprints=footprints))
                total += patches[-1].prefetch_bytes
            best_plan = FramePlan(patches=patches, total_prefetch_bytes=total,
                                  candidate_histogram={shape: len(patches)},
                                  image_height=height, image_width=width,
                                  depth_bins=config.depth_bins)
            break
        k //= 2
    assert best_plan is not None
    return best_plan


# ----------------------------------------------------------------------
# Seed accelerator frame simulation (per-patch Python loop)
# ----------------------------------------------------------------------

def simulate_frame_loop(accelerator, workload, novel, sources, near: float,
                        far: float, keep_plan: bool = False, plan=None):
    """Seed ``GenNerfAccelerator.simulate_frame``: one Python iteration
    per point patch, each calling ``bank_load_for_footprints`` twice
    (DRAM delta fetch + SRAM residency), ``dram.service``, and the
    memoised ``engine.patch_compute``.

    ``accelerator`` is a :class:`repro.hardware.GenNerfAccelerator`;
    ``plan`` optionally injects a precomputed
    :class:`repro.hardware.FramePlan` (both paths plan identically, so
    sharing one plan lets the equivalence suite and the bench isolate
    the frame-simulation arithmetic).
    """
    from ..hardware.interleave import (balance_factor,
                                       bank_load_for_footprints)
    from ..hardware.scheduler import GreedyPatchScheduler
    from ..hardware.sram import PrefetchDoubleBuffer

    self = accelerator
    if len(sources) != workload.num_views:
        raise ValueError(f"workload expects {workload.num_views} views, "
                         f"got {len(sources)} cameras")
    cfg = self.config
    freq = cfg.frequency_hz
    if plan is None:
        plan = self.plan_frame(novel, sources, near, far, workload)
    store = self._feature_store(workload, sources)
    # On-chip copy of the layout: the prefetch scratchpads use the
    # same interleaving scheme over their own bank count (Sec. 4.5).
    sram_banks = cfg.engine.prefetch_sram.num_banks
    sram_store = store

    points_per_cell = workload.fine_points_per_ray / plan.depth_bins

    fetch_times = np.empty(plan.num_patches)
    compute_times = np.empty(plan.num_patches)
    pool_macs = 0.0
    pool_busy_cycles = 0.0
    dram_energy_pj = 0.0
    sram_bytes = 0.0
    sfu_ops = 0.0

    for index, patch in enumerate(plan.patches):
        bank_bytes, bank_acts = bank_load_for_footprints(
            store, patch.footprints, cfg.dram.num_banks)
        stats = self.dram.service(bank_bytes, bank_acts)
        fetch_times[index] = stats.service_time_s
        dram_energy_pj += stats.energy_pj

        sram_bank_bytes, _ = bank_load_for_footprints(
            sram_store, patch.resident_footprints, sram_banks)
        balance = balance_factor(sram_bank_bytes)
        cells = patch.num_pixels * patch.num_depth_bins
        num_points = max(1, int(round(cells * points_per_cell)))
        num_rays = patch.num_pixels
        compute = self.engine.patch_compute(workload, num_points,
                                            num_rays,
                                            sram_balance=balance)
        compute_times[index] = compute.cycles / freq
        pool_macs += compute.pool_macs
        pool_busy_cycles += compute.pool_cycles
        sram_bytes += patch.prefetch_bytes * 2  # write then read
        sfu_ops += self.engine.sfu.ops_for_points(num_points)

    pipeline_s, engine_busy_s = PrefetchDoubleBuffer.pipeline_time(
        fetch_times, compute_times)

    # Stage 1: the lightweight coarse pass (Sec. 4.5).
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

    from ..hardware.accelerator import FrameSimulation
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


# ----------------------------------------------------------------------
# Seed training step (per-parameter Adam loop, per-step GT rendering)
# ----------------------------------------------------------------------

class AdamLoop:
    """Seed :class:`repro.nn.Adam`: one Python iteration per
    ``Parameter``, separate moment arrays, ~10 numpy dispatches each —
    the loop the fused flat-buffer optimiser replaced."""

    def __init__(self, parameters, lr: float = 5e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, schedule=None):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.schedule = schedule or nn.ConstantLR(lr)
        self.step_count = 0
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    @property
    def lr(self) -> float:
        return self.schedule(self.step_count)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        lr = self.lr
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm_loop(parameters, max_norm: float) -> float:
    """Seed ``clip_grad_norm``: the standalone out-of-place helper the
    fused optimiser folded into ``step()``."""
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            param.grad = param.grad * scale
    return total


class TrainerLoop:
    """Seed :class:`repro.models.Trainer`: identical pixel-stream
    protocol, but every amortisation unwound — ground truth rendered
    per step (no blocked quadrature, no ``SceneData.gt_cache``), no
    scene-level im2col sharing, unfused :class:`AdamLoop` plus the
    standalone gradient clip.  ``tests/models/test_training_equivalence``
    pins losses and final weights of the fast trainer bit-identical to
    this loop; ``benchmarks/harness.py`` times both as
    ``training_step_e2e``."""

    def __init__(self, model, scenes, config):
        from ..models.training import draw_pixel_block
        from ..models.gen_nerf import GenNeRF as _GenNeRF

        self._draw_pixel_block = draw_pixel_block
        self._gen_nerf_cls = _GenNeRF
        self.model = model
        self.scenes = list(scenes)
        self.config = config
        schedule = nn.ExponentialDecayLR(config.learning_rate,
                                         config.lr_decay_rate,
                                         config.lr_decay_steps)
        self.optimizer = AdamLoop(model.parameters(), schedule=schedule)
        self.rng = np.random.default_rng(config.seed)
        self.pixel_rng = np.random.default_rng((config.seed, 0x5EED))
        self.history = []
        self._step_index = 0
        self._block = []

    def _ground_truth(self, scene_data, bundle) -> np.ndarray:
        from ..scenes.render_gt import render_rays as render_gt_rays
        return render_gt_rays(
            scene_data.scene.field, bundle, self.config.gt_points,
            white_background=scene_data.scene.spec.white_background)

    def _loss(self, scene_data, bundle, target):
        from ..geometry.rays import stratified_depths
        from ..nn import functional as F

        model = self.model
        if isinstance(model, self._gen_nerf_cls):
            coarse_maps, fine_maps = model.encode_scene(
                scene_data.source_images)
            coarse_depths, coarse_weights, coarse_out = model.coarse_pass(
                bundle, scene_data.scene.source_cameras, coarse_maps,
                scene_data.source_images, rng=self.rng)
            samples = model.plan_samples(coarse_depths, coarse_weights,
                                         bundle, rng=self.rng, min_points=2)
            pixel, _, _ = model.fine_pass(bundle, samples,
                                          scene_data.scene.source_cameras,
                                          fine_maps,
                                          scene_data.source_images)
            loss = F.mse_loss(pixel, target.astype(np.float32))
            coarse_pixel, _ = composite(coarse_out.sigma, coarse_out.rgb,
                                        coarse_depths, bundle.far)
            coarse_loss = F.mse_loss(coarse_pixel,
                                     target.astype(np.float32))
            return loss + self.config.coarse_loss_weight * coarse_loss
        feature_maps = model.encode_scene(scene_data.source_images)
        depths = stratified_depths(self.rng, len(bundle),
                                   self.config.num_points, bundle.near,
                                   bundle.far, jitter=True)
        points = bundle.points_at(depths)
        output = model(points, bundle.directions,
                       scene_data.scene.source_cameras, feature_maps,
                       scene_data.source_images)
        pixel, _ = composite(output.sigma, output.rgb, depths, bundle.far)
        return F.mse_loss(pixel, target.astype(np.float32))

    def step(self) -> float:
        from ..geometry.rays import rays_for_pixels

        cfg = self.config
        offset = self._step_index % cfg.pixel_block_steps
        if offset == 0:
            self._block = self._draw_pixel_block(self.scenes, cfg,
                                                 self.pixel_rng)
        scene_pos, pixels = self._block[offset]
        scene_data = self.scenes[scene_pos]
        bundle = rays_for_pixels(scene_data.scene.target_camera, pixels,
                                 scene_data.scene.near,
                                 scene_data.scene.far)
        target = self._ground_truth(scene_data, bundle)

        self.optimizer.zero_grad()
        loss = self._loss(scene_data, bundle, target)
        loss.backward()
        clip_grad_norm_loop(self.optimizer.parameters, cfg.grad_clip)
        self.optimizer.step()
        self._step_index += 1
        value = loss.item()
        self.history.append(value)
        return value

    def fit(self, steps: int):
        for _ in range(steps):
            self.step()
        return self.history


def trainer_fit_loop(model, scenes, config, steps: int):
    """Run ``steps`` seed training steps; returns the loss history."""
    return TrainerLoop(model, scenes, config).fit(steps)


def trainer_full_encode(model, scenes, config):
    """Pinned full-encode reference for the footprint-restricted
    training encode.

    Returns a :class:`repro.models.Trainer` with the footprint planner
    forced off (``footprint=False``) — every step convolves the whole
    source image stack, the layout every committed training artefact
    was generated with.  The footprint equivalence suite
    (``tests/models/test_footprint_equivalence.py``) asserts the
    restricted encode reproduces this trainer's losses, encoder
    gradients, and final weights **byte-for-byte**.  Like
    :func:`model_forward_padded`, this is not a historical copy: it
    runs the current trainer with the optimisation disabled, so it
    tracks trainer changes while staying layout-pinned.
    """
    from ..models.training import Trainer
    return Trainer(model, scenes, config, footprint=False)
