"""High-level image rendering with trained models.

Chunked, no-grad rendering of full (optionally strided) images for both
the IBRNet-style baseline (uniform/hierarchical sampling, equal points
per ray) and Gen-NeRF (coarse-then-focus).  Returns images plus the
sampling statistics the efficiency analyses need.

Performance notes: renders run under :class:`repro.nn.inference_mode`
(the true no-grad fast path — no graph, no closures); the chunk size is
*adaptive* — small ray counts render as one chunk instead of paying the
per-chunk Python cost, large images stream in bounded chunks so the
(S, R, P, C) intermediates never blow up memory; and callers that
render the same scene repeatedly can pass precomputed ``feature_maps``
to skip re-encoding (see :mod:`repro.core.experiments`, which caches
them per (model, scene) across a harness run).

Intra-frame sharding: every chunk loop below is expressed as a
module-level *chunk function* over a per-frame payload (model, encoded
maps, ray bundle), fanned over the persistent worker pool in
:mod:`repro.core.frame_pool` when ``workers`` resolves above 1.  Chunk
boundaries are computed identically to the sequential path, each chunk
is an independent function of its slice (the Gen-NeRF sampler reseeds
per chunk; the IBRNet hierarchical draws are pre-drawn in chunk order),
and ``out[start:stop]`` slices stitch in task order — so the rendered
image is **byte-identical** at any worker count
(``tests/models/test_render_sharded.py``).  ``workers=1`` (the default)
keeps the historical in-process loop; ``workers=None`` autodetects
(``REPRO_WORKERS`` env, then CPU count) with the nested-pool guard.

The sparse fine pass (:mod:`repro.models.ibrnet`) composes with all of
the above untouched: chunk boundaries are computed *before* any model
forward, and the packing is a per-chunk decision inside
``GeneralizableNeRF.forward`` that scatters back to the dense grid
before returning — so packed renders keep identical chunk geometry and
stay byte-identical to the padded reference at any worker width
(``tests/models/test_sparse_fine_pass.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..geometry.rays import (RayBundle, image_shape_for_step, rays_for_image,
                             stratified_depths)
from ..scenes.datasets import Scene
from ..scenes.render_gt import render_image as render_gt_image
from ..scenes.render_gt import render_rays as render_gt_rays
from .gen_nerf import GenNeRF
from .ibrnet import GeneralizableNeRF
from .sampling import SampleSet, hierarchical_depths
from .volume_rendering import composite

# One chunk's worth of (view, ray, point) cells: bounds the peak size of
# the fetched-feature intermediates at roughly budget * (C + a few) * 4
# bytes while letting small renders go through in a single pass.
_CHUNK_CELL_BUDGET = 2_000_000


def adaptive_chunk(num_rays: int, num_views: int, points_per_ray: int,
                   requested: Optional[int] = None,
                   cell_budget: int = _CHUNK_CELL_BUDGET) -> int:
    """Rays per chunk: everything at once when it fits, streaming else.

    ``requested`` (a caller's explicit chunk size) wins when given —
    Gen-NeRF's per-chunk budget redistribution is semantically a
    tile-local scheduling choice, so callers that rely on a specific
    tile size keep it.
    """
    if requested is not None:
        return requested
    cells_per_ray = max(1, num_views * points_per_ray)
    if num_rays * cells_per_ray <= cell_budget:
        return max(num_rays, 1)
    return max(256, cell_budget // cells_per_ray)


def _chunk_slices(num_rays: int, chunk: int) -> list:
    """The sequential loop's ``(start, stop)`` pairs, shared verbatim by
    the sharded fan-out so both paths see identical chunk geometry."""
    return [(start, min(start + chunk, num_rays))
            for start in range(0, num_rays, chunk)]


# ----------------------------------------------------------------------
# Module-level chunk functions (picklable; first arg is the per-worker
# payload installed once by the frame pool initializer)
# ----------------------------------------------------------------------

def _source_view_chunk(state, start: int, stop: int) -> np.ndarray:
    """Ground-truth field quadrature for one slice of the combined
    source-camera bundle (deterministic per ray — shard-order free)."""
    field, combined, num_points, white_background = state
    part = combined.select(slice(start, stop))
    return render_gt_rays(field, part, num_points,
                          white_background=white_background)


def _ibrnet_chunk(state, start: int, stop: int,
                  uniforms: Optional[np.ndarray]) -> np.ndarray:
    """One IBRNet renderer chunk -> (stop - start, 3) pixels.

    ``uniforms`` carries the hierarchical fine-depth draws, pre-drawn
    by the caller in chunk order from the frame's ``default_rng(0)`` —
    the draw depends only on the chunk's shape, so pre-drawing yields
    exactly the values the historical in-loop draw produced while
    making every chunk independent of its predecessors.
    """
    (model, bundle, source_cameras, source_images, feature_maps,
     num_points, coarse_points, hierarchical) = state
    with nn.inference_mode():
        part = bundle.select(slice(start, stop))
        if hierarchical:
            coarse = stratified_depths(None, len(part), coarse_points,
                                       part.near, part.far, jitter=False)
            points = part.points_at(coarse)
            coarse_out = model(points, part.directions, source_cameras,
                               feature_maps, source_images)
            _, weights = composite(coarse_out.sigma, coarse_out.rgb,
                                   coarse, part.far)
            depths = hierarchical_depths(coarse,
                                         weights.data.astype(np.float64),
                                         num_points, part.near, part.far,
                                         rng=None, uniforms=uniforms)
        else:
            depths = stratified_depths(None, len(part), num_points,
                                       part.near, part.far, jitter=False)
        points = part.points_at(depths)
        result = model(points, part.directions, source_cameras,
                       feature_maps, source_images)
        pixel, _ = composite(result.sigma, result.rgb, depths, part.far)
        return pixel.data


def _gen_nerf_chunk(state, start: int, stop: int
                    ) -> Tuple[np.ndarray, int]:
    """One Gen-NeRF renderer chunk -> (pixels, focused point count).

    The coarse-then-focus sampler reseeds ``default_rng(0)`` per chunk
    and the focused budget redistributes *within* the chunk, so a chunk
    is a pure function of its slice — byte-identical wherever it runs.
    """
    (model, bundle, source_cameras, coarse_maps, fine_maps,
     source_images) = state
    with nn.inference_mode():
        model.eval()
        part = bundle.select(slice(start, stop))
        pixel, aux = model.render_rays(part, source_cameras, coarse_maps,
                                       fine_maps, source_images,
                                       return_aux=True)
        return pixel.data, aux["samples"].total_points


# ----------------------------------------------------------------------
# Public renderers
# ----------------------------------------------------------------------

def render_source_views(scene: Scene, num_points: int = 128,
                        step: int = 1,
                        workers: Optional[int] = 1) -> np.ndarray:
    """Ground-truth source images (S, 3, H, W) for conditioning.

    All source cameras render through one concatenated ray bundle (the
    per-camera Python loop collapsed into chunked batched field
    queries); per-ray results are identical to rendering each camera
    separately because the deterministic reference sampler is
    ray-independent.  ``workers`` shards the chunk fan-out over the
    frame pool (``None`` autodetects) — this is the minutes-scale
    ``SceneData.prepare`` hot path, and the quadrature is per-ray
    deterministic, so shards stitch byte-identically.
    """
    cameras = scene.source_cameras
    if not cameras:
        return np.zeros((0, 3, 0, 0), dtype=np.float32)
    bundles = [rays_for_image(camera, scene.near, scene.far, step=step)
               for camera in cameras]
    combined = RayBundle(
        np.concatenate([b.origins for b in bundles], axis=0),
        np.concatenate([b.directions for b in bundles], axis=0),
        scene.near, scene.far)
    chunk = 4096
    slices = _chunk_slices(len(combined), chunk)
    state = (scene.field, combined, num_points,
             scene.spec.white_background)
    # Imported lazily, like every ``repro.core`` import in this package:
    # core's package init imports ``repro.hardware``, which imports
    # ``repro.models``.
    from ..core import frame_pool
    results = frame_pool.map_chunks(_source_view_chunk, state, slices,
                                    workers)
    pixels = np.zeros((len(combined), 3), dtype=np.float64)
    for (start, stop), part in zip(slices, results):
        pixels[start:stop] = part
    rows, cols = image_shape_for_step(cameras[0], step)
    images = pixels.reshape(len(cameras), rows, cols, 3)
    return np.ascontiguousarray(
        np.transpose(images, (0, 3, 1, 2))).astype(np.float32)


def render_image_ibrnet(model: GeneralizableNeRF, scene: Scene,
                        source_images: np.ndarray, num_points: int,
                        step: int = 4, chunk: Optional[int] = None,
                        hierarchical: bool = False,
                        coarse_points: Optional[int] = None,
                        feature_maps=None,
                        workers: Optional[int] = 1) -> np.ndarray:
    """Baseline rendering: equal sample count on every ray.

    The hierarchical coarse pass defaults to ``num_points`` samples so
    fixed-capacity ray modules (the Ray-Mixer's N_max) see a constant
    point count in both passes.

    Note: with ``hierarchical`` the fine-depth draws consume the rng
    chunk by chunk, so the rendered image depends on the chunking; pass
    an explicit ``chunk`` to reproduce a specific split — the adaptive
    default favours throughput.  For a *fixed* chunking the image does
    not depend on ``workers``: the draws are pre-drawn in chunk order
    and shards stitch in task order, byte-identical to sequential.
    """
    coarse_points = coarse_points or num_points
    with nn.inference_mode():
        if feature_maps is None:
            feature_maps = model.encode_scene(source_images)
    bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                            step=step)
    rows, cols = image_shape_for_step(scene.target_camera, step)
    chunk = adaptive_chunk(len(bundle), len(scene.source_cameras),
                           num_points + (coarse_points if hierarchical
                                         else 0), chunk)
    slices = _chunk_slices(len(bundle), chunk)
    # The frame's sampler stream: the historical loop drew the
    # hierarchical uniforms inside each chunk from this one generator;
    # nothing else consumes it, so drawing the same (rays, points)
    # blocks here in chunk order reproduces those values bit for bit.
    rng = np.random.default_rng(0)
    tasks = [(start, stop,
              rng.random((stop - start, num_points)) if hierarchical
              else None)
             for start, stop in slices]
    state = (model, bundle, tuple(scene.source_cameras), source_images,
             feature_maps, num_points, coarse_points, hierarchical)
    from ..core import frame_pool    # lazily, see render_source_views
    results = frame_pool.map_chunks(_ibrnet_chunk, state, tasks, workers)
    out = np.zeros((len(bundle), 3), dtype=np.float64)
    for (start, stop), pixel in zip(slices, results):
        out[start:stop] = pixel
    return out.reshape(rows, cols, 3)


def render_image_gen_nerf(model: GenNeRF, scene: Scene,
                          source_images: np.ndarray, step: int = 4,
                          chunk: Optional[int] = None,
                          feature_maps=None,
                          workers: Optional[int] = 1
                          ) -> Tuple[np.ndarray, Dict[str, float]]:
    """Gen-NeRF rendering; returns (image, stats with avg focused points).

    ``feature_maps`` (the ``(coarse_maps, fine_maps)`` pair from
    :meth:`GenNeRF.encode_scene`) skips re-encoding when provided.

    Note: the focused-sampling budget is redistributed *within* each
    chunk (tile-local scheduling, mirroring the accelerator) and the
    sampler reseeds per chunk, so the rendered image depends on the
    chunking; pass an explicit ``chunk`` to reproduce a specific
    tiling — the adaptive default favours throughput.  At a fixed
    chunking the image is independent of ``workers`` (chunks are pure
    functions of their slice, stitched in task order).
    """
    with nn.inference_mode():
        model.eval()
        if feature_maps is None:
            coarse_maps, fine_maps = model.encode_scene(source_images)
        else:
            coarse_maps, fine_maps = feature_maps
    bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                            step=step)
    rows, cols = image_shape_for_step(scene.target_camera, step)
    chunk = adaptive_chunk(len(bundle), len(scene.source_cameras),
                           model.config.coarse_points
                           + model.config.n_max, chunk)
    slices = _chunk_slices(len(bundle), chunk)
    state = (model, bundle, tuple(scene.source_cameras), coarse_maps,
             fine_maps, source_images)
    from ..core import frame_pool    # lazily, see render_source_views
    results = frame_pool.map_chunks(_gen_nerf_chunk, state, slices, workers)
    out = np.zeros((len(bundle), 3), dtype=np.float64)
    total_points = 0
    for (start, stop), (pixel, points) in zip(slices, results):
        out[start:stop] = pixel
        total_points += points
    stats = {
        "avg_focused_points": total_points / max(len(bundle), 1),
        "coarse_points": float(model.config.coarse_points),
    }
    return out.reshape(rows, cols, 3), stats


def render_target_reference(scene: Scene, num_points: int = 192,
                            step: int = 4) -> np.ndarray:
    """Dense ground-truth render of the held-out target view."""
    return render_gt_image(scene.field, scene.target_camera, scene.near,
                           scene.far, num_points=num_points, step=step,
                           white_background=scene.spec.white_background)
