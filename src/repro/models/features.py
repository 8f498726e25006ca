"""Scene-feature acquisition (paper Sec. 2.2, Step 2).

Projects sampled 3D points onto every source view's image plane via the
projective transform pi and fetches the feature vector at the projection
by bilinear interpolation.  This is *the* memory-bound operation of
generalizable NeRFs — H x W x P x S x D accesses per frame (Sec. 1) —
and the quantity every hardware experiment in this repo accounts for.

The bilinear gather is differentiable so encoder training works; the
geometric projection itself is constant w.r.t. model parameters.

Performance note: this is the render path's largest non-GEMM cost
(Fig. 2's "Acquire"), so it is built to touch each byte once.  Only the
camera projection stays per view (each view has its own extrinsics; the
matmul is a trivial cost).  Everything downstream of the projected
pixels covers the whole (S, R, P) block at once:

* :func:`_bilinear_corners` computes the four flat corner rows and the
  float32 fractions once per map — once for the stacked channel-last
  feature tensor :meth:`repro.models.encoder.ConvEncoder.encode_views`
  returns, once for the source images;
* :func:`repro.nn.functional.bilinear_rows` reads each corner with
  ``np.take`` and lerps in place in three reused buffers; it is one
  graph node in grad mode and graph-free in inference mode, and the
  colour gather runs the same forward on the plain image array;
* :func:`_batched_direction_features` works on per-axis (S, R, P)
  float32 planes written into one preallocated (S, R, P, 4) output.

Every output and gradient byte is what the composed expressions the
fetch used before gave (``tests/models/test_fetch_in_place.py`` keeps
those expressions as its oracle).  Against the per-view seed loop
(:func:`repro.perf.reference.fetch_features_loop`), features and
visibility are bit-identical; the colour and direction lerps run at
float32 (they feed float32 MLPs) and agree with the seed's float64
versions to interpolation tolerance —
``tests/models/test_render_e2e_equivalence.py`` pins both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from ..geometry.camera import Camera
from ..nn import Tensor, concatenate
from ..nn.functional import bilinear_rows


def bilinear_gather(feature_map: Tensor, pixels: np.ndarray) -> Tensor:
    """Bilinearly interpolate a channel-last (H, W, C) map at (N, 2) pixels.

    Out-of-bounds pixels are clamped to the border (callers mask them out
    separately).  The four corner gathers route gradients back into the
    map via scatter-add, matching the accelerator's interpolator unit
    which reads the four nearest feature elements (Sec. 4.5).
    """
    height, width = feature_map.shape[0], feature_map.shape[1]
    pix = np.asarray(pixels, dtype=np.float64)
    u = np.clip(pix[:, 0], 0.0, width - 1.0)
    v = np.clip(pix[:, 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[:, None]
    fy = (v - y0).astype(np.float32)[:, None]

    f00 = feature_map[(y0, x0)]
    f01 = feature_map[(y0, x1)]
    f10 = feature_map[(y1, x0)]
    f11 = feature_map[(y1, x1)]
    top = f00 * (1.0 - fx) + f01 * fx
    bottom = f10 * (1.0 - fx) + f11 * fx
    return top * (1.0 - fy) + bottom * fy


def stacked_feature_maps(feature_maps: Union[Tensor, Sequence[Tensor]]
                         ) -> Tensor:
    """Coerce per-view feature maps to one stacked (S, H, W, C) tensor.

    The encoder already returns the stacked form; a list of (H, W, C)
    per-view tensors (the pre-batching API, still used by tests and
    external callers) is concatenated with gradient routing intact.
    """
    if isinstance(feature_maps, Tensor):
        return feature_maps
    return concatenate([m.expand_dims(0) for m in feature_maps], axis=0)


def _bilinear_corners(pixels: np.ndarray, height: int, width: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat corner rows and float32 fractions of ``pixels`` on an
    (S, H, W) stack of maps.

    ``pixels`` is (S, ..., 2) in (u, v) order, one projection per view.
    Returns ``rows``, a (4, S, ...) int64 array of rows in the maps'
    (S*H*W) flattening for the corners 00, 01, 10 and 11, and the
    (S, ..., 1) float32 fractions ``fx`` and ``fy`` — the operands of
    :func:`repro.nn.functional.bilinear_rows`.  The corner arithmetic is
    :func:`bilinear_gather`'s: coordinates clip to the map (out-of-bounds
    pixels read the border; callers mask them separately) and the high
    corner clamps at the last row and column.
    """
    u = np.clip(pixels[..., 0], 0.0, width - 1.0)
    v = np.clip(pixels[..., 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[..., None]
    fy = (v - y0).astype(np.float32)[..., None]
    base = np.arange(pixels.shape[0], dtype=np.int64) * (height * width)
    base = base.reshape((-1,) + (1,) * (u.ndim - 1))
    top = base + y0 * width
    bottom = base + y1 * width
    rows = np.empty((4,) + u.shape, dtype=np.int64)
    np.add(top, x0, out=rows[0])
    np.add(top, x1, out=rows[1])
    np.add(bottom, x0, out=rows[2])
    np.add(bottom, x1, out=rows[3])
    return rows, fx, fy


@dataclass
class FetchedFeatures:
    """Per-view data gathered for a block of sampled points.

    Shapes use S = #source views, R = rays, P = points per ray.
    """

    features: Tensor        # (S, R, P, C) interpolated scene features
    rgb: np.ndarray         # (S, R, P, 3) interpolated source colours
    direction_delta: np.ndarray  # (S, R, P, 4) view-direction differences
    visibility: np.ndarray  # (S, R, P) bool: point projects inside view

    @property
    def num_views(self) -> int:
        """S — the number of conditioning source views gathered from."""
        return self.features.shape[0]


def direction_features(points: np.ndarray, ray_dirs: np.ndarray,
                       source: Camera) -> np.ndarray:
    """IBRNet-style relative direction encoding, (R, P, 4).

    Concatenates the difference between the target ray direction and the
    unit vector from the source camera to the point, plus their dot
    product — the cue for weighting views by angular proximity.
    """
    to_point = points - source.center
    norms = np.linalg.norm(to_point, axis=-1, keepdims=True)
    source_dirs = to_point / np.maximum(norms, 1e-9)
    target_dirs = np.broadcast_to(ray_dirs[:, None, :], points.shape)
    diff = target_dirs - source_dirs
    dot = np.sum(target_dirs * source_dirs, axis=-1, keepdims=True)
    return np.concatenate([diff, dot], axis=-1).astype(np.float32)


def _batched_direction_features(points: np.ndarray, ray_dirs: np.ndarray,
                                centers: np.ndarray) -> np.ndarray:
    """:func:`direction_features` for all S views at once, (S, R, P, 4).

    Computed in float32 on per-axis (S, R, P) planes: the encoding is
    consumed by float32 MLPs, so the geometry is rounded to float32 as
    it is formed (one float64 subtraction per element, cast on write)
    and every later step runs in place on the planes or writes straight
    into the one preallocated output.  The norm adds
    ``(x*x + y*y) + z*z`` and the dot ``(tx*sx + ty*sy) + tz*sz``:
    written in that order, the sums are the ones ``np.sum(axis=-1)``
    computed over the interleaved (S, R, P, 3) form, bit for bit, and
    the same on every host.
    """
    num_views = centers.shape[0]
    rays, pts_per_ray = points.shape[0], points.shape[1]
    planes = np.empty((3, num_views, rays, pts_per_ray), dtype=np.float32)
    for axis in range(3):
        np.subtract(points[None, :, :, axis], centers[:, axis, None, None],
                    out=planes[axis], casting="same_kind")
    x, y, z = planes
    norms = np.sqrt((x * x + y * y) + z * z)
    np.maximum(norms, 1e-9, out=norms)
    planes /= norms
    target = ray_dirs.T.astype(np.float32)[:, None, :, None]
    out = np.empty((num_views, rays, pts_per_ray, 4), dtype=np.float32)
    np.subtract(target, planes, out=np.moveaxis(out[..., :3], -1, 0))
    planes *= target
    dot = out[..., 3]
    np.add(planes[0], planes[1], out=dot)
    dot += planes[2]
    return out


def fetch_features(points: np.ndarray, ray_dirs: np.ndarray,
                   source_cameras: Sequence[Camera],
                   feature_maps: Union[Tensor, Sequence[Tensor]],
                   source_images: np.ndarray,
                   feature_scale: float = 0.5) -> FetchedFeatures:
    """Acquire scene features for (R, P, 3) sampled points from all views.

    ``source_images`` is (S, 3, H, W) in [0, 1]; ``feature_maps`` is the
    stacked channel-last encoder output (S, Hf, Wf, C) — a list of
    per-view (Hf, Wf, C) tensors is also accepted and stacked here.
    """
    num_views = len(source_cameras)
    rays, pts_per_ray = points.shape[0], points.shape[1]
    flat_points = points.reshape(-1, 3)
    num_points = flat_points.shape[0]
    maps = stacked_feature_maps(feature_maps)

    # Projection stays per-view (per-camera extrinsics); everything
    # downstream of the projected pixels is batched over views.
    pixels_sv = np.empty((num_views, num_points, 2), dtype=np.float64)
    depth_sv = np.empty((num_views, num_points), dtype=np.float64)
    for index, camera in enumerate(source_cameras):
        pixels_sv[index], depth_sv[index] = camera.project(flat_points,
                                                           return_depth=True)
    finite = np.isfinite(pixels_sv).all(axis=-1) & (depth_sv > 1e-6)
    safe_pixels = np.where(finite[..., None], pixels_sv, 0.0).reshape(
        num_views, rays, pts_per_ray, 2)

    rows, fx, fy = _bilinear_corners(safe_pixels * feature_scale,
                                     maps.shape[1], maps.shape[2])
    features = bilinear_rows(maps, rows, fx, fy)

    images_hwc = np.ascontiguousarray(
        np.transpose(source_images, (0, 2, 3, 1)), dtype=np.float32)
    rows, fx, fy = _bilinear_corners(safe_pixels, images_hwc.shape[1],
                                     images_hwc.shape[2])
    view_rgb = bilinear_rows(images_hwc, rows, fx, fy).data

    centers = np.stack([camera.center for camera in source_cameras], axis=0)
    view_dirs = _batched_direction_features(points, ray_dirs, centers)

    widths = np.array([camera.intrinsics.width for camera in source_cameras],
                      dtype=np.float64)[:, None]
    heights = np.array([camera.intrinsics.height for camera in source_cameras],
                       dtype=np.float64)[:, None]
    inside = (finite
              & (pixels_sv[..., 0] >= 0) & (pixels_sv[..., 0] <= widths - 1)
              & (pixels_sv[..., 1] >= 0) & (pixels_sv[..., 1] <= heights - 1))
    view_visible = inside.reshape(num_views, rays, pts_per_ray)

    return FetchedFeatures(features=features, rgb=view_rgb,
                           direction_delta=view_dirs, visibility=view_visible)


def fetched_pixel_mask(points: np.ndarray,
                       source_cameras: Sequence[Camera],
                       map_height: int, map_width: int,
                       feature_scale: float = 0.5) -> np.ndarray:
    """Feature-map pixels :func:`fetch_features` will gather, as a
    (S, map_height, map_width) boolean mask.

    Replicates the fetcher's bilinear-corner arithmetic exactly —
    non-finite projections clamp to pixel 0 (they are still gathered,
    with zero lerp weight), coordinates clip to the map, and all four
    corners of every point are marked.  The footprint-restricted encode
    (:mod:`repro.models.footprint`) treats this set as the pixels whose
    values and gradients must be bit-exact.
    """
    flat_points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    mask = np.zeros((len(source_cameras), map_height, map_width),
                    dtype=bool)
    for index, camera in enumerate(source_cameras):
        pixels, depth = camera.project(flat_points, return_depth=True)
        finite = np.isfinite(pixels).all(axis=-1) & (depth > 1e-6)
        safe = np.where(finite[:, None], pixels, 0.0) * feature_scale
        u = np.clip(safe[:, 0], 0.0, map_width - 1.0)
        v = np.clip(safe[:, 1], 0.0, map_height - 1.0)
        x0 = np.floor(u).astype(np.int64)
        y0 = np.floor(v).astype(np.int64)
        x1 = np.minimum(x0 + 1, map_width - 1)
        y1 = np.minimum(y0 + 1, map_height - 1)
        view = mask[index]
        view[y0, x0] = True
        view[y0, x1] = True
        view[y1, x0] = True
        view[y1, x1] = True
    return mask


def feature_access_bytes(height: int, width: int, points_per_ray: float,
                         num_views: int, feature_dim: int,
                         bytes_per_element: int = 1) -> float:
    """The paper's headline access count H*W*P*S*D (Sec. 1) in bytes.

    Bilinear interpolation touches 4 corners, but a cache/buffer with any
    locality coalesces them; the paper counts one D-vector per (point,
    view), which we follow.
    """
    return float(height) * width * points_per_ray * num_views * feature_dim \
        * bytes_per_element
