"""The in-place feature fetch against the composed expressions it replaced.

:func:`repro.models.features.fetch_features` reads each bilinear corner
with ``np.take`` and lerps in place through one fused node
(:func:`repro.nn.functional.bilinear_rows`), and builds the direction
encoding on per-axis planes.  The three ``_oracle_*`` functions below
are the composed numpy / autograd expressions the fetch was built from
before, kept verbatim; ``_oracle_fetch`` is the fetch body that called
them.  Every output byte in grad and in inference mode, and every byte
of the map gradient through several fetches into one map, must match.
"""

from typing import Sequence, Union

import numpy as np
import pytest

from repro import nn
from repro.geometry import Intrinsics, camera_at
from repro.geometry.camera import Camera
from repro.models.encoder import ConvEncoder
from repro.models.features import (FetchedFeatures, _batched_direction_features,
                                   _bilinear_corners, fetch_features,
                                   stacked_feature_maps)
from repro.nn import Tensor
from repro.nn.functional import bilinear_rows

# ----------------------------------------------------------------------
# Oracle: the composed expressions, verbatim.
# ----------------------------------------------------------------------


def _oracle_bilinear_gather(stacked: Tensor, pixels: np.ndarray) -> Tensor:
    num_views, height, width = stacked.shape[0], stacked.shape[1], stacked.shape[2]
    pix = np.asarray(pixels, dtype=np.float64)
    u = np.clip(pix[..., 0], 0.0, width - 1.0)
    v = np.clip(pix[..., 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[..., None]
    fy = (v - y0).astype(np.float32)[..., None]

    flat = stacked.reshape(num_views * height * width, stacked.shape[3])
    base = (np.arange(num_views, dtype=np.int64) * height * width)[:, None]
    f00 = flat[base + y0 * width + x0]
    f01 = flat[base + y0 * width + x1]
    f10 = flat[base + y1 * width + x0]
    f11 = flat[base + y1 * width + x1]
    top = f00 * (1.0 - fx) + f01 * fx
    bottom = f10 * (1.0 - fx) + f11 * fx
    return top * (1.0 - fy) + bottom * fy


def _oracle_direction_features(points: np.ndarray, ray_dirs: np.ndarray,
                               centers: np.ndarray) -> np.ndarray:
    to_point = (points[None] - centers[:, None, None, :]).astype(np.float32)
    norms = np.sqrt(np.sum(to_point * to_point, axis=-1, keepdims=True))
    source_dirs = to_point / np.maximum(norms, 1e-9)
    target_dirs = np.broadcast_to(
        ray_dirs[None, :, None, :].astype(np.float32), to_point.shape)
    diff = target_dirs - source_dirs
    dot = np.sum(target_dirs * source_dirs, axis=-1, keepdims=True)
    return np.concatenate([diff, dot], axis=-1)


def _oracle_bilinear_numpy(images_shwc: np.ndarray,
                           pixels: np.ndarray) -> np.ndarray:
    num_views, height, width = images_shwc.shape[:3]
    flat = images_shwc.reshape(num_views * height * width,
                               images_shwc.shape[3])
    u = np.clip(pixels[..., 0], 0.0, width - 1.0)
    v = np.clip(pixels[..., 1], 0.0, height - 1.0)
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (u - x0).astype(np.float32)[..., None]
    fy = (v - y0).astype(np.float32)[..., None]
    base = (np.arange(num_views, dtype=np.int64) * height * width)[:, None]
    top = flat[base + y0 * width + x0] * (1 - fx) \
        + flat[base + y0 * width + x1] * fx
    bottom = flat[base + y1 * width + x0] * (1 - fx) \
        + flat[base + y1 * width + x1] * fx
    return top * (1 - fy) + bottom * fy


def _oracle_fetch(points: np.ndarray, ray_dirs: np.ndarray,
                  source_cameras: Sequence[Camera],
                  feature_maps: Union[Tensor, Sequence[Tensor]],
                  source_images: np.ndarray,
                  feature_scale: float = 0.5) -> FetchedFeatures:
    num_views = len(source_cameras)
    rays, pts_per_ray = points.shape[0], points.shape[1]
    flat_points = points.reshape(-1, 3)
    num_points = flat_points.shape[0]
    maps = stacked_feature_maps(feature_maps)

    pixels_sv = np.empty((num_views, num_points, 2), dtype=np.float64)
    depth_sv = np.empty((num_views, num_points), dtype=np.float64)
    for index, camera in enumerate(source_cameras):
        pixels_sv[index], depth_sv[index] = camera.project(flat_points,
                                                           return_depth=True)
    finite = np.isfinite(pixels_sv).all(axis=-1) & (depth_sv > 1e-6)
    safe_pixels = np.where(finite[..., None], pixels_sv, 0.0)

    gathered = _oracle_bilinear_gather(maps, safe_pixels * feature_scale)
    features = gathered.reshape(num_views, rays, pts_per_ray,
                                gathered.shape[-1])

    images_hwc = np.ascontiguousarray(
        np.transpose(source_images, (0, 2, 3, 1)).astype(np.float32))
    rgb = _oracle_bilinear_numpy(images_hwc, safe_pixels)
    view_rgb = rgb.reshape(num_views, rays, pts_per_ray, 3)

    centers = np.stack([camera.center for camera in source_cameras], axis=0)
    view_dirs = _oracle_direction_features(points, ray_dirs, centers)

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


# ----------------------------------------------------------------------
# A rig whose first two cameras project exactly: unit focal length, no
# rotation, integer offsets, so a point at depth 1 lands on the integer
# pixel (X + tx, Y + ty) with no rounding.
# ----------------------------------------------------------------------

WIDTH, HEIGHT, SCALE = 26, 18, 0.5      # feature maps are 13 x 9
MAP_W, MAP_H = 13, 9


def _rig():
    exact = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=WIDTH,
                       height=HEIGHT)
    general = Intrinsics.from_fov(WIDTH, HEIGHT, 60.0)
    return [Camera(exact),
            Camera(exact, translation=np.array([-2.0, 1.0, 0.0])),
            camera_at(np.array([0.7, 0.4, -4.0]), np.zeros(3), general)]


def _special_points(cameras):
    """Points that pin the edge cases of the corner lookup and encoding."""
    return np.array([
        [WIDTH - 1.0, HEIGHT - 1.0, 1.0],     # last image column and row
        [2.0 * (MAP_W - 1), 2.0 * (MAP_H - 1), 1.0],  # last map col/row
        [WIDTH + 5.0, 3.0, 1.0],               # right of every map
        [-3.0, -2.0, 1.0],                     # above-left of every map
        [4.0, 5.0, -2.0],                      # behind the exact cameras
        [0.0, 0.0, -10.0],                     # behind all three
        cameras[1].center,                     # zero norm for view 1
        cameras[0].center,                     # zero norm for view 0
    ])


def _points(rng, cameras, rays, pts_per_ray):
    cloud = np.stack([rng.uniform(-4.0, WIDTH + 4.0, rays * pts_per_ray),
                      rng.uniform(-4.0, HEIGHT + 4.0, rays * pts_per_ray),
                      rng.uniform(0.6, 3.0, rays * pts_per_ray)], axis=-1)
    special = _special_points(cameras)
    cloud[:len(special)] = special
    return cloud.reshape(rays, pts_per_ray, 3)


def _ray_dirs(rng, rays):
    dirs = rng.standard_normal((rays, 3))
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


SHAPES = {"dense": (12, 7), "packed": (90, 1)}


@pytest.fixture()
def rig(rng):
    cameras = _rig()
    images = rng.uniform(0.0, 1.0, (len(cameras), 3, HEIGHT, WIDTH)
                         ).astype(np.float32)
    return cameras, images


def _maps(rng, channels):
    return rng.standard_normal((3, MAP_H, MAP_W, channels)).astype(np.float32)


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _assert_same_fetch(fast: FetchedFeatures, oracle: FetchedFeatures):
    _assert_same_bytes(fast.features.data, oracle.features.data)
    _assert_same_bytes(fast.rgb, oracle.rgb)
    _assert_same_bytes(fast.direction_delta, oracle.direction_delta)
    _assert_same_bytes(fast.visibility, oracle.visibility)


# ----------------------------------------------------------------------
# Forward bytes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("channels", [2, 3, 8])
class TestFetchBytes:
    def test_matches_oracle_in_grad_mode(self, rig, rng, shape, channels):
        cameras, images = rig
        points = _points(rng, cameras, *SHAPES[shape])
        dirs = _ray_dirs(rng, points.shape[0])
        maps = Tensor(_maps(rng, channels), requires_grad=True)
        fast = fetch_features(points, dirs, cameras, maps, images, SCALE)
        oracle = _oracle_fetch(points, dirs, cameras, maps, images, SCALE)
        _assert_same_fetch(fast, oracle)
        assert fast.features.requires_grad

    def test_inference_mode_is_graph_free_and_same_bytes(self, rig, rng,
                                                         shape, channels):
        cameras, images = rig
        points = _points(rng, cameras, *SHAPES[shape])
        dirs = _ray_dirs(rng, points.shape[0])
        maps = Tensor(_maps(rng, channels), requires_grad=True)
        graded = fetch_features(points, dirs, cameras, maps, images, SCALE)
        with nn.inference_mode():
            fast = fetch_features(points, dirs, cameras, maps, images, SCALE)
            oracle = _oracle_fetch(points, dirs, cameras, maps, images,
                                   SCALE)
        _assert_same_fetch(fast, oracle)
        _assert_same_fetch(fast, graded)
        assert not fast.features.requires_grad
        assert fast.features._parents == ()
        assert fast.features._backward is None

    def test_special_points_hit_their_cases(self, rig, rng, shape, channels):
        """The rig really produces the edge cases the bytes are pinned on."""
        cameras, images = rig
        points = _points(rng, cameras, *SHAPES[shape])
        flat = points.reshape(-1, 3)
        pixels, depth = cameras[0].project(flat[:4], return_depth=True)
        np.testing.assert_array_equal(pixels[0], [WIDTH - 1, HEIGHT - 1])
        np.testing.assert_array_equal(pixels[1] * SCALE,
                                      [MAP_W - 1, MAP_H - 1])
        assert (depth > 0).all()
        assert (cameras[0].project(flat[4:6], return_depth=True)[1] < 0).all()
        np.testing.assert_array_equal(flat[7], cameras[0].center)
        fetched = fetch_features(points, _ray_dirs(rng, points.shape[0]),
                                 cameras, Tensor(_maps(rng, channels)),
                                 images, SCALE)
        visible = fetched.visibility.reshape(3, -1)
        assert visible[0, 0] and visible[0, 1]
        assert not visible[:2, 2:6].any()


class TestLookupAndOp:
    """The corner lookup and the fused op against the oracle gather."""

    @staticmethod
    def _pixels(rng, count):
        pix = np.stack([rng.uniform(-3.0, MAP_W + 3.0, (3, count)),
                        rng.uniform(-3.0, MAP_H + 3.0, (3, count))], axis=-1)
        pix[:, 0] = [MAP_W - 1, MAP_H - 1]
        pix[:, 1] = [MAP_W - 1, 0.25]
        pix[:, 2] = [0.5, MAP_H - 1]
        pix[:, 3] = [2.0, 3.0]
        pix[:, 4] = [-1.0, MAP_H + 2.0]
        return pix

    @pytest.mark.parametrize("channels", [2, 3, 8])
    def test_tensor_forward_and_grad(self, rng, channels):
        data = _maps(rng, channels)
        pix = self._pixels(rng, 400)
        fast_map = Tensor(data, requires_grad=True)
        oracle_map = Tensor(data, requires_grad=True)
        fast = bilinear_rows(fast_map, *_bilinear_corners(pix, MAP_H, MAP_W))
        oracle = _oracle_bilinear_gather(oracle_map, pix)
        _assert_same_bytes(fast.data, oracle.data)
        grad = rng.standard_normal(fast.shape).astype(np.float32)
        fast.backward(grad)
        oracle.backward(grad)
        _assert_same_bytes(fast_map.grad, oracle_map.grad)

    def test_plain_array_matches_numpy_oracle(self, rng):
        images = rng.uniform(0.0, 1.0, (3, MAP_H, MAP_W, 3)).astype(np.float32)
        pix = self._pixels(rng, 300)
        fast = bilinear_rows(images, *_bilinear_corners(pix, MAP_H, MAP_W))
        assert fast._parents == () and not fast.requires_grad
        _assert_same_bytes(fast.data, _oracle_bilinear_numpy(images, pix))

    def test_rows_are_the_oracle_corners(self, rng):
        pix = self._pixels(rng, 50)
        rows, fx, fy = _bilinear_corners(pix, MAP_H, MAP_W)
        assert rows.shape == (4, 3, 50) and rows.dtype == np.int64
        assert fx.shape == fy.shape == (3, 50, 1)
        assert fx.dtype == fy.dtype == np.float32
        assert rows.min() >= 0 and rows.max() < 3 * MAP_H * MAP_W
        # A pixel on the last column and row clamps every corner there.
        last = (np.arange(3) * MAP_H + MAP_H - 1) * MAP_W + MAP_W - 1
        for corner in range(4):
            np.testing.assert_array_equal(rows[corner, :, 0], last)
        assert not fx[:, 0].any() and not fy[:, 0].any()


class TestDirectionBytes:
    def test_matches_oracle_on_large_cloud(self, rng):
        """Enough random geometry that a reassociated sum would show."""
        centers = rng.uniform(-5.0, 5.0, (4, 3))
        points = rng.uniform(-30.0, 30.0, (250, 20, 3))
        points[0, 0] = centers[2]                   # zero norm: 1e-9 floor
        dirs = _ray_dirs(rng, 250)
        _assert_same_bytes(_batched_direction_features(points, dirs, centers),
                           _oracle_direction_features(points, dirs, centers))

    def test_zero_norm_point_encodes_the_target_direction(self, rng):
        centers = np.array([[0.5, -1.0, 2.0]])
        points = centers[None].copy()
        dirs = _ray_dirs(rng, 1)
        out = _batched_direction_features(points, dirs, centers)
        np.testing.assert_array_equal(out[0, 0, 0, :3],
                                      dirs[0].astype(np.float32))
        assert out[0, 0, 0, 3] == 0.0


# ----------------------------------------------------------------------
# Gradient bytes through several fetches into one map
# ----------------------------------------------------------------------


def _fetch_loss(fetch, rng_seed, points_list, dirs_list, cameras, maps,
                images):
    weights = np.random.default_rng(rng_seed)
    loss = None
    for points, dirs in zip(points_list, dirs_list):
        fetched = fetch(points, dirs, cameras, maps, images, SCALE)
        w = weights.standard_normal(fetched.features.shape).astype(np.float32)
        term = (fetched.features * Tensor(w)).sum()
        loss = term if loss is None else loss + term
    return loss


@pytest.mark.parametrize("fetches", [2, 3])
@pytest.mark.parametrize("source", ["leaf", "list", "encoder"])
def test_map_gradient_through_several_fetches(rig, rng, fetches, source):
    cameras, images = rig
    points_list = [_points(rng, cameras, *SHAPES["dense" if i % 2 else
                                                 "packed"])
                   for i in range(fetches)]
    dirs_list = [_ray_dirs(rng, p.shape[0]) for p in points_list]
    data = _maps(rng, 8)

    def build():
        if source == "encoder":
            encoder = ConvEncoder(feature_dim=8, hidden=4,
                                  rng=np.random.default_rng(7))
            return encoder.encode_views(images), list(encoder.parameters())
        if source == "list":
            views = [Tensor(data[i], requires_grad=True) for i in range(3)]
            return views, views
        leaf = Tensor(data, requires_grad=True)
        return leaf, [leaf]

    results = []
    for fetch in (fetch_features, _oracle_fetch):
        maps, leaves = build()
        loss = _fetch_loss(fetch, 5, points_list, dirs_list, cameras, maps,
                           images)
        loss.backward()
        results.append((loss.data, [leaf.grad for leaf in leaves]))
    (fast_loss, fast_grads), (oracle_loss, oracle_grads) = results
    _assert_same_bytes(fast_loss, oracle_loss)
    assert len(fast_grads) == len(oracle_grads)
    for fast_grad, oracle_grad in zip(fast_grads, oracle_grads):
        _assert_same_bytes(fast_grad, oracle_grad)
