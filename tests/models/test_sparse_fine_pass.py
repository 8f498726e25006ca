"""Packed fine pass == padded reference, byte for byte.

The sparse fine pass (``GeneralizableNeRF.forward``) gathers the
mask-valid samples, runs feature fetch + the pointwise MLP stacks on
flat packed buffers, and scatters zeros back before the cross-point
module.  Its contract is *byte-identity* with the pinned padded path
(:func:`repro.perf.reference.model_forward_padded`): every committed
artefact regenerates unchanged whether it packs or not.  This suite
pins that for both model classes (IBRNet with mixer and transformer
ray modules, Gen-NeRF end-to-end), every scene family including the
occupancy-stress ones, explicit and adaptive chunking, and 1/2/4
workers.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import frame_pool
from repro.geometry.rays import rays_for_image, stratified_depths
from repro.models import (GenNeRF, GenNerfConfig, GeneralizableNeRF,
                          ModelConfig, render_image_gen_nerf,
                          render_source_views)
from repro.models.ibrnet import PACK_STATS
from repro.models.sampling import coarse_then_focus_plan
from repro.nn import regime
from repro.perf.reference import model_forward_padded
from repro.scenes.datasets import make_scene
from repro.scenes.render_gt import composite_numpy, field_sigma_color

FAMILIES = ("llff", "nerf_synthetic", "deepvoxels", "thicket",
            "orbit_sparse")

TINY_MODEL = dict(feature_dim=8, view_hidden=8, score_hidden=4,
                  density_hidden=12, density_feature_dim=6,
                  ray_module="mixer", n_max=12, encoder_hidden=6)


def _forward_setup(family):
    """Scene, encoded maps, and a *real* sampler mask for one family."""
    scene = make_scene(family, seed=1, image_scale=1 / 16,
                       num_source_views=6)
    source_images = render_source_views(scene, num_points=32)
    bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                            step=4).select(slice(0, 64))
    coarse = stratified_depths(np.random.default_rng(0), len(bundle), 24,
                               scene.near, scene.far, jitter=False)
    sigmas, colors = field_sigma_color(scene.field, bundle, coarse)
    _, weights, _ = composite_numpy(sigmas, colors, coarse, bundle.far)
    plan = coarse_then_focus_plan(coarse, weights, 4, TINY_MODEL["n_max"],
                                  1e-3, scene.near, scene.far,
                                  rng=np.random.default_rng(0))
    return scene, source_images, bundle, plan


@pytest.fixture(scope="module")
def family_setups():
    return {family: _forward_setup(family) for family in FAMILIES}


@pytest.fixture(scope="module", autouse=True)
def retire_pool():
    yield
    frame_pool.shutdown_pool()


def _assert_outputs_identical(packed, padded):
    assert packed.rgb.data.tobytes() == padded.rgb.data.tobytes()
    assert packed.sigma.data.tobytes() == padded.sigma.data.tobytes()
    np.testing.assert_array_equal(packed.any_visible, padded.any_visible)


class TestForwardByteIdentity:
    """Direct ``GeneralizableNeRF.forward`` equivalence, per family."""

    @pytest.mark.parametrize("ray_module", ["mixer", "transformer"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_packed_matches_padded(self, family_setups, family, ray_module):
        scene, source_images, bundle, plan = family_setups[family]
        config = ModelConfig(**{**TINY_MODEL, "ray_module": ray_module})
        model = GeneralizableNeRF(config,
                                  rng=np.random.default_rng(0)).eval()
        points = bundle.points_at(plan.depths)
        with nn.inference_mode():
            maps = model.encode_scene(source_images)
            before = dict(PACK_STATS)
            packed = model(points, bundle.directions, scene.source_cameras,
                           maps, source_images, mask=plan.mask, sparse=True)
            padded = model_forward_padded(model, points, bundle.directions,
                                          scene.source_cameras, maps,
                                          source_images, mask=plan.mask)
        _assert_outputs_identical(packed, padded)
        assert PACK_STATS["dense"] > before["dense"]
        # The packed path must actually engage when there is real
        # sparsity to exploit; near-saturated masks may honestly bail.
        occupancy = plan.mask.mean()
        if occupancy <= 0.6:
            assert PACK_STATS["packed"] > before["packed"], \
                f"{family} at {occupancy:.0%} occupancy fell back to dense"

    def test_training_mode_never_packs(self, family_setups):
        scene, source_images, bundle, plan = family_setups["orbit_sparse"]
        model = GeneralizableNeRF(ModelConfig(**TINY_MODEL),
                                  rng=np.random.default_rng(0))
        model.train()
        maps = model.encode_scene(source_images)
        before = PACK_STATS["packed"]
        model(bundle.points_at(plan.depths), bundle.directions,
              scene.source_cameras, maps, source_images, mask=plan.mask,
              sparse=True)
        assert PACK_STATS["packed"] == before


class TestGenNerfEndToEnd:
    """Full ``render_image_gen_nerf`` equivalence at every width.

    The padded reference always renders in-process (``workers=1``) with
    the host probe forced to fail; packed renders fan over the worker
    pool, whose subprocesses use the real probe."""

    @pytest.fixture(scope="class")
    def rendered(self, family_setups, class_monkeypatch):
        results = {}
        for family in FAMILIES:
            scene, source_images, _, _ = family_setups[family]
            model = GenNeRF(GenNerfConfig(fine=ModelConfig(**TINY_MODEL),
                                          coarse_points=6,
                                          focused_points=4),
                            rng=np.random.default_rng(0)).eval()
            feature_maps = model.encode_scene(source_images)
            class_monkeypatch.setattr(regime, "host_matches",
                                      lambda: False)
            padded = render_image_gen_nerf(model, scene, source_images,
                                           step=4, chunk=64,
                                           feature_maps=feature_maps,
                                           workers=1)
            class_monkeypatch.undo()
            results[family] = (scene, source_images, model, feature_maps,
                               padded)
        return results

    @pytest.mark.parametrize("family", FAMILIES)
    def test_workers1_explicit_chunk(self, rendered, family):
        scene, source_images, model, feature_maps, padded = rendered[family]
        packed = render_image_gen_nerf(model, scene, source_images, step=4,
                                       chunk=64, feature_maps=feature_maps,
                                       workers=1)
        assert packed[0].tobytes() == padded[0].tobytes()
        assert packed[1] == padded[1]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_workers2_adaptive_chunk(self, rendered, family):
        scene, source_images, model, feature_maps, _ = rendered[family]
        adaptive_padded = render_image_gen_nerf(
            model, scene, source_images, step=4, chunk=None,
            feature_maps=feature_maps, workers=1)
        packed = render_image_gen_nerf(model, scene, source_images, step=4,
                                       chunk=None,
                                       feature_maps=feature_maps,
                                       workers=2)
        assert packed[0].tobytes() == adaptive_padded[0].tobytes()

    @pytest.mark.parametrize("family", ["llff", "orbit_sparse"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_width_matrix(self, rendered, family, workers):
        scene, source_images, model, feature_maps, padded = rendered[family]
        packed = render_image_gen_nerf(model, scene, source_images, step=4,
                                       chunk=64, feature_maps=feature_maps,
                                       workers=workers)
        assert packed[0].tobytes() == padded[0].tobytes()
        assert packed[1] == padded[1]


@pytest.fixture(scope="class")
def class_monkeypatch():
    patcher = pytest.MonkeyPatch()
    yield patcher
    patcher.undo()
