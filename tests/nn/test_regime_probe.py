"""The host probe of the BLAS kernel-regime rule
(:func:`repro.nn.regime.host_matches`).

The probe runs a few real float32 GEMMs once per process.  Where they
keep the rule, every fast path that trusts it (the packed fine pass,
the footprint encode, serve's ray merging) runs as before.  Where they
do not, :func:`repro.nn.regime.row_interval` knows no safe row count
for any shape, and every one of those paths takes its dense path with
unchanged outputs.
"""

import logging
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import models as M
from repro import nn
from repro.core import log, serve
from repro.geometry.rays import rays_for_image, stratified_depths
from repro.models import training
from repro.models.ibrnet import PACK_STATS
from repro.models.sampling import coarse_then_focus_plan
from repro.nn import regime
from repro.perf.reference import model_forward_padded, trainer_full_encode
from repro.scenes.datasets import make_scene
from repro.scenes.render_gt import composite_numpy, field_sigma_color

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

TINY_MODEL = dict(feature_dim=8, view_hidden=8, score_hidden=4,
                  density_hidden=12, density_feature_dim=6,
                  ray_module="mixer", n_max=12, encoder_hidden=6)

# A few GEMM shapes (rows, K, N), both sides of each switch among them.
SHAPES = [(6144, 6, 1), (20000, 8, 1), (100, 32, 8), (5000, 32, 8),
          (7, 27, 16), (64, 12, 72)]


@pytest.fixture(autouse=True)
def fresh_probe():
    """Each test sees the probe run anew, and leaves no forced answer
    behind for the rest of the suite."""
    regime.host_matches.cache_clear()
    yield
    regime.host_matches.cache_clear()


class TestProbe:
    def test_host_keeps_the_rule(self):
        assert regime.host_matches() is True

    def test_each_check_stays_inside_one_interval(self):
        for k, n, rows, within in regime._HOST_CHECKS:
            lo, hi = regime.row_interval(rows, k, n)
            assert lo <= within and (hi is None or within <= hi), \
                (k, n, rows, within)

    def test_check_runs_once_per_process(self, monkeypatch):
        calls = []
        check = regime._rows_match

        def counting(*args):
            calls.append(args[:4])
            return check(*args)

        monkeypatch.setattr(regime, "_rows_match", counting)
        for _ in range(50):
            for rows, k, n in SHAPES:
                regime.row_interval(rows, k, n)
            regime.batch_interval([(8, 6, 1), (32, 8, 8)], 100)
        assert calls == [check[:4] for check in regime._HOST_CHECKS]

    def test_failed_check_declines_every_shape_once(self, monkeypatch,
                                                    caplog):
        monkeypatch.setattr(regime, "_rows_match", lambda *args: False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert regime.host_matches() is False
            assert regime.host_matches() is False
            for rows, k, n in SHAPES:
                assert regime.row_interval(rows, k, n) is None
                assert regime.row_interval(rows, k, n,
                                           scattered=True) is None
            assert regime.batch_interval([(8, 6, 1)], 100) is None
        record, = log.events_named(caplog.records, "blas.regime_mismatch")
        k, n, rows, within = regime._HOST_CHECKS[0]
        assert record.repro_fields == dict(k=k, n=n, rows=rows,
                                           within=within)

    def test_probe_loads_no_core_module(self):
        script = textwrap.dedent("""
            import sys

            import repro.nn
            from repro.nn import regime

            assert regime.host_matches()
            print(sorted(name for name in sys.modules
                         if name.split(".")[:2] == ["repro", "core"]))
        """)
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]", result.stdout


class TestDenseFallback:
    """With the probe failing, each fast path runs dense and its
    outputs do not change."""

    def test_fine_pass_runs_dense(self, monkeypatch):
        scene = make_scene("orbit_sparse", seed=1, image_scale=1 / 16,
                           num_source_views=6)
        source_images = M.render_source_views(scene, num_points=32)
        bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                                step=4).select(slice(0, 64))
        coarse = stratified_depths(np.random.default_rng(0), len(bundle),
                                   24, scene.near, scene.far, jitter=False)
        sigmas, colors = field_sigma_color(scene.field, bundle, coarse)
        _, weights, _ = composite_numpy(sigmas, colors, coarse, bundle.far)
        plan = coarse_then_focus_plan(coarse, weights, 4,
                                      TINY_MODEL["n_max"], 1e-3, scene.near,
                                      scene.far,
                                      rng=np.random.default_rng(0))
        model = M.GeneralizableNeRF(M.ModelConfig(**TINY_MODEL),
                                    rng=np.random.default_rng(0)).eval()
        args = (bundle.points_at(plan.depths), bundle.directions,
                scene.source_cameras)
        with nn.inference_mode():
            maps = model.encode_scene(source_images)
            before = dict(PACK_STATS)
            packed = model(*args, maps, source_images, mask=plan.mask)
            assert PACK_STATS["packed"] == before["packed"] + 1
            monkeypatch.setattr(regime, "host_matches", lambda: False)
            before = dict(PACK_STATS)
            dense = model(*args, maps, source_images, mask=plan.mask)
            assert PACK_STATS == dict(before, dense=before["dense"] + 1)
            padded = model_forward_padded(model, *args, maps,
                                          source_images, mask=plan.mask)
        for output in (packed, padded):
            assert dense.rgb.data.tobytes() == output.rgb.data.tobytes()
            assert dense.sigma.data.tobytes() == output.sigma.data.tobytes()

    def test_trainer_plans_no_footprint(self, monkeypatch):
        scene = make_scene("llff", seed=3, num_source_views=6,
                           image_scale=1 / 12)
        data = [M.SceneData.prepare(scene, gt_points=64)]
        cfg = M.TrainConfig(steps=3, rays_per_batch=4, num_points=12,
                            gt_points=64, seed=11, pixel_block_steps=4)

        def model():
            return M.GeneralizableNeRF(M.ModelConfig(**TINY_MODEL),
                                       rng=np.random.default_rng(9))

        reference = trainer_full_encode(model(), data, cfg)
        reference_losses = reference.fit(cfg.steps)
        plans = []
        planner = training.plan_conv_footprint

        def counting(*args):
            plans.append(planner(*args))
            return plans[-1]

        monkeypatch.setattr(training, "plan_conv_footprint", counting)
        monkeypatch.setattr(regime, "host_matches", lambda: False)
        trainer = M.Trainer(model(), data, cfg, footprint=True)
        assert trainer.fit(cfg.steps) == reference_losses
        # The trainer asks the planner every step; the planner declines.
        assert plans == [None] * cfg.steps
        assert trainer.footprint_stats["footprint"] == 0
        assert trainer.footprint_stats["dense"] == cfg.steps
        state = trainer.model.state_dict()
        for name, value in reference.model.state_dict().items():
            assert state[name].tobytes() == value.tobytes(), name

    def test_serve_merges_no_rays(self, monkeypatch):
        store = serve.SceneStore(capacity=2, source_points=24, cache=None)
        models = {quality: serve.build_model(quality)
                  for quality in ("draft", "standard")}
        trace = serve.synthetic_trace(seed=3, clients=4,
                                      requests_per_client=3,
                                      qualities=("draft", "standard"),
                                      burst=True)
        config = serve.ServeConfig(batch_window=4, max_batch=4096,
                                   queue_limit=64, scene_capacity=2,
                                   workers=1, source_points=24)

        def replay():
            result = serve.replay(trace, config, store=store, models=models)
            assert len(result.ok_responses()) == len(trace)
            return result

        merged = replay()
        assert merged.scheduler.counters["merged_rays"] > 0
        monkeypatch.setattr(regime, "host_matches", lambda: False)
        alone = replay()
        assert alone.scheduler.counters["merged_rays"] == 0
        assert alone.pixels_crc32() == merged.pixels_crc32()
