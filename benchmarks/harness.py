"""Hot-path perf harness: microbenches + regression tracking.

Times the render-and-simulate critical path primitives (coarse-then-
focus sampling at R=4096, batched trace generation + replay, the fused
autograd training step, the scatter-add gather backward) and the
*end-to-end* paths this repo optimises (full ``render_rays`` at R=1024
under ``inference_mode``; the scheduler's all-candidate slab sweep; the
batched accelerator frame simulation),
and, where a seed loop implementation exists in
:mod:`repro.perf.reference`, the speedup over it.  Results go to
``BENCH_hotpaths.json`` at the repo root; when a previous file exists
its numbers are compared so perf regressions are visible PR-to-PR.

Run with::

    PYTHONPATH=src python -m benchmarks.harness            # or: make bench
    PYTHONPATH=src python -m benchmarks.harness --only render_rays_e2e_r1024 \
        scheduler_slab_sweep                               # or: make bench-e2e
    PYTHONPATH=src python -m benchmarks.harness --smoke    # quick CI gate

JSON schema (``BENCH_hotpaths.json``)::

    {
      "schema_version": 1,
      "generated_unix": <float seconds>,
      "benches": {
        "<name>": {
          "mean_s": <float>,            # fast path, median-of-rounds mean
          "rounds": <int>,
          "loop_reference_mean_s": <float|null>,  # seed loop, if one exists
          "speedup_vs_loop": <float|null>,
          "previous_mean_s": <float|null>,        # from the prior run
          "regression_pct": <float|null>,         # +X% means slower now
          "note": "new bench, no baseline"        # only when no usable
        }, ...                                    # prior mean exists
      }
    }

A bench counts as regressed when ``mean_s`` worsens by more than 25%
against the committed previous run; the harness exits nonzero so CI can
flag it (pass ``--no-strict`` to report without failing).  ``--smoke``
runs single short rounds and does not rewrite the JSON — it exists so
``make check`` can exercise every bench body quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, Iterable, Optional

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_hotpaths.json")
REGRESSION_THRESHOLD_PCT = 25.0

# Per-bench timing budgets beyond the uniform default.  Sub-10ms benches
# on this shared single-core container need more rounds and a larger
# per-round budget before the median sits reliably above scheduler
# noise: ``inverse_transform_r4096`` (~8 ms) drifted 30.1% against its
# committed baseline — past the 25% regression budget — purely from
# round-to-round jitter.  Applied only to measured runs; ``--smoke``
# keeps its single quick round.
TIMING_OVERRIDES: Dict[str, Dict[str, float]] = {
    "inverse_transform_r4096": {"rounds": 9, "min_total_s": 0.9},
}


def _time(func: Callable[[], object], rounds: int = 5,
          min_total_s: float = 0.2) -> float:
    """Median seconds per call over ``rounds`` measured repetitions.

    Each round loops the callable enough times to amortise timer noise
    for sub-millisecond paths.  One full *warmup round* runs first and
    is discarded (allocator, caches, lazy imports, CPU frequency
    settling), then the **median** of the measured rounds is reported.
    The previous best-of-rounds policy tracked the noise floor: on a
    shared single-core container, run-to-run drift of the floor showed
    up as spurious ±5–13 % `regression_pct` swings that ate most of
    the 25 % regression budget.  The median is stable against both
    one-off stalls and lucky fast rounds (pinned in
    ``tests/test_bench_harness.py``).
    """
    func()  # first call: allocator, caches, lazy imports
    start = time.perf_counter()
    func()
    single = max(time.perf_counter() - start, 1e-9)
    means = []
    for round_index in range(rounds + 1):   # +1 = discarded warmup round
        iterations = max(1, int(min_total_s / single / max(rounds, 1)))
        start = time.perf_counter()
        for _ in range(iterations):
            func()
        elapsed = (time.perf_counter() - start) / iterations
        if round_index > 0:
            means.append(elapsed)
        single = elapsed
    return float(np.median(means))


# ----------------------------------------------------------------------
# Bench definitions: name -> (vectorised callable, loop callable | None)
# ----------------------------------------------------------------------

def _sampling_inputs(num_rays: int, num_bins: int = 16):
    rng = np.random.default_rng(0)
    depths = np.tile(np.linspace(2.0, 6.0, num_bins), (num_rays, 1))
    weights = rng.random((num_rays, num_bins)) ** 4
    weights[rng.random(num_rays) < 0.4] = 0.0
    return depths, weights


def bench_coarse_then_focus_plan():
    from repro.models.sampling import coarse_then_focus_plan
    from repro.models.sampling import (allocate_ray_budget, sampling_pdf)
    from repro.perf import reference

    depths, weights = _sampling_inputs(4096)

    def vectorised():
        return coarse_then_focus_plan(
            depths, weights, num_focused_avg=16, n_max=48, tau=1e-3,
            near=2.0, far=6.0, rng=np.random.default_rng(1))

    def looped():
        ray_p, point_pdf, _ = sampling_pdf(weights, 1e-3)
        counts = allocate_ray_budget(ray_p, 16 * 4096, 48)
        plan = reference.focused_depths_loop(
            depths, point_pdf, counts, 48, 2.0, 6.0,
            np.random.default_rng(1))
        return reference.merge_critical_points_loop(
            plan, depths, weights, 1e-3, 48, 6.0)

    return vectorised, looped


def bench_inverse_transform():
    from repro.models.sampling import _inverse_transform
    from repro.perf import reference

    rng = np.random.default_rng(0)
    edges = np.sort(rng.random((4096, 17)), -1) * 4 + 2
    pdf = rng.random((4096, 16))
    uniforms = rng.random((4096, 32))
    return (lambda: _inverse_transform(edges, pdf, uniforms),
            lambda: reference.inverse_transform_loop(edges, pdf, uniforms))


def bench_trace_replay():
    from repro.hardware.dram import DramConfig
    from repro.hardware.interleave import FeatureStore, FootprintRegion
    from repro.hardware.trace import footprints_trace_arrays, replay_trace
    from repro.perf import reference

    store = FeatureStore(num_views=4, height=128, width=128, channels=32)
    footprints = [FootprintRegion(view=v, row0=8, row1=72, col0=8, col1=104)
                  for v in range(4)]
    config = DramConfig()

    def vectorised():
        trace = footprints_trace_arrays(store, footprints,
                                        config.num_banks, config.row_bytes)
        return replay_trace(trace, config)

    def looped():
        requests = []
        for region in footprints:
            requests.extend(reference.footprint_trace_loop(
                store, region, config.num_banks, config.row_bytes))
        return reference.replay_trace_loop(requests, config)

    return vectorised, looped


def bench_autograd_training_step():
    from repro import nn

    rng = np.random.default_rng(0)
    model = nn.MLP(32, [64, 64, 64], 3, rng=rng)
    optimizer = nn.Adam(model.parameters(), lr=1e-3)
    data = rng.standard_normal((256, 32)).astype(np.float32)
    target = rng.standard_normal((256, 3)).astype(np.float32)

    def step():
        optimizer.zero_grad()
        loss = nn.functional.mse_loss(model(nn.Tensor(data)), target)
        loss.backward()
        optimizer.step()
        return loss.item()

    return step, None


def bench_getitem_backward():
    from repro.nn import Tensor

    rng = np.random.default_rng(0)
    table = rng.standard_normal((4096, 64)).astype(np.float32)
    index = rng.integers(0, 4096, size=16384)
    grad = np.ones((16384, 64), dtype=np.float32)

    def gather_backward():
        x = Tensor(table, requires_grad=True)
        x[index].backward(grad)
        return x.grad

    return gather_backward, None


def bench_render_rays_e2e():
    """Full Gen-NeRF ``render_rays`` for 1024 rays, scene encoded once.

    Fast path: stacked-map batched gathering under ``inference_mode``.
    Loop reference: the seed inference path — 512-ray renderer chunks,
    per-view gather loops, stack-copied pooling, grad-mode graphs.
    """
    from repro import nn
    from repro.geometry.rays import rays_for_image
    from repro.models.gen_nerf import GenNeRF, GenNerfConfig
    from repro.models.ibrnet import ModelConfig
    from repro.models.renderer import render_source_views
    from repro.perf import reference
    from repro.scenes.datasets import make_scene

    scene = make_scene("llff", seed=3, image_scale=1 / 8)
    model = GenNeRF(GenNerfConfig(fine=ModelConfig(ray_module="mixer")))
    model.eval()
    source_images = render_source_views(scene, num_points=64, step=2)
    with nn.inference_mode():
        coarse_maps, fine_maps = model.encode_scene(source_images)
        coarse_list = [coarse_maps[i] for i in range(len(source_images))]
        fine_list = [fine_maps[i] for i in range(len(source_images))]
    bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                            step=8).select(slice(0, 1024))

    def fast():
        with nn.inference_mode():
            return model.render_rays(bundle, scene.source_cameras,
                                     coarse_maps, fine_maps, source_images)

    def looped():
        return reference.render_rays_chunked_loop(
            model, bundle, scene.source_cameras, coarse_list, fine_list,
            source_images, chunk=512)

    return fast, looped


def bench_frame_sharded():
    """One full Gen-NeRF frame render, sharded vs sequential.

    Fast path: ``render_image_gen_nerf(workers=None)`` — the chunk loop
    fanned over the persistent :mod:`repro.core.frame_pool` (autodetect
    width; on a single-core container this resolves to 1 and the bench
    honestly reports ~1.0x).  Loop reference: the identical render with
    ``workers=1`` (the historical in-process chunk loop).  The explicit
    ``chunk`` forces several chunks so multi-core hosts have work to
    fan out; both paths produce byte-identical images
    (``tests/models/test_render_sharded.py``).
    """
    from repro import nn
    from repro.models.gen_nerf import GenNeRF, GenNerfConfig
    from repro.models.ibrnet import ModelConfig
    from repro.models.renderer import (render_image_gen_nerf,
                                       render_source_views)
    from repro.scenes.datasets import make_scene

    scene = make_scene("llff", seed=3, image_scale=1 / 8)
    model = GenNeRF(GenNerfConfig(fine=ModelConfig(ray_module="mixer")))
    model.eval()
    source_images = render_source_views(scene, num_points=64, step=2)
    with nn.inference_mode():
        feature_maps = model.encode_scene(source_images)

    def sharded():
        return render_image_gen_nerf(model, scene, source_images, step=4,
                                     chunk=512, feature_maps=feature_maps,
                                     workers=None)

    def sequential():
        return render_image_gen_nerf(model, scene, source_images, step=4,
                                     chunk=512, feature_maps=feature_maps,
                                     workers=1)

    return sharded, sequential


def bench_scheduler_slab_sweep():
    """Full greedy frame partition of a 256x192 frame with 6 views.

    Fast path: one frustum unprojection for every depth slab, one
    projection per view, batched delta-overlap and patch assembly.
    Loop reference: the seed per-(slab, view) projection loops plus the
    per-tile / per-slab Python patch construction.
    """
    from repro.core.pipeline import hardware_rig
    from repro.hardware.scheduler import (GreedyPatchScheduler,
                                          SchedulerConfig)
    from repro.perf import reference
    from repro.scenes.datasets import DatasetSpec

    spec = DatasetSpec("bench", width=256, height=192, fov_x_deg=50.0,
                       near=2.0, far=6.0, rig="orbit", rig_distance=4.0)
    rig = hardware_rig(spec, num_views=6, seed=0)
    scheduler = GreedyPatchScheduler(SchedulerConfig())

    def fast():
        return scheduler.plan_frame(rig.novel, rig.sources, rig.near,
                                    rig.far)

    def looped():
        return reference.plan_frame_loop(scheduler, rig.novel, rig.sources,
                                         rig.near, rig.far)

    return fast, looped


def bench_accel_frame_sim():
    """Cycle-level frame simulation of a 320x240 frame with 6 views.

    Fast path: the batched ``simulate_frame`` — all patches' bank
    loads, DRAM service, and engine compute in one grouped array pass.
    Loop reference: the seed per-patch Python loop
    (``reference.simulate_frame_loop``).  Both consume one shared
    precomputed frame plan (~300 patches) so the bench isolates the
    frame-simulation arithmetic from the scheduler.
    """
    from repro.core.pipeline import hardware_rig
    from repro.hardware import GenNerfAccelerator
    from repro.models.workload import typical_workload
    from repro.perf import reference
    from repro.scenes.datasets import DatasetSpec

    spec = DatasetSpec("bench", width=320, height=240, fov_x_deg=50.0,
                       near=2.0, far=6.0, rig="orbit", rig_distance=4.0)
    rig = hardware_rig(spec, num_views=6, seed=0)
    workload = typical_workload(height=240, width=320, num_views=6)
    fast_accel = GenNerfAccelerator()
    loop_accel = GenNerfAccelerator()
    plan = fast_accel.plan_frame(rig.novel, rig.sources, rig.near, rig.far,
                                 workload)

    def fast():
        return fast_accel.simulate_frame(workload, rig.novel, rig.sources,
                                         rig.near, rig.far, plan=plan)

    def looped():
        return reference.simulate_frame_loop(
            loop_accel, workload, rig.novel, rig.sources, rig.near,
            rig.far, plan=plan)

    return fast, looped


def _training_bench(kind: str):
    """End-to-end training step: fast Trainer vs the seed loop.

    One timed call = a short finetune-style run (reset the model to its
    saved init, rebuild the trainer, fit one pixel block) on a prepared
    scene — the Table 2/3 inner loop.  The fast path exercises the
    whole training fast path: fused flat-buffer Adam with the gradient
    clip folded in, blocked pixel pre-generation with the ground-truth
    quadrature cached on the ``SceneData`` (identically scheduled
    reruns, like these, reuse it — exactly how the table harness
    variants share supervision), and the scene-level im2col cache.
    The loop reference (``repro.perf.reference.TrainerLoop``) unwinds
    all three: per-step GT quadrature, per-parameter Adam + standalone
    clip, per-layer caches only.  Both paths produce bit-identical
    losses and weights (``tests/models/test_training_equivalence.py``).
    """
    import numpy as np

    from repro import models as M
    from repro.perf import reference
    from repro.scenes.datasets import make_scene

    scene = make_scene("llff", seed=3, scene_name="fern",
                       num_source_views=4, image_scale=1 / 32)
    data = M.SceneData.prepare(scene, gt_points=128)
    seed_data = M.SceneData.prepare(scene, gt_points=128)
    cfg = M.TrainConfig(steps=8, rays_per_batch=96, num_points=8,
                        gt_points=128, seed=0, pixel_block_steps=8)
    model_cfg = M.ModelConfig(feature_dim=8, view_hidden=8, score_hidden=4,
                              density_hidden=12, density_feature_dim=6,
                              ray_module="mixer", n_max=8, encoder_hidden=4)
    if kind == "gen_nerf":
        model = M.GenNeRF(M.GenNerfConfig(fine=model_cfg, coarse_points=4,
                                          focused_points=6),
                          rng=np.random.default_rng(0))
    else:
        model = M.GeneralizableNeRF(model_cfg, rng=np.random.default_rng(0))
    init_state = model.state_dict()

    def fast():
        model.load_state_dict(init_state)
        model.train()
        return M.Trainer(model, [data], cfg).fit(cfg.steps)

    def looped():
        model.load_state_dict(init_state)
        model.train()
        return reference.trainer_fit_loop(model, [seed_data], cfg,
                                          cfg.steps)

    return fast, looped


def bench_serve_replay():
    """The serving scheduler's cross-request micro-batching.

    Fast path: a burst of 12 draft requests replayed through
    :func:`repro.core.serve.replay` with coalescing on — same-group
    rays merge into shared dispatches.  Loop reference: the identical
    trace with ``max_batch=1`` (every chunk dispatches alone — the
    sequential-serving baseline).  Both produce byte-identical pixels
    at every window (``tests/core/test_serve.py``); the scene store
    and models are prepared once so the bench isolates scheduling +
    render, not scene prep.
    """
    from repro.core import serve

    store = serve.SceneStore(capacity=2, source_points=24, cache=None)
    models = {"draft": serve.build_model("draft")}
    trace = serve.synthetic_trace(seed=0, clients=6,
                                  requests_per_client=2,
                                  scenes=("fern",), qualities=("draft",),
                                  burst=True)
    for _, request in trace:
        store.get(request.scene_key)        # warm the LRU once
    common = dict(queue_limit=64, scene_capacity=2, workers=1,
                  source_points=24)
    batched = serve.ServeConfig(batch_window=1, max_batch=4096, **common)
    sequential = serve.ServeConfig(batch_window=0, max_batch=1, **common)

    def coalesced():
        return serve.replay(trace, batched, store=store, models=models)

    def one_by_one():
        return serve.replay(trace, sequential, store=store, models=models)

    return coalesced, one_by_one


def _sparse_fine_pass_bench(occupancy: float):
    """IBRNet fine forward, packed vs padded, at a fixed mask occupancy.

    Fast path: the packed fine pass (``sparse=True``) — gather the
    mask-valid samples, run feature fetch + the pointwise MLP stacks on
    the flat buffers only, scatter zeros back.  Loop reference: the
    pinned padded path (``sparse=False``), which pays the full
    ``(R, n_max)`` grid.  The two are byte-identical
    (``tests/models/test_sparse_fine_pass.py``), so the speedup column
    reads directly as the packing's win at this occupancy — it should
    track ``1 / occupancy`` minus the fixed ray-stage and
    gather/scatter overheads.
    """
    from repro import nn
    from repro.geometry.rays import rays_for_image, stratified_depths
    from repro.models.ibrnet import GeneralizableNeRF, ModelConfig
    from repro.models.renderer import render_source_views
    from repro.scenes.datasets import make_scene

    scene = make_scene("llff", seed=3, image_scale=1 / 8)
    model = GeneralizableNeRF(ModelConfig(ray_module="mixer"))
    model.eval()
    source_images = render_source_views(scene, num_points=64, step=2)
    with nn.inference_mode():
        feature_maps = model.encode_scene(source_images)
    bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                            step=2).select(slice(0, 1024))
    depths = stratified_depths(np.random.default_rng(0), len(bundle), 32,
                               scene.near, scene.far, jitter=False)
    points = bundle.points_at(depths)
    rng = np.random.default_rng(int(round(occupancy * 100)))
    mask = rng.random(depths.shape) < occupancy

    def packed():
        with nn.inference_mode():
            return model(points, bundle.directions, scene.source_cameras,
                         feature_maps, source_images, mask=mask,
                         sparse=True)

    def padded():
        with nn.inference_mode():
            return model(points, bundle.directions, scene.source_cameras,
                         feature_maps, source_images, mask=mask,
                         sparse=False)

    return packed, padded


def bench_sparse_fine_pass_occ10():
    return _sparse_fine_pass_bench(0.10)


def bench_sparse_fine_pass_occ50():
    return _sparse_fine_pass_bench(0.50)


def bench_sparse_fine_pass_occ90():
    return _sparse_fine_pass_bench(0.90)


def bench_training_step_gen_nerf():
    return _training_bench("gen_nerf")


def bench_training_step_ibrnet():
    return _training_bench("ibrnet")


def _encode_footprint_bench(rays: int):
    """Training steps with the footprint-restricted encode on vs off.

    One timed call = a short IBRNet run on a prepared scene.  Fast
    path: ``Trainer(..., footprint=True)`` — each step plans the exact
    feature-map pixel set its ray bundle gathers and convolves only
    the matching receptive-field crops
    (:mod:`repro.models.footprint`).  Loop reference:
    ``repro.perf.reference.trainer_full_encode`` — the planner forced
    off, every step convolving the full source stack.  The two are
    byte-identical (``tests/models/test_footprint_equivalence.py``),
    so the speedup column reads directly as the footprint win at this
    ray count: it grows as the batch shrinks relative to the feature
    maps (the coverage the step actually needs).
    """
    import numpy as np

    from repro import models as M
    from repro.perf import reference
    from repro.scenes.datasets import make_scene

    scene = make_scene("llff", seed=3, scene_name="fern",
                       num_source_views=6, image_scale=1 / 8)
    data = M.SceneData.prepare(scene, gt_points=64)
    ref_data = M.SceneData.prepare(scene, gt_points=64)
    cfg = M.TrainConfig(steps=6, rays_per_batch=rays, num_points=12,
                        gt_points=64, seed=0, pixel_block_steps=6)
    model_cfg = M.ModelConfig(feature_dim=8, view_hidden=8, score_hidden=4,
                              density_hidden=12, density_feature_dim=6,
                              ray_module="mixer", n_max=12,
                              encoder_hidden=6)
    model = M.GeneralizableNeRF(model_cfg, rng=np.random.default_rng(0))
    init_state = model.state_dict()

    def footprint():
        model.load_state_dict(init_state)
        model.train()
        trainer = M.Trainer(model, [data], cfg, footprint=True)
        losses = trainer.fit(cfg.steps)
        assert trainer.footprint_stats["footprint"] == cfg.steps
        return losses

    def full_encode():
        model.load_state_dict(init_state)
        model.train()
        return reference.trainer_full_encode(model, [ref_data],
                                             cfg).fit(cfg.steps)

    return footprint, full_encode


def bench_train_encode_footprint_r4():
    return _encode_footprint_bench(4)


def bench_train_encode_footprint_r16():
    return _encode_footprint_bench(16)


BENCHES = {
    "coarse_then_focus_plan_r4096": bench_coarse_then_focus_plan,
    "inverse_transform_r4096": bench_inverse_transform,
    "trace_replay_4x64x96": bench_trace_replay,
    "autograd_training_step_mlp": bench_autograd_training_step,
    "getitem_backward_gather_16k": bench_getitem_backward,
    "render_rays_e2e_r1024": bench_render_rays_e2e,
    "frame_sharded": bench_frame_sharded,
    "scheduler_slab_sweep": bench_scheduler_slab_sweep,
    "accel_frame_sim": bench_accel_frame_sim,
    "serve_replay": bench_serve_replay,
    "sparse_fine_pass_occ10": bench_sparse_fine_pass_occ10,
    "sparse_fine_pass_occ50": bench_sparse_fine_pass_occ50,
    "sparse_fine_pass_occ90": bench_sparse_fine_pass_occ90,
    "training_step_e2e_gen_nerf": bench_training_step_gen_nerf,
    "training_step_e2e_ibrnet": bench_training_step_ibrnet,
    "train_encode_footprint_r4": bench_train_encode_footprint_r4,
    "train_encode_footprint_r16": bench_train_encode_footprint_r16,
}


def compare_to_previous(mean_s: float, prev_entry: Optional[Dict]
                        ) -> Optional[float]:
    """Regression percentage of ``mean_s`` against a prior JSON entry.

    Returns None when there is no usable prior mean (first run, renamed
    bench, or a malformed entry) — the unit suite feeds this synthetic
    priors to pin the second-run behaviour.
    """
    if not isinstance(prev_entry, dict):
        return None
    prev_mean = prev_entry.get("mean_s")
    if not isinstance(prev_mean, (int, float)) or prev_mean <= 0:
        return None
    return 100.0 * (mean_s - prev_mean) / prev_mean


def run(strict: bool = True, result_path: str = RESULT_PATH,
        only: Optional[Iterable[str]] = None, rounds: int = 5,
        min_total_s: float = 0.2, write: bool = True) -> int:
    previous: Dict[str, Dict] = {}
    if os.path.exists(result_path):
        try:
            with open(result_path) as handle:
                previous = json.load(handle).get("benches", {})
        except (json.JSONDecodeError, OSError, AttributeError) as error:
            print(f"warning: ignoring unreadable {result_path}: {error}",
                  file=sys.stderr)

    selected = dict(BENCHES)
    if only:
        unknown = set(only) - set(BENCHES)
        if unknown:
            print(f"unknown benches: {sorted(unknown)}", file=sys.stderr)
            return 2
        selected = {name: BENCHES[name] for name in only}

    benches: Dict[str, Dict] = {}
    regressions = []
    print(f"{'bench':<34} {'mean':>10} {'loop ref':>10} {'speedup':>8} "
          f"{'prev':>10} {'delta':>8}")
    for name, build in selected.items():
        vectorised, looped = build()
        # Smoke runs (rounds == 1) stay uniformly quick; measured runs
        # honour per-bench budgets for noise-prone sub-10ms paths.
        overrides = TIMING_OVERRIDES.get(name, {}) if rounds > 1 else {}
        bench_rounds = int(overrides.get("rounds", rounds))
        bench_min_total = float(overrides.get("min_total_s", min_total_s))
        mean_s = _time(vectorised, rounds=bench_rounds,
                       min_total_s=bench_min_total)
        loop_mean_s: Optional[float] = (
            _time(looped, rounds=bench_rounds, min_total_s=bench_min_total)
            if looped else None)
        speedup = (loop_mean_s / mean_s) if loop_mean_s else None
        prev_entry = previous.get(name)
        regression_pct = compare_to_previous(mean_s, prev_entry)
        benches[name] = {
            "mean_s": mean_s,
            "rounds": bench_rounds,
            "loop_reference_mean_s": loop_mean_s,
            "speedup_vs_loop": speedup,
            "previous_mean_s": (prev_entry or {}).get("mean_s"),
            "regression_pct": regression_pct,
        }
        if regression_pct is None:
            # A missing prior is a fact worth recording, not a silent
            # pass: first runs of a new bench land with an explicit
            # no-baseline note instead of looking like a clean compare.
            benches[name]["note"] = "new bench, no baseline"
        if regression_pct is not None \
                and regression_pct > REGRESSION_THRESHOLD_PCT:
            regressions.append((name, regression_pct))
        delta = ("%+.1f%%" % regression_pct) if regression_pct is not None \
            else "new"
        print(f"{name:<34} {mean_s * 1e3:>8.2f}ms "
              f"{(loop_mean_s or 0) * 1e3:>8.2f}ms "
              f"{('%.1fx' % speedup) if speedup else '-':>8} "
              f"{((prev_entry or {}).get('mean_s') or 0) * 1e3:>8.2f}ms "
              f"{delta:>8}")
        if regression_pct is None:
            print(f"  note: {name}: new bench, no baseline")

    if write:
        # Partial runs (--only) keep the other benches' previous entries
        # so a targeted rerun cannot silently drop history.
        merged = dict(previous)
        merged.update(benches)
        with open(result_path, "w") as handle:
            json.dump({"schema_version": 1, "generated_unix": time.time(),
                       "benches": merged}, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {result_path}")

    if regressions:
        for name, pct in regressions:
            print(f"REGRESSION: {name} slowed by {pct:.1f}% "
                  f"(threshold {REGRESSION_THRESHOLD_PCT}%)", file=sys.stderr)
        return 1 if strict else 0
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-strict", action="store_true",
                        help="report regressions without failing")
    parser.add_argument("--only", nargs="+", metavar="BENCH",
                        help="run a subset of benches (merged into the "
                             "existing JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="single quick round per bench, no JSON write "
                             "— exercises every bench body for CI")
    args = parser.parse_args()
    if args.smoke:
        return run(strict=False, only=args.only, rounds=1,
                   min_total_s=0.0, write=False)
    return run(strict=not args.no_strict, only=args.only)


if __name__ == "__main__":
    raise SystemExit(main())
