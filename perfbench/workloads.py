"""One workload in one process: set-up, timed rounds, output checks.

``perfbench/run.py`` starts this script with BLAS pinned to one thread
and ``src`` on the import path::

    python3 perfbench/workloads.py --workload serve --seed 1 --seconds 15 \
        --mode timed --spawned-at <time.monotonic() of the parent>

and reads the JSON object it prints as its last line.  ``--mode setup``
stops after set-up; ``--mode traced`` wraps the layers (see
``tracing.py``) and adds per-layer numbers.

A run always attempts whole rounds of the same operations, and the
number of rounds depends only on ``--seconds``, so two runs of the same
command attempt the same operations whatever the host's speed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

# repro.models first: importing repro.hardware before it is a circular
# import in a fresh process.
from repro import models as M
from repro import hardware as H
from repro.core import serve
from repro.core.pipeline import hardware_rig
from repro.perf.reference import simulate_frame_loop
from repro.scenes import DATASETS, make_scene

import checks
from tracing import Tracer, install

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _median(values) -> float:
    return checks.nearest_rank(values, 50) if len(values) else 0.0


def _frame_shape(camera, step: int):
    """(rows, cols) of a frame strided by ``step``."""
    return (len(range(0, camera.intrinsics.height, step)),
            len(range(0, camera.intrinsics.width, step)))


def accelerator_seconds(novel, sources, near, far, workload) -> float:
    """Simulated seconds of one frame on the modelled Gen-NeRF design."""
    accelerator = H.GenNerfAccelerator(H.variant_config("ours"))
    return float(accelerator.simulate_frame(workload, novel, sources, near,
                                            far).total_time_s)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serve:
    """Render traffic replayed through ``RenderScheduler`` on its virtual
    clock, with the daemon's default knobs.

    Which merged uniform-tier requests differ from a direct render
    depends on the arrival schedule, the scenes and the uniform tiers'
    weights: with the scenes seeded, seed 2 failed one request more than
    seed 1.  So those stay fixed: the schedule has its own constant
    seed, the scenes use ``RenderRequest``'s default ``scene_seed`` and
    the uniform tiers the daemon's default weights.  ``--seed`` draws
    the weights of the tiers that never merge (``high`` and
    ``gen_nerf``).
    """

    name = "serve"
    round_seconds = 8.4           # one round on the reference host
    scenes = ("fern", "fortress", "horns")
    qualities = tuple(serve.QUALITIES)
    image_scale = 1 / 16          # RenderRequest's default scale
    views = 4
    steps = (1, 2, 3, 4)          # 2961, 768, 336 and 192 rays a frame
    clients = 16
    requests_per_client = 8
    schedule_seed = 14
    scene_seed = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.schedule = self.arrival_schedule()
        self.requests: Dict[str, serve.RenderRequest] = {}
        self.responses: List[serve.RenderResponse] = []
        self.refused: List[str] = []
        self.arrival_start: Dict[str, float] = {}
        self.latencies: List[float] = []
        self.next_tick = 0

    @classmethod
    def arrival_schedule(cls):
        """One round's open-loop arrivals: ``clients`` independent
        clients, each sending its requests at seeded gaps of 1-6 ticks
        whatever the replies.  Rows are (tick, client, index, scene,
        quality, step)."""
        rng = np.random.default_rng(cls.schedule_seed)
        arrivals = []
        for client in range(cls.clients):
            tick = int(rng.integers(0, 4))
            for index in range(cls.requests_per_client):
                arrivals.append((
                    tick, client, index,
                    cls.scenes[int(rng.integers(len(cls.scenes)))],
                    cls.qualities[int(rng.integers(len(cls.qualities)))],
                    cls.steps[int(rng.integers(len(cls.steps)))]))
                tick += int(rng.integers(1, 7))
        arrivals.sort()
        return arrivals

    def key(self, scene: str) -> tuple:
        return (scene, float(self.image_scale), self.views, self.scene_seed)

    def setup(self) -> None:
        config = serve.ServeConfig.from_env()
        models = {quality: serve.build_model(quality, seed=self.seed)
                  for quality, spec in serve.QUALITIES.items()
                  if not spec.mergeable}
        self.scheduler = serve.RenderScheduler(config, models=models)
        for scene in self.scenes:
            prepared = self.scheduler.store.get(self.key(scene))
            for quality in self.qualities:
                prepared.data.encoded_maps(self.scheduler.model_for(quality))
        self.store_before = dict(self.scheduler.store.counters)
        self.store_after = self.store_before

    def run_round(self, index: int) -> int:
        base = self.next_tick
        by_tick: Dict[int, List[serve.RenderRequest]] = {}
        for tick, client, number, scene, quality, step in self.schedule:
            request = serve.RenderRequest(
                request_id=f"r{index}-c{client:02d}-{number}", scene=scene,
                quality=quality, step=step, image_scale=self.image_scale,
                views=self.views, scene_seed=self.scene_seed)
            self.requests[request.request_id] = request
            by_tick.setdefault(base + tick, []).append(request)
        last = max(by_tick)
        tick = base
        while True:
            started = time.perf_counter()
            for request in by_tick.get(tick, ()):
                self.arrival_start[request.request_id] = started
                try:
                    self.scheduler.submit(request, tick)
                except (serve.ServiceOverloaded, serve.ServeError):
                    self.refused.append(request.request_id)
            answered = self.scheduler.run_tick(tick)
            ended = time.perf_counter()
            for response in answered:
                self.latencies.append(
                    ended - self.arrival_start[response.request_id])
            self.responses.extend(answered)
            if tick >= last and self.scheduler.idle:
                break
            tick += 1
        self.next_tick = tick + 1
        self.store_after = dict(self.scheduler.store.counters)
        return len(self.schedule)

    # ------------------------------------------------------------------
    def _direct(self, request: serve.RenderRequest) -> np.ndarray:
        """The request rendered by ``render_image_*`` on its own."""
        spec = serve.QUALITIES[request.quality]
        prepared = self.scheduler.store.get(request.scene_key)
        model = self.scheduler.model_for(request.quality)
        maps = prepared.data.encoded_maps(model)
        source = prepared.data.source_images
        if spec.kind == "gen_nerf":
            image, _ = M.render_image_gen_nerf(
                model, prepared.scene, source, step=request.step,
                feature_maps=maps)
            return image
        return M.render_image_ibrnet(
            model, prepared.scene, source, num_points=spec.num_points,
            step=request.step, hierarchical=spec.kind == "hierarchical",
            coarse_points=spec.coarse_points or None, feature_maps=maps)

    def check(self):
        notes = []
        counts: Dict[str, int] = {}
        for response in self.responses:
            counts[response.request_id] = counts.get(response.request_id,
                                                     0) + 1
        if self.refused or self.scheduler.counters["shed"]:
            notes.append(f"{len(self.refused)} requests refused or shed")
        if set(counts) != set(self.requests) \
                or any(value != 1 for value in counts.values()):
            notes.append("a request was not answered exactly once")
        direct: Dict[tuple, np.ndarray] = {}
        failed = []
        for response in self.responses:
            request = self.requests[response.request_id]
            if response.status != "ok":
                notes.append(f"{request.request_id}: {response.status} "
                             f"{response.error}")
                continue
            scene = self.scheduler.store.scene_for(request.scene_key)
            shape = _frame_shape(scene.target_camera, request.step) + (3,)
            if not checks.pixels_valid(response.image, shape):
                notes.append(f"{request.request_id}: invalid pixels")
            frame = (request.scene, request.quality, request.step)
            if frame not in direct:
                direct[frame] = self._direct(request)
            if not checks.bit_identical(response.image, direct[frame]):
                failed.append(request)
        unexpected = [request.request_id for request in failed
                      if not serve.QUALITIES[request.quality].mergeable]
        if unexpected:
            notes.append(f"non-merging tiers differ from the direct "
                         f"render: {unexpected}")
        self.failed_ids = sorted(request.request_id for request in failed)
        return not notes, len(failed), notes

    def sim_seconds_per_frame(self) -> float:
        """Mean simulated seconds of the served frames on the modelled
        design: each frame at its own size, with the request's views and
        its tier's points per ray."""
        memo: Dict[tuple, float] = {}
        total = 0.0
        for response in self.responses:
            request = self.requests[response.request_id]
            frame = (request.scene, request.quality, request.step)
            if frame not in memo:
                scene = make_scene(
                    "llff", seed=self.scene_seed, scene_name=request.scene,
                    num_source_views=self.views,
                    image_scale=self.image_scale / request.step)
                rows, cols = _frame_shape(scene.target_camera, 1)
                spec = serve.QUALITIES[request.quality]
                workload = M.typical_workload(
                    height=rows, width=cols, num_views=self.views,
                    points_per_ray=spec.num_points)
                memo[frame] = accelerator_seconds(
                    scene.target_camera, scene.source_cameras, scene.near,
                    scene.far, workload)
            total += memo[frame]
        return total / max(len(self.responses), 1)

    def layers(self, tracer: Tracer, ops: int) -> Dict[str, float]:
        counters = self.scheduler.counters
        store = self.store_after
        calls = sum(store[name] - self.store_before[name]
                    for name in ("hits", "misses"))
        waits = [tracer.first_dispatch[request_id] - started
                 for request_id, started in self.arrival_start.items()
                 if request_id in tracer.first_dispatch]
        return {
            "core.serve.queue_wait_p50_s": _median(waits),
            "core.serve.dispatches": counters["dispatches"] / ops,
            "core.serve.rays_per_dispatch":
                counters["batched_rays"] / max(counters["dispatches"], 1),
            "core.serve.merged_ray_share":
                counters["merged_rays"] / max(counters["batched_rays"], 1),
            "core.serve.scene_hit_ratio":
                (store["hits"] - self.store_before["hits"]) / max(calls, 1),
        }


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
class Train:
    """The Table 2 variant ladder at the experiments' own shape, one
    ``Trainer.step`` of each variant per round on one shared
    ``SceneData``.  ``--seed`` picks the scene's content and rig; model
    and trainer seeds are fixed, so every variant draws the same pixel
    batches and reuses the same supervision."""

    name = "train"
    round_seconds = 0.34
    image_scale = 1 / 10
    views = 10
    rays_per_batch = 40
    points = 20
    source_points = 32            # quadrature of the source views
    eval_step = 4                 # held-out view for the PSNR check
    model_seed = 1
    variants = ("ibrnet_transformer", "ibrnet_no_ray_module",
                "ibrnet_mixer", "gen_nerf")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.latencies: List[float] = []

    def build(self, variant: str):
        rng = np.random.default_rng(self.model_seed)

        def widths(ray_module: str) -> M.ModelConfig:
            return M.ModelConfig(feature_dim=12, view_hidden=12,
                                 score_hidden=6, density_hidden=24,
                                 density_feature_dim=8,
                                 ray_module=ray_module, n_max=self.points,
                                 encoder_hidden=8)

        if variant == "gen_nerf":
            return M.GenNeRF(M.GenNerfConfig(
                fine=widths("mixer"), coarse_points=8,
                focused_points=self.points - 8), rng=rng)
        ray_module = {"ibrnet_transformer": "transformer",
                      "ibrnet_no_ray_module": "none",
                      "ibrnet_mixer": "mixer"}[variant]
        return M.GeneralizableNeRF(widths(ray_module), rng=rng)

    def setup(self) -> None:
        self.scene = make_scene("llff", seed=self.seed, scene_name="fern",
                                num_source_views=self.views,
                                image_scale=self.image_scale)
        self.data = M.SceneData.prepare(self.scene,
                                        gt_points=self.source_points)
        self.trainers = {variant: M.Trainer(self.build(variant),
                                            [self.data], self.config())
                         for variant in self.variants}

    def run_round(self, index: int) -> int:
        for trainer in self.trainers.values():
            started = time.perf_counter()
            trainer.step()
            self.latencies.append(time.perf_counter() - started)
        return len(self.trainers)

    def render(self, model) -> np.ndarray:
        model.eval()
        if isinstance(model, M.GenNeRF):
            image, _ = M.render_image_gen_nerf(
                model, self.scene, self.data.source_images,
                step=self.eval_step)
        else:
            image = M.render_image_ibrnet(
                model, self.scene, self.data.source_images,
                num_points=self.points, step=self.eval_step,
                hierarchical=True)
        return np.clip(image, 0.0, 1.0)

    def config(self, learning_rate: float = 5e-4) -> M.TrainConfig:
        return M.TrainConfig(rays_per_batch=self.rays_per_batch,
                             num_points=self.points, seed=self.model_seed,
                             learning_rate=learning_rate)

    def replayed_losses(self, model, steps: int) -> List[float]:
        """``model``'s losses on the first ``steps`` batches of the
        training stream, at a zero learning rate so its weights stay."""
        replay = M.Trainer(model, [self.data], self.config(0.0))
        return [replay.step() for _ in range(steps)]

    def check(self):
        notes = []
        reference = M.render_target_reference(self.scene, num_points=192,
                                              step=self.eval_step)
        self.psnr_gain = {}
        for variant, trainer in self.trainers.items():
            history = trainer.history
            # Every step draws new pixels, and over a run's steps their
            # spread exceeds the trend (seeds 5 and 6 "rose" between the
            # first and last ten steps while PSNR gained 2 dB), so the
            # trained weights are scored on the same first batches.
            window = min(10, len(history))
            if not checks.losses_finite(history):
                notes.append(f"{variant}: a loss is not finite")
            elif not checks.loss_fell(
                    history[:window],
                    self.replayed_losses(trainer.model, window)):
                notes.append(f"{variant}: the trained weights do not lower "
                             f"the loss of the first {window} batches")
            trained = M.psnr(self.render(trainer.model), reference)
            initial = M.psnr(self.render(self.build(variant)), reference)
            self.psnr_gain[variant] = round(trained - initial, 2)
            if not trained > initial:
                notes.append(f"{variant}: PSNR {trained:.2f} dB trained "
                             f"vs {initial:.2f} dB initial")
        return not notes, 0, notes

    def sim_seconds_per_frame(self) -> float:
        """Simulated seconds of the held-out frame on the modelled
        design, at Table 2's views and points per ray."""
        camera = self.scene.target_camera
        workload = M.typical_workload(
            height=camera.intrinsics.height, width=camera.intrinsics.width,
            num_views=self.views, points_per_ray=self.points)
        return accelerator_seconds(camera, self.scene.source_cameras,
                                   self.scene.near, self.scene.far, workload)

    def layers(self, tracer: Tracer, ops: int) -> Dict[str, float]:
        stats = {"footprint": 0, "dense": 0, "coverage": 0.0}
        for trainer in self.trainers.values():
            for name in stats:
                stats[name] += trainer.footprint_stats[name]
        encodes = stats["footprint"] + stats["dense"]
        return {
            "models.footprint.engaged_ratio":
                stats["footprint"] / max(encodes, 1),
            "models.footprint.coverage":
                stats["coverage"] / max(stats["footprint"], 1),
        }


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
class Simulate:
    """The Fig. 10/11/12 sweep on the cycle-level simulator: the three
    paper dataset families x 2/6/10 source views x the four Fig. 12
    variants at 64 points a ray, plus Fig. 11's points axis for ``ours``
    (NeRF-Synthetic, 6 views).  Each frame is planned and simulated on a
    fresh accelerator.  Rigs are the figures' own
    (``repro.core.pipeline.hardware_rig``); ``--seed`` picks their
    jitter.

    Latency here is the host time of a whole sweep, the wait for the
    figures' frames: per-frame host times span 5 ms to 1.7 s in two
    clusters, and their median hopped between clusters from run to run
    (27 % spread over five runs)."""

    name = "simulate"
    round_seconds = 15.6
    families = ("deepvoxels", "nerf_synthetic", "llff")
    views = (2, 6, 10)
    variants = ("ours", "var1", "var2", "var3")
    points = (128, 112, 96, 80)
    # Frames compared field for field with the seed loop: every variant
    # at its cheapest frame, and one larger greedy plan.
    reference_frames = (("deepvoxels", 2, "ours", 64),
                        ("deepvoxels", 2, "var1", 64),
                        ("deepvoxels", 2, "var2", 64),
                        ("deepvoxels", 2, "var3", 64),
                        ("llff", 6, "ours", 64))

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.latencies: List[float] = []
        self.results: Dict[tuple, tuple] = {}

    def setup(self) -> None:
        self.frames = []
        rigs = {}
        grid = [(family, views, variant, 64) for family in self.families
                for views in self.views for variant in self.variants]
        grid += [("nerf_synthetic", 6, "ours", points)
                 for points in self.points]
        for family, views, variant, points in grid:
            spec = DATASETS[family]
            if (family, views) not in rigs:
                rigs[family, views] = hardware_rig(spec, views,
                                                   seed=self.seed)
            workload = M.typical_workload(height=spec.height,
                                          width=spec.width,
                                          num_views=views,
                                          points_per_ray=points)
            self.frames.append(((family, views, variant, points),
                                rigs[family, views], workload))

    def run_round(self, index: int) -> int:
        sweep_started = time.perf_counter()
        for key, rig, workload in self.frames:
            accelerator = H.GenNerfAccelerator(H.variant_config(key[2]))
            plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                          rig.far, workload)
            result = accelerator.simulate_frame(workload, rig.novel,
                                                rig.sources, rig.near,
                                                rig.far, plan=plan)
            self.results[key] = (plan, result)
        self.latencies.append(time.perf_counter() - sweep_started)
        return len(self.frames)

    def check(self):
        notes = []
        for key, (plan, result) in self.results.items():
            if not checks.plan_tiles(plan.arrays.bounds, plan.image_height,
                                     plan.image_width, plan.depth_bins):
                notes.append(f"{key}: patches do not tile the frame")
            if not checks.simulation_consistent(
                    result.total_time_s, result.compute_time_s,
                    result.pe_utilization):
                notes.append(f"{key}: inconsistent frame statistics")
        frames = {key: (rig, workload) for key, rig, workload in self.frames}
        for key in self.reference_frames:
            rig, workload = frames[key]
            plan, result = self.results[key]
            loop = simulate_frame_loop(
                H.GenNerfAccelerator(H.variant_config(key[2])), workload,
                rig.novel, rig.sources, rig.near, rig.far, plan=plan)
            if not checks.same_fields(result, loop):
                notes.append(f"{key}: differs from the seed loop")
        return not notes, 0, notes

    def ours(self):
        return [result for key, (_plan, result) in self.results.items()
                if key[2] == "ours"]

    def sim_seconds_per_frame(self) -> float:
        frames = self.ours()
        return sum(result.total_time_s for result in frames) / len(frames)

    def layers(self, tracer: Tracer, ops: int) -> Dict[str, float]:
        frames = self.ours()

        def mean(values):
            return float(sum(values) / len(frames))

        return {
            "hardware.scheduler.patches":
                mean(result.num_patches for result in frames),
            "hardware.dram.prefetch_mb":
                mean(result.prefetch_bytes / 1e6 for result in frames),
            "hardware.accelerator.exposed_data_ms":
                mean(result.data_time_s * 1e3 for result in frames),
            "hardware.engine.busy_ms":
                mean(result.compute_time_s * 1e3 for result in frames),
            "hardware.engine.pe_utilization":
                mean(result.pe_utilization for result in frames),
            "hardware.accelerator.energy_mj":
                mean(result.energy_j * 1e3 for result in frames),
        }


WORKLOADS = {cls.name: cls for cls in (Serve, Train, Simulate)}


# ----------------------------------------------------------------------
# Per-layer numbers from the traced run
# ----------------------------------------------------------------------
# metric -> span names whose self time it sums
LAYER_SPANS = {
    "core.serve.submit_s": ("core.serve.submit",),
    "core.serve.tick_self_s": ("core.serve.tick",),
    "core.frame_pool.overhead_s": ("core.frame_pool.map_chunks",),
    "scenes.render_gt.quadrature_s": ("scenes.render_gt.quadrature",),
    "models.encoder.encode_s": ("models.encoder.encode",),
    "models.gen_nerf.coarse_pass_s": ("models.gen_nerf.coarse_pass",),
    "models.sampling.plan_s": ("models.sampling.plan",),
    "models.features.fetch_s": ("models.features.fetch",),
    "models.ibrnet.pointwise_s": ("models.ibrnet.pointwise",),
    "models.ray_module_s": ("models.ray_module",),
    "models.volume_rendering.composite_s":
        ("models.volume_rendering.composite",),
    "models.footprint.plan_s": ("models.footprint.plan",),
    "nn.backward_s": ("nn.backward",),
    "nn.optim_s": ("nn.optim",),
    "hardware.scheduler.plan_s": ("hardware.scheduler.plan",),
    "hardware.interleave.bank_load_s": ("hardware.interleave.bank_load",),
    "hardware.dram.service_s": ("hardware.dram.service",),
    "hardware.engine.compute_s": ("hardware.engine.compute",),
    "hardware.sram.pipeline_s": ("hardware.sram.pipeline",),
    "hardware.accelerator.self_s": ("hardware.accelerator.simulate_frame",),
}

# Metrics a workload that does not reach the layer reports as zero.
LAYER_DEFAULTS = (
    "core.serve.queue_wait_p50_s", "core.serve.dispatches",
    "core.serve.rays_per_dispatch", "core.serve.merged_ray_share",
    "core.serve.scene_hit_ratio", "models.footprint.engaged_ratio",
    "models.footprint.coverage", "hardware.scheduler.patches",
    "hardware.dram.prefetch_mb", "hardware.accelerator.exposed_data_ms",
    "hardware.engine.busy_ms", "hardware.engine.pe_utilization",
    "hardware.accelerator.energy_mj")


def layer_metrics(tracer: Tracer, workload, ops: int) -> Dict[str, float]:
    """Every per-layer number.  A layer's seconds are its self time in
    set-up plus its self time per operation in the timed rounds; counts
    are per operation."""
    setup = tracer.self_seconds("setup")
    timed = tracer.self_seconds("timed")
    metrics = {name: 0.0 for name in LAYER_DEFAULTS}
    for metric, names in LAYER_SPANS.items():
        metrics[metric] = sum(setup.get(name, 0.0) + timed.get(name, 0.0)
                              / ops for name in names)
    counts = tracer.counts
    metrics["models.features.fetched_cells"] = counts["fetched_cells"] / ops
    metrics["models.training.gt_rays"] = counts["gt_rays"] / ops
    metrics["models.sampling.focused_points_per_ray"] = (
        counts["focused_points"] / max(counts["focused_rays"], 1))
    metrics["hardware.engine.memo_hit_ratio"] = (
        1.0 - counts["engine_computed"] / counts["engine_patches"]
        if counts["engine_patches"] else 0.0)
    frame_ns = sum(span[2] - span[1] for span in tracer.spans
                   if span[0] == "hardware.accelerator.simulate_frame"
                   and span[4] == "timed")
    metrics["hardware.accelerator.host_us_per_patch"] = (
        frame_ns / 1e3 / counts["simulated_patches"]
        if counts["simulated_patches"] else 0.0)
    metrics.update(workload.layers(tracer, ops))
    return metrics


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _openblas():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(library, f"{prefix}get_num_threads{suffix}",
                                  None)
                core = getattr(library, f"{prefix}get_corename{suffix}",
                               None)
                if threads is not None and core is not None:
                    core.restype = ctypes.c_char_p
                    return int(threads()), core().decode()
    return None, None


def fingerprint() -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, core = _openblas()
    revision = "unknown (the checkout is not a git repository)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration", "unknown"),
        "blas_core": core or "unknown",
        "blas_threads": threads,
        "git_revision": revision,
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "setup"),
                        default="timed")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        install(tracer)
        tracer.phase = "setup"
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = max(1, round(args.seconds / workload.round_seconds))
    if tracer is not None:
        tracer.phase = "timed"
    round_s = []
    ops = 0
    for index in range(rounds):
        started = time.perf_counter()
        ops += workload.run_round(index)
        round_s.append(time.perf_counter() - started)
    measured_s = sum(round_s)
    if tracer is not None:
        tracer.phase = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct, failed, notes = workload.check()
    sim_s = workload.sim_seconds_per_frame()
    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "rounds": rounds, "attempted": ops, "failed": failed,
        "correct": correct, "notes": notes, "measured_s": measured_s,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "throughput_per_s": ops / measured_s,
            "latency_p50_s": checks.nearest_rank(workload.latencies, 50),
            "latency_p95_s": checks.nearest_rank(workload.latencies, 95),
            "sim_fps": 1.0 / sim_s,
        },
        "latency_samples": len(workload.latencies),
        "beyond_p95": checks.samples_beyond(len(workload.latencies), 95),
        "round_s": round_s,
        "fingerprint": fingerprint(),
    }
    if args.workload == "serve":
        result["failed_requests"] = workload.failed_ids
    if args.workload == "train":
        result["psnr_gain_db"] = workload.psnr_gain
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, workload, ops)
        if args.trace_out:
            tracer.dump(args.trace_out, workload=args.workload,
                        seed=args.seed, rounds=rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
