"""Spans and counters for the traced run, recorded from the benchmark's
own process.

:func:`install` wraps the program's layer functions where their callers
look them up (a function imported by name is wrapped in the importing
module, a method on its class).  Each call made while the tracer has a
phase set becomes one span ``(name, start_ns, end_ns, parent, phase)``
kept in memory; counters are bumped by the same wrappers.  Nothing is
written until :meth:`Tracer.dump` at the end of the run.

The wrappers only observe arguments and results, so a traced run
computes the same outputs as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from checks import self_times


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.first_dispatch: Dict[str, float] = {}
        self.phase: Optional[str] = None      # None: recording is off

    def wrap(self, name: Optional[str], function: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``function`` recording a span called ``name`` (none when
        ``name`` is None) and calling ``count(tracer, args, kwargs,
        result)`` after each call made while a phase is set."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return function(*args, **kwargs)
            if name is None:
                result = function(*args, **kwargs)
            else:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                span = [name, time.perf_counter_ns(), 0, parent,
                        tracer.phase]
                tracer.spans.append(span)
                tracer._stack.append(index)
                try:
                    result = function(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter_ns()
                    tracer._stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def self_seconds(self, phase: str) -> Dict[str, float]:
        """Summed self time per span name within one phase."""
        own = self_times(self.spans)
        totals: Dict[str, float] = defaultdict(float)
        for span, nanoseconds in zip(self.spans, own):
            if span[4] == phase:
                totals[span[0]] += nanoseconds / 1e9
        return totals

    def dump(self, path: str, **header) -> None:
        with open(path, "w") as handle:
            json.dump(dict(header, counts=dict(self.counts),
                           spans=self.spans), handle)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def _count_fetch(tracer, args, kwargs, result):
    points, _dirs, cameras = args[:3]
    tracer.counts["fetched_cells"] += (len(cameras) * points.shape[0]
                                       * points.shape[1])


def _count_gt_rays(tracer, args, kwargs, result):
    tracer.counts["gt_rays"] += len(args[1])


def _count_focused(tracer, args, kwargs, result):
    tracer.counts["focused_points"] += int(result.total_points)
    tracer.counts["focused_rays"] += int(result.depths.shape[0])


def _count_many(tracer, args, kwargs, result):
    tracer.counts["engine_patches"] += len(args[2])


def _count_batch(tracer, args, kwargs, result):
    tracer.counts["engine_computed"] += len(args[2])


def _count_frame(tracer, args, kwargs, result):
    tracer.counts["simulated_patches"] += int(result.num_patches)


def _mark_dispatch(tracer, args, kwargs, result):
    now = time.perf_counter()
    for state, _chunk in args[1]:
        tracer.first_dispatch.setdefault(state.request.request_id, now)


# (module, attribute, span name or None, counter)
HOOKS = [
    ("repro.core.serve", "RenderScheduler.submit", "core.serve.submit",
     None),
    ("repro.core.serve", "RenderScheduler.run_tick", "core.serve.tick",
     None),
    ("repro.core.serve", "RenderScheduler._execute", None,
     _mark_dispatch),
    ("repro.scenes.render_gt", "render_rays", "scenes.render_gt.quadrature",
     None),
    ("repro.models.renderer", "render_gt_rays",
     "scenes.render_gt.quadrature", None),
    ("repro.models.training", "render_gt_rays",
     "scenes.render_gt.quadrature", _count_gt_rays),
    ("repro.models.encoder", "ConvEncoder.encode_views",
     "models.encoder.encode", None),
    ("repro.models.encoder", "ConvEncoder.encode_views_footprint",
     "models.encoder.encode", None),
    ("repro.models.gen_nerf", "GenNeRF.coarse_pass",
     "models.gen_nerf.coarse_pass", None),
    ("repro.models.gen_nerf", "GenNeRF.plan_samples", None, _count_focused),
    ("repro.models.gen_nerf", "coarse_then_focus_plan",
     "models.sampling.plan", None),
    ("repro.models.renderer", "hierarchical_depths", "models.sampling.plan",
     None),
    ("repro.models.ibrnet", "fetch_features", "models.features.fetch",
     _count_fetch),
    ("repro.models.ibrnet", "GeneralizableNeRF.forward",
     "models.ibrnet.pointwise", None),
    ("repro.models.ray_mixer", "RayMixer.forward", "models.ray_module",
     None),
    ("repro.models.ray_transformer", "RayTransformer.forward",
     "models.ray_module", None),
    ("repro.models.gen_nerf", "composite",
     "models.volume_rendering.composite", None),
    ("repro.models.renderer", "composite",
     "models.volume_rendering.composite", None),
    ("repro.models.training", "composite",
     "models.volume_rendering.composite", None),
    ("repro.models.training", "fetched_pixel_mask", "models.footprint.plan",
     None),
    ("repro.models.training", "plan_conv_footprint",
     "models.footprint.plan", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optim", None),
    ("repro.hardware.scheduler", "GreedyPatchScheduler.plan_frame",
     "hardware.scheduler.plan", None),
    ("repro.hardware.accelerator", "fixed_partition",
     "hardware.scheduler.plan", None),
    ("repro.hardware.accelerator", "batched_bank_load",
     "hardware.interleave.bank_load", None),
    ("repro.hardware.dram", "DramModel.service_batch",
     "hardware.dram.service", None),
    ("repro.hardware.engine", "RenderingEngine.patch_compute_many",
     "hardware.engine.compute", _count_many),
    ("repro.hardware.engine", "RenderingEngine.patch_compute_batch", None,
     _count_batch),
    ("repro.hardware.sram", "PrefetchDoubleBuffer.pipeline_time",
     "hardware.sram.pipeline", None),
    ("repro.hardware.accelerator", "GenNerfAccelerator.simulate_frame",
     "hardware.accelerator.simulate_frame", _count_frame),
]


def install(tracer: Tracer) -> None:
    """Wrap every hook, plus ``frame_pool.map_chunks`` whose chunk
    function is wrapped per call so that the pool's own overhead is the
    map span's self time."""
    for module_name, attribute, name, count in HOOKS:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner).get(leaf) if isinstance(owner, type) else None
        if isinstance(raw, staticmethod):
            setattr(owner, leaf,
                    staticmethod(tracer.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, leaf, tracer.wrap(name, getattr(owner, leaf),
                                             count))

    frame_pool = importlib.import_module("repro.core.frame_pool")
    map_chunks = frame_pool.map_chunks

    def traced_map_chunks(function, payload, tasks, *args, **kwargs):
        chunk = tracer.wrap("core.frame_pool.chunk", function)
        return map_chunks(chunk, payload, tasks, *args, **kwargs)

    frame_pool.map_chunks = tracer.wrap("core.frame_pool.map_chunks",
                                        traced_map_chunks)
