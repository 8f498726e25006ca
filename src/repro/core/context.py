"""Unified run context for the experiment registry.

A :class:`RunContext` is the single object an experiment executes
against: it carries the run's seed, scale, worker and fault settings,
the process-wide prepared scene / dense-reference memos (previously
scattered across module globals in ``repro.core.experiments``), the
optional disk-backed scene cache (:mod:`repro.core.scene_cache`), and
artefact I/O through :func:`repro.core.reporting.write_artifact`.

The memos are process-wide by default (two contexts in one process
share prepared scenes, exactly like the old module globals), so pool
workers and sequential paths see identical values; the disk cache
extends the reuse across processes and pytest sessions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .. import models as M
from ..scenes.datasets import llff_eval_scenes
from .scene_cache import SceneCache, recipe_key, source_images_key
from . import faults, reporting

LLFF_EVAL_SCENES = ("fern", "fortress", "horns", "trex")

def _default_results_dir() -> str:
    """The committed ``benchmarks/results`` of the in-tree checkout
    (src-layout: four levels up from this file); for an installed
    package — where that walk lands outside any repository — fall back
    to a cwd-relative ``benchmarks/results``."""
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    in_tree = os.path.join(repo_root, "benchmarks", "results")
    if os.path.isdir(os.path.dirname(in_tree)):
        return in_tree
    return os.path.join(os.getcwd(), "benchmarks", "results")


DEFAULT_RESULTS_DIR = _default_results_dir()

# Process-wide memos: scene generation is crc32-deterministic, the
# source-view renders of ``SceneData.prepare`` depend only on
# (scene, gt_points), and the dense target reference only on
# (scene, step) — so one process-wide memo serves every harness:
# Table 2 and Table 3 at matching view counts share the same
# minutes-scale ground-truth renders instead of re-rendering them per
# runner.  The shared ``SceneData`` objects also carry the scene-level
# caches of the training fast path (``gt_cache`` / ``conv_cache``),
# which is what lets identically scheduled variant ladders reuse
# supervision across models.
_SCENE_DATA_MEMO: Dict[tuple, "M.SceneData"] = {}
_REFERENCE_MEMO: Dict[tuple, np.ndarray] = {}

REFERENCE_POINTS = 192   # dense-reference quadrature of every harness

# "cache unspecified" sentinel for llff_scene_data/llff_references:
# distinct from None so an explicitly disabled cache (None, e.g. from a
# RunContext whose cache_dir is an off-value) is honoured even when the
# REPRO_CACHE_DIR env knob is set.
_UNRESOLVED = object()


def clear_scene_memos() -> None:
    """Drop the process-wide prepared-scene and reference memos.

    Long-lived processes that sweep many configurations (each pinning
    its rendered ``SceneData`` — including the per-scene GT and
    feature caches — forever) can call this between sweeps to release
    the memory; the next harness run simply re-renders (or reloads
    from the disk cache when ``REPRO_CACHE_DIR`` is set)."""
    _SCENE_DATA_MEMO.clear()
    _REFERENCE_MEMO.clear()


def _source_images_key(name: str, base: tuple) -> str:
    # Delegates to the shared recipe in repro.core.scene_cache so the
    # serve-layer SceneStore hits the same disk entries.
    image_scale, num_source_views, seed, gt_points = base
    return source_images_key(name, image_scale, num_source_views, seed,
                             gt_points)


def _reference_key(name: str, base: tuple, eval_step: int) -> str:
    image_scale, num_source_views, seed, gt_points = base
    return recipe_key(f"llff-ref-{name}", image_scale=image_scale,
                      num_source_views=num_source_views, seed=seed,
                      num_points=REFERENCE_POINTS, step=int(eval_step))


def llff_scene_data(image_scale: float, num_source_views: int = 10,
                    seed: int = 1, gt_points: int = 128,
                    names: Sequence[str] = LLFF_EVAL_SCENES,
                    cache=_UNRESOLVED,
                    workers: Optional[int] = 1) -> Dict[str, "M.SceneData"]:
    """Prepared :class:`repro.models.SceneData` for LLFF analogues,
    memoised per process **per scene**, so a harness that asks for a
    subset (tiny test configs) only ever pays for that subset.

    With a disk cache active (``cache=`` or the ``REPRO_CACHE_DIR``
    knob) the expensive source-view renders additionally persist across
    processes, keyed by the crc32 scene recipe; hits are byte-identical
    to cold preparation, and the cheap deterministic scene objects are
    rebuilt either way.  ``cache=None`` explicitly disables the disk
    layer even when the env knob is set; leaving it unspecified
    resolves the knob.

    ``workers`` shards the cold source-view renders over the intra-frame
    pool (``None`` autodetects); sharded renders are byte-identical to
    sequential, so the disk-cache keys and contents are unaffected.
    """
    base = (float(image_scale), int(num_source_views), int(seed),
            int(gt_points))
    prepared: Dict[str, "M.SceneData"] = {}
    missing = [name for name in names
               if (base + (name,)) not in _SCENE_DATA_MEMO]
    if missing:
        if cache is _UNRESOLVED:
            cache = SceneCache.from_env()
        eval_scenes = llff_eval_scenes(image_scale, num_source_views,
                                       seed=seed)
        for name in missing:
            images = cache.load(_source_images_key(name, base)) \
                if cache else None
            if images is None:
                data = M.SceneData.prepare(eval_scenes[name],
                                           gt_points=gt_points,
                                           workers=workers)
                if cache:
                    cache.store(_source_images_key(name, base),
                                data.source_images)
            else:
                data = M.SceneData(scene=eval_scenes[name],
                                   source_images=images)
            _SCENE_DATA_MEMO[base + (name,)] = data
    for name in names:
        prepared[name] = _SCENE_DATA_MEMO[base + (name,)]
    return prepared


def llff_references(scene_data: Dict[str, "M.SceneData"], key: tuple,
                    eval_step: int,
                    cache=_UNRESOLVED) -> Dict[str, np.ndarray]:
    """Dense target references for a prepared scene dict, memoised per
    (configuration, scene, step) — and persisted through the disk cache
    when one is active.  ``key`` is the scene recipe tuple
    ``(image_scale, num_source_views, seed, gt_points)``.
    ``cache=None`` explicitly disables the disk layer; unspecified
    resolves the ``REPRO_CACHE_DIR`` knob."""
    references: Dict[str, np.ndarray] = {}
    resolved = cache
    for name, data in scene_data.items():
        memo_key = (key, name, int(eval_step))
        cached = _REFERENCE_MEMO.get(memo_key)
        if cached is None:
            if resolved is _UNRESOLVED:
                resolved = SceneCache.from_env()
            disk_key = _reference_key(name, key, eval_step)
            cached = resolved.load(disk_key) if resolved else None
            if cached is None:
                cached = M.render_target_reference(
                    data.scene, num_points=REFERENCE_POINTS,
                    step=eval_step)
                if resolved:
                    resolved.store(disk_key, cached)
            _REFERENCE_MEMO[memo_key] = cached
        references[name] = cached
    return references


@dataclass
class RunContext:
    """Execution context shared by every registry experiment.

    * ``seed`` — overrides an experiment's ``seed`` parameter when set
      (``None`` keeps the experiment's committed-artefact default);
    * ``scale`` — work multiplier applied through each experiment's
      declared scale rules (1.0 = the committed-artefact configuration);
    * ``workers`` — fan-out width for :func:`repro.core.run_variants`
      (``None`` = ``REPRO_WORKERS`` env, then CPU count);
    * ``cache_dir`` — disk scene-cache directory (``None`` = the
      ``REPRO_CACHE_DIR`` env knob);
    * ``results_dir`` — where :meth:`write_artifact` lands artefacts
      (defaults to the committed ``benchmarks/results``);
    * ``task_timeout`` — per-task timeout in seconds for the worker
      pools (``None`` = the ``REPRO_TASK_TIMEOUT`` env knob, else off);
    * ``retries`` — bounded retry budget for failed/hung pool tasks
      (``None`` = the ``REPRO_RETRIES`` env knob, else 1).

    The timeout/retry knobs share the lenient ``REPRO_WORKERS``-style
    parsing (see :mod:`repro.core.faults`): malformed values warn and
    fall back to defaults instead of crashing a long run.
    """

    seed: Optional[int] = None
    scale: float = 1.0
    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    results_dir: str = DEFAULT_RESULTS_DIR
    task_timeout: Optional[float] = None
    retries: Optional[int] = None

    # ------------------------------------------------------------------
    def scene_cache(self) -> Optional[SceneCache]:
        return SceneCache.from_env(self.cache_dir)

    def scene_data(self, image_scale: float, num_source_views: int = 10,
                   seed: int = 1, gt_points: int = 128,
                   names: Sequence[str] = LLFF_EVAL_SCENES
                   ) -> Dict[str, "M.SceneData"]:
        return llff_scene_data(image_scale, num_source_views, seed=seed,
                               gt_points=gt_points, names=names,
                               cache=self.scene_cache(),
                               workers=self.workers)

    def references(self, scene_data: Dict[str, "M.SceneData"], key: tuple,
                   eval_step: int) -> Dict[str, np.ndarray]:
        return llff_references(scene_data, key, eval_step,
                               cache=self.scene_cache())

    # ------------------------------------------------------------------
    def resolve_task_timeout(self) -> Optional[float]:
        return faults.detect_task_timeout(self.task_timeout)

    def resolve_retries(self) -> int:
        return faults.detect_retries(self.retries)

    # ------------------------------------------------------------------
    def artifact_path(self, name: str) -> str:
        return os.path.join(self.results_dir, f"{name}.txt")

    def write_artifact(self, name: str, text: str) -> str:
        """Persist one artefact (atomically; trailing newline added,
        matching the benchmark harness convention)."""
        path = self.artifact_path(name)
        reporting.write_artifact(path, text + "\n")
        return path
