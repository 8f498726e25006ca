"""Cross-request micro-batching render service (``python -m repro serve``).

The paper's core insight — amortising cost by batching work that
arrives independently — applied at the *serving* layer: a long-lived
daemon accepts (scene, camera, quality) render requests from many
clients, and a scheduler coalesces the pending rays of concurrent
requests into shared batched model dispatches under
:class:`repro.nn.inference_mode`.

Design (sans-IO, virtual clock):

* :class:`RenderScheduler` is a *synchronous* discrete-event core:
  ``submit(request, tick)`` enqueues, ``run_tick(tick)`` dispatches and
  returns completed :class:`RenderResponse` objects.  Nothing inside
  reads ``time.time()`` or sleeps — tests and the ``serve_replay``
  harness drive it tick by tick, fully deterministically; only the
  stdio daemon (:func:`run_daemon`) wraps it with wall-clock ticks.
* **Dispatch policy.**  A batch fires when the oldest pending request
  has waited ``batch_window`` ticks, or when pending rays reach
  ``max_batch`` (the ``REPRO_BATCH_WINDOW`` / ``REPRO_MAX_BATCH``
  knobs).  Batch assembly is FIFO in submission order and cuts at
  ``max_batch`` rays; a single chunk larger than ``max_batch`` is
  atomic and dispatches alone.
* **Byte-identity.**  Every response is pinned bitwise-identical to a
  direct ``render_image_*`` call (``tests/core/test_serve.py``).  Each
  request decomposes into **exactly** the chunk tasks the direct
  renderer would run (chunks are pure functions of their slice), and a
  dispatch runs a group's chunks as *runs*, one model call each: one
  chunk or, on a ``mergeable`` tier, consecutive chunks whose merged
  call fits one renderer chunk and keeps every GEMM inside each
  member's bitwise row interval (:func:`repro.nn.regime.batch_interval`).
* **Scene reuse.**  A :class:`SceneStore` LRU holds prepared
  :class:`repro.models.SceneData` (bounded by ``scene_capacity``; disk
  reuse through :mod:`repro.core.scene_cache` under the shared
  ``llff-src`` recipe), and encoded feature maps come from
  ``SceneData.encoded_maps`` — the ``Parameter.version``-keyed eval
  cache, so a warm scene re-encodes only if the model changed.
* **Backpressure.**  Past ``queue_limit`` in-flight requests,
  ``submit`` sheds with :class:`ServiceOverloaded` (a 429-style
  refusal) and a ``serve.request_shed`` event — deterministic in
  submission order.
* **Fault isolation.**  A :class:`repro.core.faults.FaultPlan` with
  request-scoped keys poisons individual requests (``error`` /
  ``corrupt`` / ``hang``); the poisoned request is quarantined with an
  error response and a ``serve.request_failed`` event while its
  batch-mates complete byte-identically
  (``tests/core/test_serve_faults.py``).

Event vocabulary (all through :mod:`repro.core.log`):
``serve.request_shed``, ``serve.request_failed``,
``serve.request_hung``, ``serve.batch_dispatched``,
``serve.scene_prepared``, ``serve.scene_evicted``, ``serve.stats``.
See ``docs/serving.md`` for the full schema.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import models as M
from ..geometry.rays import RayBundle, image_shape_for_step, rays_for_image
from ..nn import regime
from ..scenes.datasets import make_scene
from . import faults, frame_pool, log
from .reporting import format_table
from .scene_cache import SceneCache, source_images_key

_LOG = log.get_logger("serve")

WINDOW_ENV = "REPRO_BATCH_WINDOW"
MAX_BATCH_ENV = "REPRO_MAX_BATCH"
QUEUE_ENV = "REPRO_QUEUE_LIMIT"

DEFAULT_BATCH_WINDOW = 4      # ticks a request may wait for batch-mates
DEFAULT_MAX_BATCH = 4096      # rays per dispatch before the window cuts
DEFAULT_QUEUE_LIMIT = 64      # in-flight requests before shedding

_UNRESOLVED = object()        # "cache unspecified" sentinel (see context)


# ----------------------------------------------------------------------
# Env knobs (lenient, like REPRO_WORKERS / REPRO_RETRIES)
# ----------------------------------------------------------------------
def _detect_knob(value, env: str, default: int, floor: int) -> int:
    return max(faults.resolve_knob(value, env.lower(), env, int, default),
               floor)


def detect_batch_window(window=None) -> int:
    """Resolve the batching window in ticks: explicit argument, then
    the ``REPRO_BATCH_WINDOW`` env knob, then the default.  Malformed
    values warn (``knob.ignored``) and fall through; negatives clamp to
    0 (dispatch every tick)."""
    return _detect_knob(window, WINDOW_ENV, DEFAULT_BATCH_WINDOW, 0)


def detect_max_batch(max_batch=None) -> int:
    """Resolve the per-dispatch ray budget: explicit argument, then the
    ``REPRO_MAX_BATCH`` env knob, then the default; clamps at 1."""
    return _detect_knob(max_batch, MAX_BATCH_ENV, DEFAULT_MAX_BATCH, 1)


def detect_queue_limit(limit=None) -> int:
    """Resolve the in-flight high-water mark: explicit argument, then
    the ``REPRO_QUEUE_LIMIT`` env knob, then the default; clamps at 1."""
    return _detect_knob(limit, QUEUE_ENV, DEFAULT_QUEUE_LIMIT, 1)


# ----------------------------------------------------------------------
# Quality presets and models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QualitySpec:
    """One serving quality tier.

    ``kind`` picks the render path: ``uniform`` (equal stratified
    samples; per-ray deterministic, so rays merge across requests),
    ``hierarchical`` (coarse + importance-sampled fine pass), or
    ``gen_nerf`` (coarse-then-focus).  ``num_points`` doubles as the
    Ray-Mixer ``n_max`` so the fixed-capacity module never needs
    padding.
    """

    name: str
    kind: str                   # "uniform" | "hierarchical" | "gen_nerf"
    num_points: int
    coarse_points: int = 0
    focused_points: int = 0

    @property
    def mergeable(self) -> bool:
        """May rays of distinct requests share one model call?"""
        return self.kind == "uniform"


QUALITIES: Dict[str, QualitySpec] = {
    "draft": QualitySpec("draft", "uniform", num_points=4),
    "standard": QualitySpec("standard", "uniform", num_points=8),
    "high": QualitySpec("high", "hierarchical", num_points=8,
                        coarse_points=8),
    "gen_nerf": QualitySpec("gen_nerf", "gen_nerf", num_points=12,
                            coarse_points=4, focused_points=8),
}

# Small serving-scale widths (the paper-scale dims are for FLOPs
# accounting, not numpy inference).
_SERVE_MODEL_WIDTHS = dict(feature_dim=8, view_hidden=8, score_hidden=6,
                           density_hidden=12, density_feature_dim=6,
                           encoder_hidden=8)


def build_model(quality: str, seed: int = 0):
    """The deterministic serving model for one quality tier.

    Uniform/hierarchical tiers share the IBRNet-style architecture at
    tier-specific point capacity; ``gen_nerf`` builds the
    coarse-then-focus pair.  Weights depend only on (quality, seed).
    """
    spec = QUALITIES.get(quality)
    if spec is None:
        raise ServeError(f"unknown quality {quality!r}; "
                         f"choose from {sorted(QUALITIES)}")
    rng = np.random.default_rng(
        (int(seed), zlib.crc32(f"serve-model-{quality}".encode("utf-8"))))
    if spec.kind == "gen_nerf":
        fine = M.ModelConfig(ray_module="mixer", n_max=spec.num_points,
                             **_SERVE_MODEL_WIDTHS)
        config = M.GenNerfConfig(fine=fine,
                                 coarse_points=spec.coarse_points,
                                 focused_points=spec.focused_points)
        model = M.GenNeRF(config, rng=rng)
    else:
        config = M.ModelConfig(ray_module="mixer", n_max=spec.num_points,
                               **_SERVE_MODEL_WIDTHS)
        model = M.GeneralizableNeRF(config, rng=rng)
    model.eval()
    return model


# ----------------------------------------------------------------------
# Requests, responses, errors
# ----------------------------------------------------------------------
class ServeError(ValueError):
    """A malformed or invalid request (the 4xx that is *not* 429)."""


class ServiceOverloaded(RuntimeError):
    """The queue passed its high-water mark; the request was shed
    without being enqueued — a 429-style refusal the client may retry
    after backing off."""

    status_code = 429


@dataclass(frozen=True)
class RenderRequest:
    """One client render request.

    ``scene`` is an LLFF-analogue scene name (any string; generation is
    crc32-deterministic), ``quality`` a :data:`QUALITIES` tier, and the
    camera is the scene's held-out target view strided by ``step``.
    ``chunk`` optionally pins the renderer's chunk size (the direct
    path's ``chunk=`` argument) — byte-identity holds per chunking.
    """

    request_id: str
    scene: str
    quality: str = "standard"
    step: int = 8
    image_scale: float = 1 / 16
    views: int = 4
    scene_seed: int = 1
    chunk: Optional[int] = None

    def validate(self) -> None:
        if not str(self.request_id):
            raise ServeError("request_id must be a non-empty string")
        if not str(self.scene):
            raise ServeError("scene must be a non-empty string")
        if self.quality not in QUALITIES:
            raise ServeError(f"unknown quality {self.quality!r}; "
                             f"choose from {sorted(QUALITIES)}")
        if _integer("step", self.step) < 1:
            raise ServeError(f"step must be >= 1, got {self.step}")
        if _integer("views", self.views) < 1:
            raise ServeError(f"views must be >= 1, got {self.views}")
        _integer("scene_seed", self.scene_seed)
        _image_scale(self.image_scale)
        if self.chunk is not None and _integer("chunk", self.chunk) < 1:
            raise ServeError(f"chunk must be >= 1, got {self.chunk}")

    @property
    def scene_key(self) -> tuple:
        """The :class:`SceneStore` key: everything scene preparation
        depends on."""
        return (str(self.scene), float(self.image_scale),
                int(self.views), int(self.scene_seed))

    @property
    def group_key(self) -> tuple:
        """Requests sharing a group share one payload (scene + model)
        and may coalesce into the same pool dispatch."""
        return self.scene_key + (str(self.quality),)


@dataclass
class RenderResponse:
    """One completed (or refused) request.

    ``status`` is ``"ok"`` (``image`` holds the (rows, cols, 3) pixels),
    ``"error"`` (quarantined: ``error`` explains), or ``"shed"``
    (backpressure refusal recorded by the replay harness — a shed
    request never entered the scheduler).
    """

    request_id: str
    status: str
    image: Optional[np.ndarray] = None
    error: Optional[str] = None
    submitted_tick: int = 0
    completed_tick: int = 0
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency_ticks(self) -> int:
        return int(self.completed_tick) - int(self.submitted_tick)


# ----------------------------------------------------------------------
# Scene LRU
# ----------------------------------------------------------------------
@dataclass
class PreparedScene:
    """One LRU entry: the deterministic scene plus its prepared data
    (source images and the version-keyed encoded-map cache)."""

    scene: Any
    data: "M.SceneData"


class SceneStore:
    """Bounded LRU of prepared scenes for the serving layer.

    Unlike the process-wide memo in :mod:`repro.core.context`, eviction
    here is real — a long-lived daemon must bound memory across an
    unbounded scene universe.  A cold miss renders the source views
    (``SceneData.prepare``), reusing the disk scene cache under the
    shared ``llff-src`` recipe when one is active, so daemon restarts
    and the experiment harnesses hit the same entries.  Re-preparation
    after eviction is byte-identical to the original (pinned in
    ``tests/core/test_serve.py``), so the LRU is purely a
    memory/latency trade.
    """

    def __init__(self, capacity: int = 4, source_points: int = 32,
                 cache=_UNRESOLVED, workers: Optional[int] = 1):
        self.capacity = max(int(capacity), 1)
        self.source_points = int(source_points)
        self.workers = workers
        self._cache = cache
        self._entries: "OrderedDict[tuple, PreparedScene]" = OrderedDict()
        self._scenes: Dict[tuple, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def scene_for(self, key: tuple):
        """The (cheap, deterministic) scene object for a store key —
        memoised separately from the bounded prepared-data entries."""
        scene = self._scenes.get(key)
        if scene is None:
            name, image_scale, views, seed = key
            scene = make_scene("llff", seed=seed, scene_name=name,
                               num_source_views=views,
                               image_scale=image_scale)
            self._scenes[key] = scene
        return scene

    def _disk_key(self, key: tuple) -> str:
        name, image_scale, views, seed = key
        return source_images_key(name, image_scale, views, seed,
                                 self.source_points)

    def get(self, key: tuple) -> PreparedScene:
        """The prepared scene for ``key`` (LRU: a hit refreshes
        recency; a miss prepares, stores, and may evict the coldest)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        scene = self.scene_for(key)
        cache = self._cache
        if cache is _UNRESOLVED:
            cache = SceneCache.from_env()
        images = cache.load(self._disk_key(key)) if cache else None
        if images is None:
            data = M.SceneData.prepare(scene,
                                       gt_points=self.source_points,
                                       workers=self.workers)
            if cache:
                cache.store(self._disk_key(key), data.source_images)
        else:
            data = M.SceneData(scene=scene, source_images=images)
        log.event(_LOG, "serve.scene_prepared", level=logging.INFO,
                  scene=key[0], key=key, disk_hit=images is not None)
        entry = PreparedScene(scene=scene, data=data)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            evicted_key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            log.event(_LOG, "serve.scene_evicted", level=logging.INFO,
                      scene=evicted_key[0], key=evicted_key)
        return entry

    @property
    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    """Scheduler configuration.

    ``batch_window`` / ``max_batch`` / ``queue_limit`` map to the
    ``REPRO_BATCH_WINDOW`` / ``REPRO_MAX_BATCH`` / ``REPRO_QUEUE_LIMIT``
    knobs (resolved by :meth:`from_env`); ``request_deadline`` (ticks)
    fails a request that cannot complete — the backstop that turns a
    hung request into an error response instead of a stuck queue.
    """

    batch_window: int = DEFAULT_BATCH_WINDOW
    max_batch: int = DEFAULT_MAX_BATCH
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    scene_capacity: int = 4
    workers: Optional[int] = 1
    source_points: int = 32
    model_seed: int = 0
    request_deadline: Optional[int] = None
    cache_dir: Optional[str] = None

    def __post_init__(self):
        if int(self.batch_window) < 0:
            raise ServeError("batch_window must be >= 0")
        if int(self.max_batch) < 1:
            raise ServeError("max_batch must be >= 1")
        if int(self.queue_limit) < 1:
            raise ServeError("queue_limit must be >= 1")
        if int(self.scene_capacity) < 1:
            raise ServeError("scene_capacity must be >= 1")
        if self.request_deadline is not None \
                and int(self.request_deadline) < 1:
            raise ServeError("request_deadline must be >= 1 tick")

    @staticmethod
    def from_env(**overrides) -> "ServeConfig":
        """A config with the batching knobs resolved from the
        environment (explicit overrides win, malformed env values warn
        and fall back — the lenient ``REPRO_WORKERS`` discipline)."""
        resolved = dict(overrides)
        resolved["batch_window"] = detect_batch_window(
            overrides.get("batch_window"))
        resolved["max_batch"] = detect_max_batch(overrides.get("max_batch"))
        resolved["queue_limit"] = detect_queue_limit(
            overrides.get("queue_limit"))
        return ServeConfig(**resolved)


# ----------------------------------------------------------------------
# Pool chunk functions (module-level, picklable).  Each rebuilds one
# run's bundle from the task's ray arrays and delegates to the
# *renderer's own* chunk body over the identity slice — sharing the
# direct path's code is what makes byte-identity structural rather
# than coincidental.  The renderer import is deferred: renderer.py
# itself imports :mod:`repro.core`, so a module-level import here
# would be circular.
# ----------------------------------------------------------------------
def _renderer():
    from ..models import renderer

    return renderer


def _ibrnet_batch_chunk(state, origins, directions,
                        uniforms=None) -> np.ndarray:
    """One IBRNet run; ``uniforms`` (the chunk's pre-drawn fine-depth
    draws) selects the hierarchical path."""
    model, cameras, src, maps, num_points, coarse_points, near, far = state
    bundle = RayBundle(origins, directions, near, far)
    return _renderer()._ibrnet_chunk(
        (model, bundle, cameras, src, maps, num_points, coarse_points,
         uniforms is not None), 0, len(bundle), uniforms)


def _gen_nerf_batch_chunk(state, origins, directions
                          ) -> Tuple[np.ndarray, int]:
    model, cameras, coarse_maps, fine_maps, src, near, far = state
    bundle = RayBundle(origins, directions, near, far)
    return _renderer()._gen_nerf_chunk(
        (model, bundle, cameras, coarse_maps, fine_maps,
         src), 0, len(bundle))


_CHUNK_FUNCTIONS = {"uniform": _ibrnet_batch_chunk,
                    "hierarchical": _ibrnet_batch_chunk,
                    "gen_nerf": _gen_nerf_batch_chunk}


def _run_task(run: list) -> tuple:
    """One run's chunk-function arguments: its chunks' rays in order,
    plus their pre-drawn uniforms on the hierarchical tier."""
    parts = [(state.bundle, state.chunks[index]) for state, index in run]
    origins = np.concatenate([bundle.origins[chunk.start:chunk.stop]
                              for bundle, chunk in parts])
    directions = np.concatenate([bundle.directions[chunk.start:chunk.stop]
                                 for bundle, chunk in parts])
    if parts[0][1].uniforms is None:
        return origins, directions
    return origins, directions, np.concatenate(
        [chunk.uniforms for _, chunk in parts])


def _runs(spec: QualitySpec, model, views: int, items: list) -> list:
    """Split a group's chunks, in order, into runs of one model call:
    one chunk or, on a mergeable tier, consecutive chunks that share a
    :func:`repro.nn.regime.batch_interval` for the forward pass's GEMMs
    and whose merged call stays inside it and fits one renderer chunk."""
    if not spec.mergeable:
        return [[item] for item in items]
    shapes = model.gemm_shapes(views, spec.num_points)
    runs, run_interval, run_rays = [], None, 0
    for state, index in items:
        rays = state.chunks[index].rays
        interval = regime.batch_interval(shapes, rays)
        total = run_rays + rays
        if interval is not None and interval == run_interval \
                and (interval[1] is None or total <= interval[1]) \
                and _renderer().adaptive_chunk(
                    total, views, spec.num_points) >= total:
            runs[-1].append((state, index))
            run_rays = total
        else:
            runs.append([(state, index)])
            run_interval, run_rays = interval, rays
    return runs


# ----------------------------------------------------------------------
# Scheduler internals
# ----------------------------------------------------------------------
@dataclass
class _Chunk:
    """One undispatchable-apart unit of a request: exactly one chunk of
    the direct renderer's loop (slice bounds plus, for hierarchical,
    the pre-drawn fine-depth uniforms of that chunk)."""

    start: int
    stop: int
    uniforms: Optional[np.ndarray] = None

    @property
    def rays(self) -> int:
        return self.stop - self.start


@dataclass(eq=False)
class _RequestState:
    request: RenderRequest
    spec: QualitySpec
    submitted_tick: int
    bundle: RayBundle
    rows: int
    cols: int
    chunks: List[_Chunk]
    next_chunk: int = 0          # first undispatched chunk
    done_chunks: int = 0
    out: Optional[np.ndarray] = None
    first_dispatch_tick: Optional[int] = None
    failed: Optional[str] = None
    hung: bool = False
    injected_corrupt: bool = False
    focused_points: int = 0

    @property
    def undispatched_rays(self) -> int:
        return sum(chunk.rays for chunk in self.chunks[self.next_chunk:])

    @property
    def complete(self) -> bool:
        return self.done_chunks == len(self.chunks)


class RenderScheduler:
    """The coalescing core: submit requests, run virtual-clock ticks.

    Synchronous and deterministic — ``run_tick`` performs every model
    dispatch inline (sharded over the persistent frame pool when
    ``config.workers`` resolves above 1) and returns the responses that
    completed this tick.  See the module docstring for the dispatch
    policy and byte-identity regimes.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 store: Optional[SceneStore] = None,
                 models: Optional[Dict[str, Any]] = None):
        self.config = config or ServeConfig()
        self.store = store if store is not None else SceneStore(
            capacity=self.config.scene_capacity,
            source_points=self.config.source_points,
            cache=(_UNRESOLVED if self.config.cache_dir is None
                   else SceneCache.from_env(self.config.cache_dir)),
            workers=self.config.workers)
        self._models: Dict[str, Any] = dict(models or {})
        self._pending: "OrderedDict[str, _RequestState]" = OrderedDict()
        self._seen_ids: set = set()
        self._payloads: Dict[tuple, Tuple[PreparedScene, tuple]] = {}
        self.counters: Dict[str, int] = {
            "submitted": 0, "completed": 0, "failed": 0, "shed": 0,
            "dispatches": 0, "batched_rays": 0, "merged_rays": 0}
        self.batch_log: List[Dict[str, int]] = []
        self._latencies: List[int] = []

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return not self._pending

    @property
    def depth(self) -> int:
        """In-flight request count (the backpressure measure)."""
        return len(self._pending)

    def model_for(self, quality: str):
        model = self._models.get(quality)
        if model is None:
            model = build_model(quality, seed=self.config.model_seed)
            self._models[quality] = model
        return model

    # ------------------------------------------------------------------
    def submit(self, request: RenderRequest, tick: int) -> None:
        """Enqueue one request at virtual time ``tick``.

        Raises :class:`ServeError` for invalid requests (never counted
        against the queue) and :class:`ServiceOverloaded` past the
        high-water mark — shedding is deterministic in submission
        order.
        """
        request.validate()
        if request.request_id in self._pending \
                or request.request_id in self._seen_ids:
            raise ServeError(
                f"duplicate request_id {request.request_id!r}")
        if self.depth >= self.config.queue_limit:
            self.counters["shed"] += 1
            log.event(_LOG, "serve.request_shed",
                      request_id=request.request_id, depth=self.depth,
                      limit=self.config.queue_limit, tick=tick)
            raise ServiceOverloaded(
                f"request {request.request_id!r} shed: {self.depth} "
                f"requests in flight >= queue_limit="
                f"{self.config.queue_limit}")
        self.counters["submitted"] += 1
        self._seen_ids.add(request.request_id)
        self._pending[request.request_id] = self._plan(request, tick)

    def _plan(self, request: RenderRequest, tick: int) -> _RequestState:
        """Decompose a request into the direct renderer's exact chunk
        tasks (same ``adaptive_chunk`` geometry; hierarchical uniforms
        pre-drawn in chunk order from the frame's ``default_rng(0)``)."""
        spec = QUALITIES[request.quality]
        scene = self.store.scene_for(request.scene_key)
        # validate() admits integral floats; read them as ints here.
        step = int(request.step)
        bundle = rays_for_image(scene.target_camera, scene.near, scene.far,
                                step=step)
        rows, cols = image_shape_for_step(scene.target_camera, step)
        views = len(scene.source_cameras)
        if spec.kind == "gen_nerf":
            model = self.model_for(request.quality)
            points = model.config.coarse_points + model.config.n_max
        else:
            points = spec.num_points + spec.coarse_points
        chunk = _renderer().adaptive_chunk(
            len(bundle), views, points,
            None if request.chunk is None else int(request.chunk))
        slices = _renderer()._chunk_slices(len(bundle), chunk)
        rng = np.random.default_rng(0)
        chunks = [_Chunk(start, stop,
                         rng.random((stop - start, spec.num_points))
                         if spec.kind == "hierarchical" else None)
                  for start, stop in slices]
        return _RequestState(
            request=request, spec=spec, submitted_tick=tick,
            bundle=bundle, rows=rows, cols=cols, chunks=chunks,
            out=np.zeros((len(bundle), 3), dtype=np.float64))

    # ------------------------------------------------------------------
    def run_tick(self, tick: int) -> List[RenderResponse]:
        """Advance the virtual clock to ``tick``: dispatch every batch
        the policy owes, enforce deadlines, and return the responses
        that completed."""
        while True:
            work = [state for state in self._pending.values()
                    if state.undispatched_rays and state.failed is None
                    and not state.hung]
            if not work:
                break
            oldest = max(tick - state.submitted_tick for state in work)
            pending_rays = sum(state.undispatched_rays for state in work)
            if oldest < self.config.batch_window \
                    and pending_rays < self.config.max_batch:
                break
            self._execute(self._assemble(work), tick)
        if self.config.request_deadline is not None:
            for state in self._pending.values():
                if state.failed is None and not state.complete \
                        and tick - state.submitted_tick \
                        >= self.config.request_deadline:
                    self._fail(state, f"deadline exceeded after "
                               f"{self.config.request_deadline} ticks")
        responses = []
        for request_id, state in list(self._pending.items()):
            if state.failed is None and state.complete:
                if state.injected_corrupt \
                        or not np.isfinite(state.out).all():
                    self._fail(state, "corrupt result detected")
            if state.failed is not None or state.complete:
                responses.append(self._respond(state, tick))
                del self._pending[request_id]
        return responses

    def drain(self, tick: int, max_ticks: int = 100_000
              ) -> Tuple[List[RenderResponse], int]:
        """Run ticks from ``tick`` until the queue empties; returns
        (all responses, final tick).  ``max_ticks`` is a safety bound —
        a hung request with no ``request_deadline`` would otherwise
        spin forever."""
        responses: List[RenderResponse] = []
        for offset in range(max_ticks + 1):
            responses.extend(self.run_tick(tick + offset))
            if self.idle:
                return responses, tick + offset
        raise RuntimeError(
            f"scheduler did not drain within {max_ticks} ticks "
            f"({self.depth} requests stuck; set request_deadline)")

    # ------------------------------------------------------------------
    def _assemble(self, work: List[_RequestState]
                  ) -> List[Tuple[_RequestState, int]]:
        """FIFO batch assembly: walk pending requests in submission
        order taking whole chunks until ``max_batch`` rays.  The first
        chunk is always admitted, so a single atomic chunk larger than
        the budget dispatches alone; assembly never reorders."""
        entries: List[Tuple[_RequestState, int]] = []
        rays = 0
        for state in self._pending.values():
            if state not in work:
                continue
            while state.next_chunk < len(state.chunks):
                chunk_rays = state.chunks[state.next_chunk].rays
                if rays and rays + chunk_rays > self.config.max_batch:
                    return entries
                entries.append((state, state.next_chunk))
                state.next_chunk += 1
                rays += chunk_rays
                if rays >= self.config.max_batch:
                    return entries
        return entries

    def _fail(self, state: _RequestState, reason: str) -> None:
        if state.failed is not None:
            return
        state.failed = reason
        self.counters["failed"] += 1
        log.event(_LOG, "serve.request_failed",
                  request_id=state.request.request_id, reason=reason)

    def _payload_for(self, group_key: tuple, prepared: PreparedScene,
                     spec: QualitySpec, model) -> tuple:
        """The stable per-group pool payload (model + scene tensors).
        Object identity is preserved while the LRU entry survives, so
        the persistent frame pool stays warm across dispatches; an
        evicted-and-reprepared scene naturally retires the pool."""
        cached = self._payloads.get(group_key)
        if cached is not None and cached[0] is prepared:
            return cached[1]
        scene = prepared.scene
        cameras = tuple(scene.source_cameras)
        src = prepared.data.source_images
        maps = prepared.data.encoded_maps(model)
        if spec.kind == "gen_nerf":
            coarse_maps, fine_maps = maps
            state = (model, cameras, coarse_maps, fine_maps, src,
                     scene.near, scene.far)
        else:
            state = (model, cameras, src, maps, spec.num_points,
                     spec.coarse_points, scene.near, scene.far)
        # Drop payloads whose scene the LRU evicted, so the cache never
        # pins memory the store already decided to release.
        live = {id(entry) for entry in self.store._entries.values()}
        self._payloads = {key: value
                          for key, value in self._payloads.items()
                          if id(value[0]) in live}
        self._payloads[group_key] = (prepared, state)
        return state

    def _execute(self, entries: List[Tuple[_RequestState, int]],
                 tick: int) -> None:
        """Run one assembled batch: quarantine poisoned requests, then
        split each group's surviving chunks into runs, dispatch a
        group's runs through one shared pool call, and scatter the
        results back per request."""
        plan = faults.active_plan()
        live: List[Tuple[_RequestState, int]] = []
        for state, chunk_index in entries:
            fault = plan.request_fault(state.request.request_id) \
                if plan else None
            if fault == "error":
                self._fail(state, "injected request fault: error")
            if state.failed is not None:
                continue
            if fault == "hang":
                if not state.hung:
                    state.hung = True
                    log.event(_LOG, "serve.request_hung",
                              level=logging.INFO,
                              request_id=state.request.request_id,
                              tick=tick)
                state.next_chunk = min(state.next_chunk, chunk_index)
                continue
            if fault == "corrupt":
                state.injected_corrupt = True
            live.append((state, chunk_index))
        if not live:
            return

        rays = sum(state.chunks[index].rays for state, index in live)
        requests = {state.request.request_id for state, _ in live}
        self.counters["dispatches"] += 1
        self.counters["batched_rays"] += rays
        self.batch_log.append(
            {"tick": tick, "rays": rays, "chunks": len(live),
             "requests": len(requests), "atomic": len(live) == 1})
        log.event(_LOG, "serve.batch_dispatched", level=logging.DEBUG,
                  tick=tick, rays=rays, chunks=len(live),
                  requests=len(requests))

        groups: "OrderedDict[tuple, List[Tuple[_RequestState, int]]]" = \
            OrderedDict()
        for state, chunk_index in live:
            groups.setdefault(state.request.group_key, []).append(
                (state, chunk_index))
        for group_key, items in groups.items():
            spec = items[0][0].spec
            prepared = self.store.get(group_key[:-1])
            model = self.model_for(group_key[-1])
            payload = self._payload_for(group_key, prepared, spec, model)
            runs = _runs(spec, model, len(prepared.scene.source_cameras),
                         items)
            results = frame_pool.map_chunks(
                _CHUNK_FUNCTIONS[spec.kind], payload,
                [_run_task(run) for run in runs], self.config.workers)
            for run, pixels in zip(runs, results):
                if spec.kind == "gen_nerf":
                    pixels, points = pixels
                    run[0][0].focused_points += int(points)
                offset = 0
                for state, index in run:
                    chunk = state.chunks[index]
                    state.out[chunk.start:chunk.stop] = \
                        pixels[offset:offset + chunk.rays]
                    offset += chunk.rays
                    state.done_chunks += 1
                if len(run) > 1:
                    self.counters["merged_rays"] += offset
        for state, _ in live:
            if state.first_dispatch_tick is None:
                state.first_dispatch_tick = tick

    # ------------------------------------------------------------------
    def _respond(self, state: _RequestState, tick: int) -> RenderResponse:
        stats: Dict[str, Any] = {
            "rays": len(state.bundle), "chunks": len(state.chunks),
            "first_dispatch_tick": state.first_dispatch_tick}
        if state.spec.kind == "gen_nerf":
            stats["avg_focused_points"] = \
                state.focused_points / max(len(state.bundle), 1)
        if state.failed is not None:
            return RenderResponse(
                request_id=state.request.request_id, status="error",
                error=state.failed, submitted_tick=state.submitted_tick,
                completed_tick=tick, stats=stats)
        self.counters["completed"] += 1
        self._latencies.append(tick - state.submitted_tick)
        return RenderResponse(
            request_id=state.request.request_id, status="ok",
            image=state.out.reshape(state.rows, state.cols, 3),
            submitted_tick=state.submitted_tick, completed_tick=tick,
            stats=stats)

    # ------------------------------------------------------------------
    def stats_row(self, tick: int) -> Dict[str, Any]:
        """The scheduler's service metrics at ``tick`` — per-request
        p50/p99 latency (deterministic nearest-rank), throughput, and
        batch occupancy."""
        dispatches = self.counters["dispatches"]
        rays = self.counters["batched_rays"]
        return {
            "tick": int(tick),
            "submitted": self.counters["submitted"],
            "completed": self.counters["completed"],
            "failed": self.counters["failed"],
            "shed": self.counters["shed"],
            "dispatches": dispatches,
            "batched_rays": rays,
            "merged_rays": self.counters["merged_rays"],
            "p50_latency_ticks": percentile(self._latencies, 50),
            "p99_latency_ticks": percentile(self._latencies, 99),
            "rays_per_tick": rays / max(int(tick), 1),
            "batch_occupancy": (rays / dispatches
                                / self.config.max_batch
                                if dispatches else 0.0),
            "scene_hits": self.store.hits,
            "scene_misses": self.store.misses,
            "scene_evictions": self.store.evictions,
        }

    def emit_stats(self, tick: int) -> Dict[str, Any]:
        row = self.stats_row(tick)
        log.event(_LOG, "serve.stats", level=logging.INFO, **row)
        return row


def percentile(values: Sequence[int], q: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation — the
    artefact must not depend on numpy quantile policy)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[min(rank, len(ordered)) - 1])


# ----------------------------------------------------------------------
# Deterministic traffic replay (the serve_replay harness)
# ----------------------------------------------------------------------
def synthetic_trace(seed: int, clients: int, requests_per_client: int,
                    scenes: Sequence[str] = ("fern",),
                    qualities: Sequence[str] = ("standard",),
                    mean_gap: int = 3, step: int = 8,
                    image_scale: float = 1 / 16, views: int = 4,
                    scene_seed: int = 1,
                    burst: bool = False
                    ) -> List[Tuple[int, RenderRequest]]:
    """A seeded open-loop arrival schedule: ``clients`` independent
    clients each issuing ``requests_per_client`` requests with seeded
    inter-arrival gaps on the virtual clock (``burst`` collapses every
    arrival to tick 0 — the backpressure stressor).  Returns
    (arrival_tick, request) pairs sorted by (tick, request_id) — fully
    deterministic in (seed, parameters).
    """
    rng = np.random.default_rng(
        (int(seed), zlib.crc32(b"serve-trace"), int(clients)))
    arrivals: List[Tuple[int, RenderRequest]] = []
    for client in range(int(clients)):
        tick = 0 if burst else int(rng.integers(0, mean_gap + 1))
        for index in range(int(requests_per_client)):
            scene = scenes[int(rng.integers(len(scenes)))]
            quality = qualities[int(rng.integers(len(qualities)))]
            arrivals.append((tick, RenderRequest(
                request_id=f"c{client:03d}-r{index:03d}", scene=scene,
                quality=quality, step=step, image_scale=image_scale,
                views=views, scene_seed=scene_seed)))
            gap = 0 if burst else int(rng.integers(1, 2 * mean_gap + 1))
            tick += gap
    arrivals.sort(key=lambda pair: (pair[0], pair[1].request_id))
    return arrivals


@dataclass
class ReplayResult:
    """One replayed trace: every response (arrival order; shed requests
    included with ``status="shed"``), the final virtual tick, and the
    scheduler that served it (counters, batch log, store)."""

    responses: List[RenderResponse]
    ticks: int
    scheduler: RenderScheduler

    def ok_responses(self) -> List[RenderResponse]:
        return [r for r in self.responses if r.status == "ok"]

    def pixels_crc32(self) -> int:
        """Checksum of every ok image in request-id order — the
        byte-stability witness committed in the artefact."""
        crc = 0
        for response in sorted(self.ok_responses(),
                               key=lambda r: r.request_id):
            crc = zlib.crc32(response.image.tobytes(), crc)
        return crc


def replay(trace: Sequence[Tuple[int, RenderRequest]],
           config: Optional[ServeConfig] = None,
           scheduler: Optional[RenderScheduler] = None,
           store: Optional[SceneStore] = None,
           models: Optional[Dict[str, Any]] = None) -> ReplayResult:
    """Drive a scheduler through an arrival trace on the virtual clock.

    Purely synchronous — no ``time.time()`` or sleeps anywhere in the
    measured path (pinned in ``tests/core/test_serve_properties.py``);
    tick T submits every arrival scheduled at T, then runs the
    scheduler's tick.  Runs until the queue drains after the last
    arrival.
    """
    scheduler = scheduler or RenderScheduler(config, store=store,
                                             models=models)
    by_tick: Dict[int, List[RenderRequest]] = {}
    for tick, request in trace:
        by_tick.setdefault(int(tick), []).append(request)
    last_arrival = max(by_tick) if by_tick else 0
    responses: List[RenderResponse] = []
    tick = 0
    while True:
        for request in by_tick.get(tick, ()):
            try:
                scheduler.submit(request, tick)
            except ServiceOverloaded as error:
                responses.append(RenderResponse(
                    request_id=request.request_id, status="shed",
                    error=str(error), submitted_tick=tick,
                    completed_tick=tick))
            except ServeError as error:
                responses.append(RenderResponse(
                    request_id=request.request_id, status="error",
                    error=str(error), submitted_tick=tick,
                    completed_tick=tick))
        responses.extend(scheduler.run_tick(tick))
        if tick >= last_arrival and scheduler.idle:
            break
        tick += 1
        if tick > last_arrival + 100_000:
            raise RuntimeError("replay did not drain; set "
                               "request_deadline for hung requests")
    scheduler.emit_stats(tick)
    return ReplayResult(responses=responses, ticks=tick,
                        scheduler=scheduler)


# ----------------------------------------------------------------------
# The serve_replay experiment unit (registered in repro.core.registry)
# ----------------------------------------------------------------------
def _serve_replay_unit(level: int, requests_per_client: int, seed: int,
                       batch_window: int, max_batch: int, queue_limit: int,
                       scene_capacity: int, scenes: Sequence[str],
                       qualities: Sequence[str], image_scale: float,
                       views: int, step: int, source_points: int,
                       mean_gap: int, burst: bool = False,
                       workers: Optional[int] = 1) -> Dict[str, Any]:
    """One concurrency level of the ``serve_replay`` experiment: replay
    a deterministic synthetic trace of ``level`` clients through a
    fresh scheduler and summarise the service metrics."""
    config = ServeConfig(batch_window=batch_window, max_batch=max_batch,
                         queue_limit=queue_limit,
                         scene_capacity=scene_capacity, workers=workers,
                         source_points=source_points)
    trace = synthetic_trace(seed=seed, clients=level,
                            requests_per_client=requests_per_client,
                            scenes=tuple(scenes),
                            qualities=tuple(qualities),
                            mean_gap=mean_gap, step=step,
                            image_scale=image_scale, views=views,
                            burst=burst)
    result = replay(trace, config)
    stats = result.scheduler.stats_row(result.ticks)
    return {
        "level": int(level), "mode": "burst" if burst else "open",
        "submitted_total": len(trace),
        "accepted": stats["submitted"], "completed": stats["completed"],
        "shed": stats["shed"], "failed": stats["failed"],
        "dispatches": stats["dispatches"],
        "batched_rays": stats["batched_rays"],
        "merged_rays": stats["merged_rays"],
        "rays_per_dispatch": (stats["batched_rays"]
                              / max(stats["dispatches"], 1)),
        "batch_occupancy": stats["batch_occupancy"],
        "p50_latency_ticks": stats["p50_latency_ticks"],
        "p99_latency_ticks": stats["p99_latency_ticks"],
        "makespan_ticks": result.ticks,
        "rays_per_tick": stats["rays_per_tick"],
        "scene_misses": stats["scene_misses"],
        "scene_hits": stats["scene_hits"],
        "pixels_crc32": f"{result.pixels_crc32():08x}",
    }


def render_serve_replay(rows: List[Dict[str, Any]],
                        params: Mapping[str, Any]) -> str:
    table = [[row["level"], row["mode"], row["submitted_total"],
              row["completed"], row["shed"], row["failed"],
              row["dispatches"], row["rays_per_dispatch"],
              row["batch_occupancy"], row["p50_latency_ticks"],
              row["p99_latency_ticks"], row["makespan_ticks"],
              row["rays_per_tick"], row["pixels_crc32"]]
             for row in rows]
    text = format_table(
        ["Clients", "Mode", "Reqs", "Done", "Shed", "Fail", "Disp",
         "Rays/disp", "Occup", "p50", "p99", "Ticks", "Rays/tick",
         "Pixels crc32"],
        table,
        title=f"serve_replay — cross-request micro-batching at "
              f"window={params['batch_window']} ticks, "
              f"max_batch={params['max_batch']} rays")
    text += ("\n\nVirtual-clock replay: latencies are scheduler ticks, "
             "not wall time; every row is deterministic in the trace "
             "seed.\nThe burst row stresses backpressure: arrivals "
             "beyond queue_limit shed with a 429-style refusal.")
    return text


# ----------------------------------------------------------------------
# The stdio daemon (``python -m repro serve``)
# ----------------------------------------------------------------------
_REQUEST_FIELDS = {"id", "scene", "quality", "step", "image_scale",
                   "views", "scene_seed", "chunk"}


def _integer(name: str, value: Any) -> int:
    """The value of a request field that must be an integer, for the
    JSON parser and :meth:`RenderRequest.validate` alike: an integral
    float is read as one (JSON has no integer type); booleans, strings
    and fractions are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ServeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _image_scale(value: Any) -> float:
    """The request's ``image_scale``, for the JSON parser and
    :meth:`RenderRequest.validate` alike: a real number in (0, 1];
    booleans, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0.0 < value <= 1.0:
        raise ServeError(f"image_scale must be a number in (0, 1], "
                         f"got {value!r}")
    return float(value)


def request_from_json(payload: Mapping[str, Any],
                      default_id: str) -> RenderRequest:
    """Build (and validate) a request from one JSON-lines object."""
    if not isinstance(payload, Mapping):
        raise ServeError("request must be a JSON object")
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise ServeError(f"unknown request field(s) {unknown}; "
                         f"valid: {sorted(_REQUEST_FIELDS)}")
    if "scene" not in payload:
        raise ServeError("request must name a scene")
    request = RenderRequest(
        request_id=str(payload.get("id", default_id)),
        scene=str(payload["scene"]),
        quality=str(payload.get("quality", "standard")),
        step=_integer("step", payload.get("step", 8)),
        image_scale=_image_scale(payload.get("image_scale", 1 / 16)),
        views=_integer("views", payload.get("views", 4)),
        scene_seed=_integer("scene_seed", payload.get("scene_seed", 1)),
        chunk=(None if payload.get("chunk") is None
               else _integer("chunk", payload["chunk"])))
    request.validate()
    return request


def response_to_json(response: RenderResponse,
                     out_dir: Optional[str] = None) -> Dict[str, Any]:
    """The wire form of a response: shape + crc32 witness instead of
    raw pixels (``out_dir`` additionally lands the image as
    ``<request_id>.npy``)."""
    payload: Dict[str, Any] = {
        "id": response.request_id, "status": response.status,
        "latency_ticks": response.latency_ticks}
    if response.error is not None:
        payload["error"] = response.error
    if response.image is not None:
        payload["shape"] = list(response.image.shape)
        payload["crc32"] = f"{zlib.crc32(response.image.tobytes()):08x}"
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"{response.request_id}.npy")
            np.save(path, response.image)
            payload["path"] = path
    return payload


def run_daemon(config: Optional[ServeConfig] = None, input_stream=None,
               output_stream=None, tick_s: float = 0.02,
               out_dir: Optional[str] = None,
               stats_interval: int = 256) -> Dict[str, Any]:
    """The long-lived service loop: JSON-lines requests on
    ``input_stream``, JSON-lines responses on ``output_stream``.

    Wall time exists *only* here: each scheduler tick corresponds to
    one ``tick_s`` select window on stdin's descriptor, and every
    complete line that has arrived is handled before the next select
    (falling back to one-tick-per-line iteration for streams without a
    selectable file descriptor, e.g. tests feeding a StringIO).  The
    scheduler itself stays on its virtual clock.  EOF drains the queue
    and returns the final stats row.
    """
    import sys

    config = config or ServeConfig.from_env()
    input_stream = input_stream if input_stream is not None else sys.stdin
    output_stream = output_stream if output_stream is not None \
        else sys.stdout
    scheduler = RenderScheduler(config)
    tick = 0
    sequence = 0

    def emit(response: RenderResponse) -> None:
        output_stream.write(
            json.dumps(response_to_json(response, out_dir)) + "\n")
        output_stream.flush()

    def handle_line(line: str) -> None:
        nonlocal sequence
        line = line.strip()
        if not line:
            return
        sequence += 1
        default_id = f"req-{sequence:06d}"
        try:
            request = request_from_json(json.loads(line), default_id)
        except (json.JSONDecodeError, ValueError, TypeError) as error:
            emit(RenderResponse(request_id=default_id, status="error",
                                error=str(error), submitted_tick=tick,
                                completed_tick=tick))
            return
        try:
            scheduler.submit(request, tick)
        except (ServeError, ServiceOverloaded) as error:
            status = "shed" if isinstance(error, ServiceOverloaded) \
                else "error"
            emit(RenderResponse(request_id=request.request_id,
                                status=status, error=str(error),
                                submitted_tick=tick, completed_tick=tick))

    def advance() -> None:
        nonlocal tick
        for response in scheduler.run_tick(tick):
            emit(response)
        if stats_interval and tick and tick % stats_interval == 0:
            scheduler.emit_stats(tick)
        tick += 1

    try:
        fd = input_stream.fileno()
    except (AttributeError, OSError, ValueError):
        fd = None                 # not selectable, e.g. a StringIO
    if fd is not None:
        import select
        encoding = getattr(input_stream, "encoding", None) or "utf-8"
        tail = b""
        eof = False
        while not (eof and scheduler.idle):
            ready = [] if eof else select.select([fd], [], [], tick_s)[0]
            if ready:
                # Read the descriptor, not the stream: a buffered
                # readline() pulls every line of this pipe read into
                # Python's buffer but returns one, and select cannot see
                # the rest.  Handle every complete line now; keep the
                # partial one for the next read.
                data = os.read(fd, 1 << 16)
                if data:
                    *lines, tail = (tail + data).split(b"\n")
                else:
                    eof, lines, tail = True, [tail], b""
                for line in lines:
                    handle_line(line.decode(encoding, "replace"))
                if not eof:
                    continue
            advance()
    else:
        for line in input_stream:
            handle_line(line)
            advance()
        while not scheduler.idle:
            advance()
    return scheduler.emit_stats(tick)
