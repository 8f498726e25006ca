"""Byte-identity, backpressure, LRU, and knob tests for the serving
layer (:mod:`repro.core.serve`).

The headline contract: every request served through the coalescing
scheduler produces pixels **bitwise identical** to a direct
``render_image_*`` call — across batch windows {1, 4, 16}, interleaved
scenes, merged cross-request batches, and 1/2/4 worker settings.  All
scheduling runs on the virtual clock; no test sleeps.
"""

import dataclasses
import logging

import numpy as np
import pytest

from repro import models as M
from repro.core import log, serve
from repro.core.scene_cache import SceneCache
from repro.core.serve import (QUALITIES, RenderRequest, RenderScheduler,
                              SceneStore, ServeConfig, ServeError,
                              ServiceOverloaded)

SCENE_KW = dict(step=8, image_scale=1 / 16, views=4, scene_seed=1)

# image_scale must be a real number in (0, 1]: booleans, strings, null,
# NaN, infinities and out-of-range values are all a ServeError.
BAD_IMAGE_SCALES = [
    pytest.param(True, id="true"),
    pytest.param(False, id="false"),
    pytest.param("0.5", id="numeric-string"),
    pytest.param("abc", id="string"),
    pytest.param(None, id="null"),
    pytest.param(float("nan"), id="nan"),
    pytest.param(float("inf"), id="inf"),
    pytest.param(float("-inf"), id="-inf"),
    pytest.param(0.0, id="zero"),
    pytest.param(-0.25, id="negative"),
    pytest.param(1.5, id="above-one"),
]

SOURCE_POINTS = 24


@pytest.fixture(scope="module")
def store():
    """One warm scene store shared by the whole module (capacity large
    enough that byte-identity tests never evict)."""
    return SceneStore(capacity=8, source_points=SOURCE_POINTS, cache=None)


@pytest.fixture(scope="module")
def models():
    return {quality: serve.build_model(quality) for quality in QUALITIES}


@pytest.fixture(scope="module")
def direct_render(store, models):
    """Reference pixels via the direct render_image_* path, memoised
    on every request field but the id."""
    memo = {}

    def render(request: RenderRequest) -> np.ndarray:
        key = dataclasses.replace(request, request_id="")
        if key in memo:
            return memo[key]
        prepared = store.get(request.scene_key)
        spec = QUALITIES[request.quality]
        model = models[request.quality]
        maps = prepared.data.encoded_maps(model)
        if spec.kind == "uniform":
            image = M.render_image_ibrnet(
                model, prepared.scene, prepared.data.source_images,
                num_points=spec.num_points, step=request.step,
                chunk=request.chunk, feature_maps=maps)
        elif spec.kind == "hierarchical":
            image = M.render_image_ibrnet(
                model, prepared.scene, prepared.data.source_images,
                num_points=spec.num_points, step=request.step,
                chunk=request.chunk, hierarchical=True,
                coarse_points=spec.coarse_points, feature_maps=maps)
        else:
            image, _ = M.render_image_gen_nerf(
                model, prepared.scene, prepared.data.source_images,
                step=request.step, chunk=request.chunk, feature_maps=maps)
        memo[key] = image
        return image

    return render


def _interleaved_requests(chunk=None):
    """Every quality tier on two interleaved scenes."""
    requests = []
    for index, quality in enumerate(QUALITIES):
        for scene in ("fern", "fortress"):
            requests.append(RenderRequest(
                request_id=f"{scene}-{quality}", scene=scene,
                quality=quality, chunk=chunk, **SCENE_KW))
    return requests


def _config(store, **overrides):
    kwargs = dict(batch_window=4, max_batch=256, queue_limit=64,
                  scene_capacity=store.capacity, workers=1,
                  source_points=SOURCE_POINTS)
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


class TestByteIdentity:
    @pytest.mark.parametrize("window", [1, 4, 16])
    def test_windows(self, window, store, models, direct_render):
        scheduler = RenderScheduler(_config(store, batch_window=window),
                                    store=store, models=models)
        requests = _interleaved_requests()
        for tick, request in enumerate(requests):
            scheduler.submit(request, tick)
        responses, _ = scheduler.drain(len(requests))
        assert len(responses) == len(requests)
        for response in responses:
            assert response.status == "ok"
            expected = direct_render(
                next(r for r in requests
                     if r.request_id == response.request_id))
            assert np.array_equal(response.image, expected), \
                f"{response.request_id} diverged at window={window}"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers(self, workers, store, models, direct_render):
        # chunk=16 forces multi-chunk requests, so coalesced dispatches
        # genuinely shard over the frame pool at workers > 1.
        scheduler = RenderScheduler(
            _config(store, workers=workers, max_batch=128),
            store=store, models=models)
        requests = _interleaved_requests(chunk=16)
        for request in requests:
            scheduler.submit(request, 0)
        responses, _ = scheduler.drain(0)
        assert len(responses) == len(requests)
        for response in responses:
            assert response.status == "ok"
            expected = direct_render(
                next(r for r in requests
                     if r.request_id == response.request_id))
            assert np.array_equal(response.image, expected), \
                f"{response.request_id} diverged at workers={workers}"

    def test_merged_uniform_requests(self, store, models, direct_render):
        """Same-group uniform requests merge rays into one model call
        and still scatter back byte-identical rows."""
        scheduler = RenderScheduler(_config(store), store=store,
                                    models=models)
        requests = [RenderRequest(request_id=f"m{i}", scene="fern",
                                  quality="standard", **SCENE_KW)
                    for i in range(4)]
        for request in requests:
            scheduler.submit(request, 0)
        responses, _ = scheduler.drain(0)
        assert scheduler.counters["merged_rays"] > 0
        expected = direct_render(requests[0])
        for response in responses:
            assert response.status == "ok"
            assert np.array_equal(response.image, expected)

    def test_single_request_single_dispatch(self, store, models,
                                            direct_render):
        """window=0 serves a lone request on its submission tick."""
        scheduler = RenderScheduler(_config(store, batch_window=0),
                                    store=store, models=models)
        request = RenderRequest(request_id="solo", scene="fern",
                                quality="draft", **SCENE_KW)
        scheduler.submit(request, 7)
        responses = scheduler.run_tick(7)
        assert [r.status for r in responses] == ["ok"]
        assert responses[0].latency_ticks == 0
        assert np.array_equal(responses[0].image, direct_render(request))


class TestMergeExactness:
    """Merged uniform-tier runs against the direct render where a merged
    call would cross a BLAS kernel switch that the members' own calls do
    not (:mod:`repro.nn.regime`).  A standard ray issues its per-view
    GEMVs at 32 rows and its Ray-Mixer head at 8; a draft ray at 16 and
    4.  ``sgemv`` switches kernels above 16,384 rows."""

    @staticmethod
    def _serve(store, models, requests, max_batch=4096):
        scheduler = RenderScheduler(_config(store, max_batch=max_batch),
                                    store=store, models=models)
        for request in requests:
            scheduler.submit(request, 0)
        responses, _ = scheduler.drain(0)
        assert sorted(r.request_id for r in responses) \
            == sorted(r.request_id for r in requests)
        return scheduler, responses

    @staticmethod
    def _assert_direct(requests, responses, direct_render):
        by_id = {request.request_id: request for request in requests}
        for response in responses:
            assert response.status == "ok"
            assert np.array_equal(response.image,
                                  direct_render(by_id[response.request_id])
                                  ), by_id[response.request_id]

    @pytest.mark.parametrize("quality, step, count", [
        ("standard", 3, 2),   # per-view GEMVs: 10,752 rows, merged 21,504
        ("draft", 2, 2),      # per-view GEMVs: 12,288 rows, merged 24,576
        ("standard", 2, 3),   # Ray-Mixer head: 6,144 rows, merged 18,432
    ])
    def test_merge_across_gemv_switch(self, quality, step, count, store,
                                      models, direct_render):
        requests = [RenderRequest(request_id=f"x{i}", scene="fern",
                                  quality=quality,
                                  **dict(SCENE_KW, step=step))
                    for i in range(count)]
        _, responses = self._serve(store, models, requests)
        self._assert_direct(requests, responses, direct_render)

    def test_seeded_mixes_with_pinned_chunks(self, store, models,
                                             direct_render):
        """Random draft/standard mixes at steps 1-4 (2,961 to 192 rays)
        with pinned chunk sizes.  This seed puts own and merged row
        counts on both sides of every switch, except a draft chunk over
        the draft head's 4,096 rays, which needs a larger image."""
        rng = np.random.default_rng(27)
        chunks = (None, 96, 300, 520, 1100, 2100)
        merged = 0
        for round_index in range(6):
            requests = [RenderRequest(
                request_id=f"mix{round_index}-{i}", scene="fern",
                quality=("draft", "standard")[int(rng.integers(2))],
                chunk=chunks[int(rng.integers(len(chunks)))],
                **dict(SCENE_KW, step=int(rng.integers(1, 5))))
                for i in range(int(rng.integers(2, 5)))]
            scheduler, responses = self._serve(store, models, requests,
                                               max_batch=8192)
            self._assert_direct(requests, responses, direct_render)
            merged += scheduler.counters["merged_rays"]
        assert merged > 0


class TestBackpressure:
    def test_high_water_sheds_deterministically(self, store, models,
                                                caplog):
        scheduler = RenderScheduler(_config(store, queue_limit=2),
                                    store=store, models=models)
        requests = [RenderRequest(request_id=f"q{i}", scene="fern",
                                  quality="draft", **SCENE_KW)
                    for i in range(4)]
        accepted, shed = [], []
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            for request in requests:
                try:
                    scheduler.submit(request, 0)
                    accepted.append(request.request_id)
                except ServiceOverloaded:
                    shed.append(request.request_id)
        assert accepted == ["q0", "q1"]
        assert shed == ["q2", "q3"]
        assert scheduler.counters["shed"] == 2
        events = log.events_named(caplog.records, "serve.request_shed")
        assert [e.repro_fields["request_id"] for e in events] == shed
        responses, _ = scheduler.drain(0)
        assert sorted(r.request_id for r in responses) == accepted
        assert all(r.status == "ok" for r in responses)

    def test_shed_request_can_resubmit_after_drain(self, store, models):
        scheduler = RenderScheduler(_config(store, queue_limit=1),
                                    store=store, models=models)
        scheduler.submit(RenderRequest(request_id="first", scene="fern",
                                       quality="draft", **SCENE_KW), 0)
        retry = RenderRequest(request_id="retry", scene="fern",
                              quality="draft", **SCENE_KW)
        with pytest.raises(ServiceOverloaded, match="429|queue_limit"):
            scheduler.submit(retry, 0)
        scheduler.drain(0)
        scheduler.submit(retry, 5)          # shed != consumed id
        responses, _ = scheduler.drain(5)
        assert [r.status for r in responses] == ["ok"]


class TestSceneLRU:
    def test_capacity_one_alternating_scenes(self, store, models,
                                             direct_render):
        """At capacity 1 every scene switch evicts and re-prepares —
        and the cold re-prep is pinned byte-identical to the warm
        reference."""
        small = SceneStore(capacity=1, source_points=SOURCE_POINTS,
                           cache=None)
        scheduler = RenderScheduler(
            _config(store, batch_window=0, scene_capacity=1),
            store=small, models=models)
        requests = [RenderRequest(request_id=f"alt{i}",
                                  scene=("fern", "fortress")[i % 2],
                                  quality="draft", **SCENE_KW)
                    for i in range(4)]
        responses = []
        for tick, request in enumerate(requests):
            scheduler.submit(request, tick)
            responses.extend(scheduler.run_tick(tick))
        assert len(responses) == 4
        assert small.evictions >= 3
        assert small.misses == 4            # every access was cold
        for response, request in zip(responses, requests):
            assert response.status == "ok"
            assert np.array_equal(response.image, direct_render(request))

    def test_warm_hits_and_counters(self, models):
        small = SceneStore(capacity=2, source_points=SOURCE_POINTS,
                           cache=None)
        key = ("fern", 1 / 16, 4, 1)
        first = small.get(key)
        second = small.get(key)
        assert second is first
        assert small.counters == {"hits": 1, "misses": 1, "evictions": 0}

    def test_disk_cache_shared_with_experiment_layer(self, tmp_path):
        """The store's disk recipe is the same ``llff-src`` key the
        experiment memos use, so daemon and harness share entries."""
        from repro.core.context import _source_images_key

        cache = SceneCache(str(tmp_path))
        cold = SceneStore(capacity=2, source_points=SOURCE_POINTS,
                          cache=cache)
        key = ("fern", 1 / 16, 4, 1)
        prepared = cold.get(key)
        disk_key = _source_images_key(
            "fern", (1 / 16, 4, 1, SOURCE_POINTS))
        assert cache.load(disk_key) is not None
        warm = SceneStore(capacity=2, source_points=SOURCE_POINTS,
                          cache=cache)
        reloaded = warm.get(key)
        assert np.array_equal(reloaded.data.source_images,
                              prepared.data.source_images)


class TestKnobs:
    def test_env_knobs_resolve(self, monkeypatch):
        monkeypatch.setenv(serve.WINDOW_ENV, "7")
        monkeypatch.setenv(serve.MAX_BATCH_ENV, "512")
        monkeypatch.setenv(serve.QUEUE_ENV, "9")
        assert serve.detect_batch_window() == 7
        assert serve.detect_max_batch() == 512
        assert serve.detect_queue_limit() == 9
        config = ServeConfig.from_env()
        assert (config.batch_window, config.max_batch,
                config.queue_limit) == (7, 512, 9)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(serve.WINDOW_ENV, "7")
        assert serve.detect_batch_window(2) == 2
        assert ServeConfig.from_env(batch_window=2).batch_window == 2

    def test_malformed_env_warns_and_falls_back(self, monkeypatch,
                                                caplog):
        monkeypatch.setenv(serve.WINDOW_ENV, "soon")
        monkeypatch.setenv(serve.MAX_BATCH_ENV, "lots")
        with caplog.at_level(logging.WARNING, logger="repro.faults"):
            assert serve.detect_batch_window() \
                == serve.DEFAULT_BATCH_WINDOW
            assert serve.detect_max_batch() == serve.DEFAULT_MAX_BATCH
        ignored = log.events_named(caplog.records, "knob.ignored")
        assert {e.repro_fields["knob"] for e in ignored} \
            == {serve.WINDOW_ENV, serve.MAX_BATCH_ENV}

    def test_negative_values_clamp(self):
        assert serve.detect_batch_window(-3) == 0
        assert serve.detect_max_batch(0) == 1
        assert serve.detect_queue_limit(-1) == 1


class TestValidation:
    def test_bad_requests_rejected(self, store, models):
        scheduler = RenderScheduler(_config(store), store=store,
                                    models=models)
        bad = [RenderRequest(request_id="", scene="fern"),
               RenderRequest(request_id="x", scene=""),
               RenderRequest(request_id="x", scene="fern",
                             quality="ultra"),
               RenderRequest(request_id="x", scene="fern", step=0),
               RenderRequest(request_id="x", scene="fern",
                             image_scale=0.0),
               RenderRequest(request_id="x", scene="fern", chunk=0)]
        for request in bad:
            with pytest.raises(ServeError):
                scheduler.submit(request, 0)
        assert scheduler.counters["submitted"] == 0

    def test_python_requests_follow_the_integer_rule(self, store, models,
                                                     direct_render):
        """Requests built in Python get the JSON parser's integer rule:
        fractions, booleans and strings are refused before planning, and
        an integral float is read as an integer."""
        scheduler = RenderScheduler(_config(store), store=store,
                                    models=models)
        for field, value in [("step", 2.5), ("chunk", 16.5),
                             ("views", True), ("scene_seed", 1.5),
                             ("step", "3"), ("chunk", False)]:
            request = RenderRequest(request_id=f"{field}={value!r}",
                                    scene="fern",
                                    **dict(SCENE_KW, **{field: value}))
            with pytest.raises(ServeError, match=f"{field} must be an "
                                                 f"integer"):
                scheduler.submit(request, 0)
        assert scheduler.counters["submitted"] == 0

        request = RenderRequest(request_id="float-step", scene="fern",
                                quality="draft",
                                **dict(SCENE_KW, step=8.0, chunk=16.0))
        scheduler.submit(request, 0)
        [response], _ = scheduler.drain(0)
        assert response.status == "ok"
        expected = direct_render(dataclasses.replace(request, step=8,
                                                     chunk=16))
        assert np.array_equal(response.image, expected)

    @pytest.mark.parametrize("value", BAD_IMAGE_SCALES)
    def test_python_requests_follow_the_image_scale_rule(self, store,
                                                         models, value):
        """Requests built in Python get the JSON parser's image_scale
        rule: anything but a real number in (0, 1] is a ServeError
        before planning, never a bare ValueError or TypeError."""
        scheduler = RenderScheduler(_config(store), store=store,
                                    models=models)
        request = RenderRequest(request_id=f"scale={value!r}",
                                scene="fern",
                                **dict(SCENE_KW, image_scale=value))
        with pytest.raises(ServeError, match="image_scale must be"):
            scheduler.submit(request, 0)
        assert scheduler.counters["submitted"] == 0

    def test_duplicate_id_rejected(self, store, models):
        scheduler = RenderScheduler(_config(store), store=store,
                                    models=models)
        request = RenderRequest(request_id="dup", scene="fern",
                                quality="draft", **SCENE_KW)
        scheduler.submit(request, 0)
        with pytest.raises(ServeError, match="duplicate"):
            scheduler.submit(request, 1)
        scheduler.drain(0)
        # Completed ids stay burned: responses map 1:1 to ids forever.
        with pytest.raises(ServeError, match="duplicate"):
            scheduler.submit(request, 10)

    def test_bad_config_rejected(self):
        with pytest.raises(ServeError):
            ServeConfig(max_batch=0)
        with pytest.raises(ServeError):
            ServeConfig(batch_window=-1)
        with pytest.raises(ServeError):
            ServeConfig(queue_limit=0)
        with pytest.raises(ServeError):
            ServeConfig(request_deadline=0)

    def test_unknown_quality_model(self):
        with pytest.raises(ServeError, match="unknown quality"):
            serve.build_model("ultra")


class TestDaemon:
    """The stdio wrapper: JSON-lines in, JSON-lines out.  A StringIO
    has no selectable descriptor, so the daemon falls back to
    one-tick-per-line iteration — still fully deterministic."""

    def test_jsonl_round_trip(self, tmp_path, direct_render):
        import io
        import json
        import zlib

        lines = [
            json.dumps({"id": "a", "scene": "fern", "quality": "draft"}),
            "this is not json",
            json.dumps({"scene": "fern", "quality": "draft"}),
            json.dumps({"id": "bad", "scene": "fern",
                        "quality": "ultra"}),
        ]
        out = io.StringIO()
        config = ServeConfig(batch_window=1, max_batch=512,
                             queue_limit=8, scene_capacity=2, workers=1,
                             source_points=SOURCE_POINTS)
        stats = serve.run_daemon(
            config, input_stream=io.StringIO("\n".join(lines) + "\n"),
            output_stream=out, out_dir=str(tmp_path))
        payloads = [json.loads(line)
                    for line in out.getvalue().splitlines()]
        by_id = {p["id"]: p for p in payloads}
        assert by_id["a"]["status"] == "ok"
        assert by_id["req-000003"]["status"] == "ok"   # defaulted id
        assert by_id["req-000002"]["status"] == "error"  # bad JSON
        # Validation fails before the id is trusted, so the rejection
        # is reported under the sequence default id.
        assert by_id["req-000004"]["status"] == "error"
        assert "unknown quality" in by_id["req-000004"]["error"]
        assert stats["completed"] == 2
        assert stats["failed"] == 0            # rejected pre-submit

        # The wire form carries a crc32 witness and lands the pixels.
        reference = direct_render(RenderRequest(
            request_id="a", scene="fern", quality="draft", **SCENE_KW))
        assert by_id["a"]["shape"] == list(reference.shape)
        assert by_id["a"]["crc32"] \
            == f"{zlib.crc32(reference.tobytes()):08x}"
        saved = np.load(tmp_path / "a.npy")
        assert np.array_equal(saved, reference)

    def test_request_json_validation(self):
        with pytest.raises(ServeError, match="unknown request field"):
            serve.request_from_json({"scene": "fern", "bogus": 1}, "d")
        with pytest.raises(ServeError, match="must name a scene"):
            serve.request_from_json({"quality": "draft"}, "d")
        with pytest.raises(ServeError, match="JSON object"):
            serve.request_from_json(["fern"], "d")
        request = serve.request_from_json({"scene": "fern"}, "fallback")
        assert request.request_id == "fallback"
        assert request.quality == "standard"
        # Integer fields are rejected, not truncated, unless integral.
        for field, value in [("step", 2.5), ("step", True), ("step", "3"),
                             ("views", 4.9), ("chunk", 16.7),
                             ("scene_seed", False), ("chunk", "16")]:
            with pytest.raises(ServeError, match=f"{field} must be an "
                                                 f"integer"):
                serve.request_from_json({"scene": "fern", field: value},
                                        "d")
        request = serve.request_from_json(
            {"scene": "fern", "step": 2.0, "chunk": None}, "d")
        assert (request.step, request.chunk) == (2, None)

    @pytest.mark.parametrize("value", BAD_IMAGE_SCALES)
    def test_request_json_image_scale_rule(self, value):
        # Rejected, not coerced: float(true) would serve a full-scale
        # frame, 16x the default.
        with pytest.raises(ServeError, match="image_scale must be"):
            serve.request_from_json({"scene": "fern",
                                     "image_scale": value}, "d")

    @pytest.mark.parametrize("value", [1, 0.5, 1 / 16])
    def test_request_json_accepts_real_image_scale(self, value):
        request = serve.request_from_json(
            {"scene": "fern", "image_scale": value}, "d")
        assert type(request.image_scale) is float
        assert request.image_scale == value
