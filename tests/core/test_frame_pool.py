"""Intra-frame worker pool: dispatch, persistence, guards, fallback.

The byte-identity of *real* sharded work (image renders) is pinned in
``tests/models/test_render_sharded.py``; this suite covers the pool
machinery itself with cheap picklable functions.
"""

import concurrent.futures
import logging

import pytest

from repro.core import faults, frame_pool, log, runner
from repro.core.faults import FaultPlan, FaultSpec, injected_faults
from repro.core.runner import POOL_WORKER_ENV, in_pool_worker


# Module-level so process pools can pickle them.
def _scaled(payload, value):
    scale, = payload
    return scale * value


def _pair(payload, start, stop):
    return (payload[0], start, stop)


def _chunk_boom(payload, value):
    raise RuntimeError("chunk failure")


def _chunk_oserror(payload, value):
    raise FileNotFoundError("missing chunk input")


def _worker_flag(payload):
    return in_pool_worker()


def _flag_unit():
    return in_pool_worker()


@pytest.fixture(autouse=True)
def clean_pool():
    """Every test starts and ends without a live persistent pool."""
    frame_pool.shutdown_pool()
    yield
    frame_pool.shutdown_pool()


class TestMapChunks:
    def test_sequential_and_parallel_agree(self):
        payload = (3,)
        tasks = [(value,) for value in range(7)]
        sequential = frame_pool.map_chunks(_scaled, payload, tasks,
                                           workers=1)
        parallel = frame_pool.map_chunks(_scaled, payload, tasks,
                                         workers=3)
        assert sequential == [0, 3, 6, 9, 12, 15, 18]
        assert parallel == sequential

    def test_results_in_task_order_with_multi_arg_tasks(self):
        payload = ("tag",)
        tasks = [(i, i + 10) for i in range(5)]
        results = frame_pool.map_chunks(_pair, payload, tasks, workers=2)
        assert results == [("tag", i, i + 10) for i in range(5)]

    def test_single_task_stays_in_process(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("pool constructed for a single task")

        monkeypatch.setattr(frame_pool.concurrent.futures,
                            "ProcessPoolExecutor", bomb)
        assert frame_pool.map_chunks(_scaled, (2,), [(21,)],
                                     workers=8) == [42]

    def test_workers_one_stays_in_process(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("pool constructed at workers=1")

        monkeypatch.setattr(frame_pool.concurrent.futures,
                            "ProcessPoolExecutor", bomb)
        assert frame_pool.map_chunks(_scaled, (2,), [(1,), (2,)],
                                     workers=1) == [2, 4]

    def test_chunk_exceptions_propagate_sequential_and_parallel(self):
        with pytest.raises(RuntimeError, match="chunk failure"):
            frame_pool.map_chunks(_chunk_boom, (0,), [(1,)], workers=1)
        with pytest.raises(RuntimeError, match="chunk failure"):
            frame_pool.map_chunks(_chunk_boom, (0,), [(1,), (2,)],
                                  workers=2)

    def test_chunk_oserror_propagates_from_parallel_path(self):
        # An OSError raised *by the chunk function* is the chunk's own
        # failure — it must not trigger the sequential fallback (which
        # would re-run every chunk).
        with pytest.raises(FileNotFoundError, match="missing chunk"):
            frame_pool.map_chunks(_chunk_oserror, (0,), [(1,), (2,)],
                                  workers=2)

    def test_pool_spawn_failure_falls_back_sequentially(self, monkeypatch,
                                                        caplog):
        def broken_pool(payload, workers):
            raise OSError("no process spawning here")

        monkeypatch.setattr(frame_pool, "get_pool", broken_pool)
        with caplog.at_level(logging.WARNING, logger="repro"):
            results = frame_pool.map_chunks(_scaled, (5,),
                                            [(1,), (2,), (3,)], workers=3)
        assert results == [5, 10, 15]
        # Satellite requirement: the sequential fallback is reported as
        # a structured event exactly once per degradation.
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
        assert "pool unavailable" in degraded[0].repro_fields["reason"]

    def test_broken_pool_falls_back_sequentially(self, monkeypatch,
                                                 caplog):
        class BrokenExecutor:
            def submit(self, *args, **kwargs):
                raise concurrent.futures.process.BrokenProcessPool(
                    "worker died")

        monkeypatch.setattr(frame_pool, "get_pool",
                            lambda payload, workers: BrokenExecutor())
        with caplog.at_level(logging.WARNING, logger="repro"):
            results = frame_pool.map_chunks(_scaled, (7,), [(1,), (2,)],
                                            workers=2)
        assert results == [7, 14]
        # Break -> rebuild once -> break again -> degrade: one rebuild
        # attempt, then exactly one degradation event.
        broken = log.events_named(caplog.records, "frame_pool.pool_broken")
        assert len(broken) == 2
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
        assert degraded[0].repro_fields["reason"] == "pool broke twice"


class TestPoolPersistence:
    def test_pool_reused_for_identical_payload(self):
        payload = (11,)
        assert frame_pool.map_chunks(_scaled, payload, [(1,), (2,)],
                                     workers=2) == [11, 22]
        first = frame_pool._POOL
        assert first is not None
        assert frame_pool.map_chunks(_scaled, payload, [(3,), (4,)],
                                     workers=2) == [33, 44]
        assert frame_pool._POOL[0] is first[0]   # same executor object

    def test_pool_replaced_when_payload_changes(self):
        frame_pool.map_chunks(_scaled, (1,), [(1,), (2,)], workers=2)
        first = frame_pool._POOL[0]
        assert frame_pool.map_chunks(_scaled, (2,), [(1,), (2,)],
                                     workers=2) == [2, 4]
        assert frame_pool._POOL[0] is not first

    def test_pool_replaced_when_width_changes(self):
        payload = (9,)
        frame_pool.map_chunks(_scaled, payload,
                              [(i,) for i in range(4)], workers=2)
        first = frame_pool._POOL[0]
        frame_pool.map_chunks(_scaled, payload,
                              [(i,) for i in range(4)], workers=3)
        assert frame_pool._POOL[0] is not first
        assert frame_pool._POOL[1] == 3

    def test_shutdown_is_idempotent(self):
        frame_pool.map_chunks(_scaled, (1,), [(1,), (2,)], workers=2)
        frame_pool.shutdown_pool()
        assert frame_pool._POOL is None
        frame_pool.shutdown_pool()


class TestNestedPoolGuard:
    def test_resolve_workers_inside_pool_worker_is_one(self, monkeypatch):
        monkeypatch.setenv(POOL_WORKER_ENV, "1")
        assert frame_pool.resolve_workers(100, workers=8) == 1

    def test_resolve_workers_outside_matches_detect(self, monkeypatch):
        monkeypatch.delenv(POOL_WORKER_ENV, raising=False)
        assert frame_pool.resolve_workers(10, workers=4) == \
            runner.detect_workers(10, 4)

    def test_frame_pool_workers_are_marked(self):
        flags = frame_pool.map_chunks(_worker_flag, (0,), [(), ()],
                                      workers=2)
        assert flags == [True, True]
        assert not in_pool_worker()      # the parent stays unmarked

    def test_run_variants_workers_are_marked(self):
        flags = runner.run_variants([(_flag_unit, {}), (_flag_unit, {})],
                                    workers=2)
        assert flags == [True, True]
        assert not in_pool_worker()


def _unit_triple(value=0):
    return value * 3


class TestMapChunksFaultInjection:
    """Deterministic fault drills against a *real* pool: crashed, hung,
    and corrupt workers re-execute only their chunk, and the output
    stays identical to the sequential path."""

    EXPECTED = [0, 5, 10, 15]

    def _run(self, workers=2, timeout=None, retries=None):
        return frame_pool.map_chunks(
            _scaled, (5,), [(i,) for i in range(4)],
            workers=workers, timeout=timeout, retries=retries)

    def test_worker_crash_rebuilds_pool_and_retries(self, caplog):
        plan = FaultPlan(tasks={1: FaultSpec("crash")}, scope="frame_pool")
        with caplog.at_level(logging.INFO, logger="repro"):
            with injected_faults(plan):
                assert self._run() == self.EXPECTED
        assert log.events_named(caplog.records, "frame_pool.pool_broken")
        assert log.events_named(caplog.records, "frame_pool.pool_rebuild")
        # A single crash must never degrade the whole frame.
        assert not log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")

    def test_persistent_crashes_degrade_once_then_finish_in_process(
            self, caplog):
        plan = FaultPlan(tasks={0: FaultSpec("crash",
                                             attempts=tuple(range(8)))},
                         scope="frame_pool")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert self._run(retries=3) == self.EXPECTED
        degraded = log.events_named(caplog.records,
                                    "frame_pool.degraded_sequential")
        assert len(degraded) == 1
        assert degraded[0].repro_fields["reason"] == "pool broke twice"

    def test_hung_worker_times_out_and_retries(self, caplog):
        plan = FaultPlan(tasks={2: FaultSpec("hang", hang_s=5.0)},
                         scope="frame_pool")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert self._run(timeout=0.25) == self.EXPECTED
        timeouts = log.events_named(caplog.records,
                                    "frame_pool.task_timeout")
        assert [r.repro_fields["task"] for r in timeouts] == [2]

    def test_corrupt_result_is_retried_not_returned(self, caplog):
        plan = FaultPlan(tasks={3: FaultSpec("corrupt")},
                         scope="frame_pool")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                results = self._run()
        assert results == self.EXPECTED
        assert not any(isinstance(value, faults.CorruptResult)
                       for value in results)
        corrupt = log.events_named(caplog.records,
                                   "frame_pool.task_corrupt")
        assert [r.repro_fields["task"] for r in corrupt] == [3]

    def test_validate_hook_rejections_are_retried(self, caplog):
        rejected = []

        def validate(value, index):
            # Parent-side validator: reject task 1's first result only.
            if index == 1 and not rejected:
                rejected.append(index)
                return False
            return True

        with caplog.at_level(logging.WARNING, logger="repro"):
            results = frame_pool.map_chunks(
                _scaled, (5,), [(i,) for i in range(4)],
                workers=2, validate=validate)
        assert results == self.EXPECTED
        assert rejected == [1]
        assert log.events_named(caplog.records, "frame_pool.task_corrupt")

    def test_scope_mismatch_injects_nothing(self):
        plan = FaultPlan(tasks={0: FaultSpec("crash",
                                             attempts=tuple(range(8)))},
                         scope="run_variants")
        with injected_faults(plan):
            assert self._run() == self.EXPECTED


class TestRunVariantsFaultInjection:
    TASKS = [(_unit_triple, {"value": i}) for i in range(4)]
    EXPECTED = [0, 3, 6, 9]

    def test_worker_crash_rebuilds_pool_and_retries(self, caplog):
        plan = FaultPlan(tasks={0: FaultSpec("crash")},
                         scope="run_variants")
        with caplog.at_level(logging.INFO, logger="repro"):
            with injected_faults(plan):
                assert runner.run_variants(self.TASKS,
                                           workers=2) == self.EXPECTED
        assert log.events_named(caplog.records, "run_variants.pool_broken")
        assert log.events_named(caplog.records,
                                "run_variants.pool_rebuild")
        assert not log.events_named(caplog.records,
                                    "run_variants.degraded_sequential")

    def test_variant_timeout_once_then_succeeds(self, caplog):
        # Satellite drill: one variant hangs past its timeout on the
        # first attempt, is retried on a fresh pool, and the run's
        # results are identical to the no-fault run.
        plan = FaultPlan(tasks={1: FaultSpec("hang", hang_s=5.0)},
                         scope="run_variants")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                results = runner.run_variants(self.TASKS, workers=2,
                                              timeout=0.25)
        assert results == self.EXPECTED
        timeouts = log.events_named(caplog.records,
                                    "run_variants.task_timeout")
        assert [r.repro_fields["task"] for r in timeouts] == [1]

    def test_persistent_crashes_degrade_once_then_finish_in_process(
            self, caplog):
        plan = FaultPlan(tasks={2: FaultSpec("crash",
                                             attempts=tuple(range(8)))},
                         scope="run_variants")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert runner.run_variants(self.TASKS, workers=2,
                                           retries=3) == self.EXPECTED
        degraded = log.events_named(caplog.records,
                                    "run_variants.degraded_sequential")
        assert len(degraded) == 1

    def test_corrupt_unit_result_is_retried(self, caplog):
        plan = FaultPlan(tasks={3: FaultSpec("corrupt")},
                         scope="run_variants")
        with caplog.at_level(logging.WARNING, logger="repro"):
            with injected_faults(plan):
                assert runner.run_variants(self.TASKS,
                                           workers=2) == self.EXPECTED
        assert log.events_named(caplog.records,
                                "run_variants.task_corrupt")


class TestRunVariantsPoolBypass:
    """Satellite: a sequential resolution must never pay pool spawn cost."""

    def test_workers_one_never_constructs_pool(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed for a "
                                 "sequential run")

        monkeypatch.setattr(runner.concurrent.futures,
                            "ProcessPoolExecutor", bomb)
        tasks = [(_flag_unit, {}), (_flag_unit, {})]
        assert runner.run_variants(tasks, workers=1) == [False, False]

    def test_single_task_never_constructs_pool(self, monkeypatch):
        def bomb(*args, **kwargs):
            raise AssertionError("ProcessPoolExecutor constructed for a "
                                 "single task")

        monkeypatch.setattr(runner.concurrent.futures,
                            "ProcessPoolExecutor", bomb)
        assert runner.run_variants([(_flag_unit, {})],
                                   workers=8) == [False]
