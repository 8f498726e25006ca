"""Experiment registry smoke tests (fast configurations).

Full paper-scale regeneration lives in ``benchmarks/``; here each
registered experiment runs with reduced knobs through
``get_experiment(name).run(RunContext(...), **overrides)`` and its
output structure is checked.
"""

import numpy as np
import pytest

from repro import core
from repro.core import RunContext, get_experiment


class TestCheapRunners:
    def test_table1_rows(self):
        rows = get_experiment("table1").run(RunContext()).rows
        assert len(rows) == 5
        names = [row[0] for row in rows]
        assert "Total" in names

    def test_fig2_structure(self):
        results = get_experiment("fig2").run(RunContext()).rows
        assert set(results) == {"rtx2080ti", "tx2"}
        llff = results["rtx2080ti"]["llff"]
        assert llff["acquire_features"] > 0
        assert llff["total"] >= llff["acquire_features"]

    def test_table4_rows(self):
        rows = get_experiment("table4").run(RunContext()).rows
        devices = [row["device"] for row in rows]
        assert any("simulated" in d for d in devices)
        assert any("ICARUS" in d for d in devices)
        simulated = rows[0]
        assert simulated["typical_fps"] > 1.0


class TestFig9Small:
    def test_curve_structure_and_ordering(self):
        results = get_experiment("fig9").run(
            RunContext(), datasets=("nerf_synthetic",), step=8,
            image_scale=1 / 12, pairs=((8, 16),),
            uniform_points=(24,)).rows
        curves = results["nerf_synthetic"]
        gen = curves["gen_nerf"][0]
        ibr = curves["ibrnet"][0]
        assert abs(gen.avg_points - ibr.avg_points) < 6
        assert gen.psnr > ibr.psnr   # the paper's headline ordering
        assert gen.mflops_per_pixel < ibr.mflops_per_pixel * 1.2


class TestAblationRunners:
    def test_coarse_budget_rows(self):
        rows = get_experiment("ablation_coarse_budget").run(
            RunContext(), image_scale=1 / 16, step=8, coarse_counts=(8,),
            taus=(1e-3,), focused=16).rows
        assert len(rows) == 1
        assert rows[0]["psnr"] > 20

    def test_patch_candidate_rows(self):
        rows = get_experiment("ablation_patch_candidates").run(
            RunContext()).rows
        assert len(rows) >= 3
        assert all(row["fps"] > 0 for row in rows)


@pytest.mark.slow
class TestTrainingRunners:
    def test_table2_tiny(self):
        rows = get_experiment("table2").run(
            RunContext(), train_steps=12, eval_step=16, image_scale=1 / 16,
            num_points=12, scenes=("fortress",), num_source_views=4).rows
        methods = [row.method for row in rows]
        assert "vanilla IBRNet" in methods
        assert any("Ray-Mixer" in m for m in methods)
        assert len(rows) == 7

    def test_table3_tiny(self):
        rows = get_experiment("table3").run(
            RunContext(), train_steps=10, finetune_steps=4, eval_step=16,
            image_scale=1 / 16, num_points=10, view_counts=(4,)).rows
        assert len(rows) == 2
        assert all(row.per_scene for row in rows)


# ----------------------------------------------------------------------
# Multi-process variant runner
# ----------------------------------------------------------------------
def _square(value):          # module-level so process pools can pickle it
    return value * value


def _slow_identity(value, delay):
    import time

    time.sleep(delay)
    return value


def _touch_marker(path):
    with open(path, "a") as handle:
        handle.write("ran\n")


def _raise_oserror():
    raise FileNotFoundError("missing scene file")


class TestVariantRunner:
    def test_sequential_and_parallel_agree(self):
        tasks = [(_square, {"value": v}) for v in range(5)]
        sequential = core.run_variants(tasks, workers=1)
        parallel = core.run_variants(tasks, workers=3)
        assert sequential == [0, 1, 4, 9, 16]
        assert parallel == sequential

    def test_result_order_is_task_order_not_completion_order(self):
        # The first task finishes last; results must still come back in
        # submission order.
        tasks = [(_slow_identity, {"value": 0, "delay": 0.4}),
                 (_slow_identity, {"value": 1, "delay": 0.0}),
                 (_slow_identity, {"value": 2, "delay": 0.0})]
        assert core.run_variants(tasks, workers=3) == [0, 1, 2]

    def test_unit_exceptions_propagate(self):
        def boom():
            raise RuntimeError("unit failure")

        with pytest.raises(RuntimeError, match="unit failure"):
            core.run_variants([(boom, {})], workers=1)

    def test_unit_oserror_propagates_without_sequential_rerun(self,
                                                              tmp_path):
        # A unit raising an OSError subclass is a *unit* failure, not a
        # pool failure: it must propagate from the parallel path and
        # must not trigger the sequential fallback (which would quietly
        # re-run every — potentially hours-long — unit).  The marker
        # file counts how often the healthy unit executed.
        marker = str(tmp_path / "ran")
        with pytest.raises(FileNotFoundError, match="missing scene"):
            core.run_variants([(_touch_marker, {"path": marker}),
                               (_raise_oserror, {})], workers=2)
        with open(marker) as handle:
            assert len(handle.readlines()) == 1

    def test_blocked_process_spawning_falls_back_sequentially(
            self, monkeypatch):
        # Worker processes spawn lazily inside ``submit``; a sandbox
        # that blocks process creation surfaces a PermissionError there
        # and the runner must fall back to the sequential path instead
        # of crashing the harness.
        import concurrent.futures

        def blocked_submit(self, fn, *args, **kwargs):
            raise PermissionError("process spawning blocked")

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "submit",
            blocked_submit)
        tasks = [(_square, {"value": v}) for v in range(3)]
        assert core.run_variants(tasks, workers=2) == [0, 1, 4]

    def test_detect_workers_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert core.detect_workers(10) == 6          # env wins over cpu
        assert core.detect_workers(3) == 3           # clamped to tasks
        assert core.detect_workers(10, workers=2) == 2   # arg wins over env
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert core.detect_workers(1) == 1           # bad env ignored
        monkeypatch.delenv("REPRO_WORKERS")
        assert core.detect_workers(0) == 1           # never below one

    def test_detect_workers_malformed_env_falls_back(self, monkeypatch,
                                                     caplog):
        # Malformed REPRO_WORKERS values must fall back cleanly, never
        # raise mid-harness: non-numeric degrades to CPU autodetection
        # with a structured knob.ignored warning, non-positive clamps
        # to the sequential path (the historical semantics of
        # REPRO_WORKERS=0).
        import logging

        from repro.core import log, runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        with caplog.at_level(logging.WARNING, logger="repro"):
            for bad in ("not-a-number", "2.5"):
                caplog.clear()
                monkeypatch.setenv("REPRO_WORKERS", bad)
                assert core.detect_workers(10) == 4, bad
                assert log.events_named(caplog.records, "knob.ignored")
            for sequential in ("0", "-3"):
                caplog.clear()
                monkeypatch.setenv("REPRO_WORKERS", sequential)
                assert core.detect_workers(10) == 1, sequential
                assert not caplog.records
            # Empty / whitespace-only values are silently skipped.
            for empty in ("", "   "):
                caplog.clear()
                monkeypatch.setenv("REPRO_WORKERS", empty)
                assert core.detect_workers(10) == 4
                assert not caplog.records
        # Whitespace-padded integers still parse.
        monkeypatch.setenv("REPRO_WORKERS", "  3  ")
        assert core.detect_workers(10) == 3

    def test_detect_workers_malformed_argument_falls_back(
            self, monkeypatch, caplog):
        import logging

        from repro.core import log, runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert core.detect_workers(10, workers="garbage") == 4
        record, = log.events_named(caplog.records, "knob.ignored")
        assert record.repro_fields["knob"] == "workers"
        # Explicit non-positive counts keep the historical clamp to the
        # sequential path (not a silent upgrade to full parallelism).
        assert core.detect_workers(10, workers=0) == 1
        assert core.detect_workers(10, workers=-2) == 1
        assert core.detect_workers(10, workers="5") == 5  # str int ok


@pytest.mark.slow
class TestParallelFigureHarness:
    """The acceptance property: table2/table3 rows are byte-identical
    whether the variant units run in one process or a pool."""

    @staticmethod
    def _rows(name, workers, **overrides):
        return get_experiment(name).run(RunContext(workers=workers),
                                        **overrides).rows

    @staticmethod
    def _as_tuples(rows):
        return [(row.method, row.mflops_per_pixel,
                 sorted(row.per_scene.items())) for row in rows]

    def test_table2_rows_identical_across_runners(self):
        kwargs = dict(train_steps=6, eval_step=16, image_scale=1 / 16,
                      num_points=10, scenes=("fortress",),
                      num_source_views=4)
        sequential = self._rows("table2", 1, **kwargs)
        parallel = self._rows("table2", 3, **kwargs)
        assert self._as_tuples(sequential) == self._as_tuples(parallel)

    def test_table3_rows_identical_across_runners(self):
        kwargs = dict(train_steps=5, finetune_steps=3, eval_step=16,
                      image_scale=1 / 16, num_points=10, view_counts=(4,))
        sequential = self._rows("table3", 1, **kwargs)
        parallel = self._rows("table3", 2, **kwargs)
        assert self._as_tuples(sequential) == self._as_tuples(parallel)

    def test_fig9_curves_identical_across_runners(self):
        kwargs = dict(datasets=("nerf_synthetic", "llff"), step=16,
                      image_scale=1 / 16, pairs=((4, 8),),
                      uniform_points=(12,), reference_points=64)
        sequential = self._rows("fig9", 1, **kwargs)
        parallel = self._rows("fig9", 2, **kwargs)
        assert list(sequential) == list(parallel)
        for dataset in sequential:
            for curve in ("gen_nerf", "ibrnet"):
                seq_pts = sequential[dataset][curve]
                par_pts = parallel[dataset][curve]
                assert [(p.label, p.avg_points, p.mflops_per_pixel, p.psnr)
                        for p in seq_pts] \
                    == [(p.label, p.avg_points, p.mflops_per_pixel, p.psnr)
                        for p in par_pts]

    def test_fig11_rows_identical_across_runners(self):
        kwargs = dict(view_counts=(6, 2), point_counts=(96,))
        sequential = self._rows("fig11", 1, **kwargs)
        parallel = self._rows("fig11", 3, **kwargs)
        assert sequential == parallel
        assert [row["num_views"] for row in sequential["views"]] == [6, 2]
        assert [row["points_per_ray"]
                for row in sequential["points"]] == [96]
