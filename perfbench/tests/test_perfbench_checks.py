"""Tests of the benchmark's own arithmetic, tracer and output checks.

Each output check is shown rejecting a deliberately corrupted output.
Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import dataclasses
import importlib
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import checks  # noqa: E402
import tracing  # noqa: E402


class TestPercentiles:
    def test_nearest_rank_returns_a_measured_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert checks.nearest_rank(values, 50) == 3.0
        assert checks.nearest_rank(values, 95) == 5.0
        assert checks.nearest_rank(values, 0) == 1.0
        assert checks.nearest_rank(range(1, 101), 95) == 95.0
        with pytest.raises(ValueError):
            checks.nearest_rank([], 50)

    def test_ten_beyond_rule(self):
        assert checks.samples_beyond(200, 95) == 10
        assert checks.samples_beyond(199, 95) == 9
        assert checks.samples_beyond(256, 95) == 12
        assert checks.samples_beyond(40, 95) == 2
        assert checks.samples_beyond(1, 95) == 0

    def test_quartile_spread(self):
        q1, median, q3, spread = checks.quartile_spread(
            [1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, median, q3) == (1.5, 3.0, 4.5)
        assert spread == pytest.approx(1.0)
        assert checks.quartile_spread([2.0, 2.0, 2.0])[3] == 0.0


class TestSelfTime:
    # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and b [50, 90]
    SPANS = [("root", 0, 100, -1), ("a", 10, 40, 0), ("c", 15, 25, 1),
             ("b", 50, 90, 0), ("a", 95, 99, 0)]

    def test_self_time_subtracts_direct_children_only(self):
        assert checks.self_times(self.SPANS) == [26, 20, 10, 40, 4]

    def test_tracer_sums_self_time_by_name_within_a_phase(self):
        tracer = tracing.Tracer()
        tracer.spans = [list(span) + ["timed"] for span in self.SPANS]
        tracer.spans.append(["a", 200, 300, -1, "setup"])
        assert tracer.self_seconds("timed") == pytest.approx(
            {"root": 26e-9, "a": 24e-9, "c": 10e-9, "b": 40e-9})
        assert tracer.self_seconds("setup") == pytest.approx({"a": 1e-7})

    def test_tracer_nests_spans_and_only_records_in_a_phase(self):
        tracer = tracing.Tracer()

        def leaf(value):
            return value + 1

        wrapped_leaf = tracer.wrap("leaf", leaf)
        outer = tracer.wrap("outer", lambda value: wrapped_leaf(value) * 2)
        assert outer(1) == 4 and tracer.spans == []
        tracer.phase = "timed"
        assert outer(1) == 4
        names = [(span[0], span[3], span[4]) for span in tracer.spans]
        assert names == [("outer", -1, "timed"), ("leaf", 0, "timed")]
        seconds = tracer.self_seconds("timed")
        total = (tracer.spans[0][2] - tracer.spans[0][1]) / 1e9
        assert seconds["outer"] + seconds["leaf"] == pytest.approx(total)

    def test_every_hook_names_a_program_attribute(self):
        importlib.import_module("repro.models")
        for module_name, attribute, _name, _count in tracing.HOOKS:
            owner = importlib.import_module(module_name)
            for part in attribute.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module_name, attribute)


class TestOutputChecksRejectCorruption:
    def test_flipped_pixel_bit(self):
        image = np.random.default_rng(0).random((12, 16, 3))
        corrupted = image.copy()
        corrupted.view(np.uint64)[3, 5, 1] ^= 1
        assert checks.bit_identical(image, image.copy())
        assert not checks.bit_identical(corrupted, image)
        assert not checks.bit_identical(image.astype(np.float32), image)

    def test_invalid_pixels(self):
        image = np.full((4, 5, 3), 0.5)
        assert checks.pixels_valid(image, (4, 5, 3))
        assert not checks.pixels_valid(image, (5, 4, 3))
        for bad in (np.nan, np.inf, -1e-9, 1.0 + 1e-9):
            corrupted = image.copy()
            corrupted[1, 2, 0] = bad
            assert not checks.pixels_valid(corrupted, (4, 5, 3))

    def test_nan_loss(self):
        history = [0.5, 0.4, 0.3, 0.2]
        assert checks.losses_finite(history)
        assert not checks.losses_finite([0.5, float("nan"), 0.3, 0.2])
        assert checks.loss_fell(history[:2], history[2:])
        assert not checks.loss_fell(history[2:], history[:2])
        assert not checks.loss_fell(history, [])

    def test_plan_with_one_patch_removed(self):
        from repro import models as M
        from repro import hardware as H
        from repro.core.pipeline import hardware_rig
        from repro.scenes import DATASETS

        spec = DATASETS["deepvoxels"]
        rig = hardware_rig(spec, 2, seed=0)
        workload = M.typical_workload(height=spec.height, width=spec.width,
                                      num_views=2, points_per_ray=64)
        for variant in ("ours", "var1"):
            accelerator = H.GenNerfAccelerator(H.variant_config(variant))
            plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                          rig.far, workload)
            bounds = plan.arrays.bounds
            shape = (plan.image_height, plan.image_width, plan.depth_bins)
            assert checks.plan_tiles(bounds, *shape)
            assert not checks.plan_tiles(np.delete(bounds, 7, axis=0),
                                         *shape)
            overlapping = bounds.copy()
            overlapping[7] = overlapping[8]
            assert not checks.plan_tiles(overlapping, *shape)

    def test_tiling_needs_full_coverage_without_overlap(self):
        halves = np.array([[0, 4, 0, 2, 0, 3], [0, 4, 2, 4, 0, 3]])
        assert checks.plan_tiles(halves, 4, 4, 3)
        # Same total volume as the frame, but one cell row covered twice.
        shifted = np.array([[0, 4, 0, 2, 0, 3], [0, 4, 1, 3, 0, 3]])
        assert not checks.plan_tiles(shifted, 4, 4, 3)
        assert not checks.plan_tiles(halves, 4, 4, 4)
        assert not checks.plan_tiles(np.zeros((0, 6)), 4, 4, 3)

    def test_simulation_consistency(self):
        assert checks.simulation_consistent(2.0, 1.0, 0.5)
        assert not checks.simulation_consistent(1.0, 2.0, 0.5)
        assert not checks.simulation_consistent(2.0, 1.0, 0.0)
        assert not checks.simulation_consistent(2.0, 1.0, 1.5)

    def test_same_fields(self):
        @dataclasses.dataclass
        class Frame:
            total: float
            plan: object = None

        assert checks.same_fields(Frame(1.0, "a"), Frame(1.0, "b"))
        assert not checks.same_fields(Frame(1.0), Frame(np.nextafter(1, 2)))
