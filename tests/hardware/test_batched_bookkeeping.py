"""The batched frame simulator's per-patch bookkeeping, pinned against
the scalar forms it replaces.

* ``RenderingEngine.patch_compute_many`` groups patches by memo key in
  arrays.  It must match a per-patch loop over the scalar
  ``patch_compute`` on a second engine: balances on rounding
  boundaries, repeated keys whose first occurrence wins, entries reused
  across calls, and exactly one ``patch_compute_batch`` row per new key.
* ``scheduler._ordered_sum`` must give the ``+=`` loop's bits.
* ``batched_bank_load`` sums ragged groups (empty ones included) and
  returns C-contiguous rows, whose float sums downstream depend on it.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.hardware.engine import (PatchCompute, RenderingEngine,
                                   _round_balances)
from repro.hardware.interleave import (FeatureStore, FootprintRegion,
                                       bank_load_for_footprints,
                                       batched_bank_load, regions_as_array)
from repro.hardware.scheduler import _ordered_sum
from repro.models.workload import typical_workload

WORKLOAD = typical_workload(height=96, width=128, num_views=4)
COMPUTE_FIELDS = [field.name for field in fields(PatchCompute)]


def _boundary_balances():
    """Balances where numpy's and Python's 3-decimal rounding part, and
    one ulp either side of k + 0.5 thousandths."""
    halves = (np.arange(0, 1000, 37) + 0.5) / 1000
    return np.concatenate([
        [0.0005, 0.0015, 0.1235, 0.0625, 1.0, 0.0, -0.0],
        np.nextafter(halves, -np.inf), halves,
        np.nextafter(halves, np.inf)])


def _python_round(values):
    return np.array([round(float(value), 3) for value in values])


class CountingEngine(RenderingEngine):
    """An engine that records the rows each batched compute receives."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def patch_compute_batch(self, workload, num_points, num_rays,
                            sram_balance, coarse_stage=False):
        self.batches.append((np.array(num_points), np.array(num_rays),
                             np.array(sram_balance)))
        return super().patch_compute_batch(workload, num_points, num_rays,
                                           sram_balance, coarse_stage)


def _assert_matches_scalar_loop(batch, scalar_engine, points, rays,
                                balances):
    for index in range(len(points)):
        scalar = scalar_engine.patch_compute(
            WORKLOAD, int(points[index]), int(rays[index]),
            sram_balance=float(balances[index]))
        for name in COMPUTE_FIELDS:
            assert getattr(batch, name)[index] == getattr(scalar, name), \
                (index, name)


class TestRoundBalances:
    def test_matches_python_round_bit_for_bit(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            _boundary_balances(), rng.random(20_000),
            rng.random(20_000) ** 8, np.arange(2001) * 0.0005,
            np.arange(10_001) * 1e-4,
            [-0.0005, 5e9, 1e300, np.inf, -np.inf]])
        rounded = _round_balances(values)
        expected = _python_round(values)
        assert rounded.view(np.int64).tolist() \
            == expected.view(np.int64).tolist()

    def test_numpy_rounding_would_differ_here(self):
        # The reason the helper exists: numpy's rule regroups patches.
        assert np.round(0.0005, 3) != round(0.0005, 3)
        assert np.round(0.1235, 3) != round(0.1235, 3)


class TestCacheKey:
    def test_numpy_float_and_python_float_share_one_entry(self):
        engine = RenderingEngine()
        first = engine.patch_compute(WORKLOAD, 1000, 100,
                                     sram_balance=np.float64(0.1235))
        second = engine.patch_compute(WORKLOAD, 1000, 100,
                                      sram_balance=0.1235)
        assert second is first
        assert len(engine._cache) == 1


class TestPatchComputeMany:
    def test_boundary_balances_match_scalar_loop(self):
        balances = _boundary_balances()
        points = np.full(balances.shape, 4096)
        rays = np.full(balances.shape, 64)
        engine = CountingEngine()
        batch = engine.patch_compute_many(WORKLOAD, points, rays, balances)
        _assert_matches_scalar_loop(batch, RenderingEngine(), points, rays,
                                    balances)
        keys = {round(float(value), 3) for value in balances}
        assert sum(len(rows[0]) for rows in engine.batches) == len(keys)

    def test_first_occurrence_wins(self):
        # Three keys, each repeated with balances that differ past the
        # 3rd decimal; the batch sees each key's first balance.
        points = np.array([512, 2048, 512, 512, 2048, 777, 2048])
        rays = np.array([32, 64, 32, 32, 64, 16, 64])
        balances = np.array([0.4001, 0.25, 0.4004, 0.3999, 0.2504, 0.9,
                             0.2496])
        engine = CountingEngine()
        batch = engine.patch_compute_many(WORKLOAD, points, rays, balances)
        _assert_matches_scalar_loop(batch, RenderingEngine(), points, rays,
                                    balances)
        (got_points, got_rays, got_balances), = engine.batches
        assert got_points.tolist() == [512, 2048, 777]
        assert got_rays.tolist() == [32, 64, 16]
        assert got_balances.tolist() == [0.4001, 0.25, 0.9]
        # The later patches of a key reuse the first patch's result.
        assert batch.ppu_cycles[3] == batch.ppu_cycles[0]

    def test_second_call_reuses_entries(self):
        rng = np.random.default_rng(9)
        points = rng.integers(1, 6, 300) * 1024
        rays = rng.integers(1, 4, 300) * 32
        balances = np.round(rng.random(300), 2) + 1e-5
        engine = CountingEngine()
        scalar_engine = RenderingEngine()
        first = engine.patch_compute_many(WORKLOAD, points, rays, balances)
        _assert_matches_scalar_loop(first, scalar_engine, points, rays,
                                    balances)
        computed = sum(len(rows[0]) for rows in engine.batches)
        assert computed == len(set(zip(points.tolist(), rays.tolist(),
                                       np.round(balances, 3).tolist())))

        # The same keys, balances moved past the 3rd decimal and patches
        # reordered: nothing is recomputed, every value comes from the
        # first call.
        order = rng.permutation(300)
        again = engine.patch_compute_many(WORKLOAD, points[order],
                                          rays[order],
                                          balances[order] + 2e-5)
        assert sum(len(rows[0]) for rows in engine.batches) == computed
        for name in COMPUTE_FIELDS:
            assert getattr(again, name).tolist() \
                == getattr(first, name)[order].tolist()
        _assert_matches_scalar_loop(again, scalar_engine, points[order],
                                    rays[order], balances[order] + 2e-5)

    def test_scalar_entries_are_reused(self):
        engine = CountingEngine()
        scalar = engine.patch_compute(WORKLOAD, 900, 30, sram_balance=0.5004)
        batch = engine.patch_compute_many(WORKLOAD, np.array([900, 901]),
                                          np.array([30, 30]),
                                          np.array([0.4996, 0.5]))
        assert batch.ppu_cycles[0] == scalar.ppu_cycles
        (got_points, _rays, _balances), = engine.batches
        assert got_points.tolist() == [901]

    def test_empty_call(self):
        engine = CountingEngine()
        batch = engine.patch_compute_many(WORKLOAD, np.zeros(0, np.int64),
                                          np.zeros(0, np.int64),
                                          np.zeros(0))
        for name in COMPUTE_FIELDS:
            assert getattr(batch, name).shape == (0,)
        assert engine.batches == [] and engine._cache == {}


def _loop_sum(values):
    total = 0.0
    for value in np.asarray(values).tolist():
        total += value
    return total


class TestOrderedSum:
    @pytest.mark.parametrize("values", [
        np.zeros(0), np.array([-0.0]), np.array([-0.0, -0.0]),
        np.array([1e16, 1.0, -1e16, 1.0]),
        np.array([3.5, -2.25, 1e-300, -7e12, 0.1, -0.1]),
        np.arange(1, 5, dtype=np.int64) * (2 ** 53 + 1)],
        ids=["empty", "negative-zero", "negative-zeros", "cancellation",
             "mixed-signs", "int64"])
    def test_matches_loop(self, values):
        total = _ordered_sum(values)
        assert isinstance(total, float)
        assert np.float64(total).view(np.int64) \
            == np.float64(_loop_sum(values)).view(np.int64)

    def test_matches_loop_on_100k_values(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(100_000) \
            * 10.0 ** rng.integers(-8, 9, 100_000)
        assert _ordered_sum(values) == _loop_sum(values)
        # ... where numpy's pairwise sum lands elsewhere.
        assert float(np.sum(values)) != _loop_sum(values)


class TestGroupedBankLoads:
    @pytest.mark.parametrize("layout", ["spatial_interleaved", "row_major",
                                        "row_interleaved",
                                        "view_interleaved"])
    def test_ragged_counts_with_empty_groups(self, layout):
        rng = np.random.default_rng(12)
        store = FeatureStore(num_views=3, height=40, width=36, channels=8,
                             layout=layout)
        counts = np.array([0, 3, 1, 0, 0, 5, 2, 0])
        groups = []
        for count in counts.tolist():
            group = []
            for _ in range(count):
                row0, col0 = rng.integers(0, 30, 2).tolist()
                group.append(FootprintRegion(
                    view=int(rng.integers(0, 3)), row0=row0,
                    row1=row0 + int(rng.integers(0, 11)), col0=col0,
                    col1=col0 + int(rng.integers(0, 7))))
            groups.append(group)
        flat = regions_as_array([fp for group in groups for fp in group])
        group_bytes, group_acts = batched_bank_load(store, flat, counts, 16)
        assert group_bytes.flags.c_contiguous
        assert group_acts.flags.c_contiguous
        for index, group in enumerate(groups):
            ref_bytes, ref_acts = bank_load_for_footprints(store, group, 16)
            np.testing.assert_array_equal(group_bytes[index], ref_bytes)
            np.testing.assert_array_equal(group_acts[index], ref_acts)
