"""Closed-form spatial-interleaved bank loads vs the scalar reference.

``FeatureStore.rectangle_bank_load_batched`` prices a spatially
interleaved rectangle as ``rows // B`` whole periods of row windows plus
one partial period, read from a window table.  The scalar
``rectangle_bank_load`` counts one window start per feature row.  They
must agree bank for bank at every bank count — including counts whose
row skew shares a factor with B (10, 14, 15 banks) — on regions taller
than several periods, on full-height stripes, on empty spans, and on the
real region arrays of both planners.
"""

import math

import numpy as np
import pytest

from repro.core.pipeline import hardware_rig
from repro.hardware import (AcceleratorConfig, FeatureStore,
                            GenNerfAccelerator, variant_config)
from repro.hardware.interleave import FootprintRegion, spatial_skew
from repro.models.workload import typical_workload
from repro.scenes.datasets import DATASETS

HEIGHT, WIDTH = 150, 90


def _store():
    return FeatureStore(num_views=3, height=HEIGHT, width=WIDTH,
                        channels=8, layout="spatial_interleaved")


def _assert_rows_match_scalar(store, regions, num_banks):
    regions = np.asarray(regions, dtype=np.int64).reshape(-1, 5)
    loads, acts = store.rectangle_bank_load_batched(regions, num_banks)
    assert loads.shape == acts.shape == (regions.shape[0], num_banks)
    for index, (view, row0, row1, col0, col1) in enumerate(regions.tolist()):
        region = FootprintRegion(view=view, row0=row0, row1=row1,
                                 col0=col0, col1=col1)
        ref_loads, ref_acts = store.rectangle_bank_load(region, num_banks)
        np.testing.assert_array_equal(loads[index], ref_loads,
                                      err_msg=f"loads of {region}")
        np.testing.assert_array_equal(acts[index], ref_acts,
                                      err_msg=f"activations of {region}")


def _edge_regions(rng, num_banks):
    """Heights around and across whole periods, full-height stripes of
    every width class, and empty or inverted spans."""
    heights = sorted({0, 1, num_banks - 1, num_banks, num_banks + 1,
                      2 * num_banks, 3 * num_banks + num_banks // 2,
                      5 * num_banks - 1, HEIGHT})
    widths = sorted({0, 1, max(1, num_banks - 1), num_banks,
                     num_banks + 1, 2 * num_banks + 3, WIDTH})
    regions = []
    for rows in heights:
        for cols in widths:
            row0 = int(rng.integers(-3, HEIGHT - min(rows, HEIGHT) + 1))
            col0 = int(rng.integers(-3, WIDTH - min(cols, WIDTH) + 1))
            regions.append((int(rng.integers(0, 3)), row0, row0 + rows,
                            col0, col0 + cols))
    for cols in widths:
        col0 = int(rng.integers(0, WIDTH - min(cols, WIDTH) + 1))
        regions.append((1, 0, HEIGHT, col0, col0 + cols))
    regions += [(0, 7, 7, 2, 40), (2, 3, 60, 9, 9), (1, 20, 4, 0, 30),
                (0, 5, 90, 30, 11)]
    return regions


def _random_regions(rng, count):
    row0 = rng.integers(-4, HEIGHT, count)
    col0 = rng.integers(-4, WIDTH, count)
    return np.stack([rng.integers(0, 3, count), row0,
                     row0 + rng.integers(-2, HEIGHT // 2, count), col0,
                     col0 + rng.integers(-2, WIDTH // 2, count)], axis=1)


@pytest.mark.parametrize("num_banks", range(1, 34))
def test_batched_spatial_loads_match_scalar(num_banks):
    rng = np.random.default_rng(1000 + num_banks)
    store = _store()
    _assert_rows_match_scalar(store, _edge_regions(rng, num_banks),
                              num_banks)
    _assert_rows_match_scalar(store, _random_regions(rng, 150), num_banks)


@pytest.fixture(scope="module")
def planned_regions():
    """Fetch and resident region arrays of one greedy and one fixed
    plan at paper scale (DeepVoxels, 2 views)."""
    spec = DATASETS["deepvoxels"]
    rig = hardware_rig(spec, 2, seed=0)
    workload = typical_workload(height=spec.height, width=spec.width,
                                num_views=2, points_per_ray=64)
    arrays = {}
    for name in ("ours", "var1"):
        accelerator = GenNerfAccelerator(variant_config(name))
        plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                      rig.far, workload)
        store = accelerator._feature_store(workload, rig.sources)
        assert store.layout == "spatial_interleaved"
        arrays[name] = (store, plan.arrays)
    return arrays


@pytest.mark.parametrize("name", ["ours", "var1"])
@pytest.mark.parametrize("num_banks", [8, 16])
def test_plan_regions_match_scalar(planned_regions, name, num_banks):
    store, arrays = planned_regions[name]
    rows = arrays.fetch_regions[:, 2] - arrays.fetch_regions[:, 1]
    assert rows.max() > num_banks      # whole periods are exercised
    _assert_rows_match_scalar(store, arrays.fetch_regions, num_banks)
    _assert_rows_match_scalar(store, arrays.resident_regions, num_banks)


def test_accelerator_bank_counts_get_coprime_skews():
    config = AcceleratorConfig()
    for num_banks in (config.dram.num_banks,
                      config.engine.prefetch_sram.num_banks):
        assert math.gcd(spatial_skew(num_banks), num_banks) == 1
        # So a one-column stripe of B rows puts one location on every
        # bank.
        loads, acts = _store().rectangle_bank_load_batched(
            np.array([[0, 3, 3 + num_banks, 5, 6]]), num_banks)
        np.testing.assert_array_equal(loads[0], np.ones(num_banks))
        np.testing.assert_array_equal(acts[0], np.ones(num_banks))


def test_spatial_skew_values():
    """The values ``spatial_skew``'s docstring states."""
    assert [spatial_skew(b) for b in (8, 16, 32)] == [3, 7, 15]
    assert spatial_skew(10) == 4 and math.gcd(4, 10) == 2
