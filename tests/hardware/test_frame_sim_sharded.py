"""Frame simulation is one in-process pass at any host width.

``simulate_frame`` evaluates a frame as one grouped array pass and has
no ``workers`` argument: it never shards the plan over the intra-frame
pool of :mod:`repro.core.frame_pool`, which renders still use.  These
tests set the host width (``REPRO_WORKERS``) to 1, 2 and 4 with
``frame_pool.get_pool`` replaced by a tripwire, and pin that every
Fig. 12 variant's totals stay bit-identical across widths, that a warm
engine cache stays identical, and that a pool that cannot spawn
neither changes a frame nor logs a degradation.  Bit-identity to the
seed loop is pinned by ``tests/hardware/test_accelerator_equivalence.py``.
"""

import logging

import pytest

from repro.core import frame_pool, log
from repro.core.pipeline import hardware_rig
from repro.hardware import GenNerfAccelerator, variant_config
from repro.models.workload import typical_workload
from repro.scenes.datasets import DatasetSpec

SCALAR_FIELDS = ("total_time_s", "data_time_s", "fetch_time_s",
                 "compute_time_s", "coarse_time_s", "prefetch_bytes",
                 "pool_macs", "pe_utilization", "num_patches", "energy_j",
                 "scheduler_hidden")

SPEC = DatasetSpec("shardtest", width=192, height=144, fov_x_deg=50.0,
                   near=2.0, far=6.0, rig="orbit", rig_distance=4.0)


@pytest.fixture(scope="module")
def rig():
    return hardware_rig(SPEC, num_views=6, seed=0)


@pytest.fixture(scope="module")
def workload():
    return typical_workload(height=144, width=192, num_views=6)


@pytest.fixture(autouse=True)
def no_pool(monkeypatch):
    def tripwire(*args, **kwargs):
        # Not OSError: the pooled loop turns that into a fallback.
        raise AssertionError("a frame simulation opened a frame pool")

    monkeypatch.setattr(frame_pool, "get_pool", tripwire)


def _simulate(variant, rig, workload, plan=None):
    accelerator = GenNerfAccelerator(variant_config(variant))
    if plan is None:
        plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                      rig.far, workload)
    return accelerator.simulate_frame(workload, rig.novel, rig.sources,
                                      rig.near, rig.far, plan=plan), plan


def _assert_identical(result, sequential):
    for field in SCALAR_FIELDS:
        assert getattr(result, field) == getattr(sequential, field), field


class TestFrameSimSharded:
    @pytest.mark.parametrize("variant", ["ours", "var1", "var2", "var3"])
    def test_all_variants_bit_identical_at_all_widths(self, variant, rig,
                                                      workload,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        sequential, plan = _simulate(variant, rig, workload)
        for workers in (2, 4):
            monkeypatch.setenv("REPRO_WORKERS", str(workers))
            wide, _ = _simulate(variant, rig, workload, plan=plan)
            _assert_identical(wide, sequential)

    def test_warm_cache_reuse_stays_identical(self, rig, workload,
                                              monkeypatch):
        # Repeated frames on one simulator warm its engine compute
        # cache; at a wider host width the second frame must still
        # match a fresh simulator's frame bit for bit.
        monkeypatch.setenv("REPRO_WORKERS", "1")
        sequential, plan = _simulate("ours", rig, workload)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        accelerator = GenNerfAccelerator(variant_config("ours"))
        for _ in range(2):
            warm = accelerator.simulate_frame(
                workload, rig.novel, rig.sources, rig.near, rig.far,
                plan=plan)
            _assert_identical(warm, sequential)


class TestPoolFailureFallback:
    def test_simulation_survives_pool_failure_bit_identically(
            self, rig, workload, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        sequential, plan = _simulate("ours", rig, workload)

        def broken_pool(payload, workers):
            raise OSError("process spawning disabled")

        monkeypatch.setattr(frame_pool, "get_pool", broken_pool)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        with caplog.at_level(logging.WARNING, logger="repro"):
            result, _ = _simulate("ours", rig, workload, plan=plan)
        _assert_identical(result, sequential)
        # The simulator never asks for a pool, so there is nothing to
        # degrade from.
        assert log.events_named(caplog.records,
                                "frame_pool.degraded_sequential") == []
