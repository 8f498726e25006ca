"""Injected pool faults never reach a frame simulation.

Mirrors ``tests/models/test_render_faults.py`` for the accelerator
side.  A simulated frame runs in one process, so the fault plans that
crash, hang, or corrupt a ``frame_pool`` task mid-render have no task
to hit here: under each plan, at host widths (``REPRO_WORKERS``) of 1,
2, and 4, every scalar total of the frame matches the fault-free run
exactly, no pool is opened, and no ``frame_pool`` retry, rebuild or
degradation event is logged.
"""

import logging

import pytest

from repro.core import frame_pool
from repro.core.faults import FaultPlan, FaultSpec, injected_faults
from repro.core.pipeline import hardware_rig
from repro.hardware import GenNerfAccelerator, variant_config
from repro.models.workload import typical_workload
from repro.scenes.datasets import DatasetSpec

WORKER_COUNTS = (1, 2, 4)

SCALAR_FIELDS = ("total_time_s", "data_time_s", "fetch_time_s",
                 "compute_time_s", "coarse_time_s", "prefetch_bytes",
                 "pool_macs", "pe_utilization", "num_patches", "energy_j",
                 "scheduler_hidden")

SPEC = DatasetSpec("faulttest", width=192, height=144, fov_x_deg=50.0,
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


def _simulate(rig, workload, plan=None):
    accelerator = GenNerfAccelerator(variant_config("ours"))
    if plan is None:
        plan = accelerator.plan_frame(rig.novel, rig.sources, rig.near,
                                      rig.far, workload)
    return accelerator.simulate_frame(workload, rig.novel, rig.sources,
                                      rig.near, rig.far, plan=plan), plan


class TestFrameSimUnderInjectedFaults:
    @pytest.fixture(scope="class")
    def baseline(self, rig, workload):
        return _simulate(rig, workload)

    def _simulate_under(self, fault_plan, rig, workload, plan, workers,
                        monkeypatch, caplog):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        with caplog.at_level(logging.INFO, logger="repro"), \
                injected_faults(fault_plan):
            result, _ = _simulate(rig, workload, plan=plan)
        events = [record.repro_event for record in caplog.records
                  if getattr(record, "repro_event", "")
                  .startswith("frame_pool.")]
        assert events == []
        return result

    def _assert_identical(self, result, sequential):
        for field in SCALAR_FIELDS:
            assert getattr(result, field) == \
                getattr(sequential, field), field

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_crash_mid_frame(self, rig, workload, baseline,
                                    workers, monkeypatch, caplog):
        sequential, plan = baseline
        fault_plan = FaultPlan(tasks={0: FaultSpec("crash")},
                               scope="frame_pool")
        result = self._simulate_under(fault_plan, rig, workload, plan,
                                      workers, monkeypatch, caplog)
        self._assert_identical(result, sequential)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_hung_worker_times_out_mid_frame(self, rig, workload,
                                             baseline, workers,
                                             monkeypatch, caplog):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.5")
        sequential, plan = baseline
        fault_plan = FaultPlan(tasks={1: FaultSpec("hang", hang_s=5.0)},
                               scope="frame_pool")
        result = self._simulate_under(fault_plan, rig, workload, plan,
                                      workers, monkeypatch, caplog)
        self._assert_identical(result, sequential)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_corrupt_group_result_mid_frame(self, rig, workload,
                                            baseline, workers,
                                            monkeypatch, caplog):
        sequential, plan = baseline
        fault_plan = FaultPlan(tasks={0: FaultSpec("corrupt")},
                               scope="frame_pool")
        result = self._simulate_under(fault_plan, rig, workload, plan,
                                      workers, monkeypatch, caplog)
        self._assert_identical(result, sequential)

    def test_persistent_crash_degrades_but_stays_identical(
            self, rig, workload, baseline, monkeypatch, caplog):
        # A crash on every attempt would force the pooled loop to
        # degrade; the simulator has no pooled loop to degrade.
        sequential, plan = baseline
        fault_plan = FaultPlan(tasks={0: FaultSpec("crash",
                                                   attempts=tuple(
                                                       range(8)))},
                               scope="frame_pool")
        result = self._simulate_under(fault_plan, rig, workload, plan, 2,
                                      monkeypatch, caplog)
        self._assert_identical(result, sequential)
