"""Multi-process variant runner shared by every experiment.

The table2/table3 harnesses train several *independent* model variants
(identical schedules, per-variant RNG seeds, deterministic scene
generation), which makes them embarrassingly parallel on multi-core
hosts.  :func:`run_variants` fans the variant units out over a
``concurrent.futures`` process pool; results always come back in task
order and each unit is a pure function of its arguments, so the rows —
and therefore the committed figure/table artefacts — are byte-identical
whether the units run in one process or many.

Fault tolerance (see :mod:`repro.core.faults` and
``docs/robustness.md``): the pooled attempts run through the same loop
as :func:`repro.core.frame_pool.map_chunks`
(``repro.core.frame_pool._run_pooled``), on a pool that lives for one
call.  Every unit gets a per-task timeout (``REPRO_TASK_TIMEOUT``) and
a bounded retry budget (``REPRO_RETRIES``); a crashed worker
(``BrokenProcessPool``) re-executes only the unfinished units on a pool
rebuilt once before the run degrades to sequential, a hung unit is
retried on a fresh pool, and the final attempt for any unit always
runs in-process.  All fallbacks/retries emit structured
:mod:`repro.core.log` events named ``run_variants.*``.  An exception
raised *by a unit* propagates unchanged in every mode — retries are
for infrastructure faults only.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import faults

POOL_WORKER_ENV = "REPRO_POOL_WORKER"


def in_pool_worker() -> bool:
    """True inside any repro-spawned pool worker — a ``run_variants``
    variant unit or a :mod:`repro.core.frame_pool` frame chunk."""
    return os.environ.get(POOL_WORKER_ENV, "") == "1"


def mark_pool_worker() -> None:
    """Pool initializer: flag this process as a worker so nested
    fan-outs (intra-frame sharding inside a variant unit) stay
    sequential instead of oversubscribing the host."""
    os.environ[POOL_WORKER_ENV] = "1"


def detect_workers(num_tasks: int, workers: Optional[int] = None) -> int:
    """Resolve the worker count for :func:`run_variants`.

    Priority: explicit ``workers`` argument, then the ``REPRO_WORKERS``
    environment variable, then ``os.cpu_count()``; always clamped to
    ``[1, num_tasks]``.  On a single-core host this returns 1 and the
    runner stays in-process.  Malformed values fall back cleanly
    instead of raising (:func:`repro.core.faults.resolve_knob`):
    empty/whitespace values are skipped, a non-numeric argument or env
    value degrades to the next source with a warning, and any
    non-positive numeric value — argument or env — clamps to 1, forcing
    the sequential path (never a silent upgrade to full parallelism).
    """
    workers = faults.resolve_knob(workers, "workers", "REPRO_WORKERS", int,
                                  None)
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, max(int(num_tasks), 1)))


def _call_unit(_payload, function: Callable, kwargs: Dict):
    """A variant unit as a pooled task (``run_variants`` ships no
    payload)."""
    return function(**kwargs)


def run_variants(tasks: Sequence[Tuple[Callable, Dict]],
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None) -> List:
    """Run ``(function, kwargs)`` units, results in task order.

    With more than one worker the units execute on a
    ``ProcessPoolExecutor`` (functions must be module-level so they
    pickle); with one worker — or if the pool cannot start, e.g. in a
    sandbox without process spawning — they run sequentially in this
    process.  A sequential resolution (``workers=1``, a single task, or
    a 1-CPU host) never constructs a ``ProcessPoolExecutor`` at all, so
    a sequential harness run pays zero spawn cost (pinned by
    ``tests/core/test_experiments.py``).  Pool workers are marked via
    :func:`mark_pool_worker`, which is what keeps a unit's *intra-frame*
    sharding (:mod:`repro.core.frame_pool`) from nesting a second pool
    under this one.

    Fault handling is :func:`repro.core.frame_pool.map_chunks`'s:
    per-unit ``timeout`` (else ``REPRO_TASK_TIMEOUT``, else off) and
    bounded ``retries`` (else ``REPRO_RETRIES``, default 1); crashed
    workers re-execute only their units on a pool rebuilt once before
    degrading to sequential; timed-out pools are abandoned without
    joining; the final attempt runs in-process.  Exceptions raised *by
    a unit* — including OSError subclasses — propagate unchanged and
    are never retried; only pool-infrastructure failures trigger
    retries or the sequential fallback.
    """
    tasks = list(tasks)
    count = detect_workers(len(tasks), workers)
    if count <= 1 or len(tasks) <= 1:
        return [function(**kwargs) for function, kwargs in tasks]
    # Imported here: frame_pool imports this module's worker helpers.
    from .frame_pool import _run_pooled

    return _run_pooled(
        "run_variants", _call_unit, None, tasks,
        lambda pending: concurrent.futures.ProcessPoolExecutor(
            max_workers=min(count, pending), initializer=mark_pool_worker),
        shared=False, timeout=timeout, retries=retries)
