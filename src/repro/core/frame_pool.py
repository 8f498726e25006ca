"""Persistent intra-frame worker pool with per-worker payload state.

:func:`repro.core.run_variants` parallelises *between* experiment
variants; this module parallelises *within* one frame.  The renderer's
chunk loops (:mod:`repro.models.renderer`) and the render service's
dispatches (:mod:`repro.core.serve`) decompose a frame into
independent work units whose boundaries are computed identically to
the sequential path, so fanning the units over a process pool and
stitching results in task order reproduces the sequential output
**byte for byte** — the same discipline that keeps ``run_variants``
artefacts stable.

Design points (the worker-pool chunked-fetch idiom, adapted to heavy
per-task state):

* **Per-worker payload, initialised once.**  ``map_chunks(fn, payload,
  tasks)`` ships ``payload`` (model + encoded feature maps) to each
  worker through the pool *initializer*, not with every task — chunks
  carry only their small descriptors (slice bounds, per-chunk
  uniforms).
* **Pool persistence.**  The executor survives across calls keyed by
  (worker count, payload identity): repeated renders of the same
  scene/model — an eval ladder, a bench loop, the ``serve`` daemon's
  dispatches — reuse the warm workers instead of re-spawning and
  re-shipping state.  A payload or width change retires the old pool.
* **Nested-pool guard.**  Every repro pool worker (here *and* in
  ``run_variants``) marks itself via the ``REPRO_POOL_WORKER`` env
  flag; :func:`resolve_workers` returns 1 inside any such worker, so a
  variant already fanned out by ``run_variants`` never oversubscribes
  the host with a second layer of processes.

Fault tolerance (see :mod:`repro.core.faults` and
``docs/robustness.md``): :func:`_run_pooled` is the one pooled-attempt
loop behind both this module's :func:`map_chunks` and
:func:`repro.core.run_variants`.  Every task gets a per-task timeout
(``REPRO_TASK_TIMEOUT``) and a bounded retry budget
(``REPRO_RETRIES``).  A crashed or hung worker re-executes *only its
task* — completed tasks keep their results — with pooled retries
first and a final in-process attempt as the backstop, so the output is
byte-identical to the sequential path no matter which workers died.
``BrokenProcessPool`` mid-run rebuilds the pool once before degrading
to fully sequential execution; a timed-out pool (which still holds a
hung worker) is retired without joining and respawned on the next
attempt.  Every retry, rebuild, and degradation emits a structured
event through :mod:`repro.core.log`, named after the calling layer
(``frame_pool.*`` or ``run_variants.*``); an exception raised *by a
task function* propagates unchanged in every mode — retries are for
infrastructure faults, not for deterministic task errors.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import logging
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import faults, log
from .runner import detect_workers, in_pool_worker, mark_pool_worker

_LOG = log.get_logger("frame_pool")

# Parent-side singleton: (executor, worker count, payload).  Holding the
# payload tuple keeps strong references to its elements, so the id-based
# identity check below can never alias a garbage-collected object.
_POOL: Optional[Tuple[concurrent.futures.ProcessPoolExecutor, int, tuple]] \
    = None

# Worker-side state, set once by the pool initializer.
_WORKER_PAYLOAD = None

_UNSET = object()


def _init_worker(payload: tuple) -> None:
    global _WORKER_PAYLOAD
    mark_pool_worker()
    _WORKER_PAYLOAD = payload


def _run_task(function: Callable, args: tuple,
              fault: Optional[faults.FaultSpec] = None,
              task_index: int = -1):
    if fault is not None:
        injected = faults.apply_worker_fault(fault, task_index)
        if injected is not None:
            return injected
    return function(_WORKER_PAYLOAD, *args)


def resolve_workers(num_tasks: int, workers: Optional[int] = None) -> int:
    """Shard width for an intra-frame fan-out.

    ``workers=None`` autodetects (``REPRO_WORKERS`` env, then CPU
    count) exactly like :func:`repro.core.detect_workers`; explicit
    values clamp to ``[1, num_tasks]``.  Inside a pool worker — a
    variant unit already running under ``run_variants``, or a frame
    chunk itself — the answer is always 1: only the outermost layer of
    parallelism may own the host's cores.
    """
    if in_pool_worker():
        return 1
    return detect_workers(num_tasks, workers)


def _payload_matches(held: tuple, payload: tuple) -> bool:
    return len(held) == len(payload) and \
        all(a is b for a, b in zip(held, payload))


def get_pool(payload: tuple, workers: int
             ) -> concurrent.futures.ProcessPoolExecutor:
    """The persistent executor for ``payload`` at ``workers`` width.

    Reused while every payload element is *the same object* as the
    previous call's (a model or accelerator re-rendering frames keeps
    its pool warm); any change shuts the old pool down and spawns a
    fresh one whose workers are initialised with the new payload.
    """
    global _POOL
    if _POOL is not None:
        executor, count, held = _POOL
        if count == workers and _payload_matches(held, payload):
            return executor
        shutdown_pool()
    executor = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(payload,))
    _POOL = (executor, workers, payload)
    return executor


def shutdown_pool() -> None:
    """Retire the persistent pool (idempotent; registered at exit)."""
    _retire_pool(wait=True)


def _retire_pool(wait: bool) -> None:
    """Drop the persistent pool.  ``wait=False`` retires a pool that may
    hold a *hung* worker without joining it (a normal shutdown would
    block on the wedged process; the abandoned worker exits on its own
    once its sleep/compute ends)."""
    global _POOL
    if _POOL is not None:
        executor, _, _ = _POOL
        _POOL = None
        executor.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pool)


def _is_corrupt(value, validate: Optional[Callable], index: int) -> bool:
    """A worker return that must be retried: the injected corrupt-result
    marker, or a caller-supplied validator rejecting it."""
    if isinstance(value, faults.CorruptResult):
        return True
    return validate is not None and not validate(value, index)


def _run_pooled(scope: str, function: Callable, payload, tasks: List[tuple],
                open_pool: Callable[[int], concurrent.futures.Executor],
                shared: bool, timeout=None, retries=None,
                validate: Optional[Callable] = None) -> List:
    """The one pooled-attempt loop: ``function(payload, *task)`` for
    every task on ``open_pool(pending_count)``'s executor, results in
    task order (see :func:`map_chunks` for the fault handling).

    ``scope`` names the calling layer: it prefixes every event, selects
    the :class:`repro.core.faults.FaultPlan` scope, and salts the
    backoff.  A ``shared`` pool is the persistent one :func:`get_pool`
    keeps warm across calls: faults retire it through the module
    singleton and it outlives the call.  Any other pool belongs to this
    call and is shut down once the pooled attempts end.
    """
    timeout = faults.detect_task_timeout(timeout)
    retries = faults.detect_retries(retries)
    plan = faults.active_plan()

    results: List = [_UNSET] * len(tasks)
    pending = list(range(len(tasks)))
    rebuilt = False
    degraded: Optional[str] = None
    executor: Optional[concurrent.futures.Executor] = None

    def retire(wait: bool = True) -> None:
        nonlocal executor
        if shared:
            _retire_pool(wait)
        elif executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
        executor = None

    try:
        # max(retries, 1) pooled rounds, plus one bonus round when the
        # pool broke and was rebuilt — the rebuild is an infrastructure
        # event, it must not consume a task's retry budget.
        attempt = 0
        while pending and degraded is None and \
                attempt < max(retries, 1) + (1 if rebuilt else 0):
            if attempt:
                time.sleep(faults.backoff_delay(attempt - 1, salt=scope))
            retry: List[int] = []
            broken: Optional[BaseException] = None
            timed_out = False
            try:
                if executor is None:
                    executor = open_pool(len(pending))
                submitted: Dict[int, concurrent.futures.Future] = {}
                for index in pending:
                    fault = plan.fault_for(index, attempt, scope=scope) \
                        if plan else None
                    submitted[index] = executor.submit(
                        _run_task, function, tasks[index], fault, index)
            except BrokenProcessPool as error:
                # A worker died during spawn/submission.
                broken, retry = error, pending
            except OSError as error:
                # Pool infrastructure unavailable: worker processes
                # spawn lazily inside ``submit``, so a sandbox that
                # blocks process creation surfaces here.  A task's own
                # OSError surfaces from future.result() below instead.
                retire()
                degraded = f"pool unavailable: {error}"
                break
            else:
                for index in pending:
                    future = submitted[index]
                    try:
                        value = future.result(timeout=timeout)
                    except concurrent.futures.TimeoutError:
                        if future.done():
                            raise    # the task itself raised TimeoutError
                        timed_out = True
                        log.event(_LOG, f"{scope}.task_timeout",
                                  task=index, attempt=attempt,
                                  timeout_s=timeout)
                        retry.append(index)
                        continue
                    except BrokenProcessPool as error:
                        broken = error
                        retry.append(index)
                        continue
                    if _is_corrupt(value, validate, index):
                        log.event(_LOG, f"{scope}.task_corrupt",
                                  task=index, attempt=attempt)
                        retry.append(index)
                        continue
                    results[index] = value
            pending = retry

            if broken is not None:
                retire()         # workers are dead; the join is instant
                log.event(_LOG, f"{scope}.pool_broken", error=str(broken),
                          attempt=attempt, pending=len(pending))
                if rebuilt:
                    degraded = "pool broke twice"
                else:
                    rebuilt = True
                    log.event(_LOG, f"{scope}.pool_rebuild",
                              level=logging.INFO, pending=len(pending))
            elif timed_out:
                # The pool still holds the hung worker: retire it without
                # joining; the next attempt (or the next call) respawns.
                retire(wait=False)
            attempt += 1
    finally:
        if not shared:
            retire()

    if degraded is not None:
        log.event(_LOG, f"{scope}.degraded_sequential", reason=degraded,
                  pending=len(pending))
    for index in pending:
        if degraded is None:
            log.event(_LOG, f"{scope}.task_inprocess", level=logging.INFO,
                      task=index)
        results[index] = function(payload, *tasks[index])
    return results


def map_chunks(function: Callable, payload: tuple,
               tasks: Sequence[tuple],
               workers: Optional[int] = None,
               timeout: Optional[float] = None,
               retries: Optional[int] = None,
               validate: Optional[Callable] = None) -> List:
    """Run ``function(payload, *task)`` for every task, results in
    task order.

    With a resolved width of 1 (or a single task) the calls run in this
    process against ``payload`` directly — the sequential path shares
    the exact code the workers execute, and is also the final-attempt
    backstop for every fault below.  Wider runs go through
    :func:`_run_pooled` on the persistent pool.

    Fault handling (per task; completed tasks never re-execute):

    * a worker **crash** (``BrokenProcessPool``) re-submits only the
      unfinished tasks to a pool rebuilt once; a second break degrades
      the remaining tasks to sequential in-process execution;
    * a **hung** task (no result within ``timeout`` seconds — argument,
      else ``REPRO_TASK_TIMEOUT``, else off) is retried on a fresh
      pool, the poisoned one retired without joining;
    * a **corrupt** result (``validate(value, index)`` false, or an
      injected :class:`repro.core.faults.CorruptResult`) is retried
      like a crash;
    * the retry budget (``retries`` argument, else ``REPRO_RETRIES``,
      default 1) bounds pooled attempts at ``max(retries, 1)``; the
      **final attempt** for any still-unfinished task always runs
      in-process — it cannot crash or hang, so an infrastructure fault
      never aborts the frame;
    * an exception raised *by the chunk function* propagates unchanged
      in either mode — never retried, never swallowed.

    Every fallback/retry emits a structured :mod:`repro.core.log`
    event; full-degradation events fire exactly once per degradation.
    """
    tasks = list(tasks)
    count = resolve_workers(len(tasks), workers)
    if count <= 1 or len(tasks) <= 1:
        return [function(payload, *args) for args in tasks]
    return _run_pooled("frame_pool", function, payload, tasks,
                       lambda pending: get_pool(payload, count),
                       shared=True, timeout=timeout, retries=retries,
                       validate=validate)
