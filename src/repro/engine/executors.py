"""Pluggable executors: how an :class:`ExperimentSpec` actually runs.

Two implementations share one contract — results come back in task
order and per-task failures are isolated into
:class:`~repro.errors.TaskError` carrying the failing task's label:

- :class:`SerialExecutor` runs tasks in a deterministic in-process
  loop. It is the default everywhere: zero overhead, exact ordering,
  trivially debuggable.
- :class:`ParallelExecutor` fans tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with ``jobs``
  workers. Because every worker function is a pure function of its
  picklable task payload (seeded RNGs, frozen configs), the results
  are **bit-identical** to serial execution — the equivalence suite in
  ``tests/engine`` pins that guarantee.

The process pool is **warm**: it is created lazily on the first
parallel :meth:`~ParallelExecutor.run` and reused across subsequent
calls, so a sweep driver paying the spawn + import cost once can fan
out many specs without re-forking workers each time. Workers
pre-import :mod:`repro` in their initializer so the first task does
not eat the import latency either. Use the executor as a context
manager (or call :meth:`~ParallelExecutor.close`) to release the pool.

A worker that dies mid-task (OOM, signal) breaks the whole pool. The
executor then rebuilds the pool and resubmits only the tasks whose
results it has not yet returned or yielded; seeded payloads make the
re-run exact. A second break in the same spec raises
:class:`~repro.errors.TaskError`.

Workers and payloads must be picklable for the parallel path; that is
the only seam the engine imposes on the layers above it.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, TaskError
from repro.engine.spec import ExperimentSpec

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "executor_for"]

#: Times :class:`ParallelExecutor` rebuilds a broken pool and resubmits
#: the unfinished tasks of one spec before giving up.
POOL_RETRIES = 1


def _warm_worker() -> None:
    """Pool initializer: pre-import the package so the first task a
    worker receives pays no import latency."""
    import repro  # noqa: F401


class Executor:
    """The executor contract: ordered results, isolated failures."""

    #: Number of OS processes the executor occupies (1 for serial).
    jobs: int = 1

    def run(self, spec: ExperimentSpec) -> List[Any]:
        """Run every task of ``spec``; results in task order."""
        raise NotImplementedError

    def stream(self, spec: ExperimentSpec) -> Iterator[Tuple[int, Any]]:
        """Yield ``(task_index, result)`` pairs as tasks complete.

        The streaming counterpart of :meth:`run` for reductions that
        fold results one at a time instead of holding the whole result
        list — the fleet engine merges per-shard summaries this way so
        peak memory tracks one shard, not the fleet. Serial executors
        yield in task order; parallel executors yield in completion
        order (the index tells the consumer which task finished).
        Failures raise the same labelled :class:`TaskError` as
        :meth:`run`.
        """
        raise NotImplementedError

    @staticmethod
    def _task_error(spec: ExperimentSpec, index: int, exc: BaseException) -> TaskError:
        label = spec.label_for(index)
        return TaskError(
            f"{spec.label}: {label} failed: {exc}", label=label, index=index
        )


class SerialExecutor(Executor):
    """Deterministic in-process execution, task order preserved."""

    def run(self, spec: ExperimentSpec) -> List[Any]:
        results: List[Any] = []
        for index, task in enumerate(spec.tasks):
            try:
                results.append(spec.fn(task))
            # Executor fault boundary: any task failure is converted to
            # a labelled TaskError and re-raised, never swallowed —
            # exactly the shape RPL006 requires of a broad except.
            except Exception as exc:
                raise self._task_error(spec, index, exc) from exc
        return results

    def stream(self, spec: ExperimentSpec) -> Iterator[Tuple[int, Any]]:
        for index, task in enumerate(spec.tasks):
            try:
                result = spec.fn(task)
            # Executor fault boundary (RPL006-conformant): wrap and
            # re-raise with the failing task's label.
            except Exception as exc:
                raise self._task_error(spec, index, exc) from exc
            yield index, result

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Warm process-pool execution across ``jobs`` cores.

    The pool is created lazily on the first parallel :meth:`run` and
    **reused across calls**: a driver running many specs pays worker
    spawn + ``import repro`` once, not per sweep. Each worker
    pre-imports the package in its initializer. A task failure raises
    :class:`~repro.errors.TaskError` but leaves the pool warm. A broken
    pool (a worker died mid-task) is torn down and rebuilt, and the
    spec's unfinished tasks run again on the fresh pool, once
    (:data:`POOL_RETRIES`); a second break raises
    :class:`~repro.errors.TaskError`.

    Args:
        jobs: worker processes (>= 1). ``jobs=1`` still goes through a
            pool — useful for exercising the pickling seam — while
            :func:`executor_for` maps 1 to :class:`SerialExecutor`.
        chunksize: tasks handed to a worker per dispatch; raise it for
            very cheap tasks to amortise IPC.
        maxtasksperchild: recycle each worker after this many tasks
            (guards against slow memory growth in week-long sweeps).
            Requires Python >= 3.11; workers are then spawned rather
            than forked, per the stdlib's constraint.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunksize: int = 1,
        maxtasksperchild: Optional[int] = None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunksize < 1:
            raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
        if maxtasksperchild is not None:
            if maxtasksperchild < 1:
                raise ConfigurationError(
                    f"maxtasksperchild must be >= 1, got {maxtasksperchild}"
                )
            if sys.version_info < (3, 11):
                raise ConfigurationError(
                    "maxtasksperchild requires Python >= 3.11"
                )
        self.jobs = jobs
        self._chunksize = chunksize
        self._maxtasksperchild = maxtasksperchild
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            kwargs: Dict[str, Any] = {
                "max_workers": self.jobs,
                "initializer": _warm_worker,
            }
            if self._maxtasksperchild is not None:
                # The stdlib only supports worker recycling with spawn
                # or forkserver start methods.
                kwargs["max_tasks_per_child"] = self._maxtasksperchild
                kwargs["mp_context"] = multiprocessing.get_context("spawn")
            self._pool = concurrent.futures.ProcessPoolExecutor(**kwargs)
        return self._pool

    def run(self, spec: ExperimentSpec) -> List[Any]:
        # No pool for a single task: the pickle round trip would only
        # add latency without any overlap to exploit.
        if len(spec) == 1 or self.jobs == 1:
            return SerialExecutor().run(spec)
        results: List[Any] = [None] * len(spec)
        for index, result in self._results(spec, ordered=True):
            results[index] = result
        return results

    def stream(self, spec: ExperimentSpec) -> Iterator[Tuple[int, Any]]:
        # Same single-task shortcut as run(): no pickle round trip when
        # there is nothing to overlap.
        if len(spec) == 1 or self.jobs == 1:
            yield from SerialExecutor().stream(spec)
            return
        yield from self._results(spec, ordered=False)

    def _results(
        self, spec: ExperimentSpec, *, ordered: bool
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` in task or completion order.

        A worker death (OOM, signal) breaks the whole pool. The broken
        pool is discarded and the tasks not yet yielded are resubmitted
        to a fresh one, up to :data:`POOL_RETRIES` times; results are
        pure functions of their payloads, so a re-run is exact. One
        break too many raises a :class:`TaskError` labelled with the
        first unfinished task.
        """
        unfinished = set(range(len(spec)))
        for attempt in range(POOL_RETRIES + 1):
            futures: Dict[concurrent.futures.Future[Any], int] = {}
            try:
                pool = self._ensure_pool()
                for index in sorted(unfinished):
                    futures[pool.submit(spec.fn, spec.tasks[index])] = index
                done = (
                    iter(futures)
                    if ordered
                    else concurrent.futures.as_completed(futures)
                )
                for future in done:
                    index = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        raise
                    # Executor fault boundary (RPL006-conformant): wrap
                    # the failure into a labelled TaskError; the finally
                    # clause below cancels whatever has not started yet.
                    except Exception as exc:
                        raise self._task_error(spec, index, exc) from exc
                    unfinished.discard(index)
                    yield index, result
                return
            except BrokenProcessPool as exc:
                self.close()
                if attempt == POOL_RETRIES:
                    raise self._task_error(spec, min(unfinished), exc) from exc
            finally:
                for pending in futures:
                    pending.cancel()

    def close(self) -> None:
        """Shut the warm pool down; the next :meth:`run` recreates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def executor_for(jobs: Optional[int]) -> Executor:
    """The executor a ``--jobs`` style setting asks for.

    ``None``, 0 and 1 mean serial; anything larger is a process pool
    of that many workers.
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
