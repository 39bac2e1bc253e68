"""Executor contract: ordered results, isolated labelled failures, and
the warm process-pool lifecycle."""

from __future__ import annotations

import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Tuple

import pytest

from repro.engine import (
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    executor_for,
)
from repro.errors import ConfigurationError, TaskError


# Module-level workers so the process pool can pickle them.
def square(task: int) -> int:
    return task * task


def fail_on_three(task: int) -> int:
    if task == 3:
        raise ValueError(f"task {task} exploded")
    return task


def worker_pid(task: int) -> int:
    return os.getpid()


def die_once(task: Tuple[str, int]) -> int:
    """Kill the worker on the first attempt at a task carrying a marker
    path; the marker file records that the attempt happened."""
    marker, value = task
    if marker and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value * value


def kill_on_zero(task: int) -> int:
    if task == 0:
        os._exit(1)
    return task


class TestSpec:
    def test_empty_tasks_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(fn=square, tasks=())

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(fn=square, tasks=(1, 2), task_labels=("only-one",))

    def test_default_task_labels(self):
        spec = ExperimentSpec(fn=square, tasks=(1, 2))
        assert spec.label_for(0) == "task[0]"
        assert spec.label_for(1) == "task[1]"

    def test_over_accepts_any_sequence(self):
        spec = ExperimentSpec.over(square, [1, 2, 3], task_labels=["a", "b", "c"])
        assert len(spec) == 3
        assert spec.label_for(2) == "c"

    def test_cache_keys_distinct_per_task(self):
        spec = ExperimentSpec(fn=square, tasks=(1, 2))
        assert spec.cache_key_for(0) != spec.cache_key_for(1)

    def test_cache_keys_distinct_per_worker(self):
        a = ExperimentSpec(fn=square, tasks=(1,))
        b = ExperimentSpec(fn=fail_on_three, tasks=(1,))
        assert a.cache_key_for(0) != b.cache_key_for(0)


class TestSerial:
    def test_results_in_task_order(self):
        spec = ExperimentSpec(fn=square, tasks=(3, 1, 2))
        assert SerialExecutor().run(spec) == [9, 1, 4]

    def test_failure_carries_task_label_and_index(self):
        spec = ExperimentSpec(
            fn=fail_on_three,
            tasks=(1, 2, 3, 4),
            label="sweep",
            task_labels=("s1", "s2", "s3", "s4"),
        )
        with pytest.raises(TaskError) as excinfo:
            SerialExecutor().run(spec)
        assert excinfo.value.label == "s3"
        assert excinfo.value.index == 2
        assert "sweep" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestParallel:
    def test_matches_serial(self):
        spec = ExperimentSpec(fn=square, tasks=tuple(range(8)))
        with ParallelExecutor(jobs=2) as executor:
            assert executor.run(spec) == SerialExecutor().run(spec)

    def test_single_task_shortcut(self):
        spec = ExperimentSpec(fn=square, tasks=(5,))
        executor = ParallelExecutor(jobs=4)
        assert executor.run(spec) == [25]
        # The shortcut never warms the pool.
        assert executor._pool is None

    def test_failure_carries_task_label(self):
        spec = ExperimentSpec(
            fn=fail_on_three, tasks=(1, 3), task_labels=("ok", "boom")
        )
        with ParallelExecutor(jobs=2) as executor, pytest.raises(
            TaskError
        ) as excinfo:
            executor.run(spec)
        assert excinfo.value.label == "boom"

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=2, chunksize=0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=2, maxtasksperchild=0)

    def test_default_jobs_is_cpu_count(self):
        assert ParallelExecutor().jobs >= 1


class TestWarmPool:
    def test_pool_survives_consecutive_runs(self):
        """Two runs share one pool: the worker PIDs overlap and the
        pool object is not rebuilt between calls."""
        spec = ExperimentSpec(fn=worker_pid, tasks=tuple(range(6)))
        with ParallelExecutor(jobs=2) as executor:
            first = set(executor.run(spec))
            pool = executor._pool
            assert pool is not None
            second = set(executor.run(spec))
            assert executor._pool is pool
        assert first & second

    def test_task_error_from_reused_worker(self):
        """A task failure is labelled correctly even on a warm pool, and
        leaves the pool usable for the next run."""
        good = ExperimentSpec(fn=square, tasks=(2, 3))
        bad = ExperimentSpec(
            fn=fail_on_three, tasks=(1, 3), task_labels=("ok", "boom")
        )
        with ParallelExecutor(jobs=2) as executor:
            assert executor.run(good) == [4, 9]
            with pytest.raises(TaskError) as excinfo:
                executor.run(bad)
            assert excinfo.value.label == "boom"
            assert isinstance(excinfo.value.__cause__, ValueError)
            assert executor.run(good) == [4, 9]

    def test_context_manager_shuts_pool_down(self):
        spec = ExperimentSpec(fn=square, tasks=tuple(range(4)))
        with ParallelExecutor(jobs=2) as executor:
            executor.run(spec)
            assert executor._pool is not None
        assert executor._pool is None

    def test_close_is_idempotent_and_allows_reuse(self):
        spec = ExperimentSpec(fn=square, tasks=tuple(range(4)))
        executor = ParallelExecutor(jobs=2)
        executor.close()  # closing a never-warmed pool is a no-op
        assert executor.run(spec) == [0, 1, 4, 9]
        executor.close()
        executor.close()
        # A closed executor warms a fresh pool on the next run.
        assert executor.run(spec) == [0, 1, 4, 9]
        executor.close()

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="stdlib max_tasks_per_child"
    )
    def test_maxtasksperchild_recycles_workers(self):
        spec = ExperimentSpec(fn=worker_pid, tasks=tuple(range(4)))
        with ParallelExecutor(jobs=2, maxtasksperchild=1) as executor:
            pids = executor.run(spec)
        # One task per child: 4 tasks must come from 4 distinct workers.
        assert len(set(pids)) == 4


class TestBrokenPool:
    """A worker death rebuilds the pool once and re-runs only the tasks
    whose results were not yet returned or yielded."""

    @staticmethod
    def _die_once_spec(tmp_path) -> ExperimentSpec:
        marker = str(tmp_path / "attempted")
        return ExperimentSpec(
            fn=die_once,
            tasks=tuple((marker if value == 3 else "", value) for value in range(6)),
        )

    def test_run_retries_after_a_worker_dies(self, tmp_path):
        spec = self._die_once_spec(tmp_path)
        with ParallelExecutor(jobs=2) as executor:
            results = executor.run(spec)
        assert (tmp_path / "attempted").exists()
        # The marker now exists, so the serial run cannot kill pytest.
        assert results == SerialExecutor().run(spec)

    def test_stream_retries_after_a_worker_dies(self, tmp_path):
        spec = self._die_once_spec(tmp_path)
        with ParallelExecutor(jobs=2) as executor:
            pairs = list(executor.stream(spec))
        assert (tmp_path / "attempted").exists()
        assert sorted(index for index, _ in pairs) == list(range(6))
        assert [result for _, result in sorted(pairs)] == SerialExecutor().run(
            spec
        )

    @pytest.mark.parametrize("mode", ["run", "stream"])
    def test_second_break_raises_labelled_task_error(self, mode):
        spec = ExperimentSpec(
            fn=kill_on_zero,
            tasks=(0, 1, 2, 3),
            task_labels=("killer", "a", "b", "c"),
        )
        good = ExperimentSpec(fn=square, tasks=(2, 3))
        with ParallelExecutor(jobs=2) as executor:
            with pytest.raises(TaskError) as excinfo:
                if mode == "run":
                    executor.run(spec)
                else:
                    list(executor.stream(spec))
            assert excinfo.value.label == "killer"
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            assert executor.run(good) == [4, 9]


class TestExecutorFor:
    def test_serial_for_none_zero_one(self):
        for jobs in (None, 0, 1, -3):
            assert isinstance(executor_for(jobs), SerialExecutor)

    def test_parallel_above_one(self):
        executor = executor_for(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.jobs == 4
