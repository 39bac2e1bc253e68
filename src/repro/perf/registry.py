"""Counter/timer registry backing the instrumentation layer.

A :class:`PerfRegistry` is a plain bag of named counters, value
observations and accumulated timers. It has no opinions about *what*
gets counted — the hot paths (crypto kernels, the simulator loop, the
broadcast medium, the net harness) pick their own names, documented in
``docs/API.md``. Registries are cheap to create and are normally used
through :func:`repro.perf.collecting`, which installs one as the
process-wide active registry for the duration of a block.

Hot paths guard every update with ``if perf.ACTIVE is not None`` so a
disabled registry costs one global load per call site and nothing else
(see ``benchmarks/bench_perf_overhead.py`` for the guard bench) —
adding the internal lock below did not touch that invariant, because
the disabled path never reaches a registry method at all.

Updates and :meth:`~PerfRegistry.snapshot` are serialised by one
internal lock: a registry may be read from one thread while others
keep producing, and ``counter = counter + amount`` is not atomic
across threads without it. Single-threaded measurement pays one
uncontended lock acquisition per update — noise next to the hashing
it measures.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator

__all__ = ["Observation", "PerfRegistry"]


class Observation:
    """Running summary of an observed value stream (count/total/min/max)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def update(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Sample mean (0.0 before the first sample)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready summary."""
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Observation(count={self.count}, mean={self.mean:.4g})"


class PerfRegistry:
    """Named counters, observations and timers for one measurement run.

    All methods are cheap dictionary updates under one internal lock,
    so concurrent producer threads never lose increments and
    :meth:`snapshot` always sees a consistent cut
    (``tests/perf/test_registry.py`` pins it with hammering threads).
    """

    __slots__ = ("counters", "observations", "timers", "_lock")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.observations: Dict[str, Observation] = {}
        self.timers: Dict[str, float] = {}
        self._lock = threading.Lock()

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into observation stream ``name``."""
        with self._lock:
            stat = self.observations.get(name)
            if stat is None:
                stat = self.observations[name] = Observation()
            stat.update(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the block into timer ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self.timers[name] = self.timers.get(name, 0.0) + elapsed

    def hit_rate(self, hits: str, misses: str) -> float:
        """``hits / (hits + misses)`` over two counters (0.0 when idle)."""
        h = self.counters.get(hits, 0)
        total = h + self.counters.get(misses, 0)
        return h / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready copy of everything recorded so far.

        Taken under the registry lock, so a snapshot is a consistent
        cut even while producer threads keep recording: no counter ever
        appears half-updated and no observation summary mixes samples
        from before and after the cut.
        """
        with self._lock:
            return {
                "counters": dict(self.counters),
                "observations": {
                    name: stat.to_dict()
                    for name, stat in self.observations.items()
                },
                "timers": dict(self.timers),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PerfRegistry(counters={len(self.counters)},"
            f" observations={len(self.observations)}, timers={len(self.timers)})"
        )
