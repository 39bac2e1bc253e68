"""PerfRegistry, Observation and the module-level ACTIVE slot."""

from __future__ import annotations

import pytest

from repro import perf
from repro.perf.registry import Observation, PerfRegistry


class TestObservation:
    def test_empty_summary(self):
        obs = Observation()
        assert obs.mean == 0.0
        assert obs.to_dict() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0
        }

    def test_folds_samples(self):
        obs = Observation()
        for value in (3.0, 1.0, 2.0):
            obs.update(value)
        assert obs.count == 3
        assert obs.mean == pytest.approx(2.0)
        assert obs.minimum == 1.0 and obs.maximum == 3.0


class TestPerfRegistry:
    def test_counters(self):
        registry = PerfRegistry()
        registry.incr("a")
        registry.incr("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_observations_and_snapshot(self):
        registry = PerfRegistry()
        registry.observe("walk", 3.0)
        registry.observe("walk", 5.0)
        snapshot = registry.snapshot()
        assert snapshot["observations"]["walk"]["count"] == 2
        assert snapshot["observations"]["walk"]["mean"] == pytest.approx(4.0)
        assert snapshot["counters"] == {}

    def test_timer_accumulates(self):
        registry = PerfRegistry()
        with registry.timer("block"):
            pass
        with registry.timer("block"):
            pass
        assert registry.timers["block"] >= 0.0

    def test_hit_rate(self):
        registry = PerfRegistry()
        assert registry.hit_rate("h", "m") == 0.0
        registry.incr("h", 3)
        registry.incr("m", 1)
        assert registry.hit_rate("h", "m") == pytest.approx(0.75)


class TestActiveSlot:
    def test_disabled_by_default(self):
        assert perf.ACTIVE is None
        assert not perf.enabled()
        perf.incr("ignored")  # must be a silent no-op
        perf.observe("ignored", 1.0)

    def test_collecting_installs_and_restores(self):
        assert perf.ACTIVE is None
        with perf.collecting() as registry:
            assert perf.ACTIVE is registry
            perf.incr("inside")
        assert perf.ACTIVE is None
        assert registry.counter("inside") == 1

    def test_collecting_nests(self):
        with perf.collecting() as outer:
            with perf.collecting() as inner:
                perf.incr("x")
            assert perf.ACTIVE is outer
        assert inner.counter("x") == 1
        assert outer.counter("x") == 0

    def test_enable_disable(self):
        registry = perf.enable()
        try:
            assert perf.ACTIVE is registry
        finally:
            assert perf.disable() is registry
        assert perf.ACTIVE is None


class TestConcurrency:
    """Producer threads sharing one registry never lose an update."""

    def test_concurrent_incr_is_lossless(self):
        import threading

        registry = PerfRegistry()
        producers, per_producer = 4, 2000

        def pump():
            for _ in range(per_producer):
                registry.incr("events")

        threads = [threading.Thread(target=pump) for _ in range(producers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("events") == producers * per_producer


class TestZeroOverheadWhenDisabled:
    def test_module_helpers_never_touch_a_registry(self):
        """The zero-overhead invariant: with no ACTIVE registry the
        module-level helpers return before any registry call — pinned
        by making every registry method explode."""

        class Tripwire(PerfRegistry):
            def incr(self, name, amount=1):  # pragma: no cover
                raise AssertionError("registry touched while disabled")

            def observe(self, name, value):  # pragma: no cover
                raise AssertionError("registry touched while disabled")

        assert perf.ACTIVE is None
        perf.incr("ignored")
        perf.observe("ignored", 1.0)
        # And the same calls do reach an enabled registry:
        registry = Tripwire()
        perf.enable(registry)
        try:
            with pytest.raises(AssertionError):
                perf.incr("now-it-counts")
        finally:
            perf.disable()
