"""Runtime sanitizer suite.

Covers the two sanitizers end to end — determinism draw tracing with
call-site attribution and resource lifetimes — plus the contract both
share with ``repro.perf``: disabled means *structurally* absent
(identity rng, no-op lifecycle hooks), not merely cheap.
"""

from __future__ import annotations

import random
import time

from repro.devtools.sanitizers import determinism, resources


def _draw_chain(rng, n=8):
    values = []
    for _ in range(n):
        values.append(rng.random())
    return values


class TestDeterminism:
    def test_disabled_traced_rng_is_identity(self):
        rng = random.Random(7)
        assert determinism.traced_rng(rng, "s") is rng

    def test_traced_draws_are_bit_identical(self):
        bare = random.Random(7)
        with determinism.tracing():
            traced = determinism.traced_rng(random.Random(7), "s")
            assert isinstance(traced, random.Random)
            for _ in range(16):
                assert traced.random() == bare.random()
            assert traced.getrandbits(64) == bare.getrandbits(64)
            assert traced.randrange(10**6) == bare.randrange(10**6)
            items = list(range(32))
            assert traced.choice(items) == bare.choice(items)
            a, b = items[:], items[:]
            traced.shuffle(a)
            bare.shuffle(b)
            assert a == b

    def test_identical_runs_diff_empty(self):
        def run(sanitizer):
            with determinism.tracing(sanitizer):
                _draw_chain(determinism.traced_rng(random.Random(11), "s"))

        first = determinism.DeterminismSanitizer()
        second = determinism.DeterminismSanitizer()
        run(first)
        run(second)
        assert first.trace.total_draws() == 8
        assert first.trace.diff(second.trace) == ()

    def test_corruption_localized_to_exact_call_site(self):
        """Mutating one draw yields exactly one divergence, attributed
        to the frame that asked for the draw."""

        def run(sanitizer):
            with determinism.tracing(sanitizer):
                return _draw_chain(
                    determinism.traced_rng(random.Random(11), "stream")
                )

        reference = determinism.DeterminismSanitizer()
        clean_values = run(reference)
        corrupt = determinism.DeterminismSanitizer(corrupt_draw=5)
        corrupt_values = run(corrupt)
        # The corrupted value genuinely reached the caller.
        assert corrupt_values[5] != clean_values[5]
        assert corrupt_values[:5] == clean_values[:5]

        divergences = reference.trace.diff(corrupt.trace)
        assert len(divergences) == 1
        divergence = divergences[0]
        assert divergence.stream == "stream"
        assert divergence.index == 5
        assert divergence.right.site.endswith(":_draw_chain")
        assert "test_sanitizers.py" in divergence.right.site
        assert corrupt.corrupted_site == divergence.right.site

    def test_scenario_run_is_draw_stable_and_divergence_surfaces(self):
        from repro.sim.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            protocol="dap", receivers=2, intervals=6, seed=13
        )
        with determinism.tracing() as first:
            run_scenario(config)
        with determinism.tracing() as second:
            run_scenario(config)
        assert first.trace.total_draws() > 0
        assert first.trace.diff(second.trace) == ()

        corrupt = determinism.DeterminismSanitizer(corrupt_draw=4)
        with determinism.tracing(corrupt):
            run_scenario(config)
        divergences = first.trace.diff(corrupt.trace)
        assert divergences, "injected corruption must surface in the diff"
        site = (divergences[0].right or divergences[0].left).site
        assert "repro" in site.replace("\\", "/")
        assert corrupt.corrupted_site is not None

    def test_trace_json_roundtrip_fields(self):
        with determinism.tracing() as sanitizer:
            _draw_chain(determinism.traced_rng(random.Random(3), "s"), n=2)
        document = sanitizer.trace.to_json()
        assert document["total_draws"] == 2
        (first, second) = document["streams"]["s"]
        assert first["method"] == "random"
        assert ":" in first["site"]


class TestResources:
    def test_disabled_hooks_are_noops(self):
        resources.track_resource("shm", "t", "label")
        resources.release_resource("shm", "t")
        assert not resources.enabled()

    def test_leak_reported_with_creation_site(self):
        with resources.tracking() as sanitizer:
            resources.track_resource("socket", "a", "listener :9000")
            resources.track_resource("shm", "b", "mask segment")
            resources.release_resource("socket", "a")
        leaks = sanitizer.leaks()
        assert [leak.kind for leak in leaks] == ["shm"]
        assert leaks[0].label == "mask segment"
        assert "test_sanitizers.py" in leaks[0].site
        assert sanitizer.tracked == 2 and sanitizer.released == 1


class TestDisabledOverhead:
    """Disabled sanitizers must cost nothing measurable.

    The structural asserts are the real contract (the disabled path
    returns the *same* objects plain code uses); the timing bound is a
    deliberately loose tripwire against someone re-introducing work on
    the guarded path.
    """

    def test_disabled_path_is_structurally_absent(self):
        rng = random.Random(1)
        assert determinism.traced_rng(rng, "s") is rng

    def test_disabled_lifecycle_hooks_are_cheap(self):
        n = 50_000
        started = time.perf_counter()
        for _ in range(n):
            resources.track_resource("shm", "t", "x")
            resources.release_resource("shm", "t")
        per_call = (time.perf_counter() - started) / (2 * n)
        # One module-attribute load and an is-None branch; 5 µs is two
        # orders of magnitude above the expected cost, so a real
        # regression (locking, dict churn) trips it while CI noise
        # cannot.
        assert per_call < 5e-6, f"disabled hook costs {per_call * 1e9:.0f}ns"

    def test_disabled_traced_rng_adds_no_draw_overhead(self):
        bare = random.Random(5)
        wrapped = determinism.traced_rng(random.Random(5), "s")
        n = 20_000
        started = time.perf_counter()
        for _ in range(n):
            bare.random()
        bare_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(n):
            wrapped.random()
        wrapped_elapsed = time.perf_counter() - started
        # Identity wrapper: same object, so same cost modulo noise.
        assert wrapped_elapsed < bare_elapsed * 3 + 1e-3
