"""K-2 — the zero-cost-when-disabled guarantee, kept honest.

The instrumentation layer's contract is that a disabled registry costs
one module-attribute load per call site. These benches run the
instrumented hot paths with ``perf.ACTIVE is None`` and compare against
a hand-rolled uninstrumented baseline; if someone accidentally makes a
hot site unconditionally allocate, format strings, or take locks, the
margin here catches it.
"""

from __future__ import annotations

import hashlib
import time

from repro import perf
from repro.crypto import kernels
from repro.crypto.onewayfn import OneWayFunction
from repro.perf.names import CRYPTO_HASH
from repro.sim.scenario import ScenarioConfig, run_scenario

#: Disabled-instrumentation path may cost at most this much more than
#: the uninstrumented baseline. The margin is deliberately loose — the
#: kernel path is usually *faster* than the baseline, so a failure
#: means real per-call overhead appeared, not timer jitter.
OVERHEAD_MARGIN = 1.5

_SCENARIO = ScenarioConfig(
    protocol="dap", intervals=10, receivers=3, buffers=4,
    attack_fraction=0.5, loss_probability=0.1, seed=7,
)


def _best_seconds(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_disabled_instrumentation_adds_no_measurable_overhead():
    """Guarded one-way calls vs the same kernel path with the guard
    elided — isolating exactly the cost of the ``perf.ACTIVE`` check
    rather than comparing against a structurally different loop."""
    assert perf.ACTIVE is None
    function = OneWayFunction("F")
    value = b"\x5a" * function.output_bytes
    rounds = 3000

    # The baseline is __call__'s exact body minus the two guard lines,
    # paid as a real function call per iteration so both loops carry
    # the same interpreter call overhead.
    def call_without_guard(v, _fn=function):
        if not isinstance(v, (bytes, bytearray)):
            raise TypeError
        h = kernels.sha256_midstate(_fn._prefix).copy()
        h.update(v)
        return _fn._truncate(h.digest())

    def instrumented():
        v = value
        for _ in range(rounds):
            v = function(v)

    def unguarded():
        v = value
        for _ in range(rounds):
            v = call_without_guard(v)

    guarded = _best_seconds(instrumented)
    bare = _best_seconds(unguarded)
    assert guarded <= bare * OVERHEAD_MARGIN, (guarded, bare)


def test_kernel_path_beats_raw_prefix_rehash():
    """Even with the guard in place, the midstate path should not lose
    to the naive re-hash of ``prefix || value`` it replaced."""
    function = OneWayFunction("F")
    value = b"\x5a" * function.output_bytes
    prefix = b"repro.owf|F|"
    rounds = 3000

    def instrumented():
        v = value
        for _ in range(rounds):
            v = function(v)

    def raw():
        v = value
        for _ in range(rounds):
            # reprolint: disable=RPL001 -- deliberately-naive baseline the kernel path is measured against
            v = hashlib.sha256(prefix + v).digest()[:10]

    guarded = _best_seconds(instrumented)
    naive = _best_seconds(raw)
    # The function does strictly more per call (truncation mask checks,
    # type validation) yet saves the prefix absorption; allow 2x so the
    # bench tracks gross regressions, not interpreter micro-variance.
    assert guarded <= naive * 2.0, (guarded, naive)


def test_disabled_instrumentation_scenario_overhead(benchmark):
    """Whole-scenario check: the instrumented simulator/medium/crypto
    call sites cost nothing measurable while perf.ACTIVE is None.
    Collection itself is allowed to cost more — it is opt-in."""
    assert perf.ACTIVE is None
    disabled = _best_seconds(lambda: run_scenario(_SCENARIO), repeat=3)
    with perf.collecting():
        enabled = _best_seconds(lambda: run_scenario(_SCENARIO), repeat=3)
    assert perf.ACTIVE is None
    # Sanity: collection shouldn't blow the run up either (it's dict
    # increments), but the hard bound is only on the disabled path.
    assert enabled < disabled * 3, (enabled, disabled)
    benchmark(run_scenario, _SCENARIO)


def test_collecting_counters_match_work_done():
    function = OneWayFunction("F")
    value = b"\x01" * function.output_bytes
    with perf.collecting() as registry:
        function.iterate(value, 123)
    assert registry.counter(CRYPTO_HASH) == 123
