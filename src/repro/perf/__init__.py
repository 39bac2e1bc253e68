"""Zero-cost-when-disabled performance instrumentation.

The package exposes one process-wide *active registry* slot,
:data:`ACTIVE`. Instrumented hot paths — the crypto kernels, the
discrete-event loop, the broadcast medium, the net harness — guard
every update with::

    from repro import perf
    from repro.perf.names import CRYPTO_HASH
    ...
    if perf.ACTIVE is not None:
        perf.ACTIVE.incr(CRYPTO_HASH)

so disabled instrumentation costs a single module-attribute load per
call site (the guard bench in ``benchmarks/bench_perf_overhead.py``
keeps that claim honest). Enable collection around any block with::

    with perf.collecting() as registry:
        run_scenario(config)
    print(registry.snapshot())

Counter and observation names are the constants in
:mod:`repro.perf.names` (tabulated in docs/API.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.perf import names
from repro.perf.registry import Observation, PerfRegistry
from repro.perf.report import PerfReport

__all__ = [
    "ACTIVE",
    "Observation",
    "PerfRegistry",
    "PerfReport",
    "collecting",
    "disable",
    "enable",
    "enabled",
    "incr",
    "names",
    "observe",
]

#: The process-wide active registry; ``None`` means instrumentation is
#: disabled and every guarded call site is a no-op.
ACTIVE: Optional[PerfRegistry] = None


def enabled() -> bool:
    """Whether a registry is currently collecting."""
    return ACTIVE is not None


def enable(registry: Optional[PerfRegistry] = None) -> PerfRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global ACTIVE
    ACTIVE = registry if registry is not None else PerfRegistry()
    return ACTIVE


def disable() -> Optional[PerfRegistry]:
    """Stop collecting; returns the registry that was active, if any."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextmanager
def collecting(registry: Optional[PerfRegistry] = None) -> Iterator[PerfRegistry]:
    """Collect into ``registry`` (or a fresh one) for the block's duration.

    Nests: the previously active registry (including ``None``) is
    restored on exit, so a profiled scenario inside a profiled soak
    attributes its counters to the innermost collector.
    """
    global ACTIVE
    previous = ACTIVE
    active = registry if registry is not None else PerfRegistry()
    ACTIVE = active
    try:
        yield active
    finally:
        ACTIVE = previous


def incr(name: str, amount: int = 1) -> None:
    """Increment a counter on the active registry (no-op when disabled)."""
    if ACTIVE is not None:
        ACTIVE.incr(name, amount)


def observe(name: str, value: float) -> None:
    """Record an observation on the active registry (no-op when disabled)."""
    if ACTIVE is not None:
        ACTIVE.observe(name, value)
