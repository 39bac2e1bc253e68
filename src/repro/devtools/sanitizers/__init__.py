"""Runtime sanitizers: the dynamic complement to reprolint.

Two independent sanitizers, each zero-cost when disabled (the same
``ACTIVE``-slot guard pattern as :mod:`repro.perf`):

:mod:`repro.devtools.sanitizers.determinism`
    Traces RNG draw sequences with call-site attribution and diffs two
    runs (or DES vs fleet) to pinpoint the *first divergent draw* per
    stream. Hook: :func:`traced_rng` — the identity function when
    tracing is off.

:mod:`repro.devtools.sanitizers.resources`
    Tracks ``SharedMemory`` segments, sockets, and file handles from
    creation to release and reports anything still alive at end of run.
    Hooks: :func:`track_resource` / :func:`release_resource` — no-ops
    when off.

This package is intentionally **stdlib-only and imports nothing from
the rest of ``repro``**: it sits below ``repro.sim`` and ``repro.net``
in the layering so any of them can call its hooks without creating an
import cycle.

Typical use::

    from repro.devtools import sanitizers

    with sanitizers.determinism.tracing() as trace_a:
        run_scenario(config)
    with sanitizers.determinism.tracing() as trace_b:
        run_scenario(config)
    divergences = trace_a.trace.diff(trace_b.trace)
"""

from __future__ import annotations

from repro.devtools.sanitizers import determinism, resources
from repro.devtools.sanitizers.determinism import (
    DeterminismSanitizer,
    Draw,
    DrawDivergence,
    DrawTrace,
    traced_rng,
)
from repro.devtools.sanitizers.resources import (
    ResourceSanitizer,
    release_resource,
    track_resource,
)

__all__ = [
    "DeterminismSanitizer",
    "Draw",
    "DrawDivergence",
    "DrawTrace",
    "ResourceSanitizer",
    "determinism",
    "release_resource",
    "resources",
    "track_resource",
    "traced_rng",
]
