"""Runtime sanitizers: the dynamic complement to reprolint.

:mod:`repro.devtools.sanitizers.determinism` traces RNG draw sequences
with call-site attribution and diffs two runs (or DES vs fleet) to
pinpoint the *first divergent draw* per stream. It is zero-cost when
disabled (the same ``ACTIVE``-slot guard pattern as
:mod:`repro.perf`): its hook, :func:`traced_rng`, is the identity
function when tracing is off.

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

from repro.devtools.sanitizers import determinism
from repro.devtools.sanitizers.determinism import (
    DeterminismSanitizer,
    Draw,
    DrawDivergence,
    DrawTrace,
    traced_rng,
)

__all__ = [
    "DeterminismSanitizer",
    "Draw",
    "DrawDivergence",
    "DrawTrace",
    "determinism",
    "traced_rng",
]
