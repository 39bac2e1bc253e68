"""JSON-stable snapshot of one measurement run.

:class:`PerfReport` freezes a :class:`~repro.perf.registry.PerfRegistry`
plus optional cProfile hotspot rows into a schema the CLI prints and CI
archives. The ``derived`` block pre-computes the ratios people actually
read (walk-cache hit rate, hashes per simulated event) so a report is
interpretable without a calculator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.perf.names import (
    CRYPTO_HASH,
    CRYPTO_MAC,
    CRYPTO_WALK_CACHE_HITS,
    CRYPTO_WALK_CACHE_MISSES,
    SIM_EVENTS,
)

__all__ = ["PerfReport"]


def _derived(counters: Mapping[str, int]) -> Dict[str, float]:
    """Ratios worth reading directly off a report."""
    out: Dict[str, float] = {}
    hits = counters.get(CRYPTO_WALK_CACHE_HITS, 0)
    misses = counters.get(CRYPTO_WALK_CACHE_MISSES, 0)
    if hits + misses:
        out["walk_cache_hit_rate"] = hits / (hits + misses)
    events = counters.get(SIM_EVENTS, 0)
    if events:
        out["hashes_per_event"] = counters.get(CRYPTO_HASH, 0) / events
        out["macs_per_event"] = counters.get(CRYPTO_MAC, 0) / events
    return out


@dataclass(frozen=True)
class PerfReport:
    """One measurement run, JSON-schema stable (docs/API.md).

    Attributes:
        label: what was measured (scenario name, soak preset, ...).
        wall_seconds: wall time of the measured call.
        counters / observations / timers: the registry snapshot.
        hotspots: optional cProfile rows, hottest first, each with
            ``function``, ``calls``, ``tottime`` and ``cumtime`` keys.
    """

    label: str
    wall_seconds: float
    counters: Dict[str, int] = field(default_factory=dict)
    observations: Dict[str, Dict[str, float]] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    hotspots: Tuple[Dict[str, Any], ...] = ()

    @classmethod
    def from_registry(
        cls,
        registry: Any,
        label: str,
        wall_seconds: float,
        hotspots: Sequence[Dict[str, Any]] = (),
    ) -> "PerfReport":
        """Freeze ``registry`` (a :class:`PerfRegistry`) into a report."""
        snapshot = registry.snapshot()
        return cls(
            label=label,
            wall_seconds=wall_seconds,
            counters=snapshot["counters"],
            observations=snapshot["observations"],
            timers=snapshot["timers"],
            hotspots=tuple(dict(row) for row in hotspots),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The report as a plain JSON-serialisable dict."""
        return {
            "label": self.label,
            "wall_seconds": self.wall_seconds,
            "counters": dict(self.counters),
            "observations": {k: dict(v) for k, v in self.observations.items()},
            "timers": dict(self.timers),
            "derived": _derived(self.counters),
            "hotspots": [dict(row) for row in self.hotspots],
        }

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
