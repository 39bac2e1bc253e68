"""DeterminismSanitizer: RNG draw tracing with call-site attribution.

The byte-identity contracts in this repo (DES vs fleet vs loopback at
equal seeds) all reduce to one invariant: *every engine consumes the
same pseudo-random draws in the same order from the same streams*.
When that breaks, the summary diff says "something differs" but not
where. This sanitizer answers *where*: it wraps the seeded
:class:`random.Random` instances handed out by the scenario/harness
seed ladder, records every draw with the call site that consumed it,
and diffs two traces stream-by-stream to the **first divergent draw**.

Hot-path contract: :func:`traced_rng` is the identity function when
tracing is disabled — the engines pay one module-attribute load and an
``is None`` test per RNG construction (not per draw), and zero cost per
draw.

Streams are compared independently (not by global interleaving) because
the DES and the fleet engine legitimately consume streams in different
orders; what must match is each stream's own draw sequence.

The wrapper is a genuine :class:`random.Random` *subclass* so
``isinstance`` checks pass; tracing slows runs down but never changes
the bytes drawn. Reservoir decisions are not stream draws at all (they
are keyed by :mod:`repro.buffers.keyed`), so the per-receiver draw keys
appear in the trace as the master-stream draws that produce them.

Testing hook: ``DeterminismSanitizer(corrupt_draw=k)`` flips the k-th
recorded draw (0-based, global across streams) and *returns the
corrupted value to the caller*, so execution genuinely diverges from an
uncorrupted run — this is how the test suite proves the diff localizes
an injected divergence to the exact call site.
"""

from __future__ import annotations

import random
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ACTIVE",
    "DeterminismSanitizer",
    "Draw",
    "DrawDivergence",
    "DrawTrace",
    "disable",
    "enable",
    "enabled",
    "traced_rng",
    "tracing",
]

_OWN_FILE = __file__
_STDLIB_RANDOM_FILE = random.__file__


@dataclass(frozen=True)
class Draw:
    """One recorded RNG draw."""

    index: int  #: position within the stream (0-based)
    method: str  #: ``"random"`` or ``"getrandbits"``
    value: str  #: exact repr — ``float.hex`` for floats, decimal for ints
    site: str  #: ``file:line:function`` of the consuming frame


@dataclass(frozen=True)
class DrawDivergence:
    """First point at which two traces disagree on one stream."""

    stream: str
    index: Optional[int]  #: divergent draw index; ``None`` for missing stream
    left: Optional[Draw]
    right: Optional[Draw]
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        def encode(draw: Optional[Draw]) -> Optional[Dict[str, Any]]:
            if draw is None:
                return None
            return {
                "index": draw.index,
                "method": draw.method,
                "value": draw.value,
                "site": draw.site,
            }

        return {
            "stream": self.stream,
            "index": self.index,
            "left": encode(self.left),
            "right": encode(self.right),
            "reason": self.reason,
        }


@dataclass
class DrawTrace:
    """Recorded draw sequences, keyed by stream label."""

    streams: Dict[str, List[Draw]] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """Draws recorded per stream."""
        return {label: len(draws) for label, draws in sorted(self.streams.items())}

    def total_draws(self) -> int:
        return sum(len(draws) for draws in self.streams.values())

    def diff(
        self, other: "DrawTrace", streams: Optional[Sequence[str]] = None
    ) -> Tuple[DrawDivergence, ...]:
        """Per-stream first-divergence diff against ``other``.

        Returns one :class:`DrawDivergence` per stream that disagrees:
        either the first index where method/value differ, the index at
        which one side's stream ends early, or a stream present on only
        one side. An empty tuple means the traces are draw-identical.
        """
        wanted = set(streams) if streams is not None else None
        labels = sorted(set(self.streams) | set(other.streams))
        out: List[DrawDivergence] = []
        for label in labels:
            if wanted is not None and label not in wanted:
                continue
            left = self.streams.get(label)
            right = other.streams.get(label)
            if left is None or right is None:
                present = "right" if left is None else "left"
                out.append(
                    DrawDivergence(
                        stream=label,
                        index=None,
                        left=None,
                        right=None,
                        reason=f"stream only present in {present} trace",
                    )
                )
                continue
            for i in range(min(len(left), len(right))):
                a, b = left[i], right[i]
                if a.method != b.method or a.value != b.value:
                    out.append(
                        DrawDivergence(
                            stream=label,
                            index=i,
                            left=a,
                            right=b,
                            reason=(
                                f"draw {i}: {a.method}()={a.value} at {a.site}"
                                f" vs {b.method}()={b.value} at {b.site}"
                            ),
                        )
                    )
                    break
            else:
                if len(left) != len(right):
                    short, extra = (
                        ("left", right[len(left)])
                        if len(left) < len(right)
                        else ("right", left[len(right)])
                    )
                    out.append(
                        DrawDivergence(
                            stream=label,
                            index=min(len(left), len(right)),
                            left=left[len(right)] if len(left) > len(right) else None,
                            right=right[len(left)] if len(right) > len(left) else None,
                            reason=(
                                f"{short} trace ends after "
                                f"{min(len(left), len(right))} draws; first extra "
                                f"draw on the other side at {extra.site}"
                            ),
                        )
                    )
        return tuple(out)

    def to_json(self) -> Dict[str, Any]:
        return {
            "total_draws": self.total_draws(),
            "streams": {
                label: [
                    {
                        "index": d.index,
                        "method": d.method,
                        "value": d.value,
                        "site": d.site,
                    }
                    for d in draws
                ]
                for label, draws in sorted(self.streams.items())
            },
        }


def _call_site() -> str:
    """``file:line:function`` of the nearest frame that consumed a draw.

    Walks out of this module and the stdlib ``random`` module so that
    draws made *through* pure-Python ``random.Random`` helpers
    (``randrange``, ``shuffle``, …) attribute to the caller, not to the
    stdlib internals.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != _OWN_FILE and filename != _STDLIB_RANDOM_FILE:
            return f"{filename}:{frame.f_lineno}:{frame.f_code.co_name}"
        frame = frame.f_back
    return "<unknown>"


class DeterminismSanitizer:
    """Collects a :class:`DrawTrace`; optionally corrupts one draw.

    ``corrupt_draw`` names a 0-based global draw index (across all
    streams, in record order); the value at that index is flipped
    (``(v + 0.5) % 1.0`` for floats, ``v ^ 1`` for ints) both in the
    trace *and* in the value returned to the consuming code.
    """

    def __init__(self, corrupt_draw: Optional[int] = None) -> None:
        self.trace = DrawTrace()
        self.corrupt_draw = corrupt_draw
        self.corrupted_site: Optional[str] = None
        self._global_index = 0
        self._lock = threading.Lock()

    def record(self, stream: str, method: str, value: Any) -> Any:
        """Record one draw; returns the (possibly corrupted) value."""
        with self._lock:
            if self._global_index == self.corrupt_draw:
                if isinstance(value, float):
                    value = (value + 0.5) % 1.0
                else:
                    value = value ^ 1
            site = _call_site()
            if self._global_index == self.corrupt_draw:
                self.corrupted_site = site
            self._global_index += 1
            draws = self.trace.streams.setdefault(stream, [])
            encoded = value.hex() if isinstance(value, float) else str(value)
            draws.append(Draw(len(draws), method, encoded, site))
        return value


class _TracingRandom(random.Random):
    """A :class:`random.Random` that delegates to an inner generator.

    Only ``random`` and ``getrandbits`` touch the entropy source; every
    pure-Python convenience method (``randrange``, ``choice``,
    ``shuffle``, ``uniform``, …) is implemented by the stdlib in terms
    of those two, so recording them captures the full draw sequence.
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "_TracingRandom":
        # Skip random.Random.__new__'s urandom seeding of the (unused)
        # base-class state; delegation means we never read it.
        return super().__new__(cls, 0)

    def __init__(
        self, inner: random.Random, stream: str, sanitizer: DeterminismSanitizer
    ) -> None:
        self._inner = inner
        self._stream = stream
        self._sanitizer = sanitizer

    def random(self) -> float:
        return float(
            self._sanitizer.record(self._stream, "random", self._inner.random())
        )

    def getrandbits(self, k: int) -> int:
        return int(
            self._sanitizer.record(
                self._stream, "getrandbits", self._inner.getrandbits(k)
            )
        )

    def seed(self, *args: Any, **kwargs: Any) -> None:
        # Guard: random.Random.__new__ calls seed() before __init__ has
        # attached the inner generator.
        inner = getattr(self, "_inner", None)
        if inner is not None:
            inner.seed(*args, **kwargs)

    def getstate(self) -> Any:
        return self._inner.getstate()

    def setstate(self, state: Any) -> None:
        self._inner.setstate(state)


#: Process-wide active sanitizer; ``None`` disables tracing entirely.
ACTIVE: Optional[DeterminismSanitizer] = None


def enabled() -> bool:
    """Whether draw tracing is currently active."""
    return ACTIVE is not None


def enable(sanitizer: Optional[DeterminismSanitizer] = None) -> DeterminismSanitizer:
    """Install ``sanitizer`` (or a fresh one) as the active tracer."""
    global ACTIVE
    ACTIVE = sanitizer if sanitizer is not None else DeterminismSanitizer()
    return ACTIVE


def disable() -> Optional[DeterminismSanitizer]:
    """Stop tracing; returns the sanitizer that was active, if any."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


@contextmanager
def tracing(
    sanitizer: Optional[DeterminismSanitizer] = None,
) -> Iterator[DeterminismSanitizer]:
    """Trace draws for the block's duration; restores the prior state."""
    global ACTIVE
    previous = ACTIVE
    active = sanitizer if sanitizer is not None else DeterminismSanitizer()
    ACTIVE = active
    try:
        yield active
    finally:
        ACTIVE = previous


def traced_rng(rng: random.Random, stream: str) -> random.Random:
    """Wrap ``rng`` for tracing under the stream label ``stream``.

    The *identity function* when tracing is disabled — callers keep
    their original generator and pay nothing per draw. When active, the
    returned wrapper draws from ``rng`` (bit-identical sequence) and
    records each draw.
    """
    if ACTIVE is None:
        return rng
    return _TracingRandom(rng, stream, ACTIVE)
