"""Host-speed sampling, to report times at a fixed reference speed.

On a shared host the same code can run up to twice as slow while
neighbours load the physical cores, in phases of seconds to minutes. A
:class:`Speedometer` samples the host's speed *during* an operation: a
wall-clock interval timer interrupts the program every
:data:`INTERVAL_S` and times a fixed piece of benchmark code (the probe).
An operation's wall time times ``REFERENCE_PROBE_S / median probe time`` is
its time on a host where the probe takes :data:`REFERENCE_PROBE_S`: the
host's load mostly cancels, while the program's own speed-ups and
slow-downs show in full. The probe shares the process with the program, so
it warms up before it is timed and keeps the garbage collector out (see
:func:`probe`); README.md in this directory gives the check that injected
costs show in the scaled times.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time
from typing import Any, List

#: Probe time that defines the reference host speed.
REFERENCE_PROBE_S = 200e-6

#: Sampling interval of the probe timer (adds about 2% to a run).
INTERVAL_S = 0.02


class _Pair:
    __slots__ = ("low", "high")

    def __init__(self, low: int) -> None:
        self.low = low
        self.high = low + 1


_PAIRS = tuple(_Pair(i) for i in range(64))
_TABLE = dict.fromkeys(range(64), 0)


def _probe_pass() -> float:
    """One pass of the fixed probe code; its wall time in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(1500):
        total += (i * 7) % 13
    for i in range(200):
        pair = _PAIRS[i & 63]
        _TABLE[i & 63] = pair.low + pair.high
        total += _TABLE[i & 31]
    digest = b"k" * 32
    for _ in range(20):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - started


def probe() -> float:
    """Run the fixed probe; the wall time of its timed pass, in seconds.

    Integer arithmetic, attribute and dict work, then a few small
    hashes: the host slows such code by different factors, and the mix
    tracks the interpreter-heavy and the numpy-heavy workloads alike.
    A first, untimed pass warms the caches and branch predictors that
    the interrupted program left cold: a single pass read 16% slower
    after numpy or sleeping code than inside a Python loop, two passes
    read alike after all three. The probe creates no container objects
    and runs with the garbage collector paused, so the program's
    garbage is never collected inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_pass()
        return _probe_pass()
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples :func:`probe` on a SIGALRM interval timer (main thread only)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous: Any = None

    def _on_alarm(self, _signum: int, _frame: Any) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        """Install the handler and start the timer."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and restore the previous handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reset(self) -> None:
        """Start a new measurement window with one probe."""
        self.samples = [probe()]

    def scale(self) -> float:
        """Factor from this window's wall time to reference-speed time;
        takes one more probe so the window always has two."""
        self.samples.append(probe())
        return REFERENCE_PROBE_S / statistics.median(self.samples)
