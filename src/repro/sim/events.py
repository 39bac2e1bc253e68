"""Discrete-event simulation core.

A minimal but production-shaped DES: a priority queue of timestamped
events, a monotonically advancing master clock, cancellable handles,
and deterministic FIFO ordering among simultaneous events (ties broken
by scheduling sequence number, so runs are exactly reproducible).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro import perf
from repro.errors import ConfigurationError, SchedulingError
from repro.perf.names import SIM_EVENTS, SIM_QUEUE_DEPTH
from repro.timesync.clock import SimClock

__all__ = ["EventHandle", "Simulator"]


@dataclass(order=True)
class _QueuedEvent:
    time: float
    seq: int
    handle: "EventHandle" = field(compare=False)


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("action", "description", "_cancelled", "_fired")

    def __init__(self, action: Callable[[], None], description: str) -> None:
        self.action = action
        self.description = description
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event has executed."""
        return self._fired

    def cancel(self) -> bool:
        """Cancel the event; returns ``False`` if it already fired."""
        if self._fired:
            return False
        self._cancelled = True
        return True


class Simulator:
    """Event loop owning the master clock.

    Args:
        start: initial simulation time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._queue: List[_QueuedEvent] = []
        self._seq = 0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._clock.now()

    @property
    def clock(self) -> SimClock:
        """The master clock (for deriving per-node drifting clocks)."""
        return self._clock

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones not yet popped)."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Events executed so far."""
        return self._processed

    def schedule(
        self, time: float, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        """Schedule ``action`` at absolute ``time``.

        Raises:
            SchedulingError: for times in the past.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        handle = EventHandle(action, description)
        self._seq += 1
        heapq.heappush(self._queue, _QueuedEvent(time, self._seq, handle))
        return handle

    def schedule_in(
        self, delay: float, action: Callable[[], None], description: str = ""
    ) -> EventHandle:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self.schedule(self.now + delay, action, description)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events until the queue drains, ``until`` passes, or
        the event budget is spent. Returns events processed this call.

        Events scheduled exactly at ``until`` still fire (the horizon is
        inclusive), which makes "run to the end of interval N" natural.
        """
        if max_events is not None and max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {max_events}")
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            head = self._queue[0]
            if until is not None and head.time > until:
                break
            heapq.heappop(self._queue)
            handle = head.handle
            if handle.cancelled:
                continue
            self._clock.set(head.time)
            handle._fired = True
            handle.action()
            processed += 1
            self._processed += 1
            active = perf.ACTIVE
            if active is not None:
                active.incr(SIM_EVENTS)
                active.observe(SIM_QUEUE_DEPTH, len(self._queue))
        if until is not None and self.now < until and (
            not self._queue or self._queue[0].time > until
        ):
            self._clock.set(until)
        return processed
