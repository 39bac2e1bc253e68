"""Per-interval buffer pools with bit-level memory accounting.

Receivers in the TESLA family buffer packets *per interval* until the
corresponding key is disclosed. :class:`IndexedBufferPool` keeps one
:class:`~repro.buffers.reservoir.PacketBuffer` per interval index,
bounds the number of simultaneously buffered intervals (a real node has
finite RAM), and tracks peak memory in bits so the storage claims in
§IV-D (56 vs 280 bits per packet) translate into measurable numbers.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, TypeVar

from repro.buffers import keyed
from repro.buffers.reservoir import (
    KeepFirstBuffer,
    OfferOutcome,
    OfferResult,
    PacketBuffer,
    ReservoirBuffer,
)
from repro.errors import BufferError_, ConfigurationError

__all__ = ["IndexedBufferPool"]

T = TypeVar("T")


class IndexedBufferPool(Generic[T]):
    """A family of per-interval packet buffers.

    Args:
        per_index_capacity: ``m``, buffer slots per interval.
        max_indices: maximum number of intervals buffered at once
            (``None`` = unbounded). When exceeded, offers for *new*
            indices are rejected — a node cannot conjure RAM — until
            older intervals are released.
        item_bits: size of one buffered item in bits, used for memory
            accounting (e.g. 56 for DAP's μMAC+index, 280 for a
            message+MAC pair).
        strategy: ``"reservoir"`` (Algorithm 2) or ``"keep_first"``
            (naive baseline).
        draw_key: 64-bit key of the pool's reservoir draws, for
            reproducible runs (a fresh random key when omitted). The
            buffer for interval ``i`` draws under
            :func:`~repro.buffers.keyed.buffer_key` ``(draw_key, i)``.
    """

    def __init__(
        self,
        per_index_capacity: int,
        max_indices: Optional[int] = None,
        item_bits: int = 1,
        strategy: str = "reservoir",
        draw_key: Optional[int] = None,
    ) -> None:
        if per_index_capacity <= 0:
            raise ConfigurationError(
                f"per_index_capacity must be positive, got {per_index_capacity}"
            )
        if max_indices is not None and max_indices <= 0:
            raise ConfigurationError(
                f"max_indices must be positive, got {max_indices}"
            )
        if item_bits <= 0:
            raise ConfigurationError(f"item_bits must be positive, got {item_bits}")
        if strategy not in ("reservoir", "keep_first"):
            raise ConfigurationError(
                f"strategy must be 'reservoir' or 'keep_first', got {strategy!r}"
            )
        self._capacity = per_index_capacity
        self._max_indices = max_indices
        self._item_bits = item_bits
        self._strategy = strategy
        self._key = keyed.fresh_key() if draw_key is None else draw_key
        self._buffers: Dict[int, PacketBuffer[T]] = {}
        self._peak_bits = 0
        self._offers = 0
        self._rejected_no_room = 0

    def _new_buffer(self, index: int) -> PacketBuffer[T]:
        if self._strategy == "reservoir":
            return ReservoirBuffer(
                self._capacity, draw_key=keyed.buffer_key(self._key, index)
            )
        return KeepFirstBuffer(self._capacity)

    @property
    def per_index_capacity(self) -> int:
        """Buffer slots per interval (``m``)."""
        return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Change ``m`` for intervals buffered *from now on*.

        Existing per-interval buffers keep their size (resizing a live
        reservoir would break its uniformity guarantee); the adaptive
        defense resizes between intervals, where this is exactly right.
        """
        if capacity <= 0:
            raise ConfigurationError(
                f"per_index_capacity must be positive, got {capacity}"
            )
        self._capacity = capacity

    @property
    def active_indices(self) -> List[int]:
        """Interval indices currently holding buffered items."""
        return sorted(self._buffers)

    @property
    def stored_count(self) -> int:
        """Total items buffered across all intervals."""
        return sum(len(buf) for buf in self._buffers.values())

    @property
    def stored_bits(self) -> int:
        """Current memory footprint in bits."""
        return self.stored_count * self._item_bits

    @property
    def peak_bits(self) -> int:
        """High-water memory footprint in bits since construction/reset."""
        return self._peak_bits

    @property
    def offers(self) -> int:
        """Total offers across all intervals."""
        return self._offers

    @property
    def rejected_no_room(self) -> int:
        """Offers rejected because ``max_indices`` was exhausted."""
        return self._rejected_no_room

    def offer(self, index: int, item: T) -> OfferResult[T]:
        """Offer ``item`` to the buffer for interval ``index``.

        Creates the interval's buffer on first use, subject to the
        ``max_indices`` bound.
        """
        self._offers += 1
        buf = self._buffers.get(index)
        if buf is None:
            if self._max_indices is not None and len(self._buffers) >= self._max_indices:
                self._rejected_no_room += 1
                return OfferResult(OfferOutcome.REJECTED)
            buf = self._new_buffer(index)
            self._buffers[index] = buf
        result = buf.offer(item)
        if result.stored:
            self._peak_bits = max(self._peak_bits, self.stored_bits)
        return result

    def items(self, index: int) -> List[T]:
        """Snapshot of buffered items for interval ``index`` (may be empty)."""
        buf = self._buffers.get(index)
        return buf.items if buf is not None else []

    def seen_count(self, index: int) -> int:
        """Number of offers made for interval ``index``."""
        buf = self._buffers.get(index)
        return buf.seen_count if buf is not None else 0

    def release(self, index: int) -> List[T]:
        """Remove and return the buffer contents for interval ``index``.

        Receivers call this when the interval's key is disclosed and
        authentication completes — the memory is freed either way.
        """
        buf = self._buffers.pop(index, None)
        return buf.items if buf is not None else []

    def release_older_than(self, index: int) -> int:
        """Drop all buffers for intervals strictly older than ``index``.

        Returns the number of items discarded. Used to reclaim memory
        for intervals whose keys were permanently lost.
        """
        stale = [i for i in self._buffers if i < index]
        dropped = 0
        for i in stale:
            dropped += len(self._buffers.pop(i))
        return dropped

    def retain_probability(self, index: int) -> float:
        """Empirical ``m/k`` retention probability for the *next* offer."""
        buf = self._buffers.get(index)
        if buf is None or buf.seen_count < buf.capacity:
            return 1.0
        return buf.capacity / (buf.seen_count + 1)

    def require_index(self, index: int) -> PacketBuffer[T]:
        """Return the live buffer for ``index`` or raise.

        Raises:
            BufferError_: when no buffer exists for the interval.
        """
        buf = self._buffers.get(index)
        if buf is None:
            raise BufferError_(f"no buffer for interval {index}")
        return buf

    def reset_peak(self) -> None:
        """Reset the peak-memory statistic to the current footprint."""
        self._peak_bits = self.stored_bits
