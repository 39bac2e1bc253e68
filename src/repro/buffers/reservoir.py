"""DoS-resistant packet buffers (Algorithm 2's multiple-buffer selection).

The core defence of multi-level μTESLA and DAP against memory-based DoS
flooding is *random* buffer selection: a receiver with ``m`` buffers that
has seen ``k`` copies of a packet keeps the ``k``-th copy with
probability ``m / k``, replacing a uniformly random buffered copy. This
is classic reservoir sampling, and it guarantees every one of the ``n``
copies seen ends up retained with equal probability ``m / n`` — so an
attacker flooding forged copies cannot bias which copies survive, and
the probability that at least one *authentic* copy survives is
``1 - p^m`` when a fraction ``p`` of copies are forged.

:class:`KeepFirstBuffer` is the naive baseline (keep the first ``m``
copies, drop the rest): trivially defeated by an attacker who floods
early. It exists for the ablation bench that shows why the ``m/k`` rule
matters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Generic, Iterable, Iterator, List, Optional, TypeVar

from repro.buffers import keyed
from repro.errors import ConfigurationError

__all__ = [
    "OfferOutcome",
    "OfferResult",
    "PacketBuffer",
    "ReservoirBuffer",
    "KeepFirstBuffer",
]

T = TypeVar("T")


class OfferOutcome(Enum):
    """What happened to an item offered to a buffer."""

    STORED_EMPTY = "stored_empty"
    """Stored into a free buffer slot."""

    STORED_REPLACED = "stored_replaced"
    """Stored by evicting a previously buffered item."""

    REJECTED = "rejected"
    """Dropped by the random-selection rule (or by a full naive buffer)."""


@dataclass(frozen=True)
class OfferResult(Generic[T]):
    """Result of offering one item.

    Attributes:
        outcome: what happened.
        evicted: the item displaced, when ``outcome`` is
            ``STORED_REPLACED``.
    """

    outcome: OfferOutcome
    evicted: Optional[T] = None

    @property
    def stored(self) -> bool:
        """Whether the offered item is now buffered."""
        return self.outcome is not OfferOutcome.REJECTED


class PacketBuffer(ABC, Generic[T]):
    """Common interface for the buffering strategies under study."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"buffer capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._items: List[T] = []
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Maximum number of buffered items (``m`` in the paper)."""
        return self._capacity

    @property
    def seen_count(self) -> int:
        """Total number of items offered so far (``k`` in Algorithm 2)."""
        return self._seen

    @property
    def items(self) -> List[T]:
        """Snapshot of the currently buffered items."""
        return list(self._items)

    def clear(self) -> None:
        """Empty the buffer and reset the offer counter."""
        self._items.clear()
        self._seen = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(list(self._items))

    def __contains__(self, item: object) -> bool:
        return item in self._items

    @abstractmethod
    def offer(self, item: T) -> OfferResult[T]:
        """Offer one item; the strategy decides whether it is kept."""

    def offer_many(self, items: Iterable[T]) -> int:
        """Offer a whole flood of items; returns how many were stored.

        State-identical to calling :meth:`offer` per item in order,
        but skips the per-item :class:`OfferResult` allocation — the
        batched fast path for slot-granular flood processing.
        Subclasses may override with a tighter loop; this default
        simply delegates.
        """
        stored = 0
        for item in items:
            if self.offer(item).stored:
                stored += 1
        return stored


class ReservoirBuffer(PacketBuffer[T]):
    """Algorithm 2's storage rule: keep copy ``k`` with probability ``m/k``.

    Invariant (reservoir sampling): after any number ``n >= m`` of
    offers, the buffer holds a uniformly random ``m``-subset of the
    offered items; each item survives with probability exactly ``m/n``.

    The two uniform draws an offer to a full buffer needs are
    :func:`repro.buffers.keyed.replacement_slot` of ``(draw_key, k)``:
    a pure function of the buffer's key and the offer's rank, so the
    buffer's contents follow from its key and the offered sequence.

    Args:
        capacity: ``m``, the number of buffers the node dedicates.
        draw_key: 64-bit key of the buffer's draws, for reproducible
            runs; a fresh random key when omitted.
    """

    def __init__(self, capacity: int, draw_key: Optional[int] = None) -> None:
        super().__init__(capacity)
        self._key = keyed.fresh_key() if draw_key is None else draw_key

    def offer(self, item: T) -> OfferResult[T]:
        self._seen += 1
        if len(self._items) < self._capacity:
            # Algorithm 2 line 6-7: free buffer available, always store.
            self._items.append(item)
            return OfferResult(OfferOutcome.STORED_EMPTY)
        # Algorithm 2 lines 9-11: keep the k-th copy with probability
        # m/k, replacing a uniformly random buffered copy.
        victim = keyed.replacement_slot(self._key, self._seen, self._capacity)
        if victim is None:
            return OfferResult(OfferOutcome.REJECTED)
        evicted = self._items[victim]
        self._items[victim] = item
        return OfferResult(OfferOutcome.STORED_REPLACED, evicted=evicted)

    def offer_many(self, items: Iterable[T]) -> int:
        """Batched :meth:`offer` without the per-item result objects.

        Offering ``[a, b, c]`` here leaves the buffer and its seen
        counter in the state three ``offer`` calls would: both take the
        same keyed draw for each rank.
        """
        capacity = self._capacity
        held = self._items
        key = self._key
        seen = self._seen
        stored = 0
        for item in items:
            seen += 1
            if len(held) < capacity:
                held.append(item)
                stored += 1
                continue
            victim = keyed.replacement_slot(key, seen, capacity)
            if victim is not None:
                held[victim] = item
                stored += 1
        self._seen = seen
        return stored


class KeepFirstBuffer(PacketBuffer[T]):
    """Naive baseline: keep the first ``m`` copies, reject everything after.

    Under a flooding attacker who front-loads forged copies this retains
    *no* authentic copy with high probability — the ablation benches use
    it to quantify the value of the reservoir rule.
    """

    def offer(self, item: T) -> OfferResult[T]:
        self._seen += 1
        if len(self._items) < self._capacity:
            self._items.append(item)
            return OfferResult(OfferOutcome.STORED_EMPTY)
        return OfferResult(OfferOutcome.REJECTED)
