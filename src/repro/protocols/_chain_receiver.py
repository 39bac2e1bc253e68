"""Shared receiver core for single-level chain protocols (TESLA, μTESLA).

Both protocols buffer ``(message, MAC)`` records per interval until the
interval key is disclosed, then verify the whole interval. The core
factors that machinery out:

- the TESLA security condition gate,
- per-interval buffering with configurable strategy and capacity,
- key-chain authentication of disclosures (gap-tolerant),
- retroactive verification of all buffered intervals once a disclosure
  advances the trusted anchor.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.buffers.pool import IndexedBufferPool
from repro.crypto.kernels import ChainWalkCache
from repro.crypto.keychain import KeyChainAuthenticator
from repro.crypto.mac import MacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import ConfigurationError, KeyVerificationError
from repro.protocols import base
from repro.protocols.base import (
    AuthEvent,
    AuthOutcome,
    ReceiverStats,
)
from repro.protocols.packets import StoredPacketRecord
from repro.timesync.sync import SecurityCondition

__all__ = ["ChainReceiverCore"]


class ChainReceiverCore:
    """Buffer-then-verify machinery shared by TESLA-style receivers.

    Args:
        commitment: authenticated chain commitment ``K_0``.
        function: the chain's one-way function.
        condition: the protocol's security condition.
        mac_scheme: MAC scheme used by the sender.
        buffer_capacity: records buffered per interval.
        buffer_strategy: ``"keep_first"`` (classic TESLA — no DoS
            defence) or ``"reservoir"`` (Algorithm 2 selection).
        max_intervals: bound on simultaneously buffered intervals.
        stats: the owning receiver's stats object (shared).
        draw_key: 64-bit key of the reservoir strategy's draws.
        walk_cache: optional shared back-walk memo (must wrap
            ``function``); defaults to a private per-receiver cache.
    """

    def __init__(
        self,
        commitment: bytes,
        function: OneWayFunction,
        condition: SecurityCondition,
        mac_scheme: MacScheme,
        buffer_capacity: int,
        buffer_strategy: str,
        max_intervals: Optional[int],
        stats: ReceiverStats,
        draw_key: Optional[int] = None,
        walk_cache: Optional[ChainWalkCache] = None,
    ) -> None:
        if buffer_capacity <= 0:
            raise ConfigurationError(
                f"buffer_capacity must be positive, got {buffer_capacity}"
            )
        # Gap bound caps the hash work a forged disclosure can cause
        # (computational-DoS hardening; see the adversarial test suite).
        # The walk cache dedupes repeated back-walks — a flooding
        # attacker replaying one forged disclosure pays the receiver a
        # dict lookup, not a fresh O(gap) walk. A fleet may share one
        # cache across receivers: identical forged disclosures then
        # cross-hit instead of re-walking per node.
        self._authenticator = KeyChainAuthenticator(
            commitment,
            function,
            max_gap=base.MAX_KEY_GAP,
            walk_cache=walk_cache if walk_cache is not None else ChainWalkCache(function),
        )
        self._condition = condition
        self._mac = mac_scheme
        probe = StoredPacketRecord(0, b"\x00" * 25, b"\x00" * 10)
        self._pool: IndexedBufferPool[StoredPacketRecord] = IndexedBufferPool(
            per_index_capacity=buffer_capacity,
            max_indices=max_intervals,
            item_bits=probe.stored_bits,
            strategy=buffer_strategy,
            draw_key=draw_key,
        )
        self._stats = stats
        self._authenticated: Set[int] = set()

    @property
    def trusted_index(self) -> int:
        """Newest authenticated chain index."""
        return self._authenticator.trusted_index

    @property
    def authenticated_intervals(self) -> Set[int]:
        """Intervals for which at least one message authenticated."""
        return set(self._authenticated)

    @property
    def pool(self) -> IndexedBufferPool:
        """The per-interval record pool (exposed for memory metrics)."""
        return self._pool

    def handle_data(
        self,
        index: int,
        message: bytes,
        mac: bytes,
        provenance: str,
        now: float,
    ) -> List[AuthEvent]:
        """Gate, then buffer one data record; returns immediate events."""
        if not self._condition.accepts(index, now):
            return [
                AuthEvent(index, AuthOutcome.DISCARDED_UNSAFE, provenance, message)
            ]
        record = StoredPacketRecord(index, message, mac, provenance)
        result = self._pool.offer(index, record)
        self._stats.peak_buffer_bits = max(
            self._stats.peak_buffer_bits, self._pool.peak_bits
        )
        if not result.stored:
            # Distinguish "pool out of interval slots" from reservoir
            # rejection: the latter is working as intended, not a loss
            # (a rejected copy's interval still holds other copies).
            if self._pool.rejected_no_room and len(self._pool.items(index)) == 0:
                return [
                    AuthEvent(
                        index, AuthOutcome.DROPPED_NO_BUFFER, provenance, message
                    )
                ]
            return []
        self._stats.records_buffered += 1
        return []

    def handle_disclosure(
        self, index: int, key: bytes, provenance: str
    ) -> List[AuthEvent]:
        """Process a key disclosure; may retroactively verify intervals."""
        if index < 1 or not key:
            return []
        try:
            valid = self._authenticator.authenticate(key, index)
        except KeyVerificationError:
            valid = False
        if not valid:
            return [AuthEvent(index, AuthOutcome.REJECTED_WEAK_AUTH, provenance)]
        return self._flush_verified()

    def _flush_verified(self) -> List[AuthEvent]:
        """Verify every buffered interval at or below the trusted anchor."""
        events: List[AuthEvent] = []
        trusted = self._authenticator.trusted_index
        for interval in list(self._pool.active_indices):
            if interval > trusted:
                continue
            key = self._authenticator.derive_older(interval)
            records = self._pool.release(interval)
            events.extend(self._verify_records(interval, key, records))
        return events

    def _verify_records(
        self, interval: int, key: bytes, records: List[StoredPacketRecord]
    ) -> List[AuthEvent]:
        seen: Set[Tuple[bytes, bytes]] = set()
        unique: List[StoredPacketRecord] = []
        for record in records:
            fingerprint = (record.message, record.mac)
            if fingerprint in seen:
                continue  # duplicate copies verify identically
            seen.add(fingerprint)
            unique.append(record)
        # One disclosed key authenticates the whole buffer: one batched
        # call shares the HMAC key-block across every record.
        outcomes = self._mac.verify_many(
            key, [(record.message, record.mac) for record in unique]
        )
        events: List[AuthEvent] = []
        for record, authentic in zip(unique, outcomes):
            if authentic:
                self._authenticated.add(interval)
                events.append(
                    AuthEvent(
                        interval,
                        AuthOutcome.AUTHENTICATED,
                        record.provenance,
                        record.message,
                    )
                )
            else:
                events.append(
                    AuthEvent(
                        interval,
                        AuthOutcome.REJECTED_FORGED,
                        record.provenance,
                        record.message,
                    )
                )
        return events

    def expire_older_than(self, interval: int) -> List[AuthEvent]:
        """Give up on intervals older than ``interval`` whose keys never
        arrived, freeing their memory."""
        events: List[AuthEvent] = []
        for idx in list(self._pool.active_indices):
            if idx < interval and idx > self._authenticator.trusted_index:
                for record in self._pool.release(idx):
                    events.append(
                        AuthEvent(
                            idx,
                            AuthOutcome.EXPIRED_UNVERIFIED,
                            record.provenance,
                            record.message,
                        )
                    )
        return events
