"""DAP — the DoS-Resistant Authentication Protocol (paper §IV).

The paper's proposed protocol. Compared with its ancestors:

- messages are **not** broadcast with their MACs: interval ``i`` carries
  only 112-bit ``(i, MAC_i)`` announcements, and the 312-bit
  ``(i, M_i, K_i)`` reveal follows one disclosure delay later
  (Algorithm 1);
- receivers re-hash each incoming MAC under a private local key into a
  24-bit μMAC and buffer 56-bit ``(μMAC, i)`` records — 20% of the
  classic 280-bit record, so the same memory holds 5× the buffers
  (§IV-D);
- records are kept with the ``m/k`` random-selection rule (Algorithm 2),
  so with forged fraction ``p`` at least one authentic record survives
  with probability ``P = 1 - p^m`` — the quantity the evolutionary game
  in :mod:`repro.game` prices and optimises;
- authentication is two-stage: *weak* (key-chain check of the disclosed
  key) then *strong* (μMAC match).

Security argument (§IV-C): a forger would need ``MAC_{K_i}(M_forged)``
during interval ``i``, before ``K_i`` is disclosed — prevented by the
security condition, exactly as in TESLA. The test suite checks the
``forged_accepted == 0`` invariant under heavy flooding.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.crypto.kernels import ChainWalkCache
from repro.crypto.mac import MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.protocols._two_phase import (
    TwoPhasePacket,
    TwoPhaseReceiverCore,
    TwoPhaseSender,
)
from repro.protocols.base import AuthEvent, BroadcastReceiver
from repro.protocols.packets import MacAnnouncePacket, MessageKeyPacket
from repro.timesync.sync import SecurityCondition

__all__ = ["DapSender", "DapReceiver"]


class DapSender(TwoPhaseSender):
    """DAP sender (Algorithm 1): announce ``(i, MAC_i)``, reveal
    ``(i, M_i, K_i)`` one disclosure delay later.

    Identical wire behaviour to the two-phase base; the DAP-specific
    machinery is all receiver-side.
    """

    def __init__(
        self,
        seed: bytes,
        chain_length: int,
        disclosure_delay: int = 1,
        packets_per_interval: int = 1,
        announce_copies: int = 1,
        message_for: Optional[Callable[[int, int], bytes]] = None,
        mac_scheme: Optional[MacScheme] = None,
        function: Optional[OneWayFunction] = None,
    ) -> None:
        super().__init__(
            seed=seed,
            chain_length=chain_length,
            disclosure_delay=disclosure_delay,
            packets_per_interval=packets_per_interval,
            announce_copies=announce_copies,
            message_for=message_for,
            mac_scheme=mac_scheme,
            function=function,
        )


class DapReceiver(BroadcastReceiver):
    """DAP receiver (Algorithm 2): μMAC re-hash + ``m``-buffer reservoir.

    Args:
        commitment: authenticated chain commitment ``K_0``.
        condition: security condition for the announce phase.
        local_key: the receiver's private ``K_recv``.
        buffers: ``m`` — the parameter the evolutionary game optimises.
        micro_mac_bits: μMAC width (paper: 24).
        max_intervals: bound on simultaneously buffered intervals.
        draw_key: 64-bit key of the reservoir's draws (a fresh random
            key when omitted); the scenario builders pass the master
            seed ladder's per-receiver draw.
    """

    def __init__(
        self,
        commitment: bytes,
        condition: SecurityCondition,
        local_key: bytes,
        buffers: int = 4,
        micro_mac_bits: int = 24,
        function: Optional[OneWayFunction] = None,
        mac_scheme: Optional[MacScheme] = None,
        max_intervals: Optional[int] = None,
        draw_key: Optional[int] = None,
        walk_cache: Optional[ChainWalkCache] = None,
    ) -> None:
        super().__init__()
        self._core = TwoPhaseReceiverCore(
            commitment=commitment,
            function=function or OneWayFunction("F"),
            condition=condition,
            mac_scheme=mac_scheme or MacScheme(),
            micro_scheme=MicroMacScheme(micro_mac_bits),
            local_key=local_key,
            buffers=buffers,
            strategy="reservoir",
            max_intervals=max_intervals,
            stats=self._stats,
            draw_key=draw_key,
            walk_cache=walk_cache,
        )

    @property
    def buffers(self) -> int:
        """``m``, record slots per interval."""
        return self._core.buffers

    @property
    def trusted_index(self) -> int:
        """Newest authenticated chain index."""
        return self._core.trusted_index

    @property
    def buffered_bits(self) -> int:
        """Current record-pool footprint in bits."""
        return self._core.pool.stored_bits

    @property
    def observations(self):
        """Reveal-time ``(interval, stored, matched)`` samples — the
        attack-level evidence the adaptive defense estimator consumes."""
        return self._core.observations

    def resize_buffers(self, buffers: int) -> None:
        """Change ``m`` for intervals buffered from now on.

        The game-guided adaptive defense calls this between intervals
        when Algorithm 3's recommendation moves (already-buffered
        intervals keep their reservoirs — resizing a live reservoir
        would break the ``m/k`` uniformity guarantee).
        """
        self._core.pool.set_capacity(buffers)

    def receive(self, packet: TwoPhasePacket, now: float) -> List[AuthEvent]:
        self._stats.packets_received += 1
        if isinstance(packet, MacAnnouncePacket):
            events = self._core.handle_announce(
                packet.index, packet.mac, packet.provenance, now
            )
        elif isinstance(packet, MessageKeyPacket):
            events = self._core.handle_message_key(
                packet.index, packet.message, packet.key, packet.provenance
            )
        else:
            raise TypeError(f"DapReceiver cannot handle {type(packet).__name__}")
        return self._emit(events)

    def expire_older_than(self, index: int) -> int:
        """Free record memory for intervals older than ``index``."""
        return self._core.expire_older_than(index)
