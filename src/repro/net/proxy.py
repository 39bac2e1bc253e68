"""Fault-injection proxy: the hostile network between sender and fleet.

The proxy is an ordinary endpoint: whatever arrives on its address is
forwarded to every downstream address through an emulated link — drop
(Bernoulli or Gilbert–Elliott burst fades, from
:mod:`repro.sim.channel`), base delay, uniform jitter, duplication and
reordering. Loss is the keyed channel of
:class:`repro.sim.medium.BroadcastMedium`: the ``b``-th datagram
reaches the ``r``-th downstream address unless the channel's draw for
``(key, r, b)`` drops it, with the proxy holding each link's fade
state. Equal keys give equal decisions, which is what lets a loopback
soak reproduce an in-memory simulation decision-for-decision. The
proxy decides a block of upcoming datagrams for all its links in one
array call.

Jitter, duplication and reordering draw from a ``random.Random``
seeded with the same key; with those knobs at zero it is never drawn.

Faults compose per delivery: a datagram can be duplicated *and* each
copy delayed and reordered independently, which is how real congested
paths behave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.devtools.sanitizers.determinism import traced_rng
from repro.errors import ConfigurationError
from repro.net.transport import Transport
from repro.sim.channel import (
    GilbertElliottLoss,
    bernoulli_drop_mask,
    bursty_channel,
    gilbert_elliott_drop_mask,
    link_keys,
)

__all__ = ["ProxyConfig", "FaultInjectionProxy"]


@dataclass(frozen=True)
class ProxyConfig:
    """Per-link fault model.

    Attributes:
        loss_probability: average per-delivery loss.
        loss_mean_burst: when set (> 1), losses are bursty: a
            Gilbert–Elliott channel with this mean fade length replaces
            the memoryless model at the same average loss.
        delay: base one-way link delay in seconds.
        jitter: extra uniform random delay in ``[0, jitter)`` seconds.
        duplicate_probability: chance a delivery is sent twice.
        reorder_probability: chance a delivery is held back by
            ``reorder_delay`` so later datagrams overtake it.
        reorder_delay: how long a reordered delivery is held (defaults
            to twice the base delay — enough to swap with a successor).
    """

    loss_probability: float = 0.0
    loss_mean_burst: Optional[float] = None
    delay: float = 1e-3
    jitter: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_delay: Optional[float] = None

    def __post_init__(self) -> None:
        bursty_channel(self.loss_probability, self.loss_mean_burst)
        for name in ("duplicate_probability", "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        for name in ("delay", "jitter"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.reorder_delay is not None and self.reorder_delay < 0:
            raise ConfigurationError(
                f"reorder_delay must be >= 0, got {self.reorder_delay}"
            )

    @property
    def bursty(self) -> Optional[GilbertElliottLoss]:
        """The Gilbert–Elliott channel, or ``None`` for Bernoulli loss."""
        return bursty_channel(self.loss_probability, self.loss_mean_burst)

    @property
    def effective_reorder_delay(self) -> float:
        """The hold-back applied to reordered deliveries."""
        if self.reorder_delay is not None:
            return self.reorder_delay
        return 2.0 * self.delay


#: Datagrams decided per array call of the keyed channel. On the
#: soak-loopback workload (about 1250 datagrams to 32 links per run)
#: the decisions cost about 1.5 ms this way, against 29 ms for one call
#: per datagram and 69 ms for one scalar decision per link.
_LOOKAHEAD = 64


class FaultInjectionProxy:
    """Forwards everything arriving at its endpoint through faulty links.

    Args:
        transport: the endpoint to listen on (handler installed here).
        downstream: receiver addresses, in delivery order (the ``r``-th
            is receiver ``r`` of the keyed channel).
        config: the fault model, shared by all links.
        key: 64-bit channel key; loss decisions are keyed by it, and it
            seeds the jitter/duplication/reordering draws.
    """

    def __init__(
        self,
        transport: Transport,
        downstream: Sequence[str],
        config: Optional[ProxyConfig] = None,
        *,
        key: int,
    ) -> None:
        if not downstream:
            raise ConfigurationError("proxy needs at least one downstream address")
        self._transport = transport
        self._config = config or ProxyConfig()
        self._rng = traced_rng(random.Random(key), "proxy")
        self._addresses = list(downstream)
        self._links = link_keys(key, np.arange(len(self._addresses)))
        self._bursty = self._config.bursty
        self._bad = np.zeros(len(self._addresses), dtype=bool)
        self._decided: List[List[bool]] = []
        self.datagrams_received = 0
        self.forwarded = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        transport.set_handler(self._on_datagram)

    @property
    def config(self) -> ProxyConfig:
        """The fault model in force."""
        return self._config

    @property
    def downstream(self) -> List[str]:
        """Downstream addresses in delivery order."""
        return list(self._addresses)

    def _delivery_delay(self) -> float:
        # Guarded draws: knobs at zero consume no randomness.
        delay = self._config.delay
        if self._config.jitter > 0.0:
            delay += self._rng.random() * self._config.jitter
        if (
            self._config.reorder_probability > 0.0
            and self._rng.random() < self._config.reorder_probability
        ):
            self.reordered += 1
            delay += self._config.effective_reorder_delay
        return delay

    def _drops(self, datagram: int) -> List[bool]:
        """Each link's loss decision for the ``datagram``-th datagram."""
        row = datagram % _LOOKAHEAD
        if row == 0:
            broadcasts = np.arange(datagram, datagram + _LOOKAHEAD)
            if self._bursty is None:
                drops = bernoulli_drop_mask(
                    self._links, broadcasts, self._config.loss_probability
                )
            else:
                drops, self._bad = gilbert_elliott_drop_mask(
                    self._links, broadcasts, self._bursty, self._bad
                )
            self._decided = drops.tolist()
        return self._decided[row]

    def _on_datagram(self, data: bytes, _arrival: float) -> None:
        datagram = self.datagrams_received
        self.datagrams_received += 1
        for address, dropped in zip(self._addresses, self._drops(datagram)):
            if dropped:
                self.dropped += 1
                continue
            copies = 1
            if (
                self._config.duplicate_probability > 0.0
                and self._rng.random() < self._config.duplicate_probability
            ):
                copies = 2
                self.duplicated += 1
            for _ in range(copies):
                self._transport.send(data, address, self._delivery_delay())
            self.forwarded += copies
