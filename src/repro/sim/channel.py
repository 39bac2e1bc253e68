"""The counter-keyed broadcast channel: who hears which broadcast.

The paper evaluates "low QoS channels", and real wireless loss is
*bursty*, not i.i.d. — fades and interference kill runs of consecutive
packets. That matters here: multi-level μTESLA sends redundant CDM
copies precisely to survive loss, and a burst can take out every copy
at once, which is the failure mode EFTP's and EDRP's recovery paths
exist for. Two loss models:

Bernoulli
    Independent drops with a fixed probability — the default model, a
    plain ``loss_probability``.
:class:`GilbertElliottLoss`
    The classic two-state Markov burst model: a GOOD state with low
    loss and a BAD state with high loss, with geometric sojourn times.
    Parameterised either directly or via
    :meth:`GilbertElliottLoss.from_average` (target average loss +
    mean burst length), so ablations can hold the average constant and
    vary only the burstiness.

Every delivery decision is a pure function of ``(medium key, receiver
index, broadcast index, lane)``, in the style of
:mod:`repro.buffers.keyed`: receiver ``r``'s link key is
``buffer_key(medium key, r)`` and lane ``l`` of broadcast ``b`` is
:func:`repro.buffers.keyed.draw` of ``(link key, b, l)`` (array twin:
:func:`link_draws`), read as a uniform in ``[0, 1)`` from its top 53
bits. A Bernoulli decision uses lane 0; a Gilbert–Elliott decision
uses lane 0 for the state transition, then lane 1 for the loss, and
carries the link's fade state from one broadcast to the next. The discrete-event medium evaluates the scalar
twin (:func:`link_drops`) one delivery at a time; the fleet engine and
the fault-injection proxy evaluate the array twins
(:func:`bernoulli_drop_mask`, :func:`gilbert_elliott_drop_mask`) over
whole ``(broadcasts, receivers)`` blocks. They give the same bits, so
no engine depends on the order in which another consumes a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.buffers.keyed import MASK, buffer_key, draw, draw_array, mix_array
from repro.errors import ConfigurationError

__all__ = [
    "GilbertElliottLoss",
    "bernoulli_drop_mask",
    "bursty_channel",
    "gilbert_elliott_drop_mask",
    "link_draws",
    "link_drops",
    "link_key",
    "link_keys",
]


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Parameters of a two-state Markov burst-loss channel.

    Attributes:
        p_good_to_bad: per-delivery probability of entering a fade.
        p_bad_to_good: per-delivery probability of the fade ending
            (mean burst length = ``1 / p_bad_to_good`` deliveries).
        loss_good: loss probability while GOOD (often ~0).
        loss_bad: loss probability while BAD (often ~1).

    The fade state itself belongs to a link, not to these parameters:
    the medium and the proxy hold one per receiver.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.p_bad_to_good == 0.0 and self.p_good_to_bad > 0.0:
            raise ConfigurationError("a fade must be able to end (p_bad_to_good > 0)")

    @classmethod
    def from_average(
        cls,
        average_loss: float,
        mean_burst: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> "GilbertElliottLoss":
        """Build a channel with a target average loss and burst length.

        The stationary BAD share ``π`` solves
        ``average = π·loss_bad + (1-π)·loss_good``; the transition
        rates follow from ``π`` and ``mean_burst = 1 / p_bad_to_good``.
        """
        if not math.isfinite(average_loss) or not 0.0 <= average_loss < 1.0:
            raise ConfigurationError(
                f"average_loss must be in [0, 1), got {average_loss}"
            )
        if not math.isfinite(mean_burst) or mean_burst < 1.0:
            raise ConfigurationError(
                f"mean_burst must be finite and >= 1, got {mean_burst}"
            )
        if loss_bad <= loss_good:
            raise ConfigurationError("need loss_bad > loss_good")
        pi_bad = (average_loss - loss_good) / (loss_bad - loss_good)
        if not 0.0 <= pi_bad <= 1.0:
            raise ConfigurationError(
                f"average_loss {average_loss} unreachable with"
                f" loss_good={loss_good}, loss_bad={loss_bad}"
            )
        b2g = 1.0 / mean_burst
        if pi_bad >= 1.0:
            g2b = 1.0
        else:
            g2b = min(b2g * pi_bad / (1.0 - pi_bad), 1.0)
        return cls(g2b, b2g, loss_good, loss_bad)

    def stationary_bad_share(self) -> float:
        """Long-run fraction of time spent in the BAD state."""
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return 0.0
        return self.p_good_to_bad / total

    def average_loss(self) -> float:
        pi = self.stationary_bad_share()
        return pi * self.loss_bad + (1.0 - pi) * self.loss_good

    @property
    def drops_exactly_in_fades(self) -> bool:
        """Whether a delivery is lost iff its link is in a fade — the
        loss lane's outcome is then fixed and need not be drawn."""
        return self.loss_good <= 0.0 and self.loss_bad >= 1.0


def bursty_channel(
    loss_probability: float, loss_mean_burst: Optional[float]
) -> Optional[GilbertElliottLoss]:
    """The channel a ``(loss_probability, loss_mean_burst)`` setting asks for.

    ``None`` means memoryless (Bernoulli) loss at ``loss_probability``;
    a mean burst on a lossy channel gives the Gilbert–Elliott channel
    with that mean fade length at the same average loss. The one check
    of this pair: :class:`~repro.sim.scenario.ScenarioConfig` and
    :class:`~repro.net.proxy.ProxyConfig` run it when they are built.

    Raises:
        ConfigurationError: for a probability outside ``[0, 1]``, or a
            bursty setting the Gilbert–Elliott channel cannot reach
            (average loss 1, mean burst below 1).
    """
    if not 0.0 <= loss_probability <= 1.0:
        raise ConfigurationError(
            f"loss_probability must be in [0, 1], got {loss_probability}"
        )
    if loss_mean_burst is None or loss_probability == 0.0:
        return None
    try:
        return GilbertElliottLoss.from_average(loss_probability, loss_mean_burst)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"bursty loss (loss_probability={loss_probability},"
            f" loss_mean_burst={loss_mean_burst}): {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# The keyed draw: scalar twin and array twin.


def link_key(key: int, receiver: int) -> int:
    """The key of receiver ``receiver``'s link on the medium keyed ``key``."""
    return buffer_key(key, receiver)


def link_keys(key: int, receivers: NDArray[Any]) -> NDArray[Any]:
    """:func:`link_key` over an array of receiver indices (``uint64``)."""
    mixed = mix_array(np.asarray(receivers).astype(np.uint64))
    return mix_array(np.uint64(key) ^ mixed)


def link_draws(
    links: NDArray[Any], broadcasts: NDArray[Any], lane: int
) -> NDArray[Any]:
    """:func:`~repro.buffers.keyed.draw` over the ``(broadcasts, links)``
    grid (``uint64``): the array twin of ``draw(link, broadcast, lane)``."""
    return draw_array(links[np.newaxis, :], broadcasts[:, np.newaxis], lane)


def _limit(probability: float) -> int:
    """The draws that read as a uniform below ``probability``.

    A draw's uniform is its top 53 bits times ``2^-53``, and
    ``(bits >> 11) * 2^-53 < p`` holds exactly when
    ``bits < ceil(p * 2^53) << 11`` — so both twins compare raw bits.
    ``p = 1`` gives ``2^64``, above every draw.
    """
    return math.ceil(probability * 2.0**53) << 11


def _below(bits: NDArray[Any], probability: float) -> NDArray[Any]:
    """Array twin of ``bits < _limit(probability)``."""
    limit = _limit(probability)
    if limit > MASK:
        return np.ones(bits.shape, dtype=bool)
    return bits < np.uint64(limit)


def link_drops(
    link: int,
    broadcast: int,
    probability: float,
    bursty: Optional[GilbertElliottLoss],
    bad: bool,
) -> Tuple[bool, bool]:
    """Decide one delivery: ``(dropped, fade state after it)``.

    ``bursty`` ``None`` is Bernoulli loss at ``probability`` (the fade
    state stays ``False``); otherwise the link's Gilbert–Elliott state
    ``bad`` advances on lane 0 and the loss is drawn on lane 1.
    """
    if bursty is None:
        if probability == 0.0:
            return False, False
        return draw(link, broadcast, 0) < _limit(probability), False
    transition = draw(link, broadcast, 0)
    if bad:
        bad = transition >= _limit(bursty.p_bad_to_good)
    else:
        bad = transition < _limit(bursty.p_good_to_bad)
    if bursty.drops_exactly_in_fades:
        return bad, bad
    loss = bursty.loss_bad if bad else bursty.loss_good
    return draw(link, broadcast, 1) < _limit(loss), bad


def bernoulli_drop_mask(
    links: NDArray[Any], broadcasts: NDArray[Any], probability: float
) -> NDArray[Any]:
    """Bernoulli :func:`link_drops` over ``(broadcasts, links)``.

    ``links`` are :func:`link_keys`, ``broadcasts`` the broadcast
    indices; returns the boolean drop mask.
    """
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(
            f"probability must be in [0, 1], got {probability}"
        )
    if probability == 0.0:
        return np.zeros((len(broadcasts), len(links)), dtype=bool)
    return _below(link_draws(links, broadcasts, 0), probability)


def gilbert_elliott_drop_mask(
    links: NDArray[Any],
    broadcasts: NDArray[Any],
    channel: GilbertElliottLoss,
    bad: NDArray[Any],
) -> Tuple[NDArray[Any], NDArray[Any]]:
    """Gilbert–Elliott :func:`link_drops` over ``(broadcasts, links)``.

    ``bad`` is each link's fade state before the first broadcast (all
    ``False`` for fresh links); ``broadcasts`` must be consecutive for
    the carried state to mean anything. Returns ``(drops, bad after
    the last broadcast)``, so a caller can process an unbounded
    broadcast axis in bounded blocks.
    """
    if np.shape(bad) != (len(links),):
        raise ConfigurationError(
            f"bad must have shape ({len(links)},), got {np.shape(bad)}"
        )
    transition = link_draws(links, broadcasts, 0)
    # BAD links leave the fade when the draw is below b2g; GOOD links
    # enter one when it is below g2b.
    stay = ~_below(transition, channel.p_bad_to_good)
    enter = _below(transition, channel.p_good_to_bad)
    faded = np.empty(stay.shape, dtype=bool)
    bad = np.asarray(bad, dtype=bool)
    for row in range(len(broadcasts)):
        bad = np.where(bad, stay[row], enter[row])
        faded[row] = bad
    if channel.drops_exactly_in_fades:
        return faded, bad
    loss = link_draws(links, broadcasts, 1)
    drops = np.where(
        faded, _below(loss, channel.loss_bad), _below(loss, channel.loss_good)
    )
    return drops, bad
