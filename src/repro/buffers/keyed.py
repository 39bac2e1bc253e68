"""Counter-keyed uniform draws for Algorithm 2's reservoir rule.

Algorithm 2 needs two uniform draws for the ``k``-th copy offered to a
full buffer of ``m`` slots: one to keep the copy with probability
``m / k``, one to pick the slot it replaces. Here both are a pure
function of ``(buffer key, k, lane)`` — a splitmix64 finalizer over a
Weyl-sequence counter (Steele et al., "Fast splittable pseudorandom
number generators", OOPSLA'14; the counter-based construction of
Salmon et al., SC'11) — instead of the next values of a stateful
stream. A draw therefore does not depend on the order in which a node,
or an engine, processes its buffers: the discrete-event receivers
evaluate it on Python ints one offer at a time, and the fleet engine
evaluates the same bits as wrapping ``uint64`` numpy over a whole fleet
at once.

Keys: a receiver holds one 64-bit key (``receiver_key``); its buffer
for interval ``i`` uses :func:`buffer_key` ``(receiver_key, i)``.
Receivers with several pools XOR a pool tag (:data:`CDM_POOL`,
:data:`DATA_POOL`) into the receiver key first.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "CDM_POOL",
    "DATA_POOL",
    "GAMMA",
    "MASK",
    "UNIT",
    "buffer_key",
    "draw",
    "draw_array",
    "fresh_key",
    "mix",
    "mix_array",
    "replacement_slot",
    "replacement_slots",
]

MASK = (1 << 64) - 1

#: Weyl increment (odd; 2^64 / golden ratio) spacing successive counters.
GAMMA = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB

#: Scale of the top 53 bits of a draw onto [0, 1).
UNIT = 2.0**-53

_U_GAMMA = np.uint64(GAMMA)
_U_C1 = np.uint64(_C1)
_U_C2 = np.uint64(_C2)


def mix(z: int) -> int:
    """splitmix64's finalizer: a bijection on 64-bit ints."""
    z = ((z ^ (z >> 30)) * _C1) & MASK
    z = ((z ^ (z >> 27)) * _C2) & MASK
    return z ^ (z >> 31)


#: Pool tags for receivers that key more than one pool.
CDM_POOL = mix(1)
DATA_POOL = mix(2)


def buffer_key(pool_key: int, index: int) -> int:
    """The key of the buffer for interval ``index`` in a keyed pool."""
    return mix(pool_key ^ mix(index & MASK))


def draw(key: int, k: int, lane: int) -> int:
    """64 uniform bits for offer ``k`` (1-based) of buffer ``key``.

    ``lane`` 0 is the acceptance draw, lane 1 the victim draw.
    """
    return mix((key + ((k << 1) | lane) * GAMMA) & MASK)


def replacement_slot(key: int, k: int, capacity: int) -> Optional[int]:
    """Algorithm 2 lines 9-11 for offer ``k`` to a full buffer.

    Returns the slot the copy replaces, or ``None`` when the ``m/k``
    rule rejects it.
    """
    # draw(key, k, 0), inlined: the DES pays this on every overflow offer.
    z = (key + (k << 1) * GAMMA) & MASK
    z = ((z ^ (z >> 30)) * _C1) & MASK
    z = ((z ^ (z >> 27)) * _C2) & MASK
    if ((z ^ (z >> 31)) >> 11) * UNIT >= capacity / k:
        return None
    return int((draw(key, k, 1) >> 11) * UNIT * capacity)


def fresh_key() -> int:
    """A random key for buffers built without one (not reproducible)."""
    return random.getrandbits(64)


def mix_array(z: NDArray[Any]) -> NDArray[Any]:
    """:func:`mix` over a ``uint64`` array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _U_C1
    z = (z ^ (z >> np.uint64(27))) * _U_C2
    return z ^ (z >> np.uint64(31))


def draw_array(keys: NDArray[Any], k: NDArray[Any], lane: int) -> NDArray[Any]:
    """:func:`draw` elementwise over ``uint64`` keys and counters."""
    counter = (k.astype(np.uint64) << np.uint64(1)) | np.uint64(lane)
    return mix_array(keys + counter * _U_GAMMA)


def replacement_slots(
    keys: NDArray[Any], k: NDArray[Any], capacity: int
) -> Tuple[NDArray[Any], NDArray[Any]]:
    """:func:`replacement_slot` elementwise.

    Returns ``(accepted, victims)``: a mask over the offers, and the
    replaced slot of each accepted offer (in mask order).
    """
    u = (draw_array(keys, k, 0) >> np.uint64(11)).astype(np.float64) * UNIT
    accepted = u < capacity / k.astype(np.float64)
    v = draw_array(keys[accepted], k[accepted], 1) >> np.uint64(11)
    victims = (v.astype(np.float64) * UNIT * capacity).astype(np.int64)
    return accepted, victims
