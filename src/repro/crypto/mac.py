"""Message-authentication-code schemes for the protocol family.

Two schemes are needed:

:class:`MacScheme`
    The sender-side MAC attached to broadcast packets,
    ``MAC_i = MAC_{K_i}(M_i)`` — 80 bits in the paper's accounting.

:class:`MicroMacScheme`
    The receiver-side re-hash used by TESLA++ and DAP,
    ``μMAC_i = MAC_{K_recv}(MAC_i)`` — 24 bits. Storing the μMAC plus a
    32-bit index (56 bits total) instead of message+MAC (280 bits) is the
    ~80% memory saving the paper claims in §IV-D.

Both are instantiated as HMAC-SHA-256 truncated to the configured width.
Truncation widths are explicit so the bit-accurate storage model in
:mod:`repro.protocols.packets` matches the paper's numbers.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro import perf
from repro.crypto import kernels
from repro.crypto.onewayfn import truncate_to_bits
from repro.errors import ConfigurationError
from repro.perf.names import CRYPTO_MAC, CRYPTO_MAC_BATCHES

__all__ = [
    "DEFAULT_MAC_BITS",
    "MICRO_MAC_BITS",
    "MESSAGE_BITS",
    "INDEX_BITS",
    "MacScheme",
    "MicroMacScheme",
]

#: MAC width used on the wire (Fig. 4: "MACi (80b)").
DEFAULT_MAC_BITS = 80
#: μMAC width stored at receivers (Fig. 4: 24 bits).
MICRO_MAC_BITS = 24
#: Message payload width assumed by the paper's accounting (Fig. 4: 200b).
MESSAGE_BITS = 200
#: Interval-index width (Fig. 4 shows 32b on the wire; §IV-D stores 56
#: bits per packet = 24-bit μMAC + 32-bit index).
INDEX_BITS = 32


def _hmac_truncated(key: bytes, message: bytes, bits: int, label: bytes) -> bytes:
    """One HMAC: midstate-cloned when the kernels are on, naive otherwise.

    Both paths produce identical bytes — HMAC absorbs its input as a
    stream, so cloning a state that already holds ``label || "|"`` and
    feeding it ``message`` equals hashing the concatenation outright.
    """
    if perf.ACTIVE is not None:
        perf.ACTIVE.incr(CRYPTO_MAC)
    if kernels.ENABLED:
        h = kernels.hmac_midstate(key, label).copy()
        h.update(message)
        return truncate_to_bits(h.digest(), bits)
    # reprolint: disable=RPL001 -- kernels-disabled reference path, parity-tested against hmac_midstate
    digest = _hmac.new(key, label + b"|" + message, hashlib.sha256).digest()
    return truncate_to_bits(digest, bits)


@dataclass(frozen=True)
class MacScheme:
    """HMAC-SHA-256 truncated to ``mac_bits`` (default 80).

    Used by senders to authenticate broadcast messages under the
    interval key, and by receivers to recompute the expected MAC once
    the key is disclosed.
    """

    mac_bits: int = DEFAULT_MAC_BITS

    def __post_init__(self) -> None:
        if self.mac_bits <= 0 or self.mac_bits > 256:
            raise ConfigurationError(
                f"mac_bits must be in (0, 256], got {self.mac_bits}"
            )

    def compute(self, key: bytes, message: bytes) -> bytes:
        """Compute ``MAC_key(message)``."""
        if not key:
            raise ConfigurationError("MAC key must be non-empty")
        return _hmac_truncated(bytes(key), bytes(message), self.mac_bits, b"repro.mac")

    def compute_many(self, key: bytes, messages: Iterable[bytes]) -> List[bytes]:
        """Batched :meth:`compute` over ``messages`` under one key.

        Sender-side slot construction MACs every message of a broadcast
        slot under the same interval key; sharing the HMAC key-block
        midstate across the batch pays key preparation once instead of
        per packet. Bit-identical, positionally, to per-message
        :meth:`compute`.
        """
        if not key:
            raise ConfigurationError("MAC key must be non-empty")
        items = [bytes(message) for message in messages]
        if not items:
            return []
        if perf.ACTIVE is not None:
            perf.ACTIVE.incr(CRYPTO_MAC, len(items))
            perf.ACTIVE.incr(CRYPTO_MAC_BATCHES)
        key = bytes(key)
        bits = self.mac_bits
        if kernels.ENABLED:
            base = kernels.hmac_midstate(key, b"repro.mac")
            out = []
            for message in items:
                h = base.copy()
                h.update(message)
                out.append(truncate_to_bits(h.digest(), bits))
            return out
        return [
            truncate_to_bits(
                # reprolint: disable=RPL001 -- kernels-disabled reference path, parity-tested against hmac_midstate
                _hmac.new(key, b"repro.mac|" + message, hashlib.sha256).digest(),
                bits,
            )
            for message in items
        ]

    def verify(self, key: bytes, message: bytes, mac: bytes) -> bool:
        """Constant-time check that ``mac`` authenticates ``message``."""
        return _hmac.compare_digest(self.compute(key, message), bytes(mac))

    def verify_many(
        self, key: bytes, pairs: Iterable[Tuple[bytes, bytes]]
    ) -> List[bool]:
        """Batched :meth:`verify` over ``(message, mac)`` pairs.

        Receiver-side interval verification checks a whole buffer of
        records under one disclosed key; sharing the HMAC key-block
        state across the batch pays the key preparation once instead of
        per record. All expected digests are computed first, then
        compared in one pass. Results are positionally identical to
        calling :meth:`verify` per pair.
        """
        items = list(pairs)
        expected = self.compute_many(key, (message for message, _mac in items))
        return [
            _hmac.compare_digest(digest, bytes(mac))
            for digest, (_message, mac) in zip(expected, items)
        ]


@dataclass(frozen=True)
class MicroMacScheme:
    """Receiver-local re-hash of an incoming MAC into a short μMAC.

    Each receiver holds a private local key ``K_recv`` (never shared, so
    an attacker cannot target μMAC collisions offline). The μMAC is what
    gets buffered; on key disclosure the receiver recomputes
    ``μMAC' = MAC_{K_recv}(MAC_{K_i}(M_i))`` and compares.
    """

    micro_mac_bits: int = MICRO_MAC_BITS

    def __post_init__(self) -> None:
        if self.micro_mac_bits <= 0 or self.micro_mac_bits > 256:
            raise ConfigurationError(
                f"micro_mac_bits must be in (0, 256], got {self.micro_mac_bits}"
            )

    def compute(self, local_key: bytes, mac: bytes) -> bytes:
        """Compute ``μMAC = MAC_{local_key}(mac)``.

        With :func:`~repro.crypto.kernels.fast_umac_enabled` the tag
        comes from the keyed-BLAKE2s kernel instead of HMAC-SHA-256 —
        different bytes, same distributional collision model (see the
        ``FAST_UMAC`` notes in :mod:`repro.crypto.kernels`).
        """
        if not local_key:
            raise ConfigurationError("receiver local key must be non-empty")
        if kernels.fast_umac_enabled():
            if perf.ACTIVE is not None:
                perf.ACTIVE.incr(CRYPTO_MAC)
            return kernels.fast_micro_mac(
                bytes(local_key), bytes(mac), self.micro_mac_bits
            )
        return _hmac_truncated(
            bytes(local_key), bytes(mac), self.micro_mac_bits, b"repro.umac"
        )

    def compute_many(self, local_key: bytes, macs: Iterable[bytes]) -> List[bytes]:
        """Batched :meth:`compute` over ``macs`` under one local key.

        The shape of reveal-time strong authentication: one receiver
        re-hashes every buffered MAC of a slot under its private key.
        One HMAC midstate (or one BLAKE2s key block on the fast path)
        serves the whole batch; results are positionally identical to
        per-MAC :meth:`compute`.
        """
        if not local_key:
            raise ConfigurationError("receiver local key must be non-empty")
        items = [bytes(mac) for mac in macs]
        if not items:
            return []
        if perf.ACTIVE is not None:
            perf.ACTIVE.incr(CRYPTO_MAC, len(items))
            perf.ACTIVE.incr(CRYPTO_MAC_BATCHES)
        local_key = bytes(local_key)
        bits = self.micro_mac_bits
        if kernels.fast_umac_enabled():
            fast = kernels.fast_micro_mac
            return [fast(local_key, mac, bits) for mac in items]
        if kernels.ENABLED:
            base = kernels.hmac_midstate(local_key, b"repro.umac")
            out = []
            for mac in items:
                h = base.copy()
                h.update(mac)
                out.append(truncate_to_bits(h.digest(), bits))
            return out
        return [
            truncate_to_bits(
                # reprolint: disable=RPL001 -- kernels-disabled reference path, parity-tested against hmac_midstate
                _hmac.new(local_key, b"repro.umac|" + mac, hashlib.sha256).digest(),
                bits,
            )
            for mac in items
        ]

    def verify(self, local_key: bytes, mac: bytes, micro_mac: bytes) -> bool:
        """Constant-time check of a stored μMAC against a recomputed MAC."""
        return _hmac.compare_digest(self.compute(local_key, mac), bytes(micro_mac))

    def verify_many(
        self, local_key: bytes, pairs: Iterable[Tuple[bytes, bytes]]
    ) -> List[bool]:
        """Batched :meth:`verify` over ``(mac, micro_mac)`` pairs.

        All expected μMACs are computed first (one key-block setup for
        the batch), then compared in one pass. Positionally identical
        to per-pair :meth:`verify`.
        """
        items = list(pairs)
        expected = self.compute_many(
            local_key, (mac for mac, _micro in items)
        )
        return [
            _hmac.compare_digest(digest, bytes(micro))
            for digest, (_mac, micro) in zip(expected, items)
        ]
