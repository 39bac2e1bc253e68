"""Midstate-cached crypto kernels and the kernel on/off switch.

Every packet the simulator, the game's payoff evaluation and the live
testbed push through a protocol bottoms out in two hot paths:

- :class:`~repro.crypto.onewayfn.OneWayFunction` — a SHA-256 over
  ``label || key`` per chain step. The domain-separation prefix is the
  same for every call on a given function, so this module caches the
  hash state *after* absorbing the prefix ("midstate") and clones it
  with ``.copy()`` per call instead of re-hashing the label. Same
  digest, roughly a third less work per step.
- receiver-side chain walks — verifying a disclosed key ``K_j``
  against the trusted anchor ``K_i`` costs ``j - i`` hash steps.
  Under the paper's flooding attack the same forged disclosure arrives
  over and over; :class:`ChainWalkCache` memoizes whole walks so a
  duplicate flood costs one dictionary hit instead of a back-walk.

Everything here is *exact*: the cached paths are bit-identical to the
naive ones (property-tested), and :func:`set_kernels_enabled` switches
the whole layer off so equivalence is checkable end-to-end
(``tests/perf/test_parity.py`` runs seeded scenarios both ways and
compares summaries).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Tuple

from repro import perf
from repro.errors import ConfigurationError
from repro.perf.names import CRYPTO_WALK_CACHE_HITS, CRYPTO_WALK_CACHE_MISSES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.onewayfn import OneWayFunction

__all__ = [
    "ENABLED",
    "FAST_UMAC",
    "ChainWalkCache",
    "fast_micro_mac",
    "fast_umac",
    "fast_umac_enabled",
    "hmac_midstate",
    "kernels_disabled",
    "kernels_enabled",
    "set_fast_umac",
    "set_kernels_enabled",
    "sha256_digest",
    "sha256_midstate",
]

#: Module-wide switch. Hot paths read this directly; flip it with
#: :func:`set_kernels_enabled` (or the :func:`kernels_disabled` context
#: manager) to fall back to the naive reference implementations.
ENABLED: bool = True

#: Opt-in *non-faithful* μMAC fast path (default off). Unlike every
#: other kernel in this module, :func:`fast_micro_mac` is NOT
#: bit-identical to the HMAC-SHA-256 reference — it swaps the primitive
#: for keyed BLAKE2s. The distributional model is unchanged (a
#: pseudorandom ``bits``-wide tag with the same 2^-bits collision
#: probability), so aggregate figures are statistically equivalent, but
#: individual collision events land on different packets. Flip it with
#: :func:`set_fast_umac` / the :func:`fast_umac` context manager; it
#: only takes effect while :data:`ENABLED` is also true, so
#: :func:`kernels_disabled` parity harnesses force the faithful path.
FAST_UMAC: bool = False


def kernels_enabled() -> bool:
    """Whether the midstate/walk-cache kernels are active."""
    return ENABLED


def set_kernels_enabled(flag: bool) -> bool:
    """Switch the kernels on or off; returns the previous setting."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous


@contextmanager
def kernels_disabled() -> Iterator[None]:
    """Run a block on the naive reference paths (restores on exit)."""
    previous = set_kernels_enabled(False)
    try:
        yield
    finally:
        set_kernels_enabled(previous)


def fast_umac_enabled() -> bool:
    """Whether the non-faithful BLAKE2s μMAC fast path is active.

    True only when both :data:`FAST_UMAC` and :data:`ENABLED` are set —
    the fast path is a kernel, so the kernel master switch gates it.
    """
    return FAST_UMAC and ENABLED


def set_fast_umac(flag: bool) -> bool:
    """Switch the μMAC fast path on or off; returns the previous setting."""
    global FAST_UMAC
    previous = FAST_UMAC
    FAST_UMAC = bool(flag)
    return previous


@contextmanager
def fast_umac(flag: bool = True) -> Iterator[None]:
    """Run a block with the μMAC fast path forced to ``flag``."""
    previous = set_fast_umac(flag)
    try:
        yield
    finally:
        set_fast_umac(previous)


# ----------------------------------------------------------------------
# midstate caches

# One midstate per domain-separation prefix. The key population is the
# set of one-way-function labels in use — a handful — so no bound.
_SHA256_MIDSTATES: Dict[bytes, "hashlib._Hash"] = {}

#: HMAC midstates are keyed by (key, label); keys are interval keys, of
#: which a long soak sees many, so this cache is a bounded LRU.
_HMAC_CACHE_MAX = 1024
_HMAC_MIDSTATES: "OrderedDict[Tuple[bytes, bytes], _hmac.HMAC]" = OrderedDict()


def sha256_midstate(prefix: bytes) -> "hashlib._Hash":
    """SHA-256 state with ``prefix`` already absorbed. Callers must
    ``.copy()`` before updating — the cached object is shared."""
    state = _SHA256_MIDSTATES.get(prefix)
    if state is None:
        state = _SHA256_MIDSTATES[prefix] = hashlib.sha256(prefix)
    return state


def sha256_digest(data: bytes, *, prefix: bytes = b"") -> bytes:
    """One-shot ``SHA-256(prefix + data)`` through the kernel layer.

    The routing point for call sites outside the crypto hot loops
    (workload readings, deterministic message payloads, seed
    derivation) so every hash in the tree flows through one module —
    reprolint's RPL001 pins that. With a non-empty ``prefix`` and the
    kernels enabled, the prefix absorption comes from the midstate
    cache; the digest is bit-identical either way. ``prefix`` must be
    a fixed domain-separation label (it keys the unbounded midstate
    cache) — variable content belongs in ``data``.
    """
    if prefix and ENABLED:
        h = sha256_midstate(prefix).copy()
        h.update(data)
        return h.digest()
    return hashlib.sha256(prefix + data).digest()


def hmac_midstate(key: bytes, label: bytes) -> _hmac.HMAC:
    """HMAC-SHA-256 state keyed by ``key`` with ``label || "|"``
    absorbed. Callers must ``.copy()`` before updating.

    Cloning this midstate skips both the HMAC key-block preparation and
    the label bytes on every MAC over the same key — exactly the shape
    of receiver-side interval verification, where one disclosed key
    authenticates a whole buffer of records.
    """
    cache_key = (key, label)
    state = _HMAC_MIDSTATES.get(cache_key)
    if state is None:
        state = _hmac.new(key, label + b"|", hashlib.sha256)
        _HMAC_MIDSTATES[cache_key] = state
        while len(_HMAC_MIDSTATES) > _HMAC_CACHE_MAX:
            _HMAC_MIDSTATES.popitem(last=False)
    else:
        _HMAC_MIDSTATES.move_to_end(cache_key)
    return state


#: BLAKE2s personalisation for the μMAC fast path — domain-separates it
#: from any other blake2 use the way ``b"repro.umac|"`` separates the
#: HMAC reference path.
_FAST_UMAC_PERSON = b"repro.um"

#: BLAKE2s accepts keys up to 32 bytes; longer receiver keys are folded
#: through one SHA-256 first (cached per key — local keys are few and
#: reused across every packet a receiver handles).
_FAST_UMAC_KEY_MAX = 32
_FAST_UMAC_FOLDED_KEYS: "OrderedDict[bytes, bytes]" = OrderedDict()
_FAST_UMAC_FOLDED_MAX = 1024


def fast_micro_mac(key: bytes, data: bytes, bits: int) -> bytes:
    """Keyed-BLAKE2s μMAC truncated to ``bits`` — the opt-in fast path.

    **Non-faithful by design**: the bytes differ from the HMAC-SHA-256
    reference μMAC, so per-packet outcomes that hinge on exact tag
    values (the 2^-bits collision events) land on different packets.
    The *distributional* collision model is identical, which is what
    the statistical-equivalence harness checks when the switch is on.
    Callers route through :meth:`repro.crypto.mac.MicroMacScheme` and
    consult :func:`fast_umac_enabled` — never call the primitive from a
    hot loop directly (reprolint RPL001 pins that).

    Keys longer than BLAKE2s's 32-byte limit are folded through one
    SHA-256 (cached); ``bits`` must be in (0, 256] so the tag fits a
    single BLAKE2s digest.
    """
    if not key:
        raise ConfigurationError("fast_micro_mac key must be non-empty")
    if bits <= 0 or bits > 256:
        raise ConfigurationError(f"bits must be in (0, 256], got {bits}")
    if len(key) > _FAST_UMAC_KEY_MAX:
        folded = _FAST_UMAC_FOLDED_KEYS.get(key)
        if folded is None:
            folded = hashlib.sha256(b"repro.umk|" + key).digest()
            _FAST_UMAC_FOLDED_KEYS[key] = folded
            while len(_FAST_UMAC_FOLDED_KEYS) > _FAST_UMAC_FOLDED_MAX:
                _FAST_UMAC_FOLDED_KEYS.popitem(last=False)
        else:
            _FAST_UMAC_FOLDED_KEYS.move_to_end(key)
        key = folded
    nbytes = (bits + 7) // 8
    digest = hashlib.blake2s(
        data, digest_size=nbytes, key=key, person=_FAST_UMAC_PERSON
    ).digest()
    spare = nbytes * 8 - bits
    if spare:
        # Same masking rule as onewayfn.truncate_to_bits (not imported:
        # that module imports this one).
        digest = digest[:-1] + bytes((digest[-1] & ((0xFF << spare) & 0xFF),))
    return digest


# ----------------------------------------------------------------------
# chain-walk memoization


class ChainWalkCache:
    """Memoizes receiver-side one-way chain walks.

    ``iterate(value, times)`` is a pure function of its arguments, so
    caching whole walks is always sound. The win is the paper's DoS
    scenario itself: a flooding attacker re-submitting the same forged
    disclosure (or a μTESLA sender legitimately re-disclosing a key)
    makes the receiver repeat an O(gap) back-walk — with the cache the
    repeat costs one bounded-LRU lookup.

    Args:
        function: the chain's one-way function.
        max_entries: LRU bound on memoized walks (each entry holds two
            short byte strings; the default bounds the cache at a few
            hundred kilobytes).
    """

    __slots__ = ("_function", "_walks", "_max_entries", "hits", "misses")

    def __init__(self, function: "OneWayFunction", max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._function = function
        self._walks: "OrderedDict[Tuple[bytes, int], bytes]" = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    @property
    def function(self) -> "OneWayFunction":
        """The wrapped one-way function."""
        return self._function

    @property
    def hit_rate(self) -> float:
        """Fraction of walks answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._walks)

    def iterate(self, value: bytes, times: int) -> bytes:
        """Memoized ``function.iterate(value, times)``.

        Bit-identical to the uncached walk; with kernels disabled the
        memo layer is bypassed entirely so on/off runs do the same work.
        """
        if times <= 0 or not ENABLED:
            # times == 0 is the identity, times < 0 raises inside
            # iterate — neither is worth a cache slot.
            return self._function.iterate(value, times)
        key = (bytes(value), times)
        cached = self._walks.get(key)
        active = perf.ACTIVE
        if cached is not None:
            self._walks.move_to_end(key)
            self.hits += 1
            if active is not None:
                active.incr(CRYPTO_WALK_CACHE_HITS)
            return cached
        self.misses += 1
        if active is not None:
            active.incr(CRYPTO_WALK_CACHE_MISSES)
        result = self._function.iterate(value, times)
        self._walks[key] = result
        while len(self._walks) > self._max_entries:
            self._walks.popitem(last=False)
        return result
