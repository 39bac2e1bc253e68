"""Known-bad RPL001 fixture: direct primitive hashing outside the
kernel allowlist (checked as if it lived under ``repro/protocols/``)."""

import hashlib
import hmac
from hashlib import blake2s


def tag_payload(payload: bytes, key: bytes) -> bytes:
    mac = hmac.new(key, payload, "sha256").digest()
    return hashlib.sha256(payload + mac).digest()


def fast_tag(key: bytes, mac: bytes) -> bytes:
    # direct blake2b: sidesteps kernels.fast_micro_mac and FAST_UMAC
    return hashlib.blake2b(mac, key=key, digest_size=3).digest()


def fast_tag_member(key: bytes, mac: bytes) -> bytes:
    # member-imported blake2s: same bypass through an alias
    return blake2s(mac, key=key, digest_size=3).digest()
