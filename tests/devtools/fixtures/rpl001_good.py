"""Known-good RPL001 fixture: hashing routed through the kernels;
``hmac.compare_digest`` is comparison, not hashing, and stays legal."""

import hmac

from repro.crypto import kernels
from repro.crypto.kernels import sha256_digest


def tag_payload(payload: bytes) -> bytes:
    return sha256_digest(payload, prefix=b"fixture|")


def fast_tag(key: bytes, mac: bytes) -> bytes:
    # the non-faithful fast μMAC goes through the kernel switchboard
    return kernels.fast_micro_mac(key, mac, 24)


def tags_equal(left: bytes, right: bytes) -> bool:
    return hmac.compare_digest(left, right)
