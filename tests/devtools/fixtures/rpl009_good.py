"""RPL009 good corpus: batch APIs, and scalar calls outside loops."""

from repro.crypto.mac import MacScheme, MicroMacScheme


def verify_all(scheme: MacScheme, key: bytes, records):
    return scheme.verify_many(key, records)


def tag_all(micro: MicroMacScheme, key: bytes, macs):
    return micro.compute_many(key, macs)


def one_off(scheme: MacScheme, key: bytes, message: bytes) -> bytes:
    # a single scalar compute outside any loop is fine
    return scheme.compute(key, message)
