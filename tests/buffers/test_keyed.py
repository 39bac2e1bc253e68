"""Counter-keyed reservoir draws: scalar/numpy identity and uniformity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.buffers import keyed
from repro.buffers.reservoir import ReservoirBuffer

EDGE_KEYS = [0, 1, keyed.MASK, keyed.MASK - 1, 1 << 63, keyed.GAMMA]
EDGE_COUNTERS = [1, 2, 3, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1, 2**32 + 5]


def _pairs():
    keys = [key for key in EDGE_KEYS for _k in EDGE_COUNTERS]
    counters = [k for _key in EDGE_KEYS for k in EDGE_COUNTERS]
    return keys, counters


class TestScalarNumpyIdentity:
    @pytest.mark.parametrize("lane", [0, 1])
    def test_draws_agree_bit_for_bit(self, lane):
        keys, counters = _pairs()
        vectorized = keyed.draw_array(
            np.array(keys, dtype=np.uint64), np.array(counters, dtype=np.int64), lane
        )
        assert vectorized.tolist() == [
            keyed.draw(key, k, lane) for key, k in zip(keys, counters)
        ]

    def test_mix_agrees_on_edge_values(self):
        values = [0, 1, keyed.MASK, 1 << 63, (1 << 63) - 1]
        assert keyed.mix_array(np.array(values, dtype=np.uint64)).tolist() == [
            keyed.mix(v) for v in values
        ]

    @pytest.mark.parametrize("capacity", [1, 3, 4, 13])
    def test_replacement_slots_agree(self, capacity):
        keys, counters = _pairs()
        rng = np.random.default_rng(5)
        keys += rng.integers(0, 2**64, size=2000, dtype=np.uint64).tolist()
        counters += rng.integers(capacity + 1, 200, size=2000).tolist()
        accepted, victims = keyed.replacement_slots(
            np.array(keys, dtype=np.uint64),
            np.array(counters, dtype=np.int64),
            capacity,
        )
        scalar = [
            keyed.replacement_slot(key, k, capacity)
            for key, k in zip(keys, counters)
        ]
        assert accepted.tolist() == [slot is not None for slot in scalar]
        assert victims.tolist() == [slot for slot in scalar if slot is not None]
        assert all(0 <= slot < capacity for slot in victims.tolist())


def _fill(keys: np.ndarray, capacity: int, offers: int) -> np.ndarray:
    """Offer items ``0..offers-1`` to one buffer per key, in numpy."""
    held = np.tile(np.arange(capacity), (keys.size, 1))
    rows = np.arange(keys.size)
    for k in range(capacity + 1, offers + 1):
        accepted, victims = keyed.replacement_slots(
            keys, np.full(keys.size, k, dtype=np.int64), capacity
        )
        held[rows[accepted], victims] = k - 1
    return held


class TestUniformity:
    def test_numpy_fill_matches_reservoir_buffer(self):
        keys = keyed.mix_array(np.arange(1, 301, dtype=np.uint64))
        held = _fill(keys, 4, 20)
        for key, row in zip(keys.tolist(), held.tolist()):
            buffer = ReservoirBuffer(4, draw_key=key)
            buffer.offer_many(range(20))
            assert buffer.items == row

    def test_every_offer_survives_with_probability_m_over_n(self):
        m, n, buffers = 4, 20, 40_000
        keys = keyed.mix_array(np.arange(1, buffers + 1, dtype=np.uint64))
        held = _fill(keys, m, n)
        frequency = np.bincount(held.ravel(), minlength=n) / buffers
        assert frequency == pytest.approx(np.full(n, m / n), abs=0.01)

    def test_buffer_keys_differ_per_interval_and_pool(self):
        receiver = 0x1234_5678_9ABC_DEF0
        keys = {keyed.buffer_key(receiver, i) for i in range(1, 1000)}
        keys |= {keyed.buffer_key(receiver ^ keyed.CDM_POOL, i) for i in range(1, 1000)}
        assert len(keys) == 1998
