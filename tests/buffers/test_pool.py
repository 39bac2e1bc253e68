"""Unit tests for the indexed per-interval buffer pool."""

from __future__ import annotations

import pytest

from repro.buffers.pool import IndexedBufferPool
from repro.errors import BufferError_, ConfigurationError


#: Draw key of the pools under test.
KEY = 12345


@pytest.fixture
def pool():
    return IndexedBufferPool(per_index_capacity=2, item_bits=56, draw_key=KEY)


class TestOfferAndRelease:
    def test_offer_creates_buffer(self, pool):
        assert pool.offer(1, "a").stored
        assert pool.active_indices == [1]

    def test_items_by_index(self, pool):
        pool.offer(1, "a")
        pool.offer(2, "b")
        assert pool.items(1) == ["a"]
        assert pool.items(2) == ["b"]

    def test_items_of_unknown_index_empty(self, pool):
        assert pool.items(9) == []

    def test_release_returns_and_removes(self, pool):
        pool.offer(1, "a")
        assert pool.release(1) == ["a"]
        assert pool.items(1) == []
        assert pool.active_indices == []

    def test_release_unknown_index_is_empty(self, pool):
        assert pool.release(5) == []

    def test_release_older_than(self, pool):
        for index in (1, 2, 3, 4):
            pool.offer(index, index)
        dropped = pool.release_older_than(3)
        assert dropped == 2
        assert pool.active_indices == [3, 4]

    def test_seen_count_per_index(self, pool):
        for _ in range(5):
            pool.offer(1, "x")
        assert pool.seen_count(1) == 5
        assert pool.seen_count(2) == 0

    def test_require_index(self, pool):
        pool.offer(3, "x")
        assert pool.require_index(3) is not None
        with pytest.raises(BufferError_):
            pool.require_index(4)


class TestMemoryAccounting:
    def test_stored_bits(self, pool):
        pool.offer(1, "a")
        pool.offer(1, "b")
        assert pool.stored_bits == 112

    def test_peak_bits_high_water(self, pool):
        pool.offer(1, "a")
        pool.offer(2, "b")
        pool.release(1)
        assert pool.stored_bits == 56
        assert pool.peak_bits == 112

    def test_reset_peak(self, pool):
        pool.offer(1, "a")
        pool.offer(2, "b")
        pool.release(1)
        pool.reset_peak()
        assert pool.peak_bits == 56

    def test_offers_counter(self, pool):
        for i in range(4):
            pool.offer(1, i)
        assert pool.offers == 4


class TestIndexBound:
    def test_max_indices_blocks_new_intervals(self):
        pool = IndexedBufferPool(2, max_indices=2, item_bits=1, draw_key=KEY)
        assert pool.offer(1, "a").stored
        assert pool.offer(2, "b").stored
        assert not pool.offer(3, "c").stored
        assert pool.rejected_no_room == 1

    def test_existing_intervals_still_accept(self):
        pool = IndexedBufferPool(2, max_indices=1, item_bits=1, draw_key=KEY)
        pool.offer(1, "a")
        assert pool.offer(1, "b").stored

    def test_release_frees_slots(self):
        pool = IndexedBufferPool(1, max_indices=1, item_bits=1, draw_key=KEY)
        pool.offer(1, "a")
        pool.release(1)
        assert pool.offer(2, "b").stored


class TestStrategies:
    def test_keep_first_strategy(self):
        pool = IndexedBufferPool(2, item_bits=1, strategy="keep_first", draw_key=KEY)
        for i in range(10):
            pool.offer(1, i)
        assert pool.items(1) == [0, 1]

    def test_reservoir_strategy_replaces(self):
        pool = IndexedBufferPool(
            1, item_bits=1, strategy="reservoir", draw_key=3
        )
        for i in range(200):
            pool.offer(1, i)
        assert pool.items(1) != [0]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            IndexedBufferPool(1, item_bits=1, strategy="lifo")


class TestRetainProbability:
    def test_full_probability_when_room(self, pool):
        assert pool.retain_probability(1) == 1.0
        pool.offer(1, "a")
        assert pool.retain_probability(1) == 1.0

    def test_m_over_k_when_saturated(self):
        pool = IndexedBufferPool(2, item_bits=1, draw_key=KEY)
        for i in range(4):
            pool.offer(1, i)
        assert pool.retain_probability(1) == pytest.approx(2 / 5)


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            IndexedBufferPool(0, item_bits=1)

    def test_bad_max_indices(self):
        with pytest.raises(ConfigurationError):
            IndexedBufferPool(1, max_indices=0, item_bits=1)

    def test_bad_item_bits(self):
        with pytest.raises(ConfigurationError):
            IndexedBufferPool(1, item_bits=0)


class TestDrawKeys:
    def test_contents_follow_from_the_key(self):
        def run(key):
            pool = IndexedBufferPool(2, item_bits=1, draw_key=key)
            for i in range(60):
                pool.offer(1 + i % 3, i)
            return [pool.items(index) for index in (1, 2, 3)]

        assert run(7) == run(7)
        assert run(7) != run(8)
