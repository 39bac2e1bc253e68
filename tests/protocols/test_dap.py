"""Unit tests for DAP (Algorithms 1 and 2)."""

from __future__ import annotations

import random

import pytest

from repro.protocols.base import AuthOutcome
from repro.protocols.dap import DapReceiver, DapSender
from repro.protocols.packets import (
    FORGED,
    MacAnnouncePacket,
    MessageKeyPacket,
)
from tests.protocols.helpers import deliver, mid_interval, outcomes, run_intervals

SEED = b"dap-seed"
LOCAL = b"receiver-local-key"


@pytest.fixture
def sender():
    return DapSender(SEED, chain_length=20, disclosure_delay=1)


@pytest.fixture
def receiver(sender, condition):
    return DapReceiver(
        sender.chain.commitment, condition, LOCAL, buffers=4, draw_key=1
    )


class TestDapSender:
    def test_announce_phase_has_no_message(self, sender):
        packets = sender.packets_for_interval(1)
        assert all(isinstance(p, MacAnnouncePacket) for p in packets)

    def test_reveal_follows_one_interval_later(self, sender):
        packets = sender.packets_for_interval(2)
        reveals = [p for p in packets if isinstance(p, MessageKeyPacket)]
        assert len(reveals) == 1
        assert reveals[0].index == 1
        assert reveals[0].key == sender.chain.key(1)

    def test_reveal_carries_the_announced_message(self, sender, mac_scheme):
        announce = sender.packets_for_interval(3)[0]
        reveal = next(
            p
            for p in sender.packets_for_interval(4)
            if isinstance(p, MessageKeyPacket)
        )
        assert mac_scheme.compute(reveal.key, reveal.message) == announce.mac

    def test_announce_copies(self):
        sender = DapSender(SEED, 10, announce_copies=4)
        announces = [
            p
            for p in sender.packets_for_interval(1)
            if isinstance(p, MacAnnouncePacket)
        ]
        assert len(announces) == 4

    def test_announce_is_112_bits(self, sender):
        assert sender.packets_for_interval(1)[0].wire_bits == 112


class TestDapAuthentication:
    def test_loss_free_run(self, sender, receiver):
        events = run_intervals(sender, receiver, 20)
        assert len(outcomes(events, AuthOutcome.AUTHENTICATED)) == 19
        assert receiver.stats.forged_accepted == 0

    def test_weak_auth_rejects_garbage_key(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        forged = MessageKeyPacket(1, b"f" * 25, b"\xff" * 10, provenance=FORGED)
        events = deliver(receiver, [forged], mid_interval(2))
        assert outcomes(events, AuthOutcome.REJECTED_WEAK_AUTH)

    def test_strong_auth_rejects_forged_message_with_real_key(
        self, sender, receiver
    ):
        """Replaying the genuine key with a different message passes weak
        auth but fails the μMAC comparison."""
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        forged = MessageKeyPacket(
            1, b"f" * 25, sender.chain.key(1), provenance=FORGED
        )
        events = deliver(receiver, [forged], mid_interval(2))
        assert outcomes(events, AuthOutcome.REJECTED_FORGED)
        assert receiver.stats.forged_accepted == 0

    def test_forged_announce_cannot_authenticate_anything(self, sender, receiver):
        """A forged MAC stored in the buffer never matches a reveal the
        attacker can actually produce (it would need the undisclosed key)."""
        forged_announce = MacAnnouncePacket(1, b"\x00" * 10, provenance=FORGED)
        deliver(receiver, [forged_announce] * 4, mid_interval(1))
        run_intervals(sender, receiver, 3)
        assert receiver.stats.forged_accepted == 0

    def test_stale_announce_discarded(self, sender, receiver):
        announce = sender.packets_for_interval(1)[0]
        events = deliver(receiver, [announce], mid_interval(3))
        assert outcomes(events, AuthOutcome.DISCARDED_UNSAFE)

    def test_lost_announce_means_lost_message(self, sender, receiver):
        """No buffered record -> the reveal cannot strong-authenticate."""
        reveal = next(
            p
            for p in sender.packets_for_interval(2)
            if isinstance(p, MessageKeyPacket)
        )
        events = deliver(receiver, [reveal], mid_interval(2))
        assert outcomes(events, AuthOutcome.LOST_NO_RECORD)

    def test_duplicate_reveal_resolves_once(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        reveal = next(
            p
            for p in sender.packets_for_interval(2)
            if isinstance(p, MessageKeyPacket)
        )
        first = deliver(receiver, [reveal], mid_interval(2))
        second = deliver(receiver, [reveal], mid_interval(2))
        assert len(outcomes(first, AuthOutcome.AUTHENTICATED)) == 1
        assert second == []

    def test_record_memory_is_56_bits_per_copy(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        assert receiver.buffered_bits == 56

    def test_expire_frees_memory(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        assert receiver.expire_older_than(10) == 1
        assert receiver.buffered_bits == 0

    def test_wrong_packet_type_raises(self, receiver):
        with pytest.raises(TypeError):
            receiver.receive("nope", 0.0)

    def test_observations_record_stored_and_matched(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        deliver(receiver, sender.packets_for_interval(2), mid_interval(2))
        observations = receiver.observations
        assert observations == [(1, 1, 1)]

    def test_observations_see_forged_records(self, sender, receiver):
        forged = [
            MacAnnouncePacket(1, bytes([i]) * 10, provenance=FORGED)
            for i in range(3)
        ]
        deliver(receiver, forged, mid_interval(1))
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        deliver(receiver, sender.packets_for_interval(2), mid_interval(2))
        interval, stored, matched = receiver.observations[0]
        assert interval == 1
        assert stored == 4
        assert matched == 1

    def test_observation_log_is_bounded(self, condition):
        """The reveal-observation journal must not grow unboundedly."""
        sender = DapSender(SEED, 1300)
        receiver = DapReceiver(
            sender.chain.commitment, condition, LOCAL, buffers=2, draw_key=1
        )
        for interval in range(1, 1201):
            deliver(
                receiver, sender.packets_for_interval(interval), mid_interval(interval)
            )
        assert len(receiver.observations) <= 1024

    def test_old_records_released_after_reveal(self, sender, receiver):
        """Housekeeping: once interval i reveals, intervals < i - 1 are
        freed (one interval of reorder slack)."""
        for interval in range(1, 5):
            deliver(
                receiver, sender.packets_for_interval(interval), mid_interval(interval)
            )
        # reveal for interval 3 arrived in interval 4 -> interval 1 freed;
        # footprint stays at <= 3 outstanding intervals regardless of age.
        assert receiver.buffered_bits <= 3 * 56

    def test_reordered_adjacent_reveals_still_authenticate(self, sender, receiver):
        """The slack at work: interval 2's reveal arriving after interval
        3's must still find its record."""
        for interval in (1, 2, 3):
            for packet in sender.packets_for_interval(interval):
                if isinstance(packet, MessageKeyPacket):
                    continue  # hold all reveals back
                receiver.receive(packet, mid_interval(interval))
        reveal = lambda i: next(  # noqa: E731
            p
            for p in sender.packets_for_interval(i + 1)
            if isinstance(p, MessageKeyPacket)
        )
        receiver.receive(reveal(3), mid_interval(4))
        events = receiver.receive(reveal(2), mid_interval(4))
        assert outcomes(events, AuthOutcome.AUTHENTICATED)


class TestDapUnderFlood:
    def _flood_and_run(self, sender, receiver, p, intervals=30, copies=5):
        forged_per_interval = round(copies * p / (1 - p))
        rng = random.Random(99)
        authenticated = 0
        for i in range(1, intervals + 1):
            now = mid_interval(i)
            flood = [
                MacAnnouncePacket(
                    i, bytes(rng.getrandbits(8) for _ in range(10)), provenance=FORGED
                )
                for _ in range(forged_per_interval)
            ]
            announces = [
                p_
                for p_ in sender.packets_for_interval(i)
                if isinstance(p_, MacAnnouncePacket)
            ]
            reveals = [
                p_
                for p_ in sender.packets_for_interval(i)
                if isinstance(p_, MessageKeyPacket)
            ]
            deliver(receiver, flood, now)
            deliver(receiver, announces, now)
            events = deliver(receiver, reveals, now)
            authenticated += len(outcomes(events, AuthOutcome.AUTHENTICATED))
        return authenticated

    def test_survival_tracks_one_minus_p_to_the_m(self, condition):
        p, m, copies, intervals = 0.8, 3, 5, 200
        sender = DapSender(SEED, intervals + 1, announce_copies=copies)
        receiver = DapReceiver(
            sender.chain.commitment,
            condition,
            LOCAL,
            buffers=m,
            draw_key=5,
        )
        authenticated = self._flood_and_run(sender, receiver, p, intervals, copies)
        survival = authenticated / (intervals - 1)
        # hypergeometric survival for 5 authentic + 20 forged, m = 3
        from math import comb

        expected = 1.0 - comb(20, m) / comb(25, m)
        assert survival == pytest.approx(expected, abs=0.1)
        assert receiver.stats.forged_accepted == 0

    def test_more_buffers_higher_survival(self, condition):
        results = {}
        for m in (1, 4, 12):
            sender = DapSender(SEED, 121, announce_copies=5)
            receiver = DapReceiver(
                sender.chain.commitment,
                condition,
                LOCAL,
                buffers=m,
                draw_key=m,
            )
            results[m] = self._flood_and_run(sender, receiver, 0.8, 120, 5)
        assert results[1] < results[4] < results[12]
