"""Unit tests for chain renewal (multi-epoch DAP)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.protocols.base import AuthOutcome
from repro.protocols.messages import default_message
from repro.protocols.packets import FORGED, MacAnnouncePacket, MessageKeyPacket
from repro.protocols.renewal import (
    RENEWAL_TAG,
    RenewingDapReceiver,
    RenewingDapSender,
    encode_renewal,
    parse_renewal,
)
from repro.timesync.sync import LooseTimeSync

SEED = b"renewal-seed"
LOCAL = b"local-key"
EPOCH = 8


@pytest.fixture
def sender():
    return RenewingDapSender(
        SEED, epoch_length=EPOCH, epochs=3, renewal_lead=3, announce_copies=2
    )


@pytest.fixture
def receiver(sender):
    return RenewingDapReceiver(
        first_commitment=sender.chain(0).commitment,
        epoch_length=EPOCH,
        interval_duration=1.0,
        sync=LooseTimeSync(0.01),
        local_key=LOCAL,
        buffers=4,
        draw_key=1,
    )


def run(sender, receiver, first=1, last=None, drop=None):
    last = last or sender.total_intervals
    events = []
    for g in range(first, last + 1):
        now = g - 0.5
        for packet in sender.packets_for_interval(g):
            if drop is not None and drop(packet, g):
                continue
            events.extend(receiver.receive(packet, now))
    return events


class TestEncoding:
    def test_roundtrip(self):
        commitment = b"\xab" * 10
        assert parse_renewal(encode_renewal(commitment)) == commitment

    def test_ordinary_message_is_not_renewal(self):
        assert parse_renewal(default_message(3)) is None

    def test_encoded_is_paper_sized(self):
        assert len(encode_renewal(b"\x01" * 10)) == 25

    def test_bad_commitment_size_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_renewal(b"short")

    def test_tag_collision_with_payload_prefix(self):
        """A sensing payload starting with the tag parses as a handoff —
        callers must namespace payloads; the tag includes a NUL to make
        accidental collisions implausible."""
        fake = RENEWAL_TAG + b"\x07" * 10 + b"\x00" * 9
        assert parse_renewal(fake) == b"\x07" * 10


class TestSender:
    def test_handoff_in_trailing_intervals_only(self, sender):
        # epoch 0 covers globals 1..8; lead 3 -> handoffs in 6, 7, 8
        def handoff_announced(g):
            packets = sender.packets_for_interval(g)
            announces = [p for p in packets if isinstance(p, MacAnnouncePacket)]
            return len(announces) > 2  # 1 message * 2 copies + handoff copies

        assert not handoff_announced(3)
        assert handoff_announced(6)
        assert handoff_announced(8)

    def test_last_epoch_has_no_handoff(self, sender):
        packets = sender.packets_for_interval(sender.total_intervals)
        announces = [p for p in packets if isinstance(p, MacAnnouncePacket)]
        assert len(announces) == 2

    def test_boundary_reveal_uses_owning_chain(self, sender, mac_scheme):
        """Interval 8 (epoch 0) is revealed during interval 9 (epoch 1)
        with epoch 0's key."""
        packets = sender.packets_for_interval(EPOCH + 1)
        reveals = [p for p in packets if isinstance(p, MessageKeyPacket)]
        assert reveals
        assert all(r.index == EPOCH for r in reveals)
        assert reveals[0].key == sender.chain(0).key(EPOCH)

    def test_epoch_chains_are_independent(self, sender):
        assert sender.chain(0).commitment != sender.chain(1).commitment

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RenewingDapSender(SEED, epoch_length=2, epochs=2)
        with pytest.raises(ConfigurationError):
            RenewingDapSender(SEED, epoch_length=8, epochs=0)
        with pytest.raises(ConfigurationError):
            RenewingDapSender(SEED, epoch_length=8, epochs=2, renewal_lead=8)
        with pytest.raises(ConfigurationError):
            sender = RenewingDapSender(SEED, epoch_length=8, epochs=2)
            sender.packets_for_interval(17)
        with pytest.raises(ConfigurationError):
            RenewingDapSender(SEED, epoch_length=8, epochs=2).chain(5)


class TestRenewalProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_loss_free_run_renews_every_epoch(self, epoch_length, epochs, lead):
        sender = RenewingDapSender(
            SEED, epoch_length=epoch_length, epochs=epochs, renewal_lead=lead
        )
        receiver = RenewingDapReceiver(
            first_commitment=sender.chain(0).commitment,
            epoch_length=epoch_length,
            interval_duration=1.0,
            sync=LooseTimeSync(0.01),
            local_key=LOCAL,
            draw_key=1,
        )
        run(sender, receiver)
        assert receiver.known_epochs == list(range(epochs))
        assert receiver.renewed_epochs == set(range(1, epochs))
        assert receiver.stats.forged_accepted == 0

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_handoff_payloads_roundtrip(self, epoch):
        sender = RenewingDapSender(SEED, epoch_length=8, epochs=3)
        commitment = sender.chain(epoch % 3).commitment
        assert parse_renewal(encode_renewal(commitment)) == commitment


class TestReceiver:
    def test_seamless_three_epoch_run(self, sender, receiver):
        events = run(sender, receiver)
        authenticated = [e for e in events if e.outcome is AuthOutcome.AUTHENTICATED]
        # all intervals except the very last (never revealed) produce at
        # least their sensing message; handoffs add more.
        sensing = [
            e for e in authenticated if parse_renewal(e.message) is None
        ]
        assert len(sensing) == sender.total_intervals - 1
        assert receiver.known_epochs == [0, 1, 2]
        assert receiver.renewed_epochs == {1, 2}
        assert receiver.stats.forged_accepted == 0

    def test_global_indices_in_events(self, sender, receiver):
        events = run(sender, receiver, last=EPOCH + 2)
        indices = {e.index for e in events if e.outcome is AuthOutcome.AUTHENTICATED}
        assert EPOCH in indices  # boundary interval, revealed in epoch 1

    def test_lost_handoff_orphans_next_epoch(self, sender, receiver):
        def drop_handoffs(packet, _g):
            if isinstance(packet, MessageKeyPacket):
                return parse_renewal(packet.message) is not None
            return False

        run(sender, receiver, drop=drop_handoffs)
        assert receiver.known_epochs == [0]
        assert receiver.orphaned_epochs == {1, 2}
        assert receiver.orphaned_packets > 0

    def test_single_surviving_handoff_suffices(self, sender, receiver):
        seen = {"count": 0}

        def drop_all_but_first_handoff(packet, _g):
            if isinstance(packet, MessageKeyPacket) and parse_renewal(
                packet.message
            ) is not None:
                seen["count"] += 1
                return seen["count"] > 1
            return False

        run(sender, receiver, drop=drop_all_but_first_handoff)
        assert 1 in receiver.known_epochs

    def test_forged_handoff_cannot_hijack_the_chain(self, sender, receiver):
        """An attacker injecting a handoff for its own chain commitment
        fails strong authentication, so the real epoch 1 still works."""
        forged_commitment = b"\xee" * 10
        forged = MessageKeyPacket(
            6, encode_renewal(forged_commitment), b"\xee" * 10, provenance=FORGED
        )
        receiver.receive(forged, 5.5)
        run(sender, receiver)
        assert receiver.known_epochs == [0, 1, 2]
        # the receiver's epoch-1 commitment matches the authentic sender
        assert receiver.renewed_epochs == {1, 2}
        assert receiver.stats.forged_accepted == 0

    def test_handoff_survives_flooding(self, sender):
        receiver = RenewingDapReceiver(
            first_commitment=sender.chain(0).commitment,
            epoch_length=EPOCH,
            interval_duration=1.0,
            sync=LooseTimeSync(0.01),
            local_key=LOCAL,
            buffers=6,
            draw_key=3,
        )
        rng = random.Random(9)
        events = []
        for g in range(1, sender.total_intervals + 1):
            now = g - 0.5
            for _ in range(6):  # flood forged announcements every interval
                events.extend(
                    receiver.receive(
                        MacAnnouncePacket(
                            g,
                            bytes(rng.getrandbits(8) for _ in range(10)),
                            provenance=FORGED,
                        ),
                        now,
                    )
                )
            for packet in sender.packets_for_interval(g):
                events.extend(receiver.receive(packet, now))
        # With 3 redundant handoffs per boundary and 6 buffers, at least
        # one handoff record survives whp; epochs renew.
        assert receiver.known_epochs == [0, 1, 2]
        assert receiver.stats.forged_accepted == 0

    def test_wrong_packet_type_raises(self, receiver):
        with pytest.raises(TypeError):
            receiver.receive(object(), 0.0)

    def test_validation(self, sender):
        with pytest.raises(ConfigurationError):
            RenewingDapReceiver(
                first_commitment=sender.chain(0).commitment,
                epoch_length=2,
                interval_duration=1.0,
                sync=LooseTimeSync(0.01),
                local_key=LOCAL,
            )
