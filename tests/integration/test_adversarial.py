"""Adversarial robustness: fuzzing and attack strategies beyond flooding.

The flooding attacker is the paper's threat model; a credible
implementation must also survive *malformed* and *crafted* traffic:
random bytes in every field, replays, key reuse across protocols, and
μMAC collision hunting. Receivers must never crash and never
authenticate anything not originated by the sender (modulo the
explicitly probabilistic μMAC width, demonstrated at the end).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.base import AuthOutcome
from repro.protocols.dap import DapReceiver, DapSender
from repro.protocols.mu_tesla import MuTeslaReceiver, MuTeslaSender
from repro.protocols.packets import (
    FORGED,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
)
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"adversarial-seed"
LOCAL = b"local-key"


def make_condition(delay=1):
    return SecurityCondition(
        IntervalSchedule(0.0, 1.0), LooseTimeSync(0.01), disclosure_delay=delay
    )


# Strategies for arbitrary protocol-field values.
some_bytes = st.binary(min_size=0, max_size=40)
some_index = st.integers(min_value=-5, max_value=10 ** 6)
some_time = st.floats(min_value=-10.0, max_value=10 ** 5, allow_nan=False)


class TestDapFuzzing:
    @given(some_index, some_bytes, some_time)
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_announces_never_crash_or_authenticate(
        self, index, mac, now
    ):
        sender = DapSender(SEED, 10)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        packet = MacAnnouncePacket(index, mac, provenance=FORGED)
        events = receiver.receive(packet, max(now, 0.0))
        assert all(e.outcome is not AuthOutcome.AUTHENTICATED for e in events)
        assert receiver.stats.forged_accepted == 0

    @given(some_index, some_bytes, some_bytes)
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_reveals_never_authenticate(self, index, message, key):
        sender = DapSender(SEED, 10)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        # Prime with an authentic announce so there is something to match.
        for packet in sender.packets_for_interval(1):
            receiver.receive(packet, 0.5)
        if key == b"":
            return  # wire layer would reject an empty key field
        forged = MessageKeyPacket(index, message, key, provenance=FORGED)
        receiver.receive(forged, 1.5)
        assert receiver.stats.forged_accepted == 0

    @given(st.lists(st.tuples(some_index, some_bytes), max_size=20))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_interleaved_garbage_does_not_block_authentic_traffic(self, garbage):
        sender = DapSender(SEED, 12, announce_copies=3)
        receiver = DapReceiver(
            sender.chain.commitment, make_condition(), LOCAL, buffers=8,
            draw_key=1,
        )
        rng = random.Random(7)
        for interval in range(1, 11):
            now = interval - 0.5
            for index, mac in garbage:
                receiver.receive(
                    MacAnnouncePacket(abs(index) % 12 + 1, mac, provenance=FORGED),
                    now,
                )
            for packet in sender.packets_for_interval(interval):
                receiver.receive(packet, now)
        assert receiver.stats.forged_accepted == 0
        # with 8 buffers and <= 20 garbage copies, authentic records
        # survive often; at least some intervals must authenticate.
        assert receiver.stats.authenticated >= 5


class TestMuTeslaFuzzing:
    @given(some_index, some_bytes, some_bytes, some_time)
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_data_packets(self, index, message, mac, now):
        sender = MuTeslaSender(SEED, 10)
        receiver = MuTeslaReceiver(sender.chain.commitment, make_condition(2))
        packet = MuTeslaDataPacket(index, message, mac, provenance=FORGED)
        receiver.receive(packet, max(now, 0.0))
        assert receiver.stats.forged_accepted == 0

    @given(some_index, some_bytes)
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_disclosures_never_corrupt_the_chain(self, index, key):
        sender = MuTeslaSender(SEED, 10)
        receiver = MuTeslaReceiver(sender.chain.commitment, make_condition(2))
        receiver.receive(
            KeyDisclosurePacket(index, key, provenance=FORGED), 5.5
        )
        # Authentic traffic must still verify afterwards.
        for interval in range(1, 9):
            for packet in sender.packets_for_interval(interval):
                receiver.receive(packet, interval - 0.5 + 5.0)
        # (packets delivered late look unsafe; drive again on time)
        receiver2 = MuTeslaReceiver(sender.chain.commitment, make_condition(2))
        receiver2.receive(KeyDisclosurePacket(index, key, provenance=FORGED), 0.5)
        for interval in range(1, 9):
            for packet in sender.packets_for_interval(interval):
                receiver2.receive(packet, interval - 0.5)
        assert receiver2.stats.authenticated >= 6
        assert receiver2.stats.forged_accepted == 0


class TestComputationalDosHardening:
    def test_huge_disclosure_index_is_cheap_to_reject(self):
        """A forged reveal claiming index 10^6 must be rejected without
        walking the hash chain a million times (gap bound)."""
        import time

        sender = DapSender(SEED, 10)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        forged = MessageKeyPacket(10 ** 6, b"f" * 25, b"\x01" * 10, provenance=FORGED)
        start = time.perf_counter()
        events = receiver.receive(forged, 0.5)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        assert events[0].outcome is AuthOutcome.REJECTED_WEAK_AUTH

    def test_future_interval_announce_cannot_allocate_memory(self):
        """Announces claiming far-future intervals are implausible and
        never buffered — closing the state-exhaustion vector."""
        sender = DapSender(SEED, 10)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        for future in (5, 100, 10 ** 6):
            events = receiver.receive(
                MacAnnouncePacket(future, b"\x02" * 10, provenance=FORGED), 0.5
            )
            assert events[0].outcome is AuthOutcome.DISCARDED_UNSAFE
        assert receiver.buffered_bits == 0

    def test_mu_tesla_huge_disclosure_is_cheap(self):
        import time

        sender = MuTeslaSender(SEED, 10)
        receiver = MuTeslaReceiver(sender.chain.commitment, make_condition(2))
        start = time.perf_counter()
        receiver.receive(
            KeyDisclosurePacket(10 ** 6, b"\x03" * 10, provenance=FORGED), 0.5
        )
        assert time.perf_counter() - start < 0.1


class TestReplayStrategies:
    def test_reveal_replay_is_idempotent(self):
        """Replaying the sender's own reveal packets gains nothing."""
        sender = DapSender(SEED, 8)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        for interval in range(1, 8):
            now = interval - 0.5
            packets = list(sender.packets_for_interval(interval))
            for packet in packets:
                receiver.receive(packet, now)
            # adversary replays every reveal three times
            for packet in packets:
                if isinstance(packet, MessageKeyPacket):
                    for _ in range(3):
                        receiver.receive(packet, now)
        assert receiver.stats.authenticated == 6  # one per revealed interval

    def test_cross_interval_key_replay(self):
        """Using interval 1's (public) key to forge interval 3 fails:
        the chain authenticator refuses stale keys as newer indices."""
        sender = DapSender(SEED, 8)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        for interval in (1, 2, 3):
            for packet in sender.packets_for_interval(interval):
                receiver.receive(packet, interval - 0.5)
        old_key = sender.chain.key(1)
        forged = MessageKeyPacket(3, b"f" * 25, old_key, provenance=FORGED)
        events = receiver.receive(forged, 3.5)
        assert any(
            e.outcome in (AuthOutcome.REJECTED_WEAK_AUTH, AuthOutcome.REJECTED_FORGED)
            for e in events
        )
        assert receiver.stats.forged_accepted == 0

    def test_cross_protocol_key_reuse(self):
        """A key chain from a parallel deployment (different seed) never
        authenticates here, even with identical parameters."""
        sender = DapSender(SEED, 8)
        other = DapSender(b"other-deployment", 8)
        receiver = DapReceiver(sender.chain.commitment, make_condition(), LOCAL)
        for packet in other.packets_for_interval(1):
            receiver.receive(packet, 0.5)
        for packet in other.packets_for_interval(2):
            receiver.receive(packet, 1.5)
        assert receiver.stats.authenticated == 0
        assert receiver.stats.rejected_weak_auth >= 1


class TestPaperLiteralConditionExploit:
    """Algorithm 2 line 2 discards a packet only when ``i + d < x`` —
    which *accepts* announcements arriving during interval ``i + d``,
    the very interval in which ``K_i`` is being disclosed. An attacker
    who hears the disclosure early in that interval can forge:

    1. learn ``K_i`` from the sender's reveal at the start of ``I_{i+d}``,
    2. announce ``MAC_{K_i}(M_forged)`` later in ``I_{i+d}`` — admitted
       by the paper's literal inequality,
    3. reveal ``(i, M_forged, K_i)`` — weak auth passes (genuine key),
       strong auth matches the attacker's own planted record.

    The textbook condition (``x < i + d``) blocks step 2. This is why
    the implementation defaults to the conservative check and keeps the
    paper's inequality only behind ``paper_literal=True``.
    """

    def _attack(self, paper_literal: bool) -> DapReceiver:
        schedule = IntervalSchedule(0.0, 1.0)
        condition = SecurityCondition(
            schedule, LooseTimeSync(0.0), disclosure_delay=1,
            paper_literal=paper_literal,
        )
        sender = DapSender(SEED, 10)
        receiver = DapReceiver(sender.chain.commitment, condition, LOCAL, buffers=4)
        # interval 1: sender's announce
        for packet in sender.packets_for_interval(1):
            receiver.receive(packet, 0.5)
        # interval 2 begins: the sender reveals (M_1, K_1) — public now.
        key_1 = sender.chain.key(1)
        from repro.crypto.mac import MacScheme

        forged_message = b"attacker-controlled-data!"
        forged_mac = MacScheme().compute(key_1, forged_message)
        # step 2: attacker's late announcement for interval 1, sent at
        # t = 1.4 (inside I_2 = I_{1+d}).
        receiver.receive(MacAnnouncePacket(1, forged_mac, provenance=FORGED), 1.4)
        # step 3: attacker's reveal with the genuine (now public) key.
        receiver.receive(
            MessageKeyPacket(1, forged_message, key_1, provenance=FORGED), 1.6
        )
        return receiver

    def test_paper_literal_inequality_is_forgeable(self):
        receiver = self._attack(paper_literal=True)
        assert receiver.stats.forged_accepted == 1

    def test_textbook_condition_blocks_the_attack(self):
        receiver = self._attack(paper_literal=False)
        assert receiver.stats.forged_accepted == 0
        assert receiver.stats.discarded_unsafe >= 1


class TestMicroMacWidthBoundary:
    """The 24-bit μMAC makes forgery-by-collision a 2^-24 event. This is
    a *probabilistic* boundary: shrink the μMAC enough and collisions
    become findable — demonstrating why the width matters and that the
    zero-forgery invariant is parameterised by it."""

    def _collision_attempts(self, micro_bits: int, attempts: int) -> int:
        sender = DapSender(SEED, 3)
        receiver = DapReceiver(
            sender.chain.commitment,
            make_condition(),
            LOCAL,
            buffers=4,
            micro_mac_bits=micro_bits,
        )
        for packet in sender.packets_for_interval(1):
            receiver.receive(packet, 0.5)
        genuine_key = sender.chain.key(1)
        accepted = 0
        for nonce in range(attempts):
            forged = MessageKeyPacket(
                1, b"forged-%08d" % nonce + b"x" * 11, genuine_key,
                provenance=FORGED,
            )
            events = receiver.receive(forged, 1.5)
            accepted += sum(
                e.outcome is AuthOutcome.AUTHENTICATED for e in events
            )
        return accepted

    def test_tiny_micro_mac_is_forgeable(self):
        """With 6-bit μMACs (64 values), a few hundred candidate messages
        find a collision — the attack the 24-bit width prices out."""
        accepted = self._collision_attempts(micro_bits=6, attempts=600)
        assert accepted >= 1

    def test_paper_width_resists_the_same_budget(self):
        accepted = self._collision_attempts(micro_bits=24, attempts=600)
        assert accepted == 0
