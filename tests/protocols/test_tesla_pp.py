"""Unit tests for TESLA++ and the DAP-vs-TESLA++ behavioural contrast."""

from __future__ import annotations

import random

import pytest

from repro.protocols.base import AuthOutcome
from repro.protocols.dap import DapReceiver
from repro.protocols.packets import FORGED, MacAnnouncePacket, MessageKeyPacket
from repro.protocols.tesla_pp import TeslaPlusPlusReceiver, TeslaPlusPlusSender
from tests.protocols.helpers import deliver, mid_interval, outcomes, run_intervals

SEED = b"teslapp-seed"
LOCAL = b"receiver-local-key"


@pytest.fixture
def sender():
    return TeslaPlusPlusSender(SEED, chain_length=15)


@pytest.fixture
def receiver(sender, condition):
    return TeslaPlusPlusReceiver(
        sender.chain.commitment, condition, LOCAL, buffers=3, draw_key=1
    )


class TestTeslaPlusPlus:
    def test_loss_free_run(self, sender, receiver):
        events = run_intervals(sender, receiver, 15)
        assert len(outcomes(events, AuthOutcome.AUTHENTICATED)) == 14
        assert receiver.stats.forged_accepted == 0

    def test_record_is_112_bits(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        assert receiver.record_bits == 112
        assert receiver.buffered_bits == 112

    def test_records_wider_than_dap(self, sender, condition):
        teslapp = TeslaPlusPlusReceiver(
            sender.chain.commitment, condition, LOCAL, draw_key=1
        )
        assert teslapp.record_bits == 2 * 56

    def test_forged_reveal_rejected(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        forged = MessageKeyPacket(1, b"f" * 25, b"\xff" * 10, provenance=FORGED)
        events = deliver(receiver, [forged], mid_interval(2))
        assert outcomes(events, AuthOutcome.REJECTED_WEAK_AUTH)

    def test_wrong_packet_type_raises(self, receiver):
        with pytest.raises(TypeError):
            receiver.receive(3.14, 0.0)

    def test_expire_frees_memory(self, sender, receiver):
        deliver(receiver, sender.packets_for_interval(1), mid_interval(1))
        receiver.expire_older_than(10)
        assert receiver.buffered_bits == 0


class TestKeepFirstVsReservoir:
    """The behavioural gap the paper's buffer-selection rule closes."""

    def _run_front_loaded_flood(self, receiver, sender, intervals, forged_per):
        rng = random.Random(17)
        authenticated = 0
        for i in range(1, intervals + 1):
            now = mid_interval(i)
            flood = [
                MacAnnouncePacket(
                    i, bytes(rng.getrandbits(8) for _ in range(10)), provenance=FORGED
                )
                for _ in range(forged_per)
            ]
            packets = sender.packets_for_interval(i)
            announces = [p for p in packets if isinstance(p, MacAnnouncePacket)]
            reveals = [p for p in packets if isinstance(p, MessageKeyPacket)]
            deliver(receiver, flood, now)  # flood arrives FIRST
            deliver(receiver, announces, now)
            events = deliver(receiver, reveals, now)
            authenticated += len(outcomes(events, AuthOutcome.AUTHENTICATED))
        return authenticated

    def test_keep_first_starved_by_front_loaded_flood(self, condition):
        sender = TeslaPlusPlusSender(SEED, 41, announce_copies=3)
        receiver = TeslaPlusPlusReceiver(
            sender.chain.commitment, condition, LOCAL, buffers=3,
            draw_key=1,
        )
        authenticated = self._run_front_loaded_flood(receiver, sender, 40, 10)
        assert authenticated == 0
        assert receiver.stats.forged_accepted == 0

    def test_dap_reservoir_survives_same_flood(self, condition):
        from repro.protocols.dap import DapSender

        sender = DapSender(SEED, 41, announce_copies=3)
        receiver = DapReceiver(
            sender.chain.commitment, condition, LOCAL, buffers=3,
            draw_key=1,
        )
        authenticated = self._run_front_loaded_flood(receiver, sender, 40, 10)
        # 3 authentic of 13 copies, m=3: survival = 1 - C(10,3)/C(13,3).
        assert authenticated > 10
        assert receiver.stats.forged_accepted == 0
