"""Unit tests for EDRP: hash-chained CDMs and authentication continuity."""

from __future__ import annotations

import pytest

from repro.crypto.onewayfn import standard_functions
from repro.errors import ConfigurationError
from repro.protocols.edrp import EdrpReceiver, EdrpSender, edrp_params
from repro.protocols.multilevel import cdm_digest_payload
from repro.protocols.packets import FORGED, CdmPacket
from repro.timesync.intervals import TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync
from tests.protocols.test_multilevel import make_params, run_flat_intervals

SEED = b"edrp-seed"
LOW_PER_HIGH = 4


@pytest.fixture
def two_level():
    return TwoLevelSchedule(0.0, 1.0, LOW_PER_HIGH)


@pytest.fixture
def params():
    return edrp_params(make_params())


@pytest.fixture
def sender(params):
    return EdrpSender(SEED, params)


@pytest.fixture
def receiver(sender, two_level, params):
    receiver = EdrpReceiver(
        sender.chain.high_chain.commitment,
        two_level,
        LooseTimeSync(0.01),
        params,
        cdm_buffers=4,
        draw_key=9,
    )
    receiver.bootstrap_commitment(1, sender.chain.low_commitment(1))
    return receiver


class TestEdrpConfiguration:
    def test_params_helper(self, params):
        assert params.cdm_hash_chaining
        assert params.key_chain_recovery

    def test_sender_requires_chaining(self):
        with pytest.raises(ConfigurationError):
            EdrpSender(SEED, make_params())

    def test_receiver_requires_chaining(self, sender, two_level):
        with pytest.raises(ConfigurationError):
            EdrpReceiver(
                sender.chain.high_chain.commitment,
                two_level,
                LooseTimeSync(0.01),
                make_params(),
            )


class TestEdrpHashChain:
    def test_cdms_carry_next_hash(self, sender):
        fns = standard_functions()
        cdm1 = sender.cdm(1)
        cdm2 = sender.cdm(2)
        assert cdm1.next_cdm_hash == fns["H"](cdm_digest_payload(cdm2))

    def test_last_cdm_has_no_next_hash(self, sender, params):
        assert sender.cdm(params.high_length).next_cdm_hash is None

    def test_hash_adds_80_wire_bits(self, sender):
        # CDM_2 carries both a disclosed key and the EDRP hash.
        plain_with_disclosure = CdmPacket(2, b"c" * 10, b"m" * 10, 1, b"k" * 10)
        assert sender.cdm(2).wire_bits == plain_with_disclosure.wire_bits + 80


class TestEdrpBehaviour:
    def test_immediate_hash_authentication_fires(self, sender, receiver):
        """Once CDM_i authenticates, the next CDM authenticates on first
        arrival — no buffering round-trip."""
        run_flat_intervals(sender, receiver, 16)
        assert receiver.cdm_stats.immediate_hash_auth >= 1

    def test_forged_cdm_fails_hash_check(self, sender, receiver):
        run_flat_intervals(sender, receiver, 10)
        # Find a high interval whose hash is pinned but not yet authenticated.
        target = max(receiver.cdm_stats.authenticated + 1, 3)
        forged = CdmPacket(
            high_index=target,
            low_commitment=b"\x00" * 10,
            mac=b"\x00" * 10,
            disclosed_index=0,
            disclosed_key=None,
            next_cdm_hash=b"\x00" * 10,
            provenance=FORGED,
        )
        before = receiver.cdm_stats.authenticated
        receiver.receive(forged, 9.5)
        assert receiver.cdm_stats.forged_accepted == 0
        assert receiver.cdm_stats.authenticated == before

    def test_continuity_under_high_disclosure_loss(self, sender, receiver, params):
        """Even when every disclosed high key is stripped from CDMs after
        interval 2, hash chaining keeps authenticating CDMs."""
        import dataclasses

        def strip_late_disclosures(packet, _flat):
            return True

        events = []
        for flat in range(1, 29):
            now = flat - 0.5
            for packet in sender.packets_for_interval(flat):
                if isinstance(packet, CdmPacket) and packet.high_index > 2:
                    packet = dataclasses.replace(
                        packet, disclosed_key=None, disclosed_index=0
                    )
                events.extend(receiver.receive(packet, now))
        # CDMs beyond interval 2 cannot authenticate via key disclosure
        # (none arrive), yet the hash chain keeps the sequence alive.
        assert receiver.cdm_stats.immediate_hash_auth >= 3
        assert receiver.cdm_stats.authenticated >= 4

    def test_loss_free_run(self, sender, receiver, params):
        events = run_flat_intervals(sender, receiver, 24)
        authenticated = [e for e in events if e.outcome.value == "authenticated"]
        assert len(authenticated) == 24 - params.low_disclosure_delay
        assert receiver.stats.forged_accepted == 0
