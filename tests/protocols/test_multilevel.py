"""Unit tests for multi-level μTESLA (and shared EFTP/EDRP machinery)."""

from __future__ import annotations

import random
from typing import Callable, Optional

import pytest

from repro.errors import ConfigurationError
from repro.protocols.base import AuthOutcome
from repro.protocols.multilevel import (
    MultiLevelParams,
    MultiLevelReceiver,
    MultiLevelSender,
    cdm_digest_payload,
)
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    KeyDisclosurePacket,
    MuTeslaDataPacket,
)
from repro.timesync.intervals import TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync

SEED = b"multilevel-seed"
LOW_PER_HIGH = 4


def make_params(**overrides) -> MultiLevelParams:
    defaults = dict(
        high_length=8,
        low_length=LOW_PER_HIGH,
        high_disclosure_delay=1,
        low_disclosure_delay=2,
        cdm_copies=4,
        packets_per_low_interval=1,
    )
    defaults.update(overrides)
    return MultiLevelParams(**defaults)


@pytest.fixture
def params():
    return make_params()


@pytest.fixture
def two_level():
    return TwoLevelSchedule(0.0, 1.0, LOW_PER_HIGH)


@pytest.fixture
def sender(params):
    return MultiLevelSender(SEED, params)


def make_receiver(sender, two_level, params, **overrides) -> MultiLevelReceiver:
    kwargs = dict(
        high_commitment=sender.chain.high_chain.commitment,
        schedule=two_level,
        sync=LooseTimeSync(0.01),
        params=params,
        cdm_buffers=4,
        draw_key=11,
    )
    kwargs.update(overrides)
    receiver = MultiLevelReceiver(**kwargs)
    receiver.bootstrap_commitment(1, sender.chain.low_commitment(1))
    return receiver


def run_flat_intervals(
    sender,
    receiver,
    flats: int,
    packet_filter: Optional[Callable[[object, int], bool]] = None,
):
    """Deliver flat intervals 1..flats mid-interval, with optional loss."""
    events = []
    for flat in range(1, flats + 1):
        now = flat - 0.5
        for packet in sender.packets_for_interval(flat):
            if packet_filter is not None and not packet_filter(packet, flat):
                continue
            events.extend(receiver.receive(packet, now))
    return events


class TestMultiLevelParams:
    def test_split_flatten_roundtrip(self, params):
        for flat in range(1, 33):
            assert params.flatten(*params.split(flat)) == flat

    def test_total_low_intervals(self, params):
        assert params.total_low_intervals == 32

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_params(high_length=1)
        with pytest.raises(ConfigurationError):
            make_params(low_length=0)
        with pytest.raises(ConfigurationError):
            make_params(cdm_copies=0)
        with pytest.raises(ConfigurationError):
            make_params(low_disclosure_delay=0)


class TestMultiLevelSender:
    def test_cdm_distributes_next_commitment(self, sender):
        cdm = sender.cdm(2)
        assert cdm.low_commitment == sender.chain.low_commitment(3)

    def test_cdm_discloses_lagged_high_key(self, sender):
        cdm = sender.cdm(3)
        assert cdm.disclosed_index == 2
        assert cdm.disclosed_key == sender.chain.high_key(2)

    def test_first_cdm_has_no_disclosure(self, sender):
        assert sender.cdm(1).disclosed_key is None

    def test_cdm_copies_spread_over_sub_intervals(self, sender, params):
        per_sub = [
            sum(
                1
                for p in sender.packets_for_interval(params.flatten(2, sub))
                if isinstance(p, CdmPacket)
            )
            for sub in range(1, LOW_PER_HIGH + 1)
        ]
        assert sum(per_sub) == params.cdm_copies
        assert max(per_sub) - min(per_sub) <= 1

    def test_data_macs_use_low_key(self, sender, mac_scheme, params):
        flat = params.flatten(2, 3)
        data = [
            p
            for p in sender.packets_for_interval(flat)
            if isinstance(p, MuTeslaDataPacket)
        ][0]
        assert mac_scheme.verify(sender.chain.low_key(2, 3), data.message, data.mac)

    def test_low_disclosures_cross_high_boundary(self, sender, params):
        """Keys of the last sub-intervals disclose in the next high interval."""
        flat = params.flatten(3, 1)  # discloses flat - 2 = (2, 3)
        keys = [
            p
            for p in sender.packets_for_interval(flat)
            if isinstance(p, KeyDisclosurePacket)
        ]
        assert keys[0].index == flat - 2
        assert keys[0].key == sender.chain.low_key(2, 3)

    def test_no_hash_chain_by_default(self, sender):
        assert sender.cdm(1).next_cdm_hash is None

    def test_out_of_range_flat_rejected(self, sender, params):
        with pytest.raises(ConfigurationError):
            sender.packets_for_interval(params.total_low_intervals + 1)


class TestMultiLevelAuthentication:
    def test_loss_free_run(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        events = run_flat_intervals(sender, receiver, 24)
        authenticated = [
            e for e in events if e.outcome is AuthOutcome.AUTHENTICATED
        ]
        # all but the trailing low_disclosure_delay intervals verify
        assert len(authenticated) == 24 - params.low_disclosure_delay
        assert receiver.stats.forged_accepted == 0
        assert receiver.cdm_stats.forged_accepted == 0

    def test_cdms_authenticate_via_high_disclosure(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        run_flat_intervals(sender, receiver, 12)
        assert receiver.cdm_stats.authenticated >= 2
        assert 2 in receiver.known_commitments
        assert 3 in receiver.known_commitments

    def test_forged_cdm_copies_never_accepted(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        rng = random.Random(5)

        for flat in range(1, 13):
            now = flat - 0.5
            high = params.split(flat)[0]
            forged = CdmPacket(
                high_index=high,
                low_commitment=bytes(rng.getrandbits(8) for _ in range(10)),
                mac=bytes(rng.getrandbits(8) for _ in range(10)),
                disclosed_index=0,
                disclosed_key=None,
                provenance=FORGED,
            )
            receiver.receive(forged, now)
            for packet in sender.packets_for_interval(flat):
                receiver.receive(packet, now)
        assert receiver.cdm_stats.forged_accepted == 0
        assert receiver.cdm_stats.copies_forged > 0
        # authentic commitments still learned despite the flood
        assert 2 in receiver.known_commitments

    def test_commitment_recovery_when_all_cdms_lost(self, sender, two_level, params):
        """Drop every CDM carrying chain 3's commitment (i.e. CDM_2);
        the receiver rebuilds it from a later disclosed high key."""
        receiver = make_receiver(sender, two_level, params)

        def drop_cdm2_commitment(packet, _flat):
            return not (isinstance(packet, CdmPacket) and packet.high_index == 2)

        run_flat_intervals(sender, receiver, 20, drop_cdm2_commitment)
        assert 3 in receiver.known_commitments
        assert receiver.cdm_stats.recovered_commitments >= 1

    def test_recovery_disabled_loses_chain(self, sender, two_level):
        params = make_params(key_chain_recovery=False)
        sender = MultiLevelSender(SEED, params)
        receiver = make_receiver(sender, two_level, params)

        def drop_cdm2(packet, _flat):
            return not (isinstance(packet, CdmPacket) and packet.high_index == 2)

        run_flat_intervals(sender, receiver, 20, drop_cdm2)
        assert 3 not in receiver.known_commitments

    def test_data_before_commitment_buffers_then_verifies(
        self, sender, two_level, params
    ):
        """Data for chain 2 arriving before CDM_1 authenticates is held
        and verified once the commitment (and keys) arrive."""
        receiver = make_receiver(sender, two_level, params)

        def drop_early_cdms(packet, flat):
            return not (isinstance(packet, CdmPacket) and flat <= 6)

        events = run_flat_intervals(sender, receiver, 16, drop_early_cdms)
        authenticated = {
            e.index for e in events if e.outcome is AuthOutcome.AUTHENTICATED
        }
        # chain-2 flats are 5..8; they must eventually authenticate
        assert {5, 6, 7, 8} <= authenticated

    def test_stale_low_data_discarded(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        data = [
            p
            for p in sender.packets_for_interval(1)
            if isinstance(p, MuTeslaDataPacket)
        ][0]
        events = receiver.receive(data, 10.5)
        assert any(e.outcome is AuthOutcome.DISCARDED_UNSAFE for e in events)

    def test_forged_low_disclosure_rejected(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        run_flat_intervals(sender, receiver, 4)
        forged = KeyDisclosurePacket(2, b"\xff" * 10, provenance=FORGED)
        events = receiver.receive(forged, 4.5)
        assert any(e.outcome is AuthOutcome.REJECTED_WEAK_AUTH for e in events)

    def test_mismatched_schedule_rejected(self, sender, params):
        bad = TwoLevelSchedule(0.0, 1.0, LOW_PER_HIGH + 1)
        with pytest.raises(ConfigurationError):
            MultiLevelReceiver(
                high_commitment=sender.chain.high_chain.commitment,
                schedule=bad,
                sync=LooseTimeSync(0.01),
                params=params,
            )

    def test_wrong_packet_type_raises(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        with pytest.raises(TypeError):
            receiver.receive(object(), 0.0)

    def test_bootstrap_commitment_validation(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        with pytest.raises(ConfigurationError):
            receiver.bootstrap_commitment(0, b"x" * 10)

    def test_memory_accounting_tracks_cdm_and_data(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        run_flat_intervals(sender, receiver, 6)
        assert receiver.stats.peak_buffer_bits > 0

    def test_expire_older_than_frees_stale_state(self, sender, two_level):
        """Data whose keys never arrive is abandoned on request."""
        params = make_params(key_chain_recovery=False)
        sender = MultiLevelSender(SEED, params)
        receiver = make_receiver(sender, two_level, params)

        def drop_all_cdms_and_disclosures(packet, _flat):
            return isinstance(packet, MuTeslaDataPacket)

        run_flat_intervals(sender, receiver, 12, drop_all_cdms_and_disclosures)
        assert receiver.buffered_bits > 0
        events = receiver.expire_older_than(13)
        assert any(
            e.outcome is AuthOutcome.EXPIRED_UNVERIFIED for e in events
        )
        assert receiver.buffered_bits == 0
        assert receiver.stats.expired_unverified > 0

    def test_expire_validation(self, sender, two_level, params):
        receiver = make_receiver(sender, two_level, params)
        with pytest.raises(ConfigurationError):
            receiver.expire_older_than(0)


class TestCdmDigestPayload:
    def test_covers_all_identity_fields(self):
        base = CdmPacket(1, b"c" * 10, b"m" * 10, 0, None, next_cdm_hash=b"h" * 10)
        assert cdm_digest_payload(base) != cdm_digest_payload(
            CdmPacket(2, b"c" * 10, b"m" * 10, 0, None, next_cdm_hash=b"h" * 10)
        )
        assert cdm_digest_payload(base) != cdm_digest_payload(
            CdmPacket(1, b"x" * 10, b"m" * 10, 0, None, next_cdm_hash=b"h" * 10)
        )
        assert cdm_digest_payload(base) != cdm_digest_payload(
            CdmPacket(1, b"c" * 10, b"x" * 10, 0, None, next_cdm_hash=b"h" * 10)
        )
        assert cdm_digest_payload(base) != cdm_digest_payload(
            CdmPacket(1, b"c" * 10, b"m" * 10, 0, None, next_cdm_hash=b"x" * 10)
        )
