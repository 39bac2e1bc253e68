"""Unit tests for EFTP: the re-wired chain and its recovery-latency win."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.protocols.eftp import EftpReceiver, EftpSender, eftp_params
from repro.protocols.multilevel import (
    MultiLevelParams,
    MultiLevelReceiver,
    MultiLevelSender,
)
from repro.protocols.packets import CdmPacket
from repro.timesync.intervals import TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync
from tests.protocols.test_multilevel import make_params, run_flat_intervals

SEED = b"eftp-seed"
LOW_PER_HIGH = 4


@pytest.fixture
def two_level():
    return TwoLevelSchedule(0.0, 1.0, LOW_PER_HIGH)


def build(protocol: str, two_level):
    base = make_params()
    if protocol == "eftp":
        params = eftp_params(base)
        sender = EftpSender(SEED, params)
        receiver = EftpReceiver(
            sender.chain.high_chain.commitment,
            two_level,
            LooseTimeSync(0.01),
            params,
            cdm_buffers=4,
            draw_key=3,
        )
    else:
        params = base
        sender = MultiLevelSender(SEED, params)
        receiver = MultiLevelReceiver(
            sender.chain.high_chain.commitment,
            two_level,
            LooseTimeSync(0.01),
            params,
            cdm_buffers=4,
            draw_key=3,
        )
    receiver.bootstrap_commitment(1, sender.chain.low_commitment(1))
    return sender, receiver


class TestEftpConfiguration:
    def test_params_helper_sets_wiring(self):
        assert eftp_params(make_params()).eftp_wiring

    def test_sender_requires_wiring(self):
        with pytest.raises(ConfigurationError):
            EftpSender(SEED, make_params())

    def test_receiver_requires_wiring(self, two_level):
        sender = EftpSender(SEED, eftp_params(make_params()))
        with pytest.raises(ConfigurationError):
            EftpReceiver(
                sender.chain.high_chain.commitment,
                two_level,
                LooseTimeSync(0.01),
                make_params(),
            )


class TestEftpBehaviour:
    def test_loss_free_run_equivalent_to_original(self, two_level):
        sender, receiver = build("eftp", two_level)
        events = run_flat_intervals(sender, receiver, 24)
        authenticated = [e for e in events if e.outcome.value == "authenticated"]
        assert len(authenticated) == 22
        assert receiver.stats.forged_accepted == 0

    def test_recovery_one_high_interval_sooner(self, two_level):
        """The paper's §III-A claim, measured: with every CDM_2 copy lost,
        EFTP recovers chain 3's commitment one high interval before the
        original wiring."""

        def drop_cdm2(packet, _flat):
            return not (isinstance(packet, CdmPacket) and packet.high_index == 2)

        latencies = {}
        for protocol in ("original", "eftp"):
            sender, receiver = build(protocol, two_level)
            run_flat_intervals(sender, receiver, 28, drop_cdm2)
            latencies[protocol] = receiver.commitment_latency_high_intervals(3)
        assert latencies["eftp"] is not None
        assert latencies["original"] is not None
        saved = latencies["original"] - latencies["eftp"]
        assert saved == pytest.approx(1.0, abs=0.3)

    def test_recovery_still_correct(self, two_level):
        sender, receiver = build("eftp", two_level)

        def drop_cdm2(packet, _flat):
            return not (isinstance(packet, CdmPacket) and packet.high_index == 2)

        run_flat_intervals(sender, receiver, 24, drop_cdm2)
        assert receiver.known_commitments[3] == sender.chain.low_commitment(3)
