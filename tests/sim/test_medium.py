"""Unit tests for the broadcast medium."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.protocols.packets import FORGED, MacAnnouncePacket
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium, LinkQuality


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def medium(sim):
    return BroadcastMedium(sim, key=1)


PACKET = MacAnnouncePacket(1, b"m" * 10)
FORGED_PACKET = MacAnnouncePacket(1, b"f" * 10, provenance=FORGED)


class TestDelivery:
    def test_delivers_to_all_attached(self, sim, medium):
        got = {"a": [], "b": []}
        medium.attach("a", lambda p, t: got["a"].append(p))
        medium.attach("b", lambda p, t: got["b"].append(p))
        medium.broadcast(PACKET)
        sim.run()
        assert got["a"] == [PACKET]
        assert got["b"] == [PACKET]

    def test_exclude_sender(self, sim, medium):
        got = []
        medium.attach("self", lambda p, t: got.append(("self", p)))
        medium.attach("other", lambda p, t: got.append(("other", p)))
        medium.broadcast(PACKET, exclude="self")
        sim.run()
        assert got == [("other", PACKET)]

    def test_link_delay_applied(self, sim, medium):
        times = []
        medium.attach("a", lambda p, t: times.append(sim.now), LinkQuality(0.0, 0.5))
        medium.broadcast(PACKET)
        sim.run()
        assert times == [0.5]

    def test_lossy_link_drops(self, sim):
        medium = BroadcastMedium(sim, key=7)
        got = []
        medium.attach("a", lambda p, t: got.append(p), LinkQuality(1.0, 0.0))
        assert medium.broadcast(PACKET) == 0
        sim.run()
        assert got == []
        assert medium.drops == 1

    def test_partial_loss_statistics(self, sim):
        medium = BroadcastMedium(sim, key=3)
        count = [0]
        medium.attach("a", lambda p, t: count.__setitem__(0, count[0] + 1),
                      LinkQuality(0.3, 0.0))
        for _ in range(2000):
            medium.broadcast(PACKET)
        sim.run()
        assert count[0] / 2000 == pytest.approx(0.7, abs=0.04)

    def test_duplicate_name_rejected(self, medium):
        medium.attach("a", lambda p, t: None)
        with pytest.raises(ConfigurationError):
            medium.attach("a", lambda p, t: None)

    def test_attached_names(self, medium):
        medium.attach("x", lambda p, t: None)
        medium.attach("y", lambda p, t: None)
        assert medium.attached_names == ["x", "y"]


class TestAccounting:
    def test_bits_by_provenance(self, medium):
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        medium.broadcast(FORGED_PACKET)
        assert medium.bits_sent() == 112
        assert medium.bits_sent(FORGED) == 224

    def test_packets_by_provenance(self, medium):
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        assert medium.packets_sent() == 1
        assert medium.packets_sent(FORGED) == 1

    def test_forged_bandwidth_fraction(self, medium):
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        assert medium.forged_bandwidth_fraction() == pytest.approx(0.5)

    def test_empty_medium_fraction_zero(self, medium):
        assert medium.forged_bandwidth_fraction() == 0.0

    def test_unknown_objects_zero_sized(self, medium):
        medium.broadcast(object())
        assert medium.bits_sent() == 0
        assert medium.packets_sent() == 1


class TestTaps:
    def test_tap_sees_every_transmission_pre_loss(self, sim):
        medium = BroadcastMedium(sim, key=7)
        medium.attach("lossy", lambda p, t: None, LinkQuality(1.0, 0.0))
        seen = []
        medium.add_tap(lambda packet, time: seen.append((packet, time)))
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        assert len(seen) == 2  # taps fire even when every link drops

    def test_tap_gets_send_time(self, sim, medium):
        times = []
        medium.add_tap(lambda packet, time: times.append(time))
        sim.schedule(3.0, lambda: medium.broadcast(PACKET))
        sim.run()
        assert times == [3.0]

    def test_multiple_taps(self, medium):
        a, b = [], []
        medium.add_tap(lambda p, t: a.append(p))
        medium.add_tap(lambda p, t: b.append(p))
        medium.broadcast(PACKET)
        assert a == b == [PACKET]
