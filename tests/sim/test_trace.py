"""Tests for packet capture and replay."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.protocols.dap import DapReceiver, DapSender
from repro.protocols.packets import MacAnnouncePacket
from repro.protocols.wire import encode_packet
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium
from repro.sim.nodes import SenderNode
from repro.sim.trace import PacketTrace, TraceRecorder, replay_trace
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"trace-seed"


def capture_run(intervals=10):
    simulator = Simulator()
    medium = BroadcastMedium(simulator, key=0)
    recorder = TraceRecorder(medium)
    schedule = IntervalSchedule(0.0, 1.0)
    sender = DapSender(SEED, intervals + 1, announce_copies=2)
    medium.attach("sink", lambda p, t: None)
    SenderNode("sender", simulator, medium, sender, schedule, intervals).start()
    simulator.run()
    return sender, recorder.trace


def fresh_receiver(sender):
    condition = SecurityCondition(
        IntervalSchedule(0.0, 1.0), LooseTimeSync(0.01), 1
    )
    return DapReceiver(sender.chain.commitment, condition, b"local", buffers=4)


class TestPacketTrace:
    def test_append_and_iterate(self):
        trace = PacketTrace()
        trace.append(1.0, b"\x05" + b"\x00" * 14)
        trace.append(2.0, b"\x05" + b"\x01" * 14)
        assert len(trace) == 2
        assert trace[0].time == 1.0
        assert trace.duration == 1.0

    def test_time_must_not_regress(self):
        trace = PacketTrace()
        trace.append(2.0, b"x")
        with pytest.raises(SimulationError):
            trace.append(1.0, b"y")

    def test_save_load_roundtrip(self, tmp_path):
        _sender, trace = capture_run()
        path = trace.save(tmp_path / "run.rptr")
        loaded = PacketTrace.load(path)
        assert len(loaded) == len(trace)
        assert [r.payload for r in loaded] == [r.payload for r in trace]
        assert [r.time for r in loaded] == [r.time for r in trace]

    def test_load_rejects_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.rptr"
        bad.write_bytes(b"NOPE" * 4)
        with pytest.raises(ProtocolError):
            PacketTrace.load(bad)

    def test_load_rejects_truncation(self, tmp_path):
        _sender, trace = capture_run(intervals=4)
        path = trace.save(tmp_path / "run.rptr")
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ProtocolError):
            PacketTrace.load(path)


class TestTraceRecorder:
    def test_records_every_transmission(self):
        sender, trace = capture_run(intervals=6)
        expected = sum(len(sender.packets_for_interval(i)) for i in range(1, 7))
        assert len(trace) == expected

    def test_records_decode_to_packets(self):
        _sender, trace = capture_run(intervals=3)
        kinds = {type(record.decode()).__name__ for record in trace}
        assert kinds == {"MacAnnouncePacket", "MessageKeyPacket"}

    def test_unencodable_objects_skipped(self):
        simulator = Simulator()
        medium = BroadcastMedium(simulator, key=0)
        recorder = TraceRecorder(medium)
        medium.broadcast(object())
        medium.broadcast(MacAnnouncePacket(1, b"m" * 10))
        assert recorder.skipped == 1
        assert len(recorder.trace) == 1


class TestReplay:
    def test_replay_reproduces_authentication(self):
        sender, trace = capture_run(intervals=10)
        receiver = fresh_receiver(sender)
        results = replay_trace(trace, receiver)
        authenticated = [
            event for _t, event in results if event.outcome.value == "authenticated"
        ]
        assert len(authenticated) == 9
        assert receiver.stats.forged_accepted == 0

    def test_replay_is_deterministic(self):
        sender, trace = capture_run(intervals=8)
        first = replay_trace(trace, fresh_receiver(sender))
        second = replay_trace(trace, fresh_receiver(sender))
        assert [(t, e.outcome) for t, e in first] == [
            (t, e.outcome) for t, e in second
        ]

    def test_replay_through_disk(self, tmp_path):
        sender, trace = capture_run(intervals=6)
        path = trace.save(tmp_path / "run.rptr")
        receiver = fresh_receiver(sender)
        results = replay_trace(PacketTrace.load(path), receiver)
        assert any(e.outcome.value == "authenticated" for _t, e in results)

    def test_skewed_replay_clock_discards(self):
        """Replaying hours later (bad offset) trips the security
        condition — a replayed capture cannot be re-authenticated as
        fresh traffic, by design."""
        sender, trace = capture_run(intervals=6)
        receiver = fresh_receiver(sender)
        results = replay_trace(trace, receiver, time_offset=100.0)
        assert receiver.stats.authenticated == 0
        assert any(e.outcome.value == "discarded_unsafe" for _t, e in results)
