"""C-2 — wire codec and capture/replay throughput.

A node's radio ISR budget is tighter than its crypto budget; the codec
must not dominate. Measures encode/decode round trips and full
capture-then-replay of a protocol run.
"""

from __future__ import annotations

from repro.protocols.dap import DapReceiver, DapSender
from repro.protocols.packets import MacAnnouncePacket, MessageKeyPacket
from repro.protocols.wire import decode_packet, encode_packet
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium
from repro.sim.nodes import SenderNode
from repro.sim.trace import TraceRecorder, replay_trace
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"wire-bench-seed"


def test_encode_announce(benchmark):
    packet = MacAnnouncePacket(42, b"\xab" * 10)
    payload = benchmark(encode_packet, packet)
    assert len(payload) == 15


def test_decode_announce(benchmark):
    payload = encode_packet(MacAnnouncePacket(42, b"\xab" * 10))
    packet = benchmark(decode_packet, payload)
    assert packet.index == 42


def test_roundtrip_message_key(benchmark):
    packet = MessageKeyPacket(7, b"m" * 25, b"k" * 10)

    def roundtrip():
        return decode_packet(encode_packet(packet))

    assert benchmark(roundtrip) == packet


def test_capture_and_replay_full_run(benchmark):
    """Capture a 30-interval DAP run, then replay it into a fresh
    receiver — the forensic workflow, timed end to end."""

    def capture_replay():
        simulator = Simulator()
        medium = BroadcastMedium(simulator, key=0)
        recorder = TraceRecorder(medium)
        schedule = IntervalSchedule(0.0, 1.0)
        sender = DapSender(SEED, 31, announce_copies=3)
        medium.attach("sink", lambda p, t: None)
        SenderNode("sender", simulator, medium, sender, schedule, 30).start()
        simulator.run()
        condition = SecurityCondition(schedule, LooseTimeSync(0.01), 1)
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        replay_trace(recorder.trace, receiver)
        return receiver

    receiver = benchmark(capture_replay)
    assert receiver.stats.authenticated == 29
    assert receiver.stats.forged_accepted == 0
