"""Tests for the closed-loop adaptive receiver node."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.game.adaptive import AdaptiveDefense, AttackEstimator
from repro.game.parameters import paper_parameters
from repro.protocols.dap import DapReceiver, DapSender
from repro.sim.adaptive import AdaptiveReceiverNode
from repro.sim.attacker import FloodingAttacker, announce_forgery_factory
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium
from repro.sim.nodes import SenderNode
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"adaptive-node-seed"


def build_world(attack_p: float, intervals: int, initial_m: int = 2,
                initial_estimate: float = 0.5, every: int = 2, seed: int = 1):
    simulator = Simulator()
    medium = BroadcastMedium(simulator, rng=random.Random(seed))
    schedule = IntervalSchedule(0.0, 1.0)
    condition = SecurityCondition(schedule, LooseTimeSync(0.01), 1)
    sender = DapSender(SEED, intervals + 1, announce_copies=5)
    receiver = DapReceiver(
        sender.chain.commitment, condition, b"local", buffers=initial_m,
        draw_key=seed + 1,
    )
    policy = AdaptiveDefense(
        paper_parameters(p=0.5, m=1),
        AttackEstimator(alpha=0.3, initial=initial_estimate),
    )
    node = AdaptiveReceiverNode("adaptive", simulator, receiver, policy)
    node.attach(medium)
    node.schedule_reconfiguration(schedule, intervals, every=every)
    SenderNode("sender", simulator, medium, sender, schedule, intervals).start()
    if attack_p > 0:
        FloodingAttacker(
            simulator, medium, schedule, announce_forgery_factory(),
            p=attack_p, authentic_copies_per_interval=5, intervals=intervals,
            rng=random.Random(seed + 2),
        ).start()
    return simulator, node, receiver


class TestAdaptiveReceiverNode:
    def test_reconfigurations_recorded(self):
        simulator, node, _receiver = build_world(0.0, intervals=10, every=2)
        simulator.run()
        assert len(node.history) == 5
        assert all(r.buffers >= 1 for r in node.history)

    def test_estimate_tracks_quiet_channel(self):
        simulator, node, _receiver = build_world(
            0.0, intervals=20, initial_estimate=0.9
        )
        simulator.run()
        assert node.history[-1].estimated_p < 0.2

    def test_estimate_tracks_heavy_flood(self):
        simulator, node, _receiver = build_world(
            0.8, intervals=30, initial_estimate=0.1
        )
        simulator.run()
        assert node.history[-1].estimated_p > 0.6

    def test_buffers_grow_under_attack(self):
        simulator, node, receiver = build_world(
            0.8, intervals=30, initial_m=2, initial_estimate=0.1
        )
        simulator.run()
        assert node.history[-1].buffers > 2
        assert receiver.buffers == node.history[-1].buffers

    def test_buffers_shrink_when_quiet(self):
        simulator, node, receiver = build_world(
            0.0, intervals=20, initial_m=10, initial_estimate=0.9
        )
        simulator.run()
        assert node.history[-1].buffers < 10

    def test_existing_reservoirs_unaffected_by_resize(self):
        """Resizing changes future intervals only."""
        sender = DapSender(SEED, 10, announce_copies=5)
        condition = SecurityCondition(
            IntervalSchedule(0.0, 1.0), LooseTimeSync(0.01), 1
        )
        receiver = DapReceiver(
            sender.chain.commitment, condition, b"local", buffers=5,
            draw_key=2,
        )
        for packet in sender.packets_for_interval(1):
            receiver.receive(packet, 0.5)
        assert receiver.buffered_bits == 5 * 56
        receiver.resize_buffers(2)
        for packet in sender.packets_for_interval(2):
            receiver.receive(packet, 1.5)
        # interval 1 keeps 5 records (until housekeeping), interval 2
        # only buffers 2.
        assert receiver.buffered_bits == 5 * 56 + 2 * 56

    def test_resize_validation(self):
        sender = DapSender(SEED, 5)
        condition = SecurityCondition(
            IntervalSchedule(0.0, 1.0), LooseTimeSync(0.01), 1
        )
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        with pytest.raises(ConfigurationError):
            receiver.resize_buffers(0)

    def test_schedule_validation(self):
        simulator, node, _receiver = build_world(0.0, intervals=5)
        with pytest.raises(ConfigurationError):
            node.schedule_reconfiguration(IntervalSchedule(0.0, 1.0), 0)
        with pytest.raises(ConfigurationError):
            node.schedule_reconfiguration(IntervalSchedule(0.0, 1.0), 5, every=0)

    def test_security_invariant_holds_throughout(self):
        simulator, node, receiver = build_world(0.9, intervals=40)
        simulator.run()
        assert receiver.stats.forged_accepted == 0
