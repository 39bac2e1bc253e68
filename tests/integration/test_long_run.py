"""Soak test: memory and state stay bounded over long deployments.

The paper's whole premise is memory-constrained nodes; a receiver
whose state grows with deployment lifetime would be broken regardless
of its buffer policy. These runs are long enough that leaks show up as
monotone growth.
"""

from __future__ import annotations

import random

from repro.protocols.dap import DapReceiver, DapSender
from repro.protocols.packets import MacAnnouncePacket
from repro.sim.scenario import ScenarioConfig, run_scenario
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"soak-seed"


class TestBoundedState:
    def test_dap_memory_bounded_over_500_intervals(self):
        """Housekeeping keeps the record pool at O(d·m) regardless of
        deployment length, even under a flood."""
        schedule = IntervalSchedule(0.0, 1.0)
        condition = SecurityCondition(schedule, LooseTimeSync(0.01), 1)
        sender = DapSender(SEED, 501, announce_copies=3)
        receiver = DapReceiver(
            sender.chain.commitment, condition, b"local", buffers=4,
            draw_key=1,
        )
        rng = random.Random(2)
        high_water = []
        for interval in range(1, 501):
            now = interval - 0.5
            for _ in range(6):
                receiver.receive(
                    MacAnnouncePacket(
                        interval,
                        bytes(rng.getrandbits(8) for _ in range(10)),
                        provenance="forged",
                    ),
                    now,
                )
            for packet in sender.packets_for_interval(interval):
                receiver.receive(packet, now)
            if interval % 50 == 0:
                high_water.append(receiver.buffered_bits)
        # bounded: the footprint at interval 500 is no larger than at 50.
        assert high_water[-1] <= high_water[0]
        assert max(high_water) <= 3 * 4 * 56  # <= 3 outstanding intervals
        assert receiver.stats.forged_accepted == 0
        # 6 forged vs 3 authentic copies, m=4: hypergeometric survival
        # C(6,4)/C(9,4) = 0.119 -> ~88% of 499 reveals authenticate.
        assert receiver.stats.authenticated >= 410

    def test_scenario_long_run_stays_healthy(self):
        result = run_scenario(
            ScenarioConfig(
                protocol="dap",
                intervals=300,
                receivers=2,
                buffers=4,
                attack_fraction=0.6,
                loss_probability=0.05,
                seed=9,
            )
        )
        assert result.fleet.total_forged_accepted == 0
        assert result.authentication_rate > 0.6
        # peak memory is a handful of intervals, not hundreds
        assert result.fleet.peak_buffer_bits < 50 * 56
