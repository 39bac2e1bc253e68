"""Co-evolution: game-guided defenders against a game-playing attacker.

The paper's full story in one closed loop — the attacker's flooding
probability follows its replicator equation while the defenders
estimate the attack level and re-run Algorithm 3. Both sides adapt;
the measured behaviour should approach the game's predictions.
"""

from __future__ import annotations

import random

import pytest

from repro.game.adaptive import AdaptiveDefense, AttackEstimator
from repro.game.ess import realized_ess
from repro.game.parameters import paper_parameters
from repro.protocols.dap import DapReceiver, DapSender
from repro.sim.adaptive import AdaptiveReceiverNode
from repro.sim.attacker import GameAwareAttacker, announce_forgery_factory
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium
from repro.sim.nodes import SenderNode
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"coevolution-seed"
INTERVALS = 120

#: Seeds the attack-level tracking error is averaged over.
TRACKING_SEEDS = tuple(range(1, 11))


def run_coevolution(m_game: int, seed: int = 5):
    """Both sides play the m = ``m_game`` game for INTERVALS epochs."""
    params = paper_parameters(p=0.8, m=m_game)
    simulator = Simulator()
    medium = BroadcastMedium(simulator, key=seed)
    schedule = IntervalSchedule(0.0, 1.0)
    condition = SecurityCondition(schedule, LooseTimeSync(0.01), 1)
    sender = DapSender(SEED, INTERVALS + 1, announce_copies=5)

    receiver = DapReceiver(
        sender.chain.commitment, condition, b"local", buffers=m_game,
        draw_key=seed + 1,
    )
    policy = AdaptiveDefense(
        paper_parameters(p=0.5, m=1), AttackEstimator(alpha=0.25, initial=0.5)
    )
    node = AdaptiveReceiverNode("defender", simulator, receiver, policy)
    node.attach(medium)
    node.schedule_reconfiguration(schedule, INTERVALS, every=5)

    attacker = GameAwareAttacker(
        simulator,
        medium,
        schedule,
        announce_forgery_factory(),
        params=params,
        defender_share=1.0,  # the fleet visibly defends
        authentic_copies_per_interval=5,
        intervals=INTERVALS,
        steps_per_interval=20,
        rng=random.Random(seed + 2),
    )
    attacker.start()
    SenderNode("sender", simulator, medium, sender, schedule, INTERVALS).start()
    simulator.run()
    return params, node, attacker, receiver


class TestCoevolution:
    def test_attacker_share_converges_to_game_prediction(self):
        """At m = 14 against full defense the attacker's ESS share is
        Y' = 0.55; the simulated attacker's replicator state reaches it."""
        params, _node, attacker, _receiver = run_coevolution(m_game=14)
        point, _ = realized_ess(params)
        assert attacker.attack_share == pytest.approx(point.y, abs=0.03)

    def test_defenders_track_the_attackers_intensity(self):
        """The fleet's estimate settles near the effective attack level:
        the attacker floods at p=0.8 a fraction Y' of the time. One run's
        final estimate is a noisy EWMA sample, so the bound holds on the
        mean error over a fixed seed set."""
        errors = []
        for seed in TRACKING_SEEDS:
            _params, node, attacker, _receiver = run_coevolution(m_game=14, seed=seed)
            attack_rate = sum(attacker.attack_decisions) / len(
                attacker.attack_decisions
            )
            effective_p = 0.8 * attack_rate  # expected forged share over time
            errors.append(abs(node.history[-1].estimated_p - effective_p))
        assert sum(errors) / len(errors) <= 0.2

    def test_intermittent_attacker_costs_less_than_constant(self):
        """The game's behavioural prediction: a rational attacker at the
        (1, Y') equilibrium attacks a fraction of the time — and the
        defenders see fewer losses than under a constant flood."""
        _params, node, attacker, receiver = run_coevolution(m_game=14)
        assert 0.2 < sum(attacker.attack_decisions) / len(
            attacker.attack_decisions
        ) < 0.9
        assert receiver.stats.forged_accepted == 0
        assert receiver.stats.authenticated > INTERVALS * 0.5

    def test_small_m_game_keeps_attacker_fully_aggressive(self):
        """At m = 5 the ESS is (1,1): the attacker should flood nearly
        every interval."""
        _params, _node, attacker, _receiver = run_coevolution(m_game=5)
        rate = sum(attacker.attack_decisions) / len(attacker.attack_decisions)
        assert rate > 0.9

    def test_security_invariant(self):
        for m in (5, 14):
            _p, _n, _a, receiver = run_coevolution(m_game=m, seed=11)
            assert receiver.stats.forged_accepted == 0
