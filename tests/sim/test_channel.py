"""Tests for the keyed channel: loss models, the scalar and array twins
of the keyed draw, and their use by the medium and the fleet."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.keyed import draw
from repro.errors import ConfigurationError
from repro.protocols.packets import MacAnnouncePacket
from repro.sim import fleet
from repro.sim.channel import (
    GilbertElliottLoss,
    bernoulli_drop_mask,
    bursty_channel,
    gilbert_elliott_drop_mask,
    link_draws,
    link_drops,
    link_key,
    link_keys,
)
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium, LinkQuality
from repro.sim.scenario import ScenarioConfig

#: A ``(broadcasts, links)`` grid of about 10^6 decisions.
_LINKS, _BROADCASTS = 1000, 1000


def _scalar_mask(key, receivers, broadcasts, probability, bursty):
    """The scalar twin over a grid, one link at a time."""
    mask = np.empty((broadcasts, receivers), dtype=bool)
    for r in range(receivers):
        link, bad = link_key(key, r), False
        for b in range(broadcasts):
            mask[b, r], bad = link_drops(link, b, probability, bursty, bad)
    return mask


def _uniforms(links, broadcasts, lane):
    """The array twin's draws read as uniforms in [0, 1)."""
    return (link_draws(links, broadcasts, lane) >> np.uint64(11)) * 2.0**-53


def _mean_drop_run(drops):
    """Mean length of the runs of consecutive drops along each link."""
    starts = drops[0].sum() + (drops[1:] & ~drops[:-1]).sum()
    return drops.sum() / starts


class TestKeyedDraw:
    def test_scalar_and_array_twins_give_identical_bits(self):
        key = 0x0123456789ABCDEF
        receivers = np.arange(40)
        broadcasts = np.arange(50)
        links = link_keys(key, receivers)
        assert links.tolist() == [link_key(key, int(r)) for r in receivers]
        for lane in (0, 1):
            grid = link_draws(links, broadcasts, lane)
            for b in broadcasts:
                assert grid[b].tolist() == [
                    draw(link, int(b), lane) for link in links.tolist()
                ]

    @pytest.mark.parametrize(
        "probability", [0.0, 2.0**-53, 0.1, 0.3, 0.5, 1.0 - 2.0**-53, 1.0]
    )
    def test_drops_are_the_uniforms_below_the_probability(self, probability):
        """Both twins compare raw bits; that is the uniform reading."""
        links = link_keys(11, np.arange(64))
        broadcasts = np.arange(64)
        expected = _uniforms(links, broadcasts, 0) < probability
        assert (bernoulli_drop_mask(links, broadcasts, probability) == expected).all()
        scalar = [
            link_drops(link, 5, probability, None, False)[0] for link in links.tolist()
        ]
        assert scalar == expected[5].tolist()


class TestBernoulliLoss:
    def test_average(self):
        """About 10^6 decisions land on the probability."""
        links = link_keys(1, np.arange(_LINKS))
        drops = bernoulli_drop_mask(links, np.arange(_BROADCASTS), 0.3)
        assert drops.mean() == pytest.approx(0.3, abs=0.002)

    def test_empirical_rate(self):
        link = link_key(1, 0)
        drops = sum(link_drops(link, b, 0.25, None, False)[0] for b in range(20_000))
        assert drops / 20_000 == pytest.approx(0.25, abs=0.01)

    def test_zero_and_one(self):
        link = link_key(1, 0)
        assert not any(link_drops(link, b, 0.0, None, False)[0] for b in range(100))
        assert all(link_drops(link, b, 1.0, None, False)[0] for b in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bursty_channel(1.5, None)
        with pytest.raises(ConfigurationError):
            LinkQuality(1.5)


class TestGilbertElliott:
    def test_stationary_share(self):
        channel = GilbertElliottLoss(0.1, 0.4)
        assert channel.stationary_bad_share() == pytest.approx(0.2)

    def test_average_loss_formula(self):
        channel = GilbertElliottLoss(0.1, 0.4, loss_good=0.05, loss_bad=0.9)
        expected = 0.2 * 0.9 + 0.8 * 0.05
        assert channel.average_loss() == pytest.approx(expected)

    def test_from_average_hits_target(self):
        channel = GilbertElliottLoss.from_average(0.2, mean_burst=5.0)
        assert channel.average_loss() == pytest.approx(0.2, abs=1e-9)

    def test_empirical_average_matches(self):
        """About 10^6 keyed decisions land on the average loss."""
        channel = GilbertElliottLoss.from_average(0.2, mean_burst=5.0)
        drops, _bad = gilbert_elliott_drop_mask(
            link_keys(3, np.arange(_LINKS)),
            np.arange(_BROADCASTS),
            channel,
            np.zeros(_LINKS, dtype=bool),
        )
        assert drops.mean() == pytest.approx(0.2, abs=0.01)

    def test_losses_are_bursty(self):
        """Drop runs have the channel's mean fade length, far longer than
        Bernoulli's at the same average loss."""
        links = link_keys(5, np.arange(_LINKS))
        broadcasts = np.arange(_BROADCASTS)
        bursty, _bad = gilbert_elliott_drop_mask(
            links,
            broadcasts,
            GilbertElliottLoss.from_average(0.2, mean_burst=8.0),
            np.zeros(_LINKS, dtype=bool),
        )
        memoryless = bernoulli_drop_mask(links, broadcasts, 0.2)
        assert _mean_drop_run(bursty) == pytest.approx(8.0, rel=0.03)
        assert _mean_drop_run(memoryless) == pytest.approx(1.25, rel=0.03)

    def test_fade_state_visible(self):
        """The scalar twin hands the fade state back to the link's owner."""
        channel = GilbertElliottLoss(1.0, 1e-9)
        dropped, bad = link_drops(link_key(1, 0), 0, 0.0, channel, False)
        assert dropped and bad

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(1.5, 0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(0.5, 0.0)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_average(0.5, mean_burst=0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_average(
                0.9, mean_burst=3.0, loss_good=0.0, loss_bad=0.5
            )

    @pytest.mark.parametrize("average", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_from_average_rejects_out_of_range_average(self, average):
        with pytest.raises(ValueError, match="average_loss"):
            GilbertElliottLoss.from_average(average, mean_burst=3.0)

    @pytest.mark.parametrize("burst", [0.0, 0.99, -1.0, float("nan"), float("inf")])
    def test_from_average_rejects_degenerate_burst(self, burst):
        with pytest.raises(ValueError, match="mean_burst"):
            GilbertElliottLoss.from_average(0.3, mean_burst=burst)

    def test_boundary_average_zero_still_allowed(self):
        channel = GilbertElliottLoss.from_average(0.0, mean_burst=3.0)
        assert channel.average_loss() == pytest.approx(0.0)


class TestVectorizedMasks:
    """The array twins decide exactly what the scalar twin decides."""

    def test_bernoulli_mask_matches_scalar_sequence(self):
        key, steps, lanes = 1000, 200, 7
        links = link_keys(key, np.arange(lanes))
        mask = bernoulli_drop_mask(links, np.arange(steps), 0.3)
        assert mask.shape == (steps, lanes)
        assert (mask == _scalar_mask(key, lanes, steps, 0.3, None)).all()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gilbert_elliott_mask_matches_scalar_sequence(self, seed):
        """Exact per-receiver loss sequence at equal keys, with the fade
        state carried across blocks of broadcasts."""
        channel = GilbertElliottLoss(0.15, 0.35, loss_good=0.02, loss_bad=0.9)
        steps, lanes = 300, 5
        links = link_keys(seed, np.arange(lanes))
        bad = np.zeros(lanes, dtype=bool)
        blocks = []
        for begin in range(0, steps, 128):
            drops, bad = gilbert_elliott_drop_mask(
                links, np.arange(begin, min(begin + 128, steps)), channel, bad
            )
            blocks.append(drops)
        mask = np.concatenate(blocks)
        assert mask.shape == (steps, lanes)
        assert (mask == _scalar_mask(seed, lanes, steps, 0.0, channel)).all()

    def test_gilbert_elliott_mask_requires_two_draws_per_decision(self):
        """Lane 0 moves the fade state and lane 1 decides the loss."""
        channel = GilbertElliottLoss(0.3, 0.4, loss_good=0.1, loss_bad=0.8)
        links = link_keys(4, np.arange(6))
        broadcasts = np.arange(40)
        drops, _bad = gilbert_elliott_drop_mask(
            links, broadcasts, channel, np.zeros(6, dtype=bool)
        )
        transition = _uniforms(links, broadcasts, 0)
        loss = _uniforms(links, broadcasts, 1)
        bad = np.zeros(6, dtype=bool)
        for b in broadcasts:
            bad = np.where(bad, transition[b] >= 0.4, transition[b] < 0.3)
            assert (drops[b] == (loss[b] < np.where(bad, 0.8, 0.1))).all()
        with pytest.raises(ConfigurationError):
            gilbert_elliott_drop_mask(links, broadcasts, channel, np.zeros(2, bool))

    def test_bernoulli_mask_validates_probability(self):
        with pytest.raises(ConfigurationError):
            bernoulli_drop_mask(link_keys(1, np.arange(4)), np.arange(2), 1.5)

    @settings(max_examples=30, deadline=None)
    @given(
        bursty=st.booleans(),
        receivers=st.integers(1, 40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        block=st.integers(1, 64),
    )
    def test_shard_slice_equals_whole_fleet_columns(
        self, bursty, receivers, cuts, block
    ):
        """A shard's mask slice is the same columns of the whole-fleet
        mask, for any split and any slot block size."""
        config = ScenarioConfig(
            receivers=receivers,
            loss_probability=0.3,
            loss_mean_burst=4.0 if bursty else None,
        )
        slots, key = 70, 0xFEEDFACE
        whole = fleet._delivery_mask(config, key, 0, receivers, slots)
        bounds = sorted({0, receivers, *(c for c in cuts if c < receivers)})
        original = fleet._MASK_BLOCK_DECISIONS
        fleet._MASK_BLOCK_DECISIONS = block
        try:
            for start, stop in zip(bounds, bounds[1:]):
                part = fleet._delivery_mask(config, key, start, stop, slots)
                assert (part == whole[:, start:stop]).all()
        finally:
            fleet._MASK_BLOCK_DECISIONS = original


class TestMediumIntegration:
    def test_link_quality_builds_process(self):
        """The medium decides each attachment's deliveries with the
        scalar twin on its own link key and fade state."""
        channel = GilbertElliottLoss.from_average(0.4, mean_burst=3.0)
        simulator = Simulator()
        medium = BroadcastMedium(simulator, key=77)
        heard = {0: [], 1: []}
        links = {
            0: LinkQuality(0.3, delay=0.0),
            1: LinkQuality(delay=0.0, bursty=channel),
        }
        for r, link in links.items():
            medium.attach(f"n{r}", lambda p, t, r=r: heard[r].append(p.index), link)
        for i in range(300):
            medium.broadcast(MacAnnouncePacket(i + 1, b"m" * 10))
        simulator.run()
        for r, link in links.items():
            key, bad, expected = link_key(77, r), False, []
            for b in range(300):
                dropped, bad = link_drops(
                    key, b, link.loss_probability, link.bursty, bad
                )
                if not dropped:
                    expected.append(b + 1)
            assert heard[r] == expected

    def test_bursty_link_drops_in_runs(self):
        simulator = Simulator()
        medium = BroadcastMedium(simulator, key=2)
        outcomes = []
        medium.attach(
            "node",
            lambda p, t: outcomes.append(p.index),
            LinkQuality(
                delay=0.0,
                bursty=GilbertElliottLoss.from_average(0.3, mean_burst=10.0),
            ),
        )
        for i in range(2000):
            medium.broadcast(MacAnnouncePacket(i + 1, b"m" * 10))
        simulator.run()
        received = set(outcomes)
        # find the longest missing run
        longest, current = 0, 0
        for i in range(1, 2001):
            if i not in received:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        assert longest >= 5  # bursts visible end to end
