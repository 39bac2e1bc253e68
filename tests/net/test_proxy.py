"""Fault-injection proxy: loss, delay, duplication, reordering."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.proxy import FaultInjectionProxy, ProxyConfig
from repro.net.transport import LoopbackNetwork
from repro.sim.channel import GilbertElliottLoss, link_drops, link_key


@pytest.fixture
def network():
    return LoopbackNetwork()


def wire_proxy(network, config, downstream=("r0", "r1"), seed=1):
    inboxes = {}
    for name in downstream:
        inbox = []
        network.endpoint(name).set_handler(
            lambda data, at, inbox=inbox: inbox.append((data, at))
        )
        inboxes[name] = inbox
    proxy = FaultInjectionProxy(
        network.endpoint("proxy"),
        list(downstream),
        config,
        key=seed,
    )
    source = network.endpoint("src")
    return proxy, source, inboxes


class TestProxyConfig:
    def test_rejects_out_of_range_probabilities(self):
        for field in (
            "loss_probability",
            "duplicate_probability",
            "reorder_probability",
        ):
            with pytest.raises(ConfigurationError):
                ProxyConfig(**{field: 1.5})
            with pytest.raises(ConfigurationError):
                ProxyConfig(**{field: -0.1})

    def test_rejects_negative_delays(self):
        with pytest.raises(ConfigurationError):
            ProxyConfig(delay=-1.0)
        with pytest.raises(ConfigurationError):
            ProxyConfig(jitter=-0.5)
        with pytest.raises(ConfigurationError):
            ProxyConfig(reorder_delay=-0.1)

    def test_loss_process_selection(self):
        assert ProxyConfig(loss_probability=0.2).bursty is None
        assert ProxyConfig(
            loss_probability=0.2, loss_mean_burst=4.0
        ).bursty == GilbertElliottLoss.from_average(0.2, 4.0)

    @pytest.mark.parametrize("probability, burst", [(1.0, 4.0), (0.3, 0.5)])
    def test_rejects_unreachable_bursty_loss_at_construction(
        self, probability, burst
    ):
        with pytest.raises(ConfigurationError, match="bursty loss"):
            ProxyConfig(loss_probability=probability, loss_mean_burst=burst)

    def test_reorder_delay_defaults_to_twice_base(self):
        assert ProxyConfig(delay=0.01).effective_reorder_delay == pytest.approx(0.02)
        assert ProxyConfig(
            delay=0.01, reorder_delay=0.1
        ).effective_reorder_delay == pytest.approx(0.1)


class TestForwarding:
    def test_fans_out_to_every_downstream_with_delay(self, network):
        proxy, source, inboxes = wire_proxy(network, ProxyConfig(delay=0.01))
        source.send(b"payload", "proxy")
        network.run()
        for inbox in inboxes.values():
            assert inbox == [(b"payload", pytest.approx(0.01))]
        assert proxy.forwarded == 2
        assert proxy.dropped == 0

    def test_needs_downstream(self, network):
        with pytest.raises(ConfigurationError):
            FaultInjectionProxy(network.endpoint("proxy"), [], key=1)

    def test_total_loss_drops_everything(self, network):
        proxy, source, inboxes = wire_proxy(
            network, ProxyConfig(loss_probability=1.0)
        )
        for _ in range(10):
            source.send(b"x", "proxy")
        network.run()
        assert all(not inbox for inbox in inboxes.values())
        assert proxy.dropped == 20
        assert proxy.forwarded == 0

    def test_duplication_delivers_two_copies(self, network):
        proxy, source, inboxes = wire_proxy(
            network, ProxyConfig(duplicate_probability=1.0)
        )
        source.send(b"x", "proxy")
        network.run()
        for inbox in inboxes.values():
            assert len(inbox) == 2
        assert proxy.duplicated == 2

    def test_reordering_lets_later_datagrams_overtake(self, network):
        # With loss off, the fault stream (seeded by the key) draws only
        # the reorder decisions: pick a key whose stream holds the first
        # datagram back and not the second.
        key = next(
            k
            for k in range(100)
            if [v < 0.5 for v in _first_draws(k, 2)] == [True, False]
        )
        inbox = []
        network.endpoint("r0").set_handler(lambda data, at: inbox.append(data))
        proxy = FaultInjectionProxy(
            network.endpoint("proxy"),
            ["r0"],
            ProxyConfig(delay=0.01, reorder_delay=0.05, reorder_probability=0.5),
            key=key,
        )
        source = network.endpoint("src")
        source.send(b"first", "proxy")
        source.send(b"second", "proxy", delay=0.001)
        network.run()
        assert inbox == [b"second", b"first"]
        assert proxy.reordered == 1

    def test_zero_knobs_draw_once_per_link_per_datagram(self):
        # Parity with BroadcastMedium: a plain-delay proxy decides the
        # d-th datagram to link r exactly as the keyed channel decides
        # broadcast d to receiver r, across lookahead blocks.
        for burst in (None, 3.0):
            _assert_keyed_decisions(
                LoopbackNetwork(),
                ProxyConfig(loss_probability=0.3, loss_mean_burst=burst, delay=0.01),
            )


def _assert_keyed_decisions(network, config):
    heard = {name: [] for name in ("r0", "r1", "r2")}
    for name, inbox in heard.items():
        network.endpoint(name).set_handler(
            lambda data, at, inbox=inbox: inbox.append(data)
        )
    proxy = FaultInjectionProxy(network.endpoint("proxy"), list(heard), config, key=5)
    source = network.endpoint("src")
    datagrams = 150
    for d in range(datagrams):
        source.send(d.to_bytes(2, "big"), "proxy", delay=d * 1e-3)
    network.run()
    for r, inbox in enumerate(heard.values()):
        link, bad, expected = link_key(5, r), False, []
        for d in range(datagrams):
            dropped, bad = link_drops(
                link, d, config.loss_probability, config.bursty, bad
            )
            if not dropped:
                expected.append(d.to_bytes(2, "big"))
        assert inbox == expected
    assert proxy.dropped == 3 * datagrams - proxy.forwarded


def _first_draws(key, n):
    rng = random.Random(key)
    return [rng.random() for _ in range(n)]
