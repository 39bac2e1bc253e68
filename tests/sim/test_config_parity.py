"""Engine parity over the whole ``ScenarioConfig`` space.

Every config that builds must run on the DES and on the fleet engine
(at any shard count) with byte-identical summaries, and for the
two-phase protocols the loopback soak must reproduce the DES node for
node. The catalog pins 19 operating points; these properties cover the
space between them: all seven protocols, Bernoulli and bursty loss,
any attack fraction, buffers, receivers and shards.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.harness import run_loopback_soak
from repro.scenarios.families import ALL_PROTOCOLS, NET_PROTOCOLS, WORKLOADS
from repro.sim.fleet import run_fleet_scenario
from repro.sim.scenario import ScenarioConfig, run_scenario

_LOSS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9, 1.0])


@st.composite
def _configs(draw):
    """A small config anywhere in the space (it may fail to build)."""
    fields = dict(
        protocol=draw(st.sampled_from(ALL_PROTOCOLS)),
        intervals=draw(st.integers(3, 20)),
        receivers=draw(st.integers(1, 10)),
        buffers=draw(st.integers(1, 8)),
        attack_fraction=draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.95])),
        loss_probability=draw(_LOSS),
        loss_mean_burst=draw(st.one_of(st.none(), st.floats(0.5, 8.0))),
        packets_per_interval=draw(st.integers(1, 2)),
        announce_copies=draw(st.integers(1, 5)),
        disclosure_delay=draw(st.integers(1, 3)),
        low_per_high=draw(st.integers(2, 5)),
        cdm_copies=draw(st.integers(1, 5)),
        workload=draw(st.sampled_from(WORKLOADS)),
        seed=draw(st.integers(0, 2**32)),
    )
    return fields, draw(st.integers(1, 4))


def _build(fields):
    try:
        return ScenarioConfig(**fields)
    except ConfigurationError:
        reject()


def _summary(result):
    return repr(
        (
            result.fleet,
            result.sent_authentic,
            result.forged_bandwidth_fraction,
            result.simulated_seconds,
        )
    )


def _pinned(shards=1, **fields):
    base = dict(
        protocol="dap",
        intervals=6,
        receivers=3,
        buffers=2,
        attack_fraction=0.5,
        loss_probability=0.3,
        loss_mean_burst=None,
        packets_per_interval=1,
        announce_copies=3,
        disclosure_delay=1,
        low_per_high=3,
        cdm_copies=2,
        workload="crowdsensing",
        seed=1,
    )
    base.update(fields)
    return base, shards


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(_configs())
# A fade on every link from the first broadcast on (loss 0.9 with long
# bursts) and a shard per receiver.
@example(_pinned(loss_probability=0.9, loss_mean_burst=8.0, shards=3))
# Bursty loss on the multi-level family, whose CDM groups fades hit.
@example(_pinned(protocol="edrp", loss_mean_burst=3.0, intervals=12, shards=2))
# Total loss: nothing is delivered, the horizon is the schedule's.
@example(_pinned(protocol="tesla", loss_probability=1.0))
def test_every_config_that_builds_runs_identically_on_both_engines(case):
    fields, shards = case
    config = _build(fields)
    des = run_scenario(config)
    fleet = run_fleet_scenario(
        dataclasses.replace(config, engine="vectorized"), shards=shards
    )
    assert _summary(fleet) == _summary(des)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(_configs(), st.sampled_from(NET_PROTOCOLS))
@example(_pinned(loss_mean_burst=4.0), "dap")
@example(_pinned(loss_probability=0.0, attack_fraction=0.0), "tesla_pp")
def test_loopback_soak_is_node_identical_to_the_des(case, protocol):
    fields, _shards = case
    config = _build({**fields, "protocol": protocol})
    assert run_loopback_soak(config).fleet.nodes == run_scenario(config).fleet.nodes
