"""High-level scenario builder: one call from configuration to metrics.

This is the integration surface the examples, the integration tests and
the simulation benches all use: pick a protocol, an attack level, a
channel quality and a fleet size, and get back measured authentication
rates, attack success rates and memory footprints.

Supported protocols and their families:

========== ============== ==========================================
name        family         notes
========== ============== ==========================================
dap         two-phase      reservoir μMAC records (the paper's §IV)
tesla_pp    two-phase      keep-first full-width records
tesla       single-level   per-packet disclosure, 280-bit records
mu_tesla    single-level   per-epoch disclosure, 280-bit records
multilevel  multi-level    CDMs + two-level chains
eftp        multi-level    EFTP chain wiring
edrp        multi-level    EDRP CDM hash chaining
========== ============== ==========================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.crypto.kernels import ChainWalkCache
from repro.crypto.onewayfn import OneWayFunction
from repro.devtools.sanitizers.determinism import traced_rng
from repro.errors import ConfigurationError
from repro.protocols.dap import DapReceiver, DapSender
from repro.protocols.edrp import edrp_params
from repro.protocols.eftp import eftp_params
from repro.protocols.mu_tesla import MuTeslaReceiver, MuTeslaSender
from repro.protocols.multilevel import (
    MultiLevelParams,
    MultiLevelReceiver,
    MultiLevelSender,
)
from repro.protocols.tesla import TeslaReceiver, TeslaSender
from repro.protocols.tesla_pp import TeslaPlusPlusReceiver, TeslaPlusPlusSender
from repro.sim.attacker import (
    FloodingAttacker,
    ForgeryFactory,
    announce_forgery_factory,
    cdm_forgery_factory,
    data_forgery_factory,
    tesla_forgery_factory,
)
from repro.sim.channel import GilbertElliottLoss
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium, LinkQuality
from repro.sim.metrics import FleetSummary, summarise_nodes
from repro.sim.nodes import ReceiverNode, SenderNode
from repro.scenarios.families import (
    ALL_PROTOCOLS,
    ENGINES,
    MULTI_LEVEL,
    SINGLE_LEVEL,
    TWO_PHASE,
    WORKLOADS,
)
from repro.sim.workloads import (
    CrowdsensingWorkload,
    RemoteIdWorkload,
    VehicularBeaconWorkload,
    workload_for,
)
from repro.timesync.intervals import IntervalSchedule, TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "build_two_phase_protocol",
]

# The three workload shapes share a duck-typed ``report_for`` surface;
# the union is what the scenario builders actually accept.
Workload = Union[CrowdsensingWorkload, VehicularBeaconWorkload, RemoteIdWorkload]

# The canonical protocol/family/engine tables live in
# repro.scenarios.families; these aliases keep the historical private
# names working for in-module use.
_TWO_PHASE = TWO_PHASE
_SINGLE_LEVEL = SINGLE_LEVEL
_MULTI_LEVEL = MULTI_LEVEL
_ENGINES = ENGINES


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs.

    Attributes:
        protocol: one of the names in the module table.
        intervals: broadcast intervals (flat low-level intervals for the
            multi-level family).
        interval_duration: seconds per interval.
        receivers: fleet size.
        buffers: ``m`` — record/CDM buffers per receiver.
        attack_fraction: the game's ``p`` (0 disables the attacker).
        loss_probability: average per-delivery channel loss.
        loss_mean_burst: when set (> 1), losses are bursty: a
            Gilbert-Elliott channel with this mean fade length replaces
            the memoryless model, at the same average loss rate.
        link_delay: propagation delay in seconds.
        packets_per_interval: distinct authentic messages per interval.
        announce_copies: copies of each announcement (two-phase family;
            redundancy that gives the reservoir something to sample).
        disclosure_delay: ``d`` in intervals.
        max_offset: loose-time-sync bound in seconds.
        low_per_high: sub-intervals per high interval (multi-level).
        cdm_copies: CDM redundancy per high interval (multi-level).
        attack_burst_fraction: leading fraction of each interval the
            flood is packed into (see
            :class:`~repro.sim.attacker.FloodingAttacker`).
        sensing_tasks: workload richness — distinct sources (sensing
            tasks, vehicles or aircraft depending on ``workload``).
        workload: workload family, one of
            :data:`~repro.scenarios.families.WORKLOADS`
            (builders in :mod:`repro.sim.workloads`).
        seed: master seed (crypto seeds, channel loss, reservoirs).
        engine: ``"des"`` (event-driven reference) or ``"vectorized"``
            (:mod:`repro.sim.fleet` array engine; byte-identical
            summaries at equal seeds for every protocol family).
    """

    protocol: str = "dap"
    intervals: int = 30
    interval_duration: float = 1.0
    receivers: int = 5
    buffers: int = 4
    attack_fraction: float = 0.0
    loss_probability: float = 0.0
    loss_mean_burst: Optional[float] = None
    link_delay: float = 1e-3
    packets_per_interval: int = 1
    announce_copies: int = 5
    disclosure_delay: int = 1
    max_offset: float = 0.01
    low_per_high: int = 5
    cdm_copies: int = 4
    attack_burst_fraction: float = 0.25
    sensing_tasks: int = 4
    workload: str = "crowdsensing"
    seed: int = 7
    engine: str = "des"

    def __post_init__(self) -> None:
        if self.protocol not in ALL_PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; pick one of"
                f" {ALL_PROTOCOLS}"
            )
        if self.engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; pick one of {_ENGINES}"
            )
        if self.workload not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; pick one of {WORKLOADS}"
            )
        if self.intervals < 3:
            raise ConfigurationError(f"intervals must be >= 3, got {self.intervals}")
        if self.receivers < 1:
            raise ConfigurationError(f"receivers must be >= 1, got {self.receivers}")
        if self.buffers < 1:
            raise ConfigurationError(f"buffers must be >= 1, got {self.buffers}")
        if not 0.0 <= self.attack_fraction < 1.0:
            raise ConfigurationError(
                f"attack_fraction must be in [0, 1), got {self.attack_fraction}"
            )
        if self.disclosure_delay < 1:
            raise ConfigurationError(
                f"disclosure_delay must be >= 1, got {self.disclosure_delay}"
            )
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError(
                "loss_probability must be in [0, 1], got"
                f" {self.loss_probability}"
            )
        if self.loss_mean_burst is not None and self.loss_probability > 0.0:
            # The bursty channel's own checks (average loss < 1, mean
            # burst >= 1), run here so a bad config fails when it is
            # built rather than when run_scenario builds the links.
            try:
                GilbertElliottLoss.from_average(
                    self.loss_probability, self.loss_mean_burst
                )
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"bursty loss (loss_probability={self.loss_probability},"
                    f" loss_mean_burst={self.loss_mean_burst}): {exc}"
                ) from exc


@dataclass(frozen=True)
class ScenarioResult:
    """What a scenario run produced.

    Attributes:
        config: the configuration that ran.
        fleet: aggregated receiver metrics.
        sent_authentic: authentic messages whose authentication was
            *possible* within the horizon (keys disclosed in time).
        forged_bandwidth_fraction: measured forged share of transmitted
            bits (empirical ``p``).
        simulated_seconds: how much simulated time elapsed.
        nodes: the receiver nodes (for deep inspection).
    """

    config: ScenarioConfig
    fleet: FleetSummary
    sent_authentic: int
    forged_bandwidth_fraction: float
    simulated_seconds: float
    nodes: tuple = field(repr=False, default=())

    @property
    def authentication_rate(self) -> float:
        """Fleet-mean authenticated fraction of verifiable messages."""
        return self.fleet.mean_authentication_rate

    @property
    def attack_success_rate(self) -> float:
        """Fleet-mean fraction of verifiable messages the flood killed."""
        return self.fleet.mean_attack_success_rate


def _link_for(config: ScenarioConfig) -> LinkQuality:
    """Per-node link: memoryless by default, Gilbert-Elliott when the
    scenario asks for bursty loss (fresh process per node — fades are
    per-link state)."""
    if config.loss_mean_burst is not None and config.loss_probability > 0.0:
        process = GilbertElliottLoss.from_average(
            config.loss_probability, config.loss_mean_burst
        )
        return LinkQuality(delay=config.link_delay, loss_process=process)
    return LinkQuality(config.loss_probability, config.link_delay)


def _seed_bytes(config: ScenarioConfig, label: str) -> bytes:
    return b"repro.scenario|%d|%s" % (config.seed, label.encode("utf-8"))


def build_two_phase_protocol(
    config: ScenarioConfig,
    condition: SecurityCondition,
    workload: Workload,
    rng: random.Random,
) -> Tuple[
    Union[DapSender, TeslaPlusPlusSender],
    List[Union[DapReceiver, TeslaPlusPlusReceiver]],
    ForgeryFactory,
    int,
    int,
]:
    """Construct the two-phase protocol objects a scenario needs.

    Returns ``(sender, receivers, factory, authentic_copies,
    sent_authentic)`` with bare protocol receivers (not yet bound to any
    medium). The per-receiver reservoir draw keys are drawn from ``rng``
    in receiver order — both the discrete-event simulator and the live
    testbed (:mod:`repro.net.harness`) build through here, which is what
    makes a loopback soak reproduce an in-memory run decision-for-
    decision at the same seed.
    """
    sender_cls = DapSender if config.protocol == "dap" else TeslaPlusPlusSender
    sender = sender_cls(
        seed=_seed_bytes(config, "chain"),
        chain_length=config.intervals + config.disclosure_delay,
        disclosure_delay=config.disclosure_delay,
        packets_per_interval=config.packets_per_interval,
        announce_copies=config.announce_copies,
        message_for=workload.report_for,
    )
    receiver_cls = DapReceiver if config.protocol == "dap" else TeslaPlusPlusReceiver
    # One walk cache for the whole fleet: every receiver back-walks the
    # same disclosed keys, so cross-receiver hits answer from the memo
    # (memoized walks are bit-exact — sharing changes no outcome).
    function = OneWayFunction("F")
    walk_cache = ChainWalkCache(function)
    receivers = []
    for i in range(config.receivers):
        receivers.append(
            receiver_cls(
                commitment=sender.chain.commitment,
                condition=condition,
                local_key=_seed_bytes(config, f"local-{i}"),
                buffers=config.buffers,
                function=function,
                walk_cache=walk_cache,
                draw_key=rng.getrandbits(64),
            )
        )
    factory = announce_forgery_factory()
    authentic_copies = config.packets_per_interval * config.announce_copies
    sent_authentic = config.packets_per_interval * (
        config.intervals - config.disclosure_delay
    )
    return sender, receivers, factory, authentic_copies, sent_authentic


def _build_two_phase(
    config: ScenarioConfig,
    simulator: Simulator,
    medium: BroadcastMedium,
    schedule: IntervalSchedule,
    condition: SecurityCondition,
    workload: Workload,
    rng: random.Random,
) -> Tuple[
    Union[DapSender, TeslaPlusPlusSender],
    List[ReceiverNode],
    ForgeryFactory,
    int,
    int,
]:
    sender, receivers, factory, authentic_copies, sent_authentic = (
        build_two_phase_protocol(config, condition, workload, rng)
    )
    nodes = []
    for i, receiver in enumerate(receivers):
        node = ReceiverNode(f"recv-{i}", simulator, receiver)
        node.attach(medium, _link_for(config))
        nodes.append(node)
    return sender, nodes, factory, authentic_copies, sent_authentic


def _build_single_level(
    config: ScenarioConfig,
    simulator: Simulator,
    medium: BroadcastMedium,
    schedule: IntervalSchedule,
    condition: SecurityCondition,
    workload: Workload,
    rng: random.Random,
) -> Tuple[
    Union[TeslaSender, MuTeslaSender],
    List[ReceiverNode],
    ForgeryFactory,
    int,
    int,
]:
    delay = max(config.disclosure_delay, 2)
    if config.protocol == "tesla":
        sender = TeslaSender(
            seed=_seed_bytes(config, "chain"),
            chain_length=config.intervals,
            disclosure_delay=delay,
            packets_per_interval=config.packets_per_interval,
            message_for=workload.report_for,
        )
        factory = tesla_forgery_factory()
    else:
        sender = MuTeslaSender(
            seed=_seed_bytes(config, "chain"),
            chain_length=config.intervals,
            disclosure_delay=delay,
            packets_per_interval=config.packets_per_interval,
            message_for=workload.report_for,
        )
        factory = data_forgery_factory()
    function = OneWayFunction("F")
    walk_cache = ChainWalkCache(function)
    nodes = []
    for i in range(config.receivers):
        receiver_cls = TeslaReceiver if config.protocol == "tesla" else MuTeslaReceiver
        receiver = receiver_cls(
            commitment=sender.chain.commitment,
            condition=condition,
            buffer_capacity=config.buffers,
            function=function,
            walk_cache=walk_cache,
            draw_key=rng.getrandbits(64),
        )
        node = ReceiverNode(f"recv-{i}", simulator, receiver)
        node.attach(medium, _link_for(config))
        nodes.append(node)
    authentic_copies = config.packets_per_interval
    sent_authentic = config.packets_per_interval * (config.intervals - delay)
    return sender, nodes, factory, authentic_copies, sent_authentic


def _build_multilevel(
    config: ScenarioConfig,
    simulator: Simulator,
    medium: BroadcastMedium,
    two_level: TwoLevelSchedule,
    sync: LooseTimeSync,
    workload: Workload,
    rng: random.Random,
) -> Tuple[MultiLevelSender, List[ReceiverNode], ForgeryFactory, int, int]:
    high_length = (config.intervals - 1) // config.low_per_high + 3
    params = MultiLevelParams(
        high_length=high_length,
        low_length=config.low_per_high,
        low_disclosure_delay=max(config.disclosure_delay, 2),
        cdm_copies=config.cdm_copies,
        packets_per_low_interval=config.packets_per_interval,
    )
    if config.protocol == "eftp":
        params = eftp_params(params)
    elif config.protocol == "edrp":
        params = edrp_params(params)
    sender = MultiLevelSender(
        seed=_seed_bytes(config, "chain"),
        params=params,
        message_for=workload.report_for,
    )
    nodes = []
    for i in range(config.receivers):
        receiver = MultiLevelReceiver(
            high_commitment=sender.chain.high_chain.commitment,
            schedule=two_level,
            sync=sync,
            params=params,
            cdm_buffers=config.buffers,
            draw_key=rng.getrandbits(64),
        )
        receiver.bootstrap_commitment(1, sender.chain.low_commitment(1))
        node = ReceiverNode(f"recv-{i}", simulator, receiver)
        node.attach(medium, _link_for(config))
        nodes.append(node)
    factory = cdm_forgery_factory(
        lambda flat: (flat - 1) // config.low_per_high + 1
    )
    authentic_copies = max(config.cdm_copies // config.low_per_high, 1)
    sent_authentic = config.packets_per_interval * (
        config.intervals - params.low_disclosure_delay
    )
    return sender, nodes, factory, authentic_copies, sent_authentic


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build the world from ``config``, run it to completion, measure it."""
    if config.engine == "vectorized":
        # Lazy import: fleet imports this module for the config types.
        from repro.sim import fleet

        if fleet.supports(config):
            return fleet.run_fleet_scenario(config)
        # Unsupported family: fall back to the DES without behaviour
        # change (same summaries a plain engine="des" run produces).
    rng = traced_rng(random.Random(config.seed), "master")
    simulator = Simulator()
    medium = BroadcastMedium(
        simulator, rng=traced_rng(random.Random(rng.getrandbits(64)), "medium")
    )
    schedule = IntervalSchedule(0.0, config.interval_duration)
    sync = LooseTimeSync(config.max_offset)
    workload = workload_for(config)

    if config.protocol in _TWO_PHASE:
        condition = SecurityCondition(schedule, sync, config.disclosure_delay)
        sender, nodes, factory, authentic_copies, sent_authentic = _build_two_phase(
            config, simulator, medium, schedule, condition, workload, rng
        )
    elif config.protocol in _SINGLE_LEVEL:
        condition = SecurityCondition(schedule, sync, max(config.disclosure_delay, 2))
        sender, nodes, factory, authentic_copies, sent_authentic = _build_single_level(
            config, simulator, medium, schedule, condition, workload, rng
        )
    else:
        two_level = TwoLevelSchedule(
            0.0, config.interval_duration, config.low_per_high
        )
        sender, nodes, factory, authentic_copies, sent_authentic = _build_multilevel(
            config, simulator, medium, two_level, sync, workload, rng
        )

    sender_node = SenderNode(
        "sender", simulator, medium, sender, schedule, config.intervals
    )
    sender_node.start()

    if config.attack_fraction > 0.0:
        attacker = FloodingAttacker(
            simulator=simulator,
            medium=medium,
            schedule=schedule,
            factory=factory,
            p=config.attack_fraction,
            authentic_copies_per_interval=authentic_copies,
            intervals=config.intervals,
            burst_fraction=config.attack_burst_fraction,
            rng=traced_rng(random.Random(rng.getrandbits(64)), "attacker"),
        )
        attacker.start()

    horizon = schedule.end_of(config.intervals) + 2 * config.interval_duration
    simulator.run(until=horizon)
    simulator.run()  # drain in-flight deliveries past the horizon

    fleet = summarise_nodes(nodes, sent_authentic)
    return ScenarioResult(
        config=config,
        fleet=fleet,
        sent_authentic=sent_authentic,
        forged_bandwidth_fraction=medium.forged_bandwidth_fraction(),
        simulated_seconds=simulator.now,
        nodes=tuple(nodes),
    )
