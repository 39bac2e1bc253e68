"""Discrete-event crowdsensing network simulator.

The evaluation substrate: event loop, broadcast medium with loss and
bit accounting, protocol-bound sender/receiver nodes, DoS attacker
models, workload generation, metrics, and the one-call scenario runner.
"""

from repro.sim.adaptive import AdaptiveReceiverNode, Reconfiguration
from repro.sim.channel import GilbertElliottLoss
from repro.sim.attacker import (
    FloodingAttacker,
    GameAwareAttacker,
    announce_forgery_factory,
    cdm_forgery_factory,
    data_forgery_factory,
    forged_copies_for_fraction,
    message_key_forgery_factory,
    tesla_forgery_factory,
)
from repro.sim.events import EventHandle, Simulator
from repro.sim.experiments import (
    RepeatedResult,
    SweepCell,
    run_config_sweep,
    run_repeated,
    run_scenarios,
)
from repro.sim.medium import BroadcastMedium, LinkQuality
from repro.sim.metrics import FleetSummary, NodeSummary, summarise_nodes
from repro.sim.nodes import ReceiverNode, SenderNode
from repro.sim.scenario import ScenarioConfig, ScenarioResult, run_scenario
from repro.sim.trace import PacketTrace, TraceRecord, TraceRecorder, replay_trace
from repro.sim.workloads import CrowdsensingWorkload, SensingTask, SensorReport

__all__ = [
    "AdaptiveReceiverNode",
    "BroadcastMedium",
    "GilbertElliottLoss",
    "Reconfiguration",
    "CrowdsensingWorkload",
    "EventHandle",
    "FleetSummary",
    "FloodingAttacker",
    "GameAwareAttacker",
    "LinkQuality",
    "NodeSummary",
    "PacketTrace",
    "ReceiverNode",
    "RepeatedResult",
    "ScenarioConfig",
    "ScenarioResult",
    "SenderNode",
    "SweepCell",
    "run_config_sweep",
    "run_repeated",
    "SensingTask",
    "SensorReport",
    "Simulator",
    "TraceRecord",
    "TraceRecorder",
    "replay_trace",
    "announce_forgery_factory",
    "cdm_forgery_factory",
    "data_forgery_factory",
    "forged_copies_for_fraction",
    "message_key_forgery_factory",
    "run_scenario",
    "run_scenarios",
    "summarise_nodes",
    "tesla_forgery_factory",
]
