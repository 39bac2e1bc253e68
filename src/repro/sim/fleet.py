"""Array-structured scenario engine for every protocol family.

:func:`run_fleet_scenario` simulates the entire receiver fleet as
arrays instead of per-node event callbacks: one broadcast timeline is
laid out up front, per-slot channel decisions are drawn for *all*
receivers at once (a block-wise vectorized Markov transition over a
``(receivers,)`` Gilbert–Elliott state array, or one Bernoulli mask,
bit-packed so the full delivery matrix costs one bit per decision),
and the buffer/authentication state machines run as numpy over whole
receiver blocks (two-phase) or as tight per-receiver loops over the
delivered-slot indices (single- and multi-level) — no heapq, no
per-delivery closures, and no per-record HMAC in the replays (all MAC and
key-chain outcomes are decided up front by batched
:meth:`~repro.crypto.mac.MacScheme.verify_many` tables and record
*identity*, with exact collision fallbacks).

All seven catalog protocols are covered — the canonical table lives in
:mod:`repro.scenarios.families` (``VECTORIZED_PROTOCOLS``):

- ``dap`` / ``tesla_pp``: two-phase announce/reveal with μMAC records;
- ``tesla`` / ``mu_tesla``: single-level chains with full-width
  records and key disclosures (piggybacked or standalone);
- ``multilevel`` / ``eftp`` / ``edrp``: two-level chains with CDM
  reservoir buffering, commitment recovery and EDRP hash pinning.

Exactness contract
------------------

``run_fleet_scenario(config)`` returns the *identical* summary
``run_scenario`` produces at the same seed, for every family:

- master draws: medium seed, per-receiver draw keys (receiver order),
  attacker seed — exactly as ``run_scenario`` + the family builders;
- medium draws: one shared stream, consumed broadcast-by-broadcast in
  attachment order, one uniform per Bernoulli decision and two per
  Gilbert–Elliott decision (transition, then loss). The stream is
  replayed through a mirrored ``numpy`` Mersenne state in bounded
  blocks along the slot axis, carrying the per-lane channel state
  between blocks;
- reservoir draws: Algorithm 2's two uniforms for offer ``k`` to a full
  buffer are :mod:`repro.buffers.keyed` draws of ``(receiver key,
  interval, k)`` — pure functions, not stream positions — so the
  fleet evaluates them in any order. The two-phase replay draws every
  overflow offer of a receiver block in one ``uint64`` numpy call and
  keeps, per slot, the last accepted offer that targeted it; the
  multi-level replay evaluates the same scalar draw inline, with the
  CDM and data pools keyed by their pool tags as in the DES receiver;
- forged bytes are replayed from the attacker stream in injection
  order, which is what makes every collision fallback exact.

Sharding
--------

The fleet's per-receiver state is independent given the shared
delivery mask, so the receiver axis shards cleanly:
:func:`shard_plan` cuts it into contiguous ranges (balanced via
:func:`repro.net.harness.shard_sizes` — the same plan the live-network
harness uses), each shard replays only its slice of the
bit-packed mask, and per-shard results stream back through
:meth:`repro.engine.executors.Executor.stream` to be folded one shard
at a time. With ``summary="aggregate"`` the reduction keeps a single
:class:`~repro.sim.metrics.FleetAggregate` instead of per-node rows,
so peak memory tracks one shard regardless of fleet size. Parallel
executors receive the packed mask through
:class:`multiprocessing.shared_memory.SharedMemory` (one copy for the
whole pool, closed and unlinked in ``finally`` paths).

:func:`statistical_equivalence` is the cross-check harness: it runs
both engines over a seed set and bounds the paired auth/attack-rate
differences with a confidence interval (identically zero under the
exact-mirroring contract, which the parity tests pin per family).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import groupby
from multiprocessing import shared_memory
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import perf
from repro.analysis.statistics import MeanEstimate, mean_estimate
from repro.buffers.keyed import (
    CDM_POOL,
    DATA_POOL,
    GAMMA,
    MASK,
    UNIT,
    buffer_key,
    mix,
    mix_array,
    replacement_slots,
)
from repro.crypto.mac import INDEX_BITS, MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction, standard_functions
from repro.devtools.sanitizers.determinism import traced_rng
from repro.devtools.sanitizers.resources import release_resource, track_resource
from repro.engine.executors import Executor
from repro.engine.spec import ExperimentSpec
from repro.errors import ConfigurationError, SimulationError
from repro.perf.names import SIM_BROADCASTS, SIM_DELIVERIES, SIM_DROPS
from repro.protocols import base as protocol_base
from repro.protocols.dap import DapSender
from repro.protocols.edrp import edrp_params
from repro.protocols.eftp import eftp_params
from repro.protocols.messages import forged_message
from repro.protocols.mu_tesla import MuTeslaSender
from repro.protocols.multilevel import (
    LOW_BUFFER_CAPACITY,
    MultiLevelParams,
    MultiLevelSender,
    _NO_COMMITMENT,
)
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MuTeslaDataPacket,
    StoredPacketRecord,
    TeslaPacket,
)
from repro.protocols.tesla import TeslaSender
from repro.protocols.tesla_pp import TeslaPlusPlusSender
from repro.sim.attacker import forged_copies_for_fraction
from repro.sim.channel import (
    GilbertElliottLoss,
    bernoulli_drop_mask,
    gilbert_elliott_drop_mask,
)
from repro.sim.metrics import (
    FleetAggregate,
    FleetSummary,
    fleet_summary_from_arrays,
)
from repro.scenarios.families import (
    MULTI_LEVEL,
    SINGLE_LEVEL,
    TWO_PHASE,
    VECTORIZED_PROTOCOLS,
)
from repro.sim.scenario import (
    ScenarioConfig,
    ScenarioResult,
    _seed_bytes,
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
    "supports",
    "shard_plan",
    "run_fleet_scenario",
    "statistical_equivalence",
    "EquivalenceReport",
]

#: Protocols the vectorized fast path covers (catalog-complete) — the
#: canonical table lives in :mod:`repro.scenarios.families`.
SUPPORTED_PROTOCOLS = VECTORIZED_PROTOCOLS

#: Workload union the timeline builders accept (anything exposing
#: ``report_for`` and ``distinct_sources``).
_Workload = Union[CrowdsensingWorkload, VehicularBeaconWorkload, RemoteIdWorkload]

# Timeline slot kinds (two-phase family).
_ANNOUNCE = 0
_REVEAL = 1
_FORGED = 2

# Timeline slot kinds (multi-level family).
_CDM = 0
_DATA = 1
_DISC = 2

#: Per-buffered-item bit sizes, matching the DES receivers' pools.
_RECORD_BITS = StoredPacketRecord(0, b"\x00" * 25, b"\x00" * 10).stored_bits
_CDM_BITS = CdmPacket(1, _NO_COMMITMENT, b"\x00" * 10, 0, None).wire_bits

#: Uniform draws generated per block when materialising the delivery
#: mask (~256 MB of float64 temporaries) — the knob that keeps peak RSS
#: flat as ``slots x receivers`` grows.
_DELIVERY_BLOCK_FLOATS = 32 * 1024 * 1024


def supports(config: ScenarioConfig) -> bool:
    """Whether the vectorized engine covers this configuration."""
    return config.protocol in SUPPORTED_PROTOCOLS


def shard_plan(receivers: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` receiver ranges for ``shards`` shards.

    Delegates the size split to :func:`repro.net.harness.shard_sizes`
    so the fleet engine and the live-network harness balance
    identically (sizes differ by at most one).
    """
    # Lazy import: net.harness builds on sim.scenario, which imports
    # this module lazily for the vectorized path.
    from repro.net.harness import shard_sizes

    sizes = shard_sizes(receivers, shards)
    plan: List[Tuple[int, int]] = []
    start = 0
    for size in sizes:
        plan.append((start, start + size))
        start += size
    return plan


def _random_bits(rng: random.Random, nbytes: int) -> bytes:
    """Mirror of the attacker factories' forged-byte draws."""
    return bytes(rng.getrandbits(8) for _ in range(nbytes))


# ---------------------------------------------------------------------------
# Replay plans: everything a shard needs, fully precomputed and picklable.
# All cryptography (MAC verification, key-chain walks, hash pinning) is
# folded into boolean tables here — the per-receiver replay loops do
# list/dict work only.


@dataclass(frozen=True)
class _TwoPhasePlan:
    """Slot arrays + MAC tables for ``dap`` / ``tesla_pp``.

    ``sources[b]`` is the canonical message id for announce/reveal
    slots (``copy % distinct_sources`` — distinct copies of one message
    share it, exactly as they share MAC bytes) and ``-1 - k`` for the
    ``k``-th forged injection, so a buffered slot value identifies the
    MAC bytes it was re-hashed from.
    """

    times: np.ndarray
    kinds: List[int]
    intervals: List[int]
    sources: List[int]
    gate: List[bool]
    announce_macs: Dict[Tuple[int, int], bytes]
    forged_macs: List[bytes]
    reservoir: bool
    item_bits: int
    legitimate_bits: int
    forged_bits: int
    sent_authentic: int


@dataclass(frozen=True)
class _SingleLevelPlan:
    """Slot arrays + outcome tables for ``tesla`` / ``mu_tesla``.

    Each slot may carry a data record (``rec_interval >= 1``), a key
    disclosure (``disc_index >= 1``), or both (classic TESLA
    piggybacks). ``forged_valid[k]`` is the batched-``verify_many``
    outcome of the ``k``-th forged record under its interval's true
    chain key (record sources ``-1 - k`` index into it);
    ``disc_anchors[b]`` is ``None`` for authentic disclosures and, for
    forged ones, the exact set of trusted anchors from which the random
    candidate would back-walk to the true chain (practically empty — a
    non-empty hit is a 2^-80 collision the replay mirrors by raising).
    """

    times: np.ndarray
    rec_interval: List[int]
    rec_source: List[int]
    forged_valid: List[bool]
    gate: List[bool]
    disc_index: List[int]
    disc_anchors: List[Optional[FrozenSet[int]]]
    legitimate_bits: int
    forged_bits: int
    sent_authentic: int


@dataclass(frozen=True)
class _MultiLevelPlan:
    """Slot arrays + outcome tables for ``multilevel`` / ``eftp`` / ``edrp``.

    ``kind`` selects the packet class per slot (:data:`_CDM`,
    :data:`_DATA`, :data:`_DISC`); ``index`` is the high interval for
    CDM slots and the flat sub-interval otherwise. ``source`` is the
    data-record message id, or for CDM slots ``-1`` (authentic) /
    ``k >= 0`` (the ``k``-th forged CDM). Forged-CDM MAC validity and
    EDRP hash-pin matches are precomputed tables; the commitments and
    low-chain keys the replay "recovers" are always the true ones, so
    no key bytes are needed at replay time.
    """

    times: np.ndarray
    kinds: List[int]
    index: List[int]
    sources: List[int]
    gate: List[bool]
    disc_index: List[int]
    commitment_present: Dict[int, bool]
    has_next_hash: Dict[int, bool]
    forged_mac_valid: List[bool]
    forged_pin_match: List[bool]
    low_per_high: int
    high_gap_bound: int
    anchor_offset: int
    legitimate_bits: int
    forged_bits: int
    sent_authentic: int


_Plan = Union[_TwoPhasePlan, _SingleLevelPlan, _MultiLevelPlan]


def _build_two_phase_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    attacker_rng: random.Random,
) -> _TwoPhasePlan:
    """Lay out every two-phase broadcast in DES event order.

    The sender schedules all its transmit events first (interval-major,
    position-minor), then the attacker schedules its injections — so a
    stable sort by time reproduces the event loop's ``(time, seq)``
    ordering exactly, including float-time ties.
    """
    condition = SecurityCondition(schedule, sync, config.disclosure_delay)
    sender_cls = DapSender if config.protocol == "dap" else TeslaPlusPlusSender
    sender = sender_cls(
        seed=_seed_bytes(config, "chain"),
        chain_length=config.intervals + config.disclosure_delay,
        disclosure_delay=config.disclosure_delay,
        packets_per_interval=config.packets_per_interval,
        announce_copies=config.announce_copies,
        message_for=workload.report_for,
    )
    announce_block = config.packets_per_interval * config.announce_copies
    # The workload's report cycle period, NOT config.sensing_tasks:
    # payload identity is what the DES's receivers actually compare, so
    # the grouping must follow the workload's own modulus.
    num_tasks = workload.distinct_sources
    duration = schedule.duration
    entries: List[Tuple[float, int, int, int]] = []
    announce_macs: Dict[Tuple[int, int], bytes] = {}
    legitimate_bits = 0
    for interval in range(1, config.intervals + 1):
        start = schedule.start_of(interval)
        packets = list(sender.packets_for_interval(interval))
        spread = max(len(packets), 1)
        for position, packet in enumerate(packets):
            time = start + duration * (position + 0.5) / spread
            legitimate_bits += packet.wire_bits
            if isinstance(packet, MacAnnouncePacket):
                source = (position // config.announce_copies) % num_tasks
                announce_macs[(interval, source)] = packet.mac
                entries.append((time, _ANNOUNCE, interval, source))
            else:
                source = (position - announce_block) % num_tasks
                entries.append((time, _REVEAL, packet.index, source))

    forged_bits = 0
    forged_macs: List[bytes] = []
    if config.attack_fraction > 0.0:
        copies = forged_copies_for_fraction(announce_block, config.attack_fraction)
        window = duration * config.attack_burst_fraction
        forged_wire_bits = MacAnnouncePacket(
            index=1, mac=b"\x00" * 10, provenance=FORGED
        ).wire_bits
        for interval in range(1, config.intervals + 1):
            start = schedule.start_of(interval)
            for copy in range(copies):
                time = start + window * (copy + 0.5) / max(copies, 1)
                entries.append((time, _FORGED, interval, -1 - len(forged_macs)))
                # The factory draws 10 bytes per injection, in event
                # order (strictly increasing times within the attacker).
                forged_macs.append(_random_bits(attacker_rng, 10))
                forged_bits += forged_wire_bits

    # Stable by construction: sender entries precede attacker entries in
    # the list, matching their scheduling sequence numbers.
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    times = np.array([entries[i][0] for i in order], dtype=np.float64)
    kinds = [entries[i][1] for i in order]
    intervals = [entries[i][2] for i in order]
    sources = [entries[i][3] for i in order]
    # The security gate is identical across receivers (zero skew, equal
    # constant delay): evaluate once per announce slot at arrival time.
    delay = config.link_delay
    gate = [
        kind == _REVEAL or condition.accepts(interval, time + delay)
        for kind, interval, time in zip(kinds, intervals, times.tolist())
    ]
    reservoir = config.protocol == "dap"
    micro_bits = 24 if reservoir else 80
    return _TwoPhasePlan(
        times=times,
        kinds=kinds,
        intervals=intervals,
        sources=sources,
        gate=gate,
        announce_macs=announce_macs,
        forged_macs=forged_macs,
        reservoir=reservoir,
        item_bits=micro_bits + INDEX_BITS,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval
        * (config.intervals - config.disclosure_delay),
    )


def _build_single_level_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    attacker_rng: random.Random,
) -> _SingleLevelPlan:
    """Timeline + outcome tables for classic TESLA / μTESLA."""
    delay = max(config.disclosure_delay, 2)
    tesla = config.protocol == "tesla"
    condition = SecurityCondition(schedule, sync, delay)
    sender_cls = TeslaSender if tesla else MuTeslaSender
    sender = sender_cls(
        seed=_seed_bytes(config, "chain"),
        chain_length=config.intervals,
        disclosure_delay=delay,
        packets_per_interval=config.packets_per_interval,
        message_for=workload.report_for,
    )
    num_tasks = workload.distinct_sources
    duration = schedule.duration
    # entry: (time, rec_interval, rec_source, disc_index, forged_disc_id)
    entries: List[Tuple[float, int, int, int, int]] = []
    legitimate_bits = 0
    # (interval, source) -> (message, mac) representative, for the
    # batched verify_many pass below.
    authentic_reps: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
    for interval in range(1, config.intervals + 1):
        start = schedule.start_of(interval)
        packets = list(sender.packets_for_interval(interval))
        spread = max(len(packets), 1)
        data_copy = 0
        for position, packet in enumerate(packets):
            time = start + duration * (position + 0.5) / spread
            legitimate_bits += packet.wire_bits
            if isinstance(packet, KeyDisclosurePacket):
                entries.append((time, -1, 0, packet.index, -1))
                continue
            source = data_copy % num_tasks
            data_copy += 1
            authentic_reps.setdefault(
                (interval, source), (packet.message, packet.mac)
            )
            disc = -1
            if tesla and packet.disclosed_key is not None:
                disc = packet.disclosed_index
            entries.append((time, interval, source, disc, -1))

    forged_bits = 0
    # forged record k: (interval, message, mac); forged disclosure f:
    # (disc_index, candidate key bytes).
    forged_records: List[Tuple[int, bytes, bytes]] = []
    forged_disclosures: List[Tuple[int, bytes]] = []
    if config.attack_fraction > 0.0:
        copies = forged_copies_for_fraction(
            config.packets_per_interval, config.attack_fraction
        )
        window = duration * config.attack_burst_fraction
        probe = (
            TeslaPacket(1, b"\x00" * 25, b"\x00" * 10, 0, b"\x00" * 10, FORGED)
            if tesla
            else MuTeslaDataPacket(1, b"\x00" * 25, b"\x00" * 10, FORGED)
        )
        for interval in range(1, config.intervals + 1):
            start = schedule.start_of(interval)
            for copy in range(copies):
                time = start + window * (copy + 0.5) / max(copies, 1)
                k = len(forged_records)
                # Factory draw order: MAC bytes, then (TESLA only) the
                # forged disclosed key — at injection-event time.
                mac = _random_bits(attacker_rng, 10)
                forged_records.append(
                    (interval, forged_message(interval, copy), mac)
                )
                disc = -1
                forged_id = -1
                if tesla:
                    key = _random_bits(attacker_rng, 10)
                    # The factory discloses interval-2 regardless of the
                    # configured delay (mirrors tesla_forgery_factory).
                    di = max(interval - 2, 0)
                    if di >= 1:
                        disc = di
                        forged_id = len(forged_disclosures)
                        forged_disclosures.append((di, key))
                entries.append((time, interval, -1 - k, disc, forged_id))
                forged_bits += probe.wire_bits

    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    times = np.array([entries[i][0] for i in order], dtype=np.float64)
    rec_interval = [entries[i][1] for i in order]
    rec_source = [entries[i][2] for i in order]
    disc_index = [entries[i][3] for i in order]
    forged_disc_id = [entries[i][4] for i in order]
    delay_s = config.link_delay
    gate = [
        rec < 1 or condition.accepts(rec, time + delay_s)
        for rec, time in zip(rec_interval, times.tolist())
    ]

    # Batched receiver-side MAC verification: one verify_many call per
    # interval decides every record outcome up front (authentic
    # representatives must verify; a forged record verifying is the
    # 2^-80 truncated-HMAC collision, which the replay then mirrors by
    # counting a forged acceptance exactly as the DES would).
    mac_scheme = MacScheme()
    forged_valid = [False] * len(forged_records)
    for interval in range(1, config.intervals + 1):
        key = sender.chain.key(interval)
        reps = [
            (src, pair)
            for (iv, src), pair in authentic_reps.items()
            if iv == interval
        ]
        forged_ids = [
            k for k, (iv, _m, _mac) in enumerate(forged_records) if iv == interval
        ]
        pairs = [pair for _src, pair in reps] + [
            (forged_records[k][1], forged_records[k][2]) for k in forged_ids
        ]
        if not pairs:
            continue
        outcomes = mac_scheme.verify_many(key, pairs)
        for (src, _pair), ok in zip(reps, outcomes[: len(reps)]):
            if not ok:
                raise SimulationError(
                    f"authentic record failed MAC verification at interval"
                    f" {interval}, source {src}"
                )
        for k, ok in zip(forged_ids, outcomes[len(reps):]):
            forged_valid[k] = ok

    # Forged disclosure back-walks, resolved against the true chain: the
    # replay only needs "from which trusted anchors would this random
    # candidate authenticate" — a set that is empty outside 2^-80
    # collisions.
    function = OneWayFunction("F")
    true_key = [sender.chain.commitment] + [
        sender.chain.key(i) for i in range(1, config.intervals + 1)
    ]
    anchor_sets: List[FrozenSet[int]] = []
    for di, candidate in forged_disclosures:
        anchors = set()
        cursor = candidate
        for gap in range(di + 1):
            if cursor == true_key[di - gap]:
                anchors.add(di - gap)
            if gap < di:
                cursor = function(cursor)
        anchor_sets.append(frozenset(anchors))

    disc_anchors: List[Optional[FrozenSet[int]]] = [
        anchor_sets[fid] if fid >= 0 else None for fid in forged_disc_id
    ]

    return _SingleLevelPlan(
        times=times,
        rec_interval=rec_interval,
        rec_source=rec_source,
        forged_valid=forged_valid,
        gate=gate,
        disc_index=disc_index,
        disc_anchors=disc_anchors,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval * (config.intervals - delay),
    )


def _multilevel_params(config: ScenarioConfig) -> MultiLevelParams:
    """The exact parameter derivation of the DES multi-level builder."""
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
    return params


def _build_multilevel_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    attacker_rng: random.Random,
) -> _MultiLevelPlan:
    """Timeline + outcome tables for multi-level μTESLA / EFTP / EDRP."""
    params = _multilevel_params(config)
    lph = config.low_per_high
    sender = MultiLevelSender(
        seed=_seed_bytes(config, "chain"),
        params=params,
        message_for=workload.report_for,
    )
    two_level = TwoLevelSchedule(0.0, config.interval_duration, lph)
    high_cond = SecurityCondition(
        two_level.high_schedule, sync, params.high_disclosure_delay
    )
    low_cond = SecurityCondition(
        two_level.low_schedule, sync, params.low_disclosure_delay
    )
    num_tasks = workload.distinct_sources
    duration = schedule.duration
    # entry: (time, kind, index, source, disc_index)
    entries: List[Tuple[float, int, int, int, int]] = []
    legitimate_bits = 0
    cdm_by_high: Dict[int, CdmPacket] = {}
    data_reps: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
    for flat in range(1, config.intervals + 1):
        start = schedule.start_of(flat)
        packets = list(sender.packets_for_interval(flat))
        spread = max(len(packets), 1)
        data_copy = 0
        for position, packet in enumerate(packets):
            time = start + duration * (position + 0.5) / spread
            legitimate_bits += packet.wire_bits
            if isinstance(packet, CdmPacket):
                cdm_by_high.setdefault(packet.high_index, packet)
                disc = (
                    packet.disclosed_index
                    if packet.disclosed_key is not None
                    else -1
                )
                entries.append((time, _CDM, packet.high_index, -1, disc))
            elif isinstance(packet, MuTeslaDataPacket):
                source = data_copy % num_tasks
                data_copy += 1
                data_reps.setdefault(
                    (packet.index, source), (packet.message, packet.mac)
                )
                entries.append((time, _DATA, packet.index, source, -1))
            else:
                entries.append((time, _DISC, packet.index, 0, -1))

    forged_bits = 0
    # forged CDM k: (high, low_commitment, mac)
    forged_cdms: List[Tuple[int, bytes, bytes]] = []
    if config.attack_fraction > 0.0:
        authentic_copies = max(config.cdm_copies // lph, 1)
        copies = forged_copies_for_fraction(
            authentic_copies, config.attack_fraction
        )
        window = duration * config.attack_burst_fraction
        probe = CdmPacket(1, b"\x00" * 10, b"\x00" * 10, 0, None, provenance=FORGED)
        for flat in range(1, config.intervals + 1):
            start = schedule.start_of(flat)
            high = (flat - 1) // lph + 1
            for copy in range(copies):
                time = start + window * (copy + 0.5) / max(copies, 1)
                # Factory draw order: commitment bytes, then MAC bytes.
                commitment = _random_bits(attacker_rng, 10)
                mac = _random_bits(attacker_rng, 10)
                entries.append((time, _CDM, high, len(forged_cdms), -1))
                forged_cdms.append((high, commitment, mac))
                forged_bits += probe.wire_bits

    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    times = np.array([entries[i][0] for i in order], dtype=np.float64)
    kinds = [entries[i][1] for i in order]
    index = [entries[i][2] for i in order]
    sources = [entries[i][3] for i in order]
    disc_index = [entries[i][4] for i in order]
    delay_s = config.link_delay
    gate: List[bool] = []
    for kind, idx, time in zip(kinds, index, times.tolist()):
        if kind == _CDM:
            gate.append(high_cond.accepts(idx, time + delay_s))
        elif kind == _DATA:
            gate.append(low_cond.accepts(idx, time + delay_s))
        else:
            gate.append(True)

    # Batched receiver-side verification tables. Data records: every
    # representative must verify under its sub-interval key. Forged
    # CDMs: verify_many under the targeted high key over the receiver's
    # payload reconstruction — any True is the 2^-80 collision path.
    mac_scheme = MacScheme()
    # One verify_many per flat interval (records share the sub-interval
    # key), not one single-pair call per record: the batch pays the
    # HMAC key-block setup once per slot. The perf registry's
    # ``crypto.mac.batches`` counter pins this shape in the tests.
    reps_by_flat: Dict[int, List[Tuple[int, Tuple[bytes, bytes]]]] = {}
    for (flat, source), pair in data_reps.items():
        reps_by_flat.setdefault(flat, []).append((source, pair))
    for flat in sorted(reps_by_flat):
        chain, sub = (flat - 1) // lph + 1, (flat - 1) % lph + 1
        key = sender.chain.low_key(chain, sub)
        group = reps_by_flat[flat]
        outcomes = mac_scheme.verify_many(key, [pair for _src, pair in group])
        for (source, _pair), ok in zip(group, outcomes):
            if not ok:
                raise SimulationError(
                    f"authentic data record failed MAC verification at flat"
                    f" interval {flat}, source {source}"
                )
    forged_mac_valid = [False] * len(forged_cdms)
    by_high: Dict[int, List[int]] = {}
    for k, (high, _c, _m) in enumerate(forged_cdms):
        by_high.setdefault(high, []).append(k)
    for high, ids in by_high.items():
        key = sender.chain.high_key(high)
        pairs = []
        for k in ids:
            _h, commitment, mac = forged_cdms[k]
            payload = b"|".join([high.to_bytes(4, "big"), commitment, b""])
            pairs.append((payload, mac))
        for k, ok in zip(ids, mac_scheme.verify_many(key, pairs)):
            forged_mac_valid[k] = ok

    # EDRP hash pinning: a forged CDM matches the pin for high ``h``
    # only if H over its digest payload collides with the hash of the
    # authentic CDM_h (pin bytes come from authentic CDM_{h-1}).
    forged_pin_match = [False] * len(forged_cdms)
    if params.cdm_hash_chaining:
        hash_fn = standard_functions()["H"]
        expected: Dict[int, bytes] = {}
        for high, packet in cdm_by_high.items():
            if packet.next_cdm_hash is not None:
                expected[high + 1] = packet.next_cdm_hash
        for k, (high, commitment, mac) in enumerate(forged_cdms):
            pin = expected.get(high)
            if pin is None:
                continue
            digest_payload = b"|".join(
                [high.to_bytes(4, "big"), commitment, b"", mac]
            )
            forged_pin_match[k] = hash_fn(digest_payload) == pin

    commitment_present = {
        high: packet.low_commitment != _NO_COMMITMENT
        for high, packet in cdm_by_high.items()
    }
    has_next_hash = {
        high: packet.next_cdm_hash is not None
        for high, packet in cdm_by_high.items()
    }

    return _MultiLevelPlan(
        times=times,
        kinds=kinds,
        index=index,
        sources=sources,
        gate=gate,
        disc_index=disc_index,
        commitment_present=commitment_present,
        has_next_hash=has_next_hash,
        forged_mac_valid=forged_mac_valid,
        forged_pin_match=forged_pin_match,
        low_per_high=lph,
        high_gap_bound=4 * params.high_length,
        anchor_offset=0 if params.eftp_wiring else 1,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval
        * (config.intervals - params.low_disclosure_delay),
    )


def _build_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    attacker_rng: random.Random,
) -> _Plan:
    if config.protocol in TWO_PHASE:
        return _build_two_phase_plan(config, schedule, sync, workload, attacker_rng)
    if config.protocol in SINGLE_LEVEL:
        return _build_single_level_plan(
            config, schedule, sync, workload, attacker_rng
        )
    return _build_multilevel_plan(config, schedule, sync, workload, attacker_rng)


# ---------------------------------------------------------------------------
# Delivery mask: the shared medium stream, bit-packed.


def _packed_delivery_mask(
    config: ScenarioConfig, slots: int, medium_rng: random.Random
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Bit-packed ``(slots, ceil(receivers/8))`` delivery matrix.

    Consumes the medium RNG stream in the exact order
    ``BroadcastMedium.broadcast`` does — per broadcast, one decision per
    attached receiver, in attachment order — but through a mirrored
    NumPy Mersenne state so the draws vectorize, generated in bounded
    blocks along the slot axis (Gilbert–Elliott channel state carries
    across blocks). Returns ``(packed, delivered_any, delivered_total)``.
    """
    receivers = config.receivers
    bursty = config.loss_mean_burst is not None and config.loss_probability > 0.0
    draws = 2 if bursty else 1
    # A CPython Random and a NumPy RandomState share the MT19937 core:
    # transplanting the 624-word state makes random_sample() emit the
    # same doubles random() would, draw for draw.
    _version, internal, _gauss = medium_rng.getstate()
    mirror = np.random.RandomState()
    mirror.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    row_bytes = (receivers + 7) // 8
    packed = np.empty((slots, row_bytes), dtype=np.uint8)
    delivered_any = np.zeros(slots, dtype=bool)
    delivered_total = 0
    per_slot = receivers * draws
    block = max(1, _DELIVERY_BLOCK_FLOATS // max(per_slot, 1))
    reference = None
    if bursty:
        reference = GilbertElliottLoss.from_average(
            config.loss_probability, config.loss_mean_burst
        )
    channel_state: Optional[np.ndarray] = None
    for begin in range(0, slots, block):
        end = min(begin + block, slots)
        uniforms = mirror.random_sample((end - begin) * per_slot).reshape(
            end - begin, receivers, draws
        )
        if reference is not None:
            drops, channel_state = gilbert_elliott_drop_mask(
                uniforms,
                reference.p_good_to_bad,
                reference.p_bad_to_good,
                reference.loss_good,
                reference.loss_bad,
                initial_bad=channel_state,
                return_state=True,
            )
        else:
            drops = bernoulli_drop_mask(
                uniforms[:, :, 0], config.loss_probability
            )
        delivered = ~drops
        packed[begin:end] = np.packbits(delivered, axis=1)
        delivered_any[begin:end] = delivered.any(axis=1)
        delivered_total += int(delivered.sum())
    return packed, delivered_any, delivered_total


def _shard_delivered(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Unpack receivers ``[start, stop)`` from the bit-packed mask."""
    first_byte = start // 8
    bits = np.unpackbits(packed[:, first_byte : (stop + 7) // 8], axis=1)
    offset = start - 8 * first_byte
    return bits[:, offset : offset + (stop - start)].astype(bool)


# ---------------------------------------------------------------------------
# Per-shard replays. Each returns eight per-receiver counter lists
# (receiver order within the shard): authenticated, lost_no_record,
# rejected_forged, rejected_weak_auth, discarded_unsafe,
# forged_accepted, packets_received, peak_buffer_bits.

_Counts = Tuple[
    List[int], List[int], List[int], List[int],
    List[int], List[int], List[int], List[int],
]


@dataclass(frozen=True)
class _TwoPhaseVecPlan:
    """Receiver-independent numpy views of a :class:`_TwoPhasePlan`.

    Offers (gated announce/forged slots) are grouped into contiguous
    per-interval *runs*; reveals carry their position within the offer
    sequence so fills-before-reveal falls out of one cumulative sum,
    their run (``-1`` when the interval has no offers) and a dense id
    of their ``(interval, source)`` key.
    """

    offer_rows: np.ndarray
    discard_rows: np.ndarray
    reveal_rows: np.ndarray
    run_starts: np.ndarray
    run_ends: np.ndarray
    run_id: np.ndarray
    run_intervals: np.ndarray
    run_mixed: np.ndarray
    offer_sources: np.ndarray
    reveal_intervals: np.ndarray
    reveal_sources: np.ndarray
    reveal_run: np.ndarray
    reveal_key: np.ndarray
    pos_in_offers: np.ndarray


def _two_phase_precompute(plan: _TwoPhasePlan) -> _TwoPhaseVecPlan:
    """Lay out a two-phase plan for :func:`_replay_two_phase`.

    Verifies the structural facts the replay's exactness rests on: each
    interval's gated offers form one contiguous slot run, runs ascend,
    reveals arrive in non-decreasing interval order, and every reveal of
    an interval lands after that interval's last offer (so the bucket it
    matches against is frozen). The announce/reveal windows of every
    plan :func:`_build_two_phase_plan` lays out guarantee all of this;
    a violation is an internal error.
    """
    kinds = np.asarray(plan.kinds, dtype=np.int64)
    gate = np.asarray(plan.gate, dtype=bool)
    intervals = np.asarray(plan.intervals, dtype=np.int64)
    sources = np.asarray(plan.sources, dtype=np.int64)
    is_offer = kinds != _REVEAL
    offer_rows = np.nonzero(is_offer & gate)[0]
    reveal_rows = np.nonzero(~is_offer)[0]
    offer_intervals = intervals[offer_rows]
    changes = np.nonzero(np.diff(offer_intervals))[0] + 1
    if offer_rows.size:
        run_starts = np.concatenate(([0], changes))
        run_ends = np.concatenate((changes, [offer_rows.size])) - 1
    else:
        run_starts = run_ends = changes
    run_intervals = offer_intervals[run_starts]
    run_id = np.zeros(offer_rows.size, dtype=np.int64)
    run_id[changes] = 1
    run_id = np.cumsum(run_id)
    reveal_intervals = intervals[reveal_rows]
    reveal_sources = sources[reveal_rows]
    run_pos = np.searchsorted(run_intervals, reveal_intervals)
    has_run = run_pos < run_intervals.size
    has_run[has_run] = run_intervals[run_pos[has_run]] == reveal_intervals[has_run]
    reveal_run = np.where(has_run, run_pos, -1)
    if (
        np.any(np.diff(run_intervals) <= 0)
        or np.any(np.diff(reveal_intervals) < 0)
        or np.any(reveal_rows[has_run] < offer_rows[run_ends[reveal_run[has_run]]])
    ):
        raise SimulationError(
            "two-phase plan violates the announce/reveal window layout"
            " the fleet replay relies on"
        )
    span = int(reveal_sources.max(initial=0)) + 1
    _keys, reveal_key = np.unique(
        reveal_intervals * span + reveal_sources, return_inverse=True
    )
    return _TwoPhaseVecPlan(
        offer_rows=offer_rows,
        discard_rows=np.nonzero(is_offer & ~gate)[0],
        reveal_rows=reveal_rows,
        run_starts=run_starts,
        run_ends=run_ends,
        run_id=run_id,
        run_intervals=run_intervals,
        run_mixed=mix_array(run_intervals.astype(np.uint64)),
        offer_sources=sources[offer_rows],
        reveal_intervals=reveal_intervals,
        reveal_sources=reveal_sources,
        reveal_run=reveal_run,
        reveal_key=reveal_key.reshape(-1),
        pos_in_offers=np.searchsorted(offer_rows, reveal_rows),
    )


#: Receiver-block width for the two-phase replay — bounds the
#: (offer-slots x receivers) rank/cumsum temporaries to a few MiB.
_REPLAY_BLOCK = 8192


def _replay_two_phase(
    plan: _TwoPhasePlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Algorithm 2 over whole receiver blocks, in numpy.

    Every reservoir draw is a pure function of (receiver key, interval,
    offer rank) (:mod:`repro.buffers.keyed`), so no receiver has to be
    replayed offer by offer:

    - a segmented cumulative sum ranks every delivered offer within its
      interval run; ranks up to the capacity are free-slot fills;
    - the overflow offers of all receivers draw at once, and each slot
      ends up holding the *last* accepted offer that targeted it;
    - delivered reveal intervals never decrease, so the weak-auth
      lockout is a suffix of each receiver's reveals, a key's first
      occurrence decides its outcome, and stale-interval pops are a
      cumulative sum over runs. Peak occupancy is the maximum of the
      fills before each reveal minus the pops before it, and of the
      final fills minus the final pops.

    Only the exact μMAC collision fallback (no surviving record carries
    the reveal's MAC bytes, but the bucket is not empty) is a flat loop,
    one :meth:`~repro.crypto.mac.MicroMacScheme.compute_many` batch per
    receiver.
    """
    pre = _two_phase_precompute(plan)
    widest = max(int(pre.offer_rows.size), pre.run_intervals.size * config.buffers, 1)
    block = min(_REPLAY_BLOCK, max(32, (8 << 20) // widest))
    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    for b0 in range(0, len(seeds), block):
        b1 = min(b0 + block, len(seeds))
        counts = _replay_two_phase_block(
            plan, pre, config, start + b0, seeds[b0:b1], delivered[:, b0:b1]
        )
        for column, values in zip(out, counts):
            column.extend(values)
    return out  # type: ignore[return-value]


def _replay_two_phase_block(
    plan: _TwoPhasePlan,
    pre: _TwoPhaseVecPlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    blk: np.ndarray,
) -> Tuple[List[int], ...]:
    """:func:`_replay_two_phase` for receivers ``[start, start + nb)``."""
    capacity = config.buffers
    nb = blk.shape[1]
    n_runs = pre.run_intervals.size

    # --- offers: ranks within runs, free-slot fills, overflow draws ---
    d_off = blk[pre.offer_rows]
    cum = np.cumsum(d_off, axis=0, dtype=np.int32)
    before_run = np.zeros((n_runs, nb), dtype=np.int32)
    before_run[1:] = cum[pre.run_starts[1:] - 1]
    rank = cum - before_run[pre.run_id]
    counts = cum[pre.run_ends] - before_run
    held_len = np.minimum(counts, capacity)
    fill = d_off & (rank <= capacity)
    fills = np.zeros((pre.offer_rows.size + 1, nb), dtype=np.int32)
    np.cumsum(fill, axis=0, out=fills[1:])
    # fin[r, run, slot]: the source id in each buffer slot at the end.
    fin = np.zeros((nb, n_runs, capacity), dtype=np.int64)
    f_c, f_r = np.nonzero(fill)
    fin[f_r, pre.run_id[f_c], rank[f_c, f_r] - 1] = pre.offer_sources[f_c]
    if plan.reservoir:
        # Offer-major order: within one (receiver, run) a later array
        # position is a later offer, so the last accepted write to a
        # slot is its last occurrence.
        o_c, o_r = np.nonzero(d_off & ~fill)
        bucket_keys = mix_array(
            np.asarray(seeds, dtype=np.uint64)[:, None] ^ pre.run_mixed[None, :]
        )
        o_run = pre.run_id[o_c]
        accepted, victims = replacement_slots(
            bucket_keys[o_r, o_run], rank[o_c, o_r], capacity
        )
        slot = (o_r[accepted] * n_runs + o_run[accepted]) * capacity + victims
        last, first_in_reverse = np.unique(slot[::-1], return_index=True)
        fin.reshape(-1)[last] = pre.offer_sources[o_c[accepted]][::-1][
            first_in_reverse
        ]

    # --- delivered reveals, receiver-major ---
    v_r, v_c = np.nonzero(np.ascontiguousarray(blk[pre.reveal_rows].T))
    n_occ = v_r.size
    position = np.arange(n_occ)
    interval = pre.reveal_intervals[v_c]
    previous = np.zeros(n_occ, dtype=np.int64)
    previous[1:] = interval[:-1]
    first_of_receiver = np.ones(n_occ, dtype=bool)
    first_of_receiver[1:] = v_r[1:] != v_r[:-1]
    previous[first_of_receiver] = 0
    # Weak auth: the first reveal past the gap bound locks the receiver
    # out for good (its trusted key stops advancing while intervals do).
    lockout = np.full(nb, n_occ, dtype=np.int64)
    over_gap = interval - previous > protocol_base.MAX_KEY_GAP
    np.minimum.at(lockout, v_r[over_gap], position[over_gap])
    weak = position >= lockout[v_r]
    # Stale pops: a passing reveal of interval i frees every run older
    # than i - 1, so the pops before an occurrence follow from the last
    # passing interval before it.
    popped = np.zeros((n_runs + 1, nb), dtype=np.int32)
    np.cumsum(held_len, axis=0, out=popped[1:])
    last_passing = previous[np.minimum(position, lockout[v_r])]
    stored = (
        fills[pre.pos_in_offers[v_c], v_r]
        - popped[np.searchsorted(pre.run_intervals, last_passing - 1), v_r]
    )
    per_receiver = np.bincount(v_r, minlength=nb)
    ends = np.cumsum(per_receiver)
    final = np.minimum(ends, lockout) - 1
    padded = np.concatenate(([0], interval))
    final_interval = padded[np.where(final >= ends - per_receiver, final + 1, 0)]
    peak = (
        fills[-1]
        - popped[np.searchsorted(pre.run_intervals, final_interval - 1), np.arange(nb)]
    )
    np.maximum.at(peak, v_r, stored)

    # --- strong auth: containment, collision fallback, first occurrence ---
    key = v_r * (int(pre.reveal_key.max(initial=0)) + 1) + pre.reveal_key[v_c]
    _keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    first_column = v_c[first]
    run = pre.reveal_run[first_column]
    r = v_r[first]
    source = pre.reveal_sources[first_column]
    if n_runs:
        run0 = np.maximum(run, 0)
        held = held_len[run0, r] * (run >= 0)
        contains = (
            (fin[r, run0, :] == source[:, None])
            & (np.arange(capacity) < held[:, None])
        ).any(axis=1)
    else:
        held = np.zeros(first.size, dtype=np.int32)
        contains = np.zeros(first.size, dtype=bool)
    matched = contains
    fallback = np.nonzero(~contains & (held > 0) & ~weak[first])[0]
    if fallback.size:
        matched = contains.copy()
        matched[fallback] = _collision_matches(
            plan,
            config,
            start,
            r[fallback],
            pre.reveal_intervals[first_column[fallback]],
            source[fallback],
            [fin[i, j, :h] for i, j, h in zip(r[fallback], run[fallback], held[fallback])],
        )
    occ_matched = matched[inverse.reshape(-1)]
    first_mask = np.zeros(n_occ, dtype=bool)
    first_mask[first] = True
    passing = ~weak
    return (
        np.bincount(v_r[passing & occ_matched & first_mask], minlength=nb).tolist(),
        np.bincount(v_r[passing & ~occ_matched], minlength=nb).tolist(),
        [0] * nb,
        np.bincount(v_r[weak], minlength=nb).tolist(),
        blk[pre.discard_rows].sum(axis=0, dtype=np.int64).tolist(),
        [0] * nb,
        blk.sum(axis=0, dtype=np.int64).tolist(),
        (peak.astype(np.int64) * plan.item_bits).tolist(),
    )


def _collision_matches(
    plan: _TwoPhasePlan,
    config: ScenarioConfig,
    start: int,
    receivers: np.ndarray,
    intervals: np.ndarray,
    sources: np.ndarray,
    held: List[np.ndarray],
) -> List[bool]:
    """Whether a held record's μMAC equals the reveal's anyway.

    For reveals whose MAC bytes no surviving record carries: the DES
    compares actual μMACs, so a 24-bit collision authenticates there and
    must here too. One batch per receiver (its local key).
    """
    micro = MicroMacScheme(plan.item_bits - INDEX_BITS)
    announce_macs = plan.announce_macs
    forged_macs = plan.forged_macs
    matched: List[bool] = []
    items = zip(receivers.tolist(), intervals.tolist(), sources.tolist(), held)
    for receiver, group in groupby(items, key=lambda item: item[0]):
        misses = [(interval, source, slots.tolist()) for _r, interval, source, slots in group]
        batch: List[bytes] = []
        for interval, source, slots in misses:
            batch.append(announce_macs[(interval, source)])
            batch.extend(
                announce_macs[(interval, slot)] if slot >= 0 else forged_macs[-1 - slot]
                for slot in slots
            )
        digests = micro.compute_many(
            _seed_bytes(config, f"local-{start + receiver}"), batch
        )
        offset = 0
        for _interval, _source, slots in misses:
            expected = digests[offset]
            matched.append(expected in digests[offset + 1 : offset + 1 + len(slots)])
            offset += 1 + len(slots)
    return matched


def _replay_single_level(
    plan: _SingleLevelPlan,
    config: ScenarioConfig,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    rec_interval = plan.rec_interval
    rec_source = plan.rec_source
    forged_valid = plan.forged_valid
    gate = plan.gate
    disc_index = plan.disc_index
    disc_anchors = plan.disc_anchors
    capacity = config.buffers
    max_gap = protocol_base.MAX_KEY_GAP

    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    (auth_c, lost_c, rejf_c, weak_c, disc_c, facc_c, recv_c, peak_c) = out
    for local in range(len(seeds)):
        # keep_first buffering never draws, so the per-receiver RNG
        # (already consumed from the master stream) goes untouched —
        # exactly as in the DES.
        delivered_slots = np.nonzero(delivered[:, local])[0].tolist()
        # interval -> [record sources, in arrival order]
        buckets: Dict[int, List[int]] = {}
        trusted = 0
        stored = 0
        peak = 0
        n_auth = n_rej = n_weak = n_discarded = n_facc = 0
        for b in delivered_slots:
            interval = rec_interval[b]
            if interval >= 1:
                if not gate[b]:
                    n_discarded += 1
                    # TESLA still processes the piggybacked disclosure
                    # of a gated-out packet — fall through.
                else:
                    held = buckets.get(interval)
                    if held is None:
                        held = []
                        buckets[interval] = held
                    if len(held) < capacity:
                        held.append(rec_source[b])
                        stored += 1
                        if stored > peak:
                            peak = stored
            di = disc_index[b]
            if di < 1:
                continue
            anchors = disc_anchors[b]
            if di < trusted or di - trusted > max_gap:
                n_weak += 1
                continue
            if anchors is not None:
                # Forged disclosure: authenticates only from an anchor
                # in its (practically empty) back-walk collision set.
                if trusted in anchors:
                    raise SimulationError(
                        "forged key disclosure back-walked to the trusted"
                        " chain (2^-80 collision) — replay cannot mirror a"
                        " corrupted trust anchor"
                    )
                n_weak += 1
                continue
            trusted = di
            # Flush every buffered interval at or below the new anchor,
            # deduplicating identical (message, MAC) copies per batch —
            # record identity (source id) is exactly that fingerprint.
            flushable = [i for i in buckets if i <= trusted]
            flushable.sort()
            for i in flushable:
                held = buckets.pop(i)
                stored -= len(held)
                seen: Set[int] = set()
                for source in held:
                    if source in seen:
                        continue
                    seen.add(source)
                    if source >= 0:
                        n_auth += 1
                    elif forged_valid[-1 - source]:
                        # 2^-80 truncated-HMAC collision: the DES would
                        # authenticate the forged record; mirror it.
                        n_auth += 1
                        n_facc += 1
                    else:
                        n_rej += 1
        auth_c.append(n_auth)
        lost_c.append(0)
        rejf_c.append(n_rej)
        weak_c.append(n_weak)
        disc_c.append(n_discarded)
        facc_c.append(n_facc)
        recv_c.append(len(delivered_slots))
        peak_c.append(peak * _RECORD_BITS)
    return out  # type: ignore[return-value]


def _replay_multilevel(
    plan: _MultiLevelPlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    kinds = plan.kinds
    index = plan.index
    sources = plan.sources
    gate = plan.gate
    disc_index = plan.disc_index
    commitment_present = plan.commitment_present
    has_next_hash = plan.has_next_hash
    forged_mac_valid = plan.forged_mac_valid
    forged_pin_match = plan.forged_pin_match
    lph = plan.low_per_high
    gap_bound = plan.high_gap_bound
    anchor_offset = plan.anchor_offset
    cdm_capacity = config.buffers
    data_capacity = LOW_BUFFER_CAPACITY

    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    (auth_c, lost_c, rejf_c, weak_c, disc_c, facc_c, recv_c, peak_c) = out
    for local, seed in enumerate(seeds):
        cdm_key = seed ^ CDM_POOL
        data_key = seed ^ DATA_POOL
        delivered_slots = np.nonzero(delivered[:, local])[0].tolist()

        high_trusted = 0
        cdm_auth: Set[int] = set()
        pinned: Set[int] = set()
        # Chain 1's commitment is installed at bootstrap, like the DES.
        commitments: Set[int] = {1}
        chains_seen: Set[int] = {1}
        trusted_sub: Dict[int, int] = {1: 0}
        pending: Dict[int, Set[int]] = {}
        # high -> [seen, held entries, draw key]; entry is -1 (authentic
        # CDM) or a forged id. flat -> [seen, held source ids, draw key]
        # for data records. A bucket's draw key is computed on its first
        # overflow.
        cdm_buckets: Dict[int, List[Any]] = {}
        data_buckets: Dict[int, List[Any]] = {}
        cdm_stored = cdm_peak = 0
        data_stored = data_peak = 0
        n_auth = n_weak = n_discarded = 0

        def flush_chain(chain: int, counted: bool) -> None:
            """Mirror of ``_flush_chain_data``: release (always) and
            count (only on emitted paths) verified records."""
            nonlocal data_stored, n_auth
            ts = trusted_sub.get(chain, 0)
            if ts < 1:
                return
            lo = (chain - 1) * lph + 1
            hi = lo - 1 + ts
            flushable = [f for f in data_buckets if lo <= f <= hi]
            flushable.sort()
            for flat in flushable:
                bucket = data_buckets.pop(flat)
                held = bucket[1]
                data_stored -= len(held)
                if not counted:
                    continue
                seen: Set[int] = set()
                for source in held:
                    if source in seen:
                        continue
                    seen.add(source)
                    # Data records are all authentic (the multi-level
                    # attacker forges CDMs); batched verify_many in the
                    # plan build proved each verifies under its key.
                    n_auth += 1

        def set_commitment(chain: int, counted: bool) -> None:
            """Mirror of ``_set_commitment`` with true commitment bytes:
            replaying the pending (authentic) disclosures anchors the
            chain at its highest pending sub-interval."""
            if chain in commitments:
                return
            commitments.add(chain)
            subs = pending.pop(chain, None)
            trusted_sub[chain] = max(subs) if subs else 0
            flush_chain(chain, counted)

        def accept_cdm(high: int) -> None:
            """Mirror of ``_accept_cdm`` for authentic CDMs — the events
            it returns are discarded at every DES call site, so the
            downstream flush is state-only (counted=False)."""
            if high in cdm_auth:
                return
            cdm_auth.add(high)
            if has_next_hash.get(high, False):
                pinned.add(high + 1)
            if commitment_present.get(high, False):
                set_commitment(high + 1, counted=False)

        def handle_high_disclosure(di: int) -> None:
            """Mirror of ``_handle_high_disclosure`` for the authentic
            high-key disclosures CDMs piggyback."""
            nonlocal high_trusted, cdm_stored
            if di < 1 or di < high_trusted or di - high_trusted > gap_bound:
                return
            high_trusted = di
            releasable = [h for h in cdm_buckets if h <= high_trusted]
            releasable.sort()
            for high in releasable:
                bucket = cdm_buckets.pop(high)
                held = bucket[1]
                cdm_stored -= len(held)
                if high in cdm_auth:
                    continue
                for entry in held:
                    if entry < 0:
                        accept_cdm(high)
                        break
                    if forged_mac_valid[entry]:
                        raise SimulationError(
                            "forged CDM passed MAC verification (2^-80"
                            " collision) — replay cannot mirror a"
                            " corrupted commitment"
                        )
            # key_chain_recovery is unconditionally on for the catalog
            # parameterisations (multilevel/eftp/edrp all keep the
            # default True) — recovered commitments are the true ones.
            for chain in sorted(chains_seen):
                if chain in commitments:
                    continue
                if chain + anchor_offset > high_trusted:
                    continue
                set_commitment(chain, counted=True)

        for b in delivered_slots:
            kind = kinds[b]
            if kind == _CDM:
                high = index[b]
                forged_id = sources[b]
                chains_seen.add(high + 1)
                if high not in cdm_auth:
                    accepted = False
                    if high in pinned:
                        if forged_id < 0:
                            accept_cdm(high)
                            accepted = True
                        elif forged_pin_match[forged_id]:
                            raise SimulationError(
                                "forged CDM matched the EDRP hash pin"
                                " (2^-80 collision) — replay cannot mirror"
                                " a corrupted commitment"
                            )
                    if not accepted and gate[b]:
                        bucket = cdm_buckets.get(high)
                        if bucket is None:
                            bucket = [0, [], None]
                            cdm_buckets[high] = bucket
                        bucket[0] += 1
                        held = bucket[1]
                        entry = -1 if forged_id < 0 else forged_id
                        if len(held) < cdm_capacity:
                            held.append(entry)
                            cdm_stored += 1
                            if cdm_stored > cdm_peak:
                                cdm_peak = cdm_stored
                        else:
                            # Algorithm 2 under the keyed draws of
                            # keyed.replacement_slot, inlined.
                            k = bucket[0]
                            bkey = bucket[2]
                            if bkey is None:
                                bkey = bucket[2] = buffer_key(cdm_key, high)
                            u = mix((bkey + (k << 1) * GAMMA) & MASK)
                            if (u >> 11) * UNIT < cdm_capacity / k:
                                u = mix((bkey + ((k << 1) | 1) * GAMMA) & MASK)
                                held[int((u >> 11) * UNIT * cdm_capacity)] = entry
                if forged_id < 0 and disc_index[b] >= 1:
                    handle_high_disclosure(disc_index[b])
            elif kind == _DATA:
                flat = index[b]
                chain = (flat - 1) // lph + 1
                chains_seen.add(chain)
                if not gate[b]:
                    n_discarded += 1
                    continue
                bucket = data_buckets.get(flat)
                if bucket is None:
                    bucket = [0, [], None]
                    data_buckets[flat] = bucket
                bucket[0] += 1
                held = bucket[1]
                if len(held) < data_capacity:
                    held.append(sources[b])
                    data_stored += 1
                    if data_stored > data_peak:
                        data_peak = data_stored
                else:
                    k = bucket[0]
                    bkey = bucket[2]
                    if bkey is None:
                        bkey = bucket[2] = buffer_key(data_key, flat)
                    u = mix((bkey + (k << 1) * GAMMA) & MASK)
                    if (u >> 11) * UNIT < data_capacity / k:
                        u = mix((bkey + ((k << 1) | 1) * GAMMA) & MASK)
                        held[int((u >> 11) * UNIT * data_capacity)] = sources[b]
                # Every other bucket inside the chain's trusted range was
                # flushed when the range last grew, so only this record's
                # own sub-interval can be flushable now.
                if (flat - 1) % lph + 1 <= trusted_sub.get(chain, 0):
                    flush_chain(chain, counted=True)
            else:  # _DISC
                flat = index[b]
                chain = (flat - 1) // lph + 1
                sub = (flat - 1) % lph + 1
                chains_seen.add(chain)
                if chain not in commitments:
                    pending.setdefault(chain, set()).add(sub)
                elif sub < trusted_sub.get(chain, 0):
                    n_weak += 1
                else:
                    trusted_sub[chain] = sub
                    flush_chain(chain, counted=True)
        auth_c.append(n_auth)
        lost_c.append(0)
        rejf_c.append(0)
        weak_c.append(n_weak)
        disc_c.append(n_discarded)
        facc_c.append(0)
        recv_c.append(len(delivered_slots))
        peak_c.append(cdm_peak * _CDM_BITS + data_peak * _RECORD_BITS)
    return out  # type: ignore[return-value]


def _replay_span(
    plan: _Plan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Replay receivers ``[start, start + len(seeds))`` against their
    delivery slice (``start`` keys per-receiver local-key derivation)."""
    if isinstance(plan, _TwoPhasePlan):
        return _replay_two_phase(plan, config, start, seeds, delivered)
    if isinstance(plan, _SingleLevelPlan):
        return _replay_single_level(plan, config, seeds, delivered)
    return _replay_multilevel(plan, config, start, seeds, delivered)


# ---------------------------------------------------------------------------
# Sharded execution.


def _run_shard(task: Tuple[Any, ...]) -> Tuple[int, int, _Counts]:
    """Worker entry point: attach the shared delivery mask, replay one
    receiver shard, detach. Module-level so process pools can pickle it."""
    plan, config, start, stop, seeds, shm_name, slots, row_bytes = task
    if shm_name is None:
        raise ConfigurationError("shard task carries no shared-memory block")
    block = _attach_shared(shm_name)
    try:
        packed = np.ndarray(
            (slots, row_bytes), dtype=np.uint8, buffer=block.buf
        )
        delivered = _shard_delivered(packed, start, stop)
    finally:
        # Attach-side hygiene: close (never unlink — the parent owns
        # the block's lifetime).
        block.close()
    counts = _replay_span(plan, config, start, seeds, delivered)
    return start, stop, counts


def _attach_shared(name: str) -> shared_memory.SharedMemory:
    """Attach an existing shared-memory block without tracker churn."""
    try:
        # Python >= 3.13: opt out of the resource tracker on the attach
        # side; the creating process owns cleanup.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class _CountAccumulator:
    """Streaming reduction over per-shard counter blocks.

    ``nodes`` mode scatters each block into full-fleet arrays for an
    exact :class:`~repro.sim.metrics.FleetSummary`; ``aggregate`` mode
    folds each block into a fixed-size
    :class:`~repro.sim.metrics.FleetAggregate` and forgets it, so peak
    memory tracks one shard regardless of receiver count.
    """

    def __init__(self, receivers: int, sent_authentic: int, mode: str) -> None:
        self._mode = mode
        self._sent = sent_authentic
        if mode == "nodes":
            self._columns = [
                np.zeros(receivers, dtype=np.int64) for _ in range(8)
            ]
        else:
            self._aggregate = FleetAggregate.empty(sent_authentic)

    def fold(self, start: int, stop: int, counts: _Counts) -> None:
        if self._mode == "nodes":
            for column, values in zip(self._columns, counts):
                column[start:stop] = values
            return
        (auth, lost, rejf, weak, disc, facc, recv, peak) = counts
        shard = FleetAggregate(
            node_count=stop - start,
            sent_authentic=self._sent,
            total_authenticated=sum(auth),
            total_lost_no_record=sum(lost),
            total_rejected_forged=sum(rejf),
            total_rejected_weak_auth=sum(weak),
            total_discarded_unsafe=sum(disc),
            total_forged_accepted=sum(facc),
            total_packets_received=sum(recv),
            peak_buffer_bits=max(peak, default=0),
        )
        self._aggregate = self._aggregate.merged_with(shard)

    def result(self, receivers: int) -> FleetSummary | FleetAggregate:
        if self._mode == "nodes":
            names = [f"recv-{r}" for r in range(receivers)]
            return fleet_summary_from_arrays(
                names, *self._columns, sent_authentic=self._sent
            )
        return self._aggregate


def run_fleet_scenario(
    config: ScenarioConfig,
    *,
    shards: int = 1,
    executor: Optional[Executor] = None,
    summary: str = "nodes",
) -> ScenarioResult:
    """Vectorized equivalent of :func:`~repro.sim.scenario.run_scenario`.

    Args:
        config: the scenario to run (any catalog protocol family).
        shards: receiver-axis shards (``shard_plan`` ranges; clamped to
            the receiver count). With ``shards == 1`` the replay runs
            inline.
        executor: optional :class:`~repro.engine.executors.Executor`
            to fan shards out on. Parallel executors receive the
            bit-packed delivery mask via ``multiprocessing``
            shared memory (one copy for the whole pool); serial (or
            no) executors replay shard slices in-process. Results are
            folded as they stream in, whichever order they finish.
        summary: ``"nodes"`` for an exact per-receiver
            :class:`~repro.sim.metrics.FleetSummary` (byte-identical to
            the DES), ``"aggregate"`` for a fixed-size
            :class:`~repro.sim.metrics.FleetAggregate` whose memory
            does not grow with the fleet.

    Raises:
        ConfigurationError: for protocol families outside
            :data:`SUPPORTED_PROTOCOLS` (callers should fall back to
            the DES — ``run_scenario`` does this automatically), or
            invalid ``shards`` / ``summary`` values.
    """
    if not supports(config):
        raise ConfigurationError(
            f"vectorized engine does not support protocol {config.protocol!r};"
            f" supported: {SUPPORTED_PROTOCOLS}"
        )
    if summary not in ("nodes", "aggregate"):
        raise ConfigurationError(
            f"summary must be 'nodes' or 'aggregate', got {summary!r}"
        )
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    shards = min(shards, config.receivers)

    # Master draw order mirrors run_scenario + the family builders.
    # medium_rng stays unwrapped: _packed_delivery_mask consumes its
    # getstate() to seed the numpy mirror, which a tracing wrapper
    # would intercept without seeing the numpy-side draws.
    rng = traced_rng(random.Random(config.seed), "master")
    medium_rng = random.Random(rng.getrandbits(64))
    schedule = IntervalSchedule(0.0, config.interval_duration)
    sync = LooseTimeSync(config.max_offset)
    workload = workload_for(config)
    receiver_seeds = [rng.getrandbits(64) for _ in range(config.receivers)]
    # run_scenario draws the attacker seed only when the attack is on.
    attacker_rng = (
        traced_rng(random.Random(rng.getrandbits(64)), "attacker")
        if config.attack_fraction > 0.0
        # reprolint: disable=RPL002 -- never drawn from: attack is off, and taking a master-seed draw here would break DES draw-order parity
        else random.Random()
    )

    plan = _build_plan(config, schedule, sync, workload, attacker_rng)
    slots = len(plan.times)
    packed, delivered_any, delivered_total = _packed_delivery_mask(
        config, slots, medium_rng
    )

    accumulator = _CountAccumulator(
        config.receivers, plan.sent_authentic, summary
    )
    spans = shard_plan(config.receivers, shards)
    parallel = executor is not None and executor.jobs > 1 and len(spans) > 1
    if parallel:
        block = shared_memory.SharedMemory(create=True, size=packed.nbytes)
        track_resource(
            "shm", block.name, f"fleet delivery mask ({packed.nbytes} bytes)"
        )
        try:
            shared_view = np.ndarray(
                packed.shape, dtype=np.uint8, buffer=block.buf
            )
            shared_view[:] = packed
            row_bytes = packed.shape[1]
            tasks = tuple(
                (
                    plan,
                    config,
                    start,
                    stop,
                    receiver_seeds[start:stop],
                    block.name,
                    slots,
                    row_bytes,
                )
                for start, stop in spans
            )
            spec = ExperimentSpec.over(
                _run_shard,
                tasks,
                label=f"fleet[{config.protocol}]",
                task_labels=[f"shard[{a}:{b}]" for a, b in spans],
            )
            assert executor is not None
            for _index, result in executor.stream(spec):
                start, stop, counts = result
                accumulator.fold(start, stop, counts)
        finally:
            # Create-side hygiene: the block must disappear even when a
            # shard fails mid-stream.
            block.close()
            block.unlink()
            release_resource("shm", block.name)
    else:
        for start, stop in spans:
            delivered = _shard_delivered(packed, start, stop)
            counts = _replay_span(
                plan, config, start, receiver_seeds[start:stop], delivered
            )
            accumulator.fold(start, stop, counts)
    fleet = accumulator.result(config.receivers)

    total_bits = plan.legitimate_bits + plan.forged_bits
    forged_fraction = plan.forged_bits / total_bits if total_bits else 0.0

    horizon = schedule.end_of(config.intervals) + 2 * config.interval_duration
    simulated = horizon
    if delivered_any.any():
        last_arrival = (
            float(plan.times[delivered_any].max()) + config.link_delay
        )
        if last_arrival > horizon:
            simulated = last_arrival

    active = perf.ACTIVE
    if active is not None:
        active.incr(SIM_BROADCASTS, slots)
        active.incr(SIM_DELIVERIES, delivered_total)
        active.incr(SIM_DROPS, slots * config.receivers - delivered_total)

    return ScenarioResult(
        config=config,
        fleet=fleet,
        sent_authentic=plan.sent_authentic,
        forged_bandwidth_fraction=forged_fraction,
        simulated_seconds=simulated,
        nodes=(),
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """DES-vs-vectorized cross-check over a seed set.

    Attributes:
        config: the scenario compared (seed field varies per run).
        seeds: the seeds compared.
        identical: how many seeds produced byte-identical fleet
            summaries (the exact-mirroring contract makes this equal
            ``len(seeds)`` for every supported family).
        auth_rate_diff: paired authentication-rate differences
            (vectorized minus DES), with confidence bounds.
        attack_rate_diff: paired attack-success-rate differences.
        passes: whether both confidence intervals contain zero (within
            ``tolerance``).
    """

    config: ScenarioConfig
    seeds: Tuple[int, ...]
    identical: int
    auth_rate_diff: MeanEstimate
    attack_rate_diff: MeanEstimate
    passes: bool


def statistical_equivalence(
    config: ScenarioConfig,
    seeds: Sequence[int],
    confidence: float = 0.95,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Run both engines over ``seeds`` and bound their rate differences.

    The exact-mirroring contract makes the differences identically zero
    for every supported family; the harness proves it per preset (and
    remains the right tool for future fast paths where per-draw
    mirroring is impractical and only distributional equality holds).
    """
    from repro.sim.scenario import run_scenario

    if not seeds:
        raise ConfigurationError("seeds must be non-empty")
    auth_diffs: List[float] = []
    attack_diffs: List[float] = []
    identical = 0
    for seed in seeds:
        des = run_scenario(replace(config, seed=seed, engine="des"))
        fast = run_fleet_scenario(replace(config, seed=seed, engine="vectorized"))
        auth_diffs.append(fast.authentication_rate - des.authentication_rate)
        attack_diffs.append(fast.attack_success_rate - des.attack_success_rate)
        if fast.fleet == des.fleet:
            identical += 1
    auth = mean_estimate(auth_diffs, confidence)
    attack = mean_estimate(attack_diffs, confidence)
    passes = (
        auth.low - tolerance <= 0.0 <= auth.high + tolerance
        and attack.low - tolerance <= 0.0 <= attack.high + tolerance
    )
    return EquivalenceReport(
        config=config,
        seeds=tuple(seeds),
        identical=identical,
        auth_rate_diff=auth,
        attack_rate_diff=attack,
        passes=passes,
    )
