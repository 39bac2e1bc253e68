"""Array-structured scenario engine for every protocol family.

:func:`run_fleet_scenario` simulates the entire receiver fleet as
arrays instead of per-node event callbacks: one broadcast timeline is
laid out up front, per-slot channel decisions are drawn for a whole
shard of receivers at once (the keyed channel's array twin: one
Bernoulli mask, or a block-wise Markov transition over a
``(receivers,)`` Gilbert–Elliott state array), and the
buffer/authentication state machines run as numpy over whole
receiver blocks: all at once for the two-phase family, slot by slot in
lockstep for the multi-level family (every DES branch a row mask over
the receivers that got the slot), and as tight per-receiver loops over
the delivered-slot indices for the single-level family — no heapq, no
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

- master draws: medium key, per-receiver draw keys (receiver order),
  attacker seed — exactly as ``run_scenario`` + the family builders;
- channel draws: the delivery of slot ``b`` to receiver ``r`` is the
  :mod:`repro.sim.channel` decision keyed by ``(medium key, r, b)`` —
  one lane per Bernoulli decision, two per Gilbert–Elliott decision
  (transition, then loss), with the per-receiver fade state carried
  along the slot axis — exactly what the DES medium decides for its
  ``r``-th attachment and ``b``-th broadcast;
- reservoir draws: Algorithm 2's two uniforms for offer ``k`` to a full
  buffer are :mod:`repro.buffers.keyed` draws of ``(receiver key,
  interval, k)`` — pure functions, not stream positions — so the
  fleet evaluates them in any order. The two-phase replay draws every
  overflow offer of a receiver block in one ``uint64`` numpy call and
  keeps, per slot, the last accepted offer that targeted it; the
  multi-level replay draws one slot's overflow offers across the block
  in one call, with the CDM and data pools keyed by their pool tags as
  in the DES receiver;
- forged bytes are replayed from the attacker stream in injection
  order, which is what makes every collision fallback exact.

Sharding
--------

Receivers never interact and every channel decision is keyed, so the
receiver axis shards cleanly: :func:`shard_plan` cuts it into
contiguous ranges (balanced via :func:`repro.net.harness.shard_sizes`
— the same plan the live-network harness uses), each shard task draws
its own slice of the delivery mask from the config, the medium key and
its receiver range, then replays it, and per-shard results stream back
through :meth:`repro.engine.executors.Executor.stream` to be folded one
shard at a time (the counts, and the ``delivered_any`` /
``delivered_total`` the run's horizon and counters need). The parent
never holds a mask. With ``summary="aggregate"`` the reduction keeps a
single :class:`~repro.sim.metrics.FleetAggregate` instead of per-node
rows, so peak memory tracks one shard regardless of fleet size.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import groupby
from typing import (
    Any,
    ContextManager,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro import perf
from repro.buffers.keyed import (
    CDM_POOL,
    DATA_POOL,
    mix,
    mix_array,
    replacement_slots,
)
from repro.crypto.mac import INDEX_BITS, MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction, standard_functions
from repro.devtools.sanitizers.determinism import traced_rng
from repro.engine.executors import Executor
from repro.engine.spec import ExperimentSpec
from repro.errors import ConfigurationError, SimulationError
from repro.perf.names import (
    SIM_BROADCASTS,
    SIM_DELIVERIES,
    SIM_DROPS,
    SIM_FLEET_MASK,
    SIM_FLEET_PLAN,
    SIM_FLEET_REDUCE,
    SIM_FLEET_REPLAY,
)
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
    bernoulli_drop_mask,
    bursty_channel,
    gilbert_elliott_drop_mask,
    link_keys,
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

#: Decisions per block when materialising a shard's delivery mask:
#: the block's ``uint64`` temporaries (512 KiB each) stay in cache,
#: which makes the mask about twice as fast as 16 MiB blocks, and peak
#: RSS stays flat as ``slots x receivers`` grows.
_MASK_BLOCK_DECISIONS = 1 << 16


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
# folded into boolean tables here — the replays do array and list work
# only.


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
# Delivery mask: the keyed channel over one shard's receivers.


def _delivery_mask(
    config: ScenarioConfig, key: int, start: int, stop: int, slots: int
) -> np.ndarray:
    """``(slots, stop - start)`` delivery matrix of receivers ``[start, stop)``.

    Slot ``b`` is broadcast ``b`` of the DES medium and receiver ``r``
    its ``r``-th attachment, so this is the medium's keyed decision for
    every pair; it is computed in bounded blocks along the slot axis
    (Gilbert–Elliott fade state carries across blocks). Any receiver
    range gives the same columns as the whole fleet.
    """
    width = stop - start
    links = link_keys(key, np.arange(start, stop))
    bursty = bursty_channel(config.loss_probability, config.loss_mean_burst)
    bad = np.zeros(width, dtype=bool)
    delivered = np.empty((slots, width), dtype=bool)
    block = max(1, _MASK_BLOCK_DECISIONS // max(width, 1))
    for begin in range(0, slots, block):
        end = min(begin + block, slots)
        broadcasts = np.arange(begin, end)
        if bursty is None:
            drops = bernoulli_drop_mask(links, broadcasts, config.loss_probability)
        else:
            drops, bad = gilbert_elliott_drop_mask(links, broadcasts, bursty, bad)
        np.logical_not(drops, out=delivered[begin:end])
    return delivered


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
        # slot is the largest position that targets it.
        o_c, o_r = np.nonzero(d_off & ~fill)
        bucket_keys = mix_array(
            np.asarray(seeds, dtype=np.uint64)[:, None] ^ pre.run_mixed[None, :]
        )
        o_run = pre.run_id[o_c]
        accepted, victims = replacement_slots(
            bucket_keys[o_r, o_run], rank[o_c, o_r], capacity
        )
        slot = (o_r[accepted] * n_runs + o_run[accepted]) * capacity + victims
        latest = np.full(fin.size, -1, dtype=np.int32)
        np.maximum.at(latest, slot, np.arange(slot.size, dtype=np.int32))
        written = np.flatnonzero(latest >= 0)
        fin.reshape(-1)[written] = pre.offer_sources[o_c[accepted]][latest[written]]

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
        # keep_first buffering never draws, so the receiver's draw key
        # goes unused — exactly as in the DES.
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


#: Receiver-block width for the multi-level lockstep replay — bounds the
#: per-block reservoir tables (levels x capacity x receivers entries).
_LOCKSTEP_BLOCK = 2048


def _replay_multilevel(
    plan: _MultiLevelPlan,
    config: ScenarioConfig,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Multi-level μTESLA / EFTP / EDRP, slot by slot over receiver blocks.

    One Python pass over the plan's slots per block of
    :data:`_LOCKSTEP_BLOCK` receivers: each slot applies the DES
    receiver's branch for its packet kind to the receivers that got it,
    as row masks over :class:`_MultiLevelLockstep`'s arrays. Receivers
    never interact, so running them in lockstep changes nothing they
    see. Reservoir overflows draw
    :func:`~repro.buffers.keyed.replacement_slots` on the same
    pool-tagged buffer keys as the DES.
    """
    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    for b0 in range(0, len(seeds), _LOCKSTEP_BLOCK):
        b1 = min(b0 + _LOCKSTEP_BLOCK, len(seeds))
        counts = _MultiLevelLockstep(plan, config, seeds[b0:b1]).replay(
            delivered[:, b0:b1]
        )
        for column, values in zip(out, counts):
            column.extend(values)
    return out  # type: ignore[return-value]


class _MultiLevelLockstep:
    """One receiver block's multi-level state, mirroring the DES receiver.

    Every table is indexed ``[level, ..., receiver]``, where a level is
    a high interval (CDM reservoir, ``cdm_auth``, ``pinned``) or a chain
    (commitment, trusted sub-interval, pending disclosure maximum, data
    reservoirs by ``[chain, sub - 1]``) — a slot's scalar level then
    selects contiguous receiver rows. A reservoir holds ``seen`` offers
    since it was (re)created; its first ``min(seen, capacity)`` slots are
    live. CDM entries are ``-1`` (authentic) or a forged-CDM id, data
    entries are message sources.
    """

    def __init__(
        self, plan: _MultiLevelPlan, config: ScenarioConfig, seeds: Sequence[int]
    ) -> None:
        nb = len(seeds)
        lph = plan.low_per_high
        top_high = max(
            (i for kind, i in zip(plan.kinds, plan.index) if kind == _CDM), default=0
        )
        top_flat = max(
            (i for kind, i in zip(plan.kinds, plan.index) if kind != _CDM), default=1
        )
        # Pins and commitments carried by CDM_h name level h + 1.
        levels = max(top_high + 2, (top_flat - 1) // lph + 2)
        self.plan = plan
        self.lph = lph
        self.cdm_capacity = config.buffers
        self.cdm_slots = np.arange(config.buffers)
        self.data_slots = np.arange(LOW_BUFFER_CAPACITY)
        self.subs = np.arange(lph)
        self.forged_mac_valid = np.array(plan.forged_mac_valid + [False])
        self.has_next_hash = np.zeros(levels, dtype=bool)
        self.commitment_present = np.zeros(levels, dtype=bool)
        for high, flag in plan.has_next_hash.items():
            self.has_next_hash[high] = flag
        for high, flag in plan.commitment_present.items():
            self.commitment_present[high] = flag

        keys = np.asarray(seeds, dtype=np.uint64)
        self.cdm_pool = keys ^ np.uint64(CDM_POOL)
        self.data_pool = keys ^ np.uint64(DATA_POOL)
        # The reservoirs are the bulk of a block's state: hold entries in
        # the narrowest signed type that fits -1 and every id.
        top_source = max(
            (i for kind, i in zip(plan.kinds, plan.sources) if kind == _DATA),
            default=0,
        )
        self.cdm_seen = np.zeros((levels, nb), dtype=np.int32)
        self.cdm_held = np.zeros(
            (levels, config.buffers, nb),
            dtype=np.min_scalar_type(-1 - len(plan.forged_mac_valid)),
        )
        self.data_seen = np.zeros((levels, lph, nb), dtype=np.int32)
        self.data_held = np.zeros(
            (levels, lph, LOW_BUFFER_CAPACITY, nb),
            dtype=np.min_scalar_type(-1 - top_source),
        )
        self.cdm_auth = np.zeros((levels, nb), dtype=bool)
        self.pinned = np.zeros((levels, nb), dtype=bool)
        # Chain 1's commitment is installed at bootstrap, like the DES.
        self.commitments = np.zeros((levels, nb), dtype=bool)
        self.commitments[1] = True
        self.chains_seen = self.commitments.copy()
        self.trusted_sub = np.zeros((levels, nb), dtype=np.int32)
        self.pending_max = np.zeros((levels, nb), dtype=np.int32)
        self.high_trusted = np.zeros(nb, dtype=np.int64)
        self.cdm_stored = np.zeros(nb, dtype=np.int64)
        self.cdm_peak = np.zeros(nb, dtype=np.int64)
        self.data_stored = np.zeros(nb, dtype=np.int64)
        self.data_peak = np.zeros(nb, dtype=np.int64)
        self.n_auth = np.zeros(nb, dtype=np.int64)
        self.n_weak = np.zeros(nb, dtype=np.int64)
        self.n_discarded = np.zeros(nb, dtype=np.int64)

    def replay(self, blk: np.ndarray) -> Tuple[List[int], ...]:
        plan = self.plan
        for b, (kind, gate) in enumerate(zip(plan.kinds, plan.gate)):
            rows = np.flatnonzero(blk[b])
            if not rows.size:
                continue
            if kind == _CDM:
                self._cdm(b, gate, rows)
            else:
                flat = plan.index[b]
                chain = (flat - 1) // self.lph + 1
                self.chains_seen[chain, rows] = True
                if kind == _DATA:
                    self._data(b, gate, chain, (flat - 1) % self.lph, rows)
                else:
                    self._disclosure(chain, (flat - 1) % self.lph + 1, rows)
        nb = blk.shape[1]
        peak = self.cdm_peak * _CDM_BITS + self.data_peak * _RECORD_BITS
        return (
            self.n_auth.tolist(),
            [0] * nb,
            [0] * nb,
            self.n_weak.tolist(),
            self.n_discarded.tolist(),
            [0] * nb,
            blk.sum(axis=0, dtype=np.int64).tolist(),
            peak.tolist(),
        )

    def _cdm(self, b: int, gate: bool, rows: np.ndarray) -> None:
        plan = self.plan
        high = plan.index[b]
        forged_id = plan.sources[b]
        self.chains_seen[high + 1, rows] = True
        open_rows = rows[~self.cdm_auth[high, rows]]
        pinned = self.pinned[high, open_rows]
        if forged_id < 0:
            # EDRP's pin fast path: an authentic CDM matching the pin
            # is accepted outright, never buffered.
            if pinned.any():
                self._accept(np.full(int(pinned.sum()), high), open_rows[pinned])
                open_rows = open_rows[~pinned]
        elif plan.forged_pin_match[forged_id] and pinned.any():
            raise SimulationError(
                "forged CDM matched the EDRP hash pin (2^-80 collision)"
                " — replay cannot mirror a corrupted commitment"
            )
        if gate and open_rows.size:
            _offer(
                self.cdm_seen[high],
                self.cdm_held[high],
                self.cdm_pool,
                high,
                open_rows,
                forged_id,
                self.cdm_capacity,
                self.cdm_stored,
                self.cdm_peak,
            )
        if forged_id < 0 and plan.disc_index[b] >= 1:
            self._high_disclosure(plan.disc_index[b], rows)

    def _data(
        self, b: int, gate: bool, chain: int, sub0: int, rows: np.ndarray
    ) -> None:
        if not gate:
            self.n_discarded[rows] += 1
            return
        _offer(
            self.data_seen[chain, sub0],
            self.data_held[chain, sub0],
            self.data_pool,
            (chain - 1) * self.lph + sub0 + 1,
            rows,
            self.plan.sources[b],
            LOW_BUFFER_CAPACITY,
            self.data_stored,
            self.data_peak,
        )
        # A record for an already-trusted sub-interval (a late packet)
        # is verified at once, as in the DES.
        due = rows[self.trusted_sub[chain, rows] > sub0]
        if due.size:
            self._flush(np.full(due.size, chain), due, counted=True)

    def _disclosure(self, chain: int, sub: int, rows: np.ndarray) -> None:
        committed = self.commitments[chain, rows]
        waiting = rows[~committed]
        self.pending_max[chain, waiting] = np.maximum(
            self.pending_max[chain, waiting], sub
        )
        rows = rows[committed]
        weak = self.trusted_sub[chain, rows] > sub
        self.n_weak[rows[weak]] += 1
        rows = rows[~weak]
        self.trusted_sub[chain, rows] = sub
        self._flush(np.full(rows.size, chain), rows, counted=True)

    def _flush(self, chains: np.ndarray, rows: np.ndarray, counted: bool) -> None:
        """Mirror of ``_flush_chain_data`` per (chain, receiver) pair:
        release (always) and count (only on emitted paths) the records
        buffered for the chain's trusted sub-intervals, one authentication
        per distinct source — record identity is the (message, MAC)
        fingerprint the DES deduplicates on."""
        if not rows.size:
            return
        seen = self.data_seen[chains, :, rows]
        due = (seen > 0) & (self.subs < self.trusted_sub[chains, rows][:, None])
        pair, sub0 = np.nonzero(due)
        if not pair.size:
            return
        chains, rows = chains[pair], rows[pair]
        held = np.minimum(seen[pair, sub0], LOW_BUFFER_CAPACITY)
        np.subtract.at(self.data_stored, rows, held)
        self.data_seen[chains, sub0, rows] = 0
        if not counted:
            return
        # Data records are all authentic (the multi-level attacker
        # forges CDMs); batched verify_many in the plan build proved
        # each verifies under its key.
        sources = np.where(
            self.data_slots < held[:, None],
            self.data_held[chains, sub0, :, rows],
            -1,
        )
        sources.sort(axis=1)
        distinct = (sources[:, 0] >= 0) + (
            (sources[:, 1:] != sources[:, :-1]) & (sources[:, 1:] >= 0)
        ).sum(axis=1)
        np.add.at(self.n_auth, rows, distinct)

    def _commit(self, chains: np.ndarray, rows: np.ndarray, counted: bool) -> None:
        """Mirror of ``_set_commitment`` with true commitment bytes:
        replaying the pending (authentic) disclosures anchors the chain
        at its highest pending sub-interval."""
        fresh = ~self.commitments[chains, rows]
        chains, rows = chains[fresh], rows[fresh]
        self.commitments[chains, rows] = True
        self.trusted_sub[chains, rows] = self.pending_max[chains, rows]
        self.pending_max[chains, rows] = 0
        self._flush(chains, rows, counted)

    def _accept(self, highs: np.ndarray, rows: np.ndarray) -> None:
        """Mirror of ``_accept_cdm`` for authentic CDMs — the events it
        returns are discarded at every DES call site, so the downstream
        flush is state-only (uncounted)."""
        self.cdm_auth[highs, rows] = True
        pins = self.has_next_hash[highs]
        self.pinned[highs[pins] + 1, rows[pins]] = True
        commits = self.commitment_present[highs]
        self._commit(highs[commits] + 1, rows[commits], counted=False)

    def _high_disclosure(self, disclosed: int, rows: np.ndarray) -> None:
        """Mirror of ``_handle_high_disclosure`` for the authentic
        high-key disclosures CDMs piggyback."""
        plan = self.plan
        trusted = self.high_trusted[rows]
        rows = rows[(trusted <= disclosed) & (disclosed - trusted <= plan.high_gap_bound)]
        if not rows.size:
            return
        self.high_trusted[rows] = disclosed
        seen = self.cdm_seen[: disclosed + 1, rows]
        highs, column = np.nonzero(seen)
        if highs.size:
            released = rows[column]
            held = np.minimum(seen[highs, column], self.cdm_capacity)
            np.subtract.at(self.cdm_stored, released, held)
            self.cdm_seen[highs, released] = 0
            open_ = ~self.cdm_auth[highs, released]
            highs, released, held = highs[open_], released[open_], held[open_]
            entries = self.cdm_held[highs, :, released]
            live = self.cdm_slots < held[:, None]
            authentic = live & (entries < 0)
            found = authentic.any(axis=1)
            # The DES verifies held entries in order up to the first
            # authentic one; a forged entry passing is the 2^-80
            # collision path.
            first = np.where(found, authentic.argmax(axis=1), self.cdm_capacity)
            ahead = live & (self.cdm_slots < first[:, None]) & (entries >= 0)
            if self.forged_mac_valid[np.where(ahead, entries, -1)][ahead].any():
                raise SimulationError(
                    "forged CDM passed MAC verification (2^-80 collision)"
                    " — replay cannot mirror a corrupted commitment"
                )
            self._accept(highs[found], released[found])
        # key_chain_recovery is unconditionally on for the catalog
        # parameterisations (multilevel/eftp/edrp all keep the default
        # True) — recovered commitments are the true ones.
        last = disclosed - plan.anchor_offset
        if last >= 1:
            due = (
                self.chains_seen[1 : last + 1, rows]
                & ~self.commitments[1 : last + 1, rows]
            )
            chains, column = np.nonzero(due)
            self._commit(chains + 1, rows[column], counted=True)


def _offer(
    seen: np.ndarray,
    held: np.ndarray,
    pool: np.ndarray,
    index: int,
    rows: np.ndarray,
    entry: int,
    capacity: int,
    stored: np.ndarray,
    peak: np.ndarray,
) -> None:
    """Algorithm 2 for the reservoir of interval ``index`` over distinct
    receivers: ``seen`` and the pool keys ``pool`` are ``(receivers,)``
    rows, ``held`` the reservoir's ``(capacity, receivers)`` slots."""
    k = seen[rows] + 1
    seen[rows] = k
    free = k <= capacity
    filled = rows[free]
    held[k[free] - 1, filled] = entry
    stored[filled] += 1
    np.maximum(peak, stored, out=peak)
    if not free.all():
        over = rows[~free]
        keys = mix_array(pool[over] ^ np.uint64(mix(index)))
        accepted, victims = replacement_slots(keys, k[~free], capacity)
        held[victims, over[accepted]] = entry


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
    return _replay_multilevel(plan, config, seeds, delivered)


# ---------------------------------------------------------------------------
# Sharded execution.


def _run_shard(task: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Worker entry point: draw one receiver shard's slice of the
    delivery mask and replay it. Module-level so process pools can
    pickle it. Returns ``(start, stop, counts, delivered_any,
    delivered_total)``."""
    plan, config, start, stop, seeds, medium_key = task
    with _span(SIM_FLEET_MASK):
        delivered = _delivery_mask(
            config, medium_key, start, stop, len(plan.times)
        )
    counts = _replay_span(plan, config, start, seeds, delivered)
    total = int(np.count_nonzero(delivered))
    return start, stop, counts, delivered.any(axis=1), total


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


def _span(name: str) -> ContextManager[None]:
    """``perf.ACTIVE.timer(name)``, or a no-op while instrumentation is off."""
    active = perf.ACTIVE
    return nullcontext() if active is None else active.timer(name)


def _replay_shards(
    plan: _Plan,
    config: ScenarioConfig,
    shards: int,
    executor: Optional[Executor],
    receiver_seeds: Sequence[int],
    medium_key: int,
    accumulator: _CountAccumulator,
) -> Tuple[np.ndarray, int]:
    """Replay every receiver shard and fold its counts as it arrives:
    on ``executor`` when it runs jobs in parallel, inline otherwise.
    Returns the fleet's ``(delivered_any, delivered_total)``."""
    spans = shard_plan(config.receivers, shards)
    tasks = [
        (plan, config, start, stop, receiver_seeds[start:stop], medium_key)
        for start, stop in spans
    ]
    if executor is not None and executor.jobs > 1 and len(spans) > 1:
        spec = ExperimentSpec.over(
            _run_shard,
            tuple(tasks),
            label=f"fleet[{config.protocol}]",
            task_labels=[f"shard[{a}:{b}]" for a, b in spans],
        )
        results = (result for _index, result in executor.stream(spec))
    else:
        results = (_run_shard(task) for task in tasks)
    delivered_any = np.zeros(len(plan.times), dtype=bool)
    delivered_total = 0
    for start, stop, counts, shard_any, shard_total in results:
        accumulator.fold(start, stop, counts)
        delivered_any |= shard_any
        delivered_total += shard_total
    return delivered_any, delivered_total


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
            to fan shards out on; each shard draws its own slice of the
            delivery mask from the medium key. Serial (or no)
            executors replay the shards in-process. Results are folded
            as they stream in, whichever order they finish.
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
    with _span(SIM_FLEET_PLAN):
        rng = traced_rng(random.Random(config.seed), "master")
        medium_key = rng.getrandbits(64)
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
    accumulator = _CountAccumulator(
        config.receivers, plan.sent_authentic, summary
    )
    with _span(SIM_FLEET_REPLAY):
        delivered_any, delivered_total = _replay_shards(
            plan, config, shards, executor, receiver_seeds, medium_key, accumulator
        )
    with _span(SIM_FLEET_REDUCE):
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
