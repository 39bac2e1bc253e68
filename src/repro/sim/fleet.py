"""Array-structured scenario engine for every protocol family.

:func:`run_fleet_scenario` simulates the entire receiver fleet as
arrays instead of per-node event callbacks: one broadcast timeline is
laid out up front, per-slot channel decisions are drawn for *all*
receivers at once (a block-wise vectorized Markov transition over a
``(receivers,)`` Gilbert–Elliott state array, or one Bernoulli mask,
bit-packed so the full delivery matrix costs one bit per decision),
and the per-receiver buffer/authentication state machines run as tight
loops over the delivered-slot indices — no heapq, no per-delivery
closures, and no per-record HMAC in the replay loops (all MAC and
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

The engine mirrors the discrete-event simulator's RNG draw order — the
same technique the fault-injection proxy uses to reproduce
``BroadcastMedium`` node-for-node — so ``run_fleet_scenario(config)``
returns the *identical* summary ``run_scenario`` produces at the same
seed, for every family:

- master draws: medium seed, per-receiver seeds (receiver order),
  attacker seed — exactly as ``run_scenario`` + the family builders;
- medium draws: one shared stream, consumed broadcast-by-broadcast in
  attachment order, one uniform per Bernoulli decision and two per
  Gilbert–Elliott decision (transition, then loss). The stream is
  replayed through a mirrored ``numpy`` Mersenne state in bounded
  blocks along the slot axis, carrying the per-lane channel state
  between blocks;
- reservoir draws: per-receiver ``random.Random`` streams replay
  Algorithm 2's ``m/k`` rule offer-for-offer. With the crypto kernels
  on, the two-phase replay runs a one-pass numpy reservoir kernel:
  segmented-cumsum ranks decide every free-slot fill for a whole
  slot flood at once, and only the overflow offers (rank past
  capacity) reach a tight scalar loop that consumes the acceptance
  ``random()`` and the inlined ``randrange``/``getrandbits``
  rejection draws in exactly the per-offer order. Multi-level
  receivers share one stream between the CDM and data pools in
  delivery order, as the DES receiver does;
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
from multiprocessing import shared_memory
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import perf
from repro.analysis.statistics import MeanEstimate, mean_estimate
from repro.crypto import kernels
from repro.crypto.mac import INDEX_BITS, MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction, standard_functions
from repro.devtools.sanitizers.determinism import traced_rng
from repro.devtools.sanitizers.resources import release_resource, track_resource
from repro.engine.executors import Executor
from repro.engine.spec import ExperimentSpec
from repro.errors import ConfigurationError
from repro.protocols.dap import DapSender
from repro.protocols.edrp import edrp_params
from repro.protocols.eftp import eftp_params
from repro.protocols.messages import forged_message
from repro.protocols.mu_tesla import MuTeslaSender
from repro.protocols.base import MAX_KEY_GAP
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
                raise ConfigurationError(
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
                raise ConfigurationError(
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


def _replay_two_phase(
    plan: _TwoPhasePlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Two-phase replay dispatch: the vectorized slot-flood kernel when
    the crypto kernels are on, the scalar reference loop otherwise.

    Both paths are byte-identical (the parity tests run seeded
    scenarios through each and compare summaries against the DES); the
    kernel processes a whole slot's flood per numpy call instead of one
    Python iteration per delivered copy.
    """
    if kernels.ENABLED:
        pre = _two_phase_precompute(plan)
        if pre is not None:
            return _replay_two_phase_vectorized(
                plan, pre, config, start, seeds, delivered
            )
    return _replay_two_phase_reference(plan, config, start, seeds, delivered)


def _replay_two_phase_reference(
    plan: _TwoPhasePlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Scalar per-copy replay — the ``kernels_disabled()`` reference
    path the vectorized kernel is parity-tested against."""
    kinds = plan.kinds
    intervals = plan.intervals
    sources = plan.sources
    gate = plan.gate
    announce_macs = plan.announce_macs
    forged_macs = plan.forged_macs
    reservoir = plan.reservoir
    micro = MicroMacScheme(plan.item_bits - INDEX_BITS)
    capacity = config.buffers

    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    (auth_c, lost_c, rejf_c, weak_c, disc_c, facc_c, recv_c, peak_c) = out
    for local, seed in enumerate(seeds):
        local_key = _seed_bytes(config, f"local-{start + local}")
        rng_r = traced_rng(random.Random(seed), f"receiver-{start + local}")
        rand = rng_r.random
        randrange = rng_r.randrange
        delivered_slots = np.nonzero(delivered[:, local])[0].tolist()
        # interval -> [seen_count, slot values]; a slot value names the
        # MAC bytes the DES would have re-hashed into that record.
        buckets: Dict[int, List[Any]] = {}
        resolved = set()
        trusted = 0
        stored = 0
        peak = 0
        n_auth = n_lost = n_weak = n_discarded = 0
        for b in delivered_slots:
            kind = kinds[b]
            if kind != _REVEAL:
                if not gate[b]:
                    n_discarded += 1
                    continue
                interval = intervals[b]
                bucket = buckets.get(interval)
                if bucket is None:
                    bucket = [0, []]
                    buckets[interval] = bucket
                bucket[0] += 1
                held = bucket[1]
                if len(held) < capacity:
                    held.append(sources[b])
                    stored += 1
                    if stored > peak:
                        peak = stored
                elif reservoir:
                    # Algorithm 2: keep copy k with probability m/k,
                    # replacing a uniformly random buffered copy.
                    if rand() < capacity / bucket[0]:
                        held[randrange(capacity)] = sources[b]
                continue
            interval = intervals[b]
            source = sources[b]
            key = (interval, source)
            if key in resolved:
                continue
            if interval > trusted:
                if interval - trusted > MAX_KEY_GAP:
                    n_weak += 1
                    continue
                trusted = interval
            # Weak auth passed: free records older than interval - 1
            # (one interval of slack for reordered reveals).
            cutoff = interval - 1
            stale = [i for i in buckets if i < cutoff]
            for i in stale:
                stored -= len(buckets.pop(i)[1])
            bucket = buckets.get(interval)
            matched = False
            if bucket is not None and bucket[1]:
                held = bucket[1]
                if source in held:
                    matched = True
                else:
                    # No surviving record shares this reveal's MAC
                    # bytes — decide by actual μMAC equality so 24-bit
                    # collisions authenticate exactly as in the DES.
                    # reprolint: disable=RPL009 -- scalar reference replay: keeps the per-slot shape the vectorized kernel's compute_many batch is parity-tested against
                    expected = micro.compute(local_key, announce_macs[key])
                    for slot in held:
                        mac = (
                            announce_macs[(interval, slot)]
                            if slot >= 0
                            else forged_macs[-1 - slot]
                        )
                        # reprolint: disable=RPL009 -- scalar reference replay: per-slot digest order is the baseline the batched kernel path must reproduce
                        if micro.compute(local_key, mac) == expected:
                            matched = True
                            break
            if matched:
                resolved.add(key)
                n_auth += 1
            else:
                n_lost += 1
        auth_c.append(n_auth)
        lost_c.append(n_lost)
        rejf_c.append(0)
        weak_c.append(n_weak)
        disc_c.append(n_discarded)
        facc_c.append(0)
        recv_c.append(len(delivered_slots))
        peak_c.append(peak * plan.item_bits)
    return out  # type: ignore[return-value]


@dataclass(frozen=True)
class _TwoPhaseVecPlan:
    """Receiver-independent numpy views of a :class:`_TwoPhasePlan`.

    Offers (gated announce/forged slots) are grouped into contiguous
    per-interval *runs*; reveals carry their position within the offer
    sequence so fills-before-reveal falls out of one cumulative sum.
    :func:`_two_phase_precompute` returns ``None`` when the slot layout
    violates the window structure the kernel's frozen-bucket argument
    needs (never true for plans built here) — the dispatcher then runs
    the scalar reference loop instead.
    """

    offer_rows: np.ndarray
    discard_rows: np.ndarray
    reveal_rows: np.ndarray
    run_starts: np.ndarray
    run_ends: np.ndarray
    run_id: np.ndarray
    run_intervals: List[int]
    run_of_interval: Dict[int, int]
    offer_sources: np.ndarray
    reveal_intervals: List[int]
    reveal_sources: List[int]
    pos_in_offers: np.ndarray


def _two_phase_precompute(plan: _TwoPhasePlan) -> Optional[_TwoPhaseVecPlan]:
    """Lay out a two-phase plan for the vectorized replay kernel.

    Verifies the structural facts the kernel's exactness proof rests
    on: each interval's gated offers form one contiguous slot run, runs
    ascend, reveals arrive in non-decreasing interval order, and every
    reveal of an interval lands after that interval's last offer (so
    the bucket it matches against is frozen). Announce/reveal windows
    guarantee all of this for generated plans; any violation falls
    back to the reference loop rather than risking drift.
    """
    kinds = np.asarray(plan.kinds, dtype=np.int64)
    gate = np.asarray(plan.gate, dtype=bool)
    intervals = np.asarray(plan.intervals, dtype=np.int64)
    sources = np.asarray(plan.sources, dtype=np.int64)
    is_offer = kinds != _REVEAL
    offer_rows = np.nonzero(is_offer & gate)[0]
    discard_rows = np.nonzero(is_offer & ~gate)[0]
    reveal_rows = np.nonzero(~is_offer)[0]
    offer_intervals = intervals[offer_rows]
    if offer_intervals.size:
        changes = np.nonzero(np.diff(offer_intervals))[0] + 1
        run_starts = np.concatenate((np.zeros(1, dtype=np.int64), changes))
        run_ends = (
            np.concatenate(
                (changes, np.array([offer_intervals.size], dtype=np.int64))
            )
            - 1
        )
        run_intervals_arr = offer_intervals[run_starts]
        if np.any(np.diff(run_intervals_arr) <= 0):
            return None  # an interval's offers split across runs
    else:
        run_starts = np.zeros(0, dtype=np.int64)
        run_ends = np.zeros(0, dtype=np.int64)
        run_intervals_arr = np.zeros(0, dtype=np.int64)
    run_id = np.zeros(offer_intervals.size, dtype=np.int64)
    if run_starts.size > 1:
        run_id[run_starts[1:]] = 1
        run_id = np.cumsum(run_id)
    reveal_intervals = intervals[reveal_rows]
    if np.any(np.diff(reveal_intervals) < 0):
        return None  # out-of-order reveals break the stale-pop pointer
    run_of_interval = {
        int(v): idx for idx, v in enumerate(run_intervals_arr.tolist())
    }
    last_offer_row = offer_rows[run_ends] if run_ends.size else run_ends
    for row, interval in zip(reveal_rows.tolist(), reveal_intervals.tolist()):
        run = run_of_interval.get(interval)
        if run is not None and row < int(last_offer_row[run]):
            return None  # bucket not frozen at reveal time
    return _TwoPhaseVecPlan(
        offer_rows=offer_rows,
        discard_rows=discard_rows,
        reveal_rows=reveal_rows,
        run_starts=run_starts,
        run_ends=run_ends,
        run_id=run_id,
        run_intervals=[int(v) for v in run_intervals_arr.tolist()],
        run_of_interval=run_of_interval,
        offer_sources=sources[offer_rows],
        reveal_intervals=[int(v) for v in reveal_intervals.tolist()],
        reveal_sources=[int(v) for v in sources[reveal_rows].tolist()],
        pos_in_offers=np.searchsorted(offer_rows, reveal_rows).astype(np.int64),
    )


#: Receiver-block width for the vectorized replay — bounds the
#: (offer-slots x receivers) rank/cumsum temporaries to a few MiB.
_REPLAY_BLOCK = 8192


def _replay_two_phase_vectorized(
    plan: _TwoPhasePlan,
    pre: _TwoPhaseVecPlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """One-pass Algorithm-2 reservoir kernel over whole slot floods.

    Per receiver block, a segmented cumulative sum ranks every
    delivered offer within its interval run. Ranks up to the buffer
    capacity are free-slot fills (Algorithm 2 stores those
    unconditionally), so the fill trajectory, bucket seen-counters,
    stale-pop totals and peak-occupancy candidates all come out of
    numpy at once. Only overflow offers — rank past capacity — touch
    the per-receiver RNG: a tight scalar loop replays the ``m/k``
    acceptance ``random()`` and the inlined ``randrange`` /
    ``getrandbits`` victim draws for exactly those offers, in delivery
    order, leaving every bucket byte-identical to the reference loop.
    The short reveal pass then replays weak authentication, pops and
    matching per receiver, batching μMAC collision fallbacks through
    :meth:`~repro.crypto.mac.MicroMacScheme.compute_many`.
    """
    announce_macs = plan.announce_macs
    forged_macs = plan.forged_macs
    reservoir = plan.reservoir
    item_bits = plan.item_bits
    micro = MicroMacScheme(item_bits - INDEX_BITS)
    capacity = config.buffers
    kbits = capacity.bit_length()

    offer_rows = pre.offer_rows
    run_starts = pre.run_starts
    run_ends = pre.run_ends
    run_id = pre.run_id
    run_intervals = pre.run_intervals
    offer_sources = pre.offer_sources
    reveal_intervals = pre.reveal_intervals
    reveal_sources = pre.reveal_sources
    n_runs = int(run_starts.size)
    #: overflow events dedup to one surviving write per (run, victim);
    #: packing both into one int keys the per-receiver dict cheaply.
    rk_base = run_id * capacity
    reveal_run = np.array(
        [pre.run_of_interval.get(i, -1) for i in reveal_intervals],
        dtype=np.int64,
    )
    reveal_src_arr = np.asarray(reveal_sources, dtype=np.int64)
    slot_cols = np.arange(capacity)

    total = len(seeds)
    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    (auth_c, lost_c, rejf_c, weak_c, disc_c, facc_c, recv_c, peak_c) = out
    # Bound the largest per-block temporaries (the rank cumsums over
    # offer slots and the bucket tensor over runs x capacity) to a few
    # dozen MiB regardless of how long the scenario runs.
    widest = max(int(offer_rows.size), n_runs * capacity, 1)
    block = min(_REPLAY_BLOCK, max(32, (8 << 20) // widest))
    for b0 in range(0, total, block):
        b1 = min(b0 + block, total)
        nb = b1 - b0
        blk = delivered[:, b0:b1]
        n_recv_l = blk.sum(axis=0, dtype=np.int64).tolist()
        if pre.discard_rows.size:
            n_disc_l = blk[pre.discard_rows].sum(axis=0, dtype=np.int64).tolist()
        else:
            n_disc_l = [0] * nb
        if offer_rows.size:
            d_off = blk[offer_rows]
        else:
            d_off = np.zeros((0, nb), dtype=bool)
        cum = np.cumsum(d_off, axis=0, dtype=np.int32)
        base = np.zeros((n_runs, nb), dtype=np.int32)
        if n_runs > 1:
            base[1:] = cum[run_starts[1:] - 1]
        if n_runs:
            rank = cum - base[run_id]
            counts = cum[run_ends] - base
        else:
            rank = cum
            counts = base
        held_len = np.minimum(counts, capacity)
        stored_m = d_off & (rank <= capacity)
        sc = np.cumsum(stored_m, axis=0, dtype=np.int32)
        sc_pad = np.vstack((np.zeros((1, nb), dtype=np.int32), sc))
        total_fills_l = sc_pad[-1].tolist()

        # --- overflow offers, receiver-major: the only RNG draws ---
        # (transposing first makes np.nonzero group by receiver, in
        # offer order — exactly the draw order of the reference loop)
        if reservoir and offer_rows.size:
            over_t = np.ascontiguousarray((d_off & ~stored_m).T)
            ov_r, ov_c = np.nonzero(over_t)
            ov_split = np.searchsorted(ov_r, np.arange(nb + 1)).tolist()
            # m/k acceptance thresholds; int64 -> float64 division is
            # bit-identical to the reference's Python capacity / seen.
            thr_all = (capacity / rank[ov_c, ov_r]).tolist()
            rkb_all = rk_base[ov_c].tolist()
            src_all = offer_sources[ov_c].tolist()
        else:
            ov_split = [0] * (nb + 1)
            thr_all = rkb_all = src_all = []
        ev_rcv: List[int] = []
        ev_key: List[int] = []
        ev_src: List[int] = []
        for local in range(nb):
            o0 = ov_split[local]
            o1 = ov_split[local + 1]
            if o0 == o1:
                continue
            rng_r = traced_rng(
                random.Random(seeds[b0 + local]),
                f"receiver-{start + b0 + local}",
            )
            rand = rng_r.random
            getrandbits = rng_r.getrandbits
            evmap: Dict[int, int] = {}
            for thr, rkb, src in zip(
                thr_all[o0:o1], rkb_all[o0:o1], src_all[o0:o1]
            ):
                # Keep copy k with probability m/k; the victim draw
                # inlines CPython randrange's getrandbits rejection
                # loop (stream-identical to the reference).
                if rand() < thr:
                    victim = getrandbits(kbits)
                    while victim >= capacity:
                        victim = getrandbits(kbits)
                    evmap[rkb + victim] = src
            if evmap:
                ev_rcv.extend([local] * len(evmap))
                ev_key.extend(evmap.keys())
                ev_src.extend(evmap.values())

        # --- final buckets: one scatter of fills + one of survivors ---
        fin = np.zeros((nb, n_runs, capacity), dtype=np.int64)
        if offer_rows.size:
            stored_t = np.ascontiguousarray(stored_m.T)
            st_r, st_c = np.nonzero(stored_t)
            if st_r.size:
                fin[st_r, run_id[st_c], rank[st_c, st_r] - 1] = offer_sources[
                    st_c
                ]
        if ev_key:
            keys = np.asarray(ev_key, dtype=np.int64)
            fin[
                np.asarray(ev_rcv, dtype=np.int64),
                keys // capacity,
                keys % capacity,
            ] = np.asarray(ev_src, dtype=np.int64)

        # --- reveal occurrences, vectorized containment test ---
        if pre.reveal_rows.size:
            d_rev_t = np.ascontiguousarray(blk[pre.reveal_rows].T)
            rv_r, rv_c = np.nonzero(d_rev_t)
            rv_split = np.searchsorted(rv_r, np.arange(nb + 1)).tolist()
            rv_cols = rv_c.tolist()
            fb_l = sc_pad[pre.pos_in_offers[rv_c], rv_r].tolist()
            if n_runs and rv_r.size:
                rfo = reveal_run[rv_c]
                valid = rfo >= 0
                rfo0 = np.where(valid, rfo, 0)
                has_b = valid & (counts[rfo0, rv_r] > 0)
                hl_occ = held_len[rfo0, rv_r]
                contains = (
                    (fin[rv_r, rfo0, :] == reveal_src_arr[rv_c, None])
                    & (slot_cols[None, :] < hl_occ[:, None])
                ).any(axis=1) & has_b
                cont_l = contains.tolist()
                hasb_l = has_b.tolist()
                run_l = rfo.tolist()
                hl_l = hl_occ.tolist()
            else:
                cont_l = hasb_l = [False] * len(rv_cols)
                run_l = [-1] * len(rv_cols)
                hl_l = [0] * len(rv_cols)
        else:
            rv_split = [0] * (nb + 1)
            rv_cols = fb_l = run_l = hl_l = []
            cont_l = hasb_l = []
        hl_cum_t = (
            np.ascontiguousarray(np.cumsum(held_len, axis=0, dtype=np.int32).T)
            if n_runs
            else np.zeros((nb, 0), dtype=np.int32)
        )

        # --- reveal pass: weak auth, stale pops, record matching ---
        for local in range(nb):
            n_auth = n_lost = n_weak = 0
            trusted = 0
            peak = 0
            popped = 0
            ptr = 0
            decided: Dict[Tuple[int, int], bool] = {}
            local_key = b""
            hl_cum_row = hl_cum_t[local]
            v0 = rv_split[local]
            v1 = rv_split[local + 1]
            for j, fb, cont, hasb, run, hl in zip(
                rv_cols[v0:v1],
                fb_l[v0:v1],
                cont_l[v0:v1],
                hasb_l[v0:v1],
                run_l[v0:v1],
                hl_l[v0:v1],
            ):
                interval = reveal_intervals[j]
                source = reveal_sources[j]
                key = (interval, source)
                prior = decided.get(key)
                if prior is True:
                    continue
                if interval > trusted:
                    if interval - trusted > MAX_KEY_GAP:
                        n_weak += 1
                        continue
                    trusted = interval
                # Buffer occupancy right now — evaluated before the
                # pops below, so together with the end-of-run candidate
                # it covers every point where the reference's
                # append-time peak can land.
                stored_now = fb - popped
                if stored_now > peak:
                    peak = stored_now
                cutoff = interval - 1
                if ptr < n_runs and run_intervals[ptr] < cutoff:
                    while ptr < n_runs and run_intervals[ptr] < cutoff:
                        ptr += 1
                    popped = int(hl_cum_row[ptr - 1])
                if prior is None:
                    if cont:
                        matched = True
                    elif hasb:
                        # No surviving record shares this reveal's MAC
                        # bytes — decide by actual μMAC equality so
                        # 24-bit collisions authenticate exactly as in
                        # the DES, one batch per miss.
                        if not local_key:
                            local_key = _seed_bytes(
                                config, f"local-{start + b0 + local}"
                            )
                        held = fin[local, run, :hl].tolist()
                        batch = [announce_macs[key]]
                        for slot in held:
                            batch.append(
                                announce_macs[(interval, slot)]
                                if slot >= 0
                                else forged_macs[-1 - slot]
                            )
                        digests = micro.compute_many(local_key, batch)
                        expected = digests[0]
                        matched = any(d == expected for d in digests[1:])
                    else:
                        matched = False
                    decided[key] = matched
                else:
                    matched = False
                if matched:
                    n_auth += 1
                else:
                    n_lost += 1
            end_stored = total_fills_l[local] - popped
            if end_stored > peak:
                peak = end_stored
            auth_c.append(n_auth)
            lost_c.append(n_lost)
            rejf_c.append(0)
            weak_c.append(n_weak)
            disc_c.append(n_disc_l[local])
            facc_c.append(0)
            recv_c.append(n_recv_l[local])
            peak_c.append(peak * item_bits)
    return out  # type: ignore[return-value]


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
            if di < trusted or di - trusted > MAX_KEY_GAP:
                n_weak += 1
                continue
            if anchors is not None:
                # Forged disclosure: authenticates only from an anchor
                # in its (practically empty) back-walk collision set.
                if trusted in anchors:
                    raise ConfigurationError(
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
        rng_r = traced_rng(random.Random(seed), f"receiver-{start + local}")
        rand = rng_r.random
        randrange = rng_r.randrange
        delivered_slots = np.nonzero(delivered[:, local])[0].tolist()

        high_trusted = 0
        cdm_auth: Set[int] = set()
        pinned: Set[int] = set()
        # Chain 1's commitment is installed at bootstrap, like the DES.
        commitments: Set[int] = {1}
        chains_seen: Set[int] = {1}
        trusted_sub: Dict[int, int] = {1: 0}
        pending: Dict[int, Set[int]] = {}
        # high -> [seen, held entries]; entry is -1 (authentic CDM) or a
        # forged id. flat -> [seen, held source ids] for data records.
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
                        raise ConfigurationError(
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
                            raise ConfigurationError(
                                "forged CDM matched the EDRP hash pin"
                                " (2^-80 collision) — replay cannot mirror"
                                " a corrupted commitment"
                            )
                    if not accepted and gate[b]:
                        bucket = cdm_buckets.get(high)
                        if bucket is None:
                            bucket = [0, []]
                            cdm_buckets[high] = bucket
                        bucket[0] += 1
                        held = bucket[1]
                        entry = -1 if forged_id < 0 else forged_id
                        if len(held) < cdm_capacity:
                            held.append(entry)
                            cdm_stored += 1
                            if cdm_stored > cdm_peak:
                                cdm_peak = cdm_stored
                        elif rand() < cdm_capacity / bucket[0]:
                            held[randrange(cdm_capacity)] = entry
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
                    bucket = [0, []]
                    data_buckets[flat] = bucket
                bucket[0] += 1
                held = bucket[1]
                if len(held) < data_capacity:
                    held.append(sources[b])
                    data_stored += 1
                    if data_stored > data_peak:
                        data_peak = data_stored
                elif rand() < data_capacity / bucket[0]:
                    held[randrange(data_capacity)] = sources[b]
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
        active.incr("sim.broadcasts", slots)
        active.incr("sim.deliveries", delivered_total)
        active.incr("sim.drops", slots * config.receivers - delivered_total)

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
