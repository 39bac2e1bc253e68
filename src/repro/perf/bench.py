"""The JSON bench runner behind ``repro bench`` and CI's perf-smoke step.

Benchmarks here are *comparative*: each section measures the naive
reference path and the kernel path on the same workload in the same
process, so the JSON it writes (``BENCH_crypto.json`` at the repo root)
carries defensible speedup ratios rather than machine-dependent
absolute numbers. Absolute ops/sec are reported too — they anchor the
ratios — but the checked-in artifact's claim is the ratio column.

Sections:

``one_way``
    Single one-way-function applications, midstate vs naive.
``keychain_walks``
    The paper's DoS shape: a receiver back-walking repeated disclosures
    across a gap. Naive = kernels off, no memo; kernel = midstate +
    :class:`~repro.crypto.kernels.ChainWalkCache`. This is the ratio the
    acceptance bar (>= 2x) applies to.
``mac_verify``
    Batched :meth:`~repro.crypto.mac.MacScheme.verify_many` vs per-pair
    :meth:`~repro.crypto.mac.MacScheme.verify`.
``mac_batch``
    Sender-side MAC batching:
    :meth:`~repro.crypto.mac.MacScheme.compute_many` (one HMAC key
    block per batch) vs per-message
    :meth:`~repro.crypto.mac.MacScheme.compute`.
``umac_reservoir``
    Algorithm 2 under a flood:
    :meth:`~repro.buffers.reservoir.ReservoirBuffer.offer_many` vs
    per-copy :meth:`~repro.buffers.reservoir.ReservoirBuffer.offer`,
    end state asserted identical (same draw key) in the same run.
``fast_umac``
    μMAC tagging three ways: scalar HMAC
    :meth:`~repro.crypto.mac.MicroMacScheme.compute`, batched
    :meth:`~repro.crypto.mac.MicroMacScheme.compute_many`, and
    ``compute_many`` under the opt-in non-faithful keyed-BLAKE2s
    kernel (:func:`repro.crypto.kernels.fast_umac` — different bytes,
    same distributional collision model; see EXPERIMENTS.md before
    using it for figures).
``pebbled``
    Sequential sender traversal cost plus the memory story (stored and
    peak pebbles vs the dense chain's ``n`` keys).
``scenario``
    The end-to-end fig5 run, three ways on one config and seed: the
    naive stack (event-driven DES, kernels off), the fleet engine with
    the crypto kernels off, and the kernel stack (fleet engine +
    batched crypto, kernels on) — all three summaries asserted
    byte-identical in the same run, with the counter deltas that prove
    the kernel run exercised the crypto hot path. ``speedup`` is naive
    stack vs kernel stack; ``replay_speedup`` isolates what the crypto
    kernels add inside the fleet engine (kernels off vs on). The
    preset's ``scenario_receivers`` scales the catalog config's fleet
    so the walls are measurable.

A second suite, :func:`run_sim_bench` (``repro bench --suite sim``,
``BENCH_sim.json``), measures the vectorized fleet engine
(:mod:`repro.sim.fleet`) against the event-driven simulator on
fig5-style fleets — every catalog protocol family — and asserts the
two produced identical summaries; the artifact's speedup claim is only
meaningful because equality is checked in the same run. Passing
``receivers`` (CLI ``--receivers``) adds a receivers-scaling axis:
per-count sharded fleet runs with wall time and peak RSS
(``resource.getrusage`` high-water, KB), DES-compared up to
:data:`DES_PARITY_MAX_RECEIVERS` and fleet-only beyond it, which is
how the checked-in 10^6-receiver fig5 entry is produced.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.buffers.reservoir import ReservoirBuffer
from repro.crypto.kernels import ChainWalkCache, fast_umac, set_kernels_enabled
from repro.crypto.keychain import KeyChain, KeyChainAuthenticator
from repro.crypto.mac import MICRO_MAC_BITS, MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.crypto.pebbled import PebbledKeyChain, pebble_bound
from repro.errors import ConfigurationError, ReproError
from repro.perf import collecting
from repro.perf.names import (
    CRYPTO_HASH,
    CRYPTO_MAC,
    CRYPTO_MAC_BATCHES,
    CRYPTO_WALK_CACHE_HITS,
    CRYPTO_WALK_CACHE_MISSES,
)
from repro.scenarios import get_scenario
from repro.sim.scenario import ScenarioConfig, run_scenario

__all__ = [
    "BENCH_PRESETS",
    "DES_PARITY_MAX_RECEIVERS",
    "SCENARIO_PRESETS",
    "SIM_BENCH_PRESETS",
    "run_bench",
    "run_sim_bench",
    "write_bench_json",
]

#: Scenario presets shared by ``repro bench`` and ``repro profile``.
#: Both are registered catalog entries now (``repro scenarios describe
#: fig5-t2``); the bench keeps its historical short names as aliases.
SCENARIO_PRESETS: Dict[str, ScenarioConfig] = {
    "fig5": get_scenario("fig5-t2").config,
    "smoke": get_scenario("smoke-t2").config,
}

#: Bench sizing presets: (one-way ops, walk gap, walk repeats, MAC batch,
#: μMAC flood sizes, pebbled chain length, scenario preset + fleet size).
#: Both presets point ``scenario`` at fig5 so even the CI smoke artifact
#: carries the fig5 end-to-end speedup the acceptance bar applies to.
BENCH_PRESETS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "oneway_ops": 2000,
        "walk_gap": 64,
        "walk_repeats": 200,
        "mac_batch": 64,
        "mac_rounds": 20,
        "umac_flood": 2048,
        "reservoir_capacity": 4,
        "pebbled_length": 4096,
        "scenario": "fig5",
        "scenario_receivers": 50,
    },
    "full": {
        "oneway_ops": 20000,
        "walk_gap": 64,
        "walk_repeats": 2000,
        "mac_batch": 64,
        "mac_rounds": 200,
        "umac_flood": 8192,
        "reservoir_capacity": 4,
        "pebbled_length": 65536,
        "scenario": "fig5",
        "scenario_receivers": 100,
    },
}


#: Sim-suite presets: the fig5-t2 catalog entry scaled up to
#: crowd-sized fleets, one section per catalog protocol family member
#: (the fast path is catalog-complete).
_FIG5 = get_scenario("fig5-t2").config
_SIM_PROTOCOLS = (
    "dap", "tesla_pp", "tesla", "mu_tesla", "multilevel", "eftp", "edrp",
)
SIM_BENCH_PRESETS: Dict[str, Dict[str, ScenarioConfig]] = {
    "smoke": {
        f"fleet_{protocol}": dataclasses.replace(
            _FIG5, protocol=protocol, intervals=20, receivers=50
        )
        for protocol in _SIM_PROTOCOLS
    },
    "full": {
        f"fleet_{protocol}": dataclasses.replace(
            _FIG5, protocol=protocol, receivers=100
        )
        for protocol in _SIM_PROTOCOLS
    },
}

#: Largest receiver count the scaling axis still DES-references. Above
#: this the event-driven run would dominate the suite by hours, so the
#: entries are fleet-only (parity at these sizes is pinned per shard
#: count by the invariance tests instead).
DES_PARITY_MAX_RECEIVERS = 10_000

#: Receiver-axis shard span for scaling runs: keeps the per-shard
#: unpacked delivery slice (slots x span booleans) bounded regardless
#: of fleet size.
_SCALING_SHARD_SPAN = 62_500


def _best_rate(fn: Callable[[], int], repeat: int) -> float:
    """Best-of-``repeat`` throughput of ``fn`` in ops/sec.

    ``fn`` returns the number of operations it performed. Best-of
    timing (rather than mean) is the standard defence against scheduler
    noise on shared CI runners.
    """
    best = 0.0
    for _ in range(repeat):
        started = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, ops / elapsed)
    return best


def _bench_one_way(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    function = OneWayFunction("F")
    payload = b"\x5a" * function.output_bytes
    ops = int(preset["oneway_ops"])

    def burst() -> int:
        value = payload
        for _ in range(ops):
            value = function(value)
        return ops

    set_kernels_enabled(False)
    naive = _best_rate(burst, repeat)
    set_kernels_enabled(True)
    midstate = _best_rate(burst, repeat)
    return {
        "ops": ops,
        "naive_ops_per_sec": round(naive, 1),
        "kernel_ops_per_sec": round(midstate, 1),
        "speedup": round(midstate / naive, 3) if naive else 0.0,
    }


def _bench_keychain_walks(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    """The flooding-receiver shape: the same disclosure verified over and
    over across a ``gap``-step back-walk (duplicate floods, re-disclosures,
    retransmissions). One walk per repetition naive; one walk total cached.
    """
    gap = int(preset["walk_gap"])
    repeats = int(preset["walk_repeats"])
    function = OneWayFunction("F")
    chain = KeyChain(b"bench-seed", gap + 1, function)
    # A forged disclosure never advances the trusted anchor, so a
    # duplicate flood makes the naive receiver repeat the full O(gap)
    # back-walk per copy — the exact CPU-DoS shape the walk cache kills.
    forged = bytes(b ^ 0xA5 for b in chain.key(gap))

    def naive_burst() -> int:
        authenticator = KeyChainAuthenticator(chain.commitment, function)
        for _ in range(repeats):
            authenticator.authenticate(forged, gap)
        return repeats

    def cached_burst() -> int:
        authenticator = KeyChainAuthenticator(
            chain.commitment, function, walk_cache=ChainWalkCache(function)
        )
        for _ in range(repeats):
            authenticator.authenticate(forged, gap)
        return repeats

    set_kernels_enabled(False)
    naive = _best_rate(naive_burst, repeat)
    set_kernels_enabled(True)
    cached = _best_rate(cached_burst, repeat)
    return {
        "gap": gap,
        "repeats": repeats,
        "naive_ops_per_sec": round(naive, 1),
        "kernel_ops_per_sec": round(cached, 1),
        "speedup": round(cached / naive, 3) if naive else 0.0,
    }


def _bench_mac_verify(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    scheme = MacScheme()
    key = b"\x42" * 10
    batch = int(preset["mac_batch"])
    rounds = int(preset["mac_rounds"])
    messages = [b"message-%06d" % i for i in range(batch)]
    pairs = list(zip(messages, scheme.compute_many(key, messages)))

    def per_pair() -> int:
        for _ in range(rounds):
            for message, mac in pairs:
                # reprolint: disable=RPL009 -- the naive column of the bench: the scalar path is what is being timed
                scheme.verify(key, message, mac)
        return rounds * batch

    def batched() -> int:
        for _ in range(rounds):
            scheme.verify_many(key, pairs)
        return rounds * batch

    set_kernels_enabled(False)
    naive = _best_rate(per_pair, repeat)
    set_kernels_enabled(True)
    many = _best_rate(batched, repeat)
    return {
        "batch": batch,
        "naive_ops_per_sec": round(naive, 1),
        "kernel_ops_per_sec": round(many, 1),
        "speedup": round(many / naive, 3) if naive else 0.0,
    }


def _bench_mac_batch(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    """Sender-side shape: MAC a whole broadcast slot under one key.

    Unlike :func:`_bench_mac_verify` (kernels off vs on), both sides
    here run with the kernels on — the section isolates what the batch
    API itself buys over per-call :meth:`MacScheme.compute`, i.e. one
    midstate lookup per *batch* instead of per digest.
    """
    scheme = MacScheme()
    key = b"\x42" * 10
    batch = int(preset["mac_batch"])
    rounds = int(preset["mac_rounds"])
    messages = [b"message-%06d" % i for i in range(batch)]

    def scalar() -> int:
        for _ in range(rounds):
            for message in messages:
                # reprolint: disable=RPL009 -- the scalar column of the bench: per-call compute is what is being timed
                scheme.compute(key, message)
        return rounds * batch

    def batched() -> int:
        for _ in range(rounds):
            scheme.compute_many(key, messages)
        return rounds * batch

    set_kernels_enabled(True)
    scalar_rate = _best_rate(scalar, repeat)
    many_rate = _best_rate(batched, repeat)
    return {
        "batch": batch,
        "scalar_ops_per_sec": round(scalar_rate, 1),
        "batched_ops_per_sec": round(many_rate, 1),
        "speedup": round(many_rate / scalar_rate, 3) if scalar_rate else 0.0,
    }


def _bench_umac_reservoir(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    """Algorithm-2 flood absorption: per-copy ``offer`` vs ``offer_many``.

    Before timing, one pair of buffers with the same draw key is run
    both ways and the survivors and offer counters are compared — the
    artifact's ``identical_survivors`` is a checked fact for the exact
    flood being timed, not an assumption.
    """
    flood = int(preset["umac_flood"])
    capacity = int(preset["reservoir_capacity"])
    items = list(range(flood))

    sequential_buf: ReservoirBuffer[int] = ReservoirBuffer(capacity, draw_key=0xA2)
    for item in items:
        sequential_buf.offer(item)
    batched_buf: ReservoirBuffer[int] = ReservoirBuffer(capacity, draw_key=0xA2)
    batched_buf.offer_many(items)
    if (
        sequential_buf.items != batched_buf.items
        or sequential_buf.seen_count != batched_buf.seen_count
    ):
        raise ReproError(
            "ReservoirBuffer.offer_many diverged from sequential offers —"
            " the batched path no longer replays Algorithm 2 offer-for-offer"
        )

    def per_copy() -> int:
        buf: ReservoirBuffer[int] = ReservoirBuffer(capacity, draw_key=0x5EED)
        for item in items:
            buf.offer(item)
        return flood

    def batched() -> int:
        buf: ReservoirBuffer[int] = ReservoirBuffer(capacity, draw_key=0x5EED)
        buf.offer_many(items)
        return flood

    scalar_rate = _best_rate(per_copy, repeat)
    many_rate = _best_rate(batched, repeat)
    return {
        "flood": flood,
        "capacity": capacity,
        "scalar_ops_per_sec": round(scalar_rate, 1),
        "batched_ops_per_sec": round(many_rate, 1),
        "speedup": round(many_rate / scalar_rate, 3) if scalar_rate else 0.0,
        "identical_survivors": True,
    }


def _bench_fast_umac(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    """μMAC tag generation three ways: scalar HMAC, batched HMAC, and the
    opt-in keyed-BLAKE2s fast path (``kernels.FAST_UMAC``).

    ``faithful_bytes`` is false for the fast column by design — the fast
    tags differ from the HMAC reference byte-for-byte while keeping the
    same 2^-bits distributional collision model, so figures produced
    under it are statistically, not bitwise, equivalent.
    """
    micro = MicroMacScheme()
    key = b"\x24" * 16
    flood = int(preset["umac_flood"])
    macs = [b"mac-%06d" % i for i in range(flood)]

    def scalar() -> int:
        for mac in macs:
            # reprolint: disable=RPL009 -- the scalar column of the bench: per-call compute is what is being timed
            micro.compute(key, mac)
        return flood

    def batched() -> int:
        micro.compute_many(key, macs)
        return flood

    set_kernels_enabled(True)
    hmac_scalar = _best_rate(scalar, repeat)
    hmac_batched = _best_rate(batched, repeat)
    with fast_umac(True):
        fast_rate = _best_rate(batched, repeat)
    return {
        "flood": flood,
        "bits": MICRO_MAC_BITS,
        "hmac_scalar_ops_per_sec": round(hmac_scalar, 1),
        "hmac_batched_ops_per_sec": round(hmac_batched, 1),
        "fast_ops_per_sec": round(fast_rate, 1),
        "batched_speedup": (
            round(hmac_batched / hmac_scalar, 3) if hmac_scalar else 0.0
        ),
        "fast_speedup": round(fast_rate / hmac_scalar, 3) if hmac_scalar else 0.0,
        "faithful_bytes": False,
    }


def _bench_pebbled(preset: Dict[str, Any], repeat: int) -> Dict[str, Any]:
    length = int(preset["pebbled_length"])
    function = OneWayFunction("F")
    chain = PebbledKeyChain(b"bench-seed", length, function)

    def traverse() -> int:
        for index in range(1, length + 1):
            chain.key(index)
        return length

    rate = _best_rate(traverse, max(1, repeat // 2))
    return {
        "length": length,
        "traversal_keys_per_sec": round(rate, 1),
        "stored_keys": chain.stored_keys,
        "peak_stored_keys": chain.peak_stored_keys,
        "peak_bound": pebble_bound(length),
        "dense_stored_keys": length + 1,
    }


def _bench_scenario(preset: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end fig5 three ways on one config and seed.

    1. event-driven engine, kernels off — the naive stack;
    2. fleet engine, kernels off — the same replay without the crypto
       kernels;
    3. fleet engine, kernels on — the kernel stack (batched MACs,
       midstates).

    All three summaries must be byte-identical (a single divergence
    fails the bench), so the headline ``speedup`` — naive stack over
    kernel stack — compares two runs *proven in this very invocation*
    to compute the same answer. ``replay_speedup`` isolates the crypto
    kernels inside the fleet engine.
    """
    base = SCENARIO_PRESETS[str(preset["scenario"])]
    receivers = int(preset.get("scenario_receivers", base.receivers))
    des_config = dataclasses.replace(base, receivers=receivers, engine="des")
    fleet_config = dataclasses.replace(des_config, engine="vectorized")

    set_kernels_enabled(False)
    started = time.perf_counter()
    des_result = run_scenario(des_config)
    naive_wall = time.perf_counter() - started

    started = time.perf_counter()
    reference_result = run_scenario(fleet_config)
    reference_wall = time.perf_counter() - started

    set_kernels_enabled(True)
    with collecting() as kernel_registry:
        started = time.perf_counter()
        kernel_result = run_scenario(fleet_config)
        kernel_wall = time.perf_counter() - started

    if (
        des_result.fleet != kernel_result.fleet
        or reference_result.fleet != kernel_result.fleet
    ):
        raise ReproError(
            "scenario engines diverged — the kernel stack is not"
            " byte-identical to the naive event-driven reference"
        )
    return {
        "preset": str(preset["scenario"]),
        "receivers": receivers,
        "naive_wall_seconds": round(naive_wall, 4),
        "reference_wall_seconds": round(reference_wall, 4),
        "kernel_wall_seconds": round(kernel_wall, 4),
        "speedup": round(naive_wall / kernel_wall, 3) if kernel_wall else 0.0,
        "replay_speedup": (
            round(reference_wall / kernel_wall, 3) if kernel_wall else 0.0
        ),
        "identical_summaries": True,
        "counters": dict(kernel_registry.counters),
        "walk_cache_hit_rate": round(
            kernel_registry.hit_rate(
                CRYPTO_WALK_CACHE_HITS, CRYPTO_WALK_CACHE_MISSES
            ),
            4,
        ),
    }


def run_bench(preset: str = "smoke", repeat: int = 3) -> Dict[str, Any]:
    """Run every bench section and return the JSON-ready document.

    Raises:
        ConfigurationError: for unknown presets or non-positive repeat.
        ReproError: if the instrumented scenario reports zero hash
            invocations (the CI tripwire: it means the counters came
            unwired from the hot path) or if kernel on/off runs diverge.
    """
    if preset not in BENCH_PRESETS:
        raise ConfigurationError(
            f"unknown bench preset {preset!r}; choose from {sorted(BENCH_PRESETS)}"
        )
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    sizes = BENCH_PRESETS[preset]
    previous = set_kernels_enabled(True)
    try:
        results = {
            "one_way": _bench_one_way(sizes, repeat),
            "keychain_walks": _bench_keychain_walks(sizes, repeat),
            "mac_verify": _bench_mac_verify(sizes, repeat),
            "mac_batch": _bench_mac_batch(sizes, repeat),
            "umac_reservoir": _bench_umac_reservoir(sizes, repeat),
            "fast_umac": _bench_fast_umac(sizes, repeat),
            "pebbled": _bench_pebbled(sizes, repeat),
            "scenario": _bench_scenario(sizes),
        }
    finally:
        set_kernels_enabled(previous)
    counters = results["scenario"]["counters"]
    hashes = counters.get(CRYPTO_HASH, 0)
    macs = counters.get(CRYPTO_MAC, 0)
    batches = counters.get(CRYPTO_MAC_BATCHES, 0)
    if hashes == 0 or macs == 0 or batches == 0:
        raise ReproError(
            "instrumented scenario reported zero hash/MAC/batch invocations"
            " — perf counters are unwired from the crypto hot path"
        )
    return {
        "preset": preset,
        "repeat": repeat,
        "python": platform.python_version(),
        "results": results,
    }


def _bench_fleet(config: ScenarioConfig, repeat: int) -> Dict[str, Any]:
    """One sim-suite section: DES vs vectorized on the same config.

    Both engines run ``repeat`` times (best-of walls) and every
    vectorized result is compared against the DES reference — a single
    divergence fails the bench, so ``identical_summaries`` in the
    artifact is a checked fact, not an assumption.
    """
    des_config = dataclasses.replace(config, engine="des")
    vec_config = dataclasses.replace(config, engine="vectorized")

    des_wall = float("inf")
    vec_wall = float("inf")
    des_result = vec_result = None
    for _ in range(repeat):
        started = time.perf_counter()
        des_result = run_scenario(des_config)
        des_wall = min(des_wall, time.perf_counter() - started)
        started = time.perf_counter()
        vec_result = run_scenario(vec_config)
        vec_wall = min(vec_wall, time.perf_counter() - started)
        if (
            des_result.fleet != vec_result.fleet
            or des_result.sent_authentic != vec_result.sent_authentic
            or des_result.forged_bandwidth_fraction
            != vec_result.forged_bandwidth_fraction
            or des_result.simulated_seconds != vec_result.simulated_seconds
        ):
            raise ReproError(
                "vectorized fleet engine diverged from the DES on"
                f" {config.protocol}: the engines are not bit-identical"
            )
    return {
        "protocol": config.protocol,
        "receivers": config.receivers,
        "intervals": config.intervals,
        "attack_fraction": config.attack_fraction,
        "loss_probability": config.loss_probability,
        "des_wall_seconds": round(des_wall, 4),
        "vectorized_wall_seconds": round(vec_wall, 4),
        "speedup": round(des_wall / vec_wall, 3) if vec_wall else 0.0,
        "identical_summaries": True,
    }


def _peak_rss_kb() -> int:
    """The process peak-RSS high-water mark in KB (Linux ``ru_maxrss``)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _bench_receivers_scaling(
    receivers: Sequence[int], repeat: int
) -> Dict[str, Any]:
    """The receivers-scaling axis: fig5-style fleets at growing sizes.

    Each count runs the vectorized engine sharded (spans of
    :data:`_SCALING_SHARD_SPAN` receivers) with streaming aggregate
    reduction, recording wall time and the process peak RSS after the
    run. Counts up to :data:`DES_PARITY_MAX_RECEIVERS` also run the DES
    once and check summary parity, so the recorded speedups stay
    checked facts; larger counts are fleet-only.

    ``ru_maxrss`` is a process-lifetime high-water mark, so per-entry
    values are monotone within one suite invocation — the flat-memory
    claim is that the mark barely moves as counts grow 100x, which is
    exactly what the streaming reduction buys.
    """
    from repro.sim.fleet import run_fleet_scenario
    from repro.sim.metrics import FleetAggregate

    entries = []
    for count in receivers:
        if count < 1:
            raise ConfigurationError(f"receivers must be >= 1, got {count}")
        config = dataclasses.replace(
            _FIG5, receivers=count, engine="vectorized"
        )
        shards = max(1, -(-count // _SCALING_SHARD_SPAN))
        vec_wall = float("inf")
        vec_result = None
        runs = repeat if count <= DES_PARITY_MAX_RECEIVERS else 1
        for _ in range(runs):
            started = time.perf_counter()
            vec_result = run_fleet_scenario(
                config, shards=shards, summary="aggregate"
            )
            vec_wall = min(vec_wall, time.perf_counter() - started)
        assert vec_result is not None
        entry: Dict[str, Any] = {
            "protocol": config.protocol,
            "receivers": count,
            "intervals": config.intervals,
            "shards": shards,
            "vectorized_wall_seconds": round(vec_wall, 4),
            "peak_rss_kb": _peak_rss_kb(),
            "mean_authentication_rate": round(
                vec_result.fleet.mean_authentication_rate, 6
            ),
        }
        if count <= DES_PARITY_MAX_RECEIVERS:
            started = time.perf_counter()
            des_result = run_scenario(
                dataclasses.replace(config, engine="des")
            )
            des_wall = time.perf_counter() - started
            if (
                FleetAggregate.from_summary(des_result.fleet)
                != vec_result.fleet
            ):
                raise ReproError(
                    "vectorized fleet engine diverged from the DES at"
                    f" {count} receivers: the engines are not bit-identical"
                )
            entry["des_wall_seconds"] = round(des_wall, 4)
            entry["speedup"] = (
                round(des_wall / vec_wall, 3) if vec_wall else 0.0
            )
            entry["identical_summaries"] = True
        entries.append(entry)
    return {"config": "fig5-t2", "entries": entries}


def run_sim_bench(
    preset: str = "smoke",
    repeat: int = 3,
    receivers: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """Run the sim suite: vectorized fleet engine vs the DES.

    Args:
        preset: per-protocol comparison sizing (``smoke``/``full``).
        repeat: best-of repetitions per timed run.
        receivers: optional receiver counts for the scaling axis (e.g.
            ``[100, 10_000, 1_000_000]``); adds a ``receivers_scaling``
            section with per-count wall time and peak RSS.

    Raises:
        ConfigurationError: for unknown presets, non-positive repeat,
            or non-positive receiver counts.
        ReproError: if any vectorized run diverges from its DES
            reference (the parity tripwire).
    """
    if preset not in SIM_BENCH_PRESETS:
        raise ConfigurationError(
            f"unknown bench preset {preset!r};"
            f" choose from {sorted(SIM_BENCH_PRESETS)}"
        )
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    results = {
        name: _bench_fleet(config, repeat)
        for name, config in sorted(SIM_BENCH_PRESETS[preset].items())
    }
    document: Dict[str, Any] = {
        "suite": "sim",
        "preset": preset,
        "repeat": repeat,
        "python": platform.python_version(),
        "results": results,
    }
    if receivers:
        document["receivers_scaling"] = _bench_receivers_scaling(
            receivers, repeat
        )
    return document


def write_bench_json(path: Path, document: Dict[str, Any]) -> None:
    """Write the bench document as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
