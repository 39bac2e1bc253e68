"""S-2 — protocol-design ablations (DESIGN.md §5).

Three of the paper's design choices, isolated and measured end to end:

1. reservoir (Algorithm 2, m/k) vs keep-first buffering under a
   front-loaded flood — why random selection matters;
2. EFTP wiring vs original multi-level wiring — recovery latency of a
   lost CDM, in high-interval units;
3. EDRP hash chaining vs plain CDMs — CDM authentication continuity on
   a lossy channel;
4. memoryless vs bursty loss at equal average rate — why CDM-copy
   redundancy alone is not enough and the recovery paths matter.
"""

from __future__ import annotations

import random

from repro.protocols.edrp import EdrpReceiver, EdrpSender, edrp_params
from repro.protocols.eftp import EftpReceiver, EftpSender, eftp_params
from repro.protocols.multilevel import (
    MultiLevelParams,
    MultiLevelReceiver,
    MultiLevelSender,
)
from repro.protocols.packets import CdmPacket
from repro.sim.scenario import ScenarioConfig, run_scenario
from repro.timesync.intervals import TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync

from benchmarks.conftest import print_table

SEED = b"ablation-seed"


def test_ablation_reservoir_vs_keep_first(benchmark):
    """DAP's reservoir vs TESLA++'s keep-first, same buffers, same flood."""

    def run():
        common = dict(intervals=60, receivers=3, buffers=3, seed=5)
        rows = []
        for p in (0.5, 0.7, 0.8, 0.9):
            dap = run_scenario(
                ScenarioConfig(protocol="dap", attack_fraction=p, **common)
            )
            tpp = run_scenario(
                ScenarioConfig(protocol="tesla_pp", attack_fraction=p, **common)
            )
            rows.append((p, dap.authentication_rate, tpp.authentication_rate))
        return rows

    rows = benchmark(run)
    print_table(
        "S-2a: authentication rate, reservoir (DAP) vs keep-first (TESLA++)",
        ["p", "DAP (m/k rule)", "TESLA++ (keep-first)"],
        [(f"{p:.1f}", f"{d:.3f}", f"{t:.3f}") for p, d, t in rows],
    )
    # keep-first collapses once the burst fills its buffers; the
    # reservoir degrades smoothly like 1 - p^m.
    assert rows[-1][1] > rows[-1][2] + 0.2
    heavy = [r for r in rows if r[0] >= 0.8]
    assert all(d > t for _p, d, t in heavy)


def _multilevel_stack(variant: str):
    base = MultiLevelParams(high_length=8, low_length=4, cdm_copies=4)
    if variant == "eftp":
        params = eftp_params(base)
        sender = EftpSender(SEED, params)
        receiver_cls = EftpReceiver
    elif variant == "edrp":
        params = edrp_params(base)
        sender = EdrpSender(SEED, params)
        receiver_cls = EdrpReceiver
    else:
        params = base
        sender = MultiLevelSender(SEED, params)
        receiver_cls = MultiLevelReceiver
    receiver = receiver_cls(
        sender.chain.high_chain.commitment,
        TwoLevelSchedule(0.0, 1.0, 4),
        LooseTimeSync(0.01),
        params,
        cdm_buffers=4,
        draw_key=2,
    )
    receiver.bootstrap_commitment(1, sender.chain.low_commitment(1))
    return sender, receiver


def test_ablation_eftp_recovery_latency(benchmark):
    """Drop every CDM_2 copy; measure when chain 3's commitment becomes
    usable under each wiring."""

    def run():
        latencies = {}
        for variant in ("original", "eftp"):
            sender, receiver = _multilevel_stack(variant)
            for flat in range(1, 29):
                for packet in sender.packets_for_interval(flat):
                    if isinstance(packet, CdmPacket) and packet.high_index == 2:
                        continue  # lost
                    receiver.receive(packet, flat - 0.5)
            latencies[variant] = receiver.commitment_latency_high_intervals(3)
        return latencies

    latencies = benchmark(run)
    print_table(
        "S-2b: chain-3 commitment latency after losing all CDM_2 copies",
        ["wiring", "latency (high intervals)"],
        [(k, f"{v:.2f}") for k, v in latencies.items()],
    )
    saved = latencies["original"] - latencies["eftp"]
    print(f"EFTP recovers {saved:.2f} high intervals sooner (paper: 1)")
    assert 0.7 <= saved <= 1.3


def test_ablation_bursty_vs_memoryless_loss(benchmark):
    """S-2d: equal average loss, different correlation. Bursts wipe out
    whole redundancy groups (all CDM copies of an interval), which
    memoryless loss almost never does."""
    from repro.sim.channel import BernoulliLoss, GilbertElliottLoss

    def run():
        seeds = range(1, 7)
        rates = {}
        for label, factory in (
            ("memoryless", lambda: BernoulliLoss(0.3)),
            ("bursty", lambda: GilbertElliottLoss.from_average(0.3, mean_burst=8.0)),
        ):
            authenticated = attempts = 0
            for seed in seeds:
                sender, receiver = _multilevel_stack("original")
                loss = factory()
                rng = random.Random(seed)
                for flat in range(1, 29):
                    for packet in sender.packets_for_interval(flat):
                        if loss.should_drop(rng):
                            continue
                        for event in receiver.receive(packet, flat - 0.5):
                            authenticated += event.outcome.value == "authenticated"
                attempts += 26  # verifiable flats per run
            rates[label] = authenticated / attempts
        return rates

    rates = benchmark(run)
    print_table(
        "S-2d: multi-level auth rate at 30% average loss",
        ["loss model", "auth rate"],
        [(label, f"{rate:.3f}") for label, rate in rates.items()],
    )
    # Correlated loss is strictly harsher at the same average rate.
    assert rates["bursty"] < rates["memoryless"] - 0.05


def test_ablation_edrp_continuity(benchmark):
    """Strip high-key disclosures from CDMs beyond interval 2: plain
    multi-level stalls, EDRP's hash chain keeps authenticating CDMs."""
    import dataclasses

    def run():
        authenticated = {}
        for variant in ("original", "edrp"):
            sender, receiver = _multilevel_stack(variant)
            for flat in range(1, 29):
                for packet in sender.packets_for_interval(flat):
                    if isinstance(packet, CdmPacket) and packet.high_index > 2:
                        packet = dataclasses.replace(
                            packet, disclosed_key=None, disclosed_index=0
                        )
                    receiver.receive(packet, flat - 0.5)
            authenticated[variant] = receiver.cdm_stats.authenticated
        return authenticated

    authenticated = benchmark(run)
    print_table(
        "S-2c: CDMs authenticated with high-key disclosures lost after I_2",
        ["variant", "CDMs authenticated"],
        list(authenticated.items()),
    )
    assert authenticated["edrp"] >= authenticated["original"] + 3
