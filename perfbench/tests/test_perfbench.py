"""Tests of the benchmark itself: smoke-sized workloads, the tracer's
clean-up, the correctness gates and the names BENCHMARK.json promises."""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench, compare, run, workloads
from perfbench.speed import Speedometer
from perfbench.tracing import Tracer, patch_sites
from repro.crypto import kernels
from repro.game.ess import EssType

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(name: str):
    """A small instance of workload ``name``."""
    if name == "fleet-fig5":
        workload = workloads.FleetWorkload(name, "fig5-t2", 3, 0.8785, 0.02, receivers=200)
    elif name == "fleet-storm":
        workload = workloads.FleetWorkload(
            name, "crowdsensing-edrp-storm-t3", 3, 0.7542, 0.03, receivers=200
        )
    elif name == "soak-loopback":
        # Four receivers spread further than 32: widen the rate gate.
        workload = workloads.SoakWorkload(
            3, 0.8794, 0.15, receivers=4, intervals=30, parity_intervals=10
        )
    else:
        workload = workloads.FiguresWorkload(3, points=5, m_values=60)
    workload.setup()
    return workload


def emitted(result):
    """``{metric: unit}`` of a result line."""
    return {key: metric["unit"] for key, metric in result["metrics"].items()}


def test_workload_names_match_benchmark_json():
    for name in NAMES:
        assert workloads.make(name, 1).name == name
        assert run.parse_args(["--workload", name, "--seed", "1", "--seconds", "1",
                               "--trace", "0"]).workload == name
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_untraced(name):
    record = bench.run(smoke(name), 0.01, False, 0.5, setup_probes=0)
    result = record["result"]
    assert result["correct"], record
    assert result["attempted"] == 1 and result["failed"] == 0
    assert emitted(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["named"]["error_rate"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_traced_restores_every_wrapped_attribute(name, tmp_path):
    workload = smoke(name)
    originals = [
        (owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        for owner, attr, _target in patch_sites()
    ]
    tracer = Tracer()
    with tracer.installed():
        assert all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            is not original
            for owner, attr, original in originals
        )
    assert all(
        (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        is original
        for owner, attr, original in originals
    )

    spans = tmp_path / "spans.npz"
    record = bench.run(workload, 0.01, True, 0.5, setup_probes=0, spans_path=spans)
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)

    result = record["result"]
    assert result["correct"], record
    assert emitted(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert 0.9 <= metrics["trace.coverage_min"] <= 1.0
    assert spans.is_file()
    if name.startswith("fleet-"):
        assert metrics["sim.fleet.calls"] == 1 and metrics["sim.channel.mask.decisions"] > 0
    elif name == "soak-loopback":
        decoded = metrics["protocols.wire.decode.calls"]
        assert 0 < decoded <= metrics["net.datagrams.delivered"]
        assert metrics["protocols.receive.calls"] == decoded
        assert 0 < metrics["buffers.offer.accepted_ratio"] <= 1
        assert metrics["soak.verify_latency_us.p99"] >= metrics["soak.verify_latency_us.p50"] > 0
    else:
        assert metrics["game.ess.stable_points.calls"] == 2 * 5 * 50
        assert 0 < metrics["game.optimizer.analytic_ratio"] < 1
        assert metrics["engine.run_tasks.tasks"] == 2 * 5


def test_fleet_gate_rejects_corrupted_output():
    workload = smoke("fleet-fig5")
    result = workload.op(0)
    assert workload.check(result) == []
    forged = replace(result.fleet.nodes[0], forged_accepted=1)
    corrupted = replace(
        result, fleet=replace(result.fleet, nodes=(forged,) + result.fleet.nodes[1:])
    )
    assert any("forged_accepted" in p for p in workload.check(corrupted))
    starved = [replace(node, authenticated=0) for node in result.fleet.nodes]
    corrupted = replace(result, fleet=replace(result.fleet, nodes=tuple(starved)))
    assert any("authentication_rate" in p for p in workload.check(corrupted))


def test_fleet_parity_gate_detects_divergence(monkeypatch):
    workload = smoke("fleet-storm")
    assert workload.run_gate() == []
    honest = workloads.fleet.run_fleet_scenario

    def drifted(config):
        result = honest(config)
        node = replace(result.fleet.nodes[-1], packets_received=0)
        return replace(result, fleet=replace(result.fleet, nodes=result.fleet.nodes[:-1] + (node,)))

    monkeypatch.setattr(workloads.fleet, "run_fleet_scenario", drifted)
    assert workload.run_gate() != []


def test_soak_gates_reject_corrupted_output(monkeypatch):
    workload = smoke("soak-loopback")
    result = workload.op(0)
    assert workload.check(result) == []
    assert any("malformed" in p for p in workload.check(replace(result, malformed=1)))
    assert workload.run_gate() == []
    honest = workloads.harness.run_loopback_soak

    def lossy(config):
        result = honest(config)
        node = replace(result.fleet.nodes[0], authenticated=result.fleet.nodes[0].authenticated - 1)
        return replace(result, fleet=replace(result.fleet, nodes=(node,) + result.fleet.nodes[1:]))

    monkeypatch.setattr(workloads.harness, "run_loopback_soak", lossy)
    assert workload.run_gate() != []


def test_figures_gate_rejects_corrupted_output():
    workload = smoke("figures")
    bands, curves, series = workload.op(0)
    assert workload.check((bands, curves, series)) == []
    swapped = [replace(bands[1], ess_type=EssType.INTERIOR), *bands[1:]]
    assert workload.check((swapped, curves, series)) != []
    point = replace(curves["paper"].points[0], game_cost=1e9)
    broken = replace(curves["paper"], points=(point,) + curves["paper"].points[1:])
    assert workload.check((bands, {**curves, "paper": broken}, series)) != []


def test_failing_operation_counts_as_failed():
    workload = smoke("fleet-fig5")
    workload.expected_rate = 0.5
    result = bench.run(workload, 0.01, False, 0.5, setup_probes=0)["result"]
    assert result["failed"] == 1 and not result["correct"]


def test_op_seeds_are_fresh_and_reproducible():
    seeds = [workloads.op_seed("fleet-fig5", 7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [workloads.op_seed("fleet-fig5", 7, i) for i in range(100)]
    assert seeds[0] != workloads.op_seed("fleet-fig5", 8, 0)


def test_refuses_fast_umac(monkeypatch):
    monkeypatch.setattr(kernels, "FAST_UMAC", True)
    assert run.main(["--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 3


def test_manifest_names_code_machine_and_flags():
    stamp = bench.manifest("figures", 5, 10, 0)
    assert stamp["nproc"] >= 1 and stamp["kernels_enabled"] is True
    assert stamp["fast_umac"] is False and stamp["seed"] == 5
    assert {"commit", "python", "numpy"} <= set(stamp)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 10.0, 6.0, 14.0, 10.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    # Every change run beats every parent run, but the medians differ by
    # less than the parent's quartile spread (5.05 < 5.5): no gain claim,
    # and no "unresolved" either.
    wide = [float(v) for v in range(10, 20)]
    close = [9.0 + v / 10 for v in range(10)]
    assert compare.verdict(wide, close, "lower", 0.1)[0] == "unchanged"
    # Too few pairs for a gain claim, however clear.
    assert compare.verdict(parent[:2], faster[:2], "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent[:9], faster[:9], "lower", 0.1)[0] == "unchanged"


def test_speedometer_scales_records_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    meter = Speedometer()
    meter.start()
    try:
        records = bench.run_ops(smoke("fleet-fig5"), 0, 0.01, meter=meter)
    finally:
        meter.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 2
    assert records[0].scale > 0 and records[0].ref_s == records[0].wall_s * records[0].scale
