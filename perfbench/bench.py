"""One benchmark run: set up a workload, time its operations, gate them.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` first times a few untraced operations as the reference,
then installs the :mod:`perfbench.tracing` wrappers for the rest of the
run and reports the per-layer metrics, the tracing overhead and how much
of each operation's wall time the layer spans cover.

Every run writes a result file under ``perfbench/out/`` stamped with a
run manifest; the last line on standard output is the JSON result.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench import workloads
from perfbench.speed import REFERENCE_PROBE_S, Speedometer
from perfbench.tracing import Tracer
from repro.crypto import kernels
from repro.net.harness import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: The benchmark's definition: workloads, metrics, units and bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: End-to-end metrics and their units. Times are at the reference host
#: speed of :mod:`perfbench.speed`.
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}

#: Per-layer metrics and their units.
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: Setups timed per run (this process plus fresh interpreters); the
#: reported ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Counters (see ``tracing.TARGETS``) behind ``game.optimizer.analytic_ratio``:
#: equilibrium solves, and the solves that fell back to the dynamics.
SOLVES = "repro.game.optimizer.solve.calls"
FALLBACKS = "repro.game.optimizer.realized_ess.calls"

#: Per-operation decode-to-verify latency percentiles (soak only).
LATENCY_P50 = "soak.verify_latency_us.p50"
LATENCY_P99 = "soak.verify_latency_us.p99"

#: Share of a traced run spent on untraced reference operations.
REFERENCE_SHARE = 1 / 3


@dataclass
class OpRecord:
    """One timed operation."""

    index: int
    seed: int
    wall_s: float
    items: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    traced: bool = False
    scale: float = 1.0

    @property
    def ref_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.scale


def _git_commit() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def manifest(name: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """What produced a result: code, machine, flags and seeds."""
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "kernels_enabled": kernels.ENABLED,
        "fast_umac": kernels.FAST_UMAC,
        "reference_probe_s": REFERENCE_PROBE_S,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_ops(
    workload: Any,
    first_index: int,
    budget_s: float,
    tracer: Optional[Tracer] = None,
    meter: Optional[Speedometer] = None,
) -> List[OpRecord]:
    """Closed loop: run operations until the next would overrun ``budget_s``.

    At least one operation runs. Each output is gated after its timed
    region; an operation that raises counts as failed. With a running
    ``meter``, each record carries its reference-speed scale.
    """
    records: List[OpRecord] = []
    started = time.perf_counter()
    index = first_index
    while True:
        if tracer is not None:
            tracer.begin_op()
        record = OpRecord(
            index,
            workloads.op_seed(workload.name, workload.seed, index),
            0.0,
            traced=tracer is not None,
        )
        if meter is not None:
            meter.reset()
        op_start = time.perf_counter()
        try:
            output = workload.op(index)
        except Exception:  # the loop must go on: count it as failed
            output = None
            record.problems.append(traceback.format_exc())
            print(record.problems[-1], file=sys.stderr)
        record.wall_s = time.perf_counter() - op_start
        if meter is not None:
            record.scale = meter.scale()
        if tracer is not None:
            record.counters.update(tracer.end_op())
        if output is not None:
            record.problems.extend(workload.check(output))
            record.items = workload.items(output)
            record.counters.update(workload.counters(output))
            latencies = getattr(output, "latencies", ())
            if latencies:
                record.counters[LATENCY_P50] = percentile(latencies, 50.0) * 1e6
                record.counters[LATENCY_P99] = percentile(latencies, 99.0) * 1e6
        records.append(record)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + record.wall_s > budget_s:
            return records


def _median(records: List[OpRecord], key: str) -> float:
    return statistics.median(record.counters.get(key, 0.0) for record in records)


def _ratio(records: List[OpRecord], part: str, whole: str) -> float:
    total = sum(record.counters.get(whole, 0.0) for record in records)
    if not total:
        return 0.0
    return sum(record.counters.get(part, 0.0) for record in records) / total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer_metrics(reference: List[OpRecord], traced: List[OpRecord]) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced run (0 for layers the
    workload does not reach)."""
    values = {name: _median(traced, name) for name in PER_LAYER}
    values["buffers.offer.accepted_ratio"] = _ratio(
        traced, "buffers.offer.accepted", "buffers.offer.calls"
    )
    solves = sum(r.counters.get(SOLVES, 0.0) for r in traced)
    fallbacks = sum(r.counters.get(FALLBACKS, 0.0) for r in traced)
    values["game.optimizer.analytic_ratio"] = 1.0 - fallbacks / solves if solves else 0.0
    values[LATENCY_P50] = _median(reference, LATENCY_P50)
    values[LATENCY_P99] = _median(reference, LATENCY_P99)
    traced_p50 = statistics.median(r.wall_s for r in traced)
    values["trace.op_s.p50"] = traced_p50
    values["trace.overhead_ratio"] = traced_p50 / statistics.median(r.wall_s for r in reference)
    values["trace.coverage_min"] = min(
        r.counters["span_self_total_s"] / r.wall_s for r in traced
    )
    return values


def end_to_end_metrics(records: List[OpRecord], setup_s: float, rss_mb: float) -> Dict[str, float]:
    """Every ``END_TO_END`` metric from the untraced operations."""
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(r.ref_s for r in records),
        "items_per_s": sum(r.items for r in records) / sum(r.ref_s for r in records),
        "peak_rss_mb": rss_mb,
    }


def named_metrics(workload: Any, records: List[OpRecord]) -> Dict[str, float]:
    """Wall-clock figures under the workload-specific names, uncorrected
    for host speed, plus the error rate and the median speed scale."""
    throughput = sum(r.items for r in records) / sum(r.wall_s for r in records)
    failed = sum(1 for r in records if r.problems)
    return {
        "error_rate": failed / len(records),
        "wall.op_s.p50": statistics.median(r.wall_s for r in records),
        "wall.items_per_s": throughput,
        "host_scale.p50": statistics.median(r.scale for r in records),
        workload.throughput_name: throughput,
    }


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of ``name`` in a fresh interpreter, seconds."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def run(
    workload: Any,
    seconds: float,
    trace: bool,
    own_setup_s: float,
    setup_probes: int = SETUP_REPEATS - 1,
    spans_path: Optional[Path] = None,
    meter: Optional[Speedometer] = None,
) -> Dict[str, Any]:
    """Time ``workload`` (already set up) and return the result record.

    ``own_setup_s`` is this process's set-up time; an untraced run adds
    ``setup_probes`` fresh-interpreter set-ups after the timed loop and
    scales its times by ``meter`` when one is running. A traced run
    reports raw wall times.
    """
    if trace:
        untraced = run_ops(workload, 0, seconds * REFERENCE_SHARE)
        tracer = Tracer()
        with tracer.installed():
            traced = run_ops(
                workload, len(untraced), seconds * (1 - REFERENCE_SHARE), tracer
            )
        if spans_path is not None:
            tracer.write(str(spans_path))
        metrics, units = per_layer_metrics(untraced, traced), PER_LAYER
        setups = [own_setup_s]
    else:
        untraced = run_ops(workload, 0, seconds, meter=meter)
        traced = []
        rss_mb = _peak_rss_mb()
        setups = [own_setup_s] + [
            probe_setup(workload.name, workload.seed) for _ in range(setup_probes)
        ]
        metrics = end_to_end_metrics(untraced, statistics.median(setups), rss_mb)
        units = END_TO_END
    gate = workload.run_gate()
    everything = untraced + traced
    failed = sum(1 for r in everything if r.problems)
    return {
        "result": {
            "correct": failed == 0 and not gate,
            "attempted": len(everything),
            "failed": failed,
            "metrics": {
                key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
            },
        },
        "named": named_metrics(workload, untraced),
        "gate_problems": gate,
        "setup_s_samples": setups,
        "ops": [
            {"index": r.index, "seed": r.seed, "wall_s": r.wall_s, "scale": r.scale,
             "items": r.items, "problems": r.problems, "traced": r.traced}
            for r in everything
        ],
    }
