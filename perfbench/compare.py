"""Compare two sets of benchmark results, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``perfbench/run.py``
(``perfbench/out/*.json``; copy it aside between the two commits). Only
untraced results are compared. For every workload and end-to-end metric
in BENCHMARK.json it prints each side's median and quartiles, the pairs
the change won, and a verdict:

- ``improved``: at least :data:`MIN_PAIRS` pairs ran, the change won at
  least nine tenths of them (ties count for neither), and the medians
  differ by more than the parent's quartile spread;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: a side's quartile spread, as a share of its median,
  exceeds the bound, and the change did not beat the parent on every run;
- ``unchanged``: otherwise.

Runs pair in seed order on each side (by seed when both sides used the
same seeds). Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load(directory: Path) -> Dict[str, Dict[int, Dict[str, float]]]:
    """``{workload: {seed: {metric: value}}}`` of the untraced results."""
    runs: Dict[str, Dict[int, Dict[str, float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        manifest = record.get("manifest", {})
        if manifest.get("trace") != 0:
            continue
        metrics = {
            name: metric["value"] for name, metric in record["result"]["metrics"].items()
        }
        runs.setdefault(manifest["workload"], {})[manifest["seed"]] = metrics
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: List[float], change: List[float], better: str, bound: float
) -> Tuple[str, int, int]:
    """``(verdict, pairs won by the change, pairs)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (c_med - p_med) > p_q3 - p_q1
    ):
        return "improved", wins, len(pairs)
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regressed", wins, len(pairs)
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def paired(
    old: Dict[int, Dict[str, float]], new: Dict[int, Dict[str, float]], metric: str
) -> Tuple[List[float], List[float]]:
    """The two sides' values of ``metric``, paired in seed order."""
    pairs = list(zip(sorted(old), sorted(new)))
    return (
        [old[seed][metric] for seed, _ in pairs],
        [new[seed][metric] for _, seed in pairs],
    )


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load(Path(arg)) for arg in argv)
    regressed = False
    header = f"{'workload':<14} {'metric':<12} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>6}  verdict"
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            print(f"{workload:<14} (missing on one side)")
            continue
        for metric in spec["end_to_end"]:
            old, new = paired(parent[workload], change[workload], metric["name"])
            if not old:
                continue
            result, wins, pairs = verdict(old, new, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            p = "/".join(f"{v:.4g}" for v in quartiles(old))
            c = "/".join(f"{v:.4g}" for v in quartiles(new))
            print(f"{workload:<14} {metric['name']:<12} {p:>32} {c:>32} {wins:>3}/{pairs:<2}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
