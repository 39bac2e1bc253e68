"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line on standard output is the JSON result; a human-readable
summary goes to standard error and the full record, stamped with a run
manifest, to ``perfbench/out/``. Exits 0 only when every operation and
the once-per-run gate passed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Internal: time set-up in a fresh interpreter, print it and exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One shard inline: keep numpy's thread pools to one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import bench, workloads
    from perfbench.speed import Speedometer
    from repro.crypto import kernels

    if kernels.FAST_UMAC:
        print("perfbench: refusing to measure the non-faithful FAST_UMAC path",
              file=sys.stderr)
        return 3
    meter = Speedometer()
    meter.start()
    try:
        workload = workloads.make(args.workload, args.seed)
        workload.setup()
        setup_wall_s = time.perf_counter() - STARTED
        setup_s = setup_wall_s * meter.scale()
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            meter.stop()
        bench.OUT.mkdir(parents=True, exist_ok=True)
        stem = bench.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = bench.run(
            workload,
            args.seconds,
            bool(args.trace),
            setup_s,
            spans_path=stem.with_suffix(".spans.npz") if args.trace else None,
            meter=None if args.trace else meter,
        )
    finally:
        meter.stop()
    record["setup_wall_s"] = setup_wall_s
    record["manifest"] = bench.manifest(args.workload, args.seed, args.seconds, args.trace)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")

    result = record["result"]
    for problem in record["gate_problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    for name, value in {**record["named"], **{
        key: metric["value"] for key, metric in result["metrics"].items()
    }}.items():
        print(f"{args.workload:>14}  {name:<40} {value:.6g}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
