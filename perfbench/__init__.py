"""The repository benchmark: four closed-loop workloads over ``repro``.

Run it as ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; README.md in this
directory describes the workloads, the metrics and the traced pass.
"""
