"""The repository benchmark: three workloads measured end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``BENCHMARK.json`` lists the
workloads and metrics; ``perfbench/METRICS.md`` explains them.
"""
