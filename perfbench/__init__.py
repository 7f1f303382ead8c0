"""The repository benchmark: three workloads timed end to end and by layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``perfbench/README.md`` explains the workloads, the
metrics and what each layer metric is expected to move.
"""
