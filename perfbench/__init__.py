"""End-to-end and per-layer benchmark for nestopt, driven through its CLI.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; see ``perfbench/README.md``.
"""
