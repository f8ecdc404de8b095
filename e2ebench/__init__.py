"""End-to-end benchmark of the process-per-shard fingerprint index.

Run it with ``python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``e2ebench/README.md``.
"""
