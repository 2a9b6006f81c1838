"""End-to-end benchmark of the resilience library (see README.md).

Run from the repository root::

    python3 perfbench/run.py --workload service_mixed --seed 1 \
        --seconds 16 --trace 0
"""
