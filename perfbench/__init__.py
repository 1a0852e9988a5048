"""End-to-end benchmark of the Figure-2 flow (see ``perfbench/README.md``).

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
