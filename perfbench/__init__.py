"""The repository benchmark: seeded matching workloads driven through the
public ``MatchingService`` API, an independent correctness reference, and a
traced run that times each layer from outside ``src/``.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
