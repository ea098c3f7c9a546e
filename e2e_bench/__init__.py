"""e2e_bench — the repo's one time-to-solution benchmark.

Drives the system only through its public surface (``solve(SolveRequest)``,
``python -m repro serve`` + ``ServeClient``, and each layer's public
functions), checks every solution, and prints every metric declared in
``BENCHMARK.json`` by name with its unit.  See ``e2e_bench/README.md``.

    python -m e2e_bench run [--workload W] [--seed S] [--trace] [--out DIR]
    python -m e2e_bench compare A B
"""
