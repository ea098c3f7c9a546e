"""A Wilson BiCGstab solve's bits do not depend on the host BLAS's thread
count.

The solve's complex128 reductions run in the repository's one order
(``repro.linalg.blas.lane_reduce``; compiled where the library is loaded),
not in OpenBLAS's dot kernel, whose sums split differently over one
thread and two.  So the default Wilson request — 8^4, mass 0.1, tol 1e-8,
BiCGstab on the even-odd Schur system — gives one solution in fresh
processes with ``OPENBLAS_NUM_THREADS`` unset, 1 and 2, and that solution
is the one on record for seed 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SOLVE = """
import hashlib
from repro import GaugeField, Geometry, SolveRequest, SpinorField, solve
geometry = Geometry((8, 8, 8, 8))
result = solve(SolveRequest(
    operator="wilson_clover",
    gauge=GaugeField.weak(geometry, epsilon=0.25, rng=0),
    rhs=SpinorField.random(geometry, rng=1).data,
    mass=0.1, tol=1e-8, method="bicgstab",
))
assert result.converged
print(result.iterations, hashlib.sha256(result.x.tobytes()).hexdigest())
"""

#: The first 8 hex digits of the seed-0 solution's sha256 (31 iterations).
SEED_0 = "7e7c0b1a"


def run(threads):
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SOLVE], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_one_solution_whatever_the_blas_threads():
    solutions = {threads: run(threads) for threads in (None, "1", "2")}
    assert len({tuple(got) for got in solutions.values()}) == 1, solutions
    iterations, digest = solutions["1"]
    assert iterations == "31"
    assert digest[:8] == SEED_0
