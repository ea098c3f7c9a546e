"""What the benchmark runs and what it reports.

``BENCHMARK.json`` at the repo root is the declaration (metric names,
units, directions, bounds, and the workloads the benchmark driver gates
on with their reasons); this module adds what that file cannot hold:
each workload's request parameters, its frozen operations-per-round,
which layer metrics are exact counts, and the workloads ``run`` measures
that the driver does not gate on (``UNGATED``).
``test_selftest.py`` checks the two stay in step.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Every workload runs as this many rounds (fresh child processes), so
#: ``setup_s`` and ``rhs_per_s`` are medians of four.
ROUNDS = 4
#: Wall seconds one operation may take before it counts as failed.
OP_TIMEOUT_S = 30.0
#: Wall seconds a whole round child may take before it is killed.
ROUND_TIMEOUT_S = 75.0

#: BLAS thread pinning for every process the benchmark starts: two rank
#: processes must never oversubscribe the two cores with BLAS threads.
PINNED_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(PINNED_THREADS),
    "OMP_NUM_THREADS": str(PINNED_THREADS),
    "MKL_NUM_THREADS": str(PINNED_THREADS),
}


@functools.cache
def declared() -> dict:
    """The parsed ``BENCHMARK.json`` (read once; treat as read-only)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    """One workload's fixed inputs and run shape."""

    name: str
    kind: str                      # "library" | "serve"
    operator: str
    dims: tuple[int, int, int, int]
    mass: float
    tol: float
    #: Timed operations per round, frozen at ``run_seconds`` of
    #: BENCHMARK.json on the reference 2-core host (``--seconds`` rescales).
    ops: int
    rhs_per_op: int = 1
    #: Rank processes / client connections alive at once.
    procs: int = 1
    grid: tuple[int, int, int, int] | None = None
    #: Extra ``SolveRequest`` fields.
    request: dict = field(default_factory=dict)
    #: Work-horse precision of the solver, used by the layer probes.
    dtype: str = "complex128"


WILSON = dict(operator="wilson_clover", dims=(8, 8, 8, 8), mass=0.1)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wc_bicgstab", "library", **WILSON, tol=1e-8, ops=6,
            request=dict(method="bicgstab"),
        ),
        Workload(
            "wc_gcrdd_schwarz", "library", **WILSON, tol=1e-6, ops=2,
            grid=(1, 1, 2, 2), dtype="complex64",
            request=dict(method="gcr-dd", precond="auto"),
        ),
        Workload(
            "wc_gcr_halo_2r", "library", **WILSON, tol=1e-6, ops=3, procs=2,
            grid=(1, 1, 1, 2), dtype="complex64",
            request=dict(method="gcr-dd", backend="processes",
                         precond="none", overlap=False),
        ),
        Workload(
            "wc_gcrdd_overlap_2r", "library", **WILSON, tol=1e-6, ops=3,
            procs=2, grid=(1, 1, 1, 2), dtype="complex64",
            request=dict(method="gcr-dd", backend="processes",
                         precond="auto", overlap=True),
        ),
        Workload(
            "asqtad_multishift", "library", operator="asqtad_multishift",
            dims=(4, 8, 8, 8), mass=0.05, tol=1e-10, ops=2, rhs_per_op=3,
            dtype="complex64", request=dict(shifts=[0.0, 0.02, 0.1]),
        ),
        Workload(
            "serve_propagator", "serve", operator="wilson_clover",
            dims=(4, 4, 4, 4), mass=0.1, tol=1e-6, ops=10, rhs_per_op=6,
            procs=2, request=dict(method="bicgstab"),
        ),
    )
}

#: Workloads ``run`` measures and ``compare`` judges but the benchmark
#: driver does not gate on, with why each exists.  The driver's time
#: limit covers 4 + 22 runs per declared workload: three declared
#: workloads leave each run ~35 s, which a run needs to span the shared
#: reference host's slow bursts.  The two rows with two rank processes
#: are left out first: on two shared cores they run in lock-step with no
#: spare core, so a neighbour's load slows them by up to a third for
#: minutes (see README, "Noise").
UNGATED = {
    "wc_gcr_halo_2r": (
        "Unpreconditioned GCR on two real rank processes, blocking halo: "
        "~90 iterations, ~870 allreduces, ~2.1k messages, no block solves; "
        "the largest comm/multigpu share anywhere. A dd gain must not "
        "move it."),
    "wc_gcrdd_overlap_2r": (
        "The paper's production configuration (Fig. 4 + Alg. 1): two rank "
        "processes, nonblocking irecv/wait_any halo under the interior "
        "kernel, rank-local Schwarz; uses comm and dd unlike the two rows "
        "above."),
    "asqtad_multishift": (
        "Second discretisation, Sec. 8.2 solver: staggered 3-hop kernel "
        "family, single-precision multi-shift CG then mixed-precision "
        "refinement; the only row where set-up (fat/long links) is a "
        "large share."),
}


def reasons() -> dict[str, str]:
    """Why each workload exists, by name, in the order ``run`` takes them."""
    why = {w["name"]: w["why"] for w in declared()["workloads"]}
    why.update(UNGATED)
    return {name: why[name] for name in WORKLOADS}


#: Layer metrics read as counts from the public ``result.report``: they
#: must repeat exactly run to run and ``compare`` requires equality.
EXACT_COUNTS = frozenset({
    "solvers.iterations", "solvers.matvecs", "solvers.restarts",
    "precision.iters_half", "precision.iters_single",
    "precision.iters_double", "linalg.reductions",
    "linalg.local_reductions", "dirac.applies", "dd.block_applies",
    "precond.applies", "kernels.flops", "kernels.bytes_moved",
    "multigpu.comm_bytes", "multigpu.messages", "serve.rejected",
})
#: On the serve workload batch composition depends on which connection's
#: lines reach the queue first, so only per-lane counts are exact there.
EXACT_ON_SERVE = frozenset({"solvers.iterations", "serve.rejected"})


def is_exact(metric: str, workload: str) -> bool:
    if WORKLOADS[workload].kind == "serve":
        return metric in EXACT_ON_SERVE
    return metric in EXACT_COUNTS


def scaled_ops(workload: Workload, seconds: float | None) -> int:
    """Operations per round for a ``--seconds`` budget (the frozen count
    at the declared ``run_seconds``, rescaled, never below one)."""
    if seconds is None:
        return workload.ops
    return max(1, round(workload.ops * seconds / declared()["run_seconds"]))


def operations(workload: Workload, n: int, traced: bool = False) -> int:
    """Operations a round of ``n`` attempts: every serve connection posts
    ``n`` times; a traced library round runs its ``n`` solves twice
    (tracer on, then off)."""
    if workload.kind == "serve":
        return n * workload.procs
    return 2 * n if traced else n


def child_env() -> dict:
    """Environment of every round child: pinned BLAS threads, and the
    checkout's own ``src`` first on the import path."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env
