"""Measured-vs-model strong-scaling sweeps — the paper's knee curves.

The paper's headline artifact is its strong-scaling story (Sec. 9):
time-to-solution and parallel efficiency versus GPU count on a fixed
problem, with the knee where halo communication stops hiding under the
interior kernel.  This module connects the repo's two halves of that
story:

* the **measured track** — live SPMD GCR-DD solves
  (:class:`~repro.core.spmd.SPMDGCRDDSolver`) across a list of rank
  counts on one fixed lattice, each run under a tally, which carries
  the per-rank comm waits (:mod:`repro.metrics.straggler`);
* the **model track** — the same configurations replayed through the
  analytic Edge-cluster model
  (:class:`~repro.perfmodel.solver_model.GCRDDModel`, fed the *measured*
  outer-iteration counts) and through
  :func:`~repro.perfmodel.replay.replay_solve` on the *measured* tally,
  so the model is grounded in what the solve actually did rather than an
  assumed workload.

Each sweep point carries measured and model-predicted time-to-solution,
the parallel-efficiency ratio ``T(r0)·r0 / (T(N)·N)`` on both tracks,
and the measured-vs-model communication fraction.  The sweep is honest
about its host: the bench envelope records ``cpu_count``, and every
point where the rank count exceeds the physical cores is flagged
``oversubscribed`` — a 1-core container cannot demonstrate real scaling
wins and the artifact says so.

``python -m repro scaling-sweep`` drives this module, emits a
schema-valid ``BENCH_scaling.json`` through
:mod:`repro.metrics.bench_schema`, and renders ASCII knee/efficiency
charts (:mod:`repro.report.ascii_plot`) — the CI-artifact reproduction
of the paper's Fig. 9-style curves (docs/observability.md, "Scaling
observatory").
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import choose_grid
from repro.core.gcrdd import GCRDDConfig
from repro.core.spmd import SPMDGCRDDSolver
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.metrics.bench_schema import wrap_bench
from repro.metrics.straggler import rank_wait_stats
from repro.perfmodel.kernels import KernelModel, OperatorKind
from repro.perfmodel.machines import EDGE, GPUCluster
from repro.perfmodel.replay import replay_solve
from repro.perfmodel.solver_model import GCRDDModel, GCRDDWorkload
from repro.perfmodel.streams import model_dslash_time
from repro.precision import HALF
from repro.trace import tracing
from repro.util.counters import tally


@dataclass
class ScalingPoint:
    """One rank count of the sweep: measured and modeled quantities.

    Attributes
    ----------
    ranks, grid:
        The rank count and the process grid it factored into.
    measured_seconds:
        Best-of-repeats wall time of the live SPMD solve.
    model_seconds:
        The analytic :class:`GCRDDModel` prediction for the same
        configuration (fed the measured outer-iteration count).
    replay_seconds:
        :func:`replay_solve` on the measured tally and the solve's own
        ``send`` spans — the model grounded in what the solve actually
        did.
    replay_comm_seconds:
        The communication part of ``replay_seconds``:
        :func:`~repro.perfmodel.replay.replay_comm` of those spans.
    measured_efficiency, model_efficiency:
        Parallel efficiency ``T(r0)·r0 / (T(N)·N)`` relative to the
        sweep's first point, per track.
    measured_comm_fraction:
        Share of aggregate rank time spent blocked in comm waits
        (the tally's recv/allreduce/barrier waits),
        ``sum(wait) / (ranks · T)``.
    model_comm_fraction:
        The model's unhidden comm + reduction share of solve time.
    iterations, converged, residual:
        Outcome of the live solve.
    comm_wait_seconds:
        Total measured comm-wait seconds summed over ranks.
    oversubscribed:
        Whether ``ranks`` exceeds the host's physical cores — measured
        "scaling" at such points reflects oversubscription, not
        hardware.
    """

    ranks: int
    grid: list = field(default_factory=list)
    measured_seconds: float = 0.0
    model_seconds: float = 0.0
    replay_seconds: float = 0.0
    replay_comm_seconds: float = 0.0
    measured_efficiency: float = 1.0
    model_efficiency: float = 1.0
    measured_comm_fraction: float = 0.0
    model_comm_fraction: float = 0.0
    iterations: int = 0
    converged: bool = False
    residual: float = 0.0
    comm_wait_seconds: float = 0.0
    oversubscribed: bool = False

    def to_dict(self) -> dict:
        """JSON-ready form (one ``results`` entry of BENCH_scaling)."""
        return {
            "ranks": self.ranks,
            "grid": list(self.grid),
            "measured_seconds": self.measured_seconds,
            "model_seconds": self.model_seconds,
            "replay_seconds": self.replay_seconds,
            "replay_comm_seconds": self.replay_comm_seconds,
            "measured_efficiency": self.measured_efficiency,
            "model_efficiency": self.model_efficiency,
            "measured_comm_fraction": self.measured_comm_fraction,
            "model_comm_fraction": self.model_comm_fraction,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "comm_wait_seconds": self.comm_wait_seconds,
            "oversubscribed": self.oversubscribed,
        }


def _model_point(
    cluster: GPUCluster,
    volume: tuple[int, ...],
    grid_dims: tuple[int, ...],
    outer_iterations: int,
    mr_steps: int,
    kmax: int,
) -> tuple[float, float]:
    """``(model_seconds, model_comm_fraction)`` for one configuration.

    The comm fraction charges the unhidden per-matvec comm time (the
    Fig. 4 idle gap plus the exterior updates that exist only because
    the volume is partitioned) and the global reductions against the
    modeled total.
    """
    model = GCRDDModel(
        cluster,
        tuple(volume),
        workload=GCRDDWorkload(
            outer_iterations=outer_iterations, mr_steps=mr_steps, kmax=kmax
        ),
    )
    breakdown = model.solve_time(tuple(grid_dims))
    partitioned = tuple(mu for mu in range(4) if grid_dims[mu] > 1)
    local = tuple(v // g for v, g in zip(volume, grid_dims))
    tl = model_dslash_time(
        model.inner_kernel, cluster.gpu, cluster.interconnect,
        local, partitioned,
    )
    comm_per_matvec = tl.gather_time + tl.idle_time + tl.exterior_total
    comm_seconds = (
        outer_iterations * comm_per_matvec + breakdown.reductions
    )
    total = breakdown.total
    return total, (comm_seconds / total if total > 0 else 0.0)


def run_scaling_sweep(
    dims: tuple[int, ...] = (4, 4, 4, 8),
    ranks: tuple[int, ...] = (1, 2, 4),
    mass: float = -0.06,
    csw: float = 1.0,
    tol: float = 1e-6,
    mr_steps: int = 4,
    kmax: int = 8,
    epsilon: float = 0.25,
    seed: int = 11,
    backend: str = "threads",
    repeats: int = 1,
    timeout: float = 120.0,
    cluster: GPUCluster = EDGE,
    progress=None,
) -> tuple[dict, list[ScalingPoint]]:
    """Run the measured-vs-model strong-scaling sweep.

    Args:
        dims: The fixed global lattice (strong scaling: the problem does
            not grow with the rank count).
        ranks: Rank counts to sweep, in order; the first is the
            efficiency baseline.
        mass, csw, tol, mr_steps, kmax, epsilon, seed: Solver and
            configuration knobs (weak-field gauge, GCR-DD).
        backend: SPMD backend for the live solves
            (``sequential``/``threads``/``processes``).
        repeats: Timed repeats per point (best-of wins, after one
            untimed warmup).
        timeout: Per-solve deadlock timeout under concurrent backends.
        cluster: The modeled machine (default: the paper's Edge).
        progress: Optional callable invoked with one line per point.

    Returns:
        ``(bench_doc, points)`` — the schema-valid ``"scaling"`` bench
        document and the sweep points it was built from.
    """
    geometry = Geometry(tuple(dims))
    gauge = GaugeField.weak(geometry, epsilon=epsilon, rng=seed)
    b = SpinorField.random(geometry, rng=seed + 1).data
    cpu_count = os.cpu_count() or 1

    points: list[ScalingPoint] = []
    kernel = KernelModel(OperatorKind.WILSON_CLOVER, HALF, 12)
    for n in ranks:
        grid = choose_grid(n, (3, 2, 1, 0), geometry.dims)
        solver = SPMDGCRDDSolver(
            gauge, mass, csw, grid,
            config=GCRDDConfig(tol=tol, precond_steps=mr_steps, kmax=kmax),
            backend=backend,
            timeout=timeout,
        )
        # Warm caches (and any persistent pool) untimed, traced: a solve's
        # messages do not change from run to run, so its ``send`` spans
        # are what the timed solves send, without the tracer in the timing.
        with tracing() as traced:
            solver.solve(b)
        best = None
        for _ in range(max(repeats, 1)):
            with tally() as t:
                t0 = time.perf_counter()
                res = solver.solve(b)
                dt = time.perf_counter() - t0
            if best is None or dt < best[0]:
                best = (dt, res, t)
        seconds, res, t = best

        wait_seconds = sum(
            m["seconds"]
            for per_rank in rank_wait_stats(t).values()
            for m in per_rank.values()
        )
        iterations = int(np.sum(res.iterations))
        model_seconds, model_comm_fraction = _model_point(
            cluster, geometry.dims, grid.dims, iterations, mr_steps, kmax
        )
        local_sites = math.prod(geometry.dims) // n
        replayed = replay_solve(
            t, kernel, cluster.gpu, cluster.interconnect, local_sites, n,
            events=traced.events,
        )
        point = ScalingPoint(
            ranks=n,
            grid=list(grid.dims),
            measured_seconds=seconds,
            model_seconds=model_seconds,
            replay_seconds=replayed.total,
            replay_comm_seconds=replayed.comm_time,
            measured_comm_fraction=(
                wait_seconds / (n * seconds) if seconds > 0 else 0.0
            ),
            model_comm_fraction=model_comm_fraction,
            iterations=iterations,
            converged=bool(np.all(res.converged)),
            residual=float(np.max(np.atleast_1d(res.residual))),
            comm_wait_seconds=wait_seconds,
            oversubscribed=n > cpu_count,
        )
        points.append(point)
        if progress is not None:
            progress(
                f"ranks {n:>3} grid {tuple(grid.dims)}: measured "
                f"{seconds:.3f}s, model {model_seconds:.3f}s, "
                f"{iterations} iterations"
                + (" [oversubscribed]" if point.oversubscribed else "")
            )

    base = points[0]
    for p in points:
        p.measured_efficiency = (
            (base.measured_seconds * base.ranks)
            / (p.measured_seconds * p.ranks)
            if p.measured_seconds > 0
            else 0.0
        )
        p.model_efficiency = (
            (base.model_seconds * base.ranks) / (p.model_seconds * p.ranks)
            if p.model_seconds > 0
            else 0.0
        )

    config = {
        "operator": "wilson_clover",
        "method": "gcr-dd",
        "dims": list(geometry.shape),
        "ranks": [p.ranks for p in points],
        "mass": mass,
        "csw": csw,
        "tol": tol,
        "mr_steps": mr_steps,
        "kmax": kmax,
        "epsilon": epsilon,
        "seed": seed,
        "backend": backend,
        "repeats": repeats,
        "cluster": cluster.name,
    }
    metrics: dict = {
        "min_measured_efficiency": min(
            p.measured_efficiency for p in points
        ),
        "min_model_efficiency": min(p.model_efficiency for p in points),
        "max_measured_comm_fraction": max(
            p.measured_comm_fraction for p in points
        ),
        "max_model_comm_fraction": max(
            p.model_comm_fraction for p in points
        ),
    }
    for p in points:
        metrics[f"measured_seconds_ranks_{p.ranks}"] = p.measured_seconds
        metrics[f"model_seconds_ranks_{p.ranks}"] = p.model_seconds
        metrics[f"measured_efficiency_ranks_{p.ranks}"] = (
            p.measured_efficiency
        )
        metrics[f"model_efficiency_ranks_{p.ranks}"] = p.model_efficiency
    doc = wrap_bench(
        "scaling", config, metrics, results=[p.to_dict() for p in points]
    )
    return doc, points


def knee_chart(points: list[ScalingPoint], width: int = 60) -> str:
    """ASCII knee + efficiency charts for one sweep (Fig. 9 style).

    Time-to-solution (measured vs model, log-log vs rank count) over a
    parallel-efficiency chart; both tracks per chart so the knee — where
    the measured curve departs the model — is visible in a terminal or a
    CI log.
    """
    from repro.report.ascii_plot import loglog_chart

    ranks = [p.ranks for p in points]
    time_chart = loglog_chart(
        "strong scaling: time to solution vs ranks (fixed problem)",
        "ranks", "seconds",
        {
            "measured": (ranks, [p.measured_seconds for p in points]),
            "model": (ranks, [p.model_seconds for p in points]),
        },
        width=width,
    )
    eff_chart = loglog_chart(
        "parallel efficiency vs ranks (1.0 = perfect strong scaling)",
        "ranks", "efficiency",
        {
            "measured": (
                ranks,
                [max(p.measured_efficiency, 1e-6) for p in points],
            ),
            "model": (
                ranks, [max(p.model_efficiency, 1e-6) for p in points]
            ),
        },
        width=width,
    )
    notes = [
        "comm fraction per point (measured / model):",
    ]
    for p in points:
        notes.append(
            f"  ranks {p.ranks:>3}: {p.measured_comm_fraction:6.1%} / "
            f"{p.model_comm_fraction:6.1%}"
            + ("  [oversubscribed]" if p.oversubscribed else "")
        )
    return "\n\n".join([time_chart, eff_chart, "\n".join(notes)])
