"""SPMD GCR-DD: every rank runs the same rank-local solver program.

Where :class:`repro.core.gcrdd.GCRDDSolver` emulates the algorithm on
global arrays, :class:`SPMDGCRDDSolver` runs the paper's actual
execution model (Secs. 6-8): each rank executes
:func:`_gcrdd_rank_program` — the global view's flexible GCR program
(:func:`repro.core.gcrdd.gcrdd_solve`; one right-hand side is the batch
of one) over the array space given the rank's communicator, a rank-local
halo-exchanging operator, and a rank-local Schwarz block
preconditioner — and the only inter-rank interactions are the halo
point-to-points and the allreduce behind every inner product.  Because
the allreduce returns the identical, rank-order-folded scalar to every
rank, all ranks take the same branches and the iteration is
bit-reproducible.

The ``backend`` argument selects how the rank programs execute
(:mod:`repro.comm.backends`): ``sequential`` (deterministic round-robin,
the test reference), ``threads`` (GIL-released kernels overlap), or
``processes`` (fork + shared memory, true core parallelism).  All three
produce bit-identical solutions, residual histories, and — after the
per-rank tallies are merged at join — identical cost tallies; the
backend-parity tests assert exactly this.

Supports the Wilson-clover operator (the paper's GCR-DD target) and the
naive staggered operator; ``b`` may carry a leading multi-RHS axis, which
runs the batched rank program (one allreduce carrying B scalars).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.backends import run_rank_programs
from repro.comm.grid import ProcessGrid
from repro.core.gcrdd import GCRDDConfig, gcrdd_solve
from repro.dirac.base import PERIODIC, BoundarySpec
from repro.multigpu.layout import HaloLayout
from repro.multigpu.partition import BlockPartition
from repro.multigpu.rank_halo import RankHaloEngine
from repro.multigpu.rank_op import RANK_BUILDERS
from repro.solvers.base import SolverResult
from repro.precond import resolve_precond
from repro.solvers.multirhs import BatchedSolverResult
from repro.solvers.space import ArraySpace, BatchedArraySpace

#: Operators the SPMD solver can run.
OPERATORS = ("wilson_clover", "staggered")


@dataclass
class _RankTask:
    """Everything one rank program needs (parent-built, rank-local)."""

    rank: int
    partition: BlockPartition
    operator: str                 # a RANK_BUILDERS kind
    links: tuple                  # unpadded local link blocks, lead=1
    family: dict                  # builder keywords (csw, clover_block)
    block_op: object              # Dirichlet-cut Schwarz block operator
    mass: float
    boundary: BoundarySpec
    config: GCRDDConfig
    kernel: str
    schedule: str
    b_local: np.ndarray
    x0_local: np.ndarray | None
    batched: bool
    overlap: bool = False
    precond: str = "schwarz"      # resolved registry entry name
    precond_record: str = "schwarz_precond"


def _gcrdd_rank_program(
    comm, task: _RankTask
) -> SolverResult | BatchedSolverResult:
    """One rank's entire GCR-DD solve: the global view's program
    (:func:`~repro.core.gcrdd.gcrdd_solve`) on this rank's blocks, its
    reductions finished by ``comm`` (the bit-parity tests depend on the
    exact operation sequence)."""
    from repro.precond import schwarz_block_solve
    from repro.util.counters import record_operator

    cfg = task.config
    builder, depth, site_axes = RANK_BUILDERS[task.operator]
    engine = RankHaloEngine(
        HaloLayout(task.partition, depth), comm, boundary=task.boundary,
        site_axes=site_axes,
    )
    rank_op = builder(
        engine, *task.links, task.mass, boundary=task.boundary,
        kernel=task.kernel, schedule=task.schedule, overlap=task.overlap,
        **task.family,
    )

    space = BatchedArraySpace(site_axes, comm=comm)
    block_space = ArraySpace(site_axes=site_axes)
    block_op = task.block_op

    if task.precond == "none":
        preconditioner = None
    else:
        def preconditioner(r_loc):
            # The single collective preconditioner event is charged to
            # rank 0 (merged tallies then count one event per apply).
            if comm.rank == 0:
                record_operator(task.precond_record)
            # The block solve is the work the paper keeps entirely on one
            # GPU (Sec. 8.1): its spans sit on the rank's compute stream
            # with zero comm spans inside.
            return schwarz_block_solve(
                block_op,
                r_loc,
                steps=cfg.precond_steps,
                omega=cfg.precond_omega,
                precision=cfg.policy.preconditioner,
                space=block_space,
                rank=comm.rank,
            )

    return gcrdd_solve(
        rank_op.apply, task.b_local, task.x0_local, lead=task.batched,
        preconditioner=preconditioner, config=cfg, space=space,
    )


class SPMDGCRDDSolver:
    """GCR-DD executed as per-rank SPMD programs over a pluggable backend.

    Takes the gauge field and operator parameters rather than a built
    operator (each rank builds its own local stencil), the process
    ``grid`` and :class:`GCRDDConfig`, plus ``backend`` (``sequential``
    / ``threads`` / ``processes``), ``operator`` (``wilson_clover`` or
    ``staggered``; staggered ignores ``csw``), ``kernel``/``schedule``/
    ``overlap`` for the rank stencils, and ``timeout`` (seconds a
    blocked receive may wait under the concurrent backends before
    raising the deadlock diagnostic).
    """

    def __init__(
        self,
        gauge,
        mass: float,
        csw: float,
        grid: ProcessGrid,
        boundary: BoundarySpec | None = None,
        config: GCRDDConfig | None = None,
        backend: str = "sequential",
        operator: str = "wilson_clover",
        kernel: str = "auto",
        schedule: str = "auto",
        overlap: bool = False,
        timeout: float | None = 60.0,
    ):
        from repro.dirac.staggered import NaiveStaggeredOperator
        from repro.dirac.wilson import WilsonCloverOperator
        from repro.multigpu.rank_op import _resolve_schedule

        if operator not in OPERATORS:
            raise ValueError(
                f"unknown operator {operator!r}; choose from {OPERATORS}"
            )
        self.grid = grid
        self.config = config or GCRDDConfig()
        self.backend = backend
        self.operator = operator
        # Rank programs apply the preconditioner on their own block with
        # zero inter-rank data movement, so only rank-local (spmd)
        # registry entries resolve here; "auto" -> additive Schwarz.
        self.precond_entry = resolve_precond(
            self.config.precond,
            operator="wilson" if operator == "wilson_clover" else "staggered",
            spmd=True,
        )
        self.precond = self.precond_entry.name
        self.schedule = _resolve_schedule(schedule, bool(overlap))
        self.overlap = bool(overlap)
        self.timeout = timeout
        self.boundary = boundary or PERIODIC
        self.mass = float(mass)
        self.csw = float(csw) if operator == "wilson_clover" else 0.0
        self.partition = BlockPartition(gauge.geometry, grid)
        self.site_axes = 2 if operator == "wilson_clover" else 1

        # Parent-built shared pieces.  The gauge field is scattered here;
        # its ghost exchange is part of each rank's program.  The Schwarz
        # blocks are the same Dirichlet-cut operators GCRDDSolver's
        # preconditioner builds.
        self._gauge_blocks = self.partition.split(gauge.data, lead=1)
        if operator == "wilson_clover":
            serial = WilsonCloverOperator(
                gauge, mass=mass, csw=csw, boundary=self.boundary,
                kernel=kernel,
            )
            # The clover term is built globally (its leaves read corner
            # sites ghost exchange never fills), once, by the serial
            # operator; its dense form, expanded here for the scatter and
            # dropped after it, is what the rank builders take.
            clover = serial.clover
            clover_blocks = (
                self.partition.split(clover)
                if clover is not None
                else [None] * self.partition.n_ranks
            )
            self._family = [
                {"csw": self.csw, "clover_block": block}
                for block in clover_blocks
            ]
        else:
            serial = NaiveStaggeredOperator(
                gauge, mass=mass, boundary=self.boundary, kernel=kernel
            )
            self._family = [{}] * self.partition.n_ranks
        # The *resolved* tier name (never "auto"): rank programs, the
        # extras dict and bench config labels all report the backend
        # that actually ran.
        self.kernel = serial.kernel
        self._blocks = [
            serial.restrict_to_block(self.partition, rank)
            for rank in range(self.partition.n_ranks)
        ]

    # ------------------------------------------------------------------
    def solve(
        self, b, x0=None, backend: str | None = None,
        overlap: bool | None = None,
    ) -> SolverResult | BatchedSolverResult:
        """Solve M x = b; accepts/returns *global* arrays (scattered to
        the ranks and gathered back here).  A leading multi-RHS axis on
        ``b`` selects the batched rank program.  ``overlap`` overrides the
        constructor's overlapped-halo-exchange setting for this call."""
        backend = backend or self.backend
        overlap = self.overlap if overlap is None else bool(overlap)
        # A per-call overlap override forces the split schedule (overlap
        # has no fused form); an explicit split schedule stays split.
        schedule = "split" if (overlap or self.schedule == "split") else "fused"
        b = np.asarray(b)
        expected = 4 + self.site_axes
        lead = b.ndim - expected
        if lead not in (0, 1):
            raise ValueError(
                f"b must have ndim {expected} (or +1 batch axis), "
                f"got shape {b.shape}"
            )
        batched = lead == 1
        bs = self.partition.split(b, lead=lead)
        x0s = (
            [None] * self.partition.n_ranks
            if x0 is None
            else self.partition.split(np.asarray(x0), lead=lead)
        )
        tasks = [
            _RankTask(
                rank=rank,
                partition=self.partition,
                operator=self.operator,
                links=(self._gauge_blocks[rank],),
                family=self._family[rank],
                block_op=self._blocks[rank],
                mass=self.mass,
                boundary=self.boundary,
                config=self.config,
                kernel=self.kernel,
                schedule=schedule,
                b_local=bs[rank],
                x0_local=x0s[rank],
                batched=batched,
                overlap=overlap,
                precond=self.precond,
                precond_record=self.precond_entry.record_name,
            )
            for rank in range(self.partition.n_ranks)
        ]
        outcomes = run_rank_programs(
            _gcrdd_rank_program,
            self.partition.n_ranks,
            tasks,
            backend=backend,
            timeout=self.timeout,
        )
        results = [o.value for o in outcomes]
        # Every rank ran the same scalar recurrence; their histories must
        # agree bit-for-bit or the backend broke determinism.
        for r in results[1:]:
            if not np.array_equal(
                np.asarray(r.residual_history),
                np.asarray(results[0].residual_history),
            ):
                raise RuntimeError(
                    "SPMD ranks diverged: residual histories differ between "
                    "ranks (non-deterministic backend reduction?)"
                )
        # Rank 0's result stands for all (its scalars and solver extras,
        # e.g. iterations_by_precision, are identical on every rank — the
        # solve is bit-reproducible) once it carries the assembled x.
        result = results[0]
        result.x = self.partition.assemble([r.x for r in results], lead=lead)
        result.extras.update(
            {
                "backend": backend,
                "spmd_ranks": self.partition.n_ranks,
                "overlap": overlap,
                "kernel": self.kernel,
                "schedule": schedule,
                "precond": self.precond,
            }
        )
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SPMDGCRDDSolver({self.operator}, grid={self.grid.label}, "
            f"backend={self.backend}, blocks={self.partition.n_ranks})"
        )


__all__ = ["OPERATORS", "SPMDGCRDDSolver"]
