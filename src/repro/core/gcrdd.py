"""GCR-DD: the mixed-precision, domain-decomposed solver of Sec. 8.1.

Assembles the pieces the paper combines:

* a :class:`~repro.multigpu.partition.BlockPartition` matching the GPU
  grid,
* the non-overlapping additive Schwarz preconditioner solving each block
  with a few MR steps in half precision,
* the flexible GCR outer solver (Algorithm 1) with implicit solution
  updates, kmax-bounded Krylov spaces, early-restart parameter delta, and
  the single-half-half precision policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.dirac.base import LatticeOperator
from repro.multigpu.partition import BlockPartition
from repro.precision import PrecisionPolicy, SINGLE_HALF_HALF
from repro.precond import PrecondSettings, resolve_precond
from repro.solvers.base import SolverResult
from repro.solvers.multirhs import BatchedSolverResult, batched_gcr, solve_lanes
from repro.solvers.space import BatchedArraySpace


def operator_family(op: LatticeOperator) -> str:
    """The :mod:`repro.precond` operator-family tag of an operator."""
    return "wilson" if op.nspin == 4 else "staggered"


@dataclass
class GCRDDConfig:
    """Tunable parameters of the GCR-DD solver.

    Defaults follow the paper's production setup: the additive Schwarz
    preconditioner (``precond="auto"`` resolves to ``"schwarz"``) with 10
    MR steps per block, single-half-half precisions.  ``kmax`` bounds the
    Krylov space ("limited by the computational and memory costs of
    orthogonalization"); ``delta`` is the early-restart tolerance keeping
    the half-precision iterated residual honest.

    The preconditioner knobs are the ``precond_*`` fields, resolved
    through the :mod:`repro.precond` registry; ``precond_overlap`` only
    affects the overlapping entries (``"ras"``, ``"multisplit"``).
    """

    precond: str = "auto"
    precond_steps: int = 10
    precond_omega: float = 1.0
    precond_overlap: int = 1
    kmax: int = 16
    delta: float = 0.1
    policy: PrecisionPolicy = field(default_factory=lambda: SINGLE_HALF_HALF)
    tol: float = 1e-8
    maxiter: int = 2000

    def precond_settings(self) -> PrecondSettings:
        """The registry-entry build settings this config describes."""
        return PrecondSettings(
            steps=self.precond_steps,
            omega=self.precond_omega,
            overlap=self.precond_overlap,
            precision=self.policy.preconditioner,
        )


def gcrdd_solve(
    apply, b, x0, *, lead: bool, preconditioner, config: GCRDDConfig,
    space: BatchedArraySpace,
) -> SolverResult | BatchedSolverResult:
    """The GCR-DD program both drivers run: flexible GCR (Algorithm 1,
    :func:`~repro.solvers.multirhs.batched_gcr`) on ``apply`` with
    ``config``'s restart and precision parameters, its inner matvecs at
    ``config.policy.inner``: ``apply`` itself, between the loop's own
    roundings of ``p_k`` and ``A p_k`` to that precision (the half format
    rounds a rounded field to itself, so nothing more is needed).  ``space``
    is the global view's, or a rank's block space given the rank's
    communicator; ``lead`` says ``b`` carries the batch axis (a single
    ``b`` is the batch of one)."""
    return solve_lanes(
        batched_gcr,
        apply,
        b,
        x0,
        lead=lead,
        preconditioner=preconditioner,
        tol=config.tol,
        kmax=config.kmax,
        delta=config.delta,
        maxiter=config.maxiter,
        outer_precision=config.policy.outer,
        inner_precision=config.policy.inner,
        space=space,
    )


class GCRDDSolver:
    """Domain-decomposed GCR for a (Wilson-clover or staggered) operator.

    Parameters
    ----------
    op:
        The global operator M (full precision).
    grid:
        The virtual GPU grid; one Schwarz block per rank.
    config:
        Algorithm parameters.
    """

    def __init__(
        self,
        op: LatticeOperator,
        grid: ProcessGrid,
        config: GCRDDConfig | None = None,
    ):
        self.op = op
        self.grid = grid
        self.config = config or GCRDDConfig()
        self.partition = BlockPartition(op.geometry, grid)
        cfg = self.config
        self.space = BatchedArraySpace(site_axes=2 if op.nspin == 4 else 1)
        # One resolution point: the precond registry picks the entry
        # ("auto" -> additive Schwarz, the paper's preconditioner) and
        # builds the live callable from this config's settings.
        self.precond_entry = resolve_precond(
            cfg.precond, operator=operator_family(op)
        )
        self.precond = self.precond_entry.name
        self.preconditioner = self.precond_entry.build(
            op, self.partition, cfg.precond_settings()
        )

    def solve(
        self, b: np.ndarray, x0: np.ndarray | None = None
    ) -> SolverResult | BatchedSolverResult:
        """Solve M x = b.  ``b`` may carry a leading multi-RHS axis, in
        which case all right-hand sides advance through one batched GCR-DD
        (shared restarts, one reduction per Gram-Schmidt coefficient
        set) and a :class:`BatchedSolverResult` is returned; a single
        ``b`` is the batch of one."""
        b = np.asarray(b)
        lead = self.op.field_lead(b) == 1
        if lead:
            # The registry refuses an entry that cannot take a batch,
            # naming those that can.
            resolve_precond(
                self.precond, operator=operator_family(self.op), batched=True
            )
        result = gcrdd_solve(
            self.op.apply, b, x0, lead=lead,
            preconditioner=self.preconditioner, config=self.config,
            space=self.space,
        )
        result.extras["precond"] = self.precond
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GCRDDSolver({self.op.name}, grid={self.grid.label}, "
            f"blocks={self.partition.n_ranks}, policy={self.config.policy.label()})"
        )
