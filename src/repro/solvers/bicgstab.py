"""BiCGstab (van der Vorst) — the paper's baseline Wilson-clover solver.

Each iteration applies the operator twice and performs several global
reductions; it is these reductions plus the halo exchanges of the matvec
that stall strong scaling past ~32 GPUs (Fig. 7), motivating GCR-DD.
The loop is :func:`~repro.solvers.multirhs.batched_bicgstab`'s.
"""

from __future__ import annotations

from repro.solvers.base import Operator, SolverResult
from repro.solvers.multirhs import batch_of_one, batched_bicgstab
from repro.solvers.space import ArraySpace


def bicgstab(
    op: Operator,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Solve the non-Hermitian ``A x = b``: the batch of one of
    :func:`~repro.solvers.multirhs.batched_bicgstab`, ``op`` applied to
    the single field.

    Returns with ``converged=False`` on breakdown (rho or omega ~ 0), when
    ``maxiter`` is exhausted, or — within the iteration, ``extras
    ["breakdown"] == "non-finite"`` — when ``rho``, the ``r_hat . v`` pivot
    or the residual norm comes back NaN or infinite (an operator or a
    right-hand side gone bad: nothing further can converge).  Callers
    wanting restarts should wrap this (see
    :func:`repro.solvers.mixed.mixed_precision_bicgstab` for the mixed-precision
    production variant).
    """
    return batch_of_one(
        batched_bicgstab, op, b, x0, space, tol=tol, maxiter=maxiter
    )
