"""Mixed-precision preconditioned GCR with restarts — Algorithm 1.

The outer flexible solver of the paper's GCR-DD method.  Per Krylov step:

* apply the (possibly nonlinear/low-precision) preconditioner K,
* apply the system matrix in the *inner* precision,
* explicitly orthogonalize against the existing Krylov basis,
* update the low-precision iterated residual.

A *restart* is triggered when (a) the Krylov space reaches ``kmax``, (b)
the iterated residual has dropped by more than ``delta`` relative to the
residual at the start of the cycle (the "early termination criteria" that
keeps the half-precision iterated residual honest), or (c) the target
tolerance is reached.  At restart the solution correction is obtained by
the implicit back-substitution of Luscher's scheme (solving the small
triangular system for chi), added to the high-precision solution, and the
true residual is recomputed in high precision.  The loop is
:func:`~repro.solvers.multirhs.batched_gcr`'s.
"""

from __future__ import annotations

from repro.precision import DOUBLE, Precision
from repro.solvers.base import Operator, SolverResult
from repro.solvers.multirhs import batch_of_one, batched_gcr
from repro.solvers.space import ArraySpace


def gcr(
    op: Operator,
    b,
    x0=None,
    preconditioner: Operator | None = None,
    tol: float = 1e-8,
    kmax: int = 16,
    delta: float = 0.1,
    maxiter: int = 1000,
    outer_precision: Precision = DOUBLE,
    inner_precision: Precision | None = None,
    space: ArraySpace | None = None,
    inner_op: Operator | None = None,
) -> SolverResult:
    """Solve ``A x = b`` with flexible, restarted, mixed-precision GCR:
    the batch of one of :func:`~repro.solvers.multirhs.batched_gcr`, the
    operators applied to the single field.

    Parameters
    ----------
    op:
        High-precision operator, used for the true residual at restarts.
    inner_op:
        Operator used to build the Krylov space (defaults to ``op``); pass
        a reduced-precision wrapper to emulate the paper's single-half-half
        policy.
    preconditioner:
        Callable K approximating ``A^{-1}`` (the additive Schwarz block
        solve); may be None (unpreconditioned GCR) and need not be a fixed
        linear operator (GCR is flexible).
    kmax:
        Maximum Krylov-space size before a forced restart.
    delta:
        Early-restart tolerance on the iterated-residual drop within one
        cycle.
    maxiter:
        Total Krylov steps across all restarts.

    A ``gamma_k``, an ``alpha_k`` or a residual norm that comes back NaN
    or infinite ends the solve within the iteration: ``converged=False``,
    ``extras["breakdown"] == "non-finite"``, the solution the one the
    cycle's finite steps give.
    """
    return batch_of_one(
        batched_gcr, op, b, x0, space, preconditioner=preconditioner,
        tol=tol, kmax=kmax, delta=delta, maxiter=maxiter,
        outer_precision=outer_precision, inner_precision=inner_precision,
        inner_op=inner_op,
    )
