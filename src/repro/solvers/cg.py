"""Conjugate gradients (Hestenes-Stiefel) and the CGNE/CGNR variants.

CG requires a Hermitian positive-definite operator: the staggered normal
operator ``M^+M + sigma`` (Eq. 4) or the Wilson normal equations.  CGNR
solves the non-Hermitian system ``M x = b`` through ``M^+M x = M^+ b``
(Sec. 3.1).  :func:`pcg` is the *flexible* preconditioned variant
(Polak-Ribiere direction update) tolerating the nonlinear Schwarz /
multi-splitting preconditioners of :mod:`repro.precond` — the outer
solver of the multi-splitting preconditioned CG of Tu et al.
(arXiv:2104.05615).  The loops are :mod:`~repro.solvers.multirhs`'s.
"""

from __future__ import annotations

import math

from repro.solvers.base import Operator, SolverResult
from repro.solvers.multirhs import batch_of_one, batched_cg, batched_pcg
from repro.solvers.space import ArraySpace


def cg(
    op: Operator,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Solve ``A x = b`` with A Hermitian positive definite: the batch of
    one of :func:`~repro.solvers.multirhs.batched_cg`.

    ``tol`` is relative: convergence when ``||r|| <= tol * ||b||`` (iterated
    residual; the returned ``residual`` is recomputed from the solution).
    A ``p . A p <= 0`` ends the solve unconverged, ``extras["breakdown"]``
    True; one that comes back NaN or infinite, or a residual norm that
    does, ends it within the iteration, ``extras["breakdown"] ==
    "non-finite"``.
    """
    return batch_of_one(batched_cg, op, b, x0, space, tol=tol, maxiter=maxiter)


def pcg(
    op: Operator,
    b,
    x0=None,
    preconditioner=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Flexible preconditioned CG for ``A x = b`` (A Hermitian positive
    definite, K ~= A^{-1} Hermitian to rounding): the batch of one of
    :func:`~repro.solvers.multirhs.batched_pcg`, the preconditioner
    applied to the single field.

    The direction update uses the Polak-Ribiere form
    ``beta = <z_new, r_new - r_old> / <z_old, r_old>`` instead of the
    Fletcher-Reeves ``<z_new, r_new> / <z_old, r_old>``: the two agree
    for an exact (fixed, linear) preconditioner, but the flexible form
    stays convergent when K varies weakly between applications — exactly
    the situation with the MR-relaxed Schwarz and multi-splitting
    preconditioners (nonlinear through the fixed-step block solves and
    their half-precision rounding).  ``preconditioner=None`` reduces to
    plain :func:`cg` iterates.

    Convergence is declared on the *unpreconditioned* iterated residual,
    ``||r|| <= tol * ||b||``; the returned ``residual`` is recomputed
    from the solution.  A ``p . A p`` or ``r . z`` that is not positive
    ends the solve unconverged (``extras["breakdown"]`` True), and one
    that is not a number, or a residual norm that is not, within the
    iteration (``"non-finite"``).
    """
    return batch_of_one(
        batched_pcg, op, b, x0, space, preconditioner=preconditioner,
        tol=tol, maxiter=maxiter,
    )


def cgnr(
    op,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Solve the non-Hermitian ``M x = b`` via CG on ``M^+ M x = M^+ b``.

    ``op`` must be a :class:`repro.dirac.base.LatticeOperator` (needs a
    dagger).  The reported residual is for the *original* system.
    """
    space = space or ArraySpace()
    bn = op.apply_dagger(b)
    normal = op.normal()
    result = cg(normal.apply, bn, x0=x0, tol=tol, maxiter=maxiter, space=space)
    # Recompute the residual of M x = b rather than the normal equations.
    r = space.xpay(b, -1.0, op.apply(result.x))
    b_norm2 = space.norm2(b)
    result.residual = math.sqrt(space.norm2(r) / b_norm2) if b_norm2 else 0.0
    result.converged = result.converged and result.residual <= tol * 10
    return result
