"""Conjugate gradients (Hestenes-Stiefel) and the CGNE/CGNR variants.

CG requires a Hermitian positive-definite operator: the staggered normal
operator ``M^+M + sigma`` (Eq. 4) or the Wilson normal equations.  CGNR
solves the non-Hermitian system ``M x = b`` through ``M^+M x = M^+ b``
(Sec. 3.1).  :func:`pcg` is the *flexible* preconditioned variant
(Polak-Ribiere direction update) tolerating the nonlinear Schwarz /
multi-splitting preconditioners of :mod:`repro.precond` — the outer
solver of the multi-splitting preconditioned CG of Tu et al.
(arXiv:2104.05615).
"""

from __future__ import annotations

import math

from repro.solvers.base import Operator, SolverResult, compute_residual, finite
from repro.solvers.space import ArraySpace


def cg(
    op: Operator,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Solve ``A x = b`` with A Hermitian positive definite.

    ``tol`` is relative: convergence when ``||r|| <= tol * ||b||`` (iterated
    residual; the returned ``residual`` is recomputed from the solution).
    A ``p . A p`` or a residual norm that comes back NaN or infinite ends
    the solve within the iteration, ``converged=False`` and
    ``extras["breakdown"] == "non-finite"``.
    """
    space = space or ArraySpace()
    b_norm2 = space.norm2(b)
    if b_norm2 == 0.0:
        return SolverResult(space.zeros_like(b), True, 0, 0.0)
    target = tol * tol * b_norm2

    if x0 is None:
        x = space.zeros_like(b)
        r = space.copy(b)
        matvecs = 0
    else:
        x = space.copy(x0)
        r = compute_residual(op, x, b, space)
        matvecs = 1
    p = space.copy(r)
    r2 = space.norm2(r)
    history = [math.sqrt(r2 / b_norm2)]

    it = 0
    converged = r2 <= target
    broke_down = False if finite(r2) else "non-finite"
    while not converged and not broke_down and it < maxiter:
        ap = op(p)
        matvecs += 1
        pap = space.rdot(p, ap)
        if not finite(pap):
            broke_down = "non-finite"
            break
        if pap <= 0.0:
            # Indefinite or numerically broken-down system.
            break
        alpha = r2 / pap
        x = space.axpy(alpha, p, x)
        r = space.axpy(-alpha, ap, r)
        r2_new = space.norm2(r)
        beta = r2_new / r2
        p = space.xpay(r, beta, p)
        r2 = r2_new
        it += 1
        history.append(math.sqrt(r2 / b_norm2))
        converged = r2 <= target
        if not finite(r2):
            broke_down = "non-finite"

    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residual = math.sqrt(space.norm2(true_r) / b_norm2)
    return SolverResult(
        x,
        converged=converged,
        iterations=it,
        residual=residual,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": broke_down},
    )


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
    definite, K ~= A^{-1} Hermitian to rounding).

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
    from the solution.
    """
    if preconditioner is None:
        return cg(op, b, x0=x0, tol=tol, maxiter=maxiter, space=space)
    space = space or ArraySpace()
    b_norm2 = space.norm2(b)
    if b_norm2 == 0.0:
        return SolverResult(space.zeros_like(b), True, 0, 0.0)
    target = tol * tol * b_norm2

    if x0 is None:
        x = space.zeros_like(b)
        r = space.copy(b)
        matvecs = 0
    else:
        x = space.copy(x0)
        r = compute_residual(op, x, b, space)
        matvecs = 1
    z = preconditioner(r)
    p = space.copy(z)
    rz = space.rdot(r, z)
    r2 = space.norm2(r)
    history = [math.sqrt(r2 / b_norm2)]

    it = 0
    converged = r2 <= target
    while not converged and it < maxiter:
        ap = op(p)
        matvecs += 1
        pap = space.rdot(p, ap)
        if pap <= 0.0 or rz <= 0.0:
            # Indefinite operator or a numerically non-definite
            # preconditioner application: breakdown.
            break
        alpha = rz / pap
        x = space.axpy(alpha, p, x)
        r = space.axpy(-alpha, ap, r)
        r2 = space.norm2(r)
        it += 1
        history.append(math.sqrt(r2 / b_norm2))
        converged = r2 <= target
        if converged:
            break
        z = preconditioner(r)
        # Polak-Ribiere: r_new - r_old = -alpha * ap, so the numerator
        # <z_new, r_new - r_old> needs no stored copy of r_old.
        beta = -alpha * space.rdot(z, ap) / rz
        p = space.xpay(z, beta, p)
        rz = space.rdot(r, z)

    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residual = math.sqrt(space.norm2(true_r) / b_norm2)
    return SolverResult(
        x,
        converged=converged,
        iterations=it,
        residual=residual,
        residual_history=history,
        matvecs=matvecs,
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
