"""BiCGstab (van der Vorst) — the paper's baseline Wilson-clover solver.

Each iteration applies the operator twice and performs several global
reductions; it is these reductions plus the halo exchanges of the matvec
that stall strong scaling past ~32 GPUs (Fig. 7), motivating GCR-DD.
"""

from __future__ import annotations

import math

from repro.solvers.base import Operator, SolverResult, compute_residual, finite
from repro.solvers.space import ArraySpace


def _breakdown(value):
    """What ``extras["breakdown"]`` says of a stop on this reduction."""
    return True if finite(value) else "non-finite"


def bicgstab(
    op: Operator,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Solve the non-Hermitian ``A x = b``.

    Returns with ``converged=False`` on breakdown (rho or omega ~ 0), when
    ``maxiter`` is exhausted, or — within the iteration, ``extras
    ["breakdown"] == "non-finite"`` — when ``rho``, the ``r_hat . v`` pivot
    or the residual norm comes back NaN or infinite (an operator or a
    right-hand side gone bad: nothing further can converge).  Callers
    wanting restarts should wrap this (see
    :func:`repro.solvers.mixed.reliable_bicgstab` for the mixed-precision
    production variant).
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
    r_hat = space.copy(r)  # the fixed shadow residual
    rho = alpha = omega = 1.0 + 0.0j
    v = space.zeros_like(b)
    p = space.zeros_like(b)
    r2 = space.norm2(r)
    history = [math.sqrt(r2 / b_norm2)]

    it = 0
    converged = r2 <= target
    broke_down = False
    while not converged and not broke_down and it < maxiter:
        rho_new = space.dot(r_hat, r)
        if abs(rho_new) == 0.0 or not finite(rho_new):
            broke_down = _breakdown(rho_new)
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = space.bicgstab_direction(p, r, v, beta, -omega)
        v = op(p)
        matvecs += 1
        denom = space.dot(r_hat, v)
        if abs(denom) == 0.0 or not finite(denom):
            broke_down = _breakdown(denom)
            break
        alpha = rho / denom
        s = space.axpy(-alpha, v, r, out=r)  # r is not read again: s takes it
        t = op(s)
        matvecs += 1
        t2 = space.norm2(t)
        if t2 == 0.0:
            # s is an exact solution update.
            x = space.axpy(alpha, p, x, out=x)
            r = s
            r2 = space.norm2(r)
            it += 1
            history.append(math.sqrt(r2 / b_norm2))
            converged = r2 <= target
            break
        omega = space.dot(t, s) / t2
        x, r = space.bicgstab_closing(x, p, s, t, alpha, omega)
        r2 = space.norm2(r)
        it += 1
        history.append(math.sqrt(r2 / b_norm2))
        converged = r2 <= target
        if abs(omega) == 0.0 or not finite(r2):
            broke_down = _breakdown(r2)

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
