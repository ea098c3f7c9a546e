"""Test-only oracle: ``batched_cg`` and ``batched_bicgstab`` as frozen-lane
loops.

These are the two loops exactly as they stood in ``src/`` before a
finished lane left the batch: every lane rides to the end of the
slowest one, a converged, broken-down or non-finite lane held still by
zero update coefficients — every apply, update and reduction runs on all
B lanes until the last one is done.  It is the operation sequence the
retiring loops must reproduce bit for bit on every lane whose own
vectors are finite, and count for count (matvecs, reductions).

A lane frozen with non-finite vectors is where the two part on purpose:
here its NaNs keep spreading through its own ``x`` for as long as its
batch-mates iterate (zero times NaN is NaN), so its ``x`` depends on
them; the retiring loop hands back the ``x`` it had when it left — what
this oracle gives that lane solved alone.  Nothing in ``src/`` may import
this module.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import compute_residual
from repro.solvers.multirhs import (
    BatchedSolverResult,
    _breakdown_reasons,
    _safe,
)
from repro.solvers.space import BatchedArraySpace


def batched_cg(op, b, x0=None, tol=1e-8, maxiter=1000, space=None):
    """Vectorized CG, converged / broken-down / non-finite lanes frozen
    with ``alpha = beta = 0``."""
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    nb = len(b_norm2)
    safe_b = _safe(b_norm2)
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
    history = [np.sqrt(r2 / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    poisoned = ~np.isfinite(r2)  # a non-finite reduction
    active = (r2 > target) & (b_norm2 > 0.0) & ~poisoned
    broke_down = np.zeros(nb, dtype=bool)

    it = 0
    while active.any() and it < maxiter:
        ap = op(p)
        matvecs += 1
        pap = space.rdot(p, ap)
        poisoned |= active & ~np.isfinite(pap)
        broke_down |= active & (pap <= 0.0)
        active &= (pap > 0.0) & ~poisoned
        alpha = np.where(active, r2 / _safe(pap), 0.0)
        x = space.axpy(alpha, p, x)
        r = space.axpy(-alpha, ap, r)
        r2_new = space.norm2(r)
        beta = np.where(active, r2_new / _safe(r2), 0.0)
        p = space.xpay(r, beta, p)
        iterations[active] += 1
        r2 = r2_new
        it += 1
        history.append(np.sqrt(r2 / safe_b))
        poisoned |= active & ~np.isfinite(r2)
        active &= (r2 > target) & ~poisoned

    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residuals = np.sqrt(space.norm2(true_r) / safe_b)
    converged = (r2 <= target) | (b_norm2 == 0.0)
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": _breakdown_reasons(broke_down, poisoned)},
    )


def batched_bicgstab(op, b, x0=None, tol=1e-8, maxiter=1000, space=None):
    """Vectorized BiCGstab, finished lanes frozen by zeroed
    coefficients."""
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    nb = len(b_norm2)
    safe_b = _safe(b_norm2)
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
    rho = np.ones(nb, dtype=np.complex128)
    alpha = np.ones(nb, dtype=np.complex128)
    omega = np.ones(nb, dtype=np.complex128)
    v = space.zeros_like(b)
    p = space.zeros_like(b)
    r2 = space.norm2(r)
    history = [np.sqrt(r2 / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    active = (r2 > target) & (b_norm2 > 0.0)
    broke_down = np.zeros(nb, dtype=bool)
    poisoned = np.zeros(nb, dtype=bool)  # a non-finite reduction

    it = 0
    while active.any() and it < maxiter:
        rho_new = space.dot(r_hat, r)
        failed = active & (np.abs(rho_new) == 0.0)
        poisoned |= active & ~np.isfinite(rho_new)
        broke_down |= failed
        active &= ~failed & ~poisoned
        beta = np.where(active, (rho_new / _safe(rho)) * (alpha / _safe(omega)), 0.0)
        rho = np.where(active, rho_new, rho)
        p = space.bicgstab_direction(p, r, v, beta, np.where(active, -omega, 0.0))
        v = op(p)
        matvecs += 1
        denom = space.dot(r_hat, v)
        failed = active & (np.abs(denom) == 0.0)
        poisoned |= active & ~np.isfinite(denom)
        broke_down |= failed
        active &= ~failed & ~poisoned
        alpha_new = np.where(active, rho / _safe(denom), 0.0)
        s = space.axpy(-alpha_new, v, r, out=r)
        t = op(s)
        matvecs += 1
        t2 = space.norm2(t)
        omega_new = np.where(
            active & (t2 > 0.0), space.dot(t, s) / _safe(t2), 0.0
        )
        x, r = space.bicgstab_closing(x, p, s, t, alpha_new, omega_new)
        r2 = space.norm2(r)
        iterations[active] += 1
        it += 1
        history.append(np.sqrt(r2 / safe_b))
        alpha = np.where(active, alpha_new, alpha)
        omega = np.where(active, omega_new, omega)
        converged_now = r2 <= target
        failed = active & ~converged_now & (np.abs(omega_new) == 0.0)
        poisoned |= active & ~np.isfinite(r2)
        broke_down |= failed
        active &= ~converged_now & ~failed & ~poisoned

    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residuals = np.sqrt(space.norm2(true_r) / safe_b)
    converged = (r2 <= target) | (b_norm2 == 0.0)
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": _breakdown_reasons(broke_down, poisoned)},
    )
