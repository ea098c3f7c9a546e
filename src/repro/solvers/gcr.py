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
true residual is recomputed in high precision.
"""

from __future__ import annotations

import math

import numpy as np

from repro.precision import DOUBLE, Precision
from repro.solvers.base import Operator, SolverResult, finite
from repro.solvers.space import ArraySpace
from repro.trace import span


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
    """Solve ``A x = b`` with flexible, restarted, mixed-precision GCR.

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
    space = space or ArraySpace()
    inner_op = inner_op or op
    b_norm2 = space.norm2(b)
    if b_norm2 == 0.0:
        return SolverResult(space.zeros_like(b), True, 0, 0.0)
    # A tolerance below the outer precision's rounding cannot be resolved;
    # clamp it ("the inherent noise present in the Monte Carlo gauge
    # generation process is such that single-precision accuracy is
    # sufficient", Sec. 8.1).
    tol = max(tol, 4.0 * outer_precision.eps)
    tol_abs2 = tol * tol * b_norm2

    def to_inner(v):
        if inner_precision is None:
            return v
        return space.convert(v, inner_precision)

    def to_outer(v):
        return space.convert(v, outer_precision)

    # High-precision state.
    if x0 is None:
        x = space.zeros_like(b)
        r0 = space.copy(b)
        matvecs = 0
    else:
        x = space.copy(x0)
        r0 = space.xpay(b, -1.0, op(x))
        matvecs = 1
    x = to_outer(x)
    r0 = to_outer(r0)
    r0_norm2 = space.norm2(r0)

    history = [math.sqrt(r0_norm2 / b_norm2)]
    total_iters = 0
    restarts = 0
    converged = r0_norm2 <= tol_abs2
    broke_down = False if finite(r0_norm2) else "non-finite"

    while not converged and not broke_down and total_iters < maxiter:
        # ---- one restart cycle in the inner precision ----
        r_hat = to_inner(r0)
        cycle_r0_norm2 = space.norm2(r_hat)
        p_basis: list = []  # preconditioned directions  p-hat_i
        z_basis: list = []  # orthonormalized  A p-hat_i  z-hat_i
        gammas: list[float] = []
        betas = np.zeros((kmax, kmax), dtype=np.complex128)
        alphas: list[complex] = []

        k = 0
        cycle_done = False
        while not cycle_done:
            with span("precondition", kind="precond", cycle=restarts, k=k):
                p_k = (
                    preconditioner(r_hat)
                    if preconditioner is not None
                    else space.copy(r_hat)
                )
            p_k = to_inner(p_k)
            with span("inner_matvec", kind="matvec", cycle=restarts, k=k):
                z_k = to_inner(inner_op(p_k))
            matvecs += 1
            with span("orthogonalize", kind="blas", cycle=restarts, k=k):
                # Classical Gram-Schmidt against the existing basis (the
                # operator's result is not ours to write: the first update
                # makes the copy the rest update in place).
                for i in range(k):
                    b_ik = space.dot(z_basis[i], z_k)
                    betas[i, k] = b_ik
                    z_k = space.axpy(-b_ik, z_basis[i], z_k, out=z_k if i else None)
            gamma_k = math.sqrt(space.norm2(z_k))
            if gamma_k == 0.0:
                # Exact breakdown: the Krylov space is exhausted.
                cycle_done = True
                break
            if not finite(gamma_k):
                broke_down = "non-finite"
                break
            z_k = space.scale(1.0 / gamma_k, z_k)
            alpha_k = space.dot(z_k, r_hat)
            if not finite(alpha_k):
                broke_down = "non-finite"
                break
            r_hat = space.axpy(-alpha_k, z_k, r_hat)

            p_basis.append(p_k)
            z_basis.append(z_k)
            gammas.append(gamma_k)
            alphas.append(alpha_k)
            k += 1
            total_iters += 1

            r_hat_norm2 = space.norm2(r_hat)
            history.append(math.sqrt(r_hat_norm2 / b_norm2))
            if not finite(r_hat_norm2):
                broke_down = "non-finite"
            cycle_done = (
                k >= kmax
                or r_hat_norm2 < delta * delta * cycle_r0_norm2
                or r_hat_norm2 <= tol_abs2
                or total_iters >= maxiter
                or bool(broke_down)
            )

        # ---- implicit solution update (back-substitution for chi) ----
        if k > 0:
            with span("solution_update", kind="solver", cycle=restarts):
                chi = np.zeros(k, dtype=np.complex128)
                for ell in range(k - 1, -1, -1):
                    acc = alphas[ell]
                    for i in range(ell + 1, k):
                        acc = acc - betas[ell, i] * chi[i]
                    chi[ell] = acc / gammas[ell]
                x_hat = space.scale(chi[0], p_basis[0])
                for i in range(1, k):
                    x_hat = space.axpy(chi[i], p_basis[i], x_hat, out=x_hat)
                x = space.axpy(1.0, to_outer(x_hat), x, out=x)

        # ---- high-precision restart ----
        with span("true_residual", kind="solver", cycle=restarts):
            r0 = to_outer(space.xpay(b, -1.0, op(x)))
        matvecs += 1
        r0_norm2 = space.norm2(r0)
        # Record the *true* residual of the restart: the inner-precision
        # estimates above drift from it, and a history that omits the
        # recomputed value hides exactly the stagnation the restart is
        # there to detect.
        history.append(math.sqrt(r0_norm2 / b_norm2))
        restarts += 1
        converged = r0_norm2 <= tol_abs2
        if not finite(r0_norm2):
            broke_down = "non-finite"
        if k == 0:
            break  # breakdown with no progress: bail out

    residual = math.sqrt(r0_norm2 / b_norm2)
    # The Krylov steps iterate in the inner precision; each restart does
    # one true-residual recomputation (and solution update) in the outer.
    inner_name = (inner_precision or outer_precision).name
    iterations_by_precision = {inner_name: total_iters}
    if restarts:
        iterations_by_precision[outer_precision.name] = (
            iterations_by_precision.get(outer_precision.name, 0) + restarts
        )
    return SolverResult(
        x,
        converged=converged,
        iterations=total_iters,
        residual=residual,
        residual_history=history,
        matvecs=matvecs,
        restarts=restarts,
        extras={
            "iterations_by_precision": iterations_by_precision,
            "breakdown": broke_down,
        },
    )
