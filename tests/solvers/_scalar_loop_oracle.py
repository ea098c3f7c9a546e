"""Test-only oracle: the single-right-hand-side Krylov loops as they
stood in ``src/`` before each entry point became the batch of one of its
batched twin — ``bicgstab``, ``cg``, ``pcg``, ``mr``, ``gcr`` and
``defect_correction``, verbatim.

Every entry point of :mod:`repro.solvers` must give these loops' bits
(``tobytes``), counts and ledger on the same inputs
(``test_scalar_loop_oracle.py``).  Nothing in ``src/`` may import this
module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.precision import DOUBLE, Precision
from repro.solvers.base import Operator, SolverResult, compute_residual
from repro.solvers.space import ArraySpace
from repro.trace import span

#: An inner solver: (op, b, tol, maxiter, space) -> SolverResult.
InnerSolver = Callable


def finite(value) -> bool:
    """Whether a reduction came back a number: the scalar check by which
    every Krylov loop ends — ``converged=False``, ``extras["breakdown"]
    == "non-finite"`` — within the iteration that met a NaN or an
    infinity (an operator or a right-hand side gone bad: nothing further
    can converge), on the reductions it makes anyway."""
    return math.isfinite(abs(value))


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


def mr(
    op: Operator,
    b,
    steps: int = 10,
    omega: float = 1.0,
    x0=None,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Run exactly ``steps`` MR iterations for ``A x = b`` from x0 (or 0)
    — fewer when ``A r`` vanishes, or when ``|A r|^2``, the step length or
    the residual norm comes back NaN or infinite: that ends the run before
    the step is taken, ``converged=False`` and ``extras["breakdown"] ==
    "non-finite"``."""
    space = space or ArraySpace()
    if x0 is None:
        x = space.zeros_like(b)
        r = space.copy(b)
    else:
        x = space.copy(x0)
        r = space.xpay(b, -1.0, op(x))
    b_norm2 = space.norm2(b)
    history = []
    matvecs = 0
    broke_down = False if finite(b_norm2) else "non-finite"
    for _ in range(0 if broke_down else int(steps)):
        ar = op(r)
        matvecs += 1
        ar2 = space.norm2(ar)
        if ar2 == 0.0:
            break
        alpha = omega * space.dot(ar, r) / ar2
        if not (finite(ar2) and finite(alpha)):
            broke_down = "non-finite"
            break
        x, r = space.update_pair(x, alpha, r, r, -alpha, ar)
        if b_norm2 > 0:
            history.append(math.sqrt(space.norm2(r) / b_norm2))
            if not finite(history[-1]):
                broke_down = "non-finite"
                break
    residual = history[-1] if history else (0.0 if b_norm2 == 0 else 1.0)
    return SolverResult(
        x,
        # fixed-step preconditioner: always "done", unless it broke
        converged=not broke_down,
        iterations=matvecs,
        residual=residual,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": broke_down},
    )


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


def defect_correction(
    op: Operator,
    b,
    inner_solver: InnerSolver,
    inner_precision: Precision,
    x0=None,
    tol: float = 1e-10,
    inner_tol: float = 1e-4,
    max_cycles: int = 50,
    inner_maxiter: int = 1000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Iterative refinement: solve ``A e = r`` in low precision, update x.

    Parameters
    ----------
    op:
        High-precision operator.
    inner_solver:
        Low-precision work-horse, e.g. ``cg`` or ``bicgstab`` (called with
        a precision-wrapped operator and right-hand side).
    inner_precision:
        Storage precision of the inner solve.
    inner_tol:
        Relative drop each inner cycle is trusted for; bounded below by the
        precision's epsilon (you cannot resolve a defect smaller than
        rounding).
    """
    space = space or ArraySpace()
    b_norm2 = space.norm2(b)
    if b_norm2 == 0.0:
        return SolverResult(space.zeros_like(b), True, 0, 0.0)

    inner_tol = max(inner_tol, 10 * inner_precision.eps)
    if x0 is None:
        x = space.zeros_like(b)
        r = space.copy(b)
        matvecs = 0
    else:
        x = space.copy(x0)
        r = space.xpay(b, -1.0, op(x))
        matvecs = 1

    def inner_op(v):
        vq = space.convert(v, inner_precision)
        return space.convert(op(vq), inner_precision)

    history = [math.sqrt(space.norm2(r) / b_norm2)]
    total_inner_iters = 0
    cycles = 0
    converged = history[-1] <= tol

    while not converged and cycles < max_cycles:
        r_low = space.convert(r, inner_precision)
        result = inner_solver(
            inner_op,
            r_low,
            tol=inner_tol,
            maxiter=inner_maxiter,
            space=space,
        )
        matvecs += result.matvecs
        total_inner_iters += result.iterations
        x = space.axpy(1.0, result.x, x)
        r = space.xpay(b, -1.0, op(x))
        matvecs += 1
        rel = math.sqrt(space.norm2(r) / b_norm2)
        history.append(rel)
        cycles += 1
        converged = rel <= tol
        if result.iterations == 0 and not result.converged:
            break  # inner solver made no progress; avoid spinning

    # The work-horse iterations run in the inner precision; each cycle
    # does one true-residual correction in double.
    iterations_by_precision = {inner_precision.name: total_inner_iters}
    if cycles:
        iterations_by_precision["double"] = (
            iterations_by_precision.get("double", 0) + cycles
        )
    return SolverResult(
        x,
        converged=converged,
        iterations=total_inner_iters,
        residual=history[-1],
        residual_history=history,
        matvecs=matvecs,
        restarts=cycles,
        extras={
            "cycles": cycles,
            "iterations_by_precision": iterations_by_precision,
        },
    )
