"""Batched (multi-RHS) Krylov solvers.

Production lattice workloads never solve one right-hand side: a point
source propagator needs 12 spin-color solves against the *same* gauge
field.  Batching N right-hand sides into one solve amortizes every fixed
cost the paper's scaling analysis worries about — the gauge field is read
once per stencil application instead of N times (N-fold arithmetic
intensity on the links), every reduction carries N scalars in *one*
allreduce, and every halo exchange packs all N faces into one message per
neighbor per direction (message count independent of N, payload x N).

All solvers here are exact vectorizations of their scalar counterparts in
:mod:`~repro.solvers.cg` / :mod:`~repro.solvers.bicgstab` /
:mod:`~repro.solvers.mr` / :mod:`~repro.solvers.gcr`: each RHS follows the
same iteration it would follow alone (to rounding), with per-RHS scalar
coefficients carried as ``(B,)`` arrays and converged/broken-down systems
frozen by zeroing their update coefficients — in CG and BiCGstab until
the end of the iteration, when such a lane leaves the batch and every
later apply, update and reduction runs on the live lanes only.  GCR is
the one exception: its restart points are shared across the batch (a
restart is a global synchronization), so per-RHS trajectories match
independent runs only until the first restart — the final residuals
still satisfy the tolerance per RHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.precision import DOUBLE, Precision
from repro.solvers.base import Operator, SolverResult, compute_residual
from repro.solvers.space import BatchedArraySpace
from repro.trace import span


@dataclass
class BatchedSolverResult:
    """Outcome of one batched multi-RHS solve.

    Per-RHS quantities are ``(B,)`` arrays; ``matvecs`` counts *batched*
    operator applications (each touching all B right-hand sides).
    ``split()`` explodes the batch into per-RHS :class:`SolverResult`
    objects for consumers written against the scalar interface.
    """

    x: object
    converged: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    residual_history: list = field(default_factory=list)
    matvecs: int = 0
    restarts: int = 0
    extras: dict = field(default_factory=dict)
    report: object = None

    @property
    def batch(self) -> int:
        return len(self.converged)

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    def split(self) -> list[SolverResult]:
        """Per-RHS views of the batched result (requires an array ``x``
        with the leading batch axis; gather distributed vectors first)."""
        out = []
        for i in range(self.batch):
            out.append(
                SolverResult(
                    x=self.x[i],
                    converged=bool(self.converged[i]),
                    iterations=int(self.iterations[i]),
                    residual=float(self.residuals[i]),
                    residual_history=[float(h[i]) for h in self.residual_history],
                    matvecs=self.matvecs,
                    restarts=self.restarts,
                )
            )
        return out


def _safe(z: np.ndarray) -> np.ndarray:
    """Replace zeros by ones so masked divisions never warn."""
    return np.where(z == 0, np.ones_like(z), z)


class _LiveLanes:
    """The lanes of a batched Krylov loop still iterating.

    Built on the loop's per-lane results — the solution, then the
    squared residual norm, then any others — as full-batch arrays (the
    loop's own while every lane is live).  :meth:`retire` writes a
    finished lane's rows into them and cuts every array the loop carries
    down to the lanes that stay, so each later apply, update and
    reduction runs on live lanes only.  No lane's bits depend on its
    batch-mates (docs/serving.md, "Bit-reproducibility"): a lane computes
    what it computed riding to the end frozen, except that a lane whose
    vectors went non-finite keeps the ``x`` it had when it left.
    """

    def __init__(self, *results: np.ndarray) -> None:
        self.results = results
        #: the full-batch lane of each live row
        self.index = np.arange(len(results[1]))

    def retire(self, keep: np.ndarray, *arrays: np.ndarray) -> tuple:
        """Write the rows ``keep`` drops of the live results (the first
        ``len(results)`` of ``arrays``, in order) into the full batch and
        return ``arrays`` cut to the rows ``keep`` keeps."""
        self._store(~keep, arrays)
        self.index = self.index[keep]
        return tuple(a[keep] for a in arrays)

    def residuals(self, r2: np.ndarray) -> np.ndarray:
        """The full batch's squared residual norms: ``r2`` on the live
        lanes, the last one each retired lane had."""
        full = self.results[1]
        full[self.index] = r2
        return full

    def finish(self, *results: np.ndarray) -> tuple:
        """The full-batch results, the live lanes' ``results`` written
        in."""
        self._store(np.ones(len(self.index), dtype=bool), results)
        return self.results

    def _store(self, rows: np.ndarray, live: tuple) -> None:
        for full, values in zip(self.results, live):
            if values is not full:
                full[self.index[rows]] = values[rows]


def batched_cg(
    op: Operator,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: BatchedArraySpace | None = None,
) -> BatchedSolverResult:
    """Vectorized CG over a leading batch axis.

    Identical per-RHS iterates to :func:`repro.solvers.cg.cg` (to
    rounding): a converged or broken-down system gets ``alpha = beta =
    0`` for the rest of its iteration and then leaves the batch
    (:class:`_LiveLanes`), its solution and residual norm kept, while the
    rest keep iterating.  So does a lane whose ``p . A p`` or residual
    norm comes back NaN or infinite, within the iteration
    (``extras["breakdown"]`` says ``"non-finite"`` for it), and no
    batch-mate's bits move.
    """
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
    lanes = _LiveLanes(x, r2, iterations, broke_down, poisoned)

    it = 0
    while active.any() and it < maxiter:
        if not active.all():  # the lanes that are done leave the batch
            (x, r2, iterations, broke_down, poisoned,
             r, p, target, active) = lanes.retire(
                active, x, r2, iterations, broke_down, poisoned,
                r, p, target, active)
        ap = op(p)
        matvecs += 1
        pap = space.rdot(p, ap)
        # Indefinite / broken-down systems drop out (scalar CG breaks).
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
        history.append(np.sqrt(lanes.residuals(r2) / safe_b))
        poisoned |= active & ~np.isfinite(r2)
        active &= (r2 > target) & ~poisoned

    x, r2, iterations, broke_down, poisoned = lanes.finish(
        x, r2, iterations, broke_down, poisoned
    )
    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residuals = np.sqrt(space.norm2(true_r) / safe_b)
    converged = (r2 <= tol * tol * b_norm2) | (b_norm2 == 0.0)
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": _breakdown_reasons(broke_down, poisoned)},
    )


def batched_pcg(
    op: Operator,
    b,
    x0=None,
    preconditioner=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: BatchedArraySpace | None = None,
) -> BatchedSolverResult:
    """Vectorized flexible preconditioned CG over a leading batch axis.

    The batched counterpart of :func:`repro.solvers.cg.pcg` (flexible
    Polak-Ribiere direction update, safe for the nonlinear Schwarz /
    multi-splitting preconditioners): each preconditioner application
    sees the whole batch at once, every reduction carries B scalars, and
    converged or broken-down systems are frozen with
    ``alpha = beta = 0``.
    """
    if preconditioner is None:
        return batched_cg(op, b, x0=x0, tol=tol, maxiter=maxiter, space=space)
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
    z = preconditioner(r)
    p = space.copy(z)
    rz = space.rdot(r, z)
    r2 = space.norm2(r)
    history = [np.sqrt(r2 / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    active = (r2 > target) & (b_norm2 > 0.0)

    it = 0
    while active.any() and it < maxiter:
        ap = op(p)
        matvecs += 1
        pap = space.rdot(p, ap)
        # Indefinite systems / non-definite preconditioner applications
        # drop out (scalar pcg breaks).
        active &= (pap > 0.0) & (rz > 0.0)
        alpha = np.where(active, rz / _safe(pap), 0.0)
        x = space.axpy(alpha, p, x)
        r = space.axpy(-alpha, ap, r)
        r2 = space.norm2(r)
        iterations[active] += 1
        it += 1
        history.append(np.sqrt(r2 / safe_b))
        active &= r2 > target
        if not active.any():
            break
        z = preconditioner(r)
        # Polak-Ribiere numerator via r_new - r_old = -alpha * ap.
        beta = np.where(
            active, -alpha * space.rdot(z, ap) / _safe(rz), 0.0
        )
        p = space.xpay(z, beta, p)
        rz = space.rdot(r, z)

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
    )


def batched_bicgstab(
    op: Operator,
    b,
    x0=None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    space: BatchedArraySpace | None = None,
) -> BatchedSolverResult:
    """Vectorized BiCGstab over a leading batch axis.

    Per-RHS iterates match :func:`repro.solvers.bicgstab.bicgstab` (to
    rounding); a system that converges or breaks down (``rho``, the
    ``r_hat . v`` pivot, or ``omega`` vanishing) is frozen by zeroing its
    coefficients for the rest of the iteration and then leaves the batch
    (:class:`_LiveLanes`).  So does a lane whose ``rho``, pivot or
    residual norm comes back NaN or infinite, within the iteration
    (``extras["breakdown"]`` says ``"non-finite"`` for it): the checks
    ride the reductions already made, and no batch-mate's bits move.
    """
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
    lanes = _LiveLanes(x, r2, iterations, broke_down, poisoned)

    it = 0
    while active.any() and it < maxiter:
        if not active.all():  # the lanes that are done leave the batch
            (x, r2, iterations, broke_down, poisoned,
             r, r_hat, v, p, rho, alpha, omega, target, active) = lanes.retire(
                active, x, r2, iterations, broke_down, poisoned,
                r, r_hat, v, p, rho, alpha, omega, target, active)
        rho_new = space.dot(r_hat, r)
        failed = active & (np.abs(rho_new) == 0.0)
        poisoned |= active & ~np.isfinite(rho_new)
        broke_down |= failed
        active &= ~failed & ~poisoned
        beta = np.where(active, (rho_new / _safe(rho)) * (alpha / _safe(omega)), 0.0)
        rho = np.where(active, rho_new, rho)
        # p = r + beta*(p - omega*v), frozen lanes collapse to p = r.
        p = space.bicgstab_direction(p, r, v, beta, np.where(active, -omega, 0.0))
        v = op(p)
        matvecs += 1
        denom = space.dot(r_hat, v)
        failed = active & (np.abs(denom) == 0.0)
        poisoned |= active & ~np.isfinite(denom)
        broke_down |= failed
        active &= ~failed & ~poisoned
        alpha_new = np.where(active, rho / _safe(denom), 0.0)
        s = space.axpy(-alpha_new, v, r, out=r)  # r is not read again
        t = op(s)
        matvecs += 1
        t2 = space.norm2(t)
        # t2 == 0 means s is an exact solution update: omega = 0 leaves
        # r = s, and the lane retires through the convergence test below.
        omega_new = np.where(
            active & (t2 > 0.0), space.dot(t, s) / _safe(t2), 0.0
        )
        x, r = space.bicgstab_closing(x, p, s, t, alpha_new, omega_new)
        r2 = space.norm2(r)
        iterations[active] += 1
        it += 1
        history.append(np.sqrt(lanes.residuals(r2) / safe_b))
        alpha = np.where(active, alpha_new, alpha)
        omega = np.where(active, omega_new, omega)
        converged_now = r2 <= target
        failed = active & ~converged_now & (np.abs(omega_new) == 0.0)
        poisoned |= active & ~np.isfinite(r2)
        broke_down |= failed
        active &= ~converged_now & ~failed & ~poisoned

    x, r2, iterations, broke_down, poisoned = lanes.finish(
        x, r2, iterations, broke_down, poisoned
    )
    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residuals = np.sqrt(space.norm2(true_r) / safe_b)
    converged = (r2 <= tol * tol * b_norm2) | (b_norm2 == 0.0)
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": _breakdown_reasons(broke_down, poisoned)},
    )


def _breakdown_reasons(broke_down: np.ndarray, poisoned: np.ndarray) -> np.ndarray:
    """Per lane ``False``, ``True`` (a vanishing coefficient) or
    ``"non-finite"``."""
    reasons = (broke_down | poisoned).astype(object)
    reasons[poisoned] = "non-finite"
    return reasons


def mr_coefficients(omega: float, dot: np.ndarray, ar2: np.ndarray) -> np.ndarray:
    """Per-lane MR step lengths ``omega * <Ar, r> / |Ar|^2`` (0 for a
    stalled lane), complex128.

    Evaluated lane by lane in the scalar solver's own Python double
    arithmetic: NumPy's vectorized complex division multiplies by a
    reciprocal and would differ from :func:`~repro.solvers.mr.mr` in the
    last bit.
    """
    return np.array(
        [
            omega * complex(d) / float(n) if n > 0.0 else 0.0
            for d, n in zip(dot, ar2)
        ],
        dtype=np.complex128,
    )


def batched_mr(
    op: Operator,
    b,
    steps: int = 10,
    omega: float = 1.0,
    x0=None,
    space: BatchedArraySpace | None = None,
) -> BatchedSolverResult:
    """Fixed-step minimum residual over a leading batch axis.

    All B systems advance through the same MR recurrence in one
    vectorized pass (one operator application and one set of reductions
    per step for the whole batch), each lane bit for bit the iterate
    :func:`~repro.solvers.mr.mr` produces alone.  A lane whose ``A r``
    vanishes has reached the scalar solver's early exit: it is frozen
    (zero step length) and reports the step it stalled at.  So is a lane
    whose ``|A r|^2``, step length or residual norm comes back NaN or
    infinite, before the step is taken: ``converged`` is False for it,
    ``extras["breakdown"]`` says ``"non-finite"``, and no batch-mate's
    bits move.
    """
    space = space or BatchedArraySpace()
    if x0 is None:
        x = space.zeros_like(b)
        r = space.copy(b)
    else:
        x = space.copy(x0)
        r = space.xpay(b, -1.0, op(x))
    b_norm2 = space.norm2(b)
    nb = len(b_norm2)
    safe_b = _safe(b_norm2)
    live = np.ones(nb, dtype=bool)
    poisoned = np.zeros(nb, dtype=bool)  # a non-finite reduction
    iterations = np.zeros(nb, dtype=np.int64)
    history = []
    matvecs = 0
    for _ in range(int(steps)):
        ar = op(r)
        matvecs += 1
        iterations[live] = matvecs
        ar2 = space.norm2(ar)
        poisoned |= ~np.isfinite(ar2)
        live = (ar2 > 0.0) & ~poisoned
        if not live.any():
            break
        dot = space.dot(ar, r)
        poisoned |= live & ~np.isfinite(dot)
        live &= ~poisoned
        coef = mr_coefficients(omega, dot, np.where(live, ar2, 0.0))
        x, r = space.update_pair(x, coef, r, r, -coef, ar)
        history.append(np.sqrt(space.norm2(r) / safe_b))
        poisoned |= live & ~np.isfinite(history[-1])
    if history:
        residuals = history[-1]
    else:
        residuals = np.where(b_norm2 > 0.0, 1.0, 0.0)
    return BatchedSolverResult(
        x,
        converged=~poisoned,  # fixed-step preconditioner: "done" otherwise
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": _breakdown_reasons(np.zeros_like(poisoned), poisoned)},
    )


def batched_defect_correction(
    op: Operator,
    b,
    inner_solver,
    inner_precision: Precision,
    x0=None,
    tol: float = 1e-10,
    inner_tol: float = 1e-4,
    max_cycles: int = 50,
    inner_maxiter: int = 1000,
    space: BatchedArraySpace | None = None,
) -> BatchedSolverResult:
    """Mixed-precision iterative refinement over a leading batch axis.

    The batched analogue of :func:`repro.solvers.mixed.defect_correction`:
    every cycle runs ONE batched inner solve on all defects (converged
    lanes simply over-resolve a tiny correction), then recomputes the
    true residuals in high precision — per-lane convergence, shared
    cycle structure.
    """
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    nb = len(b_norm2)
    safe_b = _safe(b_norm2)
    if not (b_norm2 > 0.0).any():
        return BatchedSolverResult(
            space.zeros_like(b),
            converged=np.ones(nb, dtype=bool),
            iterations=np.zeros(nb, dtype=np.int64),
            residuals=np.zeros(nb),
        )

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

    history = [np.sqrt(space.norm2(r) / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    cycles = 0
    done = (history[-1] <= tol) | (b_norm2 == 0.0)

    while not np.all(done) and cycles < max_cycles:
        r_low = space.convert(r, inner_precision)
        result = inner_solver(
            inner_op,
            r_low,
            tol=inner_tol,
            maxiter=inner_maxiter,
            space=space,
        )
        matvecs += result.matvecs
        iterations += np.where(done, 0, result.iterations)
        x = space.axpy(1.0, result.x, x)
        r = space.xpay(b, -1.0, op(x))
        matvecs += 1
        rel = np.sqrt(space.norm2(r) / safe_b)
        history.append(rel)
        cycles += 1
        done = (rel <= tol) | (b_norm2 == 0.0)
        if not np.any(result.iterations > 0) and not result.all_converged:
            break  # inner solver made no progress; avoid spinning

    return BatchedSolverResult(
        x,
        converged=done,
        iterations=iterations,
        residuals=history[-1],
        residual_history=history,
        matvecs=matvecs,
        restarts=cycles,
        extras={"cycles": cycles},
    )


def batched_gcr(
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
    space: BatchedArraySpace | None = None,
    inner_op: Operator | None = None,
) -> BatchedSolverResult:
    """Flexible, restarted, mixed-precision GCR over a leading batch axis
    (Algorithm 1, vectorized).

    One Krylov basis per RHS is built simultaneously: the Gram-Schmidt
    coefficients, normalizations and projections are per-RHS ``(B,)``
    vectors, computed by single batched reductions.  Restart points are
    shared across the batch — a cycle ends when the Krylov space hits
    ``kmax`` or *every* RHS has met its early-restart/tolerance criterion
    — so restarts stay what they are on a real machine: global
    synchronization points.  A lane whose ``gamma_k``, ``alpha_k`` or
    residual norm comes back NaN or infinite is out within the iteration
    (``extras["breakdown"]`` says ``"non-finite"`` for it, ``converged``
    False): it counts as done for every restart decision, so the batch
    ends with its mates.
    """
    space = space or BatchedArraySpace()
    inner_op = inner_op or op
    b_norm2 = space.norm2(b)
    nb = len(b_norm2)
    safe_b = _safe(b_norm2)
    if not (b_norm2 > 0.0).any():
        zeros = space.zeros_like(b)
        return BatchedSolverResult(
            zeros,
            converged=np.ones(nb, dtype=bool),
            iterations=np.zeros(nb, dtype=np.int64),
            residuals=np.zeros(nb),
        )
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

    history = [np.sqrt(r0_norm2 / safe_b)]
    total_iters = 0
    restarts = 0
    poisoned = ~np.isfinite(r0_norm2)  # a non-finite reduction
    done = (r0_norm2 <= tol_abs2) | (b_norm2 == 0.0) | poisoned

    while not np.all(done) and total_iters < maxiter:
        # ---- one restart cycle in the inner precision ----
        r_hat = to_inner(r0)
        cycle_r0_norm2 = space.norm2(r_hat)
        p_basis: list = []  # preconditioned directions  p-hat_i
        z_basis: list = []  # orthonormalized  A p-hat_i  z-hat_i
        gammas: list[np.ndarray] = []  # (B,) normalizations per step
        betas = np.zeros((kmax, kmax, nb), dtype=np.complex128)
        alphas: list[np.ndarray] = []  # (B,) projections per step

        k = 0
        cycle_done = False
        while not cycle_done:
            with span("precondition", kind="precond", cycle=restarts, k=k,
                      batch=nb):
                p_k = (
                    preconditioner(r_hat)
                    if preconditioner is not None
                    else space.copy(r_hat)
                )
            p_k = to_inner(p_k)
            with span("inner_matvec", kind="matvec", cycle=restarts, k=k,
                      batch=nb):
                z_k = to_inner(inner_op(p_k))
            matvecs += 1
            with span("orthogonalize", kind="blas", cycle=restarts, k=k):
                # Classical Gram-Schmidt, all B bases at once (the first
                # update copies the operator's result, the rest write it).
                for i in range(k):
                    b_ik = space.dot(z_basis[i], z_k)
                    betas[i, k] = b_ik
                    z_k = space.axpy(-b_ik, z_basis[i], z_k, out=z_k if i else None)
            gamma2 = space.norm2(z_k)
            poisoned |= ~np.isfinite(gamma2)
            if not ((gamma2 > 0.0) & ~poisoned).any():
                # Exact breakdown on every RHS: Krylov space exhausted.
                cycle_done = True
                break
            gamma_k = np.sqrt(gamma2)
            # Exhausted lanes get z_k = 0: their alpha and chi vanish and
            # the lane coasts through the rest of the cycle unchanged.
            z_k = space.scale(np.where(gamma_k > 0.0, 1.0 / _safe(gamma_k), 0.0), z_k)
            alpha_k = space.dot(z_k, r_hat)
            poisoned |= ~np.isfinite(alpha_k)
            r_hat = space.axpy(-alpha_k, z_k, r_hat)

            p_basis.append(p_k)
            z_basis.append(z_k)
            gammas.append(gamma_k)
            alphas.append(alpha_k)
            k += 1
            total_iters += 1

            r_hat_norm2 = space.norm2(r_hat)
            history.append(np.sqrt(r_hat_norm2 / safe_b))
            poisoned |= ~np.isfinite(r_hat_norm2)
            lane_done = (
                (r_hat_norm2 < delta * delta * cycle_r0_norm2)
                | (r_hat_norm2 <= tol_abs2)
                | poisoned
            )
            cycle_done = (
                k >= kmax
                or bool(np.all(lane_done))
                or total_iters >= maxiter
            )

        # ---- implicit solution update (back-substitution for chi) ----
        if k > 0:
            with span("solution_update", kind="solver", cycle=restarts):
                chi = np.zeros((k, nb), dtype=np.complex128)
                for ell in range(k - 1, -1, -1):
                    acc = np.array(alphas[ell])
                    for i in range(ell + 1, k):
                        acc = acc - betas[ell, i] * chi[i]
                    chi[ell] = np.where(
                        gammas[ell] > 0.0, acc / _safe(gammas[ell]), 0.0
                    )
                x_hat = space.scale(chi[0], p_basis[0])
                for i in range(1, k):
                    x_hat = space.axpy(chi[i], p_basis[i], x_hat, out=x_hat)
                x = space.axpy(1.0, to_outer(x_hat), x, out=x)

        # ---- high-precision restart ----
        with span("true_residual", kind="solver", cycle=restarts):
            r0 = to_outer(space.xpay(b, -1.0, op(x)))
        matvecs += 1
        r0_norm2 = space.norm2(r0)
        history.append(np.sqrt(r0_norm2 / safe_b))
        restarts += 1
        poisoned |= ~np.isfinite(r0_norm2)
        done = (r0_norm2 <= tol_abs2) | (b_norm2 == 0.0) | poisoned
        if k == 0:
            break  # breakdown with no progress: bail out

    residuals = np.sqrt(r0_norm2 / safe_b)
    converged = ((r0_norm2 <= tol_abs2) | (b_norm2 == 0.0)) & ~poisoned
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=np.full(nb, total_iters, dtype=np.int64),
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        restarts=restarts,
        extras={"breakdown": _breakdown_reasons(np.zeros_like(poisoned), poisoned)},
    )
