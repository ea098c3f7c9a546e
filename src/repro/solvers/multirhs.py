"""The Krylov loops, over a leading batch axis — one loop per method.

Production lattice workloads never solve one right-hand side: a point
source propagator needs 12 spin-color solves against the *same* gauge
field.  Batching N right-hand sides into one solve amortizes every fixed
cost the paper's scaling analysis worries about — the gauge field is read
once per stencil application instead of N times (N-fold arithmetic
intensity on the links), every reduction carries N scalars in *one*
allreduce, and every halo exchange packs all N faces into one message per
neighbor per direction (message count independent of N, payload x N).

These loops are the only ones: :func:`~repro.solvers.cg.cg`,
:func:`~repro.solvers.cg.pcg`, :func:`~repro.solvers.bicgstab.bicgstab`,
:func:`~repro.solvers.mr.mr`, :func:`~repro.solvers.gcr.gcr` and
:func:`~repro.solvers.mixed.defect_correction` each run the batch of one
of theirs (:func:`batch_of_one`).  Every lane computes its complex
coefficients in the single-RHS recurrence's own arithmetic — CPython's,
lane by lane (:func:`_lanewise`) — so a lane of CG, BiCGstab or MR is bit
for bit the solve of that right-hand side alone.  A converged or
broken-down lane is frozen by zeroing its update coefficients until the
end of the iteration; in CG, PCG and BiCGstab it then leaves the batch,
and every later apply, update and reduction runs on the live lanes only.
GCR is the one exception: its restart points are shared across the batch
(a restart is a global synchronization), so a lane's trajectory matches
its solo solve only until the first restart — the final residuals still
satisfy the tolerance per RHS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.precision import DOUBLE, Precision
from repro.solvers.base import Operator, SolverResult, compute_residual
from repro.solvers.space import ArraySpace, BatchedArraySpace
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
        with the leading batch axis; gather distributed vectors first).
        Each carries its lane's extras: a per-lane array's entry, a
        dict's per lane, anything else as it is."""
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
                    extras={k: _lane(v, i) for k, v in self.extras.items()},
                )
            )
        return out


def _lane(value, i: int):
    """Lane ``i`` of an extras entry, as Python scalars."""
    if isinstance(value, dict):
        return {k: _lane(v, i) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()[i]
    return value


def one_lane(f: Operator | None) -> Operator | None:
    """``f`` as a batched loop applies it to a batch of one: on the single
    field, the batch axis given back to its result, so a single-RHS solve
    applies its operators, preconditioners included, as it always did.
    The fused steps ``f`` binds (``f.fused_steps``) go with it: they take
    the batch of one as it is."""
    if f is None:
        return None

    def lane(v):
        return f(v[0])[None]

    lane.fused_steps = getattr(f, "fused_steps", None)
    return lane


#: The keywords by which a batched loop takes an operator besides ``op``.
_OPERATORS = ("preconditioner", "inner_op")


def solve_lanes(solver, op: Operator, b, x0=None, *, lead: bool, **kwargs):
    """``solver`` — a loop of this module — on ``b``: as it is when it
    carries the batch axis (``lead``), else as the batch of one, ``op``
    and the operators among ``kwargs`` applied to the single field
    (:func:`one_lane`) and lane 0 returned as a :class:`SolverResult`.
    ``kwargs["space"]`` is a batched space either way."""
    if lead:
        return solver(op, b, x0=x0, **kwargs)
    for name in _OPERATORS:
        if name in kwargs:
            kwargs[name] = one_lane(kwargs[name])
    x0 = None if x0 is None else np.asarray(x0)[None]
    return solver(one_lane(op), np.asarray(b)[None], x0=x0, **kwargs).split()[0]


def batch_of_one(solver, op: Operator, b, x0=None, space=None, **kwargs) -> SolverResult:
    """The single-RHS solve of ``b``: ``solver`` on ``b[None]`` in the
    batched form of ``space`` (an :class:`ArraySpace` by default), lane 0's
    result (:func:`solve_lanes`)."""
    space = (space or ArraySpace()).batched()
    return solve_lanes(solver, op, b, x0, lead=False, space=space, **kwargs)


def _safe(z: np.ndarray) -> np.ndarray:
    """Replace zeros by ones so masked divisions never warn."""
    return np.where(z == 0, np.ones_like(z), z)


def _source_scale(b_norm2: np.ndarray) -> np.ndarray:
    """The divisor of the relative residuals, ``|b|^2``: 1 for a zero
    source (its residuals are 0) and NaN for one whose norm is not finite
    (it has none), so the quotients never warn."""
    return np.where(np.isfinite(b_norm2), _safe(b_norm2), np.nan)


def _lanewise(f, lanes: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """``f`` of each lane ``lanes`` selects on that lane's Python scalars,
    0 on the others: complex128 ``(B,)``.

    The single-RHS recurrence's coefficients are CPython arithmetic on
    Python scalars; NumPy's vectorized complex division multiplies by a
    reciprocal and would differ in the last bit.
    """
    values = [
        f(*scalars) if live else 0.0
        for live, *scalars in zip(lanes.tolist(), *(c.tolist() for c in columns))
    ]
    return np.array(values, dtype=np.complex128)


def _stop(active: np.ndarray, value: np.ndarray, broke_down: np.ndarray,
          poisoned: np.ndarray) -> np.ndarray:
    """``active`` without the lanes whose reduction ``value`` came back 0
    — they broke down — or not a number — they are poisoned (the two
    masks are updated in place)."""
    finite = np.isfinite(value)
    stop = active & ~(finite & (value != 0.0))
    if stop.any():
        poisoned |= stop & ~finite
        broke_down |= stop & finite
        active = active & ~stop
    return active


def _start(op: Operator, b, x0, space):
    """The iterate and residual a loop starts from, and the operator
    applications that took."""
    if x0 is None:
        return space.zeros_like(b), space.copy(b), 0
    x = space.copy(x0)
    return x, compute_residual(op, x, b, space), 1


def _all_zero(space, b) -> BatchedSolverResult:
    """The solve of right-hand sides that are all zero: ``x = 0``."""
    nb = len(b)
    return BatchedSolverResult(
        space.zeros_like(b),
        converged=np.ones(nb, dtype=bool),
        iterations=np.zeros(nb, dtype=np.int64),
        residuals=np.zeros(nb),
    )


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
        return ``arrays`` cut to the rows ``keep`` keeps (``None`` stays
        ``None``)."""
        self._store(~keep, arrays)
        self.index = self.index[keep]
        return tuple(None if a is None else a[keep] for a in arrays)

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

    Every lane is :func:`repro.solvers.cg.cg` of its right-hand side, bit
    for bit: a converged or broken-down system (``p . A p <= 0``,
    ``extras["breakdown"]`` True) gets ``alpha = beta = 0`` for the rest
    of its iteration and then leaves the batch (:class:`_LiveLanes`), its
    solution and residual norm kept, while the rest keep iterating.  So
    does a lane whose ``p . A p`` or residual norm comes back NaN or
    infinite, within the iteration (``extras["breakdown"]`` says
    ``"non-finite"`` for it), and no batch-mate's bits move.
    """
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    if (b_norm2 == 0.0).all():
        return _all_zero(space, b)
    nb = len(b_norm2)
    safe_b = _source_scale(b_norm2)
    target = tol * tol * b_norm2

    x, r, matvecs = _start(op, b, x0, space)
    p = space.copy(r)
    r2 = space.norm2(r)
    history = [np.sqrt(r2 / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    poisoned = ~np.isfinite(r2)  # a non-finite reduction
    active = (r2 > target) & (b_norm2 != 0.0) & ~poisoned
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
        # Indefinite / broken-down systems drop out.
        poisoned |= active & ~np.isfinite(pap)
        broke_down |= active & (pap <= 0.0)
        active &= (pap > 0.0) & ~poisoned
        if not active.any():
            break
        alpha = np.where(active, r2 / _safe(pap), 0.0)
        x = space.axpy(alpha, p, x)
        r = space.axpy(-alpha, ap, r)
        r2_new = space.norm2(r)
        beta = np.where(active, r2_new / _safe(r2), 0.0)
        p = space.xpay(r, beta, p)
        iterations += active
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
    converged = ((r2 <= tol * tol * b_norm2) | (b_norm2 == 0.0)) & ~poisoned
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

    The loop of :func:`repro.solvers.cg.pcg` (flexible Polak-Ribiere
    direction update, safe for the nonlinear Schwarz / multi-splitting
    preconditioners): each preconditioner application sees the live
    lanes at once and every reduction carries one scalar per lane.  A
    lane that converges, or breaks down (``p . A p <= 0`` or ``r . z <=
    0``: ``extras["breakdown"]`` True), is frozen with ``alpha = beta =
    0`` and then leaves the batch, as in :func:`batched_cg`; so does a
    lane whose ``p . A p``, ``r . z`` or residual norm comes back NaN or
    infinite (``"non-finite"``), and no batch-mate's bits move.
    """
    if preconditioner is None:
        return batched_cg(op, b, x0=x0, tol=tol, maxiter=maxiter, space=space)
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    if (b_norm2 == 0.0).all():
        return _all_zero(space, b)
    nb = len(b_norm2)
    safe_b = _source_scale(b_norm2)
    target = tol * tol * b_norm2

    x, r, matvecs = _start(op, b, x0, space)
    z = preconditioner(r)
    p = space.copy(z)
    rz = space.rdot(r, z)
    r2 = space.norm2(r)
    history = [np.sqrt(r2 / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    poisoned = ~np.isfinite(r2)  # a non-finite reduction
    active = (r2 > target) & (b_norm2 != 0.0) & ~poisoned
    broke_down = np.zeros(nb, dtype=bool)
    lanes = _LiveLanes(x, r2, iterations, broke_down, poisoned)

    it = 0
    while active.any() and it < maxiter:
        if not active.all():  # the lanes that are done leave the batch
            (x, r2, iterations, broke_down, poisoned,
             r, p, rz, target, active) = lanes.retire(
                active, x, r2, iterations, broke_down, poisoned,
                r, p, rz, target, active)
        ap = op(p)
        matvecs += 1
        pap = space.rdot(p, ap)
        # Indefinite systems / non-definite preconditioner applications
        # drop out.
        poisoned |= active & ~(np.isfinite(pap) & np.isfinite(rz))
        broke_down |= active & ((pap <= 0.0) | (rz <= 0.0))
        active &= (pap > 0.0) & (rz > 0.0) & ~poisoned
        if not active.any():
            break
        alpha = np.where(active, rz / _safe(pap), 0.0)
        x = space.axpy(alpha, p, x)
        r = space.axpy(-alpha, ap, r)
        r2 = space.norm2(r)
        iterations += active
        it += 1
        history.append(np.sqrt(lanes.residuals(r2) / safe_b))
        poisoned |= active & ~np.isfinite(r2)
        active &= (r2 > target) & ~poisoned
        if not active.any():
            break
        z = preconditioner(r)
        # Polak-Ribiere numerator via r_new - r_old = -alpha * ap.
        beta = np.where(
            active, -alpha * space.rdot(z, ap) / _safe(rz), 0.0
        )
        p = space.xpay(z, beta, p)
        rz = space.rdot(r, z)

    x, r2, iterations, broke_down, poisoned = lanes.finish(
        x, r2, iterations, broke_down, poisoned
    )
    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residuals = np.sqrt(space.norm2(true_r) / safe_b)
    converged = ((r2 <= tol * tol * b_norm2) | (b_norm2 == 0.0)) & ~poisoned
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        extras={"breakdown": _breakdown_reasons(broke_down, poisoned)},
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

    Every lane is :func:`repro.solvers.bicgstab.bicgstab` of its
    right-hand side, bit for bit (``beta``, ``alpha`` and ``omega`` are
    its Python arithmetic, lane by lane); a system that converges or
    breaks down (``rho``, the ``r_hat . v`` pivot, or ``omega``
    vanishing) is frozen by zeroing its coefficients for the rest of the
    iteration and then leaves the batch (:class:`_LiveLanes`), as does one
    whose ``A s`` vanishes (``s`` is then an exact update).  So does a
    lane whose ``rho``, pivot or residual norm comes back NaN or
    infinite, within the iteration (``extras["breakdown"]`` says
    ``"non-finite"`` for it): the checks ride the reductions already
    made, and no batch-mate's bits move.

    An iteration is the space's three BiCGstab steps
    (:class:`~repro.solvers.space.VectorSpace`): one compiled call each
    where ``op`` binds them, the space's calls otherwise — the same bits
    and the same ledger.  The closing step may make the next iteration's
    ``rho`` too; it is recorded where the loop uses it.
    """
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    if (b_norm2 == 0.0).all():
        return _all_zero(space, b)
    nb = len(b_norm2)
    safe_b = _source_scale(b_norm2)
    target = tol * tol * b_norm2

    x, r, matvecs = _start(op, b, x0, space)
    r_hat = space.copy(r)  # the fixed shadow residual
    rho = np.ones(nb, dtype=np.complex128)
    alpha = np.ones(nb, dtype=np.complex128)
    omega = np.ones(nb, dtype=np.complex128)
    v = space.zeros_like(b)
    p = space.zeros_like(b)
    r2 = space.norm2(r)
    history = [np.sqrt(r2 / safe_b)]
    iterations = np.zeros(nb, dtype=np.int64)
    # a lane whose r2 is not finite iterates until a reduction says so
    active = ~(np.isfinite(r2) & (r2 <= target)) & (b_norm2 != 0.0)
    broke_down = np.zeros(nb, dtype=bool)
    poisoned = np.zeros(nb, dtype=bool)  # a non-finite reduction
    lanes = _LiveLanes(x, r2, iterations, broke_down, poisoned)
    rho_next = None  # the last closing step's (r_hat, r), unrecorded

    it = 0
    while active.any() and it < maxiter:
        if not active.all():  # the lanes that are done leave the batch
            (x, r2, iterations, broke_down, poisoned, r, r_hat, v, p, rho,
             alpha, omega, target, rho_next, active) = lanes.retire(
                active, x, r2, iterations, broke_down, poisoned,
                r, r_hat, v, p, rho, alpha, omega, target, rho_next, active)
        if rho_next is None:
            rho_new = space.dot(r_hat, r)
        else:
            rho_new = space.dot(r_hat, r, value=rho_next)
        active = _stop(active, rho_new, broke_down, poisoned)
        if not active.any():
            break
        beta = _lanewise(
            lambda rn, rho, a, o: (rn / rho) * (a / o),
            active, rho_new, rho, alpha, omega,
        )
        rho = np.where(active, rho_new, rho)
        # p = r + beta*(p - omega*v), frozen lanes collapse to p = r; v = A p
        p, v, denom = space.bicgstab_direction_apply(
            op, p, r, v, beta, np.where(active, -omega, 0.0), r_hat
        )
        matvecs += 1
        active = _stop(active, denom, broke_down, poisoned)
        if not active.any():
            break
        alpha_new = _lanewise(lambda rho, d: rho / d, active, rho, denom)
        # s = r - alpha v in r's storage (r is not read again), t = A s
        s, t, t2, ts = space.bicgstab_update_apply(op, r, v, -alpha_new)
        matvecs += 1
        # t2 == 0: s is an exact solution update, and the lane stops on
        # r = s whether or not that converged.
        exact = active & (t2 == 0.0)
        closing = active & ~exact
        if closing.any():
            ts = space.dot(t, s) if ts is None else space.dot(t, s, value=ts)
            omega_new = _lanewise(lambda d, n: d / n, closing, ts, t2)
            x, r, r2, rho_next = space.bicgstab_closing_reduce(
                op, x, p, s, t, alpha_new, omega_new, r_hat
            )
        else:
            omega_new = np.zeros_like(omega)
            x = space.axpy(alpha_new, p, x, out=x)
            r = s
            r2 = space.norm2(r)
            rho_next = None
        iterations += active
        it += 1
        history.append(np.sqrt(lanes.residuals(r2) / safe_b))
        alpha = np.where(active, alpha_new, alpha)
        omega = np.where(active, omega_new, omega)
        poisoned |= closing & ~np.isfinite(r2)
        failed = closing & (np.abs(omega_new) == 0.0)
        broke_down |= failed
        active &= ~((r2 <= target) | exact | failed | poisoned)

    x, r2, iterations, broke_down, poisoned = lanes.finish(
        x, r2, iterations, broke_down, poisoned
    )
    true_r = compute_residual(op, x, b, space)
    matvecs += 1
    residuals = np.sqrt(space.norm2(true_r) / safe_b)
    converged = ((r2 <= tol * tol * b_norm2) | (b_norm2 == 0.0)) & ~poisoned
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
    stalled lane), complex128, in the scalar recurrence's own Python
    double arithmetic (:func:`_lanewise`)."""
    return _lanewise(lambda d, n: omega * d / n, ar2 > 0.0, dot, ar2)


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
    whose right-hand side, ``|A r|^2``, step length or residual norm
    comes back NaN or infinite, before the step is taken: ``converged``
    is False for it, ``extras["breakdown"]`` says ``"non-finite"``, and
    no batch-mate's bits move.
    """
    space = space or BatchedArraySpace()
    x, r, _ = _start(op, b, x0, space)
    b_norm2 = space.norm2(b)
    nb = len(b_norm2)
    safe_b = _source_scale(b_norm2)
    poisoned = ~np.isfinite(b_norm2)  # a non-finite reduction
    live = ~poisoned
    iterations = np.zeros(nb, dtype=np.int64)
    history = []
    matvecs = 0
    for _ in range(int(steps) if live.any() else 0):
        ar = op(r)
        matvecs += 1
        iterations[live] = matvecs
        ar2 = space.norm2(ar)
        live &= ar2 != 0.0
        if not live.any():
            break
        dot = space.dot(ar, r)
        coef = mr_coefficients(omega, dot, np.where(live, ar2, 0.0))
        poisoned |= live & ~(np.isfinite(ar2) & np.isfinite(coef))
        live &= ~poisoned
        if not live.any():
            break
        coef[~live] = 0.0
        x, r = space.update_pair(x, coef, r, r, -coef, ar)
        if (b_norm2 > 0.0).any():
            history.append(np.sqrt(space.norm2(r) / safe_b))
            poisoned |= live & ~np.isfinite(history[-1])
            live &= ~poisoned
            if not live.any():
                break
    if history:
        residuals = history[-1]
    else:
        residuals = np.where(b_norm2 == 0.0, 0.0, 1.0)
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

    The loop of :func:`repro.solvers.mixed.defect_correction`: every
    cycle runs ONE batched inner solve on all defects (converged lanes
    simply over-resolve a tiny correction), then recomputes the true
    residuals in high precision — per-lane convergence, shared cycle
    structure.  ``extras["iterations_by_precision"]`` splits each lane's
    iterations: the inner solves' in ``inner_precision``, one a cycle in
    double.
    """
    space = space or BatchedArraySpace()
    b_norm2 = space.norm2(b)
    if (b_norm2 == 0.0).all():
        return _all_zero(space, b)
    nb = len(b_norm2)
    safe_b = _source_scale(b_norm2)

    inner_tol = max(inner_tol, 10 * inner_precision.eps)
    x, r, matvecs = _start(op, b, x0, space)

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

    # The work-horse iterations run in the inner precision; each cycle
    # does one true-residual correction in double.
    iterations_by_precision = {inner_precision.name: iterations}
    if cycles:
        iterations_by_precision["double"] = (
            iterations_by_precision.get("double", 0) + cycles
        )
    return BatchedSolverResult(
        x,
        converged=done,
        iterations=iterations,
        residuals=history[-1],
        residual_history=history,
        matvecs=matvecs,
        restarts=cycles,
        extras={
            "cycles": cycles,
            "iterations_by_precision": iterations_by_precision,
        },
    )


def _back_substitution(alphas, betas, gammas, k: int, lane: int) -> np.ndarray:
    """One lane's ``chi`` of Luscher's implicit solution update, in the
    single-RHS recurrence's own arithmetic: ``alpha`` a Python complex,
    ``beta`` and ``chi`` NumPy complex128 scalars, ``gamma`` a Python
    float (a lane whose Krylov space ran out at a step takes 0 there)."""
    chi = np.zeros(k, dtype=np.complex128)
    for ell in range(k - 1, -1, -1):
        gamma = gammas[ell][lane].item()
        if gamma == 0.0:
            continue
        acc = alphas[ell][lane].item()
        for i in range(ell + 1, k):
            acc = acc - betas[ell, i, lane] * chi[i]
        chi[ell] = acc / gamma
    return chi


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
    (Algorithm 1, vectorized) — the loop of :func:`repro.solvers.gcr.gcr`.

    One Krylov basis per RHS is built simultaneously: the Gram-Schmidt
    coefficients, normalizations and projections are per-RHS ``(B,)``
    vectors, computed by single batched reductions, and each lane's
    back-substitution is the single-RHS one.  Restart points are shared
    across the batch — a cycle ends when the Krylov space hits ``kmax``
    or *every* RHS has met its early-restart/tolerance criterion — so
    restarts stay what they are on a real machine: global
    synchronization points.  A lane whose ``gamma_k``, ``alpha_k`` or
    residual norm comes back NaN or infinite is out within the iteration
    (``extras["breakdown"]`` says ``"non-finite"`` for it, ``converged``
    False): it counts as done for every restart decision, so the batch
    ends with its mates; when every lane is out the cycle ends before
    the step.  ``extras["iterations_by_precision"]`` splits each lane's
    iterations: the Krylov steps in the inner precision, one a restart
    in the outer.
    """
    space = space or BatchedArraySpace()
    inner_op = inner_op or op
    b_norm2 = space.norm2(b)
    if (b_norm2 == 0.0).all():
        return _all_zero(space, b)
    nb = len(b_norm2)
    safe_b = _source_scale(b_norm2)
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
    x, r0, matvecs = _start(op, b, x0, space)
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
                # A non-finite z_k poisons its lane at gamma2 below; the
                # infinite projections it makes first do so quietly.
                for i in range(k):
                    b_ik = space.dot(z_basis[i], z_k)
                    betas[i, k] = b_ik
                    with np.errstate(invalid="ignore"):
                        z_k = space.axpy(-b_ik, z_basis[i], z_k,
                                         out=z_k if i else None)
            gamma2 = space.norm2(z_k)
            poisoned |= ~np.isfinite(gamma2)
            if not ((gamma2 > 0.0) & ~poisoned).any():
                # Exact breakdown on every RHS: Krylov space exhausted.
                break
            gamma_k = np.sqrt(gamma2)
            # Exhausted lanes get z_k = 0: their alpha and chi vanish and
            # the lane coasts through the rest of the cycle unchanged.
            z_k = space.scale(np.where(gamma_k > 0.0, 1.0 / _safe(gamma_k), 0.0), z_k)
            alpha_k = space.dot(z_k, r_hat)
            poisoned |= ~np.isfinite(alpha_k)
            if poisoned.all():
                break
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
                chi = np.stack([
                    _back_substitution(alphas, betas, gammas, k, lane)
                    for lane in range(nb)
                ], axis=1)
                # chi is complex128, NumPy scalars in the single-RHS loop:
                # the space takes it as its single-RHS twin takes those
                # (the first term sets the sum's dtype)
                x_hat = space.scale(chi[0], p_basis[0], dtype=chi.dtype)
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
        history.append(np.sqrt(r0_norm2 / safe_b))
        restarts += 1
        poisoned |= ~np.isfinite(r0_norm2)
        done = (r0_norm2 <= tol_abs2) | (b_norm2 == 0.0) | poisoned
        if k == 0:
            break  # breakdown with no progress: bail out

    residuals = np.sqrt(r0_norm2 / safe_b)
    converged = ((r0_norm2 <= tol_abs2) | (b_norm2 == 0.0)) & ~poisoned
    iterations = np.full(nb, total_iters, dtype=np.int64)
    # The Krylov steps iterate in the inner precision; each restart does
    # one true-residual recomputation (and solution update) in the outer.
    iterations_by_precision = {
        (inner_precision or outer_precision).name: iterations
    }
    if restarts:
        iterations_by_precision[outer_precision.name] = (
            iterations_by_precision.get(outer_precision.name, 0) + restarts
        )
    return BatchedSolverResult(
        x,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        residual_history=history,
        matvecs=matvecs,
        restarts=restarts,
        extras={
            "iterations_by_precision": iterations_by_precision,
            "breakdown": _breakdown_reasons(np.zeros_like(poisoned), poisoned),
        },
    )
