"""Mixed-precision solver wrappers (defect correction / reliable updates).

QUDA's mixed-precision strategy (ref. [3] of the paper): run the work-horse
iteration in a cheap low precision, and periodically recompute the *true*
residual in high precision, restarting the low-precision solver on the
defect.  Because the low-precision iterated residual drifts away from the
true residual, each inner cycle is only trusted down to a relative drop of
``inner_tol`` before a high-precision correction.

This wrapper turns any of the basic solvers (CG, BiCGstab) into its
mixed-precision production variant; it is also the refinement engine used
after the single-precision multi-shift solve (Sec. 8.2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.precision import Precision
from repro.solvers.base import Operator, SolverResult
from repro.solvers.multirhs import (
    BatchedSolverResult,
    batch_of_one,
    batched_defect_correction,
)
from repro.solvers.space import ArraySpace

#: An inner solver: (op, b, tol, maxiter, space) -> SolverResult.
InnerSolver = Callable

#: The drop each low-precision inner solve is trusted for, per work-horse.
BICGSTAB_INNER_TOL = 1e-3
CG_INNER_TOL = 1e-4


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
    """Iterative refinement: solve ``A e = r`` in low precision, update x —
    the batch of one of
    :func:`~repro.solvers.multirhs.batched_defect_correction`, ``op`` and
    the inner solves on the single field.

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

    def lane_solver(inner_op, rhs, tol, maxiter, **batched_space):
        """The caller's single-RHS ``inner_solver`` as the batched loop
        calls it: on the single field, in the caller's space."""
        res = inner_solver(
            lambda v: inner_op(v[None])[0], rhs[0], tol=tol, maxiter=maxiter,
            space=space,
        )
        return BatchedSolverResult(
            res.x[None], np.array([res.converged]), np.array([res.iterations]),
            np.array([res.residual]), matvecs=res.matvecs,
        )

    return batch_of_one(
        batched_defect_correction, op, b, x0, space,
        inner_solver=lane_solver, inner_precision=inner_precision, tol=tol,
        inner_tol=inner_tol, max_cycles=max_cycles,
        inner_maxiter=inner_maxiter,
    )


def mixed_precision_bicgstab(
    op: Operator,
    b,
    inner_precision: Precision,
    tol: float = 1e-10,
    inner_tol: float = BICGSTAB_INNER_TOL,
    max_cycles: int = 50,
    inner_maxiter: int = 2000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """The paper's baseline: BiCGstab iterating in low precision with
    high-precision reliable updates."""
    from repro.solvers.bicgstab import bicgstab

    return defect_correction(
        op,
        b,
        inner_solver=bicgstab,
        inner_precision=inner_precision,
        tol=tol,
        inner_tol=inner_tol,
        max_cycles=max_cycles,
        inner_maxiter=inner_maxiter,
        space=space,
    )


def mixed_precision_cg(
    op: Operator,
    b,
    inner_precision: Precision,
    x0=None,
    tol: float = 1e-10,
    inner_tol: float = CG_INNER_TOL,
    max_cycles: int = 50,
    inner_maxiter: int = 2000,
    space: ArraySpace | None = None,
) -> SolverResult:
    """Mixed-precision CG (sequential-refinement building block, Sec. 8.2)."""
    from repro.solvers.cg import cg

    return defect_correction(
        op,
        b,
        inner_solver=cg,
        inner_precision=inner_precision,
        x0=x0,
        tol=tol,
        inner_tol=inner_tol,
        max_cycles=max_cycles,
        inner_maxiter=inner_maxiter,
        space=space,
    )
