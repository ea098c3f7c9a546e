"""Minimum residual (MR) — the Schwarz block solver.

"Only a small number of steps of minimum residual (MR) are required to
achieve satisfactory accuracy" for the Dirichlet-cut block systems
(Sec. 8.1); the paper's production runs use 10 steps.  MR is run for a
*fixed* step count with no convergence test, exactly as a preconditioner
application should be (so the preconditioner is a fixed linear operator
per outer iteration, up to its own rounding).

Each step: ``x += omega * <Ar, r>/<Ar, Ar> * r`` with ``r`` the running
residual; ``omega`` is an over/under-relaxation knob (QUDA defaults to a
slight under-relaxation for half precision).  The loop is
:func:`~repro.solvers.multirhs.batched_mr`'s.
"""

from __future__ import annotations

from repro.solvers.base import Operator, SolverResult
from repro.solvers.multirhs import batch_of_one, batched_mr
from repro.solvers.space import ArraySpace


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
    "non-finite"``.  The batch of one of
    :func:`~repro.solvers.multirhs.batched_mr`."""
    return batch_of_one(batched_mr, op, b, x0, space, steps=steps, omega=omega)
