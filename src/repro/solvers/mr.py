"""Minimum residual (MR) — the Schwarz block solver.

"Only a small number of steps of minimum residual (MR) are required to
achieve satisfactory accuracy" for the Dirichlet-cut block systems
(Sec. 8.1); the paper's production runs use 10 steps.  MR is run for a
*fixed* step count with no convergence test, exactly as a preconditioner
application should be (so the preconditioner is a fixed linear operator
per outer iteration, up to its own rounding).

Each step: ``x += omega * <Ar, r>/<Ar, Ar> * r`` with ``r`` the running
residual; ``omega`` is an over/under-relaxation knob (QUDA defaults to a
slight under-relaxation for half precision).
"""

from __future__ import annotations

import math

from repro.solvers.base import Operator, SolverResult, finite
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
