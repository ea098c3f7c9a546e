"""Common solver infrastructure: results and residuals."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.solvers.space import ArraySpace

#: An operator is any callable mapping a vector to a vector.
Operator = Callable


@dataclass
class SolverResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x:
        The solution vector (same container type as the right-hand side).
    converged:
        Whether the requested tolerance was reached within ``maxiter``.
    iterations:
        Outer iterations performed (for GCR-DD: Krylov steps across all
        restart cycles; restarts are counted separately).
    residual:
        Final *true* relative residual ``||b - A x|| / ||b||`` where the
        solver computes it, else the iterated estimate.
    residual_history:
        Relative residual after each iteration (iterated estimate).
    matvecs:
        Number of operator applications by the outer solver.
    restarts:
        Restart cycles used (GCR / reliable-update solvers).
    extras:
        Solver-specific diagnostics (e.g. per-shift residuals).
    report:
        The :class:`~repro.metrics.SolveReport` flight-recorder artifact,
        attached by :func:`repro.core.api.solve` (``None`` when the solver
        was invoked directly).
    """

    x: object
    converged: bool
    iterations: int
    residual: float
    residual_history: list[float] = field(default_factory=list)
    matvecs: int = 0
    restarts: int = 0
    extras: dict = field(default_factory=dict)
    report: object = None


def compute_residual(op: Operator, x, b, space: ArraySpace):
    """Return r = b - A x using space arithmetic."""
    ax = op(x)
    return space.xpay(b, -1.0, ax)
