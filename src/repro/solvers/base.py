"""Common solver infrastructure: results, stopping criteria, precision
wrapping of operators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.precision import Precision
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


class PrecisionWrappedOperator:
    """Apply an operator in a reduced storage precision.

    Emulates running the matvec kernel in low precision: the input vector is
    rounded to the target format, the operator applied, and the output
    rounded again.  With ``precision=None`` this is a transparent wrapper.
    """

    def __init__(
        self,
        op: Operator,
        precision: Precision | None = None,
        space: ArraySpace | None = None,
    ):
        self.op = op
        self.precision = precision
        self.space = space or ArraySpace()

    def __call__(self, x):
        if self.precision is None:
            return self.op(x)
        xq = self.space.convert(x, self.precision)
        return self.space.convert(self.op(xq), self.precision)


def finite(value) -> bool:
    """Whether a reduction came back a number: the scalar check by which
    every Krylov loop ends — ``converged=False``, ``extras["breakdown"]
    == "non-finite"`` — within the iteration that met a NaN or an
    infinity (an operator or a right-hand side gone bad: nothing further
    can converge), on the reductions it makes anyway."""
    return math.isfinite(abs(value))


def compute_residual(op: Operator, x, b, space: ArraySpace):
    """Return r = b - A x using space arithmetic."""
    ax = op(x)
    return space.xpay(b, -1.0, ax)
