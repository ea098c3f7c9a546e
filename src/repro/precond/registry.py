"""Preconditioner registry: one :class:`~repro.util.registry.Registry`.

The solvers and request validators resolve ``precond=`` values through
:func:`resolve_precond`.  Additive Schwarz registers at the top
priority, so ``"auto"`` reproduces the paper's GCR-DD preconditioner bit
for bit.  ``spmd=True`` demands rank-local application: the SPMD rank
programs precondition each rank's own block with zero inter-rank data
movement, which overlapping entries cannot do.  :func:`capability_matrix`
is the data behind ``python -m repro precond``.
"""

from __future__ import annotations

from repro.precond.base import PrecondUnavailableError
from repro.util.registry import AUTO, Registry

PRECONDS = Registry(
    noun="preconditioner", title="preconditioner", item="precond entry",
    error=PrecondUnavailableError,
    requirements={
        "spmd": (
            " rank-locally (SPMD)",
            "cannot be applied rank-locally: its domains need neighbor "
            "data the SPMD blocks do not hold",
        ),
    },
)

register_precond = PRECONDS.register
get_precond = PRECONDS.get
precond_names = PRECONDS.names
available_preconds = PRECONDS.available
precond_choices = PRECONDS.choices
resolve_precond = PRECONDS.resolve
capability_matrix = PRECONDS.capability_matrix
availability_note = PRECONDS.availability_note
