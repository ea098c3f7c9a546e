"""The rank-local Schwarz block solve shared by every GCR-DD driver.

Both GCR-DD drivers — the global-array
:class:`~repro.core.gcrdd.GCRDDSolver` (through
:class:`~repro.dd.schwarz.AdditiveSchwarzPreconditioner`, one call per
block) and the per-rank SPMD programs of :mod:`repro.core.spmd` —
precondition by solving each rank's own Dirichlet-cut block with a fixed
number of MR steps in the policy's preconditioner precision (Sec. 8.1:
the work the paper keeps entirely on one GPU, zero comm spans inside).
This module is the single implementation both call.

Bit-parity contract: the backend-parity tests and the benchmark's exact
counts pin the operation order here — precision conversion of the
residual first, then the wrapped block operator converting around every
application, the MR recurrence under ``domain_local()`` — so it must not
change.
"""

from __future__ import annotations

from repro.precision import Precision
from repro.solvers.mr import mr
from repro.solvers.multirhs import batched_mr
from repro.trace import span
from repro.util.counters import domain_local


def schwarz_block_solve(
    block_op,
    r_loc,
    *,
    steps: int,
    omega: float,
    precision: Precision | None,
    space,
    batched: bool = False,
    rank: int = 0,
):
    """Approximately solve one rank's block system ``A_rank z = r_loc``.

    Args:
        block_op: The rank's Dirichlet-cut operator (from
            ``restrict_to_block``).
        r_loc: The rank-local residual (leading batch axis iff
            ``batched``).
        steps, omega: MR step count and relaxation.
        precision: Block-solve storage precision (``None`` = working).
        space: The rank-local :class:`~repro.solvers.space.ArraySpace`
            (batched variant iff ``batched``).
        batched: Whether ``r_loc`` carries a leading multi-RHS axis (one
            vectorized MR sweep then relaxes every RHS at once).
        rank: The rank id, recorded on the trace span.

    Returns:
        The block correction ``z`` (same shape as ``r_loc``).
    """
    block_solver = batched_mr if batched else mr
    if precision is not None:
        r_loc = space.convert(r_loc, precision)

    def apply(v):
        if precision is None:
            return block_op.apply(v)
        return space.convert(
            block_op.apply(space.convert(v, precision)), precision
        )

    # The block solve's spans sit on the rank's compute stream with zero
    # comm spans inside; every inner product is domain-restricted
    # (tallied as local_reductions).
    with span("schwarz_block_solve", kind="precond", rank=rank,
              stream="compute", mr_steps=steps,
              batch=(r_loc.shape[0] if batched else 1)):
        with domain_local():
            result = block_solver(
                apply, r_loc, steps=steps, omega=omega, space=space,
            )
    return result.x


__all__ = ["schwarz_block_solve"]
