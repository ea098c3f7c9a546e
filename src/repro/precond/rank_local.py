"""The Schwarz block solve shared by every GCR-DD driver and every member
of the :mod:`repro.dd` family.

All of them precondition by solving Dirichlet-cut block systems with a
fixed number of MR steps in the policy's preconditioner precision (Sec.
8.1: the work the paper keeps entirely on one GPU, zero comm spans
inside).  This module is the single implementation they call, and it
solves all the same-shape blocks it is handed *at once*: the blocks are
the lanes of one lane-stacked operator (``LatticeOperator.lanes``) and of
one stacked residual ``([B,] L, t, z, y, x, ...)``, so an MR step is one
stencil application and one set of BLAS passes over every block — the
NumPy form of recasting the block preconditioner as one batched kernel
(Tu et al., arXiv:2104.05615).  The SPMD rank program, which owns a
single block, is the one-lane case.

The block operator *lives in the block precision*
(``LatticeOperator.storage``): it rounds its argument and its result to
the format itself, so nothing here converts around an application — the
Wilson-clover stack of the NumPy tier does it inside one lattice-last
body on storage-dtype links and chiral clover blocks, every other family
and tier around its working-precision ``_apply`` (Clark et al.'s inner
solver that never leaves its storage precision, arXiv:0911.3191).

Bit-parity contract: the backend-parity tests and the benchmark's exact
counts pin both the numbers and the ledger, lane by lane, to a per-block
loop of scalar :func:`~repro.solvers.mr.mr` solves (batched:
:func:`~repro.solvers.multirhs.batched_mr`) on each block's own *stored*
operator, ``restrict_to_block(...).stored(precision)`` (the loop itself
is kept as ``tests/dd/_block_loop_oracle.py``):

* the operation order is that loop's — precision conversion of the
  residual first, then the stored block operator rounding around every
  application, the MR recurrence under ``domain_local()``;
* a stack built stored, a working-precision stack stored afterwards and
  a single block stored on its own are the same arithmetic: the storage
  cast is elementwise and the half format keeps one scale per site;
* every pass is elementwise over lanes, every reduction runs over one
  lane's own contiguous row, and the step lengths are computed lane by
  lane in the scalar solver's arithmetic, so a lane's bits depend on
  nothing but that lane;
* a stacked call records what the loop's calls sum to: L operator
  applications per apply, one local reduction per block per reduction;
* a block whose ``A r`` vanishes (an all-zero residual block under a point
  source) has reached the scalar solver's early exit: it *leaves the
  stack*, so neither the arithmetic nor the ledger sees it again.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import blas
from repro.precision import Precision
from repro.solvers.multirhs import mr_coefficients
from repro.solvers.space import BatchedArraySpace
from repro.trace import span
from repro.util.counters import domain_local

#: The iterates' rows take the MR step as the batched family's updates.
_ROWS = BatchedArraySpace()


def schwarz_block_solve(
    block_op,
    r_loc,
    *,
    steps: int,
    omega: float,
    precision: Precision | None,
    space,
    rank: int | None = None,
):
    """Approximately solve the block systems ``A_l z_l = r_l``.

    Args:
        block_op: The Dirichlet-cut block operators: a lane stack (from
            ``restrict_to_blocks``/``restrict_to_regions``), or one
            rank's own block (from ``restrict_to_block``); solved in its
            ``stored(precision)`` form, which a stack built with that
            ``precision`` already is.
        r_loc: The block residuals, ``([B,] L) + block shape`` for a lane
            stack, ``([B,]) + block shape`` for a single block; a leading
            multi-RHS axis is relaxed in the same sweep.
        steps, omega: MR step count and relaxation.
        precision: Block-solve storage precision (``None`` = working).
        space: The rank-local space supplying the precision conversion
            (``convert``) of the block residual.
        rank: The owning rank, recorded on the trace span (an SPMD rank
            program's single block); a stack of every rank's block
            belongs to no one rank and stays on the caller's lane.

    Returns:
        The block corrections ``z`` (same shape as ``r_loc``).
    """
    # The operator itself lives in the block precision and rounds around
    # its own application (a lookup: the dd/ members build it stored, an
    # SPMD rank's working-precision block keeps its stored form).
    block_op = block_op.stored(precision)
    batch = r_loc.shape[: block_op.field_lead(r_loc)]
    nb = batch[0] if batch else 1
    one_block = block_op.lanes is None
    n_lanes = 1 if one_block else block_op.lanes
    block_shape = r_loc.shape[len(batch) + (not one_block):]
    if precision is not None:
        r_loc = space.convert(r_loc, precision)

    # The iterates are kept as (RHS x lane) rows of one block each — what
    # the batched BLAS family reduces over and scales row by row.
    def rows(v):
        return v.reshape((-1,) + block_shape)

    def lanes_of(v):
        """Rows (or per-row scalars) as ``(RHS, lane, ...)``."""
        return v.reshape((nb, -1) + v.shape[1:])

    def apply(op, v):
        v = v.reshape(batch + (() if one_block else (-1,)) + block_shape)
        return rows(op.apply(v))

    # The block solve's spans sit on the rank's compute stream with zero
    # comm spans inside; every inner product is domain-restricted
    # (tallied as local_reductions).
    with span("schwarz_block_solve", kind="precond", rank=rank,
              stream="compute", mr_steps=steps, batch=nb, lanes=n_lanes):
        with domain_local():
            b = rows(r_loc)
            x = blas.zero_like(b)
            r = blas.copy(b)
            # The norms of b and of the running residual are MR's
            # convergence record; a fixed-step preconditioner never tests
            # them, but they are work the recurrence does (and counts).
            blas.bnorm2(b, reductions=n_lanes)
            op, live, z = block_op, np.arange(n_lanes), None
            for _ in range(int(steps)):
                ar = apply(op, r)
                ar2 = blas.bnorm2(ar, reductions=live.size)
                moving = (lanes_of(ar2) > 0.0).any(axis=0)
                if not moving.all():
                    # The scalar early exit, block by block: a stalled
                    # block keeps the iterate it has and leaves the stack.
                    if z is None:
                        z = np.empty((nb, n_lanes) + block_shape, x.dtype)
                    z[:, live[~moving]] = lanes_of(x)[:, ~moving]
                    live = live[moving]
                    if not live.size:
                        break
                    x, r, ar, ar2 = (
                        lanes_of(v)[:, moving].reshape((-1,) + v.shape[1:])
                        for v in (x, r, ar, ar2)
                    )
                    op = block_op.take_lanes(live)
                coef = mr_coefficients(
                    omega, blas.bcdot(ar, r, reductions=live.size), ar2
                )
                x, r = _ROWS.update_pair(x, coef, r, r, -coef, ar)
                blas.bnorm2(r, reductions=live.size)
            if z is None:
                z = x
            elif live.size:
                z[:, live] = lanes_of(x)
    return z.reshape(r_loc.shape)


__all__ = ["schwarz_block_solve"]
