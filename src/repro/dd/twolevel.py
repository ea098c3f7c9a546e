"""Two-level Schwarz blocking.

The paper's conclusions anticipate "multiple levels of Schwarz-type
blocking to take advantage of the multiple levels of memory locality that
a GPU cluster offers": per-GPU blocks (inter-node level) subdivided into
cache-/SM-sized sub-blocks (intra-GPU level).

Here the outer level is the usual per-rank Dirichlet decomposition, and
each outer block is solved by a few sweeps of *preconditioned* Richardson
iteration whose inner preconditioner is itself an additive Schwarz (block
Jacobi) over the sub-blocks.  Everything below the outer level is
communication-free; the sub-block structure additionally keeps each inner
solve's working set small — the memory-locality argument.
"""

from __future__ import annotations

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.dirac.base import LatticeOperator
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import space_for_nspin
from repro.util.counters import domain_local, record_operator


class TwoLevelSchwarzPreconditioner:
    """Additive Schwarz whose block solver is itself Schwarz-preconditioned.

    Parameters
    ----------
    op, partition:
        As for the single-level preconditioner (outer = per-GPU blocks).
    inner_grid:
        Sub-division of each outer block (e.g. ``ProcessGrid((1,1,2,2))``
        splits every GPU block into 4 sub-blocks).
    inner_mr_steps:
        MR steps per sub-block per inner application.
    outer_sweeps:
        Preconditioned-Richardson sweeps per outer block solve.
    """

    def __init__(
        self,
        op: LatticeOperator,
        partition: BlockPartition,
        inner_grid: ProcessGrid,
        inner_mr_steps: int = 4,
        outer_sweeps: int = 2,
        omega: float = 0.9,
        precision: Precision | None = HALF,
    ):
        if partition.geometry != op.geometry:
            raise ValueError("partition geometry does not match operator")
        self.op = op
        self.partition = partition
        self.inner_grid = inner_grid
        self.inner_mr_steps = int(inner_mr_steps)
        self.outer_sweeps = int(outer_sweeps)
        self.omega = float(omega)
        self.precision = precision
        self._space = space_for_nspin(op.nspin)

        # Outer level: the Dirichlet-cut per-rank operators, one lane
        # stack in working precision (the Richardson residual is not
        # rounded).  Inner level: every outer block gets the same
        # sub-partition, so all the (doubly Dirichlet-cut) sub-blocks of
        # all outer blocks are one lane stack too, outer-block-major,
        # stored in the block precision their MR sweeps run in.
        self.blocks = op.restrict_to_blocks(partition)
        self.inner_partition = BlockPartition(
            partition.local_geometry, inner_grid
        )
        self.inner_blocks = self.blocks.restrict_to_blocks(
            self.inner_partition, precision=precision
        )

    # ------------------------------------------------------------------
    def _inner_precondition(self, r: np.ndarray) -> np.ndarray:
        """Block Jacobi over the sub-blocks of every outer block (``r``
        is the outer lane stack)."""
        sub = self.inner_partition.stack(r, lead=1)
        # The inner MR sweeps keep the default relaxation; ``omega``
        # is the Richardson damping of the outer sweeps.
        z = schwarz_block_solve(
            self.inner_blocks, sub.reshape((-1,) + sub.shape[2:]),
            steps=self.inner_mr_steps, omega=1.0,
            precision=self.precision, space=self._space,
        )
        return self.inner_partition.unstack(
            z.reshape(sub.shape), lead=1, dtype=r.dtype
        )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the two-level correction.

        Accepts a single residual or a batched one with a leading RHS
        axis; the batched path runs the scalar machinery lane by lane
        (bitwise identical to per-lane scalar applications — the
        Richardson recurrence offers no cross-lane vectorization win at
        the fixed sweep counts used here).
        """
        record_operator("schwarz_precond_two_level")
        if self.op.field_lead(r):
            return np.stack([self._apply_single(lane) for lane in r])
        return self._apply_single(r)

    def _apply_single(self, r: np.ndarray) -> np.ndarray:
        """Preconditioned Richardson on every outer block at once:
        ``z += omega * K_inner(b - A z)``."""
        b = self.partition.stack(r)
        with domain_local():
            z = np.zeros_like(b)
            res = b
            for _ in range(self.outer_sweeps):
                z = z + self.omega * self._inner_precondition(res)
                res = b - self.blocks.apply(z)
        return self.partition.unstack(z, dtype=r.dtype)

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks

    @property
    def n_sub_blocks(self) -> int:
        return self.partition.n_ranks * self.inner_grid.size
