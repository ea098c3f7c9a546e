"""The non-overlapping additive Schwarz preconditioner (Secs. 3.2, 8.1).

The global domain is partitioned into blocks matching the per-GPU
sub-domains; the system matrix is solved approximately *within* each block
under Dirichlet (zero) boundary conditions, so

* no communication is needed between blocks ("essentially, we just have to
  switch off the communications between GPUs"),
* every inner product is restricted to one block (tallied as
  ``local_reductions``),
* the block systems, being Dirichlet-cut, have vastly reduced condition
  numbers, so a handful of MR steps suffices.

With zero overlap this is exactly a block-Jacobi preconditioner.  It is
*not* a fixed linear operator (the MR solve depends weakly on its input
through rounding), which is why the outer solver must be flexible (GCR).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.dirac.base import LatticeOperator
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import space_for_nspin
from repro.util.counters import record_operator


class AdditiveSchwarzPreconditioner:
    """Apply ``K ~= M^{-1}`` block-wise with a fixed number of MR steps.

    Parameters
    ----------
    op:
        The *global* operator M (must support ``restrict_to_regions``).
    partition:
        Block decomposition; blocks coincide with the virtual-GPU
        sub-domains, "match[ing] the sub-domain assigned to each processor".
    mr_steps:
        Minimum-residual steps per block per application (paper: 10).
    omega:
        MR relaxation parameter.
    precision:
        Storage precision of the block solve; the paper runs it
        "exclusively ... in half precision".  None = working precision.
    """

    def __init__(
        self,
        op: LatticeOperator,
        partition: BlockPartition,
        mr_steps: int = 10,
        omega: float = 1.0,
        precision: Precision | None = HALF,
    ):
        if partition.geometry != op.geometry:
            raise ValueError("partition geometry does not match operator")
        self.op = op
        self.partition = partition
        self.mr_steps = int(mr_steps)
        self.omega = float(omega)
        self.precision = precision
        #: All the Dirichlet-cut block operators as one lane stack: the
        #: blocks of a partition share a shape, so they are solved side
        #: by side as the lanes of ONE block solve per application, in the
        #: block precision the stack is stored in.
        self.blocks = op.restrict_to_blocks(partition, precision=precision)
        self._space = space_for_nspin(op.nspin)

    @cached_property
    def block_ops(self) -> list[LatticeOperator]:
        """The blocks as standalone per-rank operators, built on first
        use (applying the preconditioner only ever runs :attr:`blocks`)."""
        return [
            self.op.restrict_to_block(self.partition, rank)
            for rank in range(self.partition.n_ranks)
        ]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Approximately solve ``M z = r`` on every block at once; returns z.

        Accepts both a single residual and a batched one with a leading
        RHS axis: gather the blocks into lanes, one lane-stacked MR solve
        (which relaxes all N right-hand sides of all blocks in the same
        sweep), scatter the corrections back.
        """
        record_operator("schwarz_precond")
        lead = self.op.field_lead(r)
        z = schwarz_block_solve(
            self.blocks,
            self.partition.stack(r, lead),
            steps=self.mr_steps,
            omega=self.omega,
            precision=self.precision,
            space=self._space,
        )
        return self.partition.unstack(z, lead, dtype=r.dtype)

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks
