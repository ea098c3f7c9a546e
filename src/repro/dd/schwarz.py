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

import numpy as np

from repro.dirac.base import LatticeOperator
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import ArraySpace, BatchedArraySpace
from repro.util.counters import record_operator


class AdditiveSchwarzPreconditioner:
    """Apply ``K ~= M^{-1}`` block-wise with a fixed number of MR steps.

    Parameters
    ----------
    op:
        The *global* operator M (must support ``restrict_to_block``).
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
        self.block_ops = [
            op.restrict_to_block(partition, rank)
            for rank in range(partition.n_ranks)
        ]
        self._space = ArraySpace(site_axes=2 if op.nspin == 4 else 1)
        self._bspace = BatchedArraySpace(site_axes=2 if op.nspin == 4 else 1)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Approximately solve ``M z = r`` block-by-block; returns z.

        Accepts both a single residual and a batched one with a leading
        RHS axis; the batched path runs one vectorized MR sweep per block
        that relaxes all N right-hand sides at once.
        """
        record_operator("schwarz_precond")
        lead = r.ndim - (6 if self.op.nspin == 4 else 5)
        if lead not in (0, 1):
            raise ValueError(f"unexpected residual rank {r.ndim}")
        z = np.zeros_like(r)
        for rank, block_op in enumerate(self.block_ops):
            sl = (slice(None),) * lead + self.partition.slices(rank)
            z[sl] = schwarz_block_solve(
                block_op,
                np.ascontiguousarray(r[sl]),
                steps=self.mr_steps,
                omega=self.omega,
                precision=self.precision,
                space=self._bspace if lead else self._space,
                batched=bool(lead),
                rank=rank,
            )
        return z

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks
