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
from repro.solvers.space import ArraySpace
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
        self._space = ArraySpace(site_axes=2 if op.nspin == 4 else 1)

        # Outer level: Dirichlet-cut per-rank operators.
        self.block_ops = [
            op.restrict_to_block(partition, rank)
            for rank in range(partition.n_ranks)
        ]
        # Inner level: each outer block gets its own sub-partition and
        # sub-block (doubly Dirichlet-cut) operators.
        self.inner_partitions = []
        self.inner_block_ops = []
        for block_op in self.block_ops:
            sub_part = BlockPartition(block_op.geometry, inner_grid)
            self.inner_partitions.append(sub_part)
            self.inner_block_ops.append(
                [
                    block_op.restrict_to_block(sub_part, r)
                    for r in range(sub_part.n_ranks)
                ]
            )

    # ------------------------------------------------------------------
    def _inner_precondition(self, rank: int, r: np.ndarray) -> np.ndarray:
        """Block Jacobi over the sub-blocks of outer block ``rank``."""
        sub_part = self.inner_partitions[rank]
        z = np.zeros_like(r)
        for sub_rank, sub_op in enumerate(self.inner_block_ops[rank]):
            sl = sub_part.slices(sub_rank)
            # The inner MR sweeps keep the default relaxation; ``omega``
            # is the Richardson damping of the outer sweeps.
            z[sl] = schwarz_block_solve(
                sub_op, np.ascontiguousarray(r[sl]),
                steps=self.inner_mr_steps, omega=1.0,
                precision=self.precision, space=self._space, rank=rank,
            )
        return z

    def _solve_outer_block(
        self, rank: int, block_op: LatticeOperator, b: np.ndarray
    ) -> np.ndarray:
        """Preconditioned Richardson: z += omega * K_inner(b - A z)."""
        z = np.zeros_like(b)
        r = b
        for _ in range(self.outer_sweeps):
            z = z + self.omega * self._inner_precondition(rank, r)
            r = b - block_op.apply(z)
        return z

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the two-level correction.

        Accepts a single residual or a batched one with a leading RHS
        axis; the batched path runs the scalar machinery lane by lane
        (bitwise identical to per-lane scalar applications — the
        Richardson recurrence offers no cross-lane vectorization win at
        the fixed sweep counts used here).
        """
        record_operator("schwarz_precond_two_level")
        lead = r.ndim - (4 + (2 if self.op.nspin == 4 else 1))
        if lead not in (0, 1):
            raise ValueError(f"unexpected residual rank {r.ndim}")
        if lead:
            return np.stack([self._apply_single(lane) for lane in r])
        return self._apply_single(r)

    def _apply_single(self, r: np.ndarray) -> np.ndarray:
        z = np.zeros_like(r)
        for rank, block_op in enumerate(self.block_ops):
            sl = self.partition.slices(rank)
            with domain_local():
                z[sl] = self._solve_outer_block(
                    rank, block_op, np.ascontiguousarray(r[sl])
                )
        return z

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks

    @property
    def n_sub_blocks(self) -> int:
        return self.partition.n_ranks * self.inner_grid.size
