"""Overlapping additive Schwarz — the paper's first "future work" item.

"A tunable parameter in these solvers is the degree of overlap of the
blocks ... A larger overlap will typically lead to requiring fewer
iterations to reach convergence, since, heuristically, the larger sub
blocks will approximate better the original matrix" (Sec. 3.2); and the
conclusions anticipate "more sophisticated methods with overlapping
domains".

This is the *restricted* additive Schwarz (RAS) variant: each block is
extended by ``overlap`` sites into its neighbors along every partitioned
direction, the Dirichlet problem is solved on the extended region, and the
correction is restricted back to the original (non-overlapping) block —
avoiding the double counting plain overlapping-AS suffers.  ``overlap=0``
reduces exactly to the paper's block-Jacobi preconditioner.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.base import LatticeOperator
from repro.lattice.geometry import axis_of_mu, stack_regions
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import space_for_nspin
from repro.util.counters import record_operator


def extended_blocks(
    op: LatticeOperator, partition: BlockPartition, overlap: int,
    precision: Precision | None = None,
):
    """The extended regions shared by the RAS and multi-splitting
    preconditioners: every block of ``partition`` grown by ``overlap``
    sites into its neighbors along each *partitioned* direction.

    Returns ``(ext_dims, origins, blocks)``: the regions' common extents,
    each rank's (possibly negative, periodically wrapped) region origin,
    and the Dirichlet-cut operators on all regions as one lane stack
    (``op.restrict_to_regions``: links and the clover field are
    region-extracted, the partitioned directions get zero boundaries, the
    kernel tier is the global operator's, the storage is the block
    ``precision``).
    """
    if partition.geometry != op.geometry:
        raise ValueError("partition geometry does not match operator")
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    partitioned = partition.grid.partitioned_dims
    ext_dims = list(partition.local_dims)
    for mu in partitioned:
        ext_dims[mu] += 2 * overlap
        if ext_dims[mu] > partition.geometry.dims[mu]:
            raise ValueError(
                f"overlap {overlap} wraps the lattice in direction {mu}"
            )
    ext_dims = tuple(ext_dims)
    origins = []
    for rank in range(partition.n_ranks):
        origin = list(partition.origin(rank))
        for mu in partitioned:
            origin[mu] -= overlap
        origins.append(tuple(origin))
    blocks = op.restrict_to_regions(origins, ext_dims, partitioned, precision)
    return ext_dims, origins, blocks


class OverlappingSchwarzPreconditioner:
    """Restricted additive Schwarz with tunable overlap.

    Parameters mirror
    :class:`repro.dd.schwarz.AdditiveSchwarzPreconditioner`, plus
    ``overlap``: the number of sites each block is grown into its
    neighbors along every *partitioned* direction.  Larger overlaps mean
    better block approximations of the global inverse (fewer outer
    iterations) at the price of redundant computation and — on a real
    cluster — of the halo exchange needed to assemble the extended
    residual, which is why the paper starts from overlap 0.
    """

    def __init__(
        self,
        op: LatticeOperator,
        partition: BlockPartition,
        overlap: int = 2,
        mr_steps: int = 10,
        omega: float = 1.0,
        precision: Precision | None = HALF,
    ):
        self._ext_dims, self._origins, self.blocks = extended_blocks(
            op, partition, overlap, precision
        )
        self.op = op
        self.partition = partition
        self.overlap = int(overlap)
        self.mr_steps = int(mr_steps)
        self.omega = float(omega)
        self.precision = precision
        self._space = space_for_nspin(op.nspin)

    def _core_slices(self) -> tuple[slice, ...]:
        """Slicing of the extended block that selects the original block."""
        site = [slice(None)] * 4
        for mu in self.partition.grid.partitioned_dims:
            axis = axis_of_mu(mu)
            site[axis] = slice(
                self.overlap, self.overlap + self.partition.local_dims[mu]
            )
        return tuple(site)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the RAS correction: solve the extended blocks (the lanes
        of one block solve), restrict each to its core."""
        record_operator("schwarz_precond_overlap")
        z_ext = schwarz_block_solve(
            self.blocks,
            stack_regions(r, self.op.geometry, self._origins, self._ext_dims),
            steps=self.mr_steps, omega=self.omega,
            precision=self.precision, space=self._space,
        )
        core = (slice(None),) + self._core_slices()
        return self.partition.unstack(z_ext[core], dtype=r.dtype)

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks

    @property
    def redundancy(self) -> float:
        """Extra computation factor: extended volume over block volume."""
        return float(np.prod(self._ext_dims)) / self.partition.local_volume
