"""Multi-splitting preconditioner: overlapping splittings, unity weights.

The multi-splitting family (O'Leary–White; applied to lattice QCD on GPU
clusters by Osaki–Ishikawa, arXiv:1011.3318, and as a preconditioner for
CG by Tu et al., arXiv:2104.05615) writes the system matrix as several
*overlapping* splittings ``M = B_l - C_l``, solves each splitting's
block system independently, and combines the local solutions through
diagonal weighting matrices ``E_l`` forming a partition of unity
(``sum_l E_l = I``).

Concretely here: splitting ``l`` is the Dirichlet-cut operator on block
``l`` of the :class:`~repro.multigpu.partition.BlockPartition`, grown by
``overlap`` sites into its neighbors along every partitioned direction
(periodically wrapped — the same extended regions RAS uses, built by
:func:`repro.dd.overlapping.extended_blocks`).  Each
extended system is relaxed with a fixed number of MR steps, and the
corrections are *blended* rather than restricted: every global site's
correction is the average of the solutions of all the splittings that
contain it (``E_l`` diagonal entries = 1 / coverage count).  Where RAS
throws the overlap work away outside the core block, multi-splitting
keeps it — the smooth blending is what makes the operator an effective
preconditioner for a flexible CG outer solver (it is nonlinear through
the MR solves and the rounding, hence "flexible").

``overlap=0`` makes every weight exactly 1 and the regions disjoint, so
the preconditioner reduces bitwise to the paper's block Jacobi.
"""

from __future__ import annotations

import numpy as np

from repro.dd.overlapping import extended_blocks
from repro.dirac.base import LatticeOperator
from repro.lattice.geometry import stack_regions
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import space_for_nspin
from repro.util.counters import record_operator


class MultiSplittingPreconditioner:
    """Weighted overlapping multi-splitting preconditioner.

    Parameters mirror
    :class:`repro.dd.overlapping.OverlappingSchwarzPreconditioner`:
    ``overlap`` grows each splitting's region into its neighbors along
    every *partitioned* direction; ``mr_steps``/``omega`` control the
    per-splitting MR relaxation; ``precision`` the block-solve storage
    format.  Accepts batched residuals with a leading multi-RHS axis
    (one vectorized MR sweep relaxes every RHS of a splitting at once).
    """

    def __init__(
        self,
        op: LatticeOperator,
        partition: BlockPartition,
        overlap: int = 1,
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
        self._site_axes = self._space.site_axes
        self._build_weights()

    # ------------------------------------------------------------------
    def _region_index(self, rank: int) -> tuple[np.ndarray, ...]:
        """Open-mesh index selecting splitting ``rank``'s (wrapped)
        region inside a global site array, axis order (t, z, y, x)."""
        origin = self._origins[rank]
        per_axis = []
        for axis in range(4):
            mu = 3 - axis  # inverse of axis_of_mu
            n = self.partition.geometry.dims[mu]
            per_axis.append((np.arange(self._ext_dims[mu]) + origin[mu]) % n)
        return np.ix_(*per_axis)

    def _build_weights(self) -> None:
        # Partition-of-unity weights: each global site is covered by one
        # or more splittings; E_l's diagonal entry is 1/coverage, so the
        # blended correction sums the splitting solutions with weights
        # summing to exactly 1 at every site.  With overlap 0 coverage is
        # identically 1 and the weights are exactly 1.0 (bitwise
        # block-Jacobi reduction).
        cover = np.zeros(self.partition.geometry.shape, dtype=np.float64)
        for rank in range(self.partition.n_ranks):
            cover[self._region_index(rank)] += 1.0
        trail = (np.newaxis,) * self._site_axes
        self._weights = [
            (1.0 / cover[self._region_index(rank)])[(...,) + trail]
            for rank in range(self.partition.n_ranks)
        ]

    # ------------------------------------------------------------------
    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply the weighted multi-splitting correction to ``r``.

        Accepts a single residual or a batched one with a leading RHS
        axis; returns ``z = sum_l E_l z_l`` with ``z_l`` the MR-relaxed
        solution of splitting ``l``'s extended Dirichlet system.
        """
        record_operator("multisplit_precond")
        lead = self.op.field_lead(r)
        batch = (slice(None),) * lead
        z_ext = schwarz_block_solve(
            self.blocks,
            stack_regions(
                r, self.op.geometry, self._origins, self._ext_dims, lead=lead
            ),
            steps=self.mr_steps, omega=self.omega,
            precision=self.precision, space=self._space,
        )
        # Blended in rank order: where splittings overlap, the sum's
        # rounding depends on it.
        z = np.zeros_like(r)
        for rank in range(self.partition.n_ranks):
            z[batch + self._region_index(rank)] += (
                self._weights[rank] * z_ext[batch + (rank,)]
            )
        return z

    @property
    def n_splittings(self) -> int:
        return self.partition.n_ranks

    @property
    def redundancy(self) -> float:
        """Extra computation factor: extended volume over block volume."""
        return float(np.prod(self._ext_dims)) / self.partition.local_volume
