"""Multiplicative Schwarz: the Schwarz Alternating Procedure (SAP).

The paper's related-work section credits Luscher's SAP [20] as the first
domain-decomposition method in lattice QCD; the additive variant was
chosen in the paper because multiplicative sweeps serialize communication
between block colors.  This implementation provides SAP for comparison:
blocks are checkerboarded by the parity of their grid coordinates; each
cycle solves all blocks of one color, updates the *global* residual (this
is the step that needs fresh ghost zones on a real cluster), then solves
the other color.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.base import LatticeOperator
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import space_for_nspin
from repro.util.counters import record_operator


class SAPPreconditioner:
    """Multiplicative (alternating) Schwarz over red/black block colors.

    Parameters as in
    :class:`~repro.dd.schwarz.AdditiveSchwarzPreconditioner`, plus
    ``cycles``: the number of red+black sweeps per application.
    """

    def __init__(
        self,
        op: LatticeOperator,
        partition: BlockPartition,
        mr_steps: int = 6,
        cycles: int = 1,
        omega: float = 1.0,
        precision: Precision | None = HALF,
    ):
        if partition.geometry != op.geometry:
            raise ValueError("partition geometry does not match operator")
        self.op = op
        self.partition = partition
        self.mr_steps = int(mr_steps)
        self.cycles = int(cycles)
        self.omega = float(omega)
        self.precision = precision
        self._space = space_for_nspin(op.nspin)
        self.colors = [self._block_color(rank) for rank in range(partition.n_ranks)]
        # Per color: its ranks and their Dirichlet-cut block operators as
        # one lane stack (the blocks of a color are solved side by side).
        self._sweeps = []
        for color in (0, 1):
            ranks = [r for r, c in enumerate(self.colors) if c == color]
            self._sweeps.append(
                (ranks,
                 op.restrict_to_blocks(partition, ranks, precision)
                 if ranks else None)
            )

    def _block_color(self, rank: int) -> int:
        coords = self.partition.grid.coords(rank)
        return sum(coords) % 2

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """Approximate ``M^{-1} b`` with ``cycles`` alternating sweeps."""
        record_operator("sap_precond")
        z = np.zeros_like(b)
        r = b.copy()
        for _ in range(self.cycles):
            for ranks, blocks in self._sweeps:
                if ranks:
                    corrections = schwarz_block_solve(
                        blocks, self.partition.stack(r)[ranks],
                        steps=self.mr_steps, omega=self.omega,
                        precision=self.precision, space=self._space,
                    )
                    for rank, z_block in zip(ranks, corrections):
                        z[self.partition.slices(rank)] += z_block
                # Multiplicative step: refresh the residual with the new
                # corrections before the other color solves (one global
                # operator application = one halo exchange per color).
                r = b - self.op.apply(z)
        return z

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks
