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
from repro.lattice.geometry import Geometry, axis_of_mu
from repro.multigpu.partition import BlockPartition
from repro.precision import HALF, Precision
from repro.precond.rank_local import schwarz_block_solve
from repro.solvers.space import ArraySpace
from repro.util.counters import record_operator


def extract_region(
    array: np.ndarray,
    geometry: Geometry,
    origin: tuple[int, int, int, int],
    extents: tuple[int, int, int, int],
    lead: int = 0,
) -> np.ndarray:
    """Copy a (periodically wrapped) rectangular region of a global field.

    ``origin`` is the physics-order (x, y, z, t) coordinate of the
    region's first site (may be negative); ``extents`` its size.
    """
    out = array
    for mu in range(4):
        axis = lead + axis_of_mu(mu)
        n = geometry.dims[mu]
        idx = (np.arange(extents[mu]) + origin[mu]) % n
        out = np.take(out, idx, axis=axis)
    return np.ascontiguousarray(out)


def restrict_operator_to_region(
    op: LatticeOperator,
    origin: tuple[int, int, int, int],
    ext_dims: tuple[int, int, int, int],
    partitioned: tuple[int, ...],
) -> LatticeOperator:
    """Build the Dirichlet-cut operator on one (possibly overlapping,
    periodically wrapped) rectangular region of the global lattice.

    The region generalization of ``restrict_to_block``: links (and the
    clover field) are region-extracted rather than sliced, the
    ``partitioned`` directions get zero boundaries, and the resolved
    kernel tier is inherited from the global operator so the block
    stencils are evaluated by the same backend.  Shared by the RAS and
    multi-splitting preconditioners.
    """
    geom = Geometry(ext_dims)
    # Dispatch on the operator families that support block restriction.
    from repro.dirac.staggered import _StaggeredBase, StaggeredNormalOperator
    from repro.dirac.wilson import WilsonCloverOperator

    boundary_owner = op.base if isinstance(op, StaggeredNormalOperator) else op
    local_bc = boundary_owner.boundary.with_dirichlet(partitioned)

    if isinstance(op, WilsonCloverOperator):
        from repro.lattice.fields import GaugeField

        links = extract_region(
            op.gauge.data, op.geometry, origin, ext_dims, lead=1
        )
        clover = None
        if op.clover is not None:
            clover = extract_region(op.clover, op.geometry, origin, ext_dims)
        return WilsonCloverOperator(
            GaugeField(geom, links),
            mass=op.mass,
            csw=op.csw,
            boundary=local_bc,
            clover=clover,
            kernel=op.kernel,
        )
    if isinstance(op, StaggeredNormalOperator):
        base = _restrict_staggered_to_region(op.base, origin, ext_dims, local_bc)
        return StaggeredNormalOperator(base, op.sigma)
    if isinstance(op, _StaggeredBase):
        return _restrict_staggered_to_region(op, origin, ext_dims, local_bc)
    raise TypeError(
        f"{type(op).__name__} does not support overlapping restriction"
    )


def _restrict_staggered_to_region(op, origin, ext_dims, local_bc):
    from repro.dirac.staggered import _StaggeredBase

    geom = Geometry(ext_dims)
    fat = extract_region(op.fat, op.geometry, origin, ext_dims, lead=1)
    long_links = (
        extract_region(op.long, op.geometry, origin, ext_dims, lead=1)
        if op.long is not None
        else None
    )
    out = _StaggeredBase.__new__(type(op))
    _StaggeredBase.__init__(
        out, geom, fat, long_links, op.mass, local_bc, origin=origin,
        kernel=op.kernel,
    )
    return out


def extended_blocks(op: LatticeOperator, partition: BlockPartition, overlap: int):
    """The extended regions shared by the RAS and multi-splitting
    preconditioners: every block of ``partition`` grown by ``overlap``
    sites into its neighbors along each *partitioned* direction.

    Returns ``(ext_dims, origins, block_ops)``: the regions' common
    extents, each rank's (possibly negative, periodically wrapped) region
    origin, and the Dirichlet-cut operator on each region.
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
    block_ops = [
        restrict_operator_to_region(op, origin, ext_dims, partitioned)
        for origin in origins
    ]
    return ext_dims, origins, block_ops


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
        self._ext_dims, self._origins, self.block_ops = extended_blocks(
            op, partition, overlap
        )
        self.op = op
        self.partition = partition
        self.overlap = int(overlap)
        self.mr_steps = int(mr_steps)
        self.omega = float(omega)
        self.precision = precision
        self._space = ArraySpace(site_axes=2 if op.nspin == 4 else 1)

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
        """Apply the RAS correction: solve extended blocks, restrict."""
        record_operator("schwarz_precond_overlap")
        z = np.zeros_like(r)
        core = self._core_slices()
        for rank, block_op in enumerate(self.block_ops):
            r_ext = extract_region(
                r, self.op.geometry, self._origins[rank], self._ext_dims
            )
            z_ext = schwarz_block_solve(
                block_op, r_ext, steps=self.mr_steps, omega=self.omega,
                precision=self.precision, space=self._space, rank=rank,
            )
            z[self.partition.slices(rank)] = z_ext[core]
        return z

    @property
    def n_blocks(self) -> int:
        return self.partition.n_ranks

    @property
    def redundancy(self) -> float:
        """Extra computation factor: extended volume over block volume."""
        return float(np.prod(self._ext_dims)) / self.partition.local_volume
