"""Test-only oracle: the three ``dd/`` preconditioners as per-block loops.

These are the ``__call__`` bodies of the Schwarz family exactly as they
stood in ``src/`` before the block solves became lanes of one stacked MR
(PR 17): a Python loop that builds one standalone Dirichlet-cut operator
per block (``restrict_to_block``, or a region extracted with ``np.take``
for the overlapping members) and runs one scalar ``mr`` — ``batched_mr``
for a multi-RHS residual — per block, on that block's operator *stored*
in the block precision (``block_op.stored(precision)``, PR 18: the
operator rounds around its own application).  Slow, but it is the
operation sequence *and the count ledger* the lane-stacked
``schwarz_block_solve`` must reproduce bit for bit and count for count.

``block_solve_pr17`` is the block solve as PR 17 left it — a
working-precision operator inside a ``convert(apply(convert(v)))``
sandwich.  The generic storage (every family and tier but the NumPy-tier
Wilson-clover operator, which is packed) must still return its bits:
tests swap it in with ``monkeypatch.setattr(oracle, "block_solve", ...)``.
Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import StaggeredNormalOperator, WilsonCloverOperator
from repro.dirac.staggered import _StaggeredBase
from repro.lattice import GaugeField, Geometry
from repro.lattice.geometry import axis_of_mu, extract_region
from repro.linalg import blas
from repro.solvers import batched_mr, mr
from repro.solvers.space import ArraySpace, BatchedArraySpace
from repro.trace import span
from repro.util.counters import domain_local, record_operator


class _Ordered(ArraySpace):
    """The block solves' reductions: the order the repository defines
    (``blas.lane_reduce``), one row, as the lane stack's."""

    def dot(self, x, y):
        return complex(blas.lane_cdot(x[None], y[None], self.site_axes)[0])

    def norm2(self, x):
        return float(blas.lane_norm2(x[None], self.site_axes)[0])

    def batched(self):
        # ``mr`` runs as the batch of one: its batched space must keep
        # this order
        return _BatchedOrdered(site_axes=self.site_axes)


class _BatchedOrdered(BatchedArraySpace):
    """The same, one row per right-hand side."""

    def dot(self, x, y):
        return blas.lane_cdot(x, y, self.site_axes)

    def norm2(self, x):
        return blas.lane_norm2(x, self.site_axes)


def _space(block_op, batched):
    site_axes = 2 if block_op.nspin == 4 else 1
    return (_BatchedOrdered if batched else _Ordered)(site_axes=site_axes)


def block_solve(block_op, r_loc, *, steps, omega, precision, batched=False):
    """One block's MR solve on the block's stored operator."""
    space = _space(block_op, batched)
    if precision is not None:
        r_loc = space.convert(r_loc, precision)
    with span("schwarz_block_solve", kind="precond"):
        with domain_local():
            result = (batched_mr if batched else mr)(
                block_op.stored(precision).apply, r_loc, steps=steps,
                omega=omega, space=space,
            )
    return result.x


def block_solve_pr17(block_op, r_loc, *, steps, omega, precision, batched=False):
    """One block's MR solve: the pre-lanes ``schwarz_block_solve`` (with
    the reductions the block solves have run in since)."""
    space = _space(block_op, batched)
    if precision is not None:
        r_loc = space.convert(r_loc, precision)

    def apply(v):
        if precision is None:
            return block_op.apply(v)
        return space.convert(
            block_op.apply(space.convert(v, precision)), precision
        )

    with span("schwarz_block_solve", kind="precond"):
        with domain_local():
            result = (batched_mr if batched else mr)(
                apply, r_loc, steps=steps, omega=omega, space=space,
            )
    return result.x


def region_operator(op, origin, ext_dims, partitioned):
    """The standalone Dirichlet-cut operator on one (wrapped) region."""
    geom = Geometry(ext_dims)
    owner = op.base if isinstance(op, StaggeredNormalOperator) else op
    local_bc = owner.boundary.with_dirichlet(partitioned)
    if isinstance(op, WilsonCloverOperator):
        clover = None
        if op.clover is not None:
            clover = extract_region(op.clover, op.geometry, origin, ext_dims)
        links = extract_region(op.gauge.data, op.geometry, origin, ext_dims, lead=1)
        return WilsonCloverOperator(
            GaugeField(geom, links), mass=op.mass, csw=op.csw,
            boundary=local_bc, clover=clover, kernel=op.kernel,
        )
    if isinstance(op, StaggeredNormalOperator):
        return StaggeredNormalOperator(
            region_operator(op.base, origin, ext_dims, partitioned), op.sigma
        )
    fat = extract_region(op.fat, op.geometry, origin, ext_dims, lead=1)
    long_links = None
    if op.long is not None:
        long_links = extract_region(op.long, op.geometry, origin, ext_dims, lead=1)
    out = _StaggeredBase.__new__(type(op))
    _StaggeredBase.__init__(
        out, geom, fat, long_links, op.mass, local_bc, origin=origin,
        kernel=op.kernel,
    )
    return out


def _lead(op, r):
    return r.ndim - (6 if op.nspin == 4 else 5)


def _regions(op, partition, overlap):
    partitioned = partition.grid.partitioned_dims
    ext_dims = list(partition.local_dims)
    origins = []
    for mu in partitioned:
        ext_dims[mu] += 2 * overlap
    for rank in range(partition.n_ranks):
        origin = list(partition.origin(rank))
        for mu in partitioned:
            origin[mu] -= overlap
        origins.append(tuple(origin))
    ext_dims = tuple(ext_dims)
    ops = [region_operator(op, o, ext_dims, partitioned) for o in origins]
    return ext_dims, origins, ops


def schwarz(op, partition, r, *, steps, omega, precision):
    record_operator("schwarz_precond")
    lead = _lead(op, r)
    z = np.zeros_like(r)
    for rank in range(partition.n_ranks):
        block_op = op.restrict_to_block(partition, rank)
        sl = (slice(None),) * lead + partition.slices(rank)
        z[sl] = block_solve(
            block_op, np.ascontiguousarray(r[sl]), steps=steps, omega=omega,
            precision=precision, batched=bool(lead),
        )
    return z


def ras(op, partition, r, *, overlap, steps, omega, precision):
    record_operator("schwarz_precond_overlap")
    ext_dims, origins, ops = _regions(op, partition, overlap)
    core = [slice(None)] * 4
    for mu in partition.grid.partitioned_dims:
        core[axis_of_mu(mu)] = slice(overlap, overlap + partition.local_dims[mu])
    z = np.zeros_like(r)
    for rank, block_op in enumerate(ops):
        r_ext = extract_region(r, op.geometry, origins[rank], ext_dims)
        z_ext = block_solve(
            block_op, r_ext, steps=steps, omega=omega, precision=precision,
        )
        z[partition.slices(rank)] = z_ext[tuple(core)]
    return z


def multisplit(op, partition, r, *, overlap, steps, omega, precision):
    record_operator("multisplit_precond")
    site_axes = 2 if op.nspin == 4 else 1
    lead = _lead(op, r)
    ext_dims, origins, ops = _regions(op, partition, overlap)

    def region_index(rank):
        per_axis = []
        for axis in range(4):
            mu = 3 - axis
            n = partition.geometry.dims[mu]
            per_axis.append((np.arange(ext_dims[mu]) + origins[rank][mu]) % n)
        return np.ix_(*per_axis)

    cover = np.zeros(partition.geometry.shape, dtype=np.float64)
    for rank in range(partition.n_ranks):
        cover[region_index(rank)] += 1.0
    z = np.zeros_like(r)
    for rank, block_op in enumerate(ops):
        r_ext = extract_region(r, op.geometry, origins[rank], ext_dims, lead=lead)
        z_ext = block_solve(
            block_op, r_ext, steps=steps, omega=omega, precision=precision,
            batched=bool(lead),
        )
        weight = (1.0 / cover[region_index(rank)])[(...,) + (None,) * site_axes]
        z[(slice(None),) * lead + region_index(rank)] += weight * z_ext
    return z


__all__ = [
    "block_solve", "block_solve_pr17", "multisplit", "ras", "region_operator", "schwarz",
]
