"""Test-only oracle: the five ``dd/`` preconditioners as per-block loops.

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
from repro.multigpu import BlockPartition
from repro.solvers import batched_mr, mr
from repro.solvers.space import ArraySpace, BatchedArraySpace
from repro.trace import span
from repro.util.counters import domain_local, record_operator


def block_solve(block_op, r_loc, *, steps, omega, precision, batched=False):
    """One block's MR solve on the block's stored operator."""
    site_axes = 2 if block_op.nspin == 4 else 1
    space = (BatchedArraySpace if batched else ArraySpace)(site_axes=site_axes)
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
    """One block's MR solve: the pre-lanes ``schwarz_block_solve``."""
    site_axes = 2 if block_op.nspin == 4 else 1
    space = (BatchedArraySpace if batched else ArraySpace)(site_axes=site_axes)
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


def sap(op, partition, b, *, steps, cycles, omega, precision):
    record_operator("sap_precond")
    block_ops = [
        op.restrict_to_block(partition, rank) for rank in range(partition.n_ranks)
    ]
    z = np.zeros_like(b)
    r = b.copy()
    for _ in range(cycles):
        for color in (0, 1):
            for rank, block_op in enumerate(block_ops):
                if sum(partition.grid.coords(rank)) % 2 != color:
                    continue
                sl = partition.slices(rank)
                z[sl] += block_solve(
                    block_op, np.ascontiguousarray(r[sl]), steps=steps,
                    omega=omega, precision=precision,
                )
            r = b - op.apply(z)
    return z


def twolevel(op, partition, r, *, inner_grid, inner_steps, outer_sweeps,
             omega, precision):
    record_operator("schwarz_precond_two_level")
    if _lead(op, r):
        # The pre-lanes code ran the scalar machinery RHS by RHS (one
        # record per application, not per RHS).
        return np.stack([
            _twolevel_single(op, partition, lane, inner_grid, inner_steps,
                             outer_sweeps, omega, precision)
            for lane in r
        ])
    return _twolevel_single(op, partition, r, inner_grid, inner_steps,
                            outer_sweeps, omega, precision)


def _twolevel_single(op, partition, r, inner_grid, inner_steps, outer_sweeps,
                     omega, precision):
    z = np.zeros_like(r)
    for rank in range(partition.n_ranks):
        block_op = op.restrict_to_block(partition, rank)
        sub_part = BlockPartition(block_op.geometry, inner_grid)
        sub_ops = [
            block_op.restrict_to_block(sub_part, s) for s in range(sub_part.n_ranks)
        ]

        def inner(res):
            out = np.zeros_like(res)
            for s, sub_op in enumerate(sub_ops):
                sl = sub_part.slices(s)
                out[sl] = block_solve(
                    sub_op, np.ascontiguousarray(res[sl]), steps=inner_steps,
                    omega=1.0, precision=precision,
                )
            return out

        sl = partition.slices(rank)
        b = np.ascontiguousarray(r[sl])
        with domain_local():
            zb = np.zeros_like(b)
            res = b
            for _ in range(outer_sweeps):
                zb = zb + omega * inner(res)
                res = b - block_op.apply(zb)
            z[sl] = zb
    return z


__all__ = [
    "block_solve", "block_solve_pr17", "multisplit", "ras", "region_operator", "sap", "schwarz",
    "twolevel",
]
