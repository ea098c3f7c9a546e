"""Shared helper: express a distributed operator application as what it
is — scatter the global fields, run one short rank program per rank
(build the rank operator, call ``body``), gather the result.

``body`` is either the name of a :class:`RankOperator` method
(``"apply"``, ``"apply_dagger"``) or a callable ``body(op, *local_fields)``;
a method name keeps the jobs picklable, so the ``processes`` backend runs
them on its persistent pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.comm.backends import run_rank_programs
from repro.dirac.base import PERIODIC, BoundarySpec
from repro.dirac.clover import build_clover_field
from repro.lattice.fields import GaugeField
from repro.multigpu import BlockPartition, HaloLayout, RankHaloEngine
from repro.multigpu.rank_op import RANK_BUILDERS
from repro.solvers.space import ArraySpace


@dataclass
class RankJob:
    """One rank's share of the work: its link blocks, its field blocks and
    what to do with the operator built from them."""

    kind: str
    partition: BlockPartition
    links: tuple
    mass: float
    fields: tuple
    body: object = "apply"
    boundary: BoundarySpec = PERIODIC
    halo_precision: object = None
    # builder keywords: kernel/schedule/overlap, csw/clover_block
    options: dict = field(default_factory=dict)


def build_rank_op(comm, job: RankJob, **overrides):
    """This rank's operator endpoint (one-time link ghost exchange)."""
    job = replace(job, **overrides)
    builder, depth, site_axes = RANK_BUILDERS[job.kind]
    engine = RankHaloEngine(
        HaloLayout(job.partition, depth), comm, boundary=job.boundary,
        precision=job.halo_precision, site_axes=site_axes,
    )
    return builder(
        engine, *job.links, job.mass, boundary=job.boundary, **job.options
    )


def rank_space(op) -> ArraySpace:
    """The Krylov vector space matching a rank operator's fields: the
    array space given the rank's communicator."""
    return ArraySpace(op.engine.site_axes, comm=op.engine.comm)


def rank_program(comm, job: RankJob):
    op = build_rank_op(comm, job)
    if isinstance(job.body, str):
        return getattr(op, job.body)(*job.fields)
    return job.body(op, *job.fields)


def rank_jobs(
    kind, source, mass, grid, *fields, body="apply", csw=0.0,
    boundary=PERIODIC, halo_precision=None, **options,
):
    """``(partition, jobs)`` for ``source`` — a :class:`GaugeField`
    (``wilson_clover`` / ``staggered``) or
    :class:`~repro.gauge.asqtad.AsqtadLinks` (``asqtad``) — scattered over
    ``grid`` together with the global ``fields`` (leading batch axis
    allowed); ``options`` are the builders' kernel/schedule/overlap."""
    partition = BlockPartition(source.geometry, grid)
    n = partition.n_ranks
    if isinstance(source, GaugeField):
        links = [partition.split(source.data, lead=1)]
    else:
        links = [partition.split(a, lead=1) for a in (source.fat, source.long)]
    family = [{}] * n
    if kind == "wilson_clover":
        clover = (
            partition.split(build_clover_field(source, csw))
            if csw else [None] * n
        )
        family = [{"csw": csw, "clover_block": block} for block in clover]
    site_ndim = 4 + RANK_BUILDERS[kind][2]
    blocks = [partition.split(f, lead=f.ndim - site_ndim) for f in fields]
    jobs = [
        RankJob(
            kind, partition, tuple(l[rank] for l in links), mass,
            tuple(b[rank] for b in blocks), body, boundary, halo_precision,
            {**options, **family[rank]},
        )
        for rank in range(n)
    ]
    return partition, jobs


def on_ranks(kind, source, mass, grid, *fields, backend="sequential", **kw):
    """Run the rank program on every rank; ``(partition, per-rank values)``."""
    partition, jobs = rank_jobs(kind, source, mass, grid, *fields, **kw)
    outcomes = run_rank_programs(
        rank_program, partition.n_ranks, jobs, backend=backend
    )
    return partition, [o.value for o in outcomes]


def rank_apply(kind, source, mass, grid, *fields, **kw) -> np.ndarray:
    """scatter -> rank program -> gather: the global result array."""
    partition, values = on_ranks(kind, source, mass, grid, *fields, **kw)
    lead = values[0].ndim - (4 + RANK_BUILDERS[kind][2])
    return partition.assemble(values, lead=lead)
