"""Rank-local Dirac operator application: the SPMD compute kernels.

One rank's share of a distributed operator application is: halo-exchange
the rank's spinor block, run the stencil on the padded array, extract
the interior.  This module holds that per-rank logic, in two forms:

* the *kernel functions* (:func:`fused_apply`, :func:`split_apply`) —
  one rank's ghost exchange and stencil body on its padded array, with
  the trace spans of Sec. 6.2 (``fused_stencil`` or ``interior_kernel``
  + per-dimension ``exterior_*``).
* :class:`RankOperator` — a rank program's local operator endpoint: it
  owns the rank's padded local stencil and halo engine and exposes
  ``apply``/``apply_dagger`` on rank-local (unpadded) fields.

Cost accounting convention (the merged per-rank tallies are the cost of
the global application): each rank charges the stencil flops of its
*local* volume — the per-rank shares sum to the global count — while the
single ``dist_*`` operator-application event is charged to rank 0 only.

The builders (:func:`rank_wilson_clover`, :func:`rank_naive_staggered`,
:func:`rank_asqtad`; :data:`RANK_BUILDERS` maps an operator kind to its
builder, ghost depth and per-site axes) perform the one-time SPMD link
ghost exchange through the rank's own engine — "the gauge field ... must
only be transfered once at the beginning of a solve".  The clover field
cannot be built rank-locally: its field-strength leaves read corner
sites the halo exchange never fills, so the parent builds it globally
and passes each rank its (unpadded) block.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.base import BoundarySpec, LatticeOperator, PERIODIC
from repro.dirac.staggered import AsqtadOperator, NaiveStaggeredOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.gauge.asqtad import AsqtadLinks
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import DIR_NAMES
from repro.multigpu.layout import local_boundary
from repro.multigpu.rank_halo import RankHaloEngine
from repro.trace import span
from repro.util.counters import record, record_operator


# ----------------------------------------------------------------------
# one rank's exchange + stencil body
# ----------------------------------------------------------------------
def fused_apply(
    op: LatticeOperator, engine: RankHaloEngine, x: np.ndarray, lead: int,
    dagger: bool = False,
) -> np.ndarray:
    """Fused path: exchange ghosts, one local stencil on the padded
    array, interior out."""
    pad = engine.exchange_spinor(x, lead=lead)
    name = "fused_stencil_dagger" if dagger else "fused_stencil"
    with span(name, kind="interior", rank=engine.rank, stream="compute"):
        applied = op._apply_dagger(pad) if dagger else op._apply(pad)
        return engine.extract_interior(applied, lead=lead)


def split_apply(
    op: LatticeOperator, engine: RankHaloEngine, x: np.ndarray, lead: int,
    overlap: bool = False,
) -> np.ndarray:
    """Interior/exterior kernel path (Sec. 6.2) for one rank.

    The interior kernel computes every contribution available without
    ghost data (including the diagonal/clover terms); each partitioned
    dimension's exterior kernel then adds the hopping contributions
    sourced from that dimension's ghost zones.  Sites on corners receive
    updates from several exterior kernels, reproducing the data
    dependency the paper serializes the exterior kernels over.

    ``overlap=True`` is the live schedule of Fig. 4: start the exchange
    (pre-posted receives, eager sends), run the interior kernel while
    faces are in flight, and drain each partitioned dimension just before
    its exterior kernel.  Bit-identical to the exchange-first order: the
    interior kernel reads a zero-ghost *copy* of the padded array, face
    scatters land in disjoint ghost slabs, and the exterior contributions
    are summed in the same fixed dimension order.
    """
    pending = None
    if overlap:
        pending = engine.begin_exchange(x, lead=lead, kind="spinor")
        pad = pending.padded
    else:
        pad = engine.exchange_spinor(x, lead=lead)
    with span("interior_kernel", kind="interior", rank=engine.rank,
              stream="compute"):
        interior_in = engine.zero_ghosts(pad, lead=lead)
        out = engine.extract_interior(op._apply(interior_in), lead=lead)
    for mu in engine.partitioned_dims:
        if pending is not None:
            pending.complete_dim(mu)
        with span(f"exterior_{DIR_NAMES[mu]}", kind="exterior",
                  rank=engine.rank, stream="compute", mu=mu):
            ghost_in = engine.only_ghost(pad, mu, lead=lead)
            out = out + engine.extract_interior(
                op.apply_hopping(ghost_in), lead=lead
            )
    return out


# ----------------------------------------------------------------------
# the SPMD rank operator
# ----------------------------------------------------------------------
def _resolve_schedule(schedule: str, overlap: bool) -> str:
    """Fold ``overlap`` into a concrete ``"fused"``/``"split"`` schedule."""
    if schedule == "auto":
        # Overlapping halo comm with the interior kernel requires the
        # split interior/exterior path.
        return "split" if overlap else "fused"
    if schedule not in ("fused", "split"):
        raise ValueError(
            f"unknown schedule {schedule!r}; choose 'auto', 'fused' or "
            "'split'"
        )
    if overlap and schedule == "fused":
        raise ValueError(
            "overlap=True runs the interior/exterior split; use "
            "schedule='auto' or 'split'"
        )
    return schedule


class RankOperator:
    """One rank's endpoint of a distributed Dirac operator: the rank's
    padded local stencil behind its halo engine."""

    def __init__(
        self,
        engine: RankHaloEngine,
        local_op: LatticeOperator,
        schedule: str = "auto",
        overlap: bool = False,
    ):
        self.engine = engine
        self.local_op = local_op
        self.name = local_op.name
        self.schedule = _resolve_schedule(schedule, overlap)
        self.overlap = overlap
        self.rank = engine.rank
        self.local_volume = engine.layout.partition.local_volume

    def _field_lead(self, x: np.ndarray) -> int:
        expected = 4 + self.engine.site_axes
        extra = x.ndim - expected
        if extra in (0, 1):
            return extra
        raise ValueError(
            f"dist_{self.name} expects local field ndim {expected} "
            f"(or +1 batch axis), got shape {x.shape}"
        )

    def _record(self, x: np.ndarray, lead: int) -> None:
        # The collective event is counted once (on rank 0); the flops are
        # each rank's own local-volume share.
        if self.rank == 0:
            record_operator(f"dist_{self.name}")
        batch = x.shape[0] if lead else 1
        record(flops=self.local_op.flops_per_site * self.local_volume * batch)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Exchange ghosts, apply this rank's stencil, return the interior
        (or the interior/exterior path under ``schedule="split"``)."""
        lead = self._field_lead(x)
        self._record(x, lead)
        if self.schedule == "split":
            return split_apply(
                self.local_op, self.engine, x, lead, overlap=self.overlap
            )
        return fused_apply(self.local_op, self.engine, x, lead)

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        lead = self._field_lead(x)
        self._record(x, lead)
        return fused_apply(self.local_op, self.engine, x, lead, dagger=True)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


# ----------------------------------------------------------------------
# builders (one-time SPMD link ghost exchange per rank)
# ----------------------------------------------------------------------
def rank_wilson_clover(
    engine: RankHaloEngine,
    gauge_block: np.ndarray,
    mass: float,
    csw: float,
    boundary: BoundarySpec = PERIODIC,
    clover_block: np.ndarray | None = None,
    kernel: str = "auto",
    schedule: str = "auto",
    overlap: bool = False,
) -> RankOperator:
    """Build this rank's Wilson-clover endpoint from its (unpadded) local
    gauge block; ``clover_block`` is the rank's slice of the *globally
    built* clover field (required when ``csw != 0`` — see module
    docstring)."""
    if csw != 0.0 and clover_block is None:
        raise ValueError(
            "csw != 0 needs the parent-built clover block: clover leaves "
            "read corner sites the halo exchange never fills"
        )
    layout = engine.layout
    padded_clover = None
    if clover_block is not None:
        # Ghost sites keep zero clover, which is harmless because ghost
        # outputs are discarded.
        shape = tuple(reversed(layout.padded_dims)) + clover_block.shape[4:]
        padded_clover = np.zeros(shape, dtype=clover_block.dtype)
        padded_clover[layout.interior_slices()] = clover_block
    local_op = WilsonCloverOperator(
        GaugeField(layout.padded_geometry, engine.exchange_gauge(gauge_block)),
        mass=mass,
        csw=csw,
        boundary=local_boundary(boundary, engine.partitioned_dims),
        clover=padded_clover,
        kernel=kernel,
    )
    return RankOperator(engine, local_op, schedule=schedule, overlap=overlap)


def rank_naive_staggered(
    engine: RankHaloEngine,
    gauge_block: np.ndarray,
    mass: float,
    boundary: BoundarySpec = PERIODIC,
    kernel: str = "auto",
    schedule: str = "auto",
    overlap: bool = False,
) -> RankOperator:
    """Build this rank's naive-staggered endpoint from its (unpadded)
    local gauge block; the padded origin keeps the Kogut-Susskind phases
    globally consistent."""
    layout = engine.layout
    local_op = NaiveStaggeredOperator(
        GaugeField(layout.padded_geometry, engine.exchange_gauge(gauge_block)),
        mass=mass,
        boundary=local_boundary(boundary, engine.partitioned_dims),
        origin=layout.padded_origin(engine.rank),
        kernel=kernel,
    )
    return RankOperator(engine, local_op, schedule=schedule, overlap=overlap)


def rank_asqtad(
    engine: RankHaloEngine,
    fat_block: np.ndarray,
    long_block: np.ndarray,
    mass: float,
    boundary: BoundarySpec = PERIODIC,
    kernel: str = "auto",
    schedule: str = "auto",
    overlap: bool = False,
) -> RankOperator:
    """Build this rank's asqtad endpoint from its (unpadded) blocks of the
    precomputed fat and long links.  The 3-hop Naik term needs an engine
    on a depth-3 layout — the "decreased locality of the asqtad operator"
    that makes its strong scaling harder — and blocks at least that
    thick (:class:`~repro.multigpu.layout.HaloLayout` rejects thinner
    ones)."""
    layout = engine.layout
    if layout.depth < 3:
        raise ValueError(
            f"asqtad needs depth-3 ghost zones, engine has depth {layout.depth}"
        )
    local_op = AsqtadOperator(
        AsqtadLinks(
            geometry=layout.padded_geometry,
            fat=engine.exchange_gauge(fat_block),
            long=engine.exchange_gauge(long_block),
        ),
        mass=mass,
        boundary=local_boundary(boundary, engine.partitioned_dims),
        origin=layout.padded_origin(engine.rank),
        kernel=kernel,
    )
    return RankOperator(engine, local_op, schedule=schedule, overlap=overlap)


#: Operator kind -> (builder, ghost depth, per-site axes): what a rank
#: program needs to set up ``RankHaloEngine(HaloLayout(partition, depth),
#: comm, site_axes=...)`` and call ``builder(engine, *link_blocks, mass,
#: ...)``.
RANK_BUILDERS = {
    "wilson_clover": (rank_wilson_clover, 1, 2),
    "staggered": (rank_naive_staggered, 1, 1),
    "asqtad": (rank_asqtad, 3, 1),
}


__all__ = [
    "RANK_BUILDERS",
    "RankOperator",
    "fused_apply",
    "rank_asqtad",
    "rank_naive_staggered",
    "rank_wilson_clover",
    "split_apply",
]
