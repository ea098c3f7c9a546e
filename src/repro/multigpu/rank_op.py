"""Rank-local Dirac operator application: the SPMD compute kernels.

One rank's share of a distributed operator application is: halo-exchange
the rank's spinor block, run the stencil on the padded array, extract
the interior.  This module holds that per-rank logic once, in two
forms:

* the *kernel functions* (:func:`fused_apply`, :func:`split_apply`) —
  one rank's stencil body on an already-exchanged padded array, with the
  trace spans of Sec. 6.2 (``fused_stencil`` or ``interior_kernel`` +
  per-dimension ``exterior_*``).  The global-view
  :class:`~repro.multigpu.ddop.DistributedOperator` loops these over all
  ranks; SPMD rank programs call them for their own rank only.
* :class:`RankOperator` — a rank program's local operator endpoint: it
  owns the rank's padded local stencil and halo engine and exposes
  ``apply``/``apply_dagger`` on rank-local (unpadded) fields, the
  per-rank mirror of ``DistributedOperator.apply``.

Cost accounting convention (merged per-rank tallies must equal the
global-view tallies exactly): each rank charges the stencil flops of its
*local* volume — the per-rank shares sum to the global count — while the
single ``dist_*`` operator-application event is charged to rank 0 only.

Constructors (:func:`rank_wilson_clover`, :func:`rank_naive_staggered`)
perform the one-time SPMD gauge ghost exchange through the rank's own
engine.  The clover field cannot be built rank-locally: its field-
strength leaves read corner sites the halo exchange never fills, so the
parent builds it globally and passes each rank its (unpadded) block.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.base import BoundarySpec, LatticeOperator, PERIODIC
from repro.dirac.staggered import NaiveStaggeredOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import DIR_NAMES
from repro.multigpu.layout import local_boundary
from repro.multigpu.rank_halo import RankHaloEngine
from repro.trace import span
from repro.util.counters import record, record_operator


# ----------------------------------------------------------------------
# one rank's stencil body on a padded array (shared by both models)
# ----------------------------------------------------------------------
def fused_apply(
    op: LatticeOperator, exch, pad: np.ndarray, lead: int, rank: int,
    dagger: bool = False,
) -> np.ndarray:
    """Fused path: one local stencil on the padded array, interior out.

    ``exch`` is anything with ``extract_interior`` — the global
    :class:`~repro.multigpu.halo.HaloExchanger` or a per-rank
    :class:`~repro.multigpu.rank_halo.RankHaloEngine`.
    """
    name = "fused_stencil_dagger" if dagger else "fused_stencil"
    with span(name, kind="interior", rank=rank, stream="compute"):
        applied = op._apply_dagger(pad) if dagger else op._apply(pad)
        return exch.extract_interior(applied, lead=lead)


def split_apply(
    op: LatticeOperator, exch, pad: np.ndarray, lead: int, rank: int
) -> np.ndarray:
    """Interior/exterior kernel path (Sec. 6.2) for one rank.

    The interior kernel computes every contribution available without
    ghost data (including the diagonal/clover terms); each partitioned
    dimension's exterior kernel then adds the hopping contributions
    sourced from that dimension's ghost zones.  Sites on corners receive
    updates from several exterior kernels, reproducing the data
    dependency the paper serializes the exterior kernels over.
    """
    with span("interior_kernel", kind="interior", rank=rank,
              stream="compute"):
        interior_in = exch.zero_ghosts(pad, lead=lead)
        out = exch.extract_interior(op._apply(interior_in), lead=lead)
    for mu in exch.partitioned_dims:
        with span(f"exterior_{DIR_NAMES[mu]}", kind="exterior",
                  rank=rank, stream="compute", mu=mu):
            ghost_in = exch.only_ghost(pad, mu, lead=lead)
            out = out + exch.extract_interior(
                op.apply_hopping(ghost_in), lead=lead
            )
    return out


def split_apply_overlapped(
    op: LatticeOperator, engine: RankHaloEngine, x: np.ndarray, lead: int,
    rank: int,
) -> np.ndarray:
    """The overlapped interior/exterior schedule of Fig. 4, live.

    Starts the halo exchange (pre-posted receives, eager sends), runs the
    interior kernel while faces are in flight, then drains each
    partitioned dimension and applies its exterior kernel.  Bit-identical
    to exchange-then-:func:`split_apply`: the interior kernel reads a
    zero-ghost *copy* of the padded array, face scatters land in disjoint
    ghost slabs, and the exterior contributions are summed in the same
    fixed dimension order.
    """
    pending = engine.begin_exchange(x, lead=lead, kind="spinor")
    pad = pending.padded
    with span("interior_kernel", kind="interior", rank=rank,
              stream="compute"):
        interior_in = engine.zero_ghosts(pad, lead=lead)
        out = engine.extract_interior(op._apply(interior_in), lead=lead)
    for mu in engine.partitioned_dims:
        pending.complete_dim(mu)
        with span(f"exterior_{DIR_NAMES[mu]}", kind="exterior",
                  rank=rank, stream="compute", mu=mu):
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
    """One rank's endpoint of a distributed Dirac operator."""

    def __init__(
        self,
        engine: RankHaloEngine,
        local_op: LatticeOperator,
        name: str,
        flops_per_site: int,
        nspin: int,
        schedule: str = "auto",
        overlap: bool = False,
    ):
        self.engine = engine
        self.local_op = local_op
        self.name = name
        self.flops_per_site = flops_per_site
        self.nspin = nspin
        self.schedule = _resolve_schedule(schedule, overlap)
        self.overlap = overlap
        self.rank = engine.rank
        self.local_volume = engine.layout.partition.local_volume

    def _field_lead(self, x: np.ndarray) -> int:
        expected = 4 + (2 if self.nspin == 4 else 1)
        extra = x.ndim - expected
        if extra in (0, 1):
            return extra
        raise ValueError(
            f"dist_{self.name} expects local field ndim {expected} "
            f"(or +1 batch axis), got shape {x.shape}"
        )

    def _record(self, batch: int = 1) -> None:
        # The collective event is counted once (on rank 0); the flops are
        # each rank's own local-volume share.
        if self.rank == 0:
            record_operator(f"dist_{self.name}")
        record(flops=self.flops_per_site * self.local_volume * batch)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Exchange ghosts, apply this rank's stencil, return the interior
        (or the interior/exterior path under ``schedule="split"``)."""
        lead = self._field_lead(x)
        self._record(batch=x.shape[0] if lead else 1)
        if self.overlap:
            return split_apply_overlapped(
                self.local_op, self.engine, x, lead, self.rank
            )
        pad = self.engine.exchange_spinor(x, lead=lead)
        if self.schedule == "split":
            return split_apply(self.local_op, self.engine, pad, lead, self.rank)
        return fused_apply(self.local_op, self.engine, pad, lead, self.rank)

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        lead = self._field_lead(x)
        self._record(batch=x.shape[0] if lead else 1)
        pad = self.engine.exchange_spinor(x, lead=lead)
        return fused_apply(
            self.local_op, self.engine, pad, lead, self.rank, dagger=True
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


# ----------------------------------------------------------------------
# constructors (one-time SPMD gauge ghost exchange per rank)
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
    local_bc = local_boundary(boundary, engine.partitioned_dims)
    padded_links = engine.exchange_gauge(gauge_block)
    padded_clover = None
    if clover_block is not None:
        shape = tuple(reversed(layout.padded_dims)) + clover_block.shape[4:]
        padded_clover = np.zeros(shape, dtype=clover_block.dtype)
        padded_clover[layout.interior_slices()] = clover_block
    local_op = WilsonCloverOperator(
        GaugeField(layout.padded_geometry, padded_links),
        mass=mass,
        csw=csw,
        boundary=local_bc,
        clover=padded_clover,
        kernel=kernel,
    )
    return RankOperator(
        engine, local_op, local_op.name, local_op.flops_per_site, 4,
        schedule=schedule, overlap=overlap,
    )


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
    local_bc = local_boundary(boundary, engine.partitioned_dims)
    padded = engine.exchange_gauge(gauge_block)
    local_op = NaiveStaggeredOperator(
        GaugeField(layout.padded_geometry, padded),
        mass=mass,
        boundary=local_bc,
        origin=layout.padded_origin(engine.rank),
        kernel=kernel,
    )
    return RankOperator(
        engine, local_op, local_op.name, local_op.flops_per_site, 1,
        schedule=schedule, overlap=overlap,
    )


__all__ = [
    "RankOperator",
    "fused_apply",
    "rank_naive_staggered",
    "rank_wilson_clover",
    "split_apply",
    "split_apply_overlapped",
]
