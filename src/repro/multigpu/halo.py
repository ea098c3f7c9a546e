"""The ghost-zone halo exchange engine (Secs. 6.1-6.3, Figs. 2-3).

For every partitioned dimension, each rank

1. *gathers* its boundary face of thickness ``depth`` into a contiguous
   send buffer (the "gather kernels" — only the T face is contiguous in
   memory; X/Y/Z faces require a strided gather, which is why they are
   modeled with their own kernel cost),
2. exchanges the buffers with its two neighbors through the mailbox
   (D2H copy -> host copies -> MPI -> H2D in the real system; here one
   message, counted in the sender's tally and described by its ``send``
   trace span), and
3. *scatters* the received faces into the ghost slabs of a padded local
   array, placed adjacent to the local sub-volume exactly as in Fig. 2.

The per-rank mechanics — staging, face gather/boundary/quantize, send,
receive, scatter, all the cost accounting and trace spans — live in
:class:`~repro.multigpu.rank_halo.RankHaloEngine`; the slicing arithmetic
lives in :class:`~repro.multigpu.layout.HaloLayout` (``exchanger.layout``).
This module's :class:`HaloExchanger` has no arithmetic of its own: it is
a single-thread *driver* that owns one engine per rank (each with a
driver-mode :class:`~repro.comm.communicator.MailboxCommunicator`
endpoint) and steps them in a fixed order — all sends of a (dimension,
direction) pair posted before any receive, the non-blocking discipline
of the SPMD execution model (docs/architecture.md, "Execution model"),
which runs the same engines concurrently instead.  It exists for what
wants every rank's padded array in one place: layout and ghost-content
checks, and exchange timing.

Ghost zones are only allocated and exchanged for partitioned dimensions
("so as to ensure that GPU memory as well as PCI-E and interconnect
bandwidth are not wasted").  The global fermion boundary condition is
applied to faces that wrap the lattice.  Corner regions of the padded
array are never filled: axis-aligned stencils (1-hop Wilson, 1+3-hop
asqtad) never read them — a property the tests assert.

Spinor exchanges *reuse* their padded staging arrays (one allocation per
shape/dtype per engine); the returned padded arrays are only valid until
the next exchange of a same-shaped field — exactly the contract of a GPU
ghost buffer.  Gauge exchanges always allocate fresh arrays.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import MailboxCommunicator
from repro.comm.mailbox import Mailbox
from repro.dirac.base import BoundarySpec, PERIODIC
from repro.multigpu.layout import HaloLayout, halo_logical_nbytes  # noqa: F401
from repro.multigpu.partition import BlockPartition
from repro.multigpu.rank_halo import RankHaloEngine
from repro.util.counters import timed

__all__ = ["HaloExchanger", "halo_logical_nbytes"]


class HaloExchanger:
    """Single-thread ghost-zone exchange driver: one rank engine per
    virtual rank, stepped in a fixed order for one partition / stencil
    depth / boundary."""

    def __init__(
        self,
        partition: BlockPartition,
        depth: int = 1,
        boundary: BoundarySpec = PERIODIC,
        precision=None,
        site_axes: int = 2,
    ):
        """``precision`` (optional) transfers spinor ghost faces in a
        reduced storage format — QUDA communicates halos in the solver's
        inner precision, halving (single) or quartering (half) the face
        bytes relative to double.  The emulation quantizes each face
        buffer before it is sent and charges the format's *logical* byte
        count; ``site_axes`` parametrizes the per-site scaling of the
        half format (2 for Wilson, 1 for staggered)."""
        self.partition = partition
        self.depth = depth
        self.boundary = boundary
        self.precision = precision
        self.site_axes = site_axes
        self.mailbox = Mailbox(partition.n_ranks)
        self.layout = HaloLayout(partition, depth)
        self.engines = [
            RankHaloEngine(
                self.layout,
                MailboxCommunicator(self.mailbox, rank),
                boundary=boundary,
                precision=precision,
                site_axes=site_axes,
            )
            for rank in range(partition.n_ranks)
        ]

    # ------------------------------------------------------------------
    # the exchange itself
    # ------------------------------------------------------------------
    def exchange(
        self,
        local_fields: list[np.ndarray],
        lead: int = 0,
        kind: str = "spinor",
        apply_boundary: bool = True,
    ) -> list[np.ndarray]:
        """Return padded arrays with ghost zones filled from the neighbors.

        ``lead`` leading axes (e.g. the direction axis of a gauge field)
        pass through unsliced.  ``apply_boundary=False`` gives plain
        periodic wrapping regardless of the fermion BC (used for gauge
        fields, which are periodic).
        """
        part = self.partition
        if len(local_fields) != part.n_ranks:
            raise ValueError(
                f"need {part.n_ranks} local fields, got {len(local_fields)}"
            )
        # A batched (multi-RHS) spinor exchange packs all B faces into ONE
        # message per neighbor per direction: the lead axis rides inside
        # the face buffer, so the message count is independent of B while
        # the payload scales xB.
        batch = (
            int(np.prod(local_fields[0].shape[:lead]))
            if (lead and kind == "spinor")
            else 1
        )
        with timed("halo_exchange", kind="halo"):
            # Gauge exchange results are retained by the local operators,
            # so only spinor exchanges may reuse the staging pool.
            reuse = kind == "spinor"
            padded = [
                engine.stage(field, lead, reuse=reuse)
                for engine, field in zip(self.engines, local_fields)
            ]
            # Post all sends first (non-blocking semantics), then receive:
            # the gather kernel extracts the *opposite* face to the ghost
            # it fills on the neighbor.
            for mu in self.layout.partitioned_dims:
                for sign in (+1, -1):
                    for engine, field in zip(self.engines, local_fields):
                        engine.send_faces(
                            field, mu, sign, lead=lead, kind=kind,
                            apply_boundary=apply_boundary, batch=batch,
                        )
                    for engine, pad in zip(self.engines, padded):
                        engine.recv_face(pad, mu, sign, lead=lead, kind=kind)
        return padded

    def exchange_spinor(
        self, local_fields: list[np.ndarray], lead: int = 0
    ) -> list[np.ndarray]:
        """Spinor-field exchange (applies the fermion boundary condition).

        ``lead=1`` exchanges a *batched* multi-RHS field ``(B, ...)``: all
        B ghost faces travel in one message per neighbor per direction, so
        the message count is independent of the batch size while the bytes
        scale xB — the per-message-latency amortization multi-RHS buys.
        """
        return self.exchange(local_fields, lead=lead, kind="spinor")

    def exchange_gauge(self, local_links: list[np.ndarray]) -> list[np.ndarray]:
        """Gauge/link-field exchange — done once per solve (Sec. 6.1)."""
        return self.exchange(
            local_links, lead=1, kind="gauge", apply_boundary=False
        )
