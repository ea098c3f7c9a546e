"""Per-rank ghost-zone exchange: the SPMD half of the halo machinery.

A :class:`RankHaloEngine` is ONE rank's view of the halo exchange of
Secs. 6.1-6.3: it stages the rank's own field into a padded array,
gathers and posts its boundary faces to its neighbors through a
:class:`~repro.comm.communicator.Communicator` endpoint, and scatters the
faces it receives into its ghost slabs.  The engine follows the eager
non-blocking send discipline — *every* send is posted before any receive
— so the exchange can never deadlock regardless of rank scheduling.

SPMD rank programs (:mod:`repro.core.spmd`) call the composite
:meth:`exchange` concurrently, one engine per thread or process; the
:class:`~repro.multigpu.halo.HaloExchanger` driver steps one engine per
rank from a single thread through the granular
``stage``/``send_faces``/``recv_face`` phases in a fixed order.

Cost accounting and trace spans are emitted here, per rank, so the
merged per-rank tallies are identical whichever way the engines are
driven (the backend-parity tests assert this).

Spinor exchanges reuse their padded staging array and slice tuples
across calls (one allocation per shape/dtype for the engine's lifetime);
corners stay zero because no exchange ever writes them.  The returned
padded array is only valid until the next exchange of a same-shaped
field — exactly the contract of a GPU ghost buffer.  Gauge exchanges
always allocate fresh arrays (their results are retained by the local
operators).
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm.communicator import Communicator
from repro.dirac.base import BoundarySpec, PERIODIC
from repro.lattice.geometry import DIR_NAMES
from repro.multigpu.layout import HaloLayout, halo_logical_nbytes
from repro.trace import span
from repro.util.counters import (
    OVERLAP_WAIT,
    OVERLAP_WINDOW,
    RECV_WAIT,
    current_tally,
    record,
    record_wait,
    timed,
)


class RankHaloEngine:
    """One rank's halo-exchange endpoint over a communicator."""

    def __init__(
        self,
        layout: HaloLayout,
        comm: Communicator,
        boundary: BoundarySpec = PERIODIC,
        precision=None,
        site_axes: int = 2,
    ):
        self.layout = layout
        self.comm = comm
        self.rank = comm.rank
        self.boundary = boundary
        self.precision = precision
        self.site_axes = site_axes
        self.grid = layout.partition.grid
        # Reusable padded staging buffer for spinor exchanges, keyed by
        # (lead, local field shape, dtype); see the module docstring.
        self._pad_pool: dict[tuple, np.ndarray] = {}

    @property
    def partitioned_dims(self) -> tuple[int, ...]:
        return self.layout.partitioned_dims

    # ------------------------------------------------------------------
    # exchange phases (driven either by self.exchange or by the
    # HaloExchanger driver, in the same order)
    # ------------------------------------------------------------------
    def stage(self, field: np.ndarray, lead: int = 0, reuse: bool = True) -> np.ndarray:
        """Copy the local field into the interior of a padded array."""
        shape = self.layout.padded_shape(field, lead)
        if reuse:
            key = (lead, field.shape, field.dtype)
            pad = self._pad_pool.get(key)
            if pad is None:
                pad = np.zeros(shape, dtype=field.dtype)
                self._pad_pool[key] = pad
        else:
            pad = np.zeros(shape, dtype=field.dtype)
        with span("stage_interior", kind="gather", rank=self.rank,
                  stream="compute"):
            pad[self.layout.interior_slices(lead)] = field
        # Staging copy reads the field and writes the padded interior:
        # read + write traffic.
        record(bytes_moved=2 * field.nbytes)
        return pad

    def send_faces(
        self,
        field: np.ndarray,
        mu: int,
        sign: int,
        lead: int = 0,
        kind: str = "spinor",
        apply_boundary: bool = True,
        batch: int = 1,
    ) -> None:
        """Gather the (mu, sign) face of the local field and post it to the
        neighbor (eager non-blocking send)."""
        dst, wrapped = self.grid.neighbor(self.rank, mu, sign)
        comm_stream = f"comm {DIR_NAMES[mu]}{'+' if sign > 0 else '-'}"
        # Gather/pack: extract the face and quantize it to the wire format
        # (the strided gather kernels of Sec. 6.1, on the compute stream
        # in Fig. 4).
        with span("gather", kind="gather", rank=self.rank, stream="compute",
                  mu=mu, sign=sign, batch=batch):
            buf = np.ascontiguousarray(field[self.layout.face_slices(mu, sign, lead)])
            read_nbytes = buf.nbytes
            if apply_boundary and wrapped:
                bc = self.boundary[mu]
                if bc == "antiperiodic":
                    buf = -buf
                elif bc == "zero":
                    # Write-only fill: the gather kernel never reads the
                    # field for a zeroed boundary face.
                    buf = np.zeros_like(buf)
                    read_nbytes = 0
            logical_nbytes = buf.nbytes
            if self.precision is not None and kind == "spinor":
                buf = self.precision.convert(buf, site_axes=self.site_axes)
                logical_nbytes = halo_logical_nbytes(
                    buf, self.precision, self.site_axes
                )
            # Gather/pack traffic, recorded after boundary and precision
            # handling: the kernel reads the face at storage precision
            # (nothing at all for a zero-boundary fill) and writes the
            # wire-format buffer.
            record(bytes_moved=read_nbytes + logical_nbytes)
        # The one per-message record: the span describes the message, the
        # tally counts it, both at the logical wire size.
        with span("send", kind="comm", rank=self.rank, stream=comm_stream,
                  mu=mu, sign=sign, dst=dst, nbytes=logical_nbytes,
                  batch=batch, field=kind):
            self.comm.isend(
                dst, buf, tag=("halo", mu, sign, kind), nbytes=logical_nbytes
            )

    def recv_face(
        self,
        padded: np.ndarray,
        mu: int,
        sign: int,
        lead: int = 0,
        kind: str = "spinor",
    ) -> None:
        """Receive the face a neighbor sent along (mu, sign) and scatter it
        into the corresponding ghost slab of the padded array."""
        src, _ = self.grid.neighbor(self.rank, mu, -sign)
        comm_stream = f"comm {DIR_NAMES[mu]}{'+' if sign > 0 else '-'}"
        with span("recv", kind="comm", rank=self.rank, stream=comm_stream,
                  mu=mu, sign=sign, src=src):
            data = self.comm.recv(src, tag=("halo", mu, sign, kind))
        # A face sent forward (+1) fills the receiver's backward (-1)
        # ghost slab, and vice versa.
        ghost = self.layout.ghost_slices(mu, -sign, lead)
        with span("scatter", kind="scatter", rank=self.rank,
                  stream="compute", mu=mu, sign=sign):
            padded[ghost] = data
        # Scatter reads the receive buffer and writes the ghost slab:
        # read + write traffic.
        record(bytes_moved=2 * data.nbytes)

    # ------------------------------------------------------------------
    # the composite per-rank exchange (SPMD rank programs)
    # ------------------------------------------------------------------
    def exchange(
        self,
        field: np.ndarray,
        lead: int = 0,
        kind: str = "spinor",
        apply_boundary: bool = True,
    ) -> np.ndarray:
        """Full rank-local exchange: stage, post all sends, then receive.

        Returns this rank's padded array with ghost zones filled from the
        neighbors.  Safe under any backend scheduling: all sends are
        posted (eagerly, buffered) before the first receive.
        """
        batch = (
            int(np.prod(field.shape[:lead]))
            if (lead and kind == "spinor")
            else 1
        )
        with timed("halo_exchange", kind="halo"):
            padded = self.stage(field, lead, reuse=(kind == "spinor"))
            for mu in self.partitioned_dims:
                for sign in (+1, -1):
                    self.send_faces(
                        field, mu, sign, lead=lead, kind=kind,
                        apply_boundary=apply_boundary, batch=batch,
                    )
            for mu in self.partitioned_dims:
                for sign in (+1, -1):
                    self.recv_face(padded, mu, sign, lead=lead, kind=kind)
        return padded

    # ------------------------------------------------------------------
    # the overlapped exchange (Sec. 6.2 / Fig. 4 schedule, live)
    # ------------------------------------------------------------------
    def begin_exchange(
        self,
        field: np.ndarray,
        lead: int = 0,
        kind: str = "spinor",
        apply_boundary: bool = True,
    ) -> "PendingExchange":
        """Start an overlapped exchange: stage, pre-post every receive,
        post every send, and return immediately with the faces in flight.

        The caller runs interior compute, then drains each dimension with
        :meth:`PendingExchange.complete_dim` — the live version of the
        Fig. 4 schedule, where gather/scatter kernels bracket in-flight
        communication that the interior dslash hides.
        """
        batch = (
            int(np.prod(field.shape[:lead]))
            if (lead and kind == "spinor")
            else 1
        )
        with timed("halo_exchange", kind="halo"):
            padded = self.stage(field, lead, reuse=(kind == "spinor"))
            # Pre-post one receive per incoming face (the genuinely
            # nonblocking irecv), then post all sends.
            handles = {}
            for mu in self.partitioned_dims:
                for sign in (+1, -1):
                    src, _ = self.grid.neighbor(self.rank, mu, -sign)
                    handles[(mu, sign)] = self.comm.irecv(
                        src, tag=("halo", mu, sign, kind)
                    )
            for mu in self.partitioned_dims:
                for sign in (+1, -1):
                    self.send_faces(
                        field, mu, sign, lead=lead, kind=kind,
                        apply_boundary=apply_boundary, batch=batch,
                    )
        return PendingExchange(self, padded, lead, handles)

    def exchange_overlapped(
        self,
        field: np.ndarray,
        lead: int = 0,
        kind: str = "spinor",
        apply_boundary: bool = True,
        interior=None,
    ) -> np.ndarray:
        """Full overlapped exchange: post everything, run ``interior``
        (a callable taking the padded array) while faces fly, then drain
        every dimension.  Returns the filled padded array; bit-identical
        to :meth:`exchange` because face scatters touch disjoint ghost
        slabs."""
        pending = self.begin_exchange(
            field, lead=lead, kind=kind, apply_boundary=apply_boundary
        )
        if interior is not None:
            interior(pending.padded)
        for mu in self.partitioned_dims:
            pending.complete_dim(mu)
        return pending.padded

    def exchange_spinor(self, field: np.ndarray, lead: int = 0) -> np.ndarray:
        """Spinor-field exchange (applies the fermion boundary condition)."""
        return self.exchange(field, lead=lead, kind="spinor")

    def exchange_gauge(self, links: np.ndarray) -> np.ndarray:
        """Gauge/link-field exchange — done once per solve (Sec. 6.1)."""
        return self.exchange(links, lead=1, kind="gauge", apply_boundary=False)

    # -- padded-array helpers (delegate to the shared layout) -------------
    def extract_interior(self, padded: np.ndarray, lead: int = 0) -> np.ndarray:
        return self.layout.extract_interior(padded, lead)

    def zero_ghosts(self, padded: np.ndarray, lead: int = 0) -> np.ndarray:
        return self.layout.zero_ghosts(padded, lead)

    def only_ghost(self, padded: np.ndarray, mu: int, lead: int = 0) -> np.ndarray:
        return self.layout.only_ghost(padded, mu, lead)


class PendingExchange:
    """An overlapped exchange in flight: the padded staging array plus one
    posted receive per incoming face.

    :meth:`complete_dim` drains faces through
    :meth:`~repro.comm.communicator.Communicator.wait_any`, scattering
    *whichever* face arrives (disjoint ghost slabs make the scatter order
    irrelevant to the bits) until the requested dimension's pair is in.
    When the final face lands, the exchange's overlap is charged to the
    rank's tally as two waits: the *window* (post-return to last-face) is
    the time communication had available to hide under compute, the
    *wait* is the part that actually blocked — the recv waits the
    communicator charged the rank's tally for this exchange's faces, read
    back, not clocked again — their difference over the window is the
    measured overlap fraction the solve report compares against the Fig. 4
    model track.
    """

    def __init__(self, engine: RankHaloEngine, padded: np.ndarray,
                 lead: int, handles: dict):
        self.engine = engine
        self.padded = padded
        self.lead = lead
        self.handles = handles
        self._scattered: set = set()
        self._published = False
        # Between the post and the last face the rank waits on nothing
        # else: what its recv waits grow by is this exchange's.
        self._tally = current_tally()
        self._recv_posted = self._recv_waited()
        self._t_post = time.perf_counter()

    @property
    def complete(self) -> bool:
        return len(self._scattered) == len(self.handles)

    def _scatter(self, face: tuple) -> None:
        mu, sign = face
        handle = self.handles[face]
        ghost = self.engine.layout.ghost_slices(mu, -sign, self.lead)
        with span("scatter", kind="scatter", rank=self.engine.rank,
                  stream="compute", mu=mu, sign=sign):
            self.padded[ghost] = handle._data
        record(bytes_moved=2 * handle._data.nbytes)
        self._scattered.add(face)

    def complete_dim(self, mu: int) -> None:
        """Block until both of dimension ``mu``'s faces are scattered.

        Every ``wait_any`` completes exactly one face — of *any*
        dimension, so early arrivals elsewhere are scattered on the way —
        which keeps the recv-wait observation count at one per face,
        identical to the blocking path, whatever the arrival order.
        """
        faces_of_mu = [(mu, +1), (mu, -1)]
        while any(f not in self._scattered for f in faces_of_mu):
            # mu's faces first, so the dimension being drained wins ties.
            outstanding = sorted(
                (f for f in self.handles if f not in self._scattered),
                key=lambda f: (f[0] != mu, f[0], -f[1]),
            )
            ready = [f for f in outstanding if self.handles[f].complete]
            if ready:
                self._scatter(ready[0])
                continue
            with span("wait_face", kind="comm", rank=self.engine.rank,
                      stream="comm wait", mu=mu):
                index = self.engine.comm.wait_any(
                    [self.handles[f] for f in outstanding]
                )
            self._scatter(outstanding[index])
        if self.complete and not self._published:
            self._publish_overlap()

    def _recv_waited(self) -> float:
        """The rank's recv-wait seconds so far, in the tally that was
        current when the faces were posted (0 untallied)."""
        if self._tally is None:
            return 0.0
        key = (self.engine.rank, RECV_WAIT)
        return self._tally.wait_seconds.get(key, (0.0, 0))[0]

    def _publish_overlap(self) -> None:
        self._published = True
        rank = self.engine.rank
        record_wait(rank, OVERLAP_WINDOW, time.perf_counter() - self._t_post)
        record_wait(rank, OVERLAP_WAIT, self._recv_waited() - self._recv_posted)


__all__ = ["PendingExchange", "RankHaloEngine"]
