"""Replay measured runs through the performance model.

The functional layer records what a solve *did* — operator applications,
BLAS flops, reductions (``Tally``), and every halo message (the ``send``
trace spans of :class:`~repro.multigpu.rank_halo.RankHaloEngine`).
This module converts those records into modeled Edge-cluster wall-clock
time, which is how the benchmark harness grounds the figure tables in real
algorithmic measurements rather than assumed workloads.

Two levels are provided:

* :func:`replay_comm` — charge every traced ghost-zone message against the
  interconnect pipeline (with per-rank concurrency: ranks communicate in
  parallel, so the busiest rank sets the time);
* :func:`replay_solve` — combine a Tally's operator/BLAS/reduction counts
  with per-kernel model times into a full modeled solve time.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.perfmodel.device import GPUSpec
from repro.perfmodel.interconnect import InterconnectSpec
from repro.perfmodel.kernels import KernelModel
from repro.util.counters import Tally

if TYPE_CHECKING:
    from repro.trace import TraceEvent


def replay_comm(
    events: Iterable[TraceEvent],
    net: InterconnectSpec,
    n_ranks: int,
    field: str | None = "spinor",
) -> float:
    """Modeled time for the traced communication.

    ``events`` are the events of a trace (``tracing().events``); each
    ``send`` span is one message, charged to its *sender* (the span's
    rank) at its ``nbytes``.  Ranks progress concurrently, so the busiest
    sender's pipeline time is returned.  ``field`` filters messages by
    the field they moved (spinor halos by default; pass None for every
    message, gauge ghosts included).
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    busy = [0.0] * n_ranks
    for ev in events:
        if ev.name != "send" or ev.kind != "comm":
            continue
        if field is not None and ev.args["field"] != field:
            continue
        busy[ev.rank] += (
            net.average_face_time(ev.args["nbytes"]) + net.per_face_overhead
        )
    return max(busy)


@dataclass
class ReplayedSolve:
    """Modeled wall-clock breakdown of a measured solve."""

    operator_time: float
    blas_time: float
    reduction_time: float
    comm_time: float

    @property
    def total(self) -> float:
        return (
            self.operator_time
            + self.blas_time
            + self.reduction_time
            + self.comm_time
        )


def replay_solve(
    tally: Tally,
    kernel: KernelModel,
    gpu: GPUSpec,
    net: InterconnectSpec,
    local_sites: int,
    n_ranks: int,
    events: Iterable[TraceEvent] | None = None,
    operator_names: tuple[str, ...] | None = None,
) -> ReplayedSolve:
    """Convert a measured Tally (+ optionally its trace) into modeled time.

    Parameters
    ----------
    tally:
        Counters recorded around the real solve.
    kernel:
        The kernel model used for operator applications.
    local_sites:
        Per-GPU sub-volume of the modeled deployment (the *measured* run
        may have been on a smaller lattice; the model scales per
        application, so iteration counts — the algorithmic content —
        carry over).
    events:
        Trace events of the same run; their ``send`` spans are charged
        through :func:`replay_comm` (no communication time without them).
    operator_names:
        Which ``tally.operator_applications`` entries count as full
        operator applications (default: all of them).
    """
    names = operator_names or tuple(tally.operator_applications)
    n_apps = sum(tally.operator_applications.get(n, 0) for n in names)
    op_time = n_apps * kernel.time_on(gpu, local_sites)

    # BLAS flops (minus the operators' own flops) are bandwidth-bound:
    # charge them at 8 flops per 16 bytes of traffic in the kernel's
    # precision, through the device bandwidth.
    blas_flops = max(
        tally.flops - n_apps * kernel.flops_per_site * local_sites * n_ranks, 0
    )
    bytes_per_flop = 2.0 * kernel.precision.bytes_per_real / 4.0
    blas_time = (
        blas_flops * bytes_per_flop / (gpu.effective_bandwidth(local_sites) * 1e9)
    ) / max(n_ranks, 1)

    reduction_time = tally.reductions * net.allreduce_time(n_ranks)
    comm_time = (
        replay_comm(events, net, n_ranks) if events is not None else 0.0
    )
    return ReplayedSolve(
        operator_time=op_time,
        blas_time=blas_time,
        reduction_time=reduction_time,
        comm_time=comm_time,
    )
