"""Multi-dimensional lattice partitioning across the virtual GPU cluster
(Sec. 6 of the paper): block decomposition, ghost-zone halo exchange,
interior/exterior kernel split, and the per-rank operator a rank program
runs on (:class:`RankHaloEngine`, :class:`RankOperator`) over the shared
layout arithmetic (:class:`HaloLayout`); its vector space is
:class:`repro.solvers.space.ArraySpace` given the rank's communicator.
:class:`HaloExchanger` drives one engine per rank from a single thread,
for ledgers and timing."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".partition": ("BlockPartition",),
    ".layout": ("HaloLayout",),
    ".halo": ("HaloExchanger",),
    ".rank_halo": ("RankHaloEngine",),
    ".rank_op": ("RankOperator",),
})
