"""Multi-dimensional lattice partitioning across the virtual GPU cluster
(Sec. 6 of the paper): block decomposition, ghost-zone halo exchange,
interior/exterior kernel split, and the per-rank operator and vector
space a rank program runs on (:class:`RankHaloEngine`,
:class:`RankOperator`, :class:`RankSpace`) over the shared layout
arithmetic (:class:`HaloLayout`).  :class:`HaloExchanger` drives one
engine per rank from a single thread, for ledgers and timing."""

from repro.multigpu.partition import BlockPartition
from repro.multigpu.layout import HaloLayout
from repro.multigpu.halo import HaloExchanger
from repro.multigpu.rank_halo import RankHaloEngine
from repro.multigpu.rank_op import RankOperator
from repro.multigpu.rank_space import BatchedRankSpace, RankSpace

__all__ = [
    "BlockPartition",
    "HaloLayout",
    "HaloExchanger",
    "RankHaloEngine",
    "RankOperator",
    "RankSpace",
    "BatchedRankSpace",
]
