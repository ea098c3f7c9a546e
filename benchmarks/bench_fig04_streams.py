"""Figure 4: the 9-stream overlap schedule.

Regenerates the timeline structure of Fig. 4 for representative
partitionings: gather kernels, communication overlapping the interior
kernel, sequential exterior kernels, and the GPU-idle window that appears
once communication outruns the interior kernel.  Also times the *real*
halo-exchange engine (gather -> mailbox -> scatter) on actual data.
"""

from __future__ import annotations

import pytest

from benchmarks.paper_data import print_table
from repro.comm.grid import choose_grid
from repro.perfmodel.device import M2050
from repro.perfmodel.interconnect import InterconnectSpec
from repro.perfmodel.kernels import KernelModel, OperatorKind
from repro.perfmodel.streams import model_dslash_time
from repro.precision import HALF

VOLUME = (32, 32, 32, 256)
KERNEL = KernelModel(OperatorKind.WILSON_CLOVER, HALF, 12)
NET = InterconnectSpec()


def timeline_for(n_gpus: int):
    grid = choose_grid(n_gpus, (3, 2, 1, 0), VOLUME)
    local = tuple(v // g for v, g in zip(VOLUME, grid.dims))
    return grid, model_dslash_time(
        KERNEL, M2050, NET, local, grid.partitioned_dims
    )


def test_fig4_timeline_report():
    rows = []
    for n in (8, 32, 128, 256):
        grid, tl = timeline_for(n)
        rows.append(
            [
                n,
                grid.label,
                tl.gather_time * 1e6,
                tl.interior_time * 1e6,
                tl.comm_time * 1e6,
                tl.exterior_total * 1e6,
                tl.idle_time * 1e6,
                tl.total_time * 1e6,
            ]
        )
    print_table(
        "fig04",
        "Fig. 4 — dslash stream timeline (microseconds per application)",
        ["GPUs", "partition", "gather", "interior", "comm", "exterior",
         "GPU idle", "total"],
        rows,
    )


def test_idle_window_grows_with_gpus():
    """"For small subvolumes, the total communication time ... is likely
    to exceed the interior kernel run time, resulting in some interval
    when the GPU is idle"."""
    _, tl8 = timeline_for(8)
    _, tl256 = timeline_for(256)
    assert tl8.idle_time <= tl256.idle_time
    assert tl256.idle_time > 0


def test_overlap_saves_time():
    """Overlapping comm with the interior kernel beats serializing them."""
    _, tl = timeline_for(32)
    serialized = (
        tl.gather_time + tl.interior_time + tl.comm_time + tl.exterior_total
    )
    assert tl.total_time < serialized


def test_exterior_kernels_one_per_partitioned_dim():
    grid, tl = timeline_for(256)
    assert set(tl.exterior_times) == set(grid.partitioned_dims)


@pytest.mark.benchmark(group="fig4-halo")
def test_bench_real_halo_exchange(benchmark, small_gauge):
    """Real engine: one full spinor halo exchange (pack, send, scatter)."""
    from repro.comm import ProcessGrid
    from repro.lattice import SpinorField
    from repro.multigpu import BlockPartition, HaloExchanger

    part = BlockPartition(small_gauge.geometry, ProcessGrid((1, 1, 2, 2)))
    ex = HaloExchanger(part, depth=1)
    blocks = part.split(SpinorField.random(small_gauge.geometry, rng=3).data)
    benchmark(ex.exchange_spinor, blocks)


def _matvec_program(comm, task):
    """One rank: build its Wilson-clover endpoint (one-time gauge ghost
    exchange), then apply it ``applies`` times."""
    from repro.multigpu import HaloLayout, RankHaloEngine
    from repro.multigpu.rank_op import rank_wilson_clover

    partition, gauge_block, clover_block, x_block, applies = task
    engine = RankHaloEngine(HaloLayout(partition, depth=1), comm)
    op = rank_wilson_clover(
        engine, gauge_block, 0.1, 1.0, clover_block=clover_block
    )
    for _ in range(applies):
        out = op.apply(x_block)
    return out


@pytest.mark.benchmark(group="fig4-halo")
def test_bench_real_distributed_matvec(benchmark, small_gauge):
    """Real engine: the rank Wilson-clover operator under the sequential
    backend — one build plus 8 applies (exchange + stencils) per round,
    so the one-time gauge exchange is a small share of the time."""
    from repro.comm import ProcessGrid, run_rank_programs
    from repro.dirac.clover import build_clover_field
    from repro.lattice import SpinorField
    from repro.multigpu import BlockPartition

    part = BlockPartition(small_gauge.geometry, ProcessGrid((1, 1, 2, 2)))
    links = part.split(small_gauge.data, lead=1)
    clover = part.split(build_clover_field(small_gauge, 1.0))
    xs = part.split(SpinorField.random(small_gauge.geometry, rng=4).data)
    tasks = [
        (part, links[r], clover[r], xs[r], 8) for r in range(part.n_ranks)
    ]
    benchmark(
        run_rank_programs, _matvec_program, part.n_ranks, tasks,
        backend="sequential",
    )


if __name__ == "__main__":
    test_fig4_timeline_report()
