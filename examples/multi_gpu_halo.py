#!/usr/bin/env python
"""Inside the multi-GPU engine: partitioning, ghost zones, kernel split.

Walks through the machinery of Sec. 6 explicitly on the virtual cluster,
the way the paper runs it — one program per GPU:

* partition a lattice over a 1x1x2x2 "GPU" grid,
* run a *rank program* on every rank: exchange the gauge ghost zones
  once, build the rank's Wilson-clover endpoint, and apply it by the
  fused path and by the interior/exterior kernel decomposition,
* verify both against the serial operator, and
* show the communication ledger (bytes per dimension, per rank) of the
  same exchanges, logged message by message by the single-thread
  ``HaloExchanger`` driver.

Run:  python examples/multi_gpu_halo.py
"""

import numpy as np

from repro.comm import CommLog, ProcessGrid, run_rank_programs
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.dirac.clover import build_clover_field
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.lattice.geometry import DIR_NAMES
from repro.multigpu import (
    BlockPartition,
    HaloExchanger,
    HaloLayout,
    RankHaloEngine,
    RankOperator,
)
from repro.multigpu.rank_op import rank_wilson_clover

MASS, CSW = 0.1, 1.0


def rank_program(comm, task):
    """One rank's share: its own blocks in, its own result blocks out."""
    partition, gauge_block, clover_block, x_block = task
    engine = RankHaloEngine(
        HaloLayout(partition, depth=1), comm, boundary=PHYSICAL
    )
    # One-time gauge ghost exchange, through this rank's own engine.
    fused = rank_wilson_clover(
        engine, gauge_block, MASS, CSW, boundary=PHYSICAL,
        clover_block=clover_block,
    )
    # Same padded stencil, scheduled as interior + exterior kernels.
    split = RankOperator(engine, fused.local_op, schedule="split")
    return fused.apply(x_block), split.apply(x_block)


def main() -> None:
    geometry = Geometry((8, 8, 8, 16))
    gauge = GaugeField.weak(geometry, epsilon=0.25, rng=31)
    grid = ProcessGrid((1, 1, 2, 2))
    print(f"lattice {geometry!r} over a {grid} — "
          f"{grid.size} virtual GPUs, partitioned dims: {grid.label}")

    part = BlockPartition(geometry, grid)
    log = CommLog()
    ex = HaloExchanger(part, depth=1, boundary=PHYSICAL, log=log)
    print(f"local sub-lattice per GPU: {part.local_dims} "
          f"({part.local_volume} sites)")
    print(f"padded (ghost) layout:     {ex.layout.padded_dims}  "
          f"(depth-{ex.depth} ghost slabs on partitioned dims only)")
    gauge_blocks = part.split(gauge.data, lead=1)
    ex.exchange_gauge(gauge_blocks)
    gauge_bytes = sum(e.nbytes for e in log.events if e.kind == "gauge")
    print(f"one-time gauge ghost exchange: {gauge_bytes / 1e6:.2f} MB")

    serial = WilsonCloverOperator(gauge, mass=MASS, csw=CSW, boundary=PHYSICAL)
    x = SpinorField.random(geometry, rng=6).data
    xs = part.split(x)

    log.clear()
    ex.exchange_spinor(xs)
    print("\nper-application spinor halo traffic:")
    for mu, nbytes in sorted(log.bytes_by_dimension().items()):
        print(f"  dim {DIR_NAMES[mu]}: {nbytes / 1e6:.3f} MB "
              f"across {sum(1 for e in log.events if e.mu == mu)} messages")
    per_rank = log.bytes_per_rank(grid.size)
    print(f"  per-rank send volume: {[f'{b/1e6:.3f}' for b in per_rank]} MB")

    # The clover field is built globally (its leaves read corner sites no
    # halo exchange fills) and handed to each rank as a block.
    clover_blocks = part.split(build_clover_field(gauge, CSW))
    outcomes = run_rank_programs(
        rank_program,
        grid.size,
        [(part, gauge_blocks[r], clover_blocks[r], xs[r])
         for r in range(grid.size)],
        backend="sequential",
    )
    fused = part.assemble([o.value[0] for o in outcomes])
    split = part.assemble([o.value[1] for o in outcomes])
    reference = serial.apply(x)
    print("\nvalidation against the serial operator:")
    print(f"  fused path   max |diff| = {np.abs(fused - reference).max():.2e}")
    print(f"  split path   max |diff| = {np.abs(split - reference).max():.2e}")
    print("  (interior kernel + one exterior kernel per partitioned dim)")

    # Surface-to-volume arithmetic, the quantity that rules strong scaling.
    s2v = part.local_geometry.surface_to_volume(grid.partitioned_dims)
    print(f"\nlocal surface-to-volume ratio: {s2v:.3f} "
          "(grows as GPUs are added — the strong-scaling obstacle)")


if __name__ == "__main__":
    main()
