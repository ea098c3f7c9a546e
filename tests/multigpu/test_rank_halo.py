"""Per-rank halo engine vs the global-view exchanger: same bits, same
layout arithmetic, same cost accounting — under every SPMD backend."""

import numpy as np
import pytest

from repro.comm.backends import process_backend_available, run_rank_programs
from repro.comm.grid import ProcessGrid
from repro.lattice import Geometry, SpinorField
from repro.multigpu.halo import HaloExchanger
from repro.multigpu.layout import HaloLayout
from repro.multigpu.partition import BlockPartition
from repro.multigpu.rank_halo import RankHaloEngine
from repro.util.counters import tally

backend_param = pytest.mark.parametrize(
    "backend",
    [
        "sequential",
        "threads",
        pytest.param(
            "processes",
            marks=pytest.mark.skipif(
                not process_backend_available(),
                reason="needs the POSIX fork start method",
            ),
        ),
    ],
)


def _partition(geom448):
    return BlockPartition(geom448, ProcessGrid((1, 1, 2, 2)))


def _exchange_program(comm, task):
    """One rank's whole spinor exchange, as an SPMD rank program."""
    partition, block, boundary = task
    layout = HaloLayout(partition, depth=1)
    engine = RankHaloEngine(layout, comm, boundary=boundary)
    return engine.exchange_spinor(block).copy()


class TestLayoutEquivalence:
    def test_layout_matches_exchanger_geometry(self, geom448):
        """The arrays the exchanger hands back are laid out as a fresh
        HaloLayout says: padded in the partitioned (z, t) directions
        only, one ghost site before each block's origin."""
        partition = _partition(geom448)
        exch = HaloExchanger(partition, depth=1)
        layout = HaloLayout(partition, depth=1)
        assert layout.partitioned_dims == (2, 3)
        assert layout.padded_dims == exch.layout.padded_dims == (4, 4, 4, 6)
        assert layout.padded_geometry.dims == layout.padded_dims
        blocks = partition.split(SpinorField.random(geom448, rng=3).data)
        for rank, pad in enumerate(exch.exchange_spinor(blocks)):
            assert pad.shape[:4] == tuple(reversed(layout.padded_dims))
            x0, y0, z0, t0 = partition.origin(rank)
            assert layout.padded_origin(rank) == (x0, y0, z0 - 1, t0 - 1)

    def test_interior_roundtrip(self, geom448):
        partition = _partition(geom448)
        layout = HaloLayout(partition, depth=1)
        block = SpinorField.random(geom448, rng=5).data[
            partition.slices(0)
        ]
        pad = np.zeros(layout.padded_shape(block, 0), dtype=block.dtype)
        pad[layout.interior_slices()] = block
        assert np.array_equal(layout.extract_interior(pad), block)


class TestRankEnginesMatchGlobalExchanger:
    @backend_param
    def test_spinor_exchange_bitwise(self, geom448, backend):
        from repro.dirac.base import BoundarySpec

        partition = _partition(geom448)
        boundary = BoundarySpec(("periodic",) * 3 + ("antiperiodic",))
        field = SpinorField.random(geom448, rng=17).data
        blocks = partition.split(field)

        exch = HaloExchanger(partition, depth=1, boundary=boundary)
        reference = exch.exchange_spinor(blocks)

        outcomes = run_rank_programs(
            _exchange_program,
            partition.n_ranks,
            payloads=[(partition, blocks[r], boundary)
                      for r in range(partition.n_ranks)],
            backend=backend,
            timeout=30.0,
        )
        for rank, outcome in enumerate(outcomes):
            assert np.array_equal(outcome.value, reference[rank]), (
                f"rank {rank} padded array diverged under {backend}"
            )

    def test_gauge_exchange_bitwise(self, geom448, weak_gauge448):
        partition = _partition(geom448)
        exch = HaloExchanger(partition, depth=1)
        blocks = partition.split(weak_gauge448.data, lead=1)
        reference = exch.exchange_gauge(blocks)

        def program(comm, task):
            partition, block = task
            engine = RankHaloEngine(HaloLayout(partition, depth=1), comm)
            return engine.exchange_gauge(block)

        outcomes = run_rank_programs(
            program,
            partition.n_ranks,
            payloads=[(partition, blocks[r]) for r in range(partition.n_ranks)],
            backend="sequential",
            timeout=30.0,
        )
        for rank, outcome in enumerate(outcomes):
            assert np.array_equal(outcome.value, reference[rank])

    @backend_param
    def test_merged_tallies_match_global_view(self, geom448, backend):
        from repro.dirac.base import PERIODIC

        partition = _partition(geom448)
        field = SpinorField.random(geom448, rng=23).data
        blocks = partition.split(field)

        with tally() as globalview:
            exch = HaloExchanger(partition, depth=1)
            exch.exchange_spinor(blocks)
        with tally() as merged:
            run_rank_programs(
                _exchange_program,
                partition.n_ranks,
                payloads=[(partition, blocks[r], PERIODIC)
                          for r in range(partition.n_ranks)],
                backend=backend,
                timeout=30.0,
            )
        assert merged.comm_bytes == globalview.comm_bytes
        assert merged.messages == globalview.messages
        assert merged.bytes_moved == globalview.bytes_moved
        assert merged.flops == globalview.flops == 0

    def test_no_messages_left_behind(self, geom448):
        from repro.dirac.base import PERIODIC

        partition = _partition(geom448)
        blocks = partition.split(SpinorField.random(geom448, rng=3).data)
        outcomes = run_rank_programs(
            _exchange_program,
            partition.n_ranks,
            payloads=[(partition, blocks[r], PERIODIC)
                      for r in range(partition.n_ranks)],
            backend="sequential",
            timeout=30.0,
        )
        assert len(outcomes) == partition.n_ranks


def _driver_engines(partition, **kwargs):
    """All ranks' engines over one mailbox, driven from a single thread
    (driver mode) so the sends/receives pair up without a backend."""
    from repro.comm import Mailbox, MailboxCommunicator

    layout = HaloLayout(partition, depth=1)
    mailbox = Mailbox(partition.n_ranks)
    return layout, [
        RankHaloEngine(layout, MailboxCommunicator(mailbox, r), **kwargs)
        for r in range(partition.n_ranks)
    ]


def _driver_exchange(engines, blocks):
    """Full spinor exchange in the global-view phase order: all stages,
    then per-face all sends before all receives."""
    pads = [e.stage(b) for e, b in zip(engines, blocks)]
    for mu in engines[0].partitioned_dims:
        for sign in (+1, -1):
            for e, b in zip(engines, blocks):
                e.send_faces(b, mu, sign)
            for e, pad in zip(engines, pads):
                e.recv_face(pad, mu, sign)
    return pads


class TestGatherAccounting:
    """Satellite fix: ``bytes_moved`` of the gather kernel is recorded
    *after* boundary and precision handling — a zero-boundary fill never
    reads the field, a quantized face is written at wire size."""

    def test_interior_face_charges_read_plus_write(self, geom448):
        partition = _partition(geom448)
        layout, engines = _driver_engines(partition)
        block = partition.split(SpinorField.random(geom448, rng=41).data)[0]
        face = np.ascontiguousarray(block[layout.face_slices(3, +1)])
        # Rank 0's forward-t neighbor is rank 1: an interior face.
        with tally() as t:
            engines[0].send_faces(block, 3, +1)
        assert t.bytes_moved == 2 * face.nbytes
        assert t.comm_bytes == face.nbytes
        assert t.messages == 1

    def test_zero_boundary_face_is_write_only(self, geom448):
        from repro.dirac.base import BoundarySpec

        partition = _partition(geom448)
        boundary = BoundarySpec(("periodic",) * 3 + ("zero",))
        layout, engines = _driver_engines(partition, boundary=boundary)
        block = partition.split(SpinorField.random(geom448, rng=41).data)[0]
        face = np.ascontiguousarray(block[layout.face_slices(3, -1)])
        # Rank 0's backward-t face wraps the global boundary: with a zero
        # (Dirichlet) condition the gather is a fill, not a copy.
        with tally() as t:
            engines[0].send_faces(block, 3, -1)
        assert t.bytes_moved == face.nbytes
        assert t.comm_bytes == face.nbytes

    def test_quantized_face_charges_wire_bytes(self, geom448):
        from repro.multigpu.layout import halo_logical_nbytes
        from repro.precision import HALF

        partition = _partition(geom448)
        layout, engines = _driver_engines(partition, precision=HALF)
        block = partition.split(SpinorField.random(geom448, rng=41).data)[0]
        face = np.ascontiguousarray(block[layout.face_slices(3, +1)])
        wire = halo_logical_nbytes(
            HALF.convert(face, site_axes=2), HALF, site_axes=2
        )
        assert wire < face.nbytes
        with tally() as t:
            engines[0].send_faces(block, 3, +1)
        # Read at storage precision, written at wire precision.
        assert t.bytes_moved == face.nbytes + wire
        assert t.comm_bytes == wire


class TestPadReuse:
    def test_spinor_pad_is_reused_gauge_is_not(self, geom448):
        partition = _partition(geom448)
        _, engines = _driver_engines(partition)
        blocks = partition.split(SpinorField.random(geom448, rng=9).data)
        first = [e.stage(b) for e, b in zip(engines, blocks)]
        second = [e.stage(b) for e, b in zip(engines, blocks)]
        for a, b in zip(first, second):
            assert a is b  # same staging buffer, GPU-ghost-buffer contract
        fresh = [e.stage(b, reuse=False) for e, b in zip(engines, blocks)]
        for a, b in zip(first, fresh):
            assert a is not b

    def test_distinct_shapes_do_not_alias(self, geom448):
        """One pooled buffer per (lead, shape, dtype): a batched exchange
        must never scribble over the single-field staging buffer."""
        partition = _partition(geom448)
        _, engines = _driver_engines(partition)
        engine = engines[0]
        block = partition.split(SpinorField.random(geom448, rng=9).data)[0]
        batch = np.stack([block, block])
        single = engine.stage(block)
        batched = engine.stage(batch, lead=1)
        assert single is not batched
        assert not np.shares_memory(single, batched)
        assert engine.stage(block) is single  # pool key survived
        assert engine.stage(batch, lead=1) is batched

    def test_reused_pad_matches_fresh_exchange_and_corners_stay_zero(
        self, geom448
    ):
        """The GPU-ghost-buffer contract, end to end: a second exchange
        through the *same* pooled buffer produces bit-identical ghosts,
        and the corner sites (which no exchange ever writes) are still
        zero."""
        partition = _partition(geom448)
        layout, engines = _driver_engines(partition)
        exch = HaloExchanger(partition, depth=1)
        for rng_seed in (9, 10):  # second iteration reuses the pads
            field = SpinorField.random(geom448, rng=rng_seed).data
            blocks = partition.split(field)
            reference = exch.exchange_spinor(blocks)
            pads = _driver_exchange(engines, blocks)
            written = np.zeros(pads[0].shape, dtype=bool)
            written[layout.interior_slices()] = True
            for mu in layout.partitioned_dims:
                for sign in (+1, -1):
                    written[layout.ghost_slices(mu, sign)] = True
            for rank, pad in enumerate(pads):
                assert np.array_equal(pad, reference[rank]), rank
                assert not pad[~written].any(), rank
