"""Ghost-zone halo exchange: layout, contents, boundary conditions."""

import numpy as np
import pytest

from repro.comm import CommLog, ProcessGrid
from repro.dirac import PERIODIC, PHYSICAL, BoundarySpec
from repro.lattice import Geometry, SpinorField
from repro.multigpu import BlockPartition, HaloExchanger


@pytest.fixture()
def setup():
    geom = Geometry((4, 4, 4, 8))
    grid = ProcessGrid((1, 1, 2, 2))
    part = BlockPartition(geom, grid)
    log = CommLog()
    ex = HaloExchanger(part, depth=1, boundary=PERIODIC, log=log)
    return geom, part, ex, log


class TestLayout:
    def test_padded_dims(self, setup):
        geom, part, ex, log = setup
        assert part.local_dims == (4, 4, 2, 4)
        assert ex.layout.padded_dims == (4, 4, 4, 6)  # +2 in z and t only

    def test_padding_only_on_partitioned_dims(self, setup):
        geom, part, ex, log = setup
        assert ex.layout.padded_dims[0] == part.local_dims[0]
        assert ex.layout.padded_dims[1] == part.local_dims[1]

    def test_padded_origin(self, setup):
        geom, part, ex, log = setup
        assert ex.layout.padded_origin(0) == (0, 0, -1, -1)

    def test_depth_validation(self, setup):
        geom, part, ex, log = setup
        with pytest.raises(ValueError):
            HaloExchanger(part, depth=0)
        with pytest.raises(ValueError):
            HaloExchanger(part, depth=3)  # z local extent 2 < 3

    def test_interior_extraction_roundtrip(self, setup, rng):
        geom, part, ex, log = setup
        x = SpinorField.random(geom, rng=rng).data
        blocks = part.split(x)
        padded = ex.exchange_spinor(blocks)
        for blk, pad in zip(blocks, padded):
            assert np.array_equal(ex.layout.extract_interior(pad), blk)


class TestGhostContents:
    def test_ghosts_match_serial_shift(self, setup, rng):
        """The padded arrays must agree with the corresponding slab of the
        global field: ghost[x] = global[x] for every ghost site."""
        geom, part, ex, log = setup
        # Use the global t-coordinate as a recognizable payload.
        x = np.broadcast_to(
            geom.coordinate(3)[..., None, None].astype(complex),
            geom.shape + (4, 3),
        ).copy()
        padded = ex.exchange_spinor(part.split(x))
        # Rank at t-block 0: its backward t ghost holds t = 7 (wrap).
        rank0 = part.grid.rank_of((0, 0, 0, 0))
        pad = padded[rank0]
        assert np.all(pad[0, 1:-1, :, :].real == 7)  # backward ghost slab
        assert np.all(pad[-1, 1:-1, :, :].real == 4)  # forward ghost: t=4

    def test_corner_regions_stay_zero(self, setup, rng):
        geom, part, ex, log = setup
        x = SpinorField.random(geom, rng=rng).data + 1.0
        padded = ex.exchange_spinor(part.split(x))
        # Corners (ghost in both z and t) are never filled.
        for pad in padded:
            assert np.abs(pad[0, 0]).max() == 0
            assert np.abs(pad[-1, -1]).max() == 0

    def test_no_pending_messages(self, setup, rng):
        geom, part, ex, log = setup
        x = SpinorField.random(geom, rng=rng).data
        ex.exchange_spinor(part.split(x))
        assert ex.mailbox.pending() == 0

    def test_only_partitioned_dims_exchanged(self, setup, rng):
        geom, part, ex, log = setup
        ex.exchange_spinor(part.split(SpinorField.random(geom, rng=rng).data))
        assert log.dimensions_exchanged() == {2, 3}

    def test_message_sizes_match_faces(self, setup, rng):
        geom, part, ex, log = setup
        x = SpinorField.random(geom, rng=rng).data
        ex.exchange_spinor(part.split(x))
        by_dim = log.bytes_by_dimension()
        # Per rank, per direction: one face of 24 complex doubles per site.
        t_face_sites = 4 * 4 * 2  # x*y*z local extents
        expected_t = part.n_ranks * 2 * t_face_sites * 12 * 16
        assert by_dim[3] == expected_t


class TestBoundaryConditions:
    def test_antiperiodic_flips_wrapped_faces(self, rng):
        geom = Geometry((4, 4, 4, 8))
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        ex = HaloExchanger(part, depth=1, boundary=PHYSICAL)
        x = np.ones(geom.shape + (4, 3), dtype=np.complex128)
        padded = ex.exchange_spinor(part.split(x))
        # Block 0's backward-t ghost crossed the global boundary: -1.
        assert np.all(padded[0][0].real == -1)
        assert np.all(padded[0][-1].real == 1)  # forward ghost: interior hop
        # Top block's forward ghost wrapped: -1.
        assert np.all(padded[1][-1].real == -1)
        assert np.all(padded[1][0].real == 1)

    def test_zero_bc_blanks_wrapped_faces(self, rng):
        geom = Geometry((4, 4, 4, 8))
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        bc = BoundarySpec(("periodic", "periodic", "periodic", "zero"))
        ex = HaloExchanger(part, depth=1, boundary=bc)
        x = np.ones(geom.shape + (4, 3), dtype=np.complex128)
        padded = ex.exchange_spinor(part.split(x))
        assert np.abs(padded[0][0]).max() == 0
        assert np.all(padded[0][-1].real == 1)

    def test_gauge_exchange_ignores_fermion_bc(self, rng):
        geom = Geometry((4, 4, 4, 8))
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        ex = HaloExchanger(part, depth=1, boundary=PHYSICAL)
        u = np.ones((4,) + geom.shape + (3, 3), dtype=np.complex128)
        padded = ex.exchange_gauge(part.split(u, lead=1))
        assert np.all(padded[0][:, 0].real == 1)  # no sign flip


class TestDepth3:
    def test_three_deep_ghosts(self, rng):
        geom = Geometry((4, 4, 4, 8))
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        ex = HaloExchanger(part, depth=3)
        x = np.broadcast_to(
            geom.coordinate(3)[..., None].astype(complex), geom.shape + (3,)
        ).copy()
        padded = ex.exchange_spinor(part.split(x))
        # Block 0 covers t = 0..3; backward ghost slabs hold t = 5, 6, 7.
        assert padded[0].shape[0] == 4 + 6
        assert np.all(padded[0][0].real == 5)
        assert np.all(padded[0][2].real == 7)
        assert np.all(padded[0][-3].real == 4)
        assert np.all(padded[0][-1].real == 6)


class TestBufferReuse:
    def test_spinor_staging_buffers_are_reused(self, setup, rng):
        """Consecutive spinor exchanges of same-shaped fields return the
        same padded arrays (one allocation for the exchanger lifetime)."""
        geom, part, ex, log = setup
        x = SpinorField.random(geom, rng=rng).data
        first = ex.exchange_spinor(part.split(x))
        second = ex.exchange_spinor(part.split(x))
        for a, b in zip(first, second):
            assert a is b

    def test_reused_buffers_hold_correct_contents(self, setup, rng):
        """The second exchange fully overwrites interior and ghosts, and
        the never-written corners stay zero."""
        geom, part, ex, log = setup
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        ex.exchange_spinor(part.split(x))
        padded = ex.exchange_spinor(part.split(y))
        locals_y = part.split(y)
        for rank, pad in enumerate(padded):
            assert np.array_equal(pad[ex.layout.interior_slices()], locals_y[rank])
            # z/t corner of the padded array was never written by either
            # exchange and must still be zero.
            assert np.abs(pad[0, 0, 0, 0]).max() == 0.0

    def test_gauge_exchange_allocates_fresh(self, setup, rng):
        """Gauge ghosts are retained by local operators, so consecutive
        gauge exchanges must not alias each other."""
        geom, part, ex, log = setup
        u = np.asarray(
            SpinorField.random(geom, rng=rng).data[..., :3]
        )[None].repeat(4, axis=0)  # (4, sites..., 4, 3) link-like field
        first = ex.exchange_gauge(part.split(u, lead=1))
        second = ex.exchange_gauge(part.split(u, lead=1))
        for a, b in zip(first, second):
            assert a is not b
