"""Lattice block decomposition."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.lattice import Geometry, SpinorField
from repro.multigpu import BlockPartition


@pytest.fixture(scope="module")
def setup():
    geom = Geometry((4, 4, 8, 8))
    grid = ProcessGrid((1, 1, 2, 4))
    return geom, grid, BlockPartition(geom, grid)


class TestConstruction:
    def test_local_dims(self, setup):
        geom, grid, part = setup
        assert part.local_dims == (4, 4, 4, 2)
        assert part.local_volume == 128
        assert part.n_ranks == 8

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(Geometry((4, 4, 4, 8)), ProcessGrid((1, 1, 1, 3)))

    def test_odd_local_extent_rejected(self):
        # 6 / 1... 6 over 3 ranks would give local extent 2 (fine), but 6
        # over... use 12 over 2 = 6 fine; over 6 = 2 fine; over 3 = 4 fine.
        # Use extent 4 over 2 ranks -> local 2 (ok); extent 2 over 2 -> 1.
        with pytest.raises(ValueError):
            BlockPartition(Geometry((2, 4, 4, 4)), ProcessGrid((2, 1, 1, 1)))

    def test_origin(self, setup):
        geom, grid, part = setup
        origins = {part.origin(r) for r in range(part.n_ranks)}
        assert (0, 0, 0, 0) in origins
        assert (0, 0, 4, 6) in origins
        assert len(origins) == 8


class TestSplitAssemble:
    def test_roundtrip_spinor(self, setup, rng):
        geom, grid, part = setup
        x = SpinorField.random(geom, rng=rng).data
        blocks = part.split(x)
        assert len(blocks) == 8
        assert blocks[0].shape == (2, 4, 4, 4, 4, 3)
        assert np.array_equal(part.assemble(blocks), x)

    def test_roundtrip_gauge(self, setup, rng):
        from repro.lattice import GaugeField

        geom, grid, part = setup
        u = GaugeField.hot(geom, rng=rng)
        blocks = part.split(u.data, lead=1)
        assert blocks[0].shape == (4, 2, 4, 4, 4, 3, 3)
        assert np.array_equal(part.assemble(blocks, lead=1), u.data)

    def test_split_gauge_wrapper(self, setup):
        from repro.lattice import GaugeField

        geom, grid, part = setup
        u = GaugeField.unit(geom)
        locals_ = part.split_gauge(u)
        assert len(locals_) == 8
        assert locals_[0].geometry == part.local_geometry

    def test_blocks_are_copies(self, setup, rng):
        geom, grid, part = setup
        x = SpinorField.random(geom, rng=rng).data
        blocks = part.split(x)
        blocks[0][...] = 0
        assert np.abs(x).max() > 0

    def test_blocks_tile_disjointly(self, setup):
        geom, grid, part = setup
        cover = np.zeros(geom.shape)
        for r in range(part.n_ranks):
            cover[part.slices(r)] += 1
        assert np.all(cover == 1)

    def test_block_content_matches_origin(self, setup):
        geom, grid, part = setup
        t_coord = geom.coordinate(3).astype(float)
        blocks = part.split(t_coord)
        for r in range(part.n_ranks):
            origin = part.origin(r)
            assert blocks[r].min() == origin[3]

    def test_assemble_wrong_count(self, setup):
        geom, grid, part = setup
        with pytest.raises(ValueError):
            part.assemble([np.zeros((2, 4, 4, 4))] * 3)

    def test_split_wrong_shape(self, setup):
        geom, grid, part = setup
        with pytest.raises(ValueError):
            part.split(np.zeros((2, 2, 2, 2)))


class TestLaneStack:
    """``stack``/``unstack``: the blocks as one lane axis, in rank order."""

    @pytest.mark.parametrize(
        "dims,grid",
        [((4, 4, 8, 8), (1, 1, 2, 4)), ((8, 4, 4, 4), (2, 1, 1, 1)),
         ((4, 8, 4, 8), (2, 2, 1, 2)), ((4, 4, 4, 4), (1, 1, 1, 1))],
    )
    @pytest.mark.parametrize("lead,tail", [(0, (4, 3)), (1, (3,)), (4, ())])
    def test_lanes_are_the_split_blocks(self, dims, grid, lead, tail, rng):
        geom = Geometry(dims)
        part = BlockPartition(geom, ProcessGrid(grid))
        a = rng.standard_normal((2, 3, 2, 2)[:lead] + geom.shape + tail)
        stacked = part.stack(a, lead)
        assert stacked.flags.c_contiguous
        assert np.array_equal(stacked, np.stack(part.split(a, lead), axis=lead))
        back = part.unstack(stacked, lead)
        assert back.flags.c_contiguous and np.array_equal(back, a)

    def test_unstack_to_a_wider_dtype(self, setup, rng):
        """A complex64 correction gathered into the residual's dtype."""
        geom, grid, part = setup
        a = rng.standard_normal(geom.shape).astype(np.float32)
        back = part.unstack(part.stack(a), dtype=np.float64)
        assert back.dtype == np.float64 and np.array_equal(back, a)

    def test_stack_wrong_shape(self, setup):
        geom, grid, part = setup
        with pytest.raises(ValueError):
            part.stack(np.zeros((2, 2, 2, 2)))
