"""Halo-exchanger edge cases: serial grids, self-neighbors, repeated use."""

import numpy as np
import pytest

from rank_stack import rank_apply
from repro.comm import ProcessGrid
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition, HaloExchanger


class TestSerialGrid:
    def test_no_padding_no_messages(self, geom44, rng):
        part = BlockPartition(geom44, ProcessGrid((1, 1, 1, 1)))
        ex = HaloExchanger(part, depth=1)
        x = SpinorField.random(geom44, rng=rng).data
        padded = ex.exchange_spinor([x])
        assert padded[0].shape == x.shape  # nothing partitioned: no pad
        assert ex.mailbox.pending() == 0
        assert np.array_equal(ex.layout.extract_interior(padded[0]), x)

    def test_distributed_op_on_one_rank_equals_serial(self, geom44, rng):
        gauge = GaugeField.weak(geom44, epsilon=0.25, rng=2)
        serial = WilsonCloverOperator(gauge, mass=0.2, csw=1.0,
                                      boundary=PHYSICAL)
        x = SpinorField.random(geom44, rng=rng).data
        out = rank_apply(
            "wilson_clover", gauge, 0.2, ProcessGrid((1, 1, 1, 1)), x,
            csw=1.0, boundary=PHYSICAL,
        )
        assert np.abs(out - serial.apply(x)).max() < 1e-13


class TestSelfNeighbor:
    def test_two_rank_wraparound_both_ghosts_from_same_peer(self, rng):
        """With a 2-rank grid each rank's forward and backward neighbors
        are the same peer; both ghosts must still land correctly."""
        geom = Geometry((4, 4, 4, 8))
        part = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        ex = HaloExchanger(part, depth=1)
        t_field = np.broadcast_to(
            geom.coordinate(3)[..., None, None].astype(complex),
            geom.shape + (4, 3),
        ).copy()
        padded = ex.exchange_spinor(part.split(t_field))
        # rank 0 holds t=0..3: backward ghost t=7, forward ghost t=4.
        assert np.all(padded[0][0].real == 7)
        assert np.all(padded[0][-1].real == 4)
        # rank 1 holds t=4..7: backward ghost t=3, forward ghost t=0.
        assert np.all(padded[1][0].real == 3)
        assert np.all(padded[1][-1].real == 0)


class TestRepeatedUse:
    def test_exchanger_is_reusable(self, geom448, rng):
        """Mailbox queues must drain completely every exchange so the
        engine can run thousands of applications (one per matvec)."""
        part = BlockPartition(geom448, ProcessGrid((1, 1, 2, 2)))
        ex = HaloExchanger(part, depth=1)
        for i in range(5):
            x = SpinorField.random(geom448, rng=i).data
            padded = ex.exchange_spinor(part.split(x))
            assert ex.mailbox.pending() == 0
            for rank, pad in enumerate(padded):
                assert np.array_equal(
                    ex.layout.extract_interior(pad), part.split(x)[rank]
                )

    def test_mismatched_rank_count_rejected(self, geom448, rng):
        part = BlockPartition(geom448, ProcessGrid((1, 1, 2, 2)))
        ex = HaloExchanger(part, depth=1)
        with pytest.raises(ValueError):
            ex.exchange_spinor([SpinorField.random(geom448, rng=rng).data])
