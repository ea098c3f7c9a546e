"""Distributed operators on the rank stack: equality with the serial
reference for every discretization, partitioning, boundary condition and
execution path (scatter -> rank program -> gather, ``rank_stack.py``)."""

import numpy as np
import pytest

from rank_stack import on_ranks, rank_apply
from repro.comm import ProcessGrid
from repro.dirac import (
    AsqtadOperator,
    NaiveStaggeredOperator,
    PERIODIC,
    PHYSICAL,
    WilsonCloverOperator,
)
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition, HaloLayout
from repro.util.counters import tally


@pytest.fixture(scope="module")
def geom():
    return Geometry((4, 4, 4, 8))


@pytest.fixture(scope="module")
def gauge(geom):
    return GaugeField.weak(geom, epsilon=0.3, rng=55)


GRIDS = [
    ProcessGrid((1, 1, 1, 2)),
    ProcessGrid((1, 1, 2, 2)),
    ProcessGrid((2, 1, 1, 2)),
    ProcessGrid((2, 2, 2, 2)),
]


class TestWilsonDistributed:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.label)
    @pytest.mark.parametrize("bc", [PERIODIC, PHYSICAL], ids=["per", "anti"])
    def test_fused_equals_serial(self, geom, gauge, grid, bc, rng):
        serial = WilsonCloverOperator(gauge, mass=0.1, csw=1.1, boundary=bc)
        x = SpinorField.random(geom, rng=rng).data
        out = rank_apply(
            "wilson_clover", gauge, 0.1, grid, x, csw=1.1, boundary=bc
        )
        assert np.abs(out - serial.apply(x)).max() < 1e-12

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.label)
    def test_split_kernel_path_equals_serial(self, geom, gauge, grid, rng):
        """Interior kernel + per-dimension exterior kernels == full
        operator (the Sec. 6.2 decomposition)."""
        serial = WilsonCloverOperator(gauge, mass=0.1, csw=1.1)
        x = SpinorField.random(geom, rng=rng).data
        out = rank_apply(
            "wilson_clover", gauge, 0.1, grid, x, csw=1.1, schedule="split"
        )
        assert np.abs(out - serial.apply(x)).max() < 1e-11

    def test_dagger_equals_serial(self, geom, gauge, rng):
        grid = ProcessGrid((1, 1, 2, 2))
        serial = WilsonCloverOperator(gauge, mass=0.1, csw=1.1, boundary=PHYSICAL)
        x = SpinorField.random(geom, rng=rng).data
        out = rank_apply(
            "wilson_clover", gauge, 0.1, grid, x, csw=1.1, boundary=PHYSICAL,
            body="apply_dagger",
        )
        assert np.abs(out - serial.apply_dagger(x)).max() < 1e-12

    def test_plain_wilson_no_clover(self, geom, gauge, rng):
        grid = ProcessGrid((2, 1, 2, 1))
        serial = WilsonCloverOperator(gauge, mass=0.1, csw=0.0)
        x = SpinorField.random(geom, rng=rng).data
        out = rank_apply("wilson_clover", gauge, 0.1, grid, x)
        assert np.abs(out - serial.apply(x)).max() < 1e-12


class TestStaggeredDistributed:
    @pytest.mark.parametrize(
        "grid",
        [ProcessGrid((1, 1, 1, 2)), ProcessGrid((1, 2, 2, 2))],
        ids=lambda g: g.label,
    )
    def test_naive_staggered(self, geom, gauge, grid, rng):
        serial = NaiveStaggeredOperator(gauge, mass=0.1, boundary=PHYSICAL)
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        out = rank_apply("staggered", gauge, 0.1, grid, x, boundary=PHYSICAL)
        assert np.abs(out - serial.apply(x)).max() < 1e-12

    def test_asqtad_depth3_halo(self, geom, gauge, rng):
        """The 3-hop Naik term across T with depth-3 ghosts."""
        serial = AsqtadOperator.from_gauge(gauge, mass=0.05, boundary=PHYSICAL)
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        out = rank_apply(
            "asqtad", serial.links, 0.05, ProcessGrid((1, 1, 1, 2)), x,
            boundary=PHYSICAL,
        )
        assert np.array_equal(out, serial.apply(x))

    @pytest.mark.slow
    def test_asqtad_multi_dim(self, rng):
        geom = Geometry((4, 8, 8, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=77)
        serial = AsqtadOperator.from_gauge(gauge, mass=0.05)
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        out = rank_apply(
            "asqtad", serial.links, 0.05, ProcessGrid((1, 2, 2, 2)), x
        )
        assert np.array_equal(out, serial.apply(x))

    def test_asqtad_split_kernels(self, geom, gauge, rng):
        serial = AsqtadOperator.from_gauge(gauge, mass=0.05)
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        out = rank_apply(
            "asqtad", serial.links, 0.05, ProcessGrid((1, 1, 1, 2)), x,
            schedule="split",
        )
        assert np.abs(out - serial.apply(x)).max() < 1e-12

    def test_asqtad_rejects_thin_blocks(self, geom):
        """Blocks thinner than the depth-3 ghost: the layout refuses."""
        partition = BlockPartition(geom, ProcessGrid((2, 1, 1, 1)))
        with pytest.raises(ValueError, match="thinner than the ghost depth"):
            HaloLayout(partition, depth=3)


def _normal(sigma):
    """``M^+ M x + sigma x`` composed inside the rank program (two halo
    exchanges)."""
    return lambda op, x: op.apply_dagger(op.apply(x)) + sigma * x


class TestNormalAndLogging:
    def test_distributed_normal(self, geom, gauge, rng):
        serial = NaiveStaggeredOperator(gauge, mass=0.2, boundary=PHYSICAL)
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        ref = serial.apply_dagger(serial.apply(x))
        out = rank_apply(
            "staggered", gauge, 0.2, ProcessGrid((1, 1, 2, 2)), x,
            boundary=PHYSICAL, body=_normal(0.0),
        )
        assert np.abs(out - ref).max() < 1e-12

    def test_shifted_normal(self, geom, gauge, rng):
        grid = ProcessGrid((1, 1, 1, 2))
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        base = rank_apply("staggered", gauge, 0.2, grid, x, body=_normal(0.0))
        shifted = rank_apply(
            "staggered", gauge, 0.2, grid, x, body=_normal(0.3)
        )
        assert np.allclose(shifted, base + 0.3 * x)

    def test_gauge_exchanged_once(self, geom, gauge, rng):
        """The message ledger of a rank program that builds its operator
        and applies it ``n`` times: one gauge exchange, then spinor
        traffic only."""
        grid = ProcessGrid((1, 1, 1, 2))
        x = SpinorField.random(geom, rng=rng).data
        ledger = {}
        for n in (0, 1, 2):
            def body(op, x_loc, n=n):
                for _ in range(n):
                    op.apply(x_loc)

            with tally() as t:
                on_ranks("wilson_clover", gauge, 0.1, grid, x, csw=1.0,
                         body=body)
            ledger[n] = (t.messages, t.comm_bytes)
        per_exchange = 2 * 2  # 2 dirs x 2 ranks
        assert ledger[0][0] == per_exchange  # the one-time gauge exchange
        # Every apply adds exactly one spinor exchange: no further gauge
        # traffic, in messages or in bytes.
        assert ledger[1][0] - ledger[0][0] == per_exchange
        assert ledger[2][0] - ledger[0][0] == 2 * per_exchange
        spinor_face_bytes = x[0].nbytes  # one t-slice of the global field
        assert ledger[2][1] - ledger[1][1] == per_exchange * spinor_face_bytes
