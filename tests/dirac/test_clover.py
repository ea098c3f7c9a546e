"""The clover term: Hermiticity, chirality structure, inversion."""

import threading

import numpy as np
import pytest

from repro.dirac.clover import (
    apply_chiral_sites,
    apply_clover,
    build_clover_blocks,
    build_clover_field,
    chiral_blocks,
    clover_site_matrices,
    dense_clover,
    invert_site_matrices,
)
from repro.gauge.heatbath import HeatbathUpdater
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.linalg.gamma import GAMMA5


@pytest.fixture(scope="module")
def clover(weak_gauge_module):
    return build_clover_field(weak_gauge_module, csw=1.3)


@pytest.fixture(scope="module")
def weak_gauge_module():
    from repro.lattice import Geometry

    return GaugeField.weak(Geometry((4, 4, 4, 4)), epsilon=0.3, rng=101)


class TestCloverField:
    def test_shape(self, clover, weak_gauge_module):
        assert clover.shape == weak_gauge_module.geometry.shape + (12, 12)

    def test_vanishes_on_unit_gauge(self, geom44):
        a = build_clover_field(GaugeField.unit(geom44), csw=1.0)
        assert np.abs(a).max() < 1e-13

    def test_hermitian(self, clover):
        assert np.abs(clover - np.conj(np.swapaxes(clover, -1, -2))).max() < 1e-12

    def test_linear_in_csw(self, weak_gauge_module):
        a1 = build_clover_field(weak_gauge_module, csw=1.0)
        a2 = build_clover_field(weak_gauge_module, csw=2.0)
        assert np.allclose(a2, 2 * a1)

    def test_chirality_block_diagonal(self, clover):
        """[A, gamma5 (x) 1] = 0: the clover matrix never mixes the upper
        (spins 0,1) and lower (spins 2,3) chirality blocks — footnote 1's
        two-6x6-block structure."""
        g5 = np.kron(GAMMA5, np.eye(3))
        comm = clover @ g5 - g5 @ clover
        assert np.abs(comm).max() < 1e-12

    def test_off_chirality_blocks_zero(self, clover):
        assert np.abs(clover[..., :6, 6:]).max() < 1e-12
        assert np.abs(clover[..., 6:, :6]).max() < 1e-12


class TestBuiltOncePerGauge:
    """``build_clover_blocks`` — the one form a configuration keeps of its
    clover term — hands the blocks it built back as long as the links they
    were built from are still there; the dense field is expanded from
    them afresh for whoever asks."""

    @pytest.fixture()
    def gauge(self):
        return GaugeField.weak(Geometry((4, 4, 4, 4)), epsilon=0.3, rng=7)

    def test_second_build_is_the_same_read_only_array(self, gauge):
        first = build_clover_blocks(gauge, csw=1.1)
        assert build_clover_blocks(gauge, csw=1.1) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0, 0, 0, 0, 0] = 1.0

    def test_the_dense_field_is_derived_and_the_callers_own(self, gauge):
        blocks = build_clover_blocks(gauge, csw=1.1)
        assert blocks.shape == (2, 6, 6, 4, 4, 4, 4)
        assert blocks.dtype == np.complex128 and blocks.flags.c_contiguous
        dense = build_clover_field(gauge, csw=1.1)
        assert dense is not build_clover_field(gauge, csw=1.1)
        assert dense.flags.writeable
        assert np.array_equal(chiral_blocks(dense), blocks)
        assert np.array_equal(dense_clover(blocks), dense)
        assert build_clover_blocks(gauge, csw=1.1) is blocks

    def test_equal_links_on_another_object_build_their_own(self, gauge):
        first = build_clover_blocks(gauge, csw=1.1)
        other = build_clover_blocks(gauge.copy(), csw=1.1)
        assert other is not first and np.array_equal(other, first)

    def test_different_csw_misses(self, gauge):
        a1 = build_clover_blocks(gauge, csw=1.0)
        a2 = build_clover_blocks(gauge, csw=2.0)
        assert a2 is not a1 and np.array_equal(a2, 2.0 * a1)
        assert np.array_equal(build_clover_blocks(gauge, csw=1.0), a1)

    def test_in_place_link_update_invalidates(self, gauge):
        stale = build_clover_blocks(gauge, csw=1.0)
        gauge.data[0, 1, 2, 3, 0] = gauge.data[1, 1, 2, 3, 0]
        fresh = build_clover_blocks(gauge, csw=1.0)
        assert fresh is not stale and not np.array_equal(fresh, stale)
        assert np.array_equal(fresh, build_clover_blocks(gauge.copy(), csw=1.0))

    def test_heatbath_sweep_invalidates(self, gauge):
        """The sweep primitive updates links in place (``sweep`` copies
        first; HMC-style callers do not have to)."""
        stale = build_clover_blocks(gauge, csw=1.0)
        updater = HeatbathUpdater(beta=5.8, rng_seed=3)
        updater._sweep_links(gauge, updater._heatbath_subgroup)
        fresh = build_clover_blocks(gauge, csw=1.0)
        assert fresh is not stale
        assert np.array_equal(fresh, build_clover_blocks(gauge.copy(), csw=1.0))

    def test_replaced_link_array_invalidates(self, gauge):
        stale = build_clover_blocks(gauge, csw=1.0)
        gauge.data = GaugeField.weak(gauge.geometry, epsilon=0.3, rng=8).data
        assert not np.array_equal(build_clover_blocks(gauge, csw=1.0), stale)

    def test_concurrent_builds_agree(self, gauge):
        reference = build_clover_blocks(gauge.copy(), csw=1.0)
        results, barrier = [None] * 4, threading.Barrier(4)

        def build(i):
            barrier.wait(timeout=30)
            results[i] = build_clover_blocks(gauge, csw=1.0)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for field in results:
            assert np.array_equal(field, reference)
            assert not field.flags.writeable

    def test_field_dies_with_its_gauge(self):
        import gc
        import weakref

        gauge = GaugeField.weak(Geometry((4, 4, 4, 4)), epsilon=0.3, rng=9)
        field = weakref.ref(build_clover_blocks(gauge, csw=1.0))
        del gauge
        gc.collect()
        assert field() is None


class TestChiralBlocks:
    """The packed form: the two 6x6 chirality blocks, lattice-last."""

    def test_unpacking_reproduces_the_field(self, clover):
        packed = chiral_blocks(clover)
        assert packed.shape == (2, 6, 6) + clover.shape[:-2]
        assert np.shares_memory(packed, clover)
        unpacked = np.zeros_like(clover)
        unpacked[..., :6, :6] = np.moveaxis(packed[0], (0, 1), (-2, -1))
        unpacked[..., 6:, 6:] = np.moveaxis(packed[1], (0, 1), (-2, -1))
        assert np.array_equal(unpacked, clover)

    def test_blocks_are_hermitian(self, clover):
        packed = chiral_blocks(clover)
        assert np.abs(packed - np.conj(np.swapaxes(packed, 1, 2))).max() < 1e-12

    def test_lane_axis_is_carried(self, clover):
        lanes = np.stack([clover, 2.0 * clover])
        packed = chiral_blocks(lanes)
        assert packed.shape == (2, 6, 6, 2) + clover.shape[:-2]
        assert np.array_equal(packed[:, :, :, 1], 2.0 * chiral_blocks(clover))

    def test_mixing_chiralities_is_refused(self, clover):
        bad = clover.copy()
        bad[1, 2, 3, 0, 2, 7] = 1e-300
        with pytest.raises(ValueError, match="chirality"):
            chiral_blocks(bad)
        bad = clover.copy()
        bad[0, 0, 0, 0, 11, 0] = np.nan
        with pytest.raises(ValueError, match="chirality"):
            chiral_blocks(bad)

    @pytest.mark.parametrize("batch", [0, 3], ids=["single", "batched"])
    def test_lattice_last_apply_matches_dense(self, clover, batch, rng):
        shape = ((batch,) if batch else ()) + (4, 4, 4, 4, 4, 3)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        xs = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
        out = np.ones_like(xs)
        got = apply_chiral_sites(chiral_blocks(clover), xs, out, bool(batch))
        assert got is out
        expected = 1.0 + apply_clover(clover, x)
        assert np.allclose(np.moveaxis(out, (0, 1), (-2, -1)), expected,
                           rtol=1e-13, atol=1e-13)


class TestApplyClover:
    def test_matches_dense_multiply(self, clover, rng):
        x = rng.standard_normal((4, 4, 4, 4, 4, 3)) + 1j * rng.standard_normal(
            (4, 4, 4, 4, 4, 3)
        )
        out = apply_clover(clover, x)
        ref = np.einsum("...ij,...j->...i", clover, x.reshape(4, 4, 4, 4, 12))
        assert np.allclose(out, ref.reshape(x.shape))

    def test_linearity(self, clover, rng):
        x = rng.standard_normal((4, 4, 4, 4, 4, 3)) + 0j
        assert np.allclose(apply_clover(clover, 2 * x), 2 * apply_clover(clover, x))


class TestSiteMatrices:
    def test_without_clover(self):
        c = clover_site_matrices(None, 4.1, (2, 2, 2, 2))
        assert c.shape == (2, 2, 2, 2, 12, 12)
        assert np.allclose(c, 4.1 * np.eye(12))

    def test_with_clover(self, clover):
        c = clover_site_matrices(clover, 4.1, clover.shape[:-2])
        assert np.allclose(c - clover, 4.1 * np.eye(12))

    def test_inversion(self, clover):
        c = clover_site_matrices(clover, 4.1, clover.shape[:-2])
        cinv = invert_site_matrices(c)
        prod = c @ cinv
        assert np.abs(prod - np.eye(12)).max() < 1e-10
