"""Batched (multi-RHS) stencils must equal stacked single-RHS
applications bit for bit: the leading batch axis is layout, never
different arithmetic — every kernel carries it as elementwise lanes of
the one single-RHS body.  Covered: Wilson-clover (projected fast path,
reference path, daggers), staggered, asqtad, and the even-odd Schur
complement."""

import numpy as np
import pytest

from repro.dirac.evenodd import EvenOddPreconditionedWilson, to_parity
from repro.dirac.staggered import AsqtadOperator, NaiveStaggeredOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.gauge.asqtad import build_asqtad_links
from repro.lattice import SpinorField
from repro.util.counters import tally

B = 3


@pytest.fixture()
def wilson_batch(geom44, rng):
    return np.stack(
        [SpinorField.random(geom44, rng=100 + i).data for i in range(B)]
    )


@pytest.fixture()
def staggered_batch(geom44, rng):
    return np.stack(
        [SpinorField.random(geom44, nspin=1, rng=200 + i).data for i in range(B)]
    )


def stacked(apply_fn, xb):
    return np.stack([apply_fn(xb[i]) for i in range(xb.shape[0])])


class TestWilsonBatched:
    def test_projected_fast_path(self, weak_gauge, wilson_batch):
        op = WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        assert np.array_equal(op.apply(wilson_batch), stacked(op.apply, wilson_batch))

    def test_reference_path(self, weak_gauge, wilson_batch):
        op = WilsonCloverOperator(
            weak_gauge, mass=0.1, csw=1.0, kernel="numpy_ref"
        )
        assert np.array_equal(op.apply(wilson_batch), stacked(op.apply, wilson_batch))

    def test_dagger(self, weak_gauge, wilson_batch):
        op = WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        assert np.array_equal(
            op.apply_dagger(wilson_batch), stacked(op.apply_dagger, wilson_batch)
        )

    def test_flops_scale_with_batch(self, weak_gauge, wilson_batch):
        op = WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        with tally() as t1:
            op.apply(wilson_batch[0])
        with tally() as tb:
            op.apply(wilson_batch)
        assert tb.flops == B * t1.flops


class TestEvenOddBatched:
    def test_schur_apply(self, weak_gauge, wilson_batch):
        eo = EvenOddPreconditionedWilson(
            WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        )
        x_e = to_parity(wilson_batch, 0)
        assert np.array_equal(eo.apply(x_e), stacked(eo.apply, x_e))

    def test_prepare_and_reconstruct(self, weak_gauge, wilson_batch):
        eo = EvenOddPreconditionedWilson(
            WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        )
        rhs_b = eo.prepare_rhs(wilson_batch)
        assert np.array_equal(rhs_b, stacked(eo.prepare_rhs, wilson_batch))
        rec_b = eo.reconstruct(rhs_b, wilson_batch)
        rec_s = np.stack(
            [eo.reconstruct(rhs_b[i], wilson_batch[i]) for i in range(B)]
        )
        assert np.array_equal(rec_b, rec_s)


class TestStaggeredBatched:
    def test_naive_staggered(self, weak_gauge, staggered_batch):
        op = NaiveStaggeredOperator(weak_gauge, mass=0.1)
        assert np.array_equal(
            op.apply(staggered_batch), stacked(op.apply, staggered_batch)
        )

    def test_asqtad(self, weak_gauge, staggered_batch):
        links = build_asqtad_links(weak_gauge)
        op = AsqtadOperator(links, mass=0.1)
        assert np.array_equal(
            op.apply(staggered_batch), stacked(op.apply, staggered_batch)
        )

    def test_asqtad_dagger(self, weak_gauge, staggered_batch):
        links = build_asqtad_links(weak_gauge)
        op = AsqtadOperator(links, mass=0.1)
        assert np.array_equal(
            op.apply_dagger(staggered_batch),
            stacked(op.apply_dagger, staggered_batch),
        )


class TestLeadDetection:
    def test_rejects_bogus_rank(self, weak_gauge, wilson_batch):
        op = WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        with pytest.raises(ValueError):
            op.field_lead(wilson_batch[None])  # two leading axes

    def test_batch_size(self, weak_gauge, wilson_batch):
        op = WilsonCloverOperator(weak_gauge, mass=0.1, csw=1.0)
        assert op.batch_size(wilson_batch) == B
        assert op.batch_size(wilson_batch[0]) == 1
