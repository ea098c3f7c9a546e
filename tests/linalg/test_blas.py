"""BLAS layer: numerics and cost accounting."""

import numpy as np
import pytest

from repro.linalg import blas
from repro.util.counters import tally


@pytest.fixture()
def vecs(rng):
    n = 256
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, y


class TestNumerics:
    def test_norm2(self, vecs):
        x, _ = vecs
        assert blas.norm2(x) == pytest.approx(float(np.vdot(x, x).real))

    def test_cdot(self, vecs):
        x, y = vecs
        assert blas.cdot(x, y) == pytest.approx(complex(np.vdot(x, y)))

    def test_rdot(self, vecs):
        x, y = vecs
        assert blas.rdot(x, y) == pytest.approx(float(np.vdot(x, y).real))

    def test_axpy(self, vecs):
        x, y = vecs
        assert np.allclose(blas.axpy(2.5, x, y), y + 2.5 * x)

    def test_caxpy(self, vecs):
        x, y = vecs
        a = 1.5 - 0.5j
        assert np.allclose(blas.caxpy(a, x, y), y + a * x)

    def test_xpay(self, vecs):
        x, y = vecs
        assert np.allclose(blas.xpay(x, -0.5, y), x - 0.5 * y)

    def test_cxpay(self, vecs):
        x, y = vecs
        a = 0.5 + 2j
        assert np.allclose(blas.cxpay(x, a, y), x + a * y)

    def test_axpby(self, vecs):
        x, y = vecs
        assert np.allclose(blas.axpby(2.0, x, -1.0, y), 2 * x - y)

    def test_caxpby(self, vecs):
        x, y = vecs
        a, b = 1j, 2.0 + 0j
        assert np.allclose(blas.caxpby(a, x, b, y), a * x + b * y)

    def test_scale(self, vecs):
        x, _ = vecs
        assert np.allclose(blas.scale(3.0, x), 3 * x)

    def test_copy_and_zero(self, vecs):
        x, _ = vecs
        c = blas.copy(x)
        assert np.array_equal(c, x) and c is not x
        z = blas.zero_like(x)
        assert not np.any(z)

    def test_inputs_not_mutated(self, vecs):
        x, y = vecs
        x0, y0 = x.copy(), y.copy()
        blas.axpy(1.0, x, y)
        blas.caxpby(1j, x, 2.0 + 0j, y)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)


class TestAccounting:
    def test_norm2_counts_flops_and_reduction(self, vecs):
        x, _ = vecs
        with tally() as t:
            blas.norm2(x)
        assert t.flops == 4 * x.size
        assert t.reductions == 1

    def test_cdot_counts(self, vecs):
        x, y = vecs
        with tally() as t:
            blas.cdot(x, y)
        assert t.flops == 8 * x.size
        assert t.reductions == 1

    def test_axpy_no_reduction(self, vecs):
        x, y = vecs
        with tally() as t:
            blas.axpy(1.0, x, y)
        assert t.flops == 4 * x.size
        assert t.reductions == 0
        assert t.bytes_moved == 3 * x.nbytes

    def test_copy_counts_bytes_only(self, vecs):
        x, _ = vecs
        with tally() as t:
            blas.copy(x)
        assert t.flops == 0
        assert t.bytes_moved == 2 * x.nbytes

    def test_no_tally_is_silent(self, vecs):
        x, y = vecs
        blas.cdot(x, y)  # must not raise outside a tally


DTYPES = [np.complex128, np.complex64]


@pytest.fixture()
def batch(rng):
    shape = (3, 4, 5, 3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return x, y, a


class TestBatchedFamily:
    """The batched family is the scalar family row by row: same bits,
    same dtypes (reductions in double, updates in the field's dtype)."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_reductions_are_the_scalar_ones_in_double(self, batch, dtype):
        x, y, _ = (v.astype(dtype) for v in batch)
        norms, dots, rdots = blas.bnorm2(x), blas.bcdot(x, y), blas.brdot(x, y)
        assert norms.dtype == rdots.dtype == np.float64
        assert dots.dtype == np.complex128
        for i in range(3):
            assert norms[i] == blas.norm2(x[i])
            assert dots[i] == blas.cdot(x[i], y[i])
            assert rdots[i] == blas.rdot(x[i], y[i])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_updates_are_the_scalar_ones_in_the_field_dtype(self, batch, dtype):
        x, y, a = batch
        x, y = x.astype(dtype), y.astype(dtype)
        for coeff in (a, a.real):  # complex128 and float64 coefficient arrays
            updates = (
                (blas.baxpy(coeff, x, y), lambda c, i: y[i] + c * x[i]),
                (blas.bxpay(x, coeff, y), lambda c, i: x[i] + c * y[i]),
                (blas.bscale(coeff, x), lambda c, i: c * x[i]),
            )
            for got, scalar in updates:
                assert got.dtype == dtype
                for i in range(3):
                    # .item(): the Python scalar the scalar family is handed.
                    assert np.array_equal(got[i], scalar(coeff[i].item(), i))

    def test_scalar_coefficient_broadcasts(self, batch):
        x, y, _ = (v.astype(np.complex64) for v in batch)
        got = blas.bxpay(x, -1.0, y)
        assert got.dtype == np.complex64
        assert np.array_equal(got, x + -1.0 * y)

    def test_low_precision_correction_keeps_the_iterate_dtype(self, batch):
        """``y + a*x`` with a complex64 ``x`` and a complex128 ``y`` is
        complex128, as in the scalar family (defect correction's update)."""
        x, y, a = batch
        got = blas.baxpy(a, x.astype(np.complex64), y)
        assert got.dtype == np.complex128
        for i in range(3):
            assert np.array_equal(
                got[i], y[i] + a[i].item() * x[i].astype(np.complex64)
            )

    def test_inputs_not_mutated(self, batch):
        x, y, a = batch
        x0, y0 = x.copy(), y.copy()
        blas.baxpy(a, x, y)
        blas.bxpay(x, a, y)
        blas.bscale(a, x)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_one_reduction_per_call_or_per_stacked_block(self, batch):
        x, y, _ = batch
        with tally() as t:
            blas.bnorm2(x)
            blas.bcdot(x, y)
        assert t.reductions == 2
        with tally() as t:
            blas.bnorm2(x, reductions=3)
            blas.bcdot(x, y, reductions=3)
        assert t.reductions == 6
        assert t.flops == (4 + 8) * x.size
