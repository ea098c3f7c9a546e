"""Even-odd (Schur complement) preconditioning of Wilson-clover, on
half-lattice fields of one parity."""

import numpy as np
import pytest

from repro.dirac import EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.dirac.evenodd import from_parities, to_parity
from repro.lattice import GaugeField, SpinorField
from repro.solvers import bicgstab


@pytest.fixture(scope="module")
def setup():
    from repro.lattice import Geometry

    geom = Geometry((4, 4, 4, 4))
    gauge = GaugeField.weak(geom, epsilon=0.3, rng=77)
    op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
    return geom, op, EvenOddPreconditionedWilson(op)


def lattice_last(x):
    return np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))


class TestParityProject:
    def test_projection(self, geom44, rng):
        """A field is its two parities, and each parity's half-lattice
        field holds exactly the sites of that parity."""
        x = SpinorField.random(geom44, rng=rng).data
        e, o = to_parity(x, 0), to_parity(x, 1)
        assert e.shape == o.shape == geom44.shape[:-1] + (2, 4, 3)
        assert np.array_equal(from_parities(e, o), x)
        zero = np.zeros_like(e)
        assert np.array_equal(from_parities(e, zero), x * geom44.even_mask[..., None, None])
        assert np.array_equal(from_parities(zero, o), x * geom44.odd_mask[..., None, None])


class TestSchurIdentity:
    def test_schur_consistency(self, setup, rng):
        """If M x = b then Mhat x_e = prepared_rhs(b): the defining
        property of the Schur complement."""
        geom, op, eo = setup
        x_true = SpinorField.random(geom, rng=rng).data
        b = op.apply(x_true)
        lhs = eo.apply(to_parity(x_true, 0))
        rhs = eo.prepare_rhs(b)
        assert np.abs(lhs - rhs).max() < 1e-11

    def test_reconstruction(self, setup, rng):
        geom, op, eo = setup
        x_true = SpinorField.random(geom, rng=rng).data
        b = op.apply(x_true)
        x_full = eo.reconstruct(to_parity(x_true, 0), b)
        assert np.abs(x_full - x_true).max() < 1e-11

    def test_output_is_even_supported(self, setup, rng):
        """``M (x_e, 1/2 C^-1 D x_e)`` is ``(Mhat x_e, 0)``: the
        complement is M's action on the even sites once the odd ones are
        eliminated, and it returns an even half-lattice field."""
        geom, op, eo = setup
        x_e = to_parity(SpinorField.random(geom, rng=rng).data, 0)
        out = eo.apply(x_e)
        assert out.shape == x_e.shape and out.dtype == x_e.dtype
        x_o = eo.reconstruct(x_e, np.zeros(geom.shape + (4, 3), complex))
        mx = op.apply(from_parities(x_e, to_parity(x_o, 1)))
        assert np.abs(to_parity(mx, 1)).max() < 1e-12
        assert np.abs(to_parity(mx, 0) - out).max() < 1e-12
        assert np.array_equal(to_parity(x_o, 0), x_e)

    def test_c_inverse(self, setup, rng):
        """The packed ``C_oo^{-1}`` inverts ``C_oo`` site by site."""
        geom, op, eo = setup
        x_o = lattice_last(to_parity(SpinorField.random(geom, rng=rng).data, 1))
        c_x = eo._tail(
            np.zeros_like(x_o), x_o, False, 0.0, op.diagonal_coefficient,
            eo._odd,
        )
        back = eo._tail(c_x, None, False, inverse=eo._inverse)
        assert np.abs(back - x_o).max() < 1e-11

    def test_gamma5_hermiticity_of_schur(self, setup, rng):
        geom, op, eo = setup
        x = to_parity(SpinorField.random(geom, rng=rng).data, 0)
        y = to_parity(SpinorField.random(geom, rng=1).data, 0)
        lhs = np.vdot(y, eo.apply(x))
        rhs = np.vdot(eo.apply_dagger(y), x)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1)


class TestSchurSolve:
    def test_full_solution_via_schur(self, setup, rng):
        """Solving the preconditioned system + reconstruction equals
        solving the full system (Sec. 3.1's standard acceleration)."""
        geom, op, eo = setup
        b = SpinorField.random(geom, rng=rng).data
        rhs = eo.prepare_rhs(b)
        res = bicgstab(eo.apply, rhs, tol=1e-10, maxiter=500)
        assert res.converged
        x = eo.reconstruct(res.x, b)
        r = b - op.apply(x)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-8

    def test_schur_converges_faster_than_full(self, setup, rng):
        geom, op, eo = setup
        b = SpinorField.random(geom, rng=rng).data
        full = bicgstab(op.apply, b, tol=1e-8, maxiter=500)
        schur = bicgstab(eo.apply, eo.prepare_rhs(b), tol=1e-8, maxiter=500)
        assert schur.converged and full.converged
        assert schur.iterations <= full.iterations


class TestFullSystemOnTheParities:
    def test_apply_full_is_the_matrix_bit_for_bit(self, setup, rng):
        geom, op, eo = setup
        x = SpinorField.random(geom, rng=rng).data
        assert np.array_equal(eo.apply_full(x), op.apply(x))
        batch = np.stack([x, SpinorField.random(geom, rng=3).data])
        assert np.array_equal(eo.apply_full(batch), op.apply(batch))

    def test_full_residual_is_the_schur_one(self, setup, rng):
        """``r_full = (r_hat on the even sites, 0 on the odd ones)``."""
        geom, op, eo = setup
        b = SpinorField.random(geom, rng=rng).data
        rhs = eo.prepare_rhs(b)
        res = bicgstab(eo.apply, rhs, tol=1e-6, maxiter=500)
        x = eo.reconstruct(res.x, b)
        r_full = b - op.apply(x)
        r_hat = rhs - eo.apply(res.x)
        assert np.abs(to_parity(r_full, 1)).max() < 1e-13
        assert np.abs(to_parity(r_full, 0) - r_hat).max() < 1e-13

    def test_x_extent_of_two_mod_four(self, rng):
        """A half lattice's X extent may be odd: X = 6 has rows of 3."""
        from repro.lattice import Geometry

        geom = Geometry((6, 4, 4, 4))
        op = WilsonCloverOperator(
            GaugeField.weak(geom, epsilon=0.3, rng=5), mass=0.2, csw=1.0
        )
        eo = EvenOddPreconditionedWilson(op)
        assert eo.geometry.dims == (3, 4, 4, 4) and eo.geometry.half
        x = SpinorField.random(geom, rng=rng).data
        b = op.apply(x)
        assert np.abs(eo.apply(to_parity(x, 0)) - eo.prepare_rhs(b)).max() < 1e-11
        assert np.array_equal(eo.apply_full(x), b)

    def test_derived_once_per_configuration(self, setup):
        """Links by parity, the clover term on each parity and C_oo^-1 are
        kept with the configuration: a second complement builds nothing."""
        geom, op, eo = setup
        again = EvenOddPreconditionedWilson(op)
        assert again._links is eo._links
        assert again._inverse is eo._inverse
        assert again._even is eo._even and again._odd is eo._odd
        assert not eo._inverse.flags.writeable
