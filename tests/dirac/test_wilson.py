"""Wilson and Wilson-clover operator: Eq. (2) structure and symmetries."""

import numpy as np
import pytest

from repro.dirac import PHYSICAL, BoundarySpec, WilsonCloverOperator
from repro.lattice import GaugeField, SpinorField
from repro.util.counters import tally


@pytest.fixture(scope="module")
def op(request):
    return None


def make_op(gauge, mass=0.1, csw=0.0, boundary=None):
    kwargs = {} if boundary is None else {"boundary": boundary}
    return WilsonCloverOperator(gauge, mass=mass, csw=csw, **kwargs)


class TestStructure:
    def test_free_field_constant_mode(self, geom44):
        """On the unit gauge, a constant spinor is an eigenvector of M with
        eigenvalue m (the dslash sums to 8 x 1/2 x ... the hopping exactly
        cancels the Wilson term's 4)."""
        unit = GaugeField.unit(geom44)
        op = make_op(unit, mass=0.3)
        x = np.ones(geom44.shape + (4, 3), dtype=np.complex128)
        out = op.apply(x)
        assert np.allclose(out, 0.3 * x, atol=1e-12)

    def test_diagonal_coefficient(self, weak_gauge):
        op = make_op(weak_gauge, mass=-0.2)
        assert op.diagonal_coefficient == pytest.approx(3.8)

    def test_zero_hopping_on_point_far_away(self, geom44, weak_gauge):
        """M is nearest-neighbor: applying it to a point source only
        populates the source site and its 8 neighbors."""
        op = make_op(weak_gauge, mass=0.1)
        src = SpinorField.point_source(geom44, (0, 0, 0, 0)).data
        out = op.apply(src)
        support = np.abs(out).sum(axis=(-1, -2)) > 1e-14
        assert support.sum() == 9
        assert support[0, 0, 0, 0]
        assert support[0, 0, 0, 1] and support[0, 0, 0, 3]  # x +- 1
        assert support[1, 0, 0, 0] and support[3, 0, 0, 0]  # t +- 1

    def test_linearity(self, weak_gauge, rng):
        op = make_op(weak_gauge, csw=1.0)
        geom = weak_gauge.geometry
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        a = 1.3 - 0.7j
        lhs = op.apply(a * x + y)
        rhs = a * op.apply(x) + op.apply(y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_name_and_flops(self, weak_gauge):
        assert make_op(weak_gauge).name == "wilson"
        assert make_op(weak_gauge, csw=1.0).name == "wilson_clover"
        assert make_op(weak_gauge, csw=1.0).flops_per_site > make_op(
            weak_gauge
        ).flops_per_site


class TestGamma5Hermiticity:
    @pytest.mark.parametrize("csw", [0.0, 1.2])
    def test_dagger_consistency(self, weak_gauge, rng, csw):
        op = make_op(weak_gauge, mass=0.05, csw=csw)
        geom = weak_gauge.geometry
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        lhs = np.vdot(y, op.apply(x))
        rhs = np.vdot(op.apply_dagger(y), x)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_dagger_with_antiperiodic_bc(self, weak_gauge, rng):
        op = make_op(weak_gauge, csw=1.0, boundary=PHYSICAL)
        geom = weak_gauge.geometry
        x = SpinorField.random(geom, rng=rng).data
        y = SpinorField.random(geom, rng=rng).data
        assert abs(
            np.vdot(y, op.apply(x)) - np.vdot(op.apply_dagger(y), x)
        ) < 1e-10


class TestBoundaries:
    def test_antiperiodic_differs_from_periodic(self, weak_gauge, rng):
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        a = make_op(weak_gauge).apply(x)
        b = make_op(weak_gauge, boundary=PHYSICAL).apply(x)
        assert np.abs(a - b).max() > 1e-8

    def test_antiperiodic_only_touches_time_edge(self, weak_gauge, rng):
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        a = make_op(weak_gauge).apply(x)
        b = make_op(weak_gauge, boundary=PHYSICAL).apply(x)
        diff = np.abs(a - b).sum(axis=(-1, -2))
        assert np.all(diff[1:-1] == 0)

    def test_dirichlet_cut(self, weak_gauge, rng):
        bc = BoundarySpec(("zero", "periodic", "periodic", "periodic"))
        op = make_op(weak_gauge, boundary=bc)
        src = SpinorField.point_source(weak_gauge.geometry, (0, 2, 2, 2)).data
        out = op.apply(src)
        # The x=0 source must not couple to x=3 through the cut boundary.
        assert np.abs(out[..., 3, :, :]).max() == 0

    def test_with_boundary_clone(self, weak_gauge):
        op = make_op(weak_gauge, csw=1.0)
        cut = op.with_boundary(op.boundary.with_dirichlet((0, 1)))
        assert cut.boundary[0] == "zero"
        # the clover term is reused, not rebuilt
        assert cut._chiral is op._chiral is not None


class TestDiagonalHoppingSplit:
    def test_split_reassembles(self, weak_gauge, rng):
        op = make_op(weak_gauge, csw=1.1)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        total = op.apply(x)
        split = op.apply_site_diagonal(x) + op.apply_hopping(x)
        assert np.abs(total - split).max() < 1e-12


class TestAccounting:
    def test_apply_records(self, weak_gauge, rng):
        op = make_op(weak_gauge, csw=1.0)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        with tally() as t:
            op.apply(x)
        assert t.operator_applications == {"wilson_clover": 1}
        assert t.flops == op.flops_per_site * weak_gauge.geometry.volume

    def test_dslash_records_separately(self, weak_gauge, rng):
        op = make_op(weak_gauge)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        with tally() as t:
            op.dslash(x)
        assert "wilson_dslash" in t.operator_applications
