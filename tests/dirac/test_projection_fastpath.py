"""Spin-projected fast dslash path vs the reference full-spinor path.

Both evaluate the same exact contraction in a different association order,
so they must agree to machine precision — for plain Wilson, Wilson-clover,
the even-odd Schur complement, Dirichlet-cut Schwarz blocks, and the
distributed operator, with and without the shared link caches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank_stack import rank_apply
from repro.comm import ProcessGrid
from repro.dirac import (
    BoundarySpec,
    EvenOddPreconditionedWilson,
    PERIODIC,
    PHYSICAL,
    WilsonCloverOperator,
)
from repro.dirac.evenodd import to_parity
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.linalg.gamma import projector, projector_factors, projector_tables
from repro.multigpu import BlockPartition

SETTINGS = dict(max_examples=15, deadline=None)

#: Machine-precision agreement: the two paths differ only in summation
#: order, so a small multiple of double eps covers them.
TOL = 1e-12

MIXED = BoundarySpec(("zero", "antiperiodic", "periodic", "antiperiodic"))


def make_pair(gauge, mass=0.1, csw=0.0, boundary=PERIODIC):
    fast = WilsonCloverOperator(
        gauge, mass=mass, csw=csw, boundary=boundary, kernel="numpy"
    )
    ref = WilsonCloverOperator(
        gauge, mass=mass, csw=csw, boundary=boundary, kernel="numpy_ref"
    )
    return fast, ref


class TestFactorization:
    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_rank2_factors_reassemble_projector(self, mu, sign):
        proj, recon = projector_factors(mu, sign)
        assert proj.shape == (2, 4)
        assert recon.shape == (4, 2)
        assert np.allclose(recon @ proj, 2.0 * projector(mu, sign), atol=1e-15)

    @pytest.mark.parametrize("mu", range(4))
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_tables_match_dense_factors(self, mu, sign, rng):
        """The slice/coefficient tables compute exactly the dense P and R."""
        proj, recon = projector_factors(mu, sign)
        tab = projector_tables(mu, sign)
        x = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
        half = tab.project(x)
        assert np.allclose(half, np.matmul(proj, x), atol=1e-15)
        full = np.empty_like(x)
        full[..., :2, :] = half
        full[..., 2:, :] = tab.reconstruct_lower(half)
        assert np.allclose(full, np.matmul(recon @ proj, x), atol=1e-14)


class TestWilsonEquivalence:
    @pytest.mark.parametrize("csw", [0.0, 1.2], ids=["wilson", "clover"])
    @pytest.mark.parametrize(
        "bc", [PERIODIC, PHYSICAL, MIXED], ids=["per", "anti", "mixed"]
    )
    def test_apply_and_dagger_agree(self, csw, bc, rng):
        geom = Geometry((4, 6, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=17)
        fast, ref = make_pair(gauge, mass=0.12, csw=csw, boundary=bc)
        x = SpinorField.random(geom, rng=rng).data
        scale = np.abs(ref.apply(x)).max()
        assert np.abs(fast.apply(x) - ref.apply(x)).max() < TOL * scale
        assert (
            np.abs(fast.apply_dagger(x) - ref.apply_dagger(x)).max()
            < TOL * scale
        )

    def test_cached_dagger_shared_by_with_boundary(self, weak_gauge, rng):
        fast, ref = make_pair(weak_gauge, csw=1.0)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        fast.apply(x)  # build the link caches
        cut = fast.with_boundary(MIXED)
        assert fast._links_soa is not None
        assert cut._links_soa is fast._links_soa
        ref_cut = ref.with_boundary(MIXED)
        assert np.abs(cut.apply(x) - ref_cut.apply(x)).max() < TOL

    def test_block_restriction_rebuilds_caches(self, weak_gauge, rng):
        fast, ref = make_pair(weak_gauge, csw=1.0)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        fast.apply(x)  # caches for the *global* gauge
        part = BlockPartition(weak_gauge.geometry, ProcessGrid((1, 1, 2, 2)))
        block_fast = fast.restrict_to_block(part, 1)
        block_ref = ref.restrict_to_block(part, 1)
        assert block_fast._links_soa is None  # sliced gauge: fresh caches
        xb = SpinorField.random(block_fast.geometry, rng=rng).data
        assert np.abs(block_fast.apply(xb) - block_ref.apply(xb)).max() < TOL


class TestEvenOddEquivalence:
    def test_schur_complement_agrees(self, weak_gauge, rng):
        """The half-lattice complement and its conversions agree with the
        reference tier's, built from the full-spinor dslash on the full
        lattice."""
        fast, ref = make_pair(weak_gauge, mass=0.2, csw=1.0)
        eo_fast = EvenOddPreconditionedWilson(fast)
        eo_ref = EvenOddPreconditionedWilson(ref)
        assert eo_ref._reference and not eo_fast._reference
        geom = weak_gauge.geometry
        b = SpinorField.random(geom, rng=rng).data
        x = to_parity(SpinorField.random(geom, rng=rng).data, 0)
        for got, expected in (
            (eo_fast.apply(x), eo_ref.apply(x)),
            (eo_fast.apply_dagger(x), eo_ref.apply_dagger(x)),
            (eo_fast.prepare_rhs(b), eo_ref.prepare_rhs(b)),
            (eo_fast.reconstruct(x, b), eo_ref.reconstruct(x, b)),
            (eo_fast.apply_full(b), ref.apply(b)),
        ):
            assert np.abs(got - expected).max() < TOL * np.abs(expected).max()

    def test_reference_complement_is_the_reference_matrix(self, weak_gauge, rng):
        """On the reference tier ``M (x_e, x_o)``, ``x_o`` eliminating the
        odd rows, is ``(Mhat x_e, 0)``."""
        _, ref = make_pair(weak_gauge, mass=0.2, csw=1.0)
        eo = EvenOddPreconditionedWilson(ref)
        geom = weak_gauge.geometry
        x_e = to_parity(SpinorField.random(geom, rng=rng).data, 0)
        full = eo.reconstruct(x_e, np.zeros(geom.shape + (4, 3), complex))
        mx = ref.apply(full)
        out = eo.apply(x_e)
        assert np.abs(to_parity(mx, 1)).max() < TOL * np.abs(out).max()
        assert np.abs(to_parity(mx, 0) - out).max() < TOL * np.abs(out).max()


class TestDistributedEquivalence:
    @pytest.mark.parametrize("split", [False, True], ids=["fused", "split"])
    def test_distributed_paths_agree(self, split, rng):
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=23)
        grid = ProcessGrid((1, 1, 2, 2))
        x = SpinorField.random(geom, rng=rng).data

        def run(kernel):
            return rank_apply(
                "wilson_clover", gauge, 0.1, grid, x, csw=1.0,
                boundary=PHYSICAL, kernel=kernel,
                schedule="split" if split else "fused",
            )

        out = run("numpy")
        expected = run("numpy_ref")
        assert np.abs(out - expected).max() < TOL * np.abs(expected).max()


GEOM = Geometry((4, 4, 4, 4))
_BCS = st.sampled_from(["periodic", "antiperiodic", "zero"])


@st.composite
def operator_pairs(draw):
    seed = draw(st.integers(0, 10**6))
    mass = draw(st.floats(0.05, 1.0))
    csw = draw(st.sampled_from([0.0, 1.0, 1.5]))
    bc = BoundarySpec(tuple(draw(_BCS) for _ in range(4)))
    gauge = GaugeField.weak(GEOM, epsilon=0.3, rng=seed)
    return make_pair(gauge, mass=mass, csw=csw, boundary=bc)


class TestProperties:
    @given(pair=operator_pairs(), seed=st.integers(0, 10**6))
    @settings(**SETTINGS)
    def test_paths_agree_for_random_operators(self, pair, seed):
        fast, ref = pair
        x = SpinorField.random(GEOM, rng=seed).data
        expected = ref.apply(x)
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(fast.apply(x) - expected).max() < TOL * scale
        assert (
            np.abs(fast.apply_dagger(x) - ref.apply_dagger(x)).max()
            < TOL * scale
        )
