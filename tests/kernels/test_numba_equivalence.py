"""NumPy <-> Numba kernel equivalence at rounding level.

Two layers of coverage:

* Table layer (runs everywhere): the numba backend's neighbor/phase/link
  tables are pure NumPy.  A vectorized mirror of the jitted site loop —
  the *same* gather + contraction the compiled kernel performs — is
  evaluated from those tables and compared against the in-tree NumPy
  stencils, so the table construction (the part that encodes layout and
  boundary semantics) is verified even on hosts without numba.
* Compiled layer (``skipif`` numba missing): the actual jitted kernels,
  via the operators' ``kernel="numba"`` path, against ``kernel="numpy"``
  — Wilson and staggered/asqtad, single and batched, mixed boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.dirac import (
    AsqtadOperator,
    BoundarySpec,
    NaiveStaggeredOperator,
    PERIODIC,
    PHYSICAL,
    WilsonCloverOperator,
)
from repro.kernels import get_backend
from repro.kernels.numba_backend import NumbaBackend
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition

HAVE_NUMBA = get_backend("numba").available
needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba not installed (the 'compiled' extra)"
)

#: Same association order per site -> rounding-level agreement.
TOL = 1e-14

MIXED = BoundarySpec(("zero", "antiperiodic", "periodic", "antiperiodic"))
BCS = [PERIODIC, PHYSICAL, MIXED]
BC_IDS = ["per", "anti", "mixed"]


def _mirror_wilson(cache, x, vol):
    """Vectorized replay of the jitted Wilson site loop from its tables."""
    xr = np.asarray(x).reshape(-1, vol, 4, 3)
    out = np.zeros_like(xr)
    for mu in range(4):
        jf = cache["nfwd"][mu]
        t = np.einsum("vcd,bvsd->bvsc", cache["u"][mu], xr[:, jf])
        out += cache["phf"][mu][None, :, None, None] * np.einsum(
            "st,bvtc->bvsc", cache["pf"][mu], t
        )
        jb = cache["nbwd"][mu]
        t = np.einsum("vcd,bvsd->bvsc", cache["udag"][mu][jb], xr[:, jb])
        out += cache["phb"][mu][None, :, None, None] * np.einsum(
            "st,bvtc->bvsc", cache["pb"][mu], t
        )
    return out.reshape(np.asarray(x).shape)


def _mirror_staggered_hops(part, eta, x, vol, out):
    """Vectorized replay of one jitted staggered hop family."""
    xr = np.asarray(x).reshape(-1, vol, 3)
    for mu in range(4):
        jf = part["nfwd"][mu]
        ph = (eta[mu] * part["phf"][mu])[None, :, None]
        out += ph * np.einsum("vcd,bvd->bvc", part["lk"][mu], xr[:, jf])
        jb = part["nbwd"][mu]
        ph = (eta[mu] * part["phb"][mu])[None, :, None]
        out -= ph * np.einsum(
            "vcd,bvd->bvc", part["lkdag"][mu][jb], xr[:, jb]
        )
    return out


class TestTableLayer:
    """The backend's tables reproduce the NumPy stencils by construction."""

    @pytest.mark.parametrize("bc", BCS, ids=BC_IDS)
    def test_wilson_tables_match_reference(self, bc, rng):
        geom = Geometry((4, 6, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=31)
        op = WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=bc, kernel="numpy"
        )
        cache = NumbaBackend()._wilson_cache(op, np.complex128)
        x = SpinorField.random(geom, rng=rng).data
        expected = op._dslash_reference(x)
        got = _mirror_wilson(cache, x, geom.volume)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() < TOL * scale

    def test_wilson_tables_batched(self, weak_gauge448, rng):
        geom = weak_gauge448.geometry
        op = WilsonCloverOperator(
            weak_gauge448, mass=0.1, boundary=PHYSICAL, kernel="numpy"
        )
        cache = NumbaBackend()._wilson_cache(op, np.complex128)
        xb = np.stack(
            [SpinorField.random(geom, rng=rng).data for _ in range(3)]
        )
        expected = np.stack([op._dslash_reference(xb[i]) for i in range(3)])
        got = _mirror_wilson(cache, xb, geom.volume)
        assert np.abs(got - expected).max() < TOL * np.abs(expected).max()

    def test_lane_stack_tables(self, weak_gauge448, rng):
        """A lane stack (the Schwarz blocks side by side) is one lattice
        of L x block-volume sites to the flat kernels: block tables per
        lane, neighbors offset into their own lane."""
        geom = weak_gauge448.geometry
        part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
        wilson = WilsonCloverOperator(
            weak_gauge448, mass=0.1, csw=1.0, boundary=PHYSICAL, kernel="numpy"
        ).restrict_to_blocks(part)
        xb = part.stack(np.stack(
            [SpinorField.random(geom, rng=rng).data for _ in range(2)]
        ), lead=1)
        expected = wilson._dslash_reference(xb)
        cache = NumbaBackend()._wilson_cache(wilson, np.complex128)
        got = _mirror_wilson(cache, xb, wilson.sites)
        assert np.abs(got - expected).max() < TOL * np.abs(expected).max()

        asqtad = AsqtadOperator.from_gauge(
            weak_gauge448, mass=0.1, boundary=PHYSICAL, kernel="numpy"
        ).restrict_to_blocks(part)
        x = part.stack(SpinorField.random(geom, nspin=1, rng=rng).data)
        expected = asqtad._dslash_numpy(x)
        cache = NumbaBackend()._staggered_cache(asqtad, np.complex128)
        out = np.zeros_like(x).reshape(1, asqtad.sites, 3)
        part_fat = dict(cache, lk=cache["fat"], lkdag=cache["fatdag"])
        _mirror_staggered_hops(part_fat, cache["eta"], x, asqtad.sites, out)
        _mirror_staggered_hops(cache["long"], cache["eta"], x, asqtad.sites, out)
        got = out.reshape(x.shape)
        assert np.abs(got - expected).max() < TOL * np.abs(expected).max()

    @pytest.mark.parametrize("bc", BCS, ids=BC_IDS)
    def test_naive_staggered_tables_match(self, weak_gauge, bc, rng):
        geom = weak_gauge.geometry
        op = NaiveStaggeredOperator(
            weak_gauge, mass=0.1, boundary=bc, kernel="numpy"
        )
        cache = NumbaBackend()._staggered_cache(op, np.complex128)
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        expected = op._dslash_numpy(x)
        out = np.zeros_like(x).reshape(1, geom.volume, 3)
        part = dict(cache, lk=cache["fat"], lkdag=cache["fatdag"])
        got = _mirror_staggered_hops(
            part, cache["eta"], x, geom.volume, out
        ).reshape(x.shape)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() < TOL * scale

    def test_asqtad_tables_include_long_links(self, weak_gauge, rng):
        geom = weak_gauge.geometry
        op = AsqtadOperator.from_gauge(
            weak_gauge, mass=0.1, boundary=PHYSICAL, kernel="numpy"
        )
        assert op.long is not None
        cache = NumbaBackend()._staggered_cache(op, np.complex128)
        assert cache["long"] is not None
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        expected = op._dslash_numpy(x)
        out = np.zeros_like(x).reshape(1, geom.volume, 3)
        part = dict(cache, lk=cache["fat"], lkdag=cache["fatdag"])
        _mirror_staggered_hops(part, cache["eta"], x, geom.volume, out)
        _mirror_staggered_hops(
            cache["long"], cache["eta"], x, geom.volume, out
        )
        got = out.reshape(x.shape)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() < TOL * scale


@needs_numba
class TestCompiledWilson:
    @pytest.mark.parametrize("bc", BCS, ids=BC_IDS)
    def test_dslash_single(self, bc, rng):
        geom = Geometry((4, 6, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=31)
        ref = WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=bc, kernel="numpy"
        )
        jit = WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=bc, kernel="numba"
        )
        assert jit.kernel == "numba"
        x = SpinorField.random(geom, rng=rng).data
        expected = ref.apply(x)
        scale = np.abs(expected).max()
        assert np.abs(jit.apply(x) - expected).max() < TOL * scale
        assert (
            np.abs(jit.apply_dagger(x) - ref.apply_dagger(x)).max()
            < TOL * scale
        )

    def test_dslash_batched(self, weak_gauge448, rng):
        geom = weak_gauge448.geometry
        ref = WilsonCloverOperator(
            weak_gauge448, mass=0.1, csw=1.0, kernel="numpy"
        )
        jit = WilsonCloverOperator(
            weak_gauge448, mass=0.1, csw=1.0, kernel="numba"
        )
        xb = np.stack(
            [SpinorField.random(geom, rng=rng).data for _ in range(4)]
        )
        expected = ref.apply(xb)
        scale = np.abs(expected).max()
        assert np.abs(jit.apply(xb) - expected).max() < TOL * scale

    def test_lane_stack(self, weak_gauge448, rng):
        """The Schwarz blocks side by side, single and batched."""
        geom = weak_gauge448.geometry
        part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
        ref, jit = (
            WilsonCloverOperator(
                weak_gauge448, mass=0.1, csw=1.0, boundary=PHYSICAL,
                kernel=kernel,
            ).restrict_to_blocks(part)
            for kernel in ("numpy", "numba")
        )
        assert jit.kernel == "numba"
        xb = part.stack(np.stack(
            [SpinorField.random(geom, rng=rng).data for _ in range(2)]
        ), lead=1)
        for x in (xb, xb[0]):
            expected = ref.apply(x)
            scale = np.abs(expected).max()
            assert np.abs(jit.apply(x) - expected).max() < TOL * scale

    def test_boundary_rebuild_after_with_boundary(self, weak_gauge, rng):
        ref = WilsonCloverOperator(weak_gauge, mass=0.1, kernel="numpy")
        jit = WilsonCloverOperator(weak_gauge, mass=0.1, kernel="numba")
        jit.apply(SpinorField.random(weak_gauge.geometry, rng=1).data)
        cut_ref = ref.with_boundary(MIXED)
        cut_jit = jit.with_boundary(MIXED)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        expected = cut_ref.apply(x)
        scale = np.abs(expected).max()
        assert np.abs(cut_jit.apply(x) - expected).max() < TOL * scale


@needs_numba
class TestCompiledStaggered:
    @pytest.mark.parametrize("bc", BCS, ids=BC_IDS)
    def test_naive_single(self, weak_gauge, bc, rng):
        ref = NaiveStaggeredOperator(
            weak_gauge, mass=0.1, boundary=bc, kernel="numpy"
        )
        jit = NaiveStaggeredOperator(
            weak_gauge, mass=0.1, boundary=bc, kernel="numba"
        )
        assert jit.kernel == "numba"
        x = SpinorField.random(weak_gauge.geometry, nspin=1, rng=rng).data
        expected = ref.apply(x)
        scale = np.abs(expected).max()
        assert np.abs(jit.apply(x) - expected).max() < TOL * scale

    def test_asqtad_batched(self, weak_gauge, rng):
        geom = weak_gauge.geometry
        ref = AsqtadOperator.from_gauge(
            weak_gauge, mass=0.1, boundary=PHYSICAL, kernel="numpy"
        )
        jit = AsqtadOperator.from_gauge(
            weak_gauge, mass=0.1, boundary=PHYSICAL, kernel="numba"
        )
        xb = np.stack(
            [SpinorField.random(geom, nspin=1, rng=rng).data
             for _ in range(3)]
        )
        expected = ref.apply(xb)
        scale = np.abs(expected).max()
        assert np.abs(jit.apply(xb) - expected).max() < TOL * scale


@needs_numba
class TestCompiledSolve:
    def test_bicgstab_solve_converges_on_numba_tier(self):
        from repro.core.api import SolveRequest, solve

        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=5)
        rhs = SpinorField.random(geom, rng=6).data
        result = solve(SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.1,
            csw=1.0, tol=1e-6, kernel="numba",
        ))
        assert result.converged
