"""NumPy <-> C kernel equivalence, bit for bit.

The compiled tier runs the NumPy tier's lattice-last Wilson body from
``kernels/wilson_hop.c``: the same per-site IEEE sequence, so every
comparison here is ``np.array_equal`` (the numba tier this file's case
grid was written for agreed at rounding level only).  The tier serves
the Wilson family; the staggered half of the old grid checks that
``auto`` and an explicit ``kernel="c"`` say so.
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
from repro.kernels import KernelUnavailableError, get_backend, resolve_kernel
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.precision import HALF, SINGLE

needs_c = pytest.mark.skipif(
    not get_backend("c").available,
    reason=f"compiled tier unavailable: {get_backend('c').unavailable_reason}",
)

MIXED = BoundarySpec(("zero", "antiperiodic", "periodic", "antiperiodic"))
BCS = [PERIODIC, PHYSICAL, MIXED]
BC_IDS = ["per", "anti", "mixed"]


def pair(gauge, **kwargs):
    return (
        WilsonCloverOperator(gauge, mass=0.1, csw=1.0, kernel=kernel, **kwargs)
        for kernel in ("numpy", "c")
    )


@needs_c
class TestCompiledWilson:
    @pytest.mark.parametrize("bc", BCS, ids=BC_IDS)
    def test_dslash_single(self, bc, rng):
        geom = Geometry((4, 6, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=31)
        ref, comp = pair(gauge, boundary=bc)
        assert comp.kernel == "c"
        x = SpinorField.random(geom, rng=rng).data
        assert np.array_equal(comp.dslash(x), ref.dslash(x))
        assert np.array_equal(comp.apply(x), ref.apply(x))
        assert np.array_equal(comp.apply_dagger(x), ref.apply_dagger(x))
        # ... and to rounding with the seed's formulation, as every tier.
        expected = ref._dslash_reference(x)
        assert np.abs(comp.dslash(x) - expected).max() < (
            1e-14 * np.abs(expected).max()
        )

    def test_dslash_batched(self, weak_gauge448, rng):
        geom = weak_gauge448.geometry
        ref, comp = pair(weak_gauge448)
        xb = np.stack(
            [SpinorField.random(geom, rng=rng).data for _ in range(4)]
        )
        got = comp.apply(xb)
        assert np.array_equal(got, ref.apply(xb))
        for lane in range(4):
            assert np.array_equal(got[lane], comp.apply(xb[lane]))

    @pytest.mark.parametrize("precision", [None, SINGLE, HALF],
                             ids=["double", "single", "half"])
    def test_lane_stack(self, weak_gauge448, rng, precision):
        """The Schwarz blocks side by side, single and batched, in the
        working precision and packed in a storage format (hop core and
        site-diagonal tail both compiled)."""
        geom = weak_gauge448.geometry
        part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
        ref, comp = (
            op.restrict_to_blocks(part, precision=precision)
            for op in pair(weak_gauge448, boundary=PHYSICAL)
        )
        assert comp.kernel == "c" and comp._packed == (precision is not None)
        xb = part.stack(np.stack(
            [SpinorField.random(geom, rng=rng).data for _ in range(2)]
        ), lead=1)
        for x in (xb, xb[0]):
            assert np.array_equal(comp.apply(x), ref.apply(x))

    def test_stored_operator_packs_like_numpy(self, weak_gauge, rng):
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        for csw in (0.0, 1.0):
            ref, comp = (
                WilsonCloverOperator(
                    weak_gauge, mass=0.1, csw=csw, kernel=kernel
                ).stored(HALF)
                for kernel in ("numpy", "c")
            )
            assert comp._packed and comp._links_soa.dtype == np.complex64
            assert np.array_equal(comp.apply(x), ref.apply(x))

    def test_boundary_rebuild_after_with_boundary(self, weak_gauge, rng):
        ref, comp = pair(weak_gauge)
        comp.apply(SpinorField.random(weak_gauge.geometry, rng=1).data)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        assert np.array_equal(
            comp.with_boundary(MIXED).apply(x), ref.with_boundary(MIXED).apply(x)
        )

    def test_falls_through_to_the_numpy_body(self, weak_gauge, rng):
        """What the C entry does not take runs the NumPy body: a field
        whose dtype is not the links' (GCR's complex64 matvec on
        complex128 links), a non-contiguous lattice-last field."""
        ref, comp = pair(weak_gauge)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
        x32 = x.astype(np.complex64)
        assert np.array_equal(comp.apply(x32), ref.apply(x32))
        backend = get_backend("c")
        links = comp._soa_links()
        xs = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
        assert backend.wilson_hop_sites(links, xs, False, PERIODIC) is not None
        assert backend.wilson_hop_sites(
            links, xs.astype(np.complex64), False, PERIODIC
        ) is None
        strided = np.moveaxis(x, (-2, -1), (0, 1))
        assert not strided.flags.c_contiguous
        assert backend.wilson_hop_sites(links, strided, False, PERIODIC) is None
        assert np.array_equal(comp._hop_sites(strided, False),
                              ref._hop_sites(strided, False))
        out = np.zeros_like(xs)
        assert not backend.wilson_site_tail(out[:, :, ::2], xs[:, :, ::2], 4.1, None)
        assert not out.any()


class TestStaggeredStaysNumpy:
    """The compiled tier serves the Wilson family: for staggered
    operators ``auto`` is the NumPy tier whether or not the library
    loads, and ``kernel="c"`` is refused naming what would work."""

    @staticmethod
    def check(build, x):
        assert resolve_kernel("auto", operator="staggered").name == "numpy"
        auto, named = build("auto"), build("numpy")
        assert auto.kernel == "numpy"
        assert np.array_equal(auto.apply(x), named.apply(x))
        with pytest.raises(KernelUnavailableError) as exc:
            build("c")
        assert "c" not in exc.value.choices and "numpy" in exc.value.choices

    @pytest.mark.parametrize("bc", BCS, ids=BC_IDS)
    def test_naive_staggered_is_numpy(self, weak_gauge, bc, staggered_vec):
        self.check(
            lambda kernel: NaiveStaggeredOperator(
                weak_gauge, mass=0.1, boundary=bc, kernel=kernel),
            staggered_vec,
        )

    def test_asqtad_is_numpy(self, weak_gauge, staggered_vec):
        self.check(
            lambda kernel: AsqtadOperator.from_gauge(
                weak_gauge, mass=0.1, boundary=PHYSICAL, kernel=kernel),
            staggered_vec,
        )


@needs_c
class TestCompiledSolve:
    def test_bicgstab_solution_equals_the_numpy_tier(self):
        from repro.core.api import SolveRequest, solve

        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=5)
        rhs = SpinorField.random(geom, rng=6).data
        results = [
            solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.1,
                csw=1.0, tol=1e-6, kernel=kernel,
            ))
            for kernel in ("c", "numpy")
        ]
        assert results[0].converged
        assert results[0].iterations == results[1].iterations
        assert np.array_equal(results[0].x, results[1].x)
