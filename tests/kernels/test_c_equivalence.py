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
        working precision and in a storage format: one body, whose dtype
        the storage decides."""
        geom = weak_gauge448.geometry
        part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
        ref, comp = (
            op.restrict_to_blocks(part, precision=precision)
            for op in pair(weak_gauge448, boundary=PHYSICAL)
        )
        assert comp.kernel == "c" and comp.storage is precision
        assert comp._links_soa.dtype == (
            precision.dtype if precision else np.complex128
        )
        # ... the packed clover term its reals
        assert comp._chiral.dtype == comp._links_soa.real.dtype
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
        """What the C entries do not take runs the NumPy body: a
        lattice-last field whose dtype is not the links' or that is not
        contiguous (the bare hop core), a field wider than the operator
        (the whole matrix).  A *narrower* field is the whole entry's own
        case: GCR's complex64 matvec on the complex128 operator."""
        ref, comp = pair(weak_gauge)
        x = SpinorField.random(weak_gauge.geometry, rng=rng).data
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

        def whole(op, field, rounding=None):
            return backend.wilson_apply_sites(
                op._soa_links(), op._chiral, op.diagonal_coefficient, field,
                False, op.boundary, rounding, None,
            )

        x32 = x.astype(np.complex64)
        got = whole(comp, x32)
        assert got.dtype == np.complex64
        assert got.tobytes() == ref.apply(x32).tobytes() == comp.apply(x32).tobytes()
        # ... widened, applied in double, rounded once:
        assert got.tobytes() == comp.apply(x32.astype(np.complex128)).astype(
            np.complex64).tobytes()
        single = comp.stored(SINGLE)
        assert whole(single, x32, SINGLE) is not None
        assert whole(single, x, SINGLE) is None
        assert whole(comp, x32, HALF) is None  # half is float32 arithmetic
        assert single.apply(x).tobytes() == ref.stored(SINGLE).apply(x).tobytes()
        # a strided site-major field is copied, not refused
        assert whole(comp, np.stack([x, x])[:, ::2][0]) is None  # wrong shape
        assert whole(comp, np.stack([x, x], axis=-1)[..., 0]).tobytes() == (
            comp.apply(x).tobytes()
        )


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


GRID = ProcessGrid((1, 1, 2, 2))
SOLVES = {
    "bicgstab-even-odd": dict(method="bicgstab", even_odd=True),
    "bicgstab-batched": dict(method="bicgstab", batch=3),
    **{
        f"gcr-dd-{precond}": dict(method="gcr-dd", grid=GRID, precond=precond)
        for precond in ("auto", "ras", "none")
    },
    **{
        f"gcr-dd-{backend}{'-overlap' if overlap else ''}": dict(
            method="gcr-dd", grid=GRID, backend=backend, overlap=overlap
        )
        for backend in ("sequential", "threads", "processes")
        for overlap in (False, True)
    },
}


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

    @pytest.mark.parametrize("case", [
        pytest.param(name, marks=pytest.mark.slow) if "processes" in name else name
        for name in SOLVES
    ])
    def test_solves_equal_the_numpy_tier(self, case):
        """Every route of ``solve`` — the Schur system, a batch, the three
        preconditioner kinds, the three SPMD backends with and without
        the overlapped schedule — bit for bit and count for count."""
        from repro.core.api import SolveRequest, solve

        how = dict(SOLVES[case])
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=5)
        rhs = SpinorField.random(geom, rng=6).data
        batch = how.pop("batch", 0)
        if batch:
            rhs = np.stack([(k + 1) * np.roll(rhs, k, axis=0) for k in range(batch)])
        results = [
            solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.1,
                csw=1.0, tol=1e-6, kernel=kernel, **how,
            ))
            for kernel in ("c", "numpy")
        ]
        assert np.all(results[0].converged)
        assert np.array_equal(results[0].iterations, results[1].iterations)
        assert results[0].x.tobytes() == results[1].x.tobytes()
        tallies = [r.report.to_dict()["tally"] for r in results]
        for key in ("flops", "bytes_moved", "reductions", "operator_applications"):
            assert tallies[0][key] == tallies[1][key]

    def test_a_live_daemon_batch_equals_the_numpy_tier(self):
        from repro.serve import SolveService

        def payload(seed, kernel):
            return {
                "operator": "wilson_clover", "mass": 0.1, "csw": 1.0,
                "tol": 1e-6, "kernel": kernel,
                "gauge": {"kind": "weak", "dims": [4, 4, 4, 4],
                          "epsilon": 0.25, "seed": 3},
                "rhs": {"kind": "random", "seed": seed},
            }

        service = SolveService(max_batch=3, max_wait=0.05)
        tickets = {
            kernel: [service.submit(payload(seed, kernel)) for seed in (1, 2, 3)]
            for kernel in ("c", "numpy")
        }
        service.start()
        try:
            served = {
                kernel: [t.result(timeout=120) for t in batch]
                for kernel, batch in tickets.items()
            }
        finally:
            service.shutdown()
        for compiled, reference in zip(served["c"], served["numpy"]):
            assert compiled.converged and compiled.occupancy == 3
            assert compiled.iterations == reference.iterations
            assert compiled.x.tobytes() == reference.x.tobytes()

    def test_no_gated_solve_falls_back_to_the_numpy_body(self, monkeypatch):
        """Every stencil of the benchmark's Wilson rows — BiCGstab, single
        and batched; GCR-DD with its half-precision block solves and its
        complex64 matvec on the complex128 operator — reaches a compiled
        entry: the NumPy body's link multiply and clover columns are never
        called, and neither is NumPy's half quantiser — the solver spaces'
        conversions of Wilson fields go to the tier's own (counted, not
        switched)."""
        import repro.dirac.wilson
        import repro.precision
        from repro.core.api import SolveRequest, solve

        calls = []
        for module, name in (
            (repro.dirac.wilson, "link_apply_sites"),
            (repro.dirac.wilson, "apply_chiral_sites"),
            (repro.precision, "quantize_half"),
        ):
            inner = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *a, _inner=inner, _name=name, **k: (
                    calls.append(_name), _inner(*a, **k))[1],
            )
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=5)
        rhs = SpinorField.random(geom, rng=6).data

        def run(kernel, **how):
            return solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, mass=0.1, csw=1.0,
                tol=1e-6, kernel=kernel, **{"rhs": rhs, **how},
            ))

        cases = (
            dict(method="bicgstab"),
            dict(method="bicgstab", rhs=np.stack([rhs, 2 * rhs, rhs[::-1]])),
            dict(method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2))),
        )
        for how in cases:
            assert np.all(run("c", **how).converged)
        assert not calls
        run("numpy", **cases[-1])
        # (the NumPy body rounds with NumPy's quantiser; the spaces around
        # it still ask the host's tier)
        assert set(calls) == {
            "link_apply_sites", "apply_chiral_sites", "quantize_half"
        }
