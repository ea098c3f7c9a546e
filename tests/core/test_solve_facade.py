"""The SolveRequest/solve facade: one entry point, every operator and
execution path, with batched requests equal to N independent solves to
rounding (GCR-DD lanes individually meet the tolerance — its restarts
are shared across the batch)."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.core import GCRDDConfig, SolveRequest, solve
from repro.dirac import AsqtadOperator, WilsonCloverOperator
from repro.gauge.asqtad import build_asqtad_links
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.precision import SINGLE

B = 3
TOL = 1e-8


@pytest.fixture(scope="module")
def wilson_setup():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=505)
    batch = np.stack(
        [SpinorField.random(geom, rng=600 + i).data for i in range(B)]
    )
    return geom, gauge, batch


@pytest.fixture(scope="module")
def staggered_setup():
    geom = Geometry((4, 4, 4, 4))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=606)
    batch = np.stack(
        [SpinorField.random(geom, nspin=1, rng=700 + i).data for i in range(B)]
    )
    return geom, gauge, batch


def wilson_request(gauge, rhs, **kw):
    kw.setdefault("tol", TOL)
    return SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.2, csw=1.0,
        **kw,
    )


class TestWilsonFacade:
    def test_batched_equals_independent(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        res = solve(wilson_request(gauge, batch))
        assert res.all_converged
        for i in range(B):
            ref = solve(wilson_request(gauge, batch[i]))
            assert res.iterations[i] == ref.iterations
            rel = np.linalg.norm(res.x[i] - ref.x) / np.linalg.norm(ref.x)
            assert rel < 1e-9

    def test_even_odd_batched_equals_independent(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        res = solve(wilson_request(gauge, batch, even_odd=True))
        assert res.all_converged
        assert np.all(res.residuals < 1e-7)
        for i in range(B):
            ref = solve(wilson_request(gauge, batch[i], even_odd=True))
            rel = np.linalg.norm(res.x[i] - ref.x) / np.linalg.norm(ref.x)
            assert rel < 1e-9

    def test_mixed_precision_batched(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        res = solve(wilson_request(gauge, batch, inner_precision=SINGLE))
        assert res.all_converged
        assert np.all(res.residuals < TOL)

    def test_gcr_dd_batched_lanes_meet_tolerance(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        res = solve(
            wilson_request(
                gauge, batch, method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2)),
                config=GCRDDConfig(tol=1e-6, precond_steps=6), tol=None,
            )
        )
        assert res.all_converged
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
        for i in range(B):
            r = batch[i] - op.apply(res.x[i])
            assert np.linalg.norm(r) / np.linalg.norm(batch[i]) < 1e-5

    @pytest.mark.parametrize("backend", [None, "sequential"])
    def test_gcr_dd_builds_the_clover_field_once(
        self, wilson_setup, backend, monkeypatch
    ):
        import repro.dirac.clover
        import repro.dirac.wilson

        calls = []
        build = repro.dirac.clover.build_clover_blocks

        def counting(gauge, csw=1.0, backend=None):
            calls.append(csw)
            return build(gauge, csw, backend)

        # Both bindings: the module-level import in wilson.py and any
        # function-level ``from repro.dirac.clover import ...``.
        monkeypatch.setattr(repro.dirac.clover, "build_clover_blocks", counting)
        monkeypatch.setattr(repro.dirac.wilson, "build_clover_blocks", counting)
        geom, gauge, batch = wilson_setup
        res = solve(
            wilson_request(
                gauge, batch[0], method="gcr-dd", backend=backend,
                grid=ProcessGrid((1, 1, 2, 2)),
                config=GCRDDConfig(tol=1e-6, precond_steps=6), tol=None,
            )
        )
        assert res.converged
        assert calls == [1.0]

    def test_unknown_operator_and_method(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        with pytest.raises(ValueError):
            solve(SolveRequest(operator="overlap", gauge=gauge, rhs=batch[0],
                               mass=0.2))
        with pytest.raises(ValueError):
            solve(wilson_request(gauge, batch[0], method="gmres"))


class TestAsqtadFacade:
    def test_batched_equals_independent(self, staggered_setup):
        geom, gauge, batch = staggered_setup
        req = lambda rhs: SolveRequest(
            operator="asqtad", gauge=gauge, rhs=rhs, mass=0.2, tol=TOL,
        )
        res = solve(req(batch))
        assert res.all_converged
        for i in range(B):
            ref = solve(req(batch[i]))
            assert res.iterations[i] == ref.iterations
            rel = np.linalg.norm(res.x[i] - ref.x) / np.linalg.norm(ref.x)
            assert rel < 1e-9

    def test_prebuilt_links_batched(self, staggered_setup):
        geom, gauge, batch = staggered_setup
        links = build_asqtad_links(gauge)
        res = solve(SolveRequest(
            operator="asqtad", gauge=links, rhs=batch, mass=0.2, tol=TOL,
        ))
        assert res.all_converged
        op = AsqtadOperator(links, mass=0.2)
        for i in range(B):
            r = batch[i] - op.apply(res.x[i])
            assert np.linalg.norm(r) / np.linalg.norm(batch[i]) < 1e-6

    def test_multishift_rejects_batch(self, staggered_setup):
        geom, gauge, batch = staggered_setup
        with pytest.raises(ValueError):
            solve(SolveRequest(
                operator="asqtad_multishift", gauge=gauge, rhs=batch,
                mass=0.2, shifts=[0.0, 0.1],
            ))

    def test_multishift_single(self, staggered_setup):
        geom, gauge, batch = staggered_setup
        be = batch[0] * geom.even_mask[..., None]
        out = solve(SolveRequest(
            operator="asqtad_multishift", gauge=gauge, rhs=be, mass=0.15,
            shifts=[0.0, 0.1], tol=1e-10,
        ))
        assert out.converged


class TestDistributedBatched:
    def _solver(self, gauge, **kw):
        from repro.core import SPMDGCRDDSolver

        return SPMDGCRDDSolver(
            gauge, 0.2, 1.0, ProcessGrid((1, 1, 2, 2)), backend="sequential",
            config=GCRDDConfig(tol=1e-6, precond_steps=6), **kw,
        )

    def test_distributed_gcrdd_batched(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        res = self._solver(gauge).solve(batch)
        assert res.all_converged
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0, kernel="numpy_ref")
        for i in range(B):
            r = batch[i] - op.apply(res.x[i])
            assert np.linalg.norm(r) / np.linalg.norm(batch[i]) < 1e-5

    def test_distributed_split_path_batched(self, wilson_setup):
        geom, gauge, batch = wilson_setup
        res = self._solver(gauge, schedule="split").solve(batch)
        assert res.all_converged


class TestPropagators:
    def test_wilson_propagator_uses_batched_path(self):
        from repro.analysis.propagator import wilson_propagator
        from repro.dirac import PHYSICAL

        geom = Geometry((4, 4, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.2, rng=42)
        prop = wilson_propagator(gauge, mass=0.3, tol=1e-7)
        op = WilsonCloverOperator(gauge, mass=0.3, csw=1.0, boundary=PHYSICAL)
        b = SpinorField.point_source(geom, (0, 0, 0, 0), spin=1, color=2).data
        r = b - op.apply(prop[..., 1, 2])
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-6

    def test_staggered_propagator_uses_batched_path(self):
        from repro.analysis.propagator import staggered_propagator
        from repro.dirac import PHYSICAL

        geom = Geometry((4, 4, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.2, rng=43)
        prop = staggered_propagator(gauge, mass=0.3, tol=1e-7)
        links = build_asqtad_links(gauge)
        op = AsqtadOperator(links, mass=0.3, boundary=PHYSICAL)
        b = SpinorField.point_source(geom, (0, 0, 0, 0), color=1, nspin=1).data
        r = b - op.apply(prop[..., 1])
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-6
