"""Single-RHS behaviour of ``solve(SolveRequest)`` per operator: even-odd,
mixed precision, gcr-dd, prebuilt links, multishift, config handling
(the batched paths are covered in test_solve_facade.py)."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.core import SolveRequest, solve
from repro.dirac import AsqtadOperator, StaggeredNormalOperator, WilsonCloverOperator
from repro.gauge.asqtad import build_asqtad_links
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.precision import SINGLE


@pytest.fixture(scope="module")
def wilson_setup():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=505)
    b = SpinorField.random(geom, rng=3).data
    return geom, gauge, b


@pytest.fixture(scope="module")
def staggered_setup():
    geom = Geometry((4, 4, 4, 4))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=606)
    b = SpinorField.random(geom, nspin=1, rng=4).data
    return geom, gauge, b


def run(operator, gauge, b, **kw):
    return solve(SolveRequest(operator=operator, gauge=gauge, rhs=b, **kw))


def solve_wilson(gauge, b, **kw):
    return run("wilson_clover", gauge, b, **kw)


class TestWilsonCloverAPI:
    def test_bicgstab_default(self, wilson_setup):
        geom, gauge, b = wilson_setup
        res = solve_wilson(gauge, b, mass=0.2, csw=1.0, tol=1e-8)
        assert res.converged
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
        r = b - op.apply(res.x)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 1e-7

    def test_even_odd_path(self, wilson_setup):
        geom, gauge, b = wilson_setup
        res = solve_wilson(
            gauge, b, mass=0.2, csw=1.0, tol=1e-8, even_odd=True
        )
        assert res.converged
        assert res.residual < 1e-7

    def test_even_odd_matches_full(self, wilson_setup):
        geom, gauge, b = wilson_setup
        full = solve_wilson(gauge, b, mass=0.2, csw=1.0, tol=1e-10)
        eo = solve_wilson(
            gauge, b, mass=0.2, csw=1.0, tol=1e-10, even_odd=True
        )
        assert np.linalg.norm(full.x - eo.x) / np.linalg.norm(full.x) < 1e-7

    def test_mixed_precision_bicgstab(self, wilson_setup):
        geom, gauge, b = wilson_setup
        res = solve_wilson(
            gauge, b, mass=0.2, csw=1.0, tol=1e-9, inner_precision=SINGLE
        )
        assert res.converged
        assert res.restarts >= 1

    def test_gcr_dd_method(self, wilson_setup):
        geom, gauge, b = wilson_setup
        res = solve_wilson(
            gauge, b, mass=0.2, csw=1.0, method="gcr-dd", tol=1e-6,
            grid=ProcessGrid((1, 1, 2, 2)),
        )
        assert res.converged

    def test_gcr_dd_requires_grid(self, wilson_setup):
        geom, gauge, b = wilson_setup
        with pytest.raises(ValueError):
            solve_wilson(gauge, b, mass=0.2, method="gcr-dd")

    def test_unknown_method(self, wilson_setup):
        geom, gauge, b = wilson_setup
        with pytest.raises(ValueError):
            solve_wilson(gauge, b, mass=0.2, method="gmres")


class TestAsqtadAPI:
    def test_solve_asqtad(self, staggered_setup):
        geom, gauge, b = staggered_setup
        res = run("asqtad", gauge, b, mass=0.2, tol=1e-8,
                  inner_precision=SINGLE)
        assert res.converged
        assert res.residual < 1e-6

    def test_solve_asqtad_accepts_prebuilt_links(self, staggered_setup):
        geom, gauge, b = staggered_setup
        links = build_asqtad_links(gauge)
        res = run("asqtad", links, b, mass=0.2, tol=1e-8, method="cg")
        assert res.converged

    def test_multishift(self, staggered_setup):
        geom, gauge, b = staggered_setup
        be = b * geom.even_mask[..., None]
        shifts = [0.0, 0.05, 0.3]
        out = run("asqtad_multishift", gauge, be, mass=0.15, shifts=shifts,
                  tol=1e-10)
        assert out.converged
        links = build_asqtad_links(gauge)
        op = AsqtadOperator(links, mass=0.15)
        for sigma, x in zip(shifts, out.solutions):
            r = be - StaggeredNormalOperator(op, sigma).apply(x)
            assert np.linalg.norm(r) / np.linalg.norm(be) < 1e-9


class TestShimBehaviour:
    def test_gcr_dd_config_not_mutated(self, wilson_setup):
        """Regression (first seen in the removed ``solve_*`` shims): the
        caller's config is never clobbered by the request's tol/maxiter."""
        from repro.core import GCRDDConfig

        geom, gauge, b = wilson_setup
        cfg = GCRDDConfig(tol=1e-4, maxiter=55, precond_steps=4)
        res = solve_wilson(
            gauge, b, mass=0.2, csw=1.0, method="gcr-dd",
            grid=ProcessGrid((1, 1, 2, 2)), config=cfg,
        )
        assert res.converged
        assert (cfg.tol, cfg.maxiter) == (1e-4, 55)

    def test_gcr_dd_explicit_tol_overrides_config(self, wilson_setup):
        from repro.core import GCRDDConfig
        from repro.core.api import _gcrdd_config

        resolved = _gcrdd_config(SolveRequest(
            operator="wilson_clover", gauge=None, rhs=None, mass=0.0,
            tol=1e-3, config=GCRDDConfig(tol=1e-4, maxiter=55),
        ))
        assert resolved.tol == 1e-3
        assert resolved.maxiter == 55
