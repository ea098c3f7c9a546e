"""Preconditioner selection through the SolveRequest facade, and the
GCRDDConfig legacy-field shims."""

import dataclasses

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.core import GCRDDConfig, SolveRequest, solve
from repro.lattice import GaugeField, Geometry, SpinorField


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


def gcrdd_request(gauge, rhs, **kw):
    kw.setdefault("tol", 1e-6)
    kw.setdefault("grid", ProcessGrid((1, 1, 2, 2)))
    return SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.2, csw=1.0,
        method="gcr-dd", **kw,
    )


class TestWilsonPrecondSelection:
    def test_auto_resolves_to_schwarz_and_matches_it(self, wilson_setup):
        geom, gauge, b = wilson_setup
        auto = solve(gcrdd_request(gauge, b))
        named = solve(gcrdd_request(gauge, b, precond="schwarz"))
        assert auto.extras["precond"] == "schwarz"
        assert named.extras["precond"] == "schwarz"
        assert np.array_equal(auto.x, named.x)

    @pytest.mark.parametrize("name", ["ras", "twolevel", "multisplit"])
    def test_alternative_preconds_converge(self, wilson_setup, name):
        geom, gauge, b = wilson_setup
        res = solve(gcrdd_request(gauge, b, precond=name))
        assert res.converged, name
        assert res.extras["precond"] == name

    def test_none_costs_more_iterations(self, wilson_setup):
        geom, gauge, b = wilson_setup
        plain = solve(gcrdd_request(gauge, b, precond="none"))
        schwarz = solve(gcrdd_request(gauge, b, precond="schwarz"))
        assert plain.converged and schwarz.converged
        assert schwarz.iterations < plain.iterations

    def test_precond_overlap_threads_through(self, wilson_setup):
        geom, gauge, b = wilson_setup
        res = solve(gcrdd_request(gauge, b, precond="ras",
                                  precond_overlap=0))
        assert res.converged


class TestAsqtadPrecondSelection:
    def test_auto_is_plain_cg_bitwise(self, staggered_setup):
        """"auto" on asqtad means no preconditioner: the historical
        plain-CG path, bit for bit."""
        geom, gauge, b = staggered_setup
        plain = solve(SolveRequest(
            operator="asqtad", gauge=gauge, rhs=b, mass=0.2, tol=1e-8,
        ))
        auto = solve(SolveRequest(
            operator="asqtad", gauge=gauge, rhs=b, mass=0.2, tol=1e-8,
            precond="auto",
        ))
        assert np.array_equal(plain.x, auto.x)

    @pytest.mark.parametrize("name", ["ras", "multisplit"])
    def test_preconditioned_cg_fewer_iterations(self, staggered_setup,
                                                name):
        geom, gauge, b = staggered_setup
        plain = solve(SolveRequest(
            operator="asqtad", gauge=gauge, rhs=b, mass=0.2, tol=1e-8,
        ))
        pre = solve(SolveRequest(
            operator="asqtad", gauge=gauge, rhs=b, mass=0.2, tol=1e-8,
            precond=name, grid=ProcessGrid((1, 1, 2, 2)),
        ))
        assert plain.converged and pre.converged
        assert pre.iterations < plain.iterations
        assert pre.extras["precond"] == name

    def test_batched_preconditioned(self, staggered_setup):
        geom, gauge, b = staggered_setup
        rhs = np.stack([b, 2.0 * b])
        res = solve(SolveRequest(
            operator="asqtad", gauge=gauge, rhs=rhs, mass=0.2, tol=1e-8,
            precond="multisplit", grid=ProcessGrid((1, 1, 2, 2)),
        ))
        assert np.all(res.converged)
        assert res.x.shape == rhs.shape


class TestValidation:
    def test_unknown_precond_lists_choices(self, wilson_setup):
        geom, gauge, b = wilson_setup
        with pytest.raises(ValueError, match="SolveRequest.precond"):
            solve(gcrdd_request(gauge, b, precond="ilu"))

    def test_precond_requires_supporting_method(self, wilson_setup):
        geom, gauge, b = wilson_setup
        with pytest.raises(ValueError, match="SolveRequest.precond"):
            solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=b, mass=0.2,
                csw=1.0, tol=1e-6, precond="schwarz",
            ))

    def test_asqtad_precond_requires_grid(self, staggered_setup):
        geom, gauge, b = staggered_setup
        with pytest.raises(ValueError, match="SolveRequest.grid"):
            solve(SolveRequest(
                operator="asqtad", gauge=gauge, rhs=b, mass=0.2,
                precond="multisplit",
            ))

    def test_asqtad_precond_conflicts_with_inner_precision(
        self, staggered_setup
    ):
        from repro.precision import SINGLE

        geom, gauge, b = staggered_setup
        with pytest.raises(ValueError, match="inner_precision"):
            solve(SolveRequest(
                operator="asqtad", gauge=gauge, rhs=b, mass=0.2,
                precond="multisplit", grid=ProcessGrid((1, 1, 2, 2)),
                inner_precision=SINGLE,
            ))

    def test_precond_steps_must_be_positive(self, wilson_setup):
        geom, gauge, b = wilson_setup
        with pytest.raises(ValueError, match="precond_steps"):
            solve(gcrdd_request(gauge, b, precond_steps=0))

    def test_precond_overlap_must_be_nonnegative(self, wilson_setup):
        geom, gauge, b = wilson_setup
        with pytest.raises(ValueError, match="precond_overlap"):
            solve(gcrdd_request(gauge, b, precond_overlap=-1))


class TestConfigShims:
    def test_both_spellings_rejected(self):
        """One spelling per knob: the removed ``mr_steps=``/``omega=`` are
        unknown kwargs, alone or beside their replacement."""
        for kwargs in ({"mr_steps": 8}, {"omega": 0.9},
                       {"mr_steps": 8, "precond_steps": 8}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                GCRDDConfig(**kwargs)
        assert not hasattr(GCRDDConfig(), "mr_steps")

    def test_replace_round_trips_without_warning(self, recwarn):
        cfg = GCRDDConfig(tol=1e-6, precond_steps=8)
        copy = dataclasses.replace(cfg, tol=1e-8)
        assert copy.precond_steps == 8
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
