"""Bitwise-parity guard for the preconditioner registry refactor.

The Schwarz machinery moved from ad-hoc construction inside the solvers
into ``repro.precond`` registry entries.  These tests pin the contract
of that refactor: ``precond="schwarz"`` (and its alias through
``precond="auto"``) must reproduce the pre-registry GCR-DD behavior
EXACTLY — solutions, residual histories and communication tallies, bit
for bit, on every SPMD execution backend — and agree count for count
with the serial global-array ``GCRDDSolver``.  Any drift here means the
registry build path reordered a floating-point operation and broke
cross-backend reproducibility.
"""

import numpy as np
import pytest

from repro.comm.backends import process_backend_available
from repro.comm.grid import ProcessGrid
from repro.core.gcrdd import GCRDDConfig, GCRDDSolver
from repro.core.spmd import SPMDGCRDDSolver
from repro.dirac import WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.util.counters import tally

BACKENDS_AVAILABLE = ["sequential", "threads"] + (
    ["processes"] if process_backend_available() else []
)


@pytest.fixture(scope="module")
def setup():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
    grid = ProcessGrid((1, 1, 2, 2))
    b = SpinorField.random(geom, rng=30).data
    return geom, gauge, grid, b


def _solve(gauge, grid, b, cfg, backend):
    solver = SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
    with tally() as t:
        res = solver.solve(b, backend=backend)
    return res, t


class TestAutoIsSchwarz:
    """"auto" must resolve to the schwarz entry and be bit-identical to
    requesting it by name — on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS_AVAILABLE)
    def test_auto_matches_explicit_schwarz(self, setup, backend):
        geom, gauge, grid, b = setup
        auto, t_auto = _solve(
            gauge, grid, b, GCRDDConfig(tol=1e-6, precond_steps=8), backend
        )
        named, t_named = _solve(
            gauge, grid, b,
            GCRDDConfig(tol=1e-6, precond_steps=8, precond="schwarz"),
            backend,
        )
        assert auto.converged and named.converged
        assert auto.extras["precond"] == "schwarz"
        assert named.extras["precond"] == "schwarz"
        assert np.array_equal(auto.x, named.x)
        assert tuple(auto.residual_history) == tuple(named.residual_history)
        assert t_auto.comm_bytes == t_named.comm_bytes
        assert t_auto.messages == t_named.messages
        assert t_auto.reductions == t_named.reductions
        assert t_auto.local_reductions == t_named.local_reductions
        assert (
            t_auto.operator_applications == t_named.operator_applications
        )

    def test_schwarz_tally_carries_registry_record_name(self, setup):
        """The registry entry's record tag must match the historical
        "schwarz_precond" operator tally key."""
        geom, gauge, grid, b = setup
        _, t = _solve(
            gauge, grid, b, GCRDDConfig(tol=1e-6, precond_steps=8),
            "sequential",
        )
        assert t.operator_applications.get("schwarz_precond", 0) > 0


class TestBackendParityThroughRegistry:
    @pytest.fixture(scope="class")
    def results(self, setup):
        geom, gauge, grid, b = setup
        cfg = GCRDDConfig(tol=1e-6, precond_steps=8, precond="schwarz")
        return {
            backend: _solve(gauge, grid, b, cfg, backend)
            for backend in BACKENDS_AVAILABLE
        }

    def test_bit_identical_solutions_and_histories(self, results):
        reference = results["sequential"][0]
        for backend, (res, _) in results.items():
            assert res.converged, backend
            assert np.array_equal(res.x, reference.x), backend
            assert res.iterations == reference.iterations, backend
            assert tuple(res.residual_history) == tuple(
                reference.residual_history
            ), backend

    def test_identical_comm_tallies(self, results):
        reference = results["sequential"][1]
        for backend, (_, t) in results.items():
            assert t.comm_bytes == reference.comm_bytes, backend
            assert t.messages == reference.messages, backend
            assert t.reductions == reference.reductions, backend
            assert t.flops == reference.flops, backend
            assert (
                t.operator_applications == reference.operator_applications
            ), backend


class TestAgainstGlobalView:
    def test_registry_spmd_matches_global_view(self, setup):
        """The registry build path must agree between the SPMD rank
        programs and the global-array solver: the same history to
        rounding and the same operator-application counts."""
        geom, gauge, grid, b = setup
        cfg = GCRDDConfig(tol=1e-6, precond_steps=8, precond="schwarz")
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
        with tally() as t_global:
            reference = GCRDDSolver(op, grid, cfg).solve(b)
        res, t_spmd = _solve(gauge, grid, b, cfg, "sequential")
        np.testing.assert_allclose(
            res.residual_history, reference.residual_history, rtol=1e-2
        )
        spmd_apps = dict(t_spmd.operator_applications)
        # Outer matvecs are "dist_wilson_clover" events under SPMD.
        spmd_apps["wilson_clover"] += spmd_apps.pop("dist_wilson_clover")
        assert spmd_apps == t_global.operator_applications

    def test_single_process_solver_matches_distributed(self, setup):
        """GCRDDSolver (single-process reference) through the registry
        still resolves "auto" to the same entry the SPMD solver does."""
        geom, gauge, grid, b = setup
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
        cfg = GCRDDConfig(tol=1e-6, precond_steps=8)
        res = GCRDDSolver(op, grid, cfg).solve(b)
        assert res.converged
        assert res.extras["precond"] == "schwarz"


class TestSPMDRejectsRankGlobalEntries:
    @pytest.mark.parametrize("name", ["ras", "multisplit"])
    def test_non_spmd_precond_raises_with_choices(self, setup, name):
        """RAS / multisplit apply on the global view only;
        asking for them in an SPMD solve must fail with a field-named
        error listing the usable choices, not a deadlock."""
        geom, gauge, grid, b = setup
        from repro.precond import PrecondUnavailableError

        cfg = GCRDDConfig(tol=1e-6, precond_steps=8, precond=name)
        with pytest.raises(PrecondUnavailableError, match="rank-local") as err:
            SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
        assert "schwarz" in err.value.choices
