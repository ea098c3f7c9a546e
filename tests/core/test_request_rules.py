"""The library's rules for a solve request, stated once.

``validate_request`` raises a typed ``ValueError`` carrying the field and
the choices (the wire maps it to its 400), owns ``u0 > 0``, and the
precond registry decides whether an entry can take a batch of
right-hand sides.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GaugeField, Geometry, ProcessGrid, SolveRequest, solve
from repro.core import GCRDDConfig, GCRDDSolver
from repro.core.api import SolveRequestError, validate_request
from repro.dirac import WilsonCloverOperator
from repro.lattice import SpinorField
from repro.precond import PrecondUnavailableError, resolve_precond


@pytest.fixture(scope="module")
def gauge():
    return GaugeField.weak(Geometry((4, 4, 4, 4)), epsilon=0.25, rng=0)


def staggered_rhs(gauge, n=None):
    lane = SpinorField.random(gauge.geometry, nspin=1, rng=1).data
    return lane if n is None else np.stack([lane] * n)


class TestTypedError:
    def test_carries_field_and_choices(self, gauge):
        with pytest.raises(SolveRequestError) as exc:
            validate_request(SolveRequest(
                operator="asqtad", gauge=gauge, rhs=None, mass=0.2,
                method="bicgstab",
            ))
        err = exc.value
        assert isinstance(err, ValueError)
        assert err.field == "method"
        assert err.choices == ("auto", "cg")
        assert str(err).startswith("SolveRequest.method: unknown method")
        assert "valid choices: auto, cg" in str(err)
        assert err.problem == "unknown method 'bicgstab' for asqtad"


class TestU0:
    @pytest.mark.parametrize("u0", [0.0, -1.0])
    def test_a_non_positive_u0_is_refused_naming_u0(self, gauge, u0):
        with pytest.raises(SolveRequestError) as exc:
            solve(SolveRequest(
                operator="asqtad", gauge=gauge, rhs=staggered_rhs(gauge),
                mass=0.2, u0=u0,
            ))
        assert exc.value.field == "u0"
        assert "must be > 0" in str(exc.value)


class TestBatchedPrecond:
    def test_the_registry_states_the_requirement(self):
        with pytest.raises(PrecondUnavailableError) as exc:
            resolve_precond("ras", operator="staggered", batched=True)
        assert "ras" not in exc.value.choices
        assert "schwarz" in exc.value.choices
        assert resolve_precond("ras", operator="staggered").name == "ras"
        assert resolve_precond(
            "auto", operator="wilson", batched=True
        ).capabilities.batched

    def test_batched_asqtad_ras_raises_the_registrys_error(self, gauge):
        with pytest.raises(PrecondUnavailableError) as exc:
            solve(SolveRequest(
                operator="asqtad", gauge=gauge,
                rhs=staggered_rhs(gauge, 2), mass=0.2, precond="ras",
                grid=ProcessGrid((1, 1, 2, 2)),
            ))
        assert "cannot take a batch" in str(exc.value)
        assert "ras" not in exc.value.choices
        assert {"schwarz", "multisplit"} <= set(exc.value.choices)

    def test_a_single_asqtad_rhs_still_runs_ras(self, gauge):
        res = solve(SolveRequest(
            operator="asqtad", gauge=gauge, rhs=staggered_rhs(gauge),
            mass=0.2, precond="ras", grid=ProcessGrid((1, 1, 2, 2)),
            tol=1e-6,
        ))
        assert res.converged and res.extras["precond"] == "ras"

    def test_batched_gcrdd_ras_raises_the_registrys_error(self, gauge):
        op = WilsonCloverOperator(gauge, mass=0.1, csw=1.0)
        solver = GCRDDSolver(
            op, ProcessGrid((1, 1, 2, 2)), GCRDDConfig(precond="ras")
        )
        lane = SpinorField.random(gauge.geometry, rng=1).data
        with pytest.raises(PrecondUnavailableError) as exc:
            solver.solve(np.stack([lane, lane]))
        assert "ras" not in exc.value.choices
