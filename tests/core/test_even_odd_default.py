"""``even_odd="auto"``: a Wilson-clover BiCGstab request solves the even-odd
Schur system on half-lattice fields, and ``tol`` stays a guarantee on the
full system; everything else keeps the full system and its bits."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import (
    GaugeField, Geometry, ProcessGrid, SolveRequest, SpinorField, solve,
)
from repro.core.api import (
    SolveRequestError, resolve_even_odd, validate_request,
)
from repro.dirac import WilsonCloverOperator
from repro.precision import SINGLE
from repro.serve import ServiceRequest
from repro.serve.errors import RequestValidationError


def reference_residual(gauge, mass, x, b):
    """``|b - M x| / |b|`` per lane with the independent reference tier."""
    ref = WilsonCloverOperator(gauge, mass, 1.0, kernel="numpy_ref")
    lanes = b.reshape((-1,) + b.shape[-6:])
    xs = x.reshape(lanes.shape)
    return np.array([
        np.linalg.norm(bl - ref.apply(xl)) / np.linalg.norm(bl)
        for xl, bl in zip(xs, lanes)
    ])


class TestFullSystemResidual:
    """The Schur solve stops each lane at ``tol |b| / |bhat|``: its
    residual IS the full one, so the full residual meets ``tol`` and is the
    residual the result reports."""

    @pytest.mark.parametrize("seed", range(10))
    def test_single_rhs(self, seed):
        geom = Geometry((8, 8, 8, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=seed)
        b = SpinorField.random(geom, rng=seed + 1).data
        res = solve(SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=b, mass=0.1, tol=1e-8,
            method="bicgstab",
        ))
        assert res.report.fingerprint["config"]["even_odd"] is True
        assert res.converged
        true = reference_residual(gauge, 0.1, res.x, b)[0]
        assert true <= 1e-8
        assert res.residual == pytest.approx(true, rel=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_a_propagator_batch(self, seed):
        """Twelve lanes, point and random sources, at the serve shape."""
        geom = Geometry((4, 4, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=seed)
        b = np.stack([
            SpinorField.point_source(
                geom, (seed % 4, 1, 2, 3), spin=k // 3, color=k % 3
            ).data if k % 2 == 0 else SpinorField.random(geom, rng=seed + k).data
            for k in range(12)
        ])
        res = solve(SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=b, mass=0.1, tol=1e-6,
        ))
        assert res.converged.all()
        true = reference_residual(gauge, 0.1, res.x, b)
        assert (true <= 1e-6).all()
        np.testing.assert_allclose(res.residuals, true, rtol=1e-5)

    def test_halves_the_iterations(self):
        geom = Geometry((8, 8, 8, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=0)
        b = SpinorField.random(geom, rng=1).data

        def run(even_odd):
            return solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=b, mass=0.1,
                tol=1e-8, even_odd=even_odd,
            ))

        schur, full = run("auto"), run(False)
        assert schur.iterations <= full.iterations * 0.6
        assert full.report.fingerprint["config"]["even_odd"] is False


class TestReferenceTier:
    def test_a_numpy_ref_solve_runs_the_reference_formulation(
        self, monkeypatch
    ):
        """``kernel="numpy_ref"`` takes the Schur system too, built from
        the full-spinor dslash: the half-lattice body never runs, and the
        solution agrees with the fast tier's."""
        import repro.dirac.evenodd

        calls = []
        reference = WilsonCloverOperator._dslash_reference
        monkeypatch.setattr(
            WilsonCloverOperator, "_dslash_reference",
            lambda self, x: (calls.append(x.shape), reference(self, x))[1],
        )

        def refused(*args, **kwargs):
            raise AssertionError("the half-lattice body ran")

        monkeypatch.setattr(repro.dirac.evenodd, "hop_sites", refused)
        geom = Geometry((4, 4, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=3)
        b = SpinorField.random(geom, rng=4).data

        def run(kernel):
            return solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=b, mass=0.1,
                tol=1e-8, kernel=kernel,
            ))

        res = run("numpy_ref")
        assert res.report.fingerprint["config"]["even_odd"] is True
        assert calls and all(shape == b.shape for shape in calls)
        assert res.converged
        true = reference_residual(gauge, 0.1, res.x, b)[0]
        assert true <= 1e-8
        assert res.residual == pytest.approx(true, rel=1e-5)
        monkeypatch.undo()
        fast = run("numpy")
        assert np.abs(res.x - fast.x).max() < 1e-7 * np.abs(fast.x).max()


class TestGCRDDKeepsItsBits:
    def test_the_benchmark_request_repeats(self):
        """The GCR-DD benchmark request (8^4, grid 1x1x2x2, Schwarz) solves
        the full system: its solution keeps its sha256."""
        geom = Geometry((8, 8, 8, 8))
        res = solve(SolveRequest(
            operator="wilson_clover",
            gauge=GaugeField.weak(geom, epsilon=0.25, rng=0),
            rhs=SpinorField.random(geom, rng=1).data, mass=0.1, tol=1e-6,
            method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2)), precond="auto",
        ))
        assert res.report.fingerprint["config"]["even_odd"] is False
        assert hashlib.sha256(res.x.tobytes()).hexdigest()[:8] == "bd5cb6fb"
        tally = res.report.to_dict()["tally"]
        assert (res.iterations, res.matvecs, res.restarts) == (20, 25, 5)
        assert (tally["flops"], tally["bytes_moved"]) == (2106949632, 2339241984)
        assert (tally["reductions"], tally["local_reductions"]) == (105, 2480)


def request(**fields):
    base = dict(operator="wilson_clover", gauge=None, rhs=None, mass=0.1)
    return SolveRequest(**{**base, **fields})


class TestResolution:
    @pytest.mark.parametrize("fields, expected", [
        (dict(), True),
        (dict(method="bicgstab"), True),
        (dict(method="bicgstab", inner_precision=SINGLE), True),
        (dict(method="gcr-dd", grid=ProcessGrid((1, 1, 1, 2))), False),
        (dict(operator="asqtad"), False),
        (dict(operator="asqtad", method="cg"), False),
        (dict(operator="asqtad_multishift", shifts=[0.0]), False),
        (dict(even_odd=False), False),
        (dict(method="bicgstab", even_odd=True), True),
    ])
    def test_auto_resolves_per_operator(self, fields, expected):
        req = request(**fields)
        validate_request(req)
        assert resolve_even_odd(req) is expected

    @pytest.mark.parametrize("fields", [
        dict(operator="asqtad", even_odd=True),
        dict(method="gcr-dd", grid=ProcessGrid((1, 1, 1, 2)), even_odd=True),
        dict(even_odd="yes"),
        dict(even_odd=1),
    ])
    def test_explicit_misuse_is_a_named_error(self, fields):
        with pytest.raises(SolveRequestError) as exc:
            validate_request(request(**fields))
        assert exc.value.field == "even_odd"

    def test_the_wire_resolves_with_the_same_rule(self):
        wire = {
            "operator": "wilson_clover", "mass": 0.1,
            "gauge": {"kind": "weak", "dims": [4, 4, 4, 4], "seed": 1},
        }
        auto = ServiceRequest.from_wire(wire)
        explicit = ServiceRequest.from_wire({**wire, "even_odd": True})
        assert auto.solve.even_odd is True
        assert auto.fingerprint == explicit.fingerprint
        full = ServiceRequest.from_wire({**wire, "even_odd": False})
        assert full.solve.even_odd is False
        assert full.fingerprint != auto.fingerprint
        staggered = ServiceRequest.from_wire({**wire, "operator": "asqtad"})
        assert staggered.solve.even_odd is False
        with pytest.raises(RequestValidationError):
            ServiceRequest.from_wire({**wire, "even_odd": "sometimes"})
