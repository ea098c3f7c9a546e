"""One rule set for a solve request: the wire admits exactly what the
library solves.

:meth:`ServiceRequest.from_wire` checks wire types and the serving
policy, and leaves every semantic rule to
:func:`~repro.core.api.validate_request` and the precond registry — so a
payload is admitted exactly when the policy holds and the library accepts
the (always batched) solve the service would run.  The grid below is the
generated cross product of the knobs where the two used to drift.
"""

from __future__ import annotations

import itertools
import json
import urllib.error
import urllib.request

import pytest

from repro.core.api import (
    DEFAULT_METHOD,
    KERNEL_FAMILY,
    SolveRequest,
    SolveRequestError,
    resolve_request_precond,
    validate_request,
)
from repro.kernels import resolve_kernel
from repro.precision import precision
from repro.serve import ServeServer, SolveService
from repro.serve.coalescer import CoalesceOutcome
from repro.serve.errors import RequestValidationError, ServiceClosedError
from repro.serve.queue import QueuedRequest, Ticket
from repro.serve.request import (
    LIBRARY_ONLY_METHODS,
    SERVABLE_OPERATORS,
    ServiceRequest,
    block_grid,
)

DIMS = [4, 4, 4, 4]
METHODS = ("auto", "bicgstab", "cg", "gcr-dd")
PRECONDS = ("auto", "none", "schwarz", "ras", "twolevel", "multisplit", "sap")
INNER_PRECISIONS = (None, "single", "half")
KERNELS = ("auto", "numpy", "c")


def payload(operator="asqtad", **knobs):
    doc = {
        "operator": operator,
        "mass": 0.2,
        "gauge": {"kind": "weak", "dims": DIMS, "seed": 3},
        "rhs": {"kind": "random", "seed": 1},
    }
    doc.update({k: v for k, v in knobs.items() if v is not None})
    return doc


def cross_product():
    """Every payload of the grid: operator x method x precond x
    inner_precision x even_odd x kernel."""
    for op, method, precond, inner, even_odd, kernel in itertools.product(
        SERVABLE_OPERATORS, METHODS, PRECONDS, INNER_PRECISIONS,
        (False, True), KERNELS,
    ):
        yield payload(
            op, method=method, precond=precond, inner_precision=inner,
            even_odd=even_odd, kernel=kernel,
        )


def library_accepts(doc) -> bool:
    """The serving policy holds, and ``validate_request`` accepts the
    batched solve the service would run (its precond taking a batch)."""
    op = doc["operator"]
    if doc["method"] in LIBRARY_ONLY_METHODS:
        return False
    precond = doc["precond"]
    try:
        request = SolveRequest(
            operator=op, gauge=None, rhs=None, mass=doc["mass"],
            method=(DEFAULT_METHOD[op] if doc["method"] == "auto"
                    else doc["method"]),
            kernel=resolve_kernel(doc["kernel"], KERNEL_FAMILY[op]).name,
            precond=precond,
            inner_precision=(
                None if "inner_precision" not in doc
                else precision(doc["inner_precision"])
            ),
            even_odd=doc["even_odd"],
            grid=(None if precond in ("auto", "none")
                  else block_grid(4, DIMS)),
        )
        validate_request(request)
        resolve_request_precond(request, batched=True)
    except ValueError:
        return False
    return True


def admit(doc):
    """The admitted request, or the 400's error."""
    try:
        return ServiceRequest.from_wire(doc)
    except RequestValidationError as exc:
        return exc


class TestDrift:
    """The two requests the wire used to admit only to fail with a 500."""

    def test_preconditioned_asqtad_refuses_inner_precision(self):
        err = admit(payload(precond="schwarz", inner_precision="single"))
        assert isinstance(err, RequestValidationError)
        assert err.field == "inner_precision"
        assert err.http_status == 400
        assert "cannot combine" in str(err)

    def test_a_precond_that_cannot_take_a_batch_is_not_served(self):
        err = admit(payload(precond="ras"))
        assert isinstance(err, RequestValidationError)
        assert err.field == "precond"
        assert "ras" not in err.choices
        assert {"schwarz", "multisplit"} <= set(err.choices)

    @pytest.mark.parametrize("name", ["twolevel", "sap"])
    @pytest.mark.parametrize("operator, method", [
        ("asqtad", "cg"), ("wilson_clover", "gcr-dd"),
        ("wilson_clover", "bicgstab"),
    ])
    def test_a_precond_the_registry_lacks_is_refused_alike(
        self, operator, method, name
    ):
        """A name no entry registers is the library's typed error and the
        wire's 400, both on ``precond`` and listing the same choices:
        refused before the method matters, on a method that takes a
        preconditioner and on one that does not."""
        choices = ("auto", "schwarz", "ras", "multisplit", "none")
        err = admit(payload(operator, precond=name, method=(
            None if method == "gcr-dd" else method)))
        assert isinstance(err, RequestValidationError)
        assert err.field == "precond" and err.http_status == 400
        assert tuple(err.choices) == choices
        with pytest.raises(SolveRequestError) as exc:
            validate_request(SolveRequest(
                operator=operator, gauge=None, rhs=None, mass=0.2,
                method=method, precond=name, grid=block_grid(4, DIMS),
            ))
        assert exc.value.field == "precond"
        assert tuple(exc.value.choices) == choices
        assert "unknown" in str(err) and "unknown" in str(exc.value)

    def test_both_are_400s_over_http(self):
        server = ServeServer(SolveService().start(), port=0).start()
        try:
            for doc, field in (
                (payload(precond="schwarz", inner_precision="single"),
                 "inner_precision"),
                (payload(precond="ras"), "precond"),
                (payload(precond="twolevel"), "precond"),
                (payload(precond="sap"), "precond"),
            ):
                req = urllib.request.Request(
                    server.url + "/v1/solve", data=json.dumps(doc).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as exc:
                    urllib.request.urlopen(req, timeout=60)
                assert exc.value.code == 400
                error = json.loads(exc.value.read())["error"]
                assert error["code"] == "invalid_request"
                assert error["field"] == field
            assert server.service.stats()["requests"].get("failed", 0) == 0
        finally:
            server.stop()

    def test_u0_is_the_librarys_rule(self):
        for u0 in (0.0, -1.0):
            err = admit(payload(u0=u0))
            assert isinstance(err, RequestValidationError)
            assert err.field == "u0"


class TestAgreement:
    GRID = list(cross_product())

    def test_the_wire_admits_exactly_what_the_library_solves(self):
        disagree = [
            doc for doc in self.GRID
            if isinstance(admit(doc), ServiceRequest) != library_accepts(doc)
        ]
        assert not disagree, disagree[:3]
        # The grid exercises both sides of the rule.
        admitted = sum(library_accepts(doc) for doc in self.GRID)
        assert 0 < admitted < len(self.GRID)

    def test_every_refusal_names_a_field(self):
        for doc in self.GRID:
            err = admit(doc)
            if isinstance(err, RequestValidationError):
                assert err.field in doc or err.field == "precond_blocks", (
                    doc, err.field,
                )

    def test_every_admitted_request_runs_a_batchable_precond(
        self, monkeypatch
    ):
        """Each admitted request, through ``_execute``, reaches
        ``solve`` as a batch whose precond the registry resolves with
        ``batched=True`` — the solve the service runs is the one the
        wire admitted."""
        import repro.serve.service as service_module

        ran = []

        class Stop(Exception):
            pass

        def spy(request):
            ran.append(request)
            raise Stop

        monkeypatch.setattr(service_module, "solve", spy)
        service = SolveService()
        admitted = [r for r in map(admit, self.GRID)
                    if isinstance(r, ServiceRequest)]
        for request in admitted:
            entry = QueuedRequest(request=request, ticket=Ticket())
            with pytest.raises(Stop):
                service._execute(CoalesceOutcome(group=[entry]))
            solve = ran[-1]
            assert solve.rhs.shape[0] == 1  # a batch of one lane
            validate_request(solve)
            resolve_request_precond(solve, batched=True)
            assert solve.precond == request.solve.precond != "auto"
        assert len(ran) == len(admitted)


def test_a_gauge_file_factors_its_blocks_at_execution(tmp_path):
    """A gauge file's lattice is unknown at admission: the request is
    admitted without a grid and solved on the blocks its lattice
    factors into — the same bits as the same configuration by spec."""
    from repro import io as repro_io
    from repro.lattice import GaugeField, Geometry

    path = str(tmp_path / "cfg.npz")
    repro_io.save_gauge(
        path, GaugeField.weak(Geometry(tuple(DIMS)), epsilon=0.25, rng=3)
    )
    by_file = payload(precond="schwarz", tol=1e-8,
                      gauge={"kind": "file", "path": path})
    by_spec = payload(precond="schwarz", tol=1e-8)
    request = ServiceRequest.from_wire(by_file)
    assert request.solve.grid is None and request.precond_blocks == 4
    service = SolveService(max_wait=0.01).start()
    try:
        a, b = (service.solve_sync(doc, timeout=120)
                for doc in (by_file, by_spec))
    finally:
        service.shutdown()
    assert a.converged and b.converged
    assert a.iterations == b.iterations
    assert a.x.tobytes() == b.x.tobytes()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestDeadDispatcher:
    """A dispatcher that dies is visible: /healthz is a 503 saying so,
    and nothing is queued that nothing will drain."""

    def test_a_dead_dispatcher_is_a_503(self, monkeypatch):
        service = SolveService(max_wait=0.01)

        def boom(*args, **kwargs):
            raise RuntimeError("scheduler bug")

        monkeypatch.setattr(service.coalescer, "next_group", boom)
        server = ServeServer(service.start(), port=0).start()
        try:
            service._thread.join(10)
            assert not service.running
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(server.url + "/healthz", timeout=10)
            assert exc.value.code == 503
            assert json.loads(exc.value.read()) == {
                "status": "dispatcher_down"
            }
            with pytest.raises(ServiceClosedError) as closed:
                service.submit(payload())
            assert closed.value.http_status == 503
            assert "scheduler bug" in str(closed.value)
            assert service.queue.depth == 0
        finally:
            server.stop()

    def test_what_was_queued_fails_with_the_cause(self, monkeypatch):
        service = SolveService(max_wait=0.01)
        ticket = service.submit(payload())  # queued before the start

        def boom(*args, **kwargs):
            raise RuntimeError("scheduler bug")

        monkeypatch.setattr(service.coalescer, "next_group", boom)
        service.start()._thread.join(10)
        assert not service.running
        with pytest.raises(ServiceClosedError, match="scheduler bug"):
            ticket.result(timeout=10)
