"""One problem, one solution: on a one-rank grid every GCR-DD route —
the global view (``backend=None``) and each SPMD backend — runs the one
GCR-DD program in the one array space, so the solutions agree bit for
bit, the residual histories exactly and the tallied flops to the flop,
for one right-hand side and for a batch of two."""

import numpy as np
import pytest

from repro.comm.backends import process_backend_available
from repro.comm.grid import ProcessGrid
from repro.core.api import SolveRequest, solve
from repro.core.gcrdd import GCRDDConfig, GCRDDSolver
from repro.core.spmd import SPMDGCRDDSolver
from repro.dirac.staggered import NaiveStaggeredOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.util.counters import tally

GRID = ProcessGrid((1, 1, 1, 1))
ROUTES = (None, "sequential", "threads") + (
    ("processes",) if process_backend_available() else ()
)
PRECONDS = ("none", "schwarz")
MASS = 0.2


@pytest.fixture(scope="module")
def setup():
    geom = Geometry((4, 4, 4, 8))
    return geom, GaugeField.weak(geom, epsilon=0.25, rng=31)


def rhs(geom, batch: bool, nspin: int) -> np.ndarray:
    fields = [SpinorField.random(geom, nspin=nspin, rng=40 + i).data
              for i in range(2 if batch else 1)]
    return np.stack(fields) if batch else fields[0]


def assert_one_solution(runs: dict) -> None:
    """Every route's ``(result, tally)`` equals the global view's."""
    ref, ref_tally = runs[None]
    for route, (res, t) in runs.items():
        assert np.asarray(res.x).tobytes() == np.asarray(ref.x).tobytes(), route
        assert np.array_equal(
            np.asarray(res.residual_history), np.asarray(ref.residual_history)
        ), route
        assert np.array_equal(res.iterations, ref.iterations), route
        assert t.flops == ref_tally.flops, route


def run(route_solve) -> dict:
    runs = {}
    for route in ROUTES:
        with tally() as t:
            res = route_solve(route)
        runs[route] = (res, t)
    return runs


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch2"])
@pytest.mark.parametrize("precond", PRECONDS)
def test_wilson_clover_solve(setup, precond, batch):
    geom, gauge = setup
    b = rhs(geom, batch, nspin=4)
    runs = run(lambda backend: solve(SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=b, mass=MASS, csw=1.0,
        tol=1e-6, method="gcr-dd", grid=GRID, backend=backend,
        precond=precond,
    )))
    assert all(np.all(res.converged) for res, _ in runs.values())
    assert_one_solution(runs)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch2"])
@pytest.mark.parametrize("precond", PRECONDS)
def test_staggered_solver_classes(setup, precond, batch):
    geom, gauge = setup
    b = rhs(geom, batch, nspin=1)
    config = GCRDDConfig(tol=1e-6, precond=precond, precond_steps=4)
    spmd = SPMDGCRDDSolver(gauge, MASS, 0.0, GRID, config=config,
                           operator="staggered")
    op = NaiveStaggeredOperator(gauge, mass=MASS, kernel=spmd.kernel)
    global_view = GCRDDSolver(op, GRID, config)
    runs = run(lambda backend: (
        global_view.solve(b) if backend is None
        else spmd.solve(b, backend=backend)
    ))
    assert all(np.all(res.converged) for res, _ in runs.values())
    assert_one_solution(runs)
