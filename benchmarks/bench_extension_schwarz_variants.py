"""Extension bench: the Schwarz variants of the paper's future-work list.

Compares, on real solves, the paper's non-overlapping additive Schwarz
against restricted additive Schwarz with overlap (Sec. 3.2's tunable) —
outer iterations, redundant work, and the communication character of
each.
"""

from __future__ import annotations

import pytest

from benchmarks.paper_data import print_table
from repro.comm import ProcessGrid
from repro.dd import (
    AdditiveSchwarzPreconditioner,
    OverlappingSchwarzPreconditioner,
)
from repro.dirac import WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.solvers import gcr
from repro.util.counters import tally


@pytest.fixture(scope="module")
def system():
    geom = Geometry((8, 8, 8, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=4242)
    op = WilsonCloverOperator(gauge, mass=0.15, csw=1.0)
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    b = SpinorField.random(geom, rng=4343).data
    return geom, op, part, b


def _variants(op, part):
    return {
        "additive (paper)": AdditiveSchwarzPreconditioner(
            op, part, mr_steps=6, precision=None
        ),
        "RAS overlap=1": OverlappingSchwarzPreconditioner(
            op, part, overlap=1, mr_steps=6, precision=None
        ),
        "RAS overlap=2": OverlappingSchwarzPreconditioner(
            op, part, overlap=2, mr_steps=6, precision=None
        ),
    }


def test_schwarz_variant_comparison(system):
    geom, op, part, b = system
    rows = []
    iters = {}
    for name, k in _variants(op, part).items():
        with tally() as t:
            res = gcr(op.apply, b, preconditioner=k, tol=1e-7, maxiter=300)
        assert res.converged, name
        iters[name] = res.iterations
        redundancy = getattr(k, "redundancy", 1.0)
        rows.append(
            [name, res.iterations, res.restarts, t.reductions,
             t.local_reductions, f"{redundancy:.2f}"]
        )
    print_table(
        "extension_schwarz_variants",
        "Extension — Schwarz variants as GCR preconditioners "
        "(real 8^4 solve, 4 blocks)",
        ["variant", "outer iters", "restarts", "global red.",
         "local red.", "redundant work"],
        rows,
    )
    # The paper's qualitative expectation:
    assert iters["RAS overlap=2"] < iters["additive (paper)"]


def test_overlap_iteration_monotonicity(system):
    geom, op, part, b = system
    series = []
    for overlap in (0, 1, 2):
        k = OverlappingSchwarzPreconditioner(
            op, part, overlap=overlap, mr_steps=6, precision=None
        )
        res = gcr(op.apply, b, preconditioner=k, tol=1e-7, maxiter=300)
        series.append(res.iterations)
    rows = [[o, n] for o, n in zip((0, 1, 2), series)]
    print_table(
        "extension_overlap_sweep",
        "Extension — overlap vs outer iterations",
        ["overlap", "outer iterations"],
        rows,
    )
    assert series[-1] <= series[0]


@pytest.mark.benchmark(group="extension-schwarz")
@pytest.mark.parametrize("variant", ["additive", "overlap2"])
def test_bench_preconditioner_application(benchmark, system, variant):
    geom, op, part, b = system
    k = {
        "additive": AdditiveSchwarzPreconditioner(op, part, mr_steps=6),
        "overlap2": OverlappingSchwarzPreconditioner(op, part, overlap=2,
                                                     mr_steps=6),
    }[variant]
    r = SpinorField.random(geom, rng=1).data
    benchmark(k, r)


if __name__ == "__main__":
    geom = Geometry((8, 8, 8, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=4242)
    op = WilsonCloverOperator(gauge, mass=0.15, csw=1.0)
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    b = SpinorField.random(geom, rng=4343).data
    test_schwarz_variant_comparison((geom, op, part, b))
