"""The compiled edges of a Schur solve, bit for bit, and where the bound
dispatch declines.

``EvenOddPreconditionedWilson`` binds its operands once on the ``c`` tier
(``CBackend.wilson_schur_bind``) and then runs ``prepare_rhs``,
``reconstruct`` and ``reconstruct_residual`` as one compiled call each,
reading and writing the full-lattice fields a parity at a time.  Each must
equal the NumPy passes (``_pass``, what the operator runs unbound) and the
``numpy`` tier — the field, the residual vector and the reported relative
residual — over odd half-X rows, a single-site row, antiperiodic T, a batch
of 3, signed zeros and infinities, and a complex64 field on the complex128
operator.  The bound dispatch runs the NumPy body exactly where the old
per-call wrapper did: a complex64 operator, a non-contiguous field, a
wrong shape.  Unbound — the ``numpy`` tier, or a host without ``cc`` —
``reconstruct_residual`` is ``reconstruct`` and ``b - apply_full``.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from _c_grid import field, needs_c, same_bits
from repro.comm import ProcessGrid
from repro.core.api import _rel_residuals
from repro.dirac import BoundarySpec, EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.lattice import GaugeField, Geometry
from repro.multigpu import BlockPartition
from repro.util.counters import tally

#: (X, Y, Z, T) and the boundary: half-X rows of 3 and 1 sites, whole
#: site-vector blocks, antiperiodic T.
CASES = {
    "odd-half-x": ((6, 4, 2, 4), ("periodic",) * 3 + ("antiperiodic",)),
    "single-site-rows": (
        (2, 4, 4, 2), ("antiperiodic", "periodic", "zero", "periodic")
    ),
    "physical": ((4, 4, 4, 8), ("periodic",) * 3 + ("antiperiodic",)),
    "8^4": ((8, 8, 8, 8), ("periodic",) * 4),
}


def unbound(op):
    """``op`` running its NumPy passes: the oracle of the compiled edges."""
    out = copy.copy(op)
    out._schur = None
    return out


def operators(case, kernels):
    dims, conditions = CASES[case]
    gauge = GaugeField.weak(Geometry(dims), epsilon=0.3, rng=sum(dims))
    return {
        kernel: EvenOddPreconditionedWilson(WilsonCloverOperator(
            gauge, mass=0.05, csw=1.2, boundary=BoundarySpec(conditions),
            kernel=kernel,
        ))
        for kernel in kernels
    }


@pytest.fixture(scope="module", params=list(CASES))
def ops(request):
    made = operators(request.param, ("numpy", "c"))
    assert made["c"]._schur is not None, "the c tier bound nothing"
    return made


@pytest.mark.parametrize("batch", [0, 3], ids=["single", "batch3"])
def test_unbound_reconstruct_residual(batch):
    """Any host: an operator that binds nothing (the ``numpy`` tier)
    answers ``reconstruct_residual`` with ``reconstruct`` and ``b -
    apply_full``, recorded as that one application."""
    eo = operators("odd-half-x", ("numpy",))["numpy"]
    assert eo._schur is None
    rng = np.random.default_rng(batch)
    lead = (batch,) if batch else ()
    b = field(rng, lead + eo.wilson.geometry.shape + (4, 3), np.complex128, "dense")
    x_e = eo.prepare_rhs(b)
    with tally() as ledger:
        x, r = eo.reconstruct_residual(x_e, b)
    with tally() as expected:
        want = b - eo.apply_full(x)
    assert same_bits(x, eo.reconstruct(x_e, b)) and same_bits(r, want)
    assert ledger.operator_applications == expected.operator_applications == {
        "wilson_clover": 1
    }


@needs_c
@pytest.mark.parametrize("fill", ["dense", "negative-zero", "inf"])
@pytest.mark.parametrize("batch", [0, 3], ids=["single", "batch3"])
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["c128", "c64"])
def test_compiled_edges_are_the_numpy_passes(ops, dtype, batch, fill):
    c = ops["c"]
    oracles = (unbound(c), ops["numpy"])
    rng = np.random.default_rng(batch + len(fill))
    lead = (batch,) if batch else ()
    b = field(rng, lead + c.wilson.geometry.shape + (4, 3), dtype, fill)
    x_e = field(rng, lead + c.geometry.shape + (4, 3), dtype, fill)
    with np.errstate(invalid="ignore", over="ignore"):
        assert c._schur.rhs(b) is not None, "the compiled entry refused b"
        assert c._schur.solution(x_e, b, True) is not None
        got_rhs = c.prepare_rhs(b)
        got_x = c.reconstruct(x_e, b)
        with tally() as ledger:
            x, r = c.reconstruct_residual(x_e, b)
        for oracle in oracles:
            assert same_bits(got_rhs, oracle.prepare_rhs(b))
            assert same_bits(got_x, oracle.reconstruct(x_e, b))
            with tally() as expected:
                want_r = b - oracle.apply_full(oracle.reconstruct(x_e, b))
            assert same_bits(x, got_x) and same_bits(r, want_r)
            assert ledger.operator_applications == expected.operator_applications
            assert (ledger.flops, ledger.bytes_moved) == (
                expected.flops, expected.bytes_moved
            )
            rel = _rel_residuals(r, b, bool(batch))
            want = _rel_residuals(want_r, b, bool(batch))
            assert same_bits(np.asarray(rel), np.asarray(want))
    assert ledger.operator_applications == {"wilson_clover": 1}
    assert got_rhs.dtype == x.dtype == r.dtype == np.dtype(dtype)


@needs_c
def test_edges_of_a_lane_stack():
    """The cut complements of a partition as lanes: the compiled edges on
    their full-lattice blocks equal the NumPy passes."""
    geom = Geometry((8, 4, 4, 4))
    gauge = GaugeField.weak(geom, epsilon=0.3, rng=4)
    eo = EvenOddPreconditionedWilson(
        WilsonCloverOperator(gauge, mass=0.1, csw=1.0, kernel="c")
    )
    stack = eo.restrict_to_blocks(
        BlockPartition(eo.geometry, ProcessGrid((2, 1, 1, 2)))
    )
    assert stack._schur is not None and stack.lanes == 4
    rng = np.random.default_rng(5)
    shape = (2, 4) + stack.wilson.geometry.shape + (4, 3)
    b = field(rng, shape, np.complex128, "dense")
    oracle = unbound(stack)
    x_e = stack.prepare_rhs(b)
    assert same_bits(x_e, oracle.prepare_rhs(b))
    x, r = stack.reconstruct_residual(x_e, b)
    assert same_bits(x, oracle.reconstruct(x_e, b))
    assert same_bits(r, b - oracle.apply_full(x))
    picked = stack.take_lanes([3, 1])
    assert picked._schur is not None
    assert same_bits(picked.prepare_rhs(b[:, [3, 1]]), x_e[:, [3, 1]])


@needs_c
def test_the_bound_dispatch_declines_where_the_wrapper_did(ops):
    c = ops["c"]
    rng = np.random.default_rng(7)
    half = c.geometry.shape + (4, 3)
    full = c.wilson.geometry.shape + (4, 3)
    x_e = field(rng, (2,) + half, np.complex128, "dense")
    b = field(rng, (2,) + full, np.complex128, "dense")
    bound = c._schur
    # a non-contiguous field: the NumPy body, the same bits
    strided = np.stack([x_e, x_e], axis=-1)[..., 0]
    assert not strided.flags.c_contiguous
    assert bound.apply(strided, None) is None
    assert same_bits(c.apply(strided), c.apply(x_e))
    b_strided = np.stack([b, b], axis=-1)[..., 0]
    assert bound.rhs(b_strided) is None
    assert bound.solution(x_e, b_strided, True) is None
    assert same_bits(c.prepare_rhs(b_strided), c.prepare_rhs(b))
    # a wrong shape: the full field where the half one goes, and back
    assert bound.apply(b, None) is None
    assert bound.rhs(x_e) is None
    assert bound.solution(x_e[:1], b, False) is None
    # a complex128 field on a complex64 operator; x_e and b of two dtypes
    assert bound.solution(x_e.astype(np.complex64), b, True) is None
    gauge64 = GaugeField(c.wilson.geometry, c.wilson.gauge.data.astype(np.complex64))
    c64 = EvenOddPreconditionedWilson(WilsonCloverOperator(
        gauge64, mass=0.05, csw=1.2, boundary=c.wilson.boundary, kernel="c",
    ))
    assert c64._schur is None  # its held terms are float64: the NumPy passes
    # what is bound travels: unpickled, the operator binds again
    again = pickle.loads(pickle.dumps(c))
    assert again._schur is not None and again._schur is not bound
    assert same_bits(again.apply(x_e), c.apply(x_e))
