"""Every single-RHS entry point of :mod:`repro.solvers` is the batch of one
of its batched loop, and gives the single-RHS loops it replaced
(``_scalar_loop_oracle``) bit for bit: the solution's bytes, convergence,
iterations, residual and its history, matvecs, restarts, the extras the
oracle reports, and the tally — on well-posed systems, ``x0`` starts,
complex64 fields, zero and non-finite right-hand sides, a NaN met
mid-solve and the breakdowns.

Where the two part on purpose the test says so: ``cg`` and ``pcg``
report a non-positive pivot as ``extras["breakdown"] is True`` (the
oracle's ``cg`` left it False and its ``pcg`` had no ``extras``), and
``pcg`` ends within the iteration that meets a non-finite value where
the oracle ran on to ``maxiter``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import _scalar_loop_oracle as oracle
from repro.comm import ProcessGrid
from repro.dd import AdditiveSchwarzPreconditioner
from repro.lattice import SpinorField
from repro.multigpu import BlockPartition
from repro.precision import HALF, SINGLE
from repro.solvers import bicgstab, cg, defect_correction, gcr, mr, pcg
from repro.solvers.space import STAGGERED_SPACE, WILSON_SPACE
from repro.util.counters import tally

LEDGER = ("flops", "bytes_moved", "reductions", "local_reductions",
          "operator_applications")

ENTRY = {
    "bicgstab": (bicgstab, oracle.bicgstab),
    "cg": (cg, oracle.cg),
    "pcg": (pcg, oracle.pcg),
    "mr": (mr, oracle.mr),
    "gcr": (gcr, oracle.gcr),
    "defect_correction": (defect_correction, oracle.defect_correction),
}


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same(name, *args, extras_differ=(), **how):
    new, old = ENTRY[name]
    with tally() as t_new:
        got = new(*args, **how)
    with tally() as t_old:
        want = old(*args, **how)
    assert got.x.dtype == want.x.dtype
    assert got.x.shape == want.x.shape
    assert got.x.tobytes() == want.x.tobytes()
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert same_float(got.residual, want.residual)
    assert len(got.residual_history) == len(want.residual_history)
    for a, b in zip(got.residual_history, want.residual_history):
        assert same_float(a, b)
    assert (got.matvecs, got.restarts) == (want.matvecs, want.restarts)
    for key, value in want.extras.items():
        if key not in extras_differ:
            assert got.extras[key] == value, key
    for field in LEDGER:
        assert getattr(t_new, field) == getattr(t_old, field), field
    return got, want


@pytest.fixture(scope="module")
def b4(geom):
    return SpinorField.random(geom, rng=11).data


@pytest.fixture(scope="module")
def s4(geom):
    return SpinorField.random(geom, nspin=1, rng=12).data


@pytest.fixture(scope="module")
def schwarz(geom, staggered_normal):
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    return AdditiveSchwarzPreconditioner(staggered_normal, part, mr_steps=4)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("start", ["zero", "guess"])
class TestWellPosed:
    def test_bicgstab(self, wilson, b4, dtype, start):
        b = b4.astype(dtype)
        x0 = None if start == "zero" else 0.1 * b[..., ::-1, :]
        assert_same("bicgstab", wilson.apply, b, x0=x0, tol=1e-7,
                    maxiter=200, space=WILSON_SPACE)

    def test_cg(self, staggered_normal, s4, dtype, start):
        b = s4.astype(dtype)
        x0 = None if start == "zero" else 0.1 * b[..., ::-1]
        assert_same("cg", staggered_normal.apply, b, x0=x0, tol=1e-7,
                    maxiter=300, space=STAGGERED_SPACE)

    def test_pcg(self, staggered_normal, s4, schwarz, dtype, start):
        b = s4.astype(dtype)
        x0 = None if start == "zero" else 0.1 * b[..., ::-1]
        assert_same("pcg", staggered_normal.apply, b, x0=x0,
                    preconditioner=schwarz, tol=1e-7, maxiter=300,
                    space=STAGGERED_SPACE, extras_differ=("breakdown",))

    def test_mr(self, wilson, b4, dtype, start):
        b = b4.astype(dtype)
        x0 = None if start == "zero" else 0.1 * b[..., ::-1, :]
        for omega in (1.0, 0.9):
            assert_same("mr", wilson.apply, b, steps=8, omega=omega, x0=x0,
                        space=WILSON_SPACE)

    @pytest.mark.parametrize("inner", [None, SINGLE, HALF])
    def test_gcr(self, wilson, b4, dtype, start, inner):
        b = b4.astype(dtype)
        x0 = None if start == "zero" else 0.1 * b[..., ::-1, :]
        part = BlockPartition(wilson.geometry, ProcessGrid((1, 1, 2, 2)))
        schwarz = AdditiveSchwarzPreconditioner(wilson, part, mr_steps=4,
                                                precision=HALF)
        for precond in (None, schwarz):
            got, _ = assert_same(
                "gcr", wilson.apply, b, x0=x0, preconditioner=precond,
                tol=1e-6, kmax=6, maxiter=200, outer_precision=SINGLE,
                inner_precision=inner, space=WILSON_SPACE)
            assert got.restarts > 1

    def test_defect_correction(self, wilson, staggered_normal, b4, s4, dtype,
                               start):
        for op, b, inner, space in (
            (wilson.apply, b4, bicgstab, WILSON_SPACE),
            (staggered_normal.apply, s4, cg, STAGGERED_SPACE),
        ):
            b = b.astype(dtype)
            x0 = None if start == "zero" else 0.1 * b[::-1]
            oracle_inner = {bicgstab: oracle.bicgstab, cg: oracle.cg}[inner]
            new, old = ENTRY["defect_correction"]
            how = dict(x0=x0, tol=1e-10, inner_tol=1e-3, space=space)
            with tally() as t_new:
                got = new(op, b, inner, SINGLE, **how)
            with tally() as t_old:
                want = old(op, b, oracle_inner, SINGLE, **how)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.residual_history == want.residual_history
            assert (got.iterations, got.matvecs, got.restarts) == (
                want.iterations, want.matvecs, want.restarts)
            assert got.extras == want.extras
            for field in LEDGER:
                assert getattr(t_new, field) == getattr(t_old, field), field


# ----------------------------------------------------------------------
# the unhappy paths
# ----------------------------------------------------------------------
N = 512
#: Positive on the first half, its mirror image on the second: dyadic
#: values, so ``sum(d)`` is exactly 0 in any order.
DIAGONAL = np.concatenate([1.0 + (np.arange(N // 2) % 32) / 32] * 2)
DIAGONAL[N // 2:] *= -1.0


def diagonal(x):
    """``d * x``, and NaN wherever an entry of ``x`` is beyond 1e100."""
    out = DIAGONAL * x
    out[np.abs(x) > 1e100] = np.nan
    return out


def vector(rng, n=48):
    b = np.zeros(N, dtype=np.complex128)
    b[:n] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return b


NAMES = ("bicgstab", "cg", "mr", "gcr")


def run_how(name):
    return {"mr": dict(steps=6)}.get(name, dict(tol=1e-10, maxiter=300))


@pytest.mark.parametrize("name", NAMES)
def test_definite_diagonal(rng, name):
    assert_same(name, diagonal, vector(rng), **run_how(name))


@pytest.mark.parametrize("name", NAMES)
def test_zero_rhs(name):
    got, _ = assert_same(name, diagonal, np.zeros(N, np.complex128),
                         **run_how(name))
    assert got.converged or name == "mr"


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_rhs(rng, name):
    b = vector(rng)
    b[3] = np.nan
    got, _ = assert_same(name, diagonal, b, **run_how(name))
    assert not got.converged


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_met_mid_solve(rng, name):
    b = vector(rng)
    b[7] = 2e100  # finite, but its image under the operator is NaN
    got, _ = assert_same(name, diagonal, b, **run_how(name))
    assert got.extras["breakdown"] == "non-finite"


@pytest.mark.parametrize("name", ["bicgstab", "cg"])
def test_a_vanishing_pivot(name):
    """All ones: the first pivot is ``sum(d) == 0`` exactly (BiCGstab's
    ``r_hat . A p``, CG's ``p . A p``)."""
    got, want = assert_same(name, diagonal, np.ones(N, np.complex128),
                            extras_differ=("breakdown",), **run_how(name))
    assert not got.converged and got.extras["breakdown"] is True
    assert want.extras["breakdown"] is (name == "bicgstab")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_operator(rng, name):
    differ = ("breakdown",) if name == "cg" else ()
    assert_same(name, np.zeros_like, vector(rng), extras_differ=differ,
                **run_how(name))


@pytest.mark.parametrize("name", NAMES)
def test_identity(rng, name):
    """``A s`` vanishes in BiCGstab's first iteration: ``s`` is exact."""
    assert_same(name, lambda x: 1.0 * x, vector(rng), **run_how(name))


def test_indefinite_cg(rng):
    got, want = assert_same("cg", lambda x: -x, vector(rng), tol=1e-10,
                            maxiter=10, extras_differ=("breakdown",))
    assert got.extras["breakdown"] is True and want.extras["breakdown"] is False


def test_pcg_indefinite_preconditioner(staggered_normal, s4):
    got, want = assert_same("pcg", staggered_normal.apply, s4,
                            preconditioner=lambda r: -r, tol=1e-9,
                            maxiter=50, space=STAGGERED_SPACE)
    assert not got.converged and got.extras["breakdown"] is True
    assert want.extras == {}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pcg_ends_on_a_non_finite_value(rng):
    """Where the oracle's ``pcg`` iterated on NaN to ``maxiter``, the
    entry point ends within the first iteration."""
    b = vector(rng)
    b[7] = 2e100
    got = pcg(diagonal, b, preconditioner=lambda r: 1.0 * r, tol=1e-10,
              maxiter=300)
    want = oracle.pcg(diagonal, b, preconditioner=lambda r: 1.0 * r,
                      tol=1e-10, maxiter=300)
    assert want.iterations == 300
    assert got.extras["breakdown"] == "non-finite" and got.iterations <= 1
    assert not got.converged
