"""The Krylov loops that write their own vectors in place — BiCGstab and
its batched form, GCR and its batched form, MR and its batched form, and
the Schwarz block solve — against the same loops on a space that spells
every update as the allocating NumPy expression (a fresh ``y + a*x`` per
call, one ledger entry per call): the solution's bytes, the iteration
counts and the tally are equal.  Where this process has the compiled
tier's library the in-place side runs its passes, fused where a group
has one; where it has not (a host without a compiler), NumPy's ``out=``
fallback — both must give the allocating bits.

Then: the right-hand side and the starting guess may be read-only (a
solver writes only into vectors it owns), and the three shapes the
benchmark's gated rows run take the compiled passes, so a silent
fallback to NumPy fails here.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

import repro.precond.rank_local as rank_local
from repro.comm import ProcessGrid
from repro.core.gcrdd import GCRDDConfig
from repro.dd import AdditiveSchwarzPreconditioner
from repro.kernels import get_backend
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.precision import SINGLE
from repro.solvers import bicgstab, gcr, mr
from repro.solvers.multirhs import batched_bicgstab, batched_gcr, batched_mr
from repro.solvers.space import ArraySpace, BatchedArraySpace
from repro.util.counters import record, tally
from repro.dirac import WilsonCloverOperator

LEDGER = ("flops", "bytes_moved", "reductions", "local_reductions")


class AllocatingSpace(ArraySpace):
    """Every update a fresh ``y + a*x``, recorded as ``caxpy`` / ``axpy``
    record it; no fused group."""

    def axpy(self, a, x, y, out=None):
        a = complex(a) if isinstance(a, complex) else a
        out = y + a * x
        record(flops=(8 if isinstance(a, complex) else 4) * x.size,
               bytes_moved=x.nbytes + y.nbytes + out.nbytes)
        return out

    def xpay(self, x, a, y, out=None):
        a = complex(a) if isinstance(a, complex) else a
        out = x + a * y
        record(flops=(8 if isinstance(a, complex) else 4) * x.size,
               bytes_moved=x.nbytes + y.nbytes + out.nbytes)
        return out

    def _fused(self, entry, coefficients, vectors):
        return False

    def batched(self):
        # the single-RHS solvers run as the batch of one
        return AllocatingBatchedSpace(site_axes=self.site_axes)


class AllocatingBatchedSpace(BatchedArraySpace):
    """Every update a fresh ``(a_b x) + y``, as ``baxpy`` records it (a
    real coefficient array as real)."""

    @staticmethod
    def _update(a, x, y):
        flops = 8 if np.iscomplexobj(a) else 4
        a = np.asarray(a, x.dtype)
        out = a.reshape(a.shape + (1,) * (x.ndim - a.ndim)) * x + y
        record(flops=flops * x.size,
               bytes_moved=x.nbytes + y.nbytes + out.nbytes)
        return out

    def axpy(self, a, x, y, out=None):
        return self._update(a, x, y)

    def xpay(self, x, a, y, out=None):
        return self._update(a, y, x)

    def _fused(self, entry, coefficients, vectors):
        return False


GEOM = Geometry((4, 4, 4, 4))


@pytest.fixture(scope="module")
def op():
    return WilsonCloverOperator(
        GaugeField.weak(GEOM, epsilon=0.25, rng=5), mass=0.1, csw=1.0
    )


def read_only(v):
    v = np.array(v)
    v.setflags(write=False)
    return v


def sources(count, dtype=np.complex128):
    fields = [SpinorField.random(GEOM, rng=40 + i).data for i in range(count)]
    return read_only(np.stack(fields).astype(dtype))


def run(solve, space):
    with tally() as t:
        result = solve(space)
    return result, t


def assert_same(got, expected):
    (a, ta), (b, tb) = got, expected
    assert a.x.dtype == b.x.dtype
    assert np.asarray(a.x).tobytes() == np.asarray(b.x).tobytes()
    assert np.array_equal(a.iterations, b.iterations)
    for name in LEDGER:
        assert getattr(ta, name) == getattr(tb, name), name


SOLVES = {
    "bicgstab": lambda op, b, x0, space: bicgstab(
        op.apply, b[0], x0=x0[0], tol=1e-10, maxiter=80, space=space),
    "gcr": lambda op, b, x0, space: gcr(
        op.apply, b[0], x0=x0[0], tol=1e-7, kmax=8, maxiter=400,
        inner_precision=SINGLE, space=space),
    "mr": lambda op, b, x0, space: mr(
        op.apply, b[0], steps=8, omega=0.9, x0=x0[0], space=space),
}
BATCHED = {
    "bicgstab": lambda op, b, x0, space: batched_bicgstab(
        op.apply, b, x0=x0, tol=1e-10, maxiter=80, space=space),
    "gcr": lambda op, b, x0, space: batched_gcr(
        op.apply, b, x0=x0, tol=1e-7, kmax=8, maxiter=400,
        inner_precision=SINGLE, space=space),
    "mr": lambda op, b, x0, space: batched_mr(
        op.apply, b, steps=8, omega=0.9, x0=x0, space=space),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
@pytest.mark.parametrize("start", ["zero", "guess"])
def test_scalar_loops_equal_the_allocating_loops(op, name, start):
    b = sources(1)
    x0 = read_only(0.1 * b[..., ::-1, :]) if start == "guess" else [None]
    solve = SOLVES[name]
    got = run(lambda s: solve(op, b, x0, s), ArraySpace())
    assert got[0].converged or name == "mr"
    assert_same(got, run(lambda s: solve(op, b, x0, s), AllocatingSpace()))


@pytest.mark.parametrize("name", sorted(BATCHED))
@pytest.mark.parametrize("lanes", [4, 12])
def test_batched_loops_equal_the_allocating_loops(op, name, lanes):
    b = sources(lanes)
    x0 = read_only(0.1 * b[::-1])
    solve = BATCHED[name]
    got = run(lambda s: solve(op, b, x0, s), BatchedArraySpace())
    assert got[0].all_converged or name == "mr"
    assert_same(got, run(lambda s: solve(op, b, x0, s), AllocatingBatchedSpace()))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_schwarz_block_solve_equals_the_allocating_loop(op, dtype, monkeypatch):
    """Four lanes of 4^4 / (1, 1, 2, 2) blocks, a read-only residual, the
    block solve's Python loop (the compiled one set aside)."""
    monkeypatch.setattr(
        type(get_backend("c")), "wilson_block_mr", lambda self, *args: None
    )
    part = BlockPartition(GEOM, ProcessGrid((1, 1, 2, 2)))
    precision = SINGLE if dtype == np.complex64 else None
    stack = op.restrict_to_blocks(part, precision=precision)
    r = read_only(np.stack([
        np.ascontiguousarray(sources(1, dtype)[0][part.slices(rank)])
        for rank in range(part.n_ranks)
    ]))

    def solve():
        with tally() as t:
            z = rank_local.schwarz_block_solve(
                stack, r, steps=6, omega=0.9, precision=precision,
                space=ArraySpace(),
            )
        return z, t

    z, t = solve()
    monkeypatch.setattr(rank_local, "_ROWS", AllocatingBatchedSpace())
    expected, te = solve()
    assert z.dtype == expected.dtype and z.tobytes() == expected.tobytes()
    for name in LEDGER:
        assert getattr(t, name) == getattr(te, name), name


# ----------------------------------------------------------------------
# the gated shapes take the compiled passes
# ----------------------------------------------------------------------
@pytest.fixture()
def passes(monkeypatch):
    """Every compiled vector pass asked for: (entry, dtype, shape) ->
    [taken, declined]."""
    seen = collections.defaultdict(lambda: [0, 0])
    backend = type(get_backend("c"))
    original = backend.vector_pass

    def spy(self, entry, coefficients, vectors):
        done = original(self, entry, coefficients, vectors)
        seen[entry, vectors[0].dtype.name, vectors[0].shape][done is None] += 1
        return done

    monkeypatch.setattr(backend, "vector_pass", spy)
    return seen


needs_c = pytest.mark.skipif(
    not get_backend("c").available, reason="no compiled tier on this host"
)


@needs_c
def test_gated_shapes_take_the_compiled_passes(passes):
    """``wc_bicgstab`` (8^4 complex128) and ``serve_propagator`` (12 lanes
    of 4^4 complex128): every update of each iteration is one compiled
    pass, none declined.  ``wc_gcrdd_schwarz``'s Schwarz blocks (four
    lanes of complex64) are one compiled block solve, updates included:
    no pass is asked for."""
    geom = Geometry((8, 8, 8, 8))
    big = WilsonCloverOperator(
        GaugeField.weak(geom, epsilon=0.25, rng=0), mass=0.1, csw=1.0
    )
    b = read_only(SpinorField.random(geom, rng=1).data)
    small = WilsonCloverOperator(
        GaugeField.weak(GEOM, epsilon=0.25, rng=0), mass=0.1, csw=1.0
    )
    # three iterations' direction, s and closing (the true residual is a
    # fresh vector: NumPy's)
    calls = {"bicgstab_direction": 3, "update": 3, "bicgstab_closing": 3}
    for rhs, solve in (
        (b, lambda: bicgstab(big.apply, b, tol=1e-30, maxiter=3)),
        (sources(12), lambda: batched_bicgstab(
            small.apply, sources(12), tol=1e-30, maxiter=3)),
    ):
        passes.clear()
        assert np.all(solve().iterations == 3)
        # the single-RHS solve is the batch of one
        shape = rhs.shape if rhs.ndim == 7 else (1,) + rhs.shape
        assert dict(passes) == {
            (entry, "complex128", shape): [count, 0]
            for entry, count in calls.items()
        }

    settings = GCRDDConfig().precond_settings()
    schwarz = AdditiveSchwarzPreconditioner(
        big, BlockPartition(geom, ProcessGrid((1, 1, 2, 2))),
        mr_steps=settings.steps, omega=settings.omega,
        precision=settings.precision,
    )
    passes.clear()
    with tally() as t:
        schwarz(b.astype(np.complex64))
    assert t.kernel_seconds["block_mr_step"] > 0
    assert not passes, dict(passes)
