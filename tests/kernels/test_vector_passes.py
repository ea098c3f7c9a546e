"""The solvers' vector updates: ``repro.linalg.blas.update`` (every
``axpy`` / ``xpay`` of the four spaces) and the grouped updates of
``repro.solvers.space.VectorSpace``, ``tobytes``-equal to NumPy's own
allocating expressions — ``y + a*x``, the batched family's ``(a_b x) + y``
— and recording what the separate calls record.

Where this process has the compiled tier's library the updates run as its
in-place passes; where it has not (a host without a compiler) they run as
NumPy's ``out=`` fallback, and this file checks that one instead.  Both
must equal the allocating expression bit for bit: special coefficients
(zeros of both signs, infinities, NaN), special field values, every
target (``out`` the addend, the multiplicand, or none), one lane and
many, one element, odd lengths and a whole 8^4 Wilson field.  One thing
is the instruction's, not the arithmetic's: which NaN an add of two NaNs
hands on (gcc may commute an add).  A single update's addend carries no
NaN, so it is compared byte for byte; the chained groups, whose
intermediates can be NaN on both sides of an add, compare NaNs by
position and every other byte exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels import get_backend
from repro.linalg import blas
from repro.solvers.space import ArraySpace, BatchedArraySpace
from repro.util.counters import tally

DTYPES = (np.complex128, np.complex64)
LANES = (1, 4, 12)
#: One 8^4 Wilson field, cut into the lanes.
FIELD = 8**4 * 12
#: Coefficients: the special values, then random ones of each Python
#: kind — and a NumPy float64, which widens a complex64 field (so the
#: update is NumPy's: the compiled pass keeps the field's dtype).
KINDS = (0.0, -0.0, np.inf, -np.inf, np.nan, "float", "complex", "float64")


def coefficient(kind, rng):
    if kind == "float":
        return float(rng.standard_normal())
    if kind == "complex":
        return complex(rng.standard_normal(), rng.standard_normal())
    if kind == "float64":
        return np.float64(rng.standard_normal())
    return kind


def vectors(rng, count, lanes, n, dtype, nan=True):
    """``count`` fields ``(lanes, n)`` with zeros of both signs, infinities
    (and NaNs) among random values."""
    out = []
    for _ in range(count):
        v = (rng.standard_normal((lanes, n)) + 1j * rng.standard_normal((lanes, n)))
        v = v.astype(dtype)
        parts = v.view(v.real.dtype).reshape(-1)
        where = rng.integers(0, 60, parts.shape)
        parts[where == 0] = 0.0
        parts[where == 1] = -0.0
        parts[where == 2] = np.inf
        parts[where == 3] = -np.inf
        if nan:
            parts[where == 4] = np.nan
        out.append(v)
    return out


def multiplicand_and_addend(rng, lanes, n, dtype):
    return vectors(rng, 1, lanes, n, dtype) + vectors(rng, 1, lanes, n, dtype, nan=False)


def scalar_ledger(a, *arrays):
    """What the scalar family records for one update (``caxpy``: 8 flops,
    ``axpy`` of a real scalar: 4; the bytes of both operands and the
    result)."""
    return ((8 if isinstance(a, complex) else 4) * arrays[0].size,
            sum(v.nbytes for v in arrays))


def same(got, expected):
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def same_but_nan_payloads(got, expected):
    """Equal dtype and bytes, NaNs matched by position."""
    if got.dtype != expected.dtype:
        return False
    got, expected = (v.view(v.real.dtype) for v in (got, expected))
    nan = np.isnan(expected)
    return (
        np.array_equal(nan, np.isnan(got))
        and np.where(nan, 0, got).tobytes() == np.where(nan, 0, expected).tobytes()
    )


def lengths(lanes):
    """One element, an odd run, and a whole field — twice over, so that a
    complex64 update too reaches the size a lone update is compiled at."""
    return st.sampled_from((1, 13, FIELD // lanes, 2 * FIELD // lanes))


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    lanes=st.sampled_from(LANES),
    data=st.data(),
    kind=st.sampled_from(KINDS),
    target=st.sampled_from(("y", "x", None)),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_family_update(dtype, lanes, data, kind, target, seed):
    """``ArraySpace.axpy`` / ``xpay``: ``y + a*x`` / ``y + a*x`` spelled
    ``x + a*y``, written into ``out`` where it has the result's dtype."""
    rng = np.random.default_rng(seed)
    n = data.draw(lengths(lanes))
    a = coefficient(kind, rng)
    space = ArraySpace()
    for name in ("axpy", "xpay"):
        x, y = multiplicand_and_addend(rng, lanes, n, dtype)
        with np.errstate(all="ignore"):
            expected = y + a * x
            out = {"x": x, "y": y, None: None}[target]
            with tally() as t:
                if name == "axpy":
                    got = space.axpy(a, x, y, out=out)
                else:
                    got = space.xpay(y, a, x, out=out)
        assert same(got, expected), (name, a)
        if out is not None and expected.dtype == dtype:
            assert got is out
        assert (t.flops, t.bytes_moved) == scalar_ledger(a, x, y, expected)


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    lanes=st.sampled_from(LANES),
    data=st.data(),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    target=st.sampled_from(("y", "x", None)),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_family_update(dtype, lanes, data, kinds, target, seed):
    """``BatchedArraySpace.axpy`` / ``xpay``: one coefficient per lane,
    rounded to the field's dtype, ``(a_b x) + y``."""
    rng = np.random.default_rng(seed)
    n = data.draw(lengths(lanes))
    a = np.array([coefficient(kinds[i % len(kinds)], rng) for i in range(lanes)])
    space = BatchedArraySpace()
    for name in ("axpy", "xpay"):
        x, y = multiplicand_and_addend(rng, lanes, n, dtype)
        with np.errstate(all="ignore"):
            expected = a.astype(dtype).reshape(-1, 1) * x + y
            out = {"x": x, "y": y, None: None}[target]
            with tally() as t:
                if name == "axpy":
                    got = space.axpy(a, x, y, out=out)
                else:
                    got = space.xpay(y, a, x, out=out)
        assert same(got, expected), (name, a)
        if out is not None:
            assert got is out
        assert (t.flops, t.bytes_moved) == (8 * x.size, 3 * x.nbytes)


def test_a_wider_result_is_not_written_into_a_narrower_vector():
    """``y + a*x`` of complex64 fields and a NumPy float64 is complex128,
    as NumPy says; ``out`` cannot hold it and is left alone."""
    rng = np.random.default_rng(0)
    x, y = multiplicand_and_addend(rng, 1, 33, np.complex64)
    before = y.copy()
    with np.errstate(all="ignore"):
        got = ArraySpace().axpy(np.float64(0.5), x, y, out=y)
        assert same(got, y + np.float64(0.5) * x)
    assert got.dtype == np.complex128 and same(y, before)


def test_a_partly_overlapping_out_is_numpys_to_write():
    """``out`` a view of the addend shifted by one element: no pass runs
    over it (an element would be read after it was written); NumPy's
    ufunc, which buffers such operands, gives the allocating result."""
    rng = np.random.default_rng(1)
    x, y = multiplicand_and_addend(rng, 1, 65, np.complex128)
    y = y.reshape(-1)
    x = x.reshape(-1)[1:]
    with np.errstate(all="ignore"):
        expected = y[:-1] + 0.5j * x
        got = blas.caxpy(0.5j, x, y[:-1], out=y[1:])
    assert same(got, expected)


@pytest.mark.skipif(not get_backend("c").available, reason="no compiled tier")
def test_the_compiled_pass_is_what_runs(monkeypatch):
    """Where the library is loaded, an update in place of contiguous
    fields of one dtype, from the compiled size up, is its pass, and a
    group is one at any size; an update into fresh memory, of a smaller
    field, or one NumPy promotes never reaches it."""
    taken = []
    backend = type(get_backend("c"))
    run = backend.vector_pass

    def spy(self, entry, coefficients, vectors):
        done = run(self, entry, coefficients, vectors)
        taken.append((entry, done is not None))
        return done

    monkeypatch.setattr(backend, "vector_pass", spy)
    rng = np.random.default_rng(2)
    for dtype in DTYPES:
        n = blas._COMPILED_UPDATE_BYTES // (4 * np.dtype(dtype).itemsize)
        x, y = multiplicand_and_addend(rng, 4, n, dtype)
        ArraySpace().axpy(0.25 - 1j, x, y, out=y)
        BatchedArraySpace().xpay(y, np.arange(4.0), x, out=y)
        small = [v[:, :9].copy() for v in (x, y)]
        ArraySpace().bicgstab_closing(small[0].copy(), *small, small[0], 0.5, 1j)
    assert taken == [("update", True)] * 2 + [("bicgstab_closing", True)] + [
        ("update", True)
    ] * 2 + [("bicgstab_closing", True)]
    taken.clear()
    with np.errstate(all="ignore"):
        ArraySpace().axpy(np.float64(0.5), x, y, out=y)
        ArraySpace().axpy(0.5, x, y)
        BatchedArraySpace().axpy(np.arange(4.0), x, y)
        ArraySpace().axpy(0.5, *small, out=small[1])
    assert taken == []


# ----------------------------------------------------------------------
# the grouped updates: one fused pass against the updates it stands for
# ----------------------------------------------------------------------
def groups(space, x, p, s, t, coefficients):
    """Each group of ``space`` on copies of the operands, and the
    allocating NumPy spelling of the updates it stands for: pairs
    (got, expected) per written vector."""
    alpha, omega, c = coefficients
    mul = space.multiply
    with np.errstate(all="ignore"):
        out = []
        # the MR step (p = r) and a general pair
        for shared in (True, False):
            xx, rr, pp, qq = x.copy(), s.copy(), p.copy(), t.copy()
            src = rr if shared else pp
            exp_x = x + mul(alpha, s if shared else p)
            exp_r = s + mul(c, t)
            got = space.update_pair(xx, alpha, src, rr, c, qq)
            out += [(got[0], exp_x, xx), (got[1], exp_r, rr)]
        # BiCGstab's direction: p = r + beta (p + c v), beta = omega here
        pp = p.copy()
        exp = s + mul(omega, p + mul(c, t))
        out.append((space.bicgstab_direction(pp, s, t, omega, c), exp, pp))
        # BiCGstab's closing: x = (x + alpha p) + omega s, r = s - omega t
        xx, ss = x.copy(), s.copy()
        exp_x = (x + mul(alpha, p)) + mul(omega, s)
        exp_r = s + mul(-omega, t)
        got = space.bicgstab_closing(xx, p, ss, t, alpha, omega)
        out += [(got[0], exp_x, xx), (got[1], exp_r, ss)]
    return out


class _Scalar(ArraySpace):
    @staticmethod
    def multiply(a, v):
        return a * v


class _Batched(BatchedArraySpace):
    @staticmethod
    def multiply(a, v):
        return np.asarray(a, v.dtype).reshape((-1,) + (1,) * (v.ndim - 1)) * v


class _Composed:
    """The same space with its fused passes off: the group runs as the
    separate ``axpy`` / ``xpay`` calls, which record themselves."""

    def __init__(self, space):
        self.space = space

    def __enter__(self):
        self.space._fused = lambda *args: False
        return self.space

    def __exit__(self, *exc):
        del self.space._fused


@settings(max_examples=120, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    lanes=st.sampled_from(LANES),
    batched=st.booleans(),
    data=st.data(),
    kinds=st.lists(st.sampled_from(KINDS[:-1]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_updates(dtype, lanes, batched, data, kinds, seed):
    """Each group == its updates spelled as NumPy allocates them, written
    into the storage it names, and records what those updates record."""
    rng = np.random.default_rng(seed)
    n = data.draw(lengths(lanes))
    if batched:
        space = _Batched()
        coefficients = [
            np.array([coefficient(kinds[(i + j) % 3], rng) for i in range(lanes)])
            for j in range(3)
        ]
    else:
        space = _Scalar()
        coefficients = [coefficient(k, rng) for k in kinds]
    x, p, s, t = vectors(rng, 4, lanes, n, dtype)
    with tally() as fused:
        results = groups(space, x, p, s, t, coefficients)
    for got, expected, storage in results:
        assert same_but_nan_payloads(got, expected)
        assert got is storage
    with _Composed(space), tally() as composed:
        results = groups(space, x, p, s, t, coefficients)
    for got, expected, storage in results:
        assert same_but_nan_payloads(got, expected)
    assert (fused.flops, fused.bytes_moved) == (composed.flops, composed.bytes_moved)
