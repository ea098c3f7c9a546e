"""BLAS-like vector operations on lattice fields, with cost accounting.

These are the "other important computational kernels" of a Krylov solver:
axpy-family updates, inner products, and norms.  Each routine reports its
flops and memory traffic to the active :func:`repro.util.counters.tally`,
and inner products / norms additionally count one *global reduction* — the
communication events whose latency limits strong scaling of traditional
Krylov methods (Sec. 3.2 of the paper).

Flop counting convention (per complex element, the standard lattice-QCD
accounting): complex add = 2, complex*real = 2, complex*complex = 6,
so caxpy = 8, axpy(real) = 4, cdot = 8, norm2 = 4.

Every update — ``y + a*x`` in each of its spellings — goes through ONE
entry, :func:`update`, and a solver's fused groups through :func:`fused`:
an update in place is one pass of the compiled tier's library where it
is loaded and takes the operands, element for element the bits NumPy's
ufuncs give, and NumPy's ufuncs otherwise — the reference and the
fallback (every dtype mix, every non-contiguous operand, a process
without the library).  A BLAS call loads the library from its cache and
never builds it.  ``out=`` names a vector the caller owns: it receives
the result where it can hold it bit for bit (the result's dtype and
shape), and the result is returned either way.  The global reductions
stay ``np.vdot`` / ``np.vecdot``: the host BLAS's dot kernel, whose
summation order is its own (docs/performance_model.md, "The Krylov
updates").  The Schwarz block solves' domain-local ones run in an order
the repository defines instead (:func:`lane_reduce`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.trace import span
from repro.util.counters import record

#: Python scalars: NumPy rounds them to the field's dtype (NEP 50).
_WEAK = (int, float, complex)
#: The smallest field a lone update is compiled for.  Below it the
#: operands sit in L2 and NumPy's two passes cost less than one compiled
#: call's ~10 us of Python (2-core host: 393 KB complex64 20 vs 23 us,
#: 590 KB complex128 39 vs 35 us, 786 KB 62 vs 50 us).
_COMPILED_UPDATE_BYTES = 1 << 19


def _nbytes(*arrays: np.ndarray) -> int:
    return sum(a.nbytes for a in arrays)


def _c_tier():
    """The compiled tier's registry entry, looked up per call (a test may
    swap it); ``repro.kernels`` imports this package, hence the late
    import."""
    from repro.kernels.registry import KERNELS

    return KERNELS.entries["c"]


def _coefficients(values, x: np.ndarray, per_lane: bool):
    """``values`` as the compiled passes take them, ``(lanes, k)`` in the
    field's dtype: one row, or with ``per_lane`` one per lane of the
    leading axis (a scalar broadcast).  ``None`` where NumPy would not
    multiply by that: a NumPy scalar wider than the field widens the
    result."""
    if not per_lane:
        if all(type(v) in _WEAK or np.result_type(v, x) == x.dtype for v in values):
            return np.array([values], x.dtype)
        return None
    coef = np.empty((len(x), len(values)), x.dtype)
    try:
        for j, v in enumerate(values):
            coef[:, j] = v  # rounded to the field's dtype, as np.asarray does
    except ValueError:  # not one coefficient per lane
        return None
    return coef


def update(a, x: np.ndarray, y: np.ndarray, out=None, per_lane: bool = False):
    """``y + a*x``, unrecorded (the caller keeps the ledger): the one
    spelling of every vector update.

    ``a`` is a scalar, promoted as NumPy promotes it, or with ``per_lane``
    one coefficient per lane of the leading axis rounded to the field's
    dtype (the batched family's contract).  ``out`` receives the result
    where it can hold it; the result is returned either way.  Only an
    update in place of a field of at least ``_COMPILED_UPDATE_BYTES`` is
    compiled: into fresh memory, or within L2, one pass buys nothing over
    NumPy's two.
    """
    if out is not None and out.nbytes >= _COMPILED_UPDATE_BYTES:
        coef = _coefficients((a,), x, per_lane)
        if coef is not None:
            done = _c_tier().vector_pass("update", coef, (x, y, out))
            if done is not None:
                return done[0]
    if per_lane:
        ax = _bcoeff(a, x) * x
        terms = (ax, y)
    else:
        ax = a * x
        terms = (y, ax)
    result = np.result_type(*terms)
    if not (out is not None and out.dtype == result and out.shape == ax.shape == y.shape):
        # the product's own storage, when it has the sum's dtype and shape
        out = ax if ax.dtype == result and ax.shape == y.shape else None
    return np.add(*terms, out=out)


def fused(entry: str, coefficients, vectors, per_lane: bool = False) -> bool:
    """The compiled tier's fused pass ``entry`` (``VECTOR_PASSES`` of
    :mod:`repro.kernels.c_backend`) in place on ``vectors``, recorded as
    the updates it stands for — one per coefficient, each what ``caxpy``
    (``axpy`` for a real scalar) records on these vectors.  ``False``,
    nothing written or recorded, where the pass is not taken: the caller
    then runs those updates."""
    x = vectors[0]
    coef = _coefficients(coefficients, x, per_lane)
    if coef is None or _c_tier().vector_pass(entry, coef, vectors) is None:
        return False
    flops = sum(_update_flops(a) for a in coefficients)
    record(flops=flops * x.size, bytes_moved=3 * len(coefficients) * x.nbytes)
    return True


def _update_flops(a) -> int:
    """Flops an element of ``y + a*x``: 8 for a complex coefficient, 4
    for a real one — a scalar or, in the batched family, a per-lane
    array by its dtype (one rule for both families)."""
    return 8 if np.iscomplexobj(a) else 4


def norm2(x: np.ndarray) -> float:
    """Squared 2-norm ||x||^2 (a global reduction)."""
    with span("norm2", kind="reduction"):
        val = float(np.vdot(x, x).real)
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=1)
    return val


def cdot(x: np.ndarray, y: np.ndarray) -> complex:
    """Complex inner product <x, y> = sum conj(x) * y (a global reduction)."""
    with span("cdot", kind="reduction"):
        val = complex(np.vdot(x, y))
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=1)
    return val


def rdot(x: np.ndarray, y: np.ndarray) -> float:
    """Real part of <x, y> (a global reduction)."""
    with span("rdot", kind="reduction"):
        val = float(np.vdot(x, y).real)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=1)
    return val


def axpy(a: float, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """y + a*x with real scalar a."""
    out = update(a, x, y, out)
    record(flops=4 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def caxpy(a: complex, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """y + a*x with complex scalar a."""
    out = update(a, x, y, out)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def xpay(x: np.ndarray, a: float, y: np.ndarray, out=None) -> np.ndarray:
    """x + a*y with real scalar a."""
    out = update(a, y, x, out)
    record(flops=4 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def cxpay(x: np.ndarray, a: complex, y: np.ndarray, out=None) -> np.ndarray:
    """x + a*y with complex scalar a."""
    out = update(a, y, x, out)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def axpby(a: float, x: np.ndarray, b: float, y: np.ndarray) -> np.ndarray:
    """a*x + b*y with real scalars."""
    out = a * x + b * y
    record(flops=6 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def caxpby(a: complex, x: np.ndarray, b: complex, y: np.ndarray) -> np.ndarray:
    """a*x + b*y with complex scalars."""
    out = a * x + b * y
    record(flops=14 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def scale(a: "float | complex", x: np.ndarray) -> np.ndarray:
    """a*x."""
    out = a * x
    flops = (6 if isinstance(a, complex) else 2) * x.size
    record(flops=flops, bytes_moved=_nbytes(x, out))
    return out


def copy(x: np.ndarray) -> np.ndarray:
    """Field copy (pure bandwidth, no flops)."""
    out = x.copy()
    record(bytes_moved=_nbytes(x, out))
    return out


def zero_like(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    record(bytes_moved=out.nbytes)
    return out


# ----------------------------------------------------------------------
# Batched (multi-RHS) family.
#
# Fields carry a leading batch axis ``(B, ...)``; reductions return one
# ``(B,)`` array of per-RHS results while costing a *single* global
# reduction — one allreduce carrying N scalars instead of N allreduces,
# the latency amortization the multi-RHS execution path is built for.
# Update routines take a ``(B,)`` coefficient vector applied per RHS.
#
# Dtype contract (the scalar family's, row by row): reductions come back
# in double (``float64`` / ``complex128``) whatever the field's dtype, as
# ``norm2``/``cdot`` return Python scalars; update coefficients are
# rounded to the field's dtype before the multiply, which is what NEP 50
# does to the scalar family's Python scalars, so a complex64 field stays
# complex64 and every row's bits are those of the scalar routine.  The
# ledger is the scalar family's too: a real coefficient is charged as
# real (4 flops an element for an update, 2 for a scale), a complex one
# as complex.
#
# The Schwarz block solve stacks its blocks on the same axis; there a
# call stands for one domain-local reduction *per block*, which the
# ``reductions`` argument records.
# ----------------------------------------------------------------------


def _quiet():
    """``np.vecdot`` flags a NaN or an infinity it meets, where
    ``np.vdot`` (the scalar family's) does not: the loops read a
    non-finite reduction themselves."""
    return np.errstate(invalid="ignore", over="ignore")


def _bflat(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def _bcoeff(a, x: np.ndarray, dtype=None) -> np.ndarray:
    """A per-RHS ``(B,)`` coefficient (or one scalar) in the field's
    dtype (or ``dtype``), shaped to broadcast over the field axes."""
    a = np.asarray(a, dtype=dtype or x.dtype)
    return a.reshape(a.shape + (1,) * (x.ndim - a.ndim))


def bnorm2(x: np.ndarray, reductions: int = 1) -> np.ndarray:
    """Per-RHS squared 2-norms, float64 ``(B,)`` (ONE global reduction)."""
    with span("bnorm2", kind="reduction", batch=x.shape[0]):
        flat = _bflat(x)
        # vecdot conjugates its first operand internally — no
        # materialized conj() pass over the field.
        with _quiet():
            val = np.vecdot(flat, flat).real.astype(np.float64, copy=False)
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=reductions)
    return val


def bcdot(x: np.ndarray, y: np.ndarray, reductions: int = 1) -> np.ndarray:
    """Per-RHS inner products ``<x_b, y_b>``, complex128 (ONE reduction)."""
    with span("bcdot", kind="reduction", batch=x.shape[0]):
        with _quiet():
            val = np.vecdot(_bflat(x), _bflat(y)).astype(
                np.complex128, copy=False
            )
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=reductions)
    return val


#: Slots of the repository-order reductions: ``W``, the sites of a site
#: vector of ``wilson_hop.c``, whose block solve is the compiled copy.
_SLOTS = 8


def lane_reduce(x: np.ndarray, y: np.ndarray | None = None, site_axes: int = 2):
    """Per row of the leading axis, ``<x_r, y_r> = sum conj(x_r) y_r`` —
    ``|x_r|^2`` when ``y`` is ``None`` — in the ONE order the repository
    defines for the Schwarz block solves, unrecorded.

    The order is stated on (row, site, component) indices, the component
    axes being the trailing ``site_axes``, so no memory layout and no BLAS
    build moves it (``wilson_hop.c``, "the Schwarz block solve", is the
    compiled copy, bit for bit):

    * a term is ``re(x) re(y) + im(x) im(y)`` and ``re(x) im(y) - im(x)
      re(y)`` in double (complex64 reals widened first: exact products);
    * a site sums its terms in component order, from the first;
    * slot ``t`` of ``W = 8`` sums the sites ``t, W + t, 2W + t, ...`` in
      site order, from the first (a slot no site falls in is +0);
    * the slots fold in halves, ``((s0 + s4) + (s2 + s6)) + ((s1 + s5) +
      (s3 + s7))``.

    ``np.add.accumulate`` is the sequential sum here: its ``r[i] = r[i-1]
    + a[i]`` is the order, where ``np.sum`` pairs as it likes.  Returns
    float64 norms or complex128 products, one per row.
    """
    rows = x.shape[0]
    k = math.prod(x.shape[x.ndim - site_axes:])

    def parts(v):
        v = np.ascontiguousarray(v).reshape(rows, -1, k)
        return v.view(v.real.dtype).reshape(v.shape + (2,)).astype(np.float64)

    a = parts(x)
    if y is None:
        terms = (a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1])[..., None]
    else:
        b = parts(y)
        terms = np.stack([
            a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ], axis=-1)
    sites = np.add.accumulate(terms, axis=2)[:, :, -1]  # (rows, V, parts)
    full = sites.shape[1] - sites.shape[1] % _SLOTS
    slots = np.zeros((rows, _SLOTS, sites.shape[2]))
    if full:
        blocks = sites[:, :full].reshape(rows, -1, _SLOTS, sites.shape[2])
        slots = np.add.accumulate(blocks, axis=1)[:, -1]
    tail = sites[:, full:]
    if tail.shape[1]:
        n = tail.shape[1]
        slots[:, :n] = slots[:, :n] + tail if full else tail
    while slots.shape[1] > 1:
        half = slots.shape[1] // 2
        slots = slots[:, :half] + slots[:, half:]
    if y is None:
        return slots[:, 0, 0]
    out = np.empty(rows, np.complex128)
    out.real, out.imag = slots[:, 0, 0], slots[:, 0, 1]
    return out


def lane_norm2(x: np.ndarray, site_axes: int = 2, reductions: int = 1) -> np.ndarray:
    """:func:`lane_reduce` norms, recorded as :func:`bnorm2` records them."""
    with span("lane_norm2", kind="reduction", batch=x.shape[0]):
        val = lane_reduce(x, None, site_axes)
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=reductions)
    return val


def lane_cdot(
    x: np.ndarray, y: np.ndarray, site_axes: int = 2, reductions: int = 1
) -> np.ndarray:
    """:func:`lane_reduce` products, recorded as :func:`bcdot` records them."""
    with span("lane_cdot", kind="reduction", batch=x.shape[0]):
        val = lane_reduce(x, y, site_axes)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=reductions)
    return val


def brdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real parts of the per-RHS inner products (ONE reduction)."""
    with span("brdot", kind="reduction", batch=x.shape[0]):
        with _quiet():
            val = np.vecdot(_bflat(x), _bflat(y)).real.astype(
                np.float64, copy=False
            )
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=1)
    return val


def baxpy(a, x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """y + a*x with a per-RHS ``(B,)`` coefficient vector."""
    out = update(a, x, y, out, per_lane=True)
    record(flops=_update_flops(a) * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def bxpay(x: np.ndarray, a, y: np.ndarray, out=None) -> np.ndarray:
    """x + a*y with a per-RHS ``(B,)`` coefficient vector."""
    out = update(a, y, x, out, per_lane=True)
    record(flops=_update_flops(a) * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def lane_scaled(a, x: np.ndarray, dtype=None) -> np.ndarray:
    """``a*x`` with a per-RHS ``(B,)`` coefficient vector rounded to
    ``dtype`` — the field's by default — unrecorded (the caller keeps the
    ledger)."""
    return _bcoeff(a, x, dtype) * x


def bscale(a, x: np.ndarray, dtype=None) -> np.ndarray:
    """a*x with a per-RHS ``(B,)`` coefficient vector, in the field's dtype
    or, given ``dtype``, with the coefficient in that one (the product the
    wider)."""
    out = lane_scaled(a, x, dtype)
    flops = (6 if np.iscomplexobj(a) else 2) * x.size
    record(flops=flops, bytes_moved=_nbytes(x, out))
    return out
