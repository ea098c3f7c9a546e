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
shape), and the result is returned either way.

Both families' complex128 reductions, and the Schwarz block solves'
domain-local ones, run in ONE order the repository defines
(:func:`lane_reduce`): compiled where the library is loaded
(:func:`lane_order`), in NumPy otherwise, the same bits either way and
whatever the host BLAS or its thread count.  The narrower ones stay
``np.vdot`` / ``np.vecdot``: the host BLAS's dot kernel, whose summation
order is its own (docs/performance_model.md, "The Krylov updates").
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


def lane_coefficients(values, x: np.ndarray):
    """``values`` as the compiled passes take them per lane of ``x``'s
    leading axis: ``(lanes, k)`` in the field's dtype (``None`` where they
    are not one a lane)."""
    return _coefficients(values, x, per_lane=True)


def fused(entry: str, coefficients, vectors, per_lane: bool = False) -> bool:
    """The compiled tier's fused pass ``entry`` (``VECTOR_PASSES`` of
    :mod:`repro.kernels.c_backend`) in place on ``vectors``, recorded as
    the updates it stands for (:func:`record_updates`).  ``False``,
    nothing written or recorded, where the pass is not taken: the caller
    then runs those updates."""
    x = vectors[0]
    coef = _coefficients(coefficients, x, per_lane)
    if coef is None or _c_tier().vector_pass(entry, coef, vectors) is None:
        return False
    record_updates(coefficients, x)
    return True


def record_updates(coefficients, x: np.ndarray) -> None:
    """Record the updates a fused pass on fields like ``x`` stands for: one
    per coefficient, each what ``caxpy`` (``axpy`` for a real scalar)
    records on them."""
    flops = sum(_update_flops(a) for a in coefficients)
    record(flops=flops * x.size, bytes_moved=3 * len(coefficients) * x.nbytes)


def record_reduction(flops: int, *vectors: np.ndarray, reductions: int = 1):
    """Record a reduction over ``vectors`` at ``flops`` an element of the
    first — what a fused step made is recorded where the loop uses it, as
    the call it stands for records it."""
    record(flops=flops * vectors[0].size, bytes_moved=_nbytes(*vectors),
           reductions=reductions)


def _update_flops(a) -> int:
    """Flops an element of ``y + a*x``: 8 for a complex coefficient, 4
    for a real one — a scalar or, in the batched family, a per-lane
    array by its dtype (one rule for both families)."""
    return 8 if np.iscomplexobj(a) else 4


def row_product(x: np.ndarray, y: np.ndarray | None, site_axes: int = 2):
    """The scalar family's ``<x, y>`` (``|x|^2`` where ``y`` is ``None``),
    unrecorded: a complex128 one in :func:`lane_reduce`'s order — the
    batched family's row —, a narrower one ``np.vdot``'s."""
    if x.size and _ordered(x, x if y is None else y):
        return lane_order(x[None], None if y is None else y[None], site_axes)[0]
    return np.vdot(x, x if y is None else y)


def norm2(x: np.ndarray, site_axes: int = 2) -> float:
    """Squared 2-norm ||x||^2 (a global reduction); ``site_axes`` the
    trailing per-site axes, which the order of a complex128 field reads
    (:func:`row_product`)."""
    with span("norm2", kind="reduction"):
        val = float(row_product(x, None, site_axes).real)
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=1)
    return val


def cdot(x: np.ndarray, y: np.ndarray, site_axes: int = 2) -> complex:
    """Complex inner product <x, y> = sum conj(x) * y (a global reduction)."""
    with span("cdot", kind="reduction"):
        val = complex(row_product(x, y, site_axes))
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=1)
    return val


def rdot(x: np.ndarray, y: np.ndarray, site_axes: int = 2) -> float:
    """Real part of <x, y> (a global reduction)."""
    with span("rdot", kind="reduction"):
        val = float(row_product(x, y, site_axes).real)
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
    """``np.vecdot`` and the NumPy :func:`lane_reduce` flag a NaN or an
    infinity they meet, where ``np.vdot`` and the compiled order do not:
    the loops read a non-finite reduction themselves."""
    return np.errstate(invalid="ignore", over="ignore")


def _bflat(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def _bcoeff(a, x: np.ndarray, dtype=None) -> np.ndarray:
    """A per-RHS ``(B,)`` coefficient (or one scalar) in the field's
    dtype (or ``dtype``), shaped to broadcast over the field axes."""
    a = np.asarray(a, dtype=dtype or x.dtype)
    return a.reshape(a.shape + (1,) * (x.ndim - a.ndim))


def _ordered(*fields: np.ndarray) -> bool:
    """Whether a reduction over ``fields`` is a complex128 one: in
    :func:`lane_reduce`'s order."""
    return np.result_type(*fields) == np.complex128


def lane_products(x: np.ndarray, y: np.ndarray | None, site_axes: int):
    """This rank's or the global view's per-row reduction of ``x`` (with
    ``y``), unrecorded: :func:`lane_order` for a complex128 one, else
    ``np.vecdot``'s ``<x_b, y_b>`` (``|x_b|^2`` as ``<x_b, x_b>``) in the
    fields' dtype, as silent on a NaN."""
    if x.size and _ordered(x, x if y is None else y):
        return lane_order(x, y, site_axes)
    flat = _bflat(x)
    with _quiet():
        # vecdot conjugates its first operand internally — no
        # materialized conj() pass over the field.
        return np.vecdot(flat, flat if y is None else _bflat(y))


def bnorm2(x: np.ndarray, reductions: int = 1, site_axes: int = 2) -> np.ndarray:
    """Per-RHS squared 2-norms, float64 ``(B,)`` (ONE global reduction);
    ``site_axes`` the trailing per-site axes, which the order of a
    complex128 field reads (:func:`lane_products`)."""
    with span("bnorm2", kind="reduction", batch=x.shape[0]):
        val = lane_products(x, None, site_axes).real.astype(
            np.float64, copy=False
        )
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=reductions)
    return val


def bcdot(
    x: np.ndarray, y: np.ndarray, reductions: int = 1, site_axes: int = 2
) -> np.ndarray:
    """Per-RHS inner products ``<x_b, y_b>``, complex128 (ONE reduction)."""
    with span("bcdot", kind="reduction", batch=x.shape[0]):
        val = lane_products(x, y, site_axes).astype(np.complex128, copy=False)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=reductions)
    return val


#: Slots of the repository-order reductions: ``W``, the sites of a site
#: vector of ``wilson_hop.c``, whose block solve is the compiled copy.
_SLOTS = 8


def lane_reduce(x: np.ndarray, y: np.ndarray | None = None, site_axes: int = 2):
    """Per row of the leading axis, ``<x_r, y_r> = sum conj(x_r) y_r`` —
    ``|x_r|^2`` when ``y`` is ``None`` — in the ONE order the repository
    defines for its complex128 and block-solve reductions, unrecorded: the
    NumPy copy, the bitwise reference and the fallback of the compiled one
    (:func:`lane_order`).

    The order is stated on (row, site, component) indices, the component
    axes being the trailing ``site_axes``, so no memory layout, no BLAS
    build and no thread count moves it (``wilson_hop.c``, "the
    reductions", is the compiled copy, bit for bit):

    * a term is ``re(x) re(y) + im(x) im(y)`` and ``re(x) im(y) - im(x)
      re(y)`` in double (complex64 reals widened first: exact products);
    * a site sums its terms in component order, from the first;
    * slot ``t`` of ``W = 8`` sums the sites ``t, W + t, 2W + t, ...`` in
      site order, from the first (a slot no site falls in is +0);
    * the slots fold in halves, ``((s0 + s4) + (s2 + s6)) + ((s1 + s5) +
      (s3 + s7))``.

    The site sums run as a Python loop over the components, each step one
    vectorised add over every site; ``np.add.accumulate`` is the slot
    chains' sequential sum: its ``r[i] = r[i-1] + a[i]`` is the order,
    where ``np.sum`` pairs as it likes.  Returns float64 norms or
    complex128 products, one per row.
    """
    rows = x.shape[0]
    k = _components(x, site_axes)

    def parts(v):
        v = np.ascontiguousarray(v).reshape(rows, -1, k)
        v = v.view(v.real.dtype).reshape(v.shape + (2,))
        return v.astype(np.float64, copy=False)

    a = parts(x)
    ar, ai = a[..., 0], a[..., 1]
    if y is None:
        terms = [ar * ar]
        terms[0] += ai * ai
    else:
        b = parts(y)
        br, bi = b[..., 0], b[..., 1]
        re, im = ar * br, ar * bi
        re += ai * bi
        im -= ai * br
        terms = [re, im]
    # (part, row, site): a site's terms in component order, from the first
    sites = np.empty((len(terms), rows, a.shape[1]))
    for part, term in zip(sites, terms):
        part[...] = term[:, :, 0]
        for c in range(1, k):
            part += term[:, :, c]
    full = sites.shape[2] - sites.shape[2] % _SLOTS
    slots = np.zeros(sites.shape[:2] + (_SLOTS,))
    if full:
        blocks = sites[:, :, :full].reshape(sites.shape[:2] + (-1, _SLOTS))
        slots = np.add.accumulate(blocks, axis=2)[:, :, -1]
    n = sites.shape[2] - full
    if n:
        tail = sites[:, :, full:]
        slots[:, :, :n] = slots[:, :, :n] + tail if full else tail
    while slots.shape[2] > 1:
        half = slots.shape[2] // 2
        slots = slots[:, :, :half] + slots[:, :, half:]
    if y is None:
        return slots[0, :, 0]
    out = np.empty(rows, np.complex128)
    out.real, out.imag = slots[0, :, 0], slots[1, :, 0]
    return out


def _components(x: np.ndarray, site_axes: int) -> int:
    """The components of a site of ``x``: its trailing ``site_axes`` axes,
    or all but the leading one where it has no more."""
    return math.prod(x.shape[max(1, x.ndim - site_axes):])


def lane_order(x: np.ndarray, y: np.ndarray | None = None, site_axes: int = 2):
    """:func:`lane_reduce`, by the compiled tier where its library is
    loaded and takes the operands (the same bits), unrecorded."""
    done = _c_tier().lane_reduce(x, y, _components(x, site_axes))
    if done is not None:
        return done
    with _quiet():
        return lane_reduce(x, y, site_axes)


def lane_norm2(x: np.ndarray, site_axes: int = 2, reductions: int = 1) -> np.ndarray:
    """:func:`lane_reduce` norms, recorded as :func:`bnorm2` records them."""
    with span("lane_norm2", kind="reduction", batch=x.shape[0]):
        val = lane_order(x, None, site_axes)
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=reductions)
    return val


def lane_cdot(
    x: np.ndarray, y: np.ndarray, site_axes: int = 2, reductions: int = 1
) -> np.ndarray:
    """:func:`lane_reduce` products, recorded as :func:`bcdot` records them."""
    with span("lane_cdot", kind="reduction", batch=x.shape[0]):
        val = lane_order(x, y, site_axes)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=reductions)
    return val


def brdot(x: np.ndarray, y: np.ndarray, site_axes: int = 2) -> np.ndarray:
    """Real parts of the per-RHS inner products (ONE reduction)."""
    with span("brdot", kind="reduction", batch=x.shape[0]):
        val = lane_products(x, y, site_axes).real.astype(
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
