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
"""

from __future__ import annotations

import numpy as np

from repro.trace import span
from repro.util.counters import record


def _nbytes(*arrays: np.ndarray) -> int:
    return sum(a.nbytes for a in arrays)


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


def axpy(a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y + a*x with real scalar a."""
    out = y + a * x
    record(flops=4 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def caxpy(a: complex, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y + a*x with complex scalar a."""
    out = y + a * x
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def xpay(x: np.ndarray, a: float, y: np.ndarray) -> np.ndarray:
    """x + a*y with real scalar a."""
    out = x + a * y
    record(flops=4 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def cxpay(x: np.ndarray, a: complex, y: np.ndarray) -> np.ndarray:
    """x + a*y with complex scalar a."""
    out = x + a * y
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
# complex64 and every row's bits are those of the scalar routine.
#
# The Schwarz block solve stacks its blocks on the same axis; there a
# call stands for one domain-local reduction *per block*, which the
# ``reductions`` argument records.
# ----------------------------------------------------------------------


def _bflat(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1)


def _bcoeff(a, x: np.ndarray) -> np.ndarray:
    """A per-RHS ``(B,)`` coefficient (or one scalar) in the field's
    dtype, shaped to broadcast over the field axes."""
    a = np.asarray(a, dtype=x.dtype)
    return a.reshape(a.shape + (1,) * (x.ndim - a.ndim))


def _add_into(ax: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``ax + y``, reusing the product's storage when it already has the
    sum's dtype (a complex64 correction added to a complex128 iterate
    must come back complex128, as ``y + a*x`` does)."""
    return np.add(ax, y, out=ax if np.can_cast(y.dtype, ax.dtype) else None)


def bnorm2(x: np.ndarray, reductions: int = 1) -> np.ndarray:
    """Per-RHS squared 2-norms, float64 ``(B,)`` (ONE global reduction)."""
    with span("bnorm2", kind="reduction", batch=x.shape[0]):
        flat = _bflat(x)
        # vecdot conjugates its first operand internally — no
        # materialized conj() pass over the field.
        val = np.vecdot(flat, flat).real.astype(np.float64)
    record(flops=4 * x.size, bytes_moved=_nbytes(x), reductions=reductions)
    return val


def bcdot(x: np.ndarray, y: np.ndarray, reductions: int = 1) -> np.ndarray:
    """Per-RHS inner products ``<x_b, y_b>``, complex128 (ONE reduction)."""
    with span("bcdot", kind="reduction", batch=x.shape[0]):
        val = np.vecdot(_bflat(x), _bflat(y)).astype(np.complex128)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=reductions)
    return val


def brdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Real parts of the per-RHS inner products (ONE reduction)."""
    with span("brdot", kind="reduction", batch=x.shape[0]):
        val = np.vecdot(_bflat(x), _bflat(y)).real.astype(np.float64)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y), reductions=1)
    return val


def baxpy(a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y + a*x with a per-RHS ``(B,)`` coefficient vector."""
    out = _add_into(_bcoeff(a, x) * x, y)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def bxpay(x: np.ndarray, a, y: np.ndarray) -> np.ndarray:
    """x + a*y with a per-RHS ``(B,)`` coefficient vector."""
    out = _add_into(_bcoeff(a, y) * y, x)
    record(flops=8 * x.size, bytes_moved=_nbytes(x, y, out))
    return out


def bscale(a, x: np.ndarray) -> np.ndarray:
    """a*x with a per-RHS ``(B,)`` coefficient vector."""
    out = _bcoeff(a, x) * x
    record(flops=6 * x.size, bytes_moved=_nbytes(x, out))
    return out
