"""Vector-space abstraction the Krylov solvers are written against.

Solvers never touch numpy directly; they go through a *space* object that
provides inner products, norms and axpy-family updates.  This lets the same
solver source run on

* plain numpy arrays (:class:`ArraySpace`, the default), and
* one rank's block of a distributed field — the same spaces given the
  rank's communicator (``comm=``), where inner products become genuine
  global reductions over per-rank partial sums.

Spaces also expose :meth:`convert`, the precision hook used by the
mixed-precision solvers of Sec. 8.

A solver writes only into vectors it owns — ones a space call handed it —
and says so with ``out=`` on ``axpy`` / ``xpay`` and through the grouped
updates of :class:`VectorSpace`, which a space with a fused pass runs as
one.

BiCGstab's iteration is three *steps* of :class:`VectorSpace`, each an
update, perhaps an operator application, and the reductions behind them.
Composed of the space's own calls they are the reference and the
fallback; where the operator binds them (``op.fused_steps``, the even-odd
Schur complement on the compiled tier) and they compute what the space's
calls do, :class:`BatchedArraySpace` runs each as ONE compiled call, its
ledger the composed calls' (docs/architecture.md, "The solve's team").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.kernels import convert_field
from repro.linalg import blas
from repro.precision import Precision
from repro.util.counters import record

if TYPE_CHECKING:
    from repro.comm.communicator import Communicator


class VectorSpace:
    """The grouped updates of the Krylov loops, each composed here of the
    space's own ``axpy`` / ``xpay`` with ``out=`` (the first argument
    names the storage written, which the caller must own).  A space with
    a fused pass for a group overrides :meth:`_fused`: then the group is
    ONE pass, recorded as the updates it stands for."""

    def _fused(self, entry: str, coefficients, vectors) -> bool:
        """Run ``entry`` of ``repro.kernels.c_backend.VECTOR_PASSES`` in
        place and record it, or return False (nothing done)."""
        return False

    def update_pair(self, x, c, p, r, d, q):
        """``x <- x + c*p`` and ``r <- r + d*q``, each in its own storage
        (``p`` may be ``r``: it is read before ``r`` is written) — the
        minimal-residual step."""
        if self._fused("update_pair", (c, d), (p, q, x, r)):
            return x, r
        return self.axpy(c, p, x, out=x), self.axpy(d, q, r, out=r)

    def bicgstab_direction(self, p, r, v, beta, c):
        """BiCGstab's new direction ``p <- r + beta*(p + c*v)`` in ``p``'s
        storage (``c`` is ``-omega``)."""
        if self._fused("bicgstab_direction", (c, beta), (v, r, p)):
            return p
        p = self.axpy(c, v, p, out=p)
        return self.xpay(r, beta, p, out=p)

    def bicgstab_closing(self, x, p, s, t, alpha, omega):
        """BiCGstab's closing updates ``x <- (x + alpha*p) + omega*s`` in
        ``x``'s storage and ``r = s - omega*t`` in ``s``'s: returns
        ``(x, r)``."""
        if self._fused("bicgstab_closing", (alpha, omega, -omega), (p, s, t, x, s)):
            return x, s
        x = self.axpy(alpha, p, x, out=x)
        x = self.axpy(omega, s, x, out=x)
        return x, self.axpy(-omega, t, s, out=s)

    # -- BiCGstab's steps (module docstring) -------------------------------
    def bicgstab_direction_apply(self, op, p, r, v, beta, c, r_hat):
        """:meth:`bicgstab_direction`, then ``v = op(p)`` and ``(r_hat,
        v)``: ``(p, v, denom)``, the reduction recorded."""
        p = self.bicgstab_direction(p, r, v, beta, c)
        v = op(p)
        return p, v, self.dot(r_hat, v)

    def bicgstab_update_apply(self, op, r, v, a):
        """``s = r + a*v`` in ``r``'s storage, ``t = op(s)`` and ``|t|^2``:
        ``(s, t, t2, ts)``, ``t2`` recorded; ``ts`` is ``(t, s)`` where the
        step made it, unrecorded (the loop records it if it uses it), else
        ``None``."""
        s = self.axpy(a, v, r, out=r)
        t = op(s)
        return s, t, self.norm2(t), None

    def bicgstab_closing_reduce(self, op, x, p, s, t, alpha, omega, r_hat):
        """:meth:`bicgstab_closing`, then ``|r|^2``: ``(x, r, r2, rho)``,
        ``r2`` recorded; ``rho`` is the next iteration's ``(r_hat, r)``
        where the step made it, unrecorded, else ``None``."""
        x, r = self.bicgstab_closing(x, p, s, t, alpha, omega)
        return x, r, self.norm2(r), None


def _global_sum(comm: Communicator, part, flops: int, *vectors):
    """The sum over ranks of this rank's partial ``part`` of a reduction
    over ``vectors``: the partial charges its flops and bytes, and
    ``comm.allreduce_sum`` — folding the partials in rank order — the one
    collective.  ``part`` is in the blocks' dtype; the caller widens the
    sum as the global view widens its reduction."""
    record(flops=flops * vectors[0].size,
           bytes_moved=sum(v.nbytes for v in vectors))
    return comm.allreduce_sum(part)


class ArraySpace(VectorSpace):
    """The trivial space: vectors are numpy arrays on one rank.

    ``site_axes`` is the number of trailing per-site axes (2 for Wilson
    ``(spin, color)``, 1 for staggered ``(color,)``); it parametrizes the
    per-site scaling of the emulated half-precision format.

    With a communicator (``comm``) a vector is this rank's block of a
    distributed field: updates stay local, and each inner product is the
    same local call finished by the global sum over ranks
    (:func:`_global_sum`).  ``comm=None`` is the global view.
    """

    def __init__(self, site_axes: int = 2, comm: Communicator | None = None):
        self.site_axes = site_axes
        self.comm = comm

    # -- reductions -----------------------------------------------------
    # A complex128 reduction — the global view's, or this rank's partial —
    # runs in the repository's order, a narrower one as ``np.vdot``
    # (:func:`repro.linalg.blas.row_product`).
    def dot(self, x, y) -> complex:
        if self.comm is None:
            return blas.cdot(x, y, self.site_axes)
        part = blas.row_product(x, y, self.site_axes)
        return complex(_global_sum(self.comm, part, 8, x, y))

    def rdot(self, x, y) -> float:
        if self.comm is None:
            return blas.rdot(x, y, self.site_axes)
        part = blas.row_product(x, y, self.site_axes).real
        return float(_global_sum(self.comm, part, 8, x, y))

    def norm2(self, x) -> float:
        if self.comm is None:
            return blas.norm2(x, self.site_axes)
        part = blas.row_product(x, None, self.site_axes).real
        return float(_global_sum(self.comm, part, 4, x))

    # -- updates ---------------------------------------------------------
    def axpy(self, a, x, y, out=None):
        if isinstance(a, complex):
            return blas.caxpy(complex(a), x, y, out)
        return blas.axpy(a, x, y, out)

    def xpay(self, x, a, y, out=None):
        if isinstance(a, complex):
            return blas.cxpay(x, complex(a), y, out)
        return blas.xpay(x, a, y, out)

    def _fused(self, entry, coefficients, vectors):
        # each coefficient as axpy / xpay pass it on
        coefficients = [complex(a) if isinstance(a, complex) else a for a in coefficients]
        return blas.fused(entry, coefficients, vectors)

    def scale(self, a, x):
        return blas.scale(a, x)

    def copy(self, x):
        return blas.copy(x)

    def zeros_like(self, x):
        return blas.zero_like(x)

    # -- precision --------------------------------------------------------
    def convert(self, x, precision: Precision):
        return convert_field(x, precision, self.site_axes)

    def asarray(self, x) -> np.ndarray:
        """View the vector as a single numpy array (identity here)."""
        return x

    def batched(self) -> "BatchedArraySpace":
        """The space a batch of these vectors lives in (a single-RHS
        solve runs as the batch of one)."""
        return BatchedArraySpace(site_axes=self.site_axes, comm=self.comm)


class BatchedArraySpace(VectorSpace):
    """Multi-RHS space: vectors are arrays with a *leading* batch axis.

    Reductions return one ``(B,)`` array of per-RHS results but cost a
    single global reduction (see the batched family in
    :mod:`repro.linalg.blas`); update coefficients are per-RHS ``(B,)``
    vectors (plain scalars broadcast).  The batched Krylov solvers in
    :mod:`repro.solvers.multirhs` are written against this interface.
    With a communicator the ``(B,)`` partials of a reduction ride ONE
    allreduce, as :class:`ArraySpace`'s one partial does.
    """

    def __init__(self, site_axes: int = 2, comm: Communicator | None = None):
        self.site_axes = site_axes
        self.comm = comm

    def batch(self, x) -> int:
        return x.shape[0]

    # -- reductions (one allreduce carrying B scalars) -------------------
    # A complex128 reduction — the global view's, or this rank's partial —
    # runs in the repository's order (:func:`repro.linalg.blas.lane_reduce`),
    # a narrower one as ``np.vecdot`` (:func:`repro.linalg.blas.lane_products`).
    # ``value`` is what a fused step already made: recorded here, where the
    # loop uses it, as the call it stands for records it.
    def dot(self, x, y, value=None) -> np.ndarray:
        if value is not None:
            blas.record_reduction(8, x, y)
            return value
        if self.comm is None:
            return blas.bcdot(x, y, site_axes=self.site_axes)
        part = blas.lane_products(x, y, self.site_axes)
        return _global_sum(self.comm, part, 8, x, y).astype(np.complex128)

    def rdot(self, x, y) -> np.ndarray:
        if self.comm is None:
            return blas.brdot(x, y, site_axes=self.site_axes)
        part = blas.lane_products(x, y, self.site_axes).real
        return _global_sum(self.comm, part, 8, x, y).astype(np.float64)

    def norm2(self, x, value=None) -> np.ndarray:
        if value is not None:
            blas.record_reduction(4, x)
            return value
        if self.comm is None:
            return blas.bnorm2(x, site_axes=self.site_axes)
        part = blas.lane_products(x, None, self.site_axes).real
        return _global_sum(self.comm, part, 4, x).astype(np.float64)

    # -- updates (per-RHS coefficients) ----------------------------------
    # A coefficient is rounded to the field's dtype, as :class:`ArraySpace`
    # rounds the Python scalars it hands on.  ``scale``'s ``dtype`` names a
    # coefficient the single-RHS loop holds as NumPy scalars of that dtype,
    # which :class:`ArraySpace` hands on to a scale as they are.
    def axpy(self, a, x, y, out=None):
        return blas.baxpy(a, x, y, out)

    def xpay(self, x, a, y, out=None):
        return blas.bxpay(x, a, y, out)

    def _fused(self, entry, coefficients, vectors):
        return blas.fused(entry, coefficients, vectors, per_lane=True)

    # -- BiCGstab's steps, each one compiled call where ``op`` binds it ----
    def _steps(self, op, x):
        """The fused steps ``op`` binds where they compute what this
        space's calls do — the global view of complex128 Wilson fields,
        whose reductions are in the order the steps make theirs — else
        ``None``."""
        if self.comm is not None or self.site_axes != 2 or x.dtype != np.complex128:
            return None
        return getattr(op, "fused_steps", None)

    def bicgstab_direction_apply(self, op, p, r, v, beta, c, r_hat):
        steps = self._steps(op, p)
        coef = steps and blas.lane_coefficients((c, beta), p)
        denom = None if coef is None else steps.bicgstab_direction_apply(
            coef, p, r, v, r_hat
        )
        if denom is None:
            return super().bicgstab_direction_apply(op, p, r, v, beta, c, r_hat)
        blas.record_updates((c, beta), p)
        return p, v, self.dot(r_hat, v, value=denom)

    def bicgstab_update_apply(self, op, r, v, a):
        steps = self._steps(op, r)
        coef = steps and blas.lane_coefficients((a,), r)
        done = None if coef is None else steps.bicgstab_update_apply(coef, r, v)
        if done is None:
            return super().bicgstab_update_apply(op, r, v, a)
        t, ts, t2 = done
        blas.record_updates((a,), r)
        return r, t, self.norm2(t, value=t2), ts

    def bicgstab_closing_reduce(self, op, x, p, s, t, alpha, omega, r_hat):
        steps = self._steps(op, x)
        coefficients = (alpha, omega, -omega)
        coef = steps and blas.lane_coefficients(coefficients, x)
        done = None if coef is None else steps.bicgstab_closing_reduce(
            coef, p, s, t, x, r_hat
        )
        if done is None:
            return super().bicgstab_closing_reduce(
                op, x, p, s, t, alpha, omega, r_hat
            )
        rho, r2 = done
        blas.record_updates(coefficients, x)
        return x, s, self.norm2(s, value=r2), rho

    def scale(self, a, x, dtype=None):
        return blas.bscale(a, x, dtype)

    def copy(self, x):
        return blas.copy(x)

    def zeros_like(self, x):
        return blas.zero_like(x)

    # -- precision --------------------------------------------------------
    def convert(self, x, precision: Precision):
        # The batch axis is a non-site axis, so the emulated half format
        # keeps one norm per site *per RHS* — exactly the per-site scale
        # a real batched half-precision field would store.
        return convert_field(x, precision, self.site_axes)

    def asarray(self, x) -> np.ndarray:
        return x


#: Default space for Wilson-type fields.
WILSON_SPACE = ArraySpace(site_axes=2)
#: Default space for staggered fields.
STAGGERED_SPACE = ArraySpace(site_axes=1)


def space_for_nspin(nspin: int) -> ArraySpace:
    return WILSON_SPACE if nspin == 4 else STAGGERED_SPACE


def batched_space_for_nspin(nspin: int) -> BatchedArraySpace:
    return BatchedArraySpace(site_axes=2 if nspin == 4 else 1)
