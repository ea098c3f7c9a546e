"""Vector-space abstraction the Krylov solvers are written against.

Solvers never touch numpy directly; they go through a *space* object that
provides inner products, norms and axpy-family updates.  This lets the same
solver source run on

* plain numpy arrays (:class:`ArraySpace`, the default), and
* one rank's block of a distributed field
  (:class:`repro.multigpu.rank_space.RankSpace`), where inner products
  become genuine global reductions over per-rank partial sums.

Spaces also expose :meth:`convert`, the precision hook used by the
mixed-precision solvers of Sec. 8.

A solver writes only into vectors it owns — ones a space call handed it —
and says so with ``out=`` on ``axpy`` / ``xpay`` and through the grouped
updates of :class:`VectorSpace`, which a space with a fused pass runs as
one.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import convert_field
from repro.linalg import blas
from repro.precision import Precision


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


class ArraySpace(VectorSpace):
    """The trivial space: vectors are numpy arrays on one rank.

    ``site_axes`` is the number of trailing per-site axes (2 for Wilson
    ``(spin, color)``, 1 for staggered ``(color,)``); it parametrizes the
    per-site scaling of the emulated half-precision format.
    """

    def __init__(self, site_axes: int = 2):
        self.site_axes = site_axes

    # -- reductions -----------------------------------------------------
    def dot(self, x, y) -> complex:
        return blas.cdot(x, y)

    def rdot(self, x, y) -> float:
        return blas.rdot(x, y)

    def norm2(self, x) -> float:
        return blas.norm2(x)

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


class BatchedArraySpace(VectorSpace):
    """Multi-RHS space: vectors are arrays with a *leading* batch axis.

    Reductions return one ``(B,)`` array of per-RHS results but cost a
    single global reduction (see the batched family in
    :mod:`repro.linalg.blas`); update coefficients are per-RHS ``(B,)``
    vectors (plain scalars broadcast).  The batched Krylov solvers in
    :mod:`repro.solvers.multirhs` are written against this interface.
    """

    def __init__(self, site_axes: int = 2):
        self.site_axes = site_axes

    def batch(self, x) -> int:
        return x.shape[0]

    # -- reductions (one allreduce carrying B scalars) -------------------
    def dot(self, x, y) -> np.ndarray:
        return blas.bcdot(x, y)

    def rdot(self, x, y) -> np.ndarray:
        return blas.brdot(x, y)

    def norm2(self, x) -> np.ndarray:
        return blas.bnorm2(x)

    # -- updates (per-RHS coefficients) ----------------------------------
    def axpy(self, a, x, y, out=None):
        return blas.baxpy(a, x, y, out)

    def xpay(self, x, a, y, out=None):
        return blas.bxpay(x, a, y, out)

    def _fused(self, entry, coefficients, vectors):
        return blas.fused(entry, coefficients, vectors, per_lane=True)

    def scale(self, a, x):
        return blas.bscale(a, x)

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
