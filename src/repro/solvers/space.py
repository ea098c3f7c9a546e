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
"""

from __future__ import annotations

import numpy as np

from repro.kernels import convert_field
from repro.linalg import blas
from repro.precision import Precision


class ArraySpace:
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
    def axpy(self, a, x, y):
        return blas.caxpy(complex(a), x, y) if isinstance(a, complex) else blas.axpy(a, x, y)

    def xpay(self, x, a, y):
        return blas.cxpay(x, complex(a), y) if isinstance(a, complex) else blas.xpay(x, a, y)

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


class BatchedArraySpace:
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
    def axpy(self, a, x, y):
        return blas.baxpy(a, x, y)

    def xpay(self, x, a, y):
        return blas.bxpay(x, a, y)

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
