"""Rank-local vector space: one rank's share of a distributed vector.

A vector is this rank's *block* (a plain numpy array), updates are
local, and every inner product is a genuine two-step global reduction —
a local partial sum followed by ``comm.allreduce_sum`` (the
communication that throttles traditional Krylov methods at scale,
Sec. 3.2).  The space gives the Krylov solvers the same interface as
:class:`repro.solvers.space.ArraySpace`.

Because the allreduce folds contributions in fixed rank order and
returns the identical scalar to every rank, a Krylov solver written
against this space (e.g. :func:`repro.solvers.gcr.gcr`) executes the
*same* control flow on every rank, bit-identically on every backend.
Partials are raw ``np.vdot`` plus an explicit ``record`` — NOT the
:mod:`repro.linalg.blas` reduction helpers, which would charge an extra
``reductions=1`` on top of the communicator's collective accounting.
Updates go through :func:`repro.linalg.blas.update`, the one entry every
space updates through, and keep this space's flops-only ledger.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.kernels import convert_field
from repro.linalg import blas
from repro.precision import Precision
from repro.solvers.space import VectorSpace
from repro.util.counters import record


class RankSpace(VectorSpace):
    """Vector-space operations on one rank's block of a distributed field."""

    def __init__(self, comm: Communicator, site_axes: int = 2):
        self.comm = comm
        self.site_axes = site_axes

    # -- reductions -----------------------------------------------------
    def dot(self, x, y) -> complex:
        part = np.vdot(x, y)
        record(flops=8 * x.size, bytes_moved=x.nbytes + y.nbytes)
        return complex(self.comm.allreduce_sum(part))

    def rdot(self, x, y) -> float:
        part = np.vdot(x, y).real
        record(flops=8 * x.size, bytes_moved=x.nbytes + y.nbytes)
        return float(self.comm.allreduce_sum(part))

    def norm2(self, x) -> float:
        part = np.vdot(x, x).real
        record(flops=4 * x.size, bytes_moved=x.nbytes)
        return float(self.comm.allreduce_sum(part))

    # -- updates ---------------------------------------------------------
    def axpy(self, a, x, y, out=None):
        record(flops=8 * x.size)
        return blas.update(a, x, y, out)

    def xpay(self, x, a, y, out=None):
        record(flops=8 * x.size)
        return blas.update(a, y, x, out)

    def scale(self, a, x):
        record(flops=6 * x.size)
        return a * x

    def copy(self, x):
        record(bytes_moved=2 * x.nbytes)
        return x.copy()

    def zeros_like(self, x):
        return np.zeros_like(x)

    # -- precision / interop ----------------------------------------------
    def convert(self, x, precision: Precision):
        return convert_field(x, precision, self.site_axes)

    def asarray(self, x) -> np.ndarray:
        """The rank-local block (gathering is the parent's job)."""
        return x

    def batched(self) -> "BatchedRankSpace":
        """The space a batch of these blocks lives in (a single-RHS
        solve runs as the batch of one)."""
        return BatchedRankSpace(self.comm, site_axes=self.site_axes)


class BatchedRankSpace(RankSpace):
    """Multi-RHS rank-local vectors: blocks ``(B,) + local lattice + site``.

    Reductions compute per-RHS partial sums and combine them in ONE
    allreduce carrying B scalars — N right-hand sides cost the same
    number of global synchronizations as one, which is the whole point
    of batching for the reduction-latency-bound strong-scaling regime of
    Sec. 3.2.  Update coefficients are per-RHS ``(B,)`` vectors broadcast
    over the block, in the block's dtype.
    """

    @staticmethod
    def _bparts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(B,) per-RHS partial inner products of this rank's blocks, in
        the blocks' dtype: each lane's is :class:`RankSpace`'s ``np.vdot``
        partial."""
        return np.array([np.vdot(a, b) for a, b in zip(x, y)])

    def batch(self, x) -> int:
        return x.shape[0]

    # -- reductions (one allreduce carrying B scalars) -------------------
    # The partials fold in the blocks' dtype, as the scalar space's do,
    # and come back in double, as its Python scalars.
    def dot(self, x, y) -> np.ndarray:
        part = self._bparts(x, y)
        record(flops=8 * x.size, bytes_moved=x.nbytes + y.nbytes)
        return np.asarray(self.comm.allreduce_sum(part), dtype=np.complex128)

    def rdot(self, x, y) -> np.ndarray:
        part = self._bparts(x, y).real
        record(flops=8 * x.size, bytes_moved=x.nbytes + y.nbytes)
        return np.asarray(self.comm.allreduce_sum(part), dtype=np.float64)

    def norm2(self, x) -> np.ndarray:
        part = self._bparts(x, x).real
        record(flops=4 * x.size, bytes_moved=x.nbytes)
        return np.asarray(self.comm.allreduce_sum(part), dtype=np.float64)

    # -- updates (per-RHS coefficients) ----------------------------------
    # The coefficient is rounded to the field's dtype before the multiply
    # (``linalg.blas``'s batched contract): a complex64 field stays
    # complex64, every lane's bits are :class:`RankSpace`'s for that
    # lane's Python scalar, and ``y + a*x`` still promotes when a
    # complex64 correction meets a complex128 iterate.  A coefficient
    # the single-RHS loop holds as NumPy scalars (``dtype``) is taken in
    # that dtype instead, as :class:`RankSpace` hands those on.
    def axpy(self, a, x, y, out=None, dtype=None):
        record(flops=8 * x.size)
        return blas.update(a, x, y, out, per_lane=True, dtype=dtype)

    def xpay(self, x, a, y, out=None):
        record(flops=8 * x.size)
        return blas.update(a, y, x, out, per_lane=True)

    def scale(self, a, x, dtype=None):
        record(flops=6 * x.size)
        return blas.lane_scaled(a, x, dtype)


__all__ = ["BatchedRankSpace", "RankSpace"]
