"""Test-only oracle: the dense 12x12 clover field and the working-precision
Wilson-clover matrix on it, exactly as they stood in ``src/`` before the
packing tiers took the clover term as its two chiral blocks (PR 22).

``dense_clover_field`` is the old build — all twelve spin rows of ``sigma
(x) iF`` multiplied out, the same planes accumulated in the same order —
which the chiral build must equal element for element.  ``dense_matrix``
is ``(4 + m) x - D x / 2`` as three NumPy passes plus ``(V, 12, 12) @ (V,
12, 1)`` through the BLAS: its bits depend on the BLAS build (OpenBLAS
dispatches ``zgemv`` per CPU), so the one-body apply is held to it within
a budget, not bit for bit.  Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.dirac import WilsonCloverOperator
from repro.dirac.clover import apply_clover
from repro.gauge.observables import field_strength
from repro.lattice import GaugeField
from repro.linalg.gamma import sigma

#: One apply of the one-body matrix against ``dense_matrix``, relative, in
#: the field's epsilon: the issue sized the move at 1.3e-16 for complex128
#: and budgets 4e-16; complex64 fields are now applied in the operator's
#: complex128 and rounded once, where the dense form rounded every pass.
BUDGET = {np.dtype(np.complex128): 4e-16, np.dtype(np.complex64): 2e-7}


def dense_clover_field(gauge: GaugeField, csw: float) -> np.ndarray:
    shape = gauge.geometry.shape
    a = np.zeros(shape + (12, 12), dtype=np.complex128)
    for mu, nu in itertools.combinations(range(4), 2):
        a += np.einsum(
            "st,...ab->...satb", sigma(mu, nu), 1j * field_strength(gauge, mu, nu)
        ).reshape(shape + (12, 12))
    a *= csw
    return a


def dense_matrix(op: WilsonCloverOperator, clover: np.ndarray, x: np.ndarray):
    """The retired ``_apply``: ``op`` supplies the hopping term and the
    diagonal, ``clover`` is the dense field."""
    out = op.diagonal_coefficient * x - 0.5 * op._dslash(x)
    out += apply_clover(clover, x)
    return out
