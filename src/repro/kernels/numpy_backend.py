"""The NumPy backends: the bit-reference tier every other tier is
equivalence-tested against.

Two backends wrap the two in-tree NumPy dslash paths:

* ``"numpy"`` — the spin-projected Wilson fast path (cached daggered
  links, half-spinor hops) plus the vectorized staggered stencil.  Both
  run *lattice-last*: one transpose to ``(spin, color, [batch,] T, Z, Y,
  X)`` so every ufunc streams contiguous sites, bit-identical to the
  lattice-first formulation kept as a test oracle; a multi-RHS batch is
  one more elementwise axis of the same body, so each lane equals its
  single-RHS apply bit for bit.  This is the default resolution target
  and the numerical baseline: with no compiled tier installed,
  ``kernel="auto"`` solves are bitwise identical to this path.
* ``"numpy_ref"`` — the seed's full-4-spin Wilson formulation, kept as
  the slow cross-check the fast path itself is equivalence-tested
  against.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend, KernelCapabilities


class NumpyBackend(KernelBackend):
    """Vectorized NumPy stencils (the fast path) — always available."""

    name = "numpy"
    priority = 0
    capabilities = KernelCapabilities(
        operators=("wilson", "staggered"),
        batched=True,
        split=True,
        dtypes=("complex128", "complex64"),
        packed=True,
    )

    def wilson_dslash(self, op, x: np.ndarray) -> np.ndarray:
        return op._dslash_projected(x)

    def staggered_dslash(self, op, x: np.ndarray) -> np.ndarray:
        return op._dslash_numpy(x)


class NumpyReferenceBackend(KernelBackend):
    """The seed's full-spinor Wilson path: slow, maximally transparent."""

    name = "numpy_ref"
    priority = -10
    capabilities = KernelCapabilities(
        operators=("wilson",),
        batched=True,
        split=True,
        dtypes=("complex128", "complex64"),
    )

    def wilson_dslash(self, op, x: np.ndarray) -> np.ndarray:
        return op._dslash_reference(x)


__all__ = ["NumpyBackend", "NumpyReferenceBackend"]
