"""Even-odd (red-black) preconditioning of the Wilson-clover system.

"Even-odd ... preconditioning is almost always used to accelerate the
solution finding process for this system, where the nearest neighbor
property of the D matrix is exploited to solve the Schur complement
system" (Sec. 3.1).

Writing Eq. (2) in checkerboard blocks, with C = (4 + m + A) site-diagonal
and the hopping term connecting opposite parities only::

    M = [ C_ee      -1/2 D_eo ]
        [ -1/2 D_oe  C_oo     ]

the Schur complement on the even sublattice is::

    Mhat = C_ee - 1/4 D_eo C_oo^{-1} D_oe

Solving ``Mhat x_e = b_e + 1/2 D C^{-1} b_o |_e`` and back-substituting
``x_o = C^{-1}(b_o + 1/2 D x_e |_o)`` reproduces the full solution at
roughly half the iteration cost.

Fields here remain full-lattice arrays with support on one parity (the
other checkerboard is kept at zero); this trades memory for clarity and
lets every operator and BLAS routine be reused unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import base as dirac_base
from repro.dirac.base import LatticeOperator
from repro.dirac.clover import clover_site_matrices, invert_site_matrices
from repro.dirac.wilson import WilsonCloverOperator
from repro.lattice.geometry import Geometry
from repro.linalg.gamma import GAMMA5, apply_spin_matrix


def parity_project(
    geometry: Geometry, x: np.ndarray, parity: int, lead: int = 0
) -> np.ndarray:
    """Zero out the sites of the opposite parity (0 = even, 1 = odd).

    ``lead`` leading axes (the multi-RHS batch axis) broadcast over the
    parity mask instead of being mistaken for lattice axes.
    """
    mask = geometry.parity_mask(parity)
    extra = (None,) * (x.ndim - 4 - lead)
    return x * mask[(None,) * lead + (...,) + extra]


class EvenOddPreconditionedWilson(LatticeOperator):
    """The even-even Schur complement ``Mhat`` of the Wilson-clover matrix.

    ``apply`` expects (and returns) full-lattice arrays supported on the
    even checkerboard.  Use :meth:`prepare_rhs` / :meth:`reconstruct` to
    convert between the full system and the preconditioned one.

    Every dslash here delegates to ``wilson._dslash``, so the Schur
    complement inherits the underlying operator's kernel backend — the
    spin-projected stencil and its cached daggered links (``"numpy"``, or
    its compiled twin ``"c"``) by default, the ``"numpy_ref"``
    bit-reference when built from that ``kernel=`` value.
    """

    nspin = 4

    def __init__(self, wilson: WilsonCloverOperator):
        clover = wilson.clover  # derived: expanded here, once
        if wilson.csw != 0.0 and clover is None:
            raise TypeError(
                "the Schur complement inverts the dense clover field: wrap "
                "the working-precision operator and store the complement"
            )
        super().__init__(wilson.geometry)
        self.wilson = wilson
        self.lanes = wilson.lanes
        self.name = f"eo_{wilson.name}"
        # Schur applies two half-lattice dslashes (= one full) plus the
        # site-diagonal terms; use the full-matrix count as the standard.
        self.flops_per_site = wilson.flops_per_site
        self._c = clover_site_matrices(
            clover, wilson.diagonal_coefficient, wilson.geometry.shape
        )
        self._cinv = invert_site_matrices(self._c)

    # -- site-diagonal helpers ------------------------------------------
    def _mul_site(self, mats: np.ndarray, x: np.ndarray) -> np.ndarray:
        # complex128 site matrices: the product is rounded to the
        # field's dtype on store, like the clover term of the full matrix.
        flat = x.reshape(x.shape[:-2] + (12,))
        out = np.squeeze(mats @ flat[..., None], axis=-1)
        return out.reshape(x.shape).astype(x.dtype, copy=False)

    def apply_c(self, x: np.ndarray) -> np.ndarray:
        """(4 + m + A) x."""
        return self._mul_site(self._c, x)

    def apply_cinv(self, x: np.ndarray) -> np.ndarray:
        """(4 + m + A)^{-1} x."""
        return self._mul_site(self._cinv, x)

    # -- the Schur complement ---------------------------------------------
    def _apply(self, x: np.ndarray) -> np.ndarray:
        geom = self.geometry
        lead = self.site_lead(x)
        x = parity_project(geom, x, 0, lead=lead)
        d1 = self.wilson._dslash(x)  # supported on odd sites
        t = self.apply_cinv(d1)
        d2 = self.wilson._dslash(t)  # back on even sites
        out = self.apply_c(x) - 0.25 * d2
        return parity_project(geom, out, 0, lead=lead)

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        # Mhat inherits gamma5-Hermiticity from M; gamma5 (a +-1
        # diagonal) is cast to the field's dtype, as in the full matrix.
        g5 = GAMMA5.astype(x.dtype)
        return apply_spin_matrix(g5, self._apply(apply_spin_matrix(g5, x)))

    # -- full-system conversion ---------------------------------------------
    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """Even-site right-hand side ``b_e + 1/2 D C^{-1} b_o |_e``."""
        geom = self.geometry
        lead = self.site_lead(b)
        b_e = parity_project(geom, b, 0, lead=lead)
        b_o = parity_project(geom, b, 1, lead=lead)
        lifted = 0.5 * self.wilson._dslash(self.apply_cinv(b_o))
        return b_e + parity_project(geom, lifted, 0, lead=lead)

    def reconstruct(self, x_e: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Back-substitute the odd sites: full solution of ``M x = b``."""
        geom = self.geometry
        lead = self.site_lead(b)
        x_e = parity_project(geom, x_e, 0, lead=lead)
        b_o = parity_project(geom, b, 1, lead=lead)
        rhs_o = b_o + parity_project(
            geom, 0.5 * self.wilson._dslash(x_e), 1, lead=lead
        )
        x_o = parity_project(geom, self.apply_cinv(rhs_o), 1, lead=lead)
        return x_e + x_o

    def with_boundary(self, boundary) -> "EvenOddPreconditionedWilson":
        return EvenOddPreconditionedWilson(self.wilson.with_boundary(boundary))

    def restrict_to_block(self, partition, rank: int) -> "EvenOddPreconditionedWilson":
        """Dirichlet-cut Schur complement on one sub-domain.

        QUDA's production GCR-DD runs on the even-odd preconditioned
        system; the Schwarz block operator is then the Schur complement
        of the *cut* Wilson matrix (cut first, then eliminate the odd
        sites — the order matters and this is the communication-free one).
        """
        return EvenOddPreconditionedWilson(
            self.wilson.restrict_to_block(partition, rank)
        )

    def _cut_to_regions(self, origins, extents, cut_dims):
        """The cut Schur complements on even-origin regions as one lane
        stack (the parity mask is each region's own, so an odd origin —
        an odd overlap — would swap the checkerboards).  Stored, it rounds
        around the complement; the Wilson matrix inside stays in working
        precision."""
        if any(sum(origin) % 2 for origin in origins):
            raise TypeError(
                "EvenOddPreconditionedWilson cannot be restricted to "
                "regions of odd origin"
            )
        return EvenOddPreconditionedWilson(
            self.wilson.restrict_to_regions(origins, extents, cut_dims)
        )

    def _pick_lanes(self, lanes) -> "EvenOddPreconditionedWilson":
        return EvenOddPreconditionedWilson(self.wilson.take_lanes(lanes))
