"""Euclidean Dirac gamma-matrix algebra (DeGrand-Rossi chiral basis).

Provides the 4x4 spin matrices appearing in the Wilson-clover operator of
Eq. (2): the gammas themselves, the spin projectors ``P(mu, sign) =
(1 + sign*gamma_mu)/2``, and ``sigma_{mu nu} = (i/2)[gamma_mu, gamma_nu]``
used by the clover term.  The basis satisfies the Euclidean Clifford algebra
``{gamma_mu, gamma_nu} = 2 delta_{mu nu}`` with Hermitian gammas, and
``gamma5 = gamma_x gamma_y gamma_z gamma_t`` diagonal (chiral
representation), which is what makes the clover matrix block-diagonal in
chirality (two 6x6 blocks per site).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_i = 1j

GAMMA_X = np.array(
    [
        [0, 0, 0, _i],
        [0, 0, _i, 0],
        [0, -_i, 0, 0],
        [-_i, 0, 0, 0],
    ],
    dtype=np.complex128,
)

GAMMA_Y = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=np.complex128,
)

GAMMA_Z = np.array(
    [
        [0, 0, _i, 0],
        [0, 0, 0, -_i],
        [-_i, 0, 0, 0],
        [0, _i, 0, 0],
    ],
    dtype=np.complex128,
)

GAMMA_T = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ],
    dtype=np.complex128,
)

#: gamma matrices indexed by direction mu = 0..3 (x, y, z, t).
GAMMAS = (GAMMA_X, GAMMA_Y, GAMMA_Z, GAMMA_T)

#: gamma5 = gx gy gz gt; diagonal (+1, +1, -1, -1) in this basis.
GAMMA5 = (GAMMA_X @ GAMMA_Y @ GAMMA_Z @ GAMMA_T).round(12)

IDENTITY = np.eye(4, dtype=np.complex128)


def gamma(mu: int) -> np.ndarray:
    """Return gamma_mu for mu in 0..3 (x, y, z, t), or gamma5 for mu=5."""
    if mu == 5:
        return GAMMA5
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"invalid gamma index {mu}")
    return GAMMAS[mu]


def projector(mu: int, sign: int) -> np.ndarray:
    """Spin projector P^{sign}_mu = (1 + sign*gamma_mu)/2 from Eq. (2).

    Each projector has rank 2, which is the source of the spin-projection
    flop/bandwidth savings in Wilson dslash kernels.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return 0.5 * (IDENTITY + sign * gamma(mu))


def sigma(mu: int, nu: int) -> np.ndarray:
    """sigma_{mu nu} = (i/2) [gamma_mu, gamma_nu] (clover-term spin structure)."""
    gm, gn = gamma(mu), gamma(nu)
    return 0.5j * (gm @ gn - gn @ gm)


def anticommutator(mu: int, nu: int) -> np.ndarray:
    gm, gn = gamma(mu), gamma(nu)
    return gm @ gn + gn @ gm


def apply_spin_matrix(mat: np.ndarray, spinor: np.ndarray) -> np.ndarray:
    """Apply an ``(s, t)`` spin matrix to a field of ``(..., t, 3)``
    color-spinors, returning ``(..., s, 3)``.

    Implemented as a broadcast ``mat @ spinor`` so numpy dispatches one
    batched contraction instead of an un-optimized einsum loop; accepts
    rectangular matrices (the 2x4 / 4x2 spin-projection factors) as well
    as the square gammas.
    """
    return np.matmul(mat, spinor)


def projector_factors(mu: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-2 factorization of the *unnormalized* projector ``1 + sign*gamma_mu``.

    Every gamma_mu in this chiral basis is block-off-diagonal,
    ``gamma_mu = [[0, B], [B^+, 0]]`` with ``B`` a unitary 2x2 block, so

    ``1 + sign*gamma_mu = R @ P``,  ``P = [1, sign*B]``,  ``R = [[1], [sign*B^+]]``

    with ``P`` the 2x4 *projection* to a half-spinor and ``R`` the 4x2
    *reconstruction* back to four spins.  This is the decomposition QUDA's
    Wilson dslash kernels exploit (Sec. 4 of the paper and arXiv:1011.0024):
    SU(3) math and halo traffic touch 2 spin components instead of 4.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b = gamma(mu)[:2, 2:]
    eye2 = np.eye(2, dtype=np.complex128)
    proj = np.hstack([eye2, sign * b])
    recon = np.vstack([eye2, sign * b.conj().T])
    return proj, recon


@dataclass(frozen=True, eq=False)
class ProjectorTables:
    """Slice/coefficient form of one ``1 + sign*gamma_mu`` factorization.

    In this basis the 2x2 block ``B`` of each gamma_mu has exactly one
    nonzero entry per row, so the 2x4 projection is just "upper half plus a
    (possibly swapped, phase-scaled) copy of the lower half", and the 4x2
    reconstruction appends a phase-scaled copy of the projected result.
    Expressing both through basic slices keeps the fast dslash path free of
    general spin matmuls *and* of fancy-indexing copies.

    Attributes
    ----------
    lower:
        Slice of the spin axis selecting the lower two spin components in
        the order the projection adds them to the upper two.
    project_coeff:
        ``(2, 1)`` phases multiplying those components.
    source:
        Slice of the *half-spinor* spin axis feeding the reconstruction of
        spin components 2 and 3.
    recon_coeff:
        ``(2, 1)`` phases for the reconstruction rows.
    """

    mu: int
    sign: int
    lower: slice
    project_coeff: np.ndarray
    source: slice
    recon_coeff: np.ndarray

    def project(self, x: np.ndarray) -> np.ndarray:
        """Half-spinor ``P x`` of a ``(..., 4, 3)`` field -> ``(..., 2, 3)``."""
        return x[..., :2, :] + self.project_coeff * x[..., self.lower, :]

    def reconstruct_lower(self, half: np.ndarray) -> np.ndarray:
        """Spin components 2..3 of ``R h`` for a ``(..., 2, 3)`` half-spinor
        (components 0..1 of ``R h`` are ``h`` itself)."""
        return self.recon_coeff * half[..., self.source, :]


def _one_nonzero_per_row(mat: np.ndarray) -> tuple[list[int], list[complex]]:
    cols, vals = [], []
    for row in mat:
        (nz,) = np.nonzero(row)
        if len(nz) != 1:  # pragma: no cover - basis property
            raise ValueError("expected exactly one nonzero per row")
        cols.append(int(nz[0]))
        vals.append(complex(row[nz[0]]))
    return cols, vals


@lru_cache(maxsize=None)
def projector_tables(mu: int, sign: int, dtype=np.complex128) -> ProjectorTables:
    """Cached :class:`ProjectorTables` for ``1 + sign*gamma_mu``, phases
    in ``dtype`` (they are only +-1 and +-i: exact in any precision)."""
    b = gamma(mu)[:2, 2:]
    cols, vals = _one_nonzero_per_row(b)
    lower = slice(2, 4) if cols == [0, 1] else slice(3, 1, -1)
    project_coeff = sign * np.array(vals, dtype=dtype)[:, None]
    bh = b.conj().T
    cols2, vals2 = _one_nonzero_per_row(bh)
    source = slice(0, 2) if cols2 == [0, 1] else slice(1, None, -1)
    recon_coeff = sign * np.array(vals2, dtype=dtype)[:, None]
    return ProjectorTables(mu, sign, lower, project_coeff, source, recon_coeff)
