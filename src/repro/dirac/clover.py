"""The clover term ``A_x`` of the Wilson-clover matrix, Eq. (2).

``A_x = c_sw * sum_{mu<nu} sigma_{mu nu} (x) iF_{mu nu}(x)`` is a Hermitian
12x12 matrix per site (spin (x) color), built from the clover-leaf field
strength.  Because ``[sigma_{mu nu}, gamma5] = 0`` it is block-diagonal in
chirality — two 6x6 Hermitian blocks, the "Hermitian block diagonal,
anti-Hermitian block off-diagonal structure ... 72 real numbers" of the
paper's footnote 1.

The even-odd preconditioner needs ``(4 + m + A)^{-1}``, computed here by a
vectorized per-site inversion.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.dirac.base import configuration_state
from repro.gauge.observables import field_strength
from repro.lattice.fields import GaugeField
from repro.linalg.gamma import sigma


def build_clover_field(gauge: GaugeField, csw: float = 1.0) -> np.ndarray:
    """Compute ``A_x`` at every site; shape ``geometry.shape + (12, 12)``.

    Vanishes identically on the free (unit-gauge) field.

    The field is built once per gauge configuration and handed out
    read-only after that (:func:`repro.dirac.base.configuration_state`):
    every solve on one configuration asks for it again.  A configuration
    keeps the field of the last ``csw`` asked for.
    """
    csw = float(csw)
    return configuration_state(gauge).child("csw", csw).get(
        "clover", lambda: _clover_field(gauge, csw)
    )


def _clover_field(gauge: GaugeField, csw: float) -> np.ndarray:
    shape = gauge.geometry.shape
    a = np.zeros(shape + (12, 12), dtype=np.complex128)
    for mu, nu in itertools.combinations(range(4), 2):
        # sigma (x) (iF), Hermitian 4x4 (x) anti-Hermitian 3x3 times i:
        # Hermitian.  Indices: (s,a),(t,b) -> 12x12.  One expression, so
        # no plane's temporaries outlive it: this transient, not the
        # solve, is a Wilson-clover process's peak memory.
        a += np.einsum(
            "st,...ab->...satb", sigma(mu, nu), 1j * field_strength(gauge, mu, nu)
        ).reshape(shape + (12, 12))
    a *= csw
    return a


def chiral_blocks(clover: np.ndarray) -> np.ndarray:
    """The two Hermitian 6x6 chirality blocks of a clover field, packed
    lattice-last: a ``(2, 6, 6) + sites`` *view* of ``sites + (12, 12)``
    (the paper's 72 reals a site; gamma5 is diagonal in this basis, so
    chirality is the upper/lower spin pair).  The off-diagonal blocks it
    leaves behind must vanish exactly.
    """
    split = clover.reshape(clover.shape[:-2] + (2, 6, 2, 6))
    if split[..., 0, :, 1, :].any() or split[..., 1, :, 0, :].any():
        raise ValueError("clover field is not block-diagonal in chirality")
    # [..., i, j, c] = split[..., c, i, c, j]
    return np.moveaxis(
        np.diagonal(split, axis1=-4, axis2=-2), (-1, -3, -2), (0, 1, 2)
    )


def apply_chiral_sites(
    chiral: np.ndarray, x: np.ndarray, out: np.ndarray, batched: bool
) -> np.ndarray:
    """``out += A x`` on lattice-last fields ``(spin, color, [batch,] ...)``
    with ``chiral`` from :func:`chiral_blocks`: per chirality six
    whole-lattice multiply-adds, column by column, over contiguous sites.
    ``x`` and ``out`` must be C-contiguous (they are viewed as ``(2, 6,
    ...)``) and must not alias.
    """
    x6 = x.reshape((2, 6) + x.shape[2:])
    out6 = out.reshape(x6.shape)
    # A batch axis sits between the components and the lattice.
    column = (slice(None), None) if batched else ()
    tmp = np.empty_like(out6[0])
    for c in (0, 1):
        for j in range(6):
            np.multiply(chiral[c, :, j][column], x6[c, j], out=tmp)
            out6[c] += tmp
    return out


def apply_clover(clover: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply per-site 12x12 clover matrices to a Wilson spinor field."""
    shape = x.shape
    flat = x.reshape(shape[:-2] + (12,))
    out = np.squeeze(clover @ flat[..., None], axis=-1)
    return out.reshape(shape)


def clover_site_matrices(
    clover: np.ndarray | None,
    diagonal: float,
    shape: tuple[int, ...],
    dtype=np.complex128,
) -> np.ndarray:
    """Full site-diagonal matrix ``C = diagonal * I + A`` (A may be absent)."""
    eye = np.eye(12, dtype=dtype)
    if clover is None:
        return np.broadcast_to(diagonal * eye, shape + (12, 12)).copy()
    return clover + diagonal * eye


def invert_site_matrices(c: np.ndarray) -> np.ndarray:
    """Per-site inverse of 12x12 site matrices (vectorized)."""
    return np.linalg.inv(c)
