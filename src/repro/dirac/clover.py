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


def build_clover_blocks(gauge: GaugeField, csw: float = 1.0) -> np.ndarray:
    """``A_x`` at every site as its two Hermitian 6x6 chirality blocks,
    lattice-last: ``(2, 6, 6) + geometry.shape``, contiguous complex128
    (the paper's 72 reals a site).  Vanishes identically on the free
    (unit-gauge) field.

    This is the one form a configuration keeps of its clover term: built
    once per gauge configuration and handed out read-only after that
    (:func:`repro.dirac.base.configuration_state`), because every solve on
    one configuration asks for it again.  A configuration keeps the blocks
    of the last ``csw`` asked for.
    """
    csw = float(csw)
    return configuration_state(gauge).child("csw", csw).get(
        ("chiral", None), lambda: _clover_blocks(gauge, csw)
    )


def _clover_blocks(gauge: GaugeField, csw: float) -> np.ndarray:
    sites = gauge.geometry.shape
    a = np.zeros((2, 2, 3, 2, 3) + sites, dtype=np.complex128)
    for mu, nu in itertools.combinations(range(4), 2):
        # sigma (x) (iF), Hermitian 4x4 (x) anti-Hermitian 3x3 times i:
        # Hermitian, and sigma is block-diagonal in chirality, so only its
        # two 2x2 blocks are multiplied out.  Indices: (s,a),(t,b) -> 6x6.
        # A quarter of the dense field per expression: this transient, not
        # the solve, was a Wilson-clover process's peak memory.
        i_f = np.moveaxis(1j * field_strength(gauge, mu, nu), (-2, -1), (0, 1))
        spin = sigma(mu, nu)
        for c in (0, 1):
            a[c] += np.einsum(
                "st,ab...->satb...", spin[2 * c : 2 * c + 2, 2 * c : 2 * c + 2], i_f
            )
    a *= csw
    return a.reshape((2, 6, 6) + sites)


def build_clover_field(gauge: GaugeField, csw: float = 1.0) -> np.ndarray:
    """``A_x`` at every site as dense matrices; shape ``geometry.shape +
    (12, 12)``.  A derived form: expanded afresh from
    :func:`build_clover_blocks` on every call (the blocks are what is
    cached), writable, the caller's to keep.
    """
    return dense_clover(build_clover_blocks(gauge, csw))


def dense_clover(chiral: np.ndarray) -> np.ndarray:
    """The dense ``sites + (12, 12)`` field of chiral blocks ``(2, 6, 6) +
    sites`` — the inverse of :func:`chiral_blocks`: a zero fill and two
    block writes."""
    sites = chiral.shape[3:]
    out = np.zeros(sites + (2, 6, 2, 6), dtype=chiral.dtype)
    for c in (0, 1):
        out[..., c, :, c, :] = np.moveaxis(chiral[c], (0, 1), (-2, -1))
    return out.reshape(sites + (12, 12))


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


def apply_chiral(chiral: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A x`` on a site-major Wilson spinor field ``([B,] sites..., 4, 3)``
    from the chiral blocks ``(2, 6, 6) + sites``: per chirality one 6x6
    matrix-vector product a site, read through a site-major view of the
    blocks (so NumPy's own sequential ``matmul`` loop, not the BLAS: the
    reference tier's bits do not depend on the BLAS build)."""
    x6 = x.reshape(x.shape[:-2] + (2, 6, 1))
    out = np.stack(
        [
            np.moveaxis(chiral[c], (0, 1), (-2, -1)) @ x6[..., c, :, :]
            for c in (0, 1)
        ],
        axis=-3,
    )
    return out.reshape(x.shape)


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
