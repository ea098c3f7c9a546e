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
from repro.kernels import get_backend, resolve_kernel
from repro.lattice.fields import GaugeField
from repro.linalg.gamma import sigma
from repro.util.counters import timed


def build_clover_blocks(
    gauge: GaugeField, csw: float = 1.0, backend=None
) -> np.ndarray:
    """``A_x`` at every site in the form a kernel tier holds it
    (:meth:`repro.kernels.KernelBackend.clover_pack`) — by default, and on
    the NumPy tiers, its two Hermitian 6x6 chirality blocks, lattice-last:
    ``(2, 6, 6) + geometry.shape``, contiguous complex128; on the compiled
    tier those Hermitian-packed (the paper's 72 reals a site).  Vanishes
    identically on the free (unit-gauge) field.

    This is the one form a configuration keeps of its clover term: built
    once per gauge configuration and tier and handed out read-only after
    that (:func:`repro.dirac.base.configuration_state`), because every
    solve on one configuration asks for it again.  A configuration keeps
    the term of the last ``csw`` asked for.  The build is the timed leaf
    ``clover_build`` (kind ``setup``): a first solve's report shows it.
    """
    csw = float(csw)
    backend = backend or get_backend("numpy")

    def build():
        with timed("clover_build", kind="setup"):
            return backend.clover_pack(
                _chirality_builder(gauge, csw), gauge.geometry.shape,
                np.complex128,
            )

    return configuration_state(gauge).child("csw", csw).get(
        (backend.clover_form, None), build
    )


def _chirality_builder(gauge: GaugeField, csw: float):
    """``chirality(c)``: the complex128 blocks ``(6, 6) + sites`` of one
    chirality, built when asked for — half the term alive at a time (the
    whole blocks, built and dropped, would leave the allocator holding on
    to freed memory for the rest of the process: it decided the
    benchmark's peak).  The six field strengths, nine tenths of the build,
    are computed once and feed both, lattice-last ``(3, 3) + sites``, and
    the whole build is elementwise: no BLAS call decides a bit of it.
    They are computed on the first request, after the caller has
    allocated what it keeps: dropped, they leave no hole beneath it."""
    sites = gauge.geometry.shape
    planes = list(itertools.combinations(range(4), 2))
    i_f = []

    def chirality(c: int) -> np.ndarray:
        if not i_f:
            for mu, nu in planes:
                f = np.moveaxis(field_strength(gauge, mu, nu), (-2, -1), (0, 1))
                i_f.append(np.multiply(1j, f, out=f))
        a = np.empty((2, 3, 2, 3) + sites, dtype=np.complex128)
        term = np.empty((3, 3) + sites, dtype=np.complex128)
        for k, ((mu, nu), f) in enumerate(zip(planes, i_f)):
            # sigma (x) (iF), Hermitian 4x4 (x) anti-Hermitian 3x3 times i:
            # Hermitian, and sigma is block-diagonal in chirality, so only
            # its 2x2 block of this chirality is multiplied out, an entry
            # at a time, plane after plane.  Indices: (s,a),(t,b) -> 6x6.
            spin = sigma(mu, nu)[2 * c : 2 * c + 2, 2 * c : 2 * c + 2]
            for s, t in itertools.product(range(2), repeat=2):
                if k == 0:
                    np.multiply(spin[s, t], f, out=a[s, :, t])
                else:
                    a[s, :, t] += np.multiply(spin[s, t], f, out=term)
        a *= csw
        return a.reshape((6, 6) + sites)

    return chirality


def build_clover_field(gauge: GaugeField, csw: float = 1.0) -> np.ndarray:
    """``A_x`` at every site as dense matrices; shape ``geometry.shape +
    (12, 12)``.  A derived form: expanded afresh on every call from what
    :func:`build_clover_blocks` keeps for the tier ``kernel="auto"``
    resolves to (so a configuration an operator was built on is not made
    to keep a second form), writable, the caller's to keep.
    """
    backend = resolve_kernel("auto", operator="wilson")
    return dense_clover(ChiralBlocks(
        backend, build_clover_blocks(gauge, csw, backend), gauge.geometry.shape
    ))


class ChiralBlocks:
    """The chiral blocks ``(2, 6, 6) + lattice`` of a clover term held in a
    kernel tier's form, a chirality at a time: ``blocks[c]`` is what
    :meth:`repro.kernels.KernelBackend.clover_chirality` makes of the held
    array when asked — a view of it on the NumPy tiers, half the blocks
    expanded afresh, for the caller to drop, on the compiled one.  What
    applies or expands the blocks (below) takes this as it takes the
    array."""

    def __init__(self, backend, held: np.ndarray, lattice):
        self._of = backend, held, tuple(lattice)

    def __getitem__(self, c: int) -> np.ndarray:
        backend, held, lattice = self._of
        return backend.clover_chirality(held, lattice, c)


def dense_clover(chiral: np.ndarray) -> np.ndarray:
    """The dense ``sites + (12, 12)`` field of chiral blocks ``(2, 6, 6) +
    sites`` — the inverse of :func:`chiral_blocks`: a zero fill and two
    block writes."""
    out = None
    for c in (0, 1):
        block = chiral[c]
        if out is None:
            out = np.zeros(block.shape[2:] + (2, 6, 2, 6), dtype=block.dtype)
        out[..., c, :, c, :] = np.moveaxis(block, (0, 1), (-2, -1))
    return out.reshape(out.shape[:-4] + (12, 12))


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
        block = chiral[c]
        for j in range(6):
            np.multiply(block[:, j][column], x6[c, j], out=tmp)
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
