"""SU(3) color-matrix algebra.

Implements the gauge-matrix utilities QUDA relies on (Sec. 5 of the paper):
random group elements, reunitarization, and the 12- and 8-real *gauge
compression* formats that trade memory bandwidth for recomputation.  All
routines are vectorized over arbitrary leading (site) axes: inputs have
shape ``(..., 3, 3)``.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import make_rng


def identity(shape: tuple[int, ...] = (), dtype=np.complex128) -> np.ndarray:
    """Field of identity matrices with the given leading site shape."""
    out = np.zeros(shape + (3, 3), dtype=dtype)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    out[..., 2, 2] = 1.0
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate over the trailing (3, 3) axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the trailing (3, 3) axes (broadcasts leading axes)."""
    return a @ b


def link_apply_sites(
    links: np.ndarray, x: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """``out[s, a] = (x[s, 0] links[0, a] + x[s, 1] links[1, a]) + x[s, 2]
    links[2, a]`` on lattice-last fields: the matrix product ``x @ links``
    with ``x`` first in every complex multiply.

    ``links`` is a ``(b, a) + lattice`` slab (one of
    :func:`repro.dirac.base.lattice_last_links`, or a running path
    product) and ``x`` is ``(rows, b) + lattice`` (a spinor's ``(spin,
    color)``, or a 3x3 slab): three broadcast multiply-adds whose inner
    loop runs over contiguous sites (not over the 3 colors with a stride-0
    operand, as a lattice-first layout forces), and no BLAS call.  ``out``
    and ``tmp`` are result-shaped scratch that must not alias ``x``; their
    dtype is the caller's choice of ``np.result_type`` for the product.
    """
    np.multiply(x[:, 0, None], links[None, 0], out=out)
    for b in (1, 2):
        np.multiply(x[:, b, None], links[None, b], out=tmp)
        out += tmp
    return out


def trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def random_su3(
    shape: tuple[int, ...] = (),
    rng: "int | np.random.Generator | None" = None,
    dtype=np.complex128,
) -> np.ndarray:
    """Haar-ish random SU(3) field of the given leading shape.

    Generated by QR-decomposing a complex Gaussian matrix (giving a Haar
    U(3) element after phase fixing) and removing the overall determinant
    phase.  Used for "hot" gauge starts.
    """
    rng = make_rng(rng)
    z = rng.standard_normal(shape + (3, 3)) + 1j * rng.standard_normal(shape + (3, 3))
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity of QR so the distribution is Haar.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ph = d / np.abs(d)
    q = q * ph[..., None, :]
    return fix_determinant(q).astype(dtype)


def fix_determinant(u: np.ndarray) -> np.ndarray:
    """Divide out the determinant phase so det = 1 exactly (U(3) -> SU(3))."""
    det = np.linalg.det(u)
    return u / np.cbrt(np.abs(det))[..., None, None] / np.exp(
        1j * np.angle(det) / 3.0
    )[..., None, None]


def project_su3(m: np.ndarray) -> np.ndarray:
    """Project a field of arbitrary 3x3 matrices to the nearest SU(3) element.

    Uses the polar decomposition via SVD (the standard trace-maximization
    projection used after link smearing / fattening), followed by
    determinant-phase fixing.
    """
    u, _, vh = np.linalg.svd(m)
    return fix_determinant(u @ vh)


def reunitarize(u: np.ndarray) -> np.ndarray:
    """Alias of :func:`project_su3`; cleans up rounding drift on group elements."""
    return project_su3(u)


def unitarity_error(u: np.ndarray) -> float:
    """max-norm of (U U^dag - 1) over the field; 0 for exact group elements."""
    delta = u @ dagger(u) - identity(u.shape[:-2], dtype=u.dtype)
    return float(np.abs(delta).max())


def determinant_error(u: np.ndarray) -> float:
    """max |det U - 1| over the field."""
    return float(np.abs(np.linalg.det(u) - 1.0).max())


# ----------------------------------------------------------------------
# Gauge compression ("reconstruction") formats, Sec. 5 strategy (a)
# ----------------------------------------------------------------------

def compress12(u: np.ndarray) -> np.ndarray:
    """12-real compression: store only the first two rows.

    Returns an array of shape ``(..., 2, 3)`` (12 reals as 6 complex).
    """
    return np.ascontiguousarray(u[..., :2, :])


def reconstruct12(rows: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """Rebuild SU(3) from two rows: third row = conj(row0 x row1).

    This is the identity u2 = (u0 x u1)* satisfied by any SU(3) matrix.
    """
    if rows.shape[-2:] != (2, 3):
        raise ValueError(f"expected (...,2,3) rows, got {rows.shape}")
    r0 = rows[..., 0, :]
    r1 = rows[..., 1, :]
    r2 = np.conj(np.cross(r0, r1))
    return np.stack([r0, r1, r2], axis=-2).astype(dtype)


def compress8(u: np.ndarray) -> np.ndarray:
    """8-real compression.

    Stores, per matrix: ``[arg(u00), Re u01, Im u01, Re u02, Im u02,
    arg(a), Re b, Im b]`` where ``W = [[a, b], [-b*, a*]]`` is the SU(2)
    rotation relating the last two rows of U to a canonical orthonormal
    completion of the first row.  This is an exact 8-parameter chart of
    SU(3) (away from a measure-zero set handled by a pivot fallback),
    trading maximal compression for the most reconstruction arithmetic —
    the same bandwidth/compute trade QUDA's RECONSTRUCT_8 makes.

    Returns an array of shape ``(..., 8)`` float64.
    """
    r0 = u[..., 0, :]
    v1, v2 = _complement_basis(r0)
    # W entries: rows 1,2 of U expressed in the (v1, v2) basis.
    a = np.sum(u[..., 1, :] * np.conj(v1), axis=-1)
    b = np.sum(u[..., 1, :] * np.conj(v2), axis=-1)
    out = np.empty(u.shape[:-2] + (8,), dtype=np.float64)
    out[..., 0] = np.angle(r0[..., 0])
    out[..., 1] = r0[..., 1].real
    out[..., 2] = r0[..., 1].imag
    out[..., 3] = r0[..., 2].real
    out[..., 4] = r0[..., 2].imag
    out[..., 5] = np.angle(a)
    out[..., 6] = b.real
    out[..., 7] = b.imag
    return out


def reconstruct8(params: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """Invert :func:`compress8` (exact up to rounding)."""
    if params.shape[-1] != 8:
        raise ValueError(f"expected (...,8) params, got {params.shape}")
    theta0 = params[..., 0]
    u01 = params[..., 1] + 1j * params[..., 2]
    u02 = params[..., 3] + 1j * params[..., 4]
    mag00_sq = np.clip(1.0 - np.abs(u01) ** 2 - np.abs(u02) ** 2, 0.0, None)
    u00 = np.sqrt(mag00_sq) * np.exp(1j * theta0)
    r0 = np.stack([u00, u01, u02], axis=-1)
    v1, v2 = _complement_basis(r0)
    b = params[..., 6] + 1j * params[..., 7]
    mag_a = np.sqrt(np.clip(1.0 - np.abs(b) ** 2, 0.0, None))
    a = mag_a * np.exp(1j * params[..., 5])
    r1 = a[..., None] * v1 + b[..., None] * v2
    r2 = -np.conj(b)[..., None] * v1 + np.conj(a)[..., None] * v2
    return np.stack([r0, r1, r2], axis=-2).astype(dtype)


def _complement_basis(r0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical orthonormal completion (v1, v2) of a unit first row.

    v1 is built from the (u00, u01) block when it is non-degenerate, else
    from the (u00, u02) block; v2 = conj(r0 x v1) completes an SU(3) frame
    (the same cross-product identity as 12-reconstruction).
    """
    u00 = r0[..., 0]
    u01 = r0[..., 1]
    u02 = r0[..., 2]
    n01 = np.sqrt(np.abs(u00) ** 2 + np.abs(u01) ** 2)
    n02 = np.sqrt(np.abs(u00) ** 2 + np.abs(u02) ** 2)
    use01 = n01 > 1e-6
    safe01 = np.where(use01, n01, 1.0)
    safe02 = np.where(~use01, n02, 1.0)
    zero = np.zeros_like(u00)
    v1a = np.stack(
        [-np.conj(u01) / safe01, np.conj(u00) / safe01, zero], axis=-1
    )
    v1b = np.stack(
        [-np.conj(u02) / safe02, zero, np.conj(u00) / safe02], axis=-1
    )
    v1 = np.where(use01[..., None], v1a, v1b)
    v2 = np.conj(np.cross(r0, v1))
    return v1, v2


#: Reals stored per link for each reconstruction scheme (perf-model input).
REALS_PER_LINK = {18: 18, 12: 12, 8: 8}


def compression_roundtrip_error(u: np.ndarray, reals: int) -> float:
    """max-norm reconstruction error for the given scheme (18 = no-op)."""
    if reals == 18:
        return 0.0
    if reals == 12:
        return float(np.abs(reconstruct12(compress12(u), u.dtype) - u).max())
    if reals == 8:
        return float(np.abs(reconstruct8(compress8(u), u.dtype) - u).max())
    raise ValueError(f"unknown reconstruction {reals}; expected 18, 12 or 8")
