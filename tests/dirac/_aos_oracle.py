"""Test-only oracle: the lattice-first (array-of-structures) NumPy stencils.

These are the single-RHS Wilson body, the staggered body and their
``link_apply_cols`` helper exactly as they stood in ``src/`` before the
kernels went lattice-last (PR 14).  Fields stay ``(T, Z, Y, X, spin,
color)``, so every ufunc inner loop is 3 or 6 elements long with a
stride-0 operand — slow, but the per-site sequence of IEEE operations is
the one the lattice-last kernels must reproduce *bit for bit*.  Nothing in
``src/`` may import this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.dirac import (
    AsqtadOperator,
    BoundarySpec,
    NaiveStaggeredOperator,
    WilsonCloverOperator,
)
from repro.lattice import GaugeField, Geometry
from repro.linalg.gamma import projector_tables


def link_apply_cols(
    link_cols: np.ndarray,
    x: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
    batched: bool = False,
) -> np.ndarray:
    """``y_a = sum_b U_ab x_b`` with ``link_cols[..., b, a] = U_ab``: three
    broadcast multiply-adds over the whole lattice-first field."""
    spinor_ndim = link_cols.ndim + (1 if batched else 0)
    if x.ndim == spinor_ndim:  # (..., nspin, 3)
        if out is None:
            out = x[..., :, 0, None] * link_cols[..., None, 0, :]
        else:
            np.multiply(x[..., :, 0, None], link_cols[..., None, 0, :], out=out)
        for b in (1, 2):
            if tmp is None:
                out += x[..., :, b, None] * link_cols[..., None, b, :]
            else:
                np.multiply(x[..., :, b, None], link_cols[..., None, b, :], out=tmp)
                out += tmp
        return out
    if x.ndim == spinor_ndim - 1:  # (..., 3)
        y = x[..., 0, None] * link_cols[..., 0, :]
        for b in (1, 2):
            y += x[..., b, None] * link_cols[..., b, :]
        return y
    raise ValueError(f"incompatible shapes {link_cols.shape} and {x.shape}")


def _cols(links: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-layout links ``U^T`` and daggered links ``(U^+)^T = conj(U)``."""
    return np.ascontiguousarray(np.swapaxes(links, -1, -2)), np.conj(links)


def wilson_dslash_aos(op, x: np.ndarray) -> np.ndarray:
    """The parent's single-RHS ``WilsonCloverOperator._dslash_projected``."""
    geom = op.geometry
    u_cols, udag_cols = _cols(op.gauge.data)
    xu = x[..., :2, :]
    h = np.empty_like(xu)
    uh = np.empty_like(xu)
    tmp = np.empty_like(xu)
    upper = np.zeros_like(xu)
    lower = np.zeros_like(xu)
    for mu in range(4):
        bc = op.boundary[mu]
        for tab, cols, fwd in (
            # complex128 phases whatever the field's dtype, as before PR 17.
            (projector_tables(mu, -1), u_cols[mu], True),
            (projector_tables(mu, +1), udag_cols[mu], False),
        ):
            np.multiply(tab.project_coeff, x[..., tab.lower, :], out=tmp)
            np.add(xu, tmp, out=h)
            if fwd:
                sh = geom.shift(h, mu, +1, boundary=bc)
                link_apply_cols(cols, sh, out=uh, tmp=tmp)
            else:
                link_apply_cols(cols, h, out=uh, tmp=tmp)
                uh = geom.shift(uh, mu, -1, boundary=bc)
            upper += uh
            np.multiply(tab.recon_coeff, uh[..., tab.source, :], out=tmp)
            lower += tmp
    out = np.empty_like(x)
    out[..., :2, :] = upper
    out[..., 2:, :] = lower
    return out


def staggered_dslash_aos(op, x: np.ndarray) -> np.ndarray:
    """The parent's ``_StaggeredBase._dslash_numpy`` (naive and asqtad,
    batched or not)."""
    geom = op.geometry
    lead = op.field_lead(x)
    batched = bool(lead)
    fat_cols, fat_dag_cols = _cols(op.fat)
    if op.long is not None:
        long_cols, long_dag_cols = _cols(op.long)
    out = np.zeros_like(x)
    for mu in range(4):
        bc = op.boundary[mu]
        eta = op.eta[mu][..., None]
        hop = link_apply_cols(
            fat_cols[mu],
            geom.shift(x, mu, +1, boundary=bc, lead=lead),
            batched=batched,
        )
        hop -= geom.shift(
            link_apply_cols(fat_dag_cols[mu], x, batched=batched),
            mu, -1, boundary=bc, lead=lead,
        )
        if op.long is not None:
            hop += link_apply_cols(
                long_cols[mu],
                geom.shift(x, mu, +3, boundary=bc, lead=lead),
                batched=batched,
            )
            hop -= geom.shift(
                link_apply_cols(long_dag_cols[mu], x, batched=batched),
                mu, -3, boundary=bc, lead=lead,
            )
        out += eta * hop
    return out


# ----------------------------------------------------------------------
# The comparison matrix shared by the fast-lane test and the property test
# ----------------------------------------------------------------------
OPERATORS = ("wilson", "wilson_clover", "staggered", "asqtad")
#: 4^4, four distinct extents, and a ghost-padded local shape.
DIMS = ((4, 4, 4, 4), (4, 4, 6, 8), (6, 4, 4, 10))
DTYPES = (np.complex64, np.complex128)
_P, _A, _Z = "periodic", "antiperiodic", "zero"
BOUNDARIES = {
    "periodic": (_P, _P, _P, _P),
    "antiperiodic-t": (_P, _P, _P, _A),
    "zero-1": (_P, _P, _P, _Z),
    "zero-2": (_Z, _P, _A, _Z),
    "zero-3": (_Z, _Z, _P, _Z),
    "zero-4": (_Z, _Z, _Z, _Z),
}


@lru_cache(maxsize=None)
def _periodic_operator(kind: str, dims: tuple, kernel: str = "numpy"):
    gauge = GaugeField.weak(Geometry(dims), epsilon=0.3, rng=11)
    if kind in ("wilson", "wilson_clover"):
        csw = 1.1 if kind == "wilson_clover" else 0.0
        return WilsonCloverOperator(gauge, 0.1, csw, kernel=kernel)
    if kind == "staggered":
        return NaiveStaggeredOperator(gauge, 0.1, kernel=kernel)
    return AsqtadOperator.from_gauge(gauge, 0.1, kernel=kernel)


def assert_bit_identical(
    kind: str, dims, conditions, dtype, seed: int = 5, batch: int = 0,
    kernel: str = "numpy",
) -> None:
    """``np.array_equal`` (values *and* dtype) between the in-tree
    hopping term of the ``kernel`` tier and the lattice-first oracle on
    one random field (``batch`` > 0 adds a leading multi-RHS axis)."""
    op = _periodic_operator(kind, tuple(dims), kernel).with_boundary(
        BoundarySpec(tuple(conditions))
    )
    rng = np.random.default_rng(seed)
    shape = op.geometry.shape + ((4, 3) if op.nspin == 4 else (3,))
    if batch:
        shape = (batch,) + shape
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    if op.nspin == 1:
        expected = staggered_dslash_aos(op, x)
    elif batch:
        # The Wilson oracle is single-RHS: a batched lane must equal it.
        expected = np.stack([wilson_dslash_aos(op, lane) for lane in x])
    else:
        expected = wilson_dslash_aos(op, x)
    got = op.dslash(x)
    assert got.dtype == expected.dtype == np.dtype(dtype)
    assert got.flags.c_contiguous
    assert np.array_equal(got, expected)
