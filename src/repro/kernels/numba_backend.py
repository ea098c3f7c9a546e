"""The opt-in compiled tier: Numba-jitted dslash kernels.

This module always imports — when numba is missing the backend still
registers, reporting ``available = False`` with the import error as its
reason, so ``"auto"`` resolution falls through to NumPy and an explicit
``kernel="numba"`` request fails with an actionable message instead of
an ImportError from deep inside an operator.

The backend adapts the whole-lattice operators to the flat-site kernels
of :mod:`repro.kernels._numba_kernels`: per operator and dtype it builds
(once, cached on the operator instance)

* flattened ``(4, V, 3, 3)`` link and daggered-link arrays,
* ``(4, V)`` int64 neighbor tables from ``np.roll`` of the site index,
* ``(4, V)`` boundary-phase tables obtained by shifting a ones-field
  through :meth:`Geometry.shift` — which reproduces the NumPy tier's
  boundary semantics (antiperiodic sign, Dirichlet zero) *by
  construction* rather than by re-implementing them.

A lane stack (``op.lanes``: L Schwarz blocks side by side) is to the flat
kernels one lattice of ``V = L * block volume`` sites: the block tables
repeat per lane, the neighbor indices offset into their own lane.

The kernels evaluate the identical contraction as the reference NumPy
stencils (same association order per site), so agreement is at rounding
level, ~1e-15 in double precision.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend, KernelCapabilities
from repro.lattice.geometry import axis_of_mu

try:  # pragma: no cover - exercised only where numba is installed
    from repro.kernels import _numba_kernels as _kernels

    _IMPORT_ERROR: Exception | None = None
except Exception as exc:  # pragma: no cover - the no-numba environment
    _kernels = None
    _IMPORT_ERROR = exc

#: Per-operator cache attribute (lives on the operator so the tables die
#: with it and ``with_boundary`` copies never share stale phases).
_CACHE_ATTR = "_numba_kernel_cache"


def _neighbor_table(geometry, mu: int, steps: int, lanes: int = 1) -> np.ndarray:
    """Flat index of ``site + steps * mu-hat`` for every site, int64 (V,)."""
    idx = np.arange(geometry.volume, dtype=np.int64).reshape(geometry.shape)
    block = np.roll(idx, -steps, axis=axis_of_mu(mu)).ravel()
    offsets = geometry.volume * np.arange(lanes, dtype=np.int64)
    return np.ascontiguousarray((offsets[:, None] + block).ravel())


def _phase_table(geometry, mu: int, steps: int, bc: str, real_dtype,
                 lanes: int = 1):
    """Boundary factor of the ``steps``-hop in direction ``mu`` at every
    destination site: shift a ones-field exactly as the field itself is
    shifted, so wrap faces pick up the same -1/0 factor."""
    ones = np.ones(geometry.shape, dtype=np.float64)
    ph = geometry.shift(ones, mu, steps, boundary=bc)
    return np.ascontiguousarray(np.tile(ph.ravel(), lanes).astype(real_dtype))


def _flat_links(links: np.ndarray, volume: int, dtype) -> tuple:
    """``(4, V, 3, 3)`` links and site-indexed daggered links."""
    lk = np.ascontiguousarray(links.reshape(4, volume, 3, 3).astype(dtype))
    lkdag = np.ascontiguousarray(np.conj(np.swapaxes(lk, -1, -2)))
    return lk, lkdag


def _hop_tables(op, steps: int, real_dtype) -> tuple:
    """Neighbor and phase tables for a +-``steps`` hop family, (4, V)."""
    geom, lanes = op.geometry, op.lanes or 1
    nfwd = np.stack(
        [_neighbor_table(geom, mu, +steps, lanes) for mu in range(4)]
    )
    nbwd = np.stack(
        [_neighbor_table(geom, mu, -steps, lanes) for mu in range(4)]
    )
    phf = np.stack(
        [_phase_table(geom, mu, +steps, op.boundary[mu], real_dtype, lanes)
         for mu in range(4)]
    )
    phb = np.stack(
        [_phase_table(geom, mu, -steps, op.boundary[mu], real_dtype, lanes)
         for mu in range(4)]
    )
    return nfwd, nbwd, phf, phb


class NumbaBackend(KernelBackend):
    """``@njit(parallel=True, cache=True)`` site-loop stencils."""

    name = "numba"
    priority = 10
    capabilities = KernelCapabilities(
        operators=("wilson", "staggered"),
        batched=True,
        split=True,
        dtypes=("complex128", "complex64"),
    )

    @property
    def available(self) -> bool:
        return _kernels is not None

    @property
    def unavailable_reason(self) -> str | None:
        if _kernels is not None:
            return None
        return (
            "numba is not installed — pip install the 'compiled' extra "
            f"({type(_IMPORT_ERROR).__name__}: {_IMPORT_ERROR})"
        )

    # ------------------------------------------------------------------
    def _cache(self, op, dtype, build):
        caches = getattr(op, _CACHE_ATTR, None)
        if caches is None:
            caches = {}
            setattr(op, _CACHE_ATTR, caches)
        key = np.dtype(dtype).name
        if key not in caches:
            caches[key] = build()
        return caches[key]

    def _wilson_cache(self, op, dtype) -> dict:
        def build():
            real = np.zeros(0, dtype=dtype).real.dtype
            u, udag = _flat_links(op._aos_links(), op.sites, dtype)
            nfwd, nbwd, phf, phb = _hop_tables(op, 1, real)
            return {
                "u": u,
                "udag": udag,
                "nfwd": nfwd,
                "nbwd": nbwd,
                "phf": phf,
                "phb": phb,
                "pf": np.ascontiguousarray(
                    np.stack(op._proj_fwd).astype(dtype)
                ),
                "pb": np.ascontiguousarray(
                    np.stack(op._proj_bwd).astype(dtype)
                ),
            }

        return self._cache(op, dtype, build)

    def _staggered_cache(self, op, dtype) -> dict:
        def build():
            real = np.zeros(0, dtype=dtype).real.dtype
            vol = op.sites
            fat, fatdag = _flat_links(op.fat, vol, dtype)
            nfwd, nbwd, phf, phb = _hop_tables(op, 1, real)
            cache = {
                "fat": fat,
                "fatdag": fatdag,
                "nfwd": nfwd,
                "nbwd": nbwd,
                "phf": phf,
                "phb": phb,
                "eta": np.ascontiguousarray(
                    op.eta.reshape(4, vol).astype(real)
                ),
                "long": None,
            }
            if op.long is not None:
                lng, lngdag = _flat_links(op.long, vol, dtype)
                n3f, n3b, p3f, p3b = _hop_tables(op, 3, real)
                cache["long"] = {
                    "lk": lng,
                    "lkdag": lngdag,
                    "nfwd": n3f,
                    "nbwd": n3b,
                    "phf": p3f,
                    "phb": p3b,
                }
            return cache

        return self._cache(op, dtype, build)

    # ------------------------------------------------------------------
    def wilson_dslash(self, op, x: np.ndarray) -> np.ndarray:
        cache = self._wilson_cache(op, x.dtype)
        vol = op.sites
        xr = np.ascontiguousarray(x).reshape(-1, vol, 4, 3)
        out = np.empty_like(xr)
        _kernels.wilson_dslash(
            cache["u"], cache["udag"], xr,
            cache["nfwd"], cache["nbwd"], cache["phf"], cache["phb"],
            cache["pf"], cache["pb"], out,
        )
        return out.reshape(x.shape)

    def staggered_dslash(self, op, x: np.ndarray) -> np.ndarray:
        cache = self._staggered_cache(op, x.dtype)
        vol = op.sites
        xr = np.ascontiguousarray(x).reshape(-1, vol, 3)
        out = np.zeros_like(xr)
        _kernels.staggered_hops(
            cache["fat"], cache["fatdag"], xr,
            cache["nfwd"], cache["nbwd"], cache["phf"], cache["phb"],
            cache["eta"], out,
        )
        lng = cache["long"]
        if lng is not None:
            _kernels.staggered_hops(
                lng["lk"], lng["lkdag"], xr,
                lng["nfwd"], lng["nbwd"], lng["phf"], lng["phb"],
                cache["eta"], out,
            )
        return out.reshape(x.shape)


__all__ = ["NumbaBackend"]
