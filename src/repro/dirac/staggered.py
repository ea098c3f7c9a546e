"""Staggered Dirac operators: naive (1-hop) and improved (asqtad), Eq. (3).

``M = -1/2 D_IS + m`` acting on 1-spin x 3-color fields, with

``D_IS x(x) = sum_mu eta_mu(x) [ F_mu(x) x(x+mu) - F_mu(x-mu)^+ x(x-mu)
                               + L_mu(x) x(x+3mu) - L_mu(x-3mu)^+ x(x-3mu) ]``

where F are the fat links and L the long (Naik) links with their asqtad
coefficients folded in (:mod:`repro.gauge.asqtad`), and eta are the
Kogut-Susskind phases that carry the spin structure.  D_IS is
anti-Hermitian and connects only opposite parities, so ``M^+ M =
m^2 - D^2/4`` decouples even from odd sites — the property the multi-shift
CG solver relies on (Sec. 3.1).

The ``"numpy"`` kernel tier evaluates the stencil *lattice-last* (color in
front of the site axes, links cached as ``(2, mu, b, a) + lattice``), so
each whole-lattice ufunc streams contiguous sites; see
:func:`repro.linalg.su3.link_apply_sites`.
"""

from __future__ import annotations

import numpy as np

from repro.dirac import base
from repro.dirac.base import (
    BoundarySpec,
    LatticeOperator,
    PERIODIC,
    lattice_last_links,
)
from repro.gauge.asqtad import AsqtadLinks, build_asqtad_links
from repro.kernels import resolve_kernel
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import Geometry, axis_of_mu, shift_sites
from repro.linalg.su3 import link_apply_sites
from repro.util.counters import record, record_operator, timed


def staggered_phases(
    geometry: Geometry, origin: tuple[int, int, int, int] = (0, 0, 0, 0)
) -> np.ndarray:
    """Kogut-Susskind phases ``eta_mu(x)``, shape ``(4,) + geometry.shape``.

    eta_x = 1, eta_y = (-1)^x, eta_z = (-1)^(x+y), eta_t = (-1)^(x+y+z).

    ``origin`` is the *global* coordinate of this geometry's site (0,0,0,0);
    a padded or offset sub-domain (the multi-GPU ghost-zone layout) must
    pass its origin so the local phases agree with the global ones.
    """
    x = geometry.coordinate(0) + origin[0]
    y = geometry.coordinate(1) + origin[1]
    z = geometry.coordinate(2) + origin[2]
    eta = np.empty((4,) + geometry.shape, dtype=np.float64)
    eta[0] = 1.0
    eta[1] = (-1.0) ** x
    eta[2] = (-1.0) ** (x + y)
    eta[3] = (-1.0) ** (x + y + z)
    return eta


class _StaggeredBase(LatticeOperator):
    """Shared machinery for 1-hop (+optional 3-hop) staggered stencils."""

    nspin = 1

    def __init__(
        self,
        geometry: Geometry,
        fat: np.ndarray,
        long_links: np.ndarray | None,
        mass: float,
        boundary: BoundarySpec,
        origin: tuple[int, int, int, int] = (0, 0, 0, 0),
        kernel: str = "auto",
    ):
        super().__init__(geometry)
        self.fat = fat
        self.long = long_links
        self.mass = float(mass)
        self.boundary = boundary
        self._backend = resolve_kernel(kernel, operator="staggered")
        self.kernel = self._backend.name
        if fat.ndim == 7:
            self.origin = tuple(origin)
            self.eta = staggered_phases(geometry, origin=self.origin)
        else:
            # A lane stack: links ``(4, L, T, Z, Y, X, 3, 3)`` and one
            # global origin — hence one set of phases — per lane.
            self.lanes = fat.shape[1]
            self.origin = tuple(tuple(o) for o in origin)
            self.eta = np.stack(
                [staggered_phases(geometry, origin=o) for o in self.origin],
                axis=1,
            )
        # Lattice-last link caches (lazy): the daggered links are
        # precomputed once per operator instead of per dslash call.
        self._fat_soa: np.ndarray | None = None
        self._long_soa: np.ndarray | None = None

    def _soa_links(self) -> tuple[np.ndarray, np.ndarray | None]:
        if self._fat_soa is None:
            self._fat_soa = lattice_last_links(self.fat)
            if self.long is not None:
                self._long_soa = lattice_last_links(self.long)
        return self._fat_soa, self._long_soa

    @property
    def ghost_depth(self) -> int:
        """Stencil reach: 3 for asqtad (the paper's locality problem), else 1."""
        return 3 if self.long is not None else 1

    def dslash(self, x: np.ndarray) -> np.ndarray:
        """The derivative term D_IS (records its own tally entry)."""
        batch = self.batch_size(x)
        record_operator(f"{self.name}_dslash")
        record(
            flops=self.dslash_flops_per_site * self.sites * batch,
            bytes_moved=self.bytes_per_application(x.dtype, batch=batch),
        )
        return self._dslash(x)

    def _dslash(self, x: np.ndarray) -> np.ndarray:
        with timed(f"{self.name}_dslash", kind="dslash"):
            return self._backend.staggered_dslash(self, x)

    def _dslash_numpy(self, x: np.ndarray) -> np.ndarray:
        """The vectorized NumPy stencil (the ``"numpy"`` backend body).

        Runs lattice-last like the Wilson kernel: the field becomes a
        one-spin ``(1, color, [batch,] [lanes,] T, Z, Y, X)`` array so every
        ufunc streams contiguous sites (the lane axis of a lane stack is a
        leading lattice axis no shift runs along).  The products carry
        ``np.result_type`` of field and links — a complex64 field against
        complex128 links is multiplied and accumulated per direction in
        complex128, exactly as un-``out=``-ed lattice-first temporaries
        promote — so the result is bit-identical to
        ``tests/dirac/_aos_oracle.py``.
        """
        lead = self.field_lead(x)
        fat, long_links = self._soa_links()
        xs = np.ascontiguousarray(np.moveaxis(x, -1, 0))[None]
        # A batch axis sits between color and lattice; links broadcast over it.
        bx = (slice(None), slice(None), None) if lead else ()
        sh = np.empty_like(xs)
        wide = np.result_type(x.dtype, fat.dtype)
        hop, uh, tmp, back = (np.empty(xs.shape, wide) for _ in range(4))
        out = np.zeros_like(xs)
        for mu in range(4):
            bc = self.boundary[mu]
            axis = axis_of_mu(mu) - 4
            link_apply_sites(
                fat[0, mu][bx], shift_sites(sh, xs, axis, +1, bc), hop, tmp
            )
            hop -= shift_sites(
                back, link_apply_sites(fat[1, mu][bx], xs, uh, tmp), axis, -1, bc
            )
            if long_links is not None:
                hop += link_apply_sites(
                    long_links[0, mu][bx], shift_sites(sh, xs, axis, +3, bc), uh, tmp
                )
                hop -= shift_sites(
                    back, link_apply_sites(long_links[1, mu][bx], xs, uh, tmp),
                    axis, -3, bc,
                )
            out += np.multiply(self.eta[mu], hop, out=hop)
        return np.ascontiguousarray(np.moveaxis(out[0], 0, -1))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.mass * x - 0.5 * self._dslash(x)

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        # D_IS is anti-Hermitian, so M^+ = m + D/2.
        return self.mass * x + 0.5 * self._dslash(x)

    def apply_site_diagonal(self, x: np.ndarray) -> np.ndarray:
        """The mass term m x."""
        return self.mass * x

    def apply_hopping(self, x: np.ndarray) -> np.ndarray:
        """The hopping part, ``-1/2 D_IS x``."""
        return -0.5 * self._dslash(x)

    @property
    def dslash_flops_per_site(self) -> int:
        return (
            base.ASQTAD_DSLASH_FLOPS
            if self.long is not None
            else base.STAGGERED_DSLASH_FLOPS
        )

    def _restricted(self, geometry, fat, long_links, boundary, origin):
        """An operator of this type and mass on other (sliced) links."""
        out = _StaggeredBase.__new__(type(self))
        _StaggeredBase.__init__(
            out, geometry, fat, long_links, self.mass, boundary,
            origin=origin, kernel=self.kernel,
        )
        return out

    def restrict_to_block(self, partition, rank: int):
        """Dirichlet-cut block operator for the Schwarz preconditioner.

        The fat/long links are sliced from the global fields; the block's
        global origin keeps the Kogut-Susskind phases consistent.
        """
        sl = partition.slices(rank, lead=1)
        return self._restricted(
            partition.local_geometry,
            np.ascontiguousarray(self.fat[sl]),
            np.ascontiguousarray(self.long[sl]) if self.long is not None else None,
            self.boundary.with_dirichlet(partition.grid.partitioned_dims),
            partition.origin(rank),
        )

    def _cut_to_regions(self, origins, extents, cut_dims):
        """One lane stack of Dirichlet-cut region operators; every lane
        keeps its own global origin for the Kogut-Susskind phases."""
        return self._restricted(
            Geometry(extents),
            self._region_stack(self.fat, origins, extents, lead=1),
            None if self.long is None
            else self._region_stack(self.long, origins, extents, lead=1),
            self.boundary.with_dirichlet(cut_dims),
            [tuple(a + b for a, b in zip(self.origin, origin))
             for origin in origins],
        )

    def _pick_lanes(self, lanes):
        return self._restricted(
            self.geometry,
            self.fat[:, lanes],
            None if self.long is None else self.long[:, lanes],
            self.boundary,
            [self.origin[lane] for lane in lanes],
        )


class NaiveStaggeredOperator(_StaggeredBase):
    """Unimproved staggered operator (thin links, 1-hop stencil) — the
    baseline against which asqtad's 3-hop locality cost is measured."""

    name = "staggered"
    flops_per_site = base.STAGGERED_DSLASH_FLOPS + 12

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        boundary: BoundarySpec = PERIODIC,
        origin: tuple[int, int, int, int] = (0, 0, 0, 0),
        kernel: str = "auto",
    ):
        self.gauge = gauge
        super().__init__(
            gauge.geometry, gauge.data, None, mass, boundary, origin=origin,
            kernel=kernel,
        )

    def with_boundary(self, boundary: BoundarySpec) -> "NaiveStaggeredOperator":
        return NaiveStaggeredOperator(
            self.gauge, self.mass, boundary, self.origin, kernel=self.kernel
        )


class AsqtadOperator(_StaggeredBase):
    """Improved staggered (asqtad) operator of Eq. (3)."""

    name = "asqtad"
    flops_per_site = base.ASQTAD_MATVEC_FLOPS

    def __init__(
        self,
        links: AsqtadLinks,
        mass: float,
        boundary: BoundarySpec = PERIODIC,
        origin: tuple[int, int, int, int] = (0, 0, 0, 0),
        kernel: str = "auto",
    ):
        self.links = links
        super().__init__(
            links.geometry, links.fat, links.long, mass, boundary, origin=origin,
            kernel=kernel,
        )

    @classmethod
    def from_gauge(
        cls,
        gauge: GaugeField,
        mass: float,
        u0: float = 1.0,
        boundary: BoundarySpec = PERIODIC,
        kernel: str = "auto",
    ) -> "AsqtadOperator":
        """Build fat/long links from a thin-link configuration, then the
        operator (the "precalculated before the application" step)."""
        return cls(build_asqtad_links(gauge, u0=u0), mass, boundary, kernel=kernel)

    def with_boundary(self, boundary: BoundarySpec) -> "AsqtadOperator":
        return AsqtadOperator(
            self.links, self.mass, boundary, self.origin, kernel=self.kernel
        )


class StaggeredNormalOperator(LatticeOperator):
    """``M^+ M + sigma = (m^2 + sigma) - D^2/4`` for staggered M.

    This is the Hermitian positive-definite operator the (multi-shift) CG
    solver inverts, Eq. (4).  It preserves site parity: a right-hand side
    supported on even sites yields an even-supported solution, which is how
    "the even and odd lattices ... can be solved independently".
    """

    nspin = 1

    def __init__(self, base_op: _StaggeredBase, sigma: float = 0.0):
        super().__init__(base_op.geometry)
        self.base = base_op
        self.lanes = base_op.lanes
        self.sigma = float(sigma)
        self.name = f"{base_op.name}_normal"
        if self.sigma:
            self.name += f"+{self.sigma:g}"
        self.flops_per_site = 2 * base_op.dslash_flops_per_site + 24

    def _apply(self, x: np.ndarray) -> np.ndarray:
        d2 = self.base._dslash(self.base._dslash(x))
        return (self.base.mass**2 + self.sigma) * x - 0.25 * d2

    _apply_dagger = _apply  # Hermitian

    def shifted(self, sigma: float) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(self.base, self.sigma + sigma)

    def with_boundary(self, boundary: BoundarySpec) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(
            self.base.with_boundary(boundary), self.sigma
        )

    def restrict_to_block(self, partition, rank: int) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(
            self.base.restrict_to_block(partition, rank), self.sigma
        )

    def _cut_to_regions(self, origins, extents, cut_dims):
        return StaggeredNormalOperator(
            self.base.restrict_to_regions(origins, extents, cut_dims), self.sigma
        )

    def _pick_lanes(self, lanes) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(self.base.take_lanes(lanes), self.sigma)
