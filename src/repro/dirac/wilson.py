"""The Wilson-clover Dirac operator, Eq. (2) of the paper:

``M = -1/2 D + (4 + m + A)``

with the nearest-neighbor stencil

``D x(x) = sum_mu [ P^-_mu U_mu(x) x(x+mu) + P^+_mu U_mu(x-mu)^+ x(x-mu) ]``

acting on 4-spin x 3-color fields.  ``M`` is non-Hermitian but
gamma5-Hermitian (``M^+ = g5 M g5``), which supplies the dagger.

Dslash execution is delegated to a pluggable kernel backend
(:mod:`repro.kernels`), selected by the ``kernel=`` parameter:

* ``"numpy"`` — the **spin-projected fast path** (the ``"auto"``
  resolution wherever the compiled tier cannot be built): each ``P^{+-}_mu = 1
  +- gamma_mu`` is rank 2, so the hop is computed as project -> SU(3)
  multiply on a *half-spinor* (2 spin components) -> reconstruct,
  exactly the structure QUDA's kernels exploit (Sec. 4;
  arXiv:1011.0024).  This halves the SU(3) matvec work and the data
  shifted between neighbor sites.  Daggered links are precomputed once
  per configuration, not per application.  The stencil runs *lattice-last*
  — the field is transposed once to ``(spin, color, [batch,] T, Z, Y,
  X)`` so every ufunc streams contiguous sites, QUDA's coalesced field
  order in NumPy terms — and is bit-identical to the lattice-first
  formulation it replaced; a multi-RHS batch rides the same body as
  extra elementwise lanes, each bit-identical to its single-RHS apply.
* ``"numpy_ref"`` — the seed's full 4-spin formulation, kept verbatim as
  the numerical baseline the equivalence tests and the hot-path
  regression benchmark compare against.
* ``"c"`` — the ``"numpy"`` path run from ``kernels/wilson_hop.c``,
  compiled on first use — the stencil core alone for a bare ``D x``, the
  whole matrix (below) for ``M x`` —: the same per-site IEEE sequence, so
  equal bit for bit, and what ``"auto"`` resolves to when the host can
  build it.

``"numpy"`` and ``"c"`` agree bit for bit; ``"numpy_ref"`` agrees with
them to rounding (the same exact contractions in a different association
order).

An operator has ONE representation: lattice-last links and the clover
term as its two Hermitian 6x6 chiral blocks (the paper's "72 reals" a
site) *in the form its kernel tier reads* — the blocks themselves,
lattice-last, on the NumPy tiers; Hermitian-packed in blocks of
consecutive sites on ``"c"`` (``KernelBackend.clover_pack``) — held once;
the blocks of a packing tier and the dense 12x12 field are derived forms,
expanded for whoever asks (``op.clover``).  On the
two fast tiers it has ONE apply as well: both arrays in the operator's own
dtype — complex128, or the storage dtype of a *stored* operator
(``op.stored(precision)``, or a block restriction given the block
``precision``) — and M applied in one lattice-last body
(:meth:`WilsonCloverOperator._apply_sites`) with the rounding to the
storage format, if any, inside: the paper's block solves "exclusively in
half precision" (Sec. 5, 8.1).  The storage decides dtype and rounding,
nothing else.  ``"numpy_ref"`` keeps the seed's site-major ``(4 + m) x -
D x / 2 + A x`` on complex128 arrays and the generic stored form,
rounding around ``_apply``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dirac import base
from repro.dirac.base import (
    BoundarySpec,
    DerivedState,
    LatticeOperator,
    PERIODIC,
    configuration_state,
    lattice_last_links,
    link_apply,
    validated_state,
)
from repro.dirac.clover import (
    ChiralBlocks,
    apply_chiral,
    apply_chiral_sites,
    build_clover_blocks,
    chiral_blocks,
    dense_clover,
)
from repro.kernels import resolve_kernel
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import Geometry, axis_of_mu, shift_sites
from repro.linalg import su3
from repro.linalg.su3 import link_apply_sites
from repro.linalg.gamma import (
    GAMMA5,
    apply_spin_matrix,
    projector,
    projector_tables,
)
from repro.util.counters import (
    record,
    record_operator,
    record_timed,
    timed,
    timing,
)

#: The timed leaves of one ``M x``, (name, kind): the conversion between
#: the caller's field and the body's (layout, width, storage rounding; in
#: and out), the 8 hops, the site-diagonal tail.
_CONVERT, _HOPS, _TAIL = (
    ("wilson_rounding", "convert"),
    ("wilson_dslash", "dslash"),
    ("wilson_site_diagonal", "clover"),
)


def _clover_form(backend):
    """The tier whose form an operator of ``backend`` holds its clover term
    in: its own where it runs the lattice-last body on it.  The reference
    tier's site-major body reads the blocks a chirality at a time, from
    any form: it borrows the one the host's fast tier keeps, so that
    checking a solve against it leaves the configuration with ONE."""
    if backend.capabilities.packed:
        return backend
    return resolve_kernel("auto", operator="wilson")


class WilsonCloverOperator(LatticeOperator):
    """Wilson (csw = 0) or Wilson-clover (csw > 0) matrix.

    Parameters
    ----------
    gauge:
        The gauge configuration.
    mass:
        Bare quark mass parameter m in Eq. (2); smaller (more negative)
        mass means a worse-conditioned matrix.
    csw:
        Clover coefficient; 0 disables the clover term.
    boundary:
        Per-direction fermion boundary conditions; ``"zero"`` entries give
        the Dirichlet-cut operator used as a Schwarz block.
    clover:
        Optional precomputed dense clover field ``sites + (12, 12)`` (a
        slice of a globally built one: the clover term is site-diagonal so
        it is unaffected by cuts).  It is not the gauge's own, so what this
        operator derives is kept to itself instead of with the
        configuration.
    kernel:
        Kernel backend name for the dslash (``"auto"`` resolves through
        :func:`repro.kernels.resolve_kernel`; see :mod:`repro.kernels`).
    """

    nspin = 4

    def __init__(
        self,
        gauge: GaugeField,
        mass: float = 0.0,
        csw: float = 0.0,
        boundary: BoundarySpec = PERIODIC,
        clover: np.ndarray | None = None,
        kernel: str = "auto",
    ):
        # One validation of the configuration's state against its links
        # per operator: inside ``build_clover_blocks`` when there is a
        # clover term.
        backend = resolve_kernel(kernel, operator="wilson")
        if clover is not None:
            blocks = chiral_blocks(clover)
            clover = _clover_form(backend).clover_pack(
                lambda c: blocks[c], blocks.shape[3:], blocks.dtype
            )
            state = DerivedState()
        elif csw != 0.0:
            clover = build_clover_blocks(gauge, csw, _clover_form(backend))
            state = validated_state(gauge)
        else:
            state = configuration_state(gauge)
        self._setup(
            gauge, gauge.geometry, mass, csw, boundary, clover, backend.name,
            state,
        )

    def _setup(
        self, gauge, geometry, mass, csw, boundary, clover, kernel, state,
        links_soa=None, lanes=None, storage=None,
    ):
        """Everything but building the clover term.  ``clover`` is the
        chiral blocks in the operator's dtype and the tier's form (on the
        NumPy tiers ``(2, 6, 6, [L,] T, Z, Y, X)`` itself).  ``state`` is
        where the arrays this operator derives from its links and clover
        term are kept
        (:class:`repro.dirac.base.DerivedState`): the configuration's,
        shared, as long as these are the unrounded ones.  A lane stack
        (:meth:`restrict_to_regions`) or a stored operator of a packing
        tier comes through here without a gauge field of its own: it
        lives on ``links_soa``, the lattice-last link cache (with the lane
        axis in front of the lattice axes)."""
        LatticeOperator.__init__(self, geometry)
        self.gauge = gauge
        self._state = state
        self.lanes = lanes
        self.storage = storage
        self.mass = float(mass)
        self.csw = float(csw)
        self.boundary = boundary
        self._backend = resolve_kernel(kernel, operator="wilson")
        self._form = _clover_form(self._backend)
        self.kernel = self._backend.name
        if csw == 0.0:
            clover = None
        self._chiral: np.ndarray | None = clover
        self.name = "wilson_clover" if clover is not None else "wilson"
        self.flops_per_site = (
            base.WILSON_CLOVER_MATVEC_FLOPS
            if clover is not None
            else base.WILSON_MATVEC_FLOPS
        )
        # Spin projection matrices P^{-}_mu (forward hop) and P^{+}_mu
        # (backward).  In the paper's normalization P^{+-}_mu = 1 +- gamma_mu
        # (twice the idempotent projector), so that on the free field the
        # hopping term exactly cancels the Wilson "4" and a constant mode
        # has eigenvalue m.
        self._proj_fwd = [2.0 * projector(mu, -1) for mu in range(4)]
        self._proj_bwd = [2.0 * projector(mu, +1) for mu in range(4)]
        # The lattice-last link cache, taken from the state on first dslash.
        self._links_soa: np.ndarray | None = links_soa

    @property
    def _packed(self) -> bool:
        """Whether this operator's tier runs the lattice-last body — and
        so carries a storage in its arrays' dtype."""
        return self._backend.capabilities.packed

    def _blocks(self) -> ChiralBlocks:
        """The chiral blocks ``(2, 6, 6, [L,] T, Z, Y, X)`` of the clover
        term, a chirality at a time: the operator's own array where it
        holds the blocks, a derived form — expanded when asked for, for
        the caller to drop — where it holds them packed."""
        lanes = () if self.lanes is None else (self.lanes,)
        return ChiralBlocks(
            self._form, self._chiral, lanes + self.geometry.shape
        )

    @property
    def clover(self) -> np.ndarray | None:
        """The dense clover field ``([L,] T, Z, Y, X, 12, 12)``: a derived
        form, expanded from the chiral blocks for whoever asks (and theirs
        to keep: ask once).  A stored operator of a packing tier has
        rounded blocks and no dense field."""
        if self._chiral is None or (self.storage is not None and self._packed):
            return None
        return dense_clover(self._blocks())

    @property
    def diagonal_coefficient(self) -> float:
        """The scalar 4 + m multiplying the identity in Eq. (2)."""
        return 4.0 + self.mass

    # ------------------------------------------------------------------
    def _soa_links(self) -> np.ndarray:
        """Links and daggered links in lattice-last order, computed once
        per gauge (:func:`repro.dirac.base.lattice_last_links`)."""
        if self._links_soa is None:
            self._links_soa = self._state.get(
                ("links", None), lambda: lattice_last_links(self.gauge.data)
            )
        return self._links_soa

    def _aos_links(self) -> np.ndarray:
        """Links in ``GaugeField.data`` order ``(mu, [L,] T, Z, Y, X, a,
        b)``, for the reference tier, which consumes them site by site; a
        lane stack serves a view of its lattice-last cache."""
        if self.gauge is not None:
            return self.gauge.data
        return np.moveaxis(self._links_soa[0], (1, 2), (-1, -2))

    # ------------------------------------------------------------------
    def dslash(self, x: np.ndarray) -> np.ndarray:
        """The hopping term D of Eq. (2) (records its own tally entry)."""
        batch = self.batch_size(x)
        record_operator("wilson_dslash")
        record(
            flops=base.WILSON_DSLASH_FLOPS * self.sites * batch,
            bytes_moved=self.bytes_per_application(x.dtype, batch=batch),
        )
        return self._dslash(x)

    def _dslash(self, x: np.ndarray) -> np.ndarray:
        with timed("wilson_dslash", kind="dslash"):
            return self._backend.wilson_dslash(self, x)

    def _dslash_projected(self, x: np.ndarray) -> np.ndarray:
        """Spin-projected dslash: 8 half-spinor hops.

        Per direction and orientation: project to a half-spinor, shift it
        (half the data of a full-spinor shift — the same factor-of-two the
        multi-GPU code saves in halo traffic), apply the link to 2 spin
        components, and accumulate upper/lower spin blocks separately so
        the reconstruction is two scaled adds instead of a 4x2 matmul.

        The kernel runs *lattice-last*: the field is transposed once to
        ``(spin, color, [batch,] T, Z, Y, X)`` so each of those steps is a
        whole-lattice ufunc call over contiguous sites — the NumPy
        analogue of QUDA's coalesced field order (Sec. 4-5) — and
        transposed back at the end.  Transposes and slice-writes only move
        data, so the per-site IEEE operation sequence (and hence every bit
        of the result) is that of the lattice-first formulation kept in
        ``tests/dirac/_aos_oracle.py``.
        """
        # The one layout change in: (..., spin, color) -> (spin, color, ...),
        # so every ufunc of the stencil streams contiguous sites.
        xs = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
        acc = self._hop_sites(xs, bool(self.field_lead(x)))
        return np.ascontiguousarray(np.moveaxis(acc, (0, 1), (-2, -1)))

    def _hop_sites(self, xs: np.ndarray, batched: bool) -> np.ndarray:
        """The 8-hop stencil core on a lattice-last field ``(spin, color,
        [batch,] [lanes,] T, Z, Y, X)``.

        A multi-RHS batch rides the body as one more elementwise axis
        between color and lattice (the links broadcast over it), so
        every lane of a batched result is bit-identical to the single-RHS
        apply of that lane, whatever the batch size or its other lanes.
        The block lanes of a lane stack ride it the same way, as a leading
        lattice axis no shift runs along (the shift axes are counted from
        the end).

        The +-1 / +-i projector phases are taken in the field's dtype: the
        products are exact either way, and a complex64 field is spared
        NumPy's buffered complex128 cast loop on 16 passes per apply.

        A tier with a compiled core for these arrays runs that instead:
        same bits, so what follows is its reference and its fallback.
        """
        links = self._soa_links()
        acc = self._backend.wilson_hop_sites(links, xs, batched, self.boundary)
        if acc is not None:
            return acc
        u, udag = links
        # A batch axis sits between color and lattice; links broadcast over it.
        bx = (slice(None), slice(None), None) if batched else ()
        over_sites = (Ellipsis,) + (None,) * (xs.ndim - 2)
        xu = xs[:2]
        # Four half-spinor buffers reused across the 8 hops (instead of ~7
        # fresh temporaries per hop).
        h, sh, uh, tmp = (np.empty_like(xu) for _ in range(4))
        acc = np.zeros_like(xs)
        upper, lower = acc[:2], acc[2:]
        for mu in range(4):
            bc = self.boundary[mu]
            axis = axis_of_mu(mu) - 4
            for tab, links, fwd in (
                (projector_tables(mu, -1, xs.dtype), u[mu][bx], True),
                (projector_tables(mu, +1, xs.dtype), udag[mu][bx], False),
            ):
                # Project: h = x_upper + coeff * x_lower.
                np.multiply(tab.project_coeff[over_sites], xs[tab.lower], out=tmp)
                np.add(xu, tmp, out=h)
                if fwd:
                    # U_mu(x) [P x](x+mu): shift first, then multiply.
                    hop = link_apply_sites(
                        links, shift_sites(sh, h, axis, +1, bc), uh, tmp
                    )
                else:
                    # U_mu(x-mu)^+ [P x](x-mu): multiply, then shift.
                    hop = shift_sites(
                        sh, link_apply_sites(links, h, uh, tmp), axis, -1, bc
                    )
                upper += hop
                np.multiply(tab.recon_coeff[over_sites], hop[tab.source], out=tmp)
                lower += tmp
        return acc

    def _apply_sites(self, x: np.ndarray, rounding) -> np.ndarray:
        """M x in ONE lattice-last body: transpose in -> round to the
        storage format -> the 8 hops -> ``(4 + m) x - 1/2 D x`` and the
        chiral clover blocks as whole-lattice multiply-adds -> round ->
        transpose out.

        Everything between the transposes runs in the operator's dtype on
        contiguous sites (``rounding`` is the storage precision, or
        ``None`` for the unrounded matrix).  A field narrower than the
        operator (a complex64 iterate on the complex128 matrix) is
        widened on the way in and rounded once, on the way out.  Three
        timed leaves partition the call: the conversions in and out
        (``wilson_rounding``), the stencil (``wilson_dslash``: the hops
        alone) and the diagonal + clover pass (``wilson_site_diagonal``).

        A tier with a compiled body for these arrays runs that instead,
        clocking the leaves itself: same bits, so what follows is its
        reference and its fallback.
        """
        batched = bool(self.field_lead(x))
        links = self._soa_links()
        seconds = np.zeros(3) if timing() else None
        start = time.perf_counter()
        out = self._backend.wilson_apply_sites(
            links, self._chiral, self.diagonal_coefficient, x, batched,
            self.boundary, rounding, seconds,
        )
        if out is not None:
            if seconds is not None:
                for leaf, elapsed in zip((_CONVERT, _HOPS, _TAIL), seconds):
                    record_timed(*leaf, start, elapsed)
                    start += elapsed
            return out
        dtype = links.dtype
        with timed(*_CONVERT):
            xs = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
            if rounding is not None:
                xs = rounding.convert(xs, leading=True)
            xs = xs.astype(dtype, copy=False)
        with timed(*_HOPS):
            out = self._hop_sites(xs, batched)
        with timed(*_TAIL):
            out *= -0.5
            out += self.diagonal_coefficient * xs
            if self._chiral is not None:
                blocks = ChiralBlocks(self._form, self._chiral, links.shape[4:])
                apply_chiral_sites(blocks, xs, out, batched)
        with timed(*_CONVERT):
            if rounding is not None:
                out = rounding.convert(out, leading=True)
            narrower = min(x.dtype, dtype, key=lambda d: d.itemsize)
            out = out.astype(narrower, copy=False)
            return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))

    def _dslash_reference(self, x: np.ndarray) -> np.ndarray:
        """The seed's full 4-spin dslash, kept as the numerical baseline."""
        geom = self.geometry
        batched = bool(self.field_lead(x))
        lead = self.site_lead(x)
        out = np.zeros_like(x)
        for mu in range(4):
            bc = self.boundary[mu]
            u = self._aos_links()[mu]
            fwd = link_apply(
                u, geom.shift(x, mu, +1, boundary=bc, lead=lead), batched=batched
            )
            out += np.einsum("st,...tc->...sc", self._proj_fwd[mu], fwd)
            bwd = geom.shift(
                link_apply(su3.dagger(u), x, batched=batched),
                mu, -1, boundary=bc, lead=lead,
            )
            out += np.einsum("st,...tc->...sc", self._proj_bwd[mu], bwd)
        return out

    def _apply_reference(self, x: np.ndarray) -> np.ndarray:
        """The seed's site-major matrix (``numpy_ref``): three passes and
        the clover term as per-site matrix-vector products."""
        out = self.diagonal_coefficient * x - 0.5 * self._dslash(x)
        if self._chiral is not None:
            out += apply_chiral(self._blocks(), x)
        return out

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._packed:
            return self._apply_sites(x, None)
        return self._apply_reference(x)

    def _apply_stored(self, x: np.ndarray) -> np.ndarray:
        if self._packed:
            return self._apply_sites(x, self.storage)
        return super()._apply_stored(x)

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        # gamma5-Hermiticity: M^+ = g5 M g5 (holds for real +-1/0 boundary
        # factors, i.e. all supported BoundarySpec entries).  gamma5 is a
        # +-1 diagonal, exact in any precision: cast it to the field's
        # dtype so a complex64 dagger is not silently computed in double.
        g5 = GAMMA5.astype(x.dtype)
        return apply_spin_matrix(g5, self._apply(apply_spin_matrix(g5, x)))

    def apply_site_diagonal(self, x: np.ndarray) -> np.ndarray:
        """The site-diagonal part (4 + m + A) x (used by even-odd forms and
        the interior/exterior kernel split)."""
        out = self.diagonal_coefficient * x
        if self._chiral is not None:
            out += apply_chiral(self._blocks(), x)  # in place: keeps x's dtype
        return out

    def apply_hopping(self, x: np.ndarray) -> np.ndarray:
        """The hopping part, ``-1/2 D x``."""
        return -0.5 * self._dslash(x)

    # ------------------------------------------------------------------
    def with_boundary(self, boundary: BoundarySpec) -> "WilsonCloverOperator":
        # Links, clover and state are boundary-independent: shared.  Set
        # up afresh, not copied: ``stored()`` memoises on the instance.
        out = object.__new__(type(self))
        out._setup(
            self.gauge, self.geometry, self.mass, self.csw, boundary,
            self._chiral, self.kernel, self._state, self._links_soa,
            self.lanes, self.storage,
        )
        return out

    def _on_links(
        self, geometry, boundary, links_soa, clover, storage, state=None
    ):
        """An operator with this one's parameters living on ``links_soa``
        ``(2, mu, b, a, [L,] T, Z, Y, X)`` and, for the clover term, the
        chiral blocks on the same lattice in the tier's form.  Without a
        ``state`` to share, what it derives in turn is its own."""
        out = object.__new__(type(self))
        out._setup(
            None, geometry, self.mass, self.csw, boundary, clover,
            self.kernel, state or DerivedState(), links_soa,
            lanes=links_soa.shape[4] if links_soa.ndim == 9 else None,
            storage=storage,
        )
        return out

    def _in_storage(self, precision):
        """On a packing tier the links and the clover term cast to the
        storage dtype (the operator's own arrays when that is its dtype
        already), the generic form elsewhere.  The casts are rounded, so
        the stored operator gets a state of its own: a cast of a cast
        never lands among the configuration's."""
        if not self._packed:
            return super()._in_storage(precision)
        dtype = precision.dtype
        clover = None
        if self._chiral is not None:
            clover = self._state.child("csw", self.csw).get(
                (self._form.clover_form, dtype),
                lambda: self._form.clover_cast(self._chiral, dtype),
            )
        links = self._state.get(
            ("links", dtype), lambda: self._soa_links().astype(dtype, copy=False)
        )
        return self._on_links(
            self.geometry, self.boundary, links, clover, precision
        )

    def restrict_to_regions(self, origins, extents, cut_dims, precision=None):
        """One lane stack of Dirichlet-cut region operators, gathered
        straight from the lattice-last link cache and the clover term
        (which, being site-diagonal, is unaffected by the cuts).  This
        family builds the stack *in* its storage (hence the public
        override): on a packing tier the regions are cast to the storage
        dtype as they are gathered, so no working-precision copy of a
        stored stack ever exists."""
        storage = self.storage if precision is None else precision
        rounded = storage is not None and self._packed
        dtype = storage.dtype if rounded else None
        # The stack's arrays depend on the regions and the dtype alone
        # (not on the cuts, the mass or the rounding): gathered once per
        # configuration, in the regions' own state under this one's — the
        # state of an unrounded stack in turn.
        origins = tuple(tuple(origin) for origin in origins)
        regions = self._state.child("regions", (origins, tuple(extents)))

        clover = None
        if self._chiral is not None:
            clover = regions.child("csw", self.csw).get(
                (self._form.clover_form, dtype),
                lambda: self._form.clover_regions(
                    self._chiral, self, origins, extents, dtype
                ),
            )
        return self._on_links(
            Geometry(extents),
            self.boundary.with_dirichlet(cut_dims),
            regions.get(
                ("links", dtype),
                lambda: self._region_stack(
                    self._soa_links(), origins, extents, 4, dtype
                ),
            ),
            clover,
            storage,
            None if rounded else regions,
        )

    def take_lanes(self, lanes) -> "WilsonCloverOperator":
        clover = self._chiral
        if clover is not None:
            clover = self._form.clover_lanes(clover, lanes)
        return self._on_links(
            self.geometry, self.boundary, self._links_soa[:, :, :, :, lanes],
            clover, self.storage,
        )

    def restrict_to_block(self, partition, rank: int) -> "WilsonCloverOperator":
        """The Dirichlet-cut operator on one rank's sub-domain — the block
        system of the additive Schwarz preconditioner (Sec. 8.1).

        The local gauge links (and the site-diagonal clover term, which is
        unaffected by the cut) are sliced from the global fields; the
        partitioned directions get zero boundaries, the rest keep the
        global condition.  Link caches are rebuilt for the sliced gauge.
        """
        local_gauge = GaugeField(
            partition.local_geometry,
            np.ascontiguousarray(self.gauge.data[partition.slices(rank, lead=1)]),
        )
        clover = self._chiral
        if clover is not None:
            clover = self._form.clover_lanes(
                self._form.clover_regions(
                    clover, self, [partition.origin(rank)],
                    partition.local_dims, None,
                ),
                0,
            )
        out = object.__new__(type(self))
        out._setup(
            local_gauge, partition.local_geometry, self.mass, self.csw,
            self.boundary.with_dirichlet(partition.grid.partitioned_dims),
            clover, self.kernel, DerivedState(),
        )
        return out
