"""The Wilson-clover Dirac operator, Eq. (2) of the paper:

``M = -1/2 D + (4 + m + A)``

with the nearest-neighbor stencil

``D x(x) = sum_mu [ P^-_mu U_mu(x) x(x+mu) + P^+_mu U_mu(x-mu)^+ x(x-mu) ]``

acting on 4-spin x 3-color fields.  ``M`` is non-Hermitian but
gamma5-Hermitian (``M^+ = g5 M g5``), which supplies the dagger.

Dslash execution is delegated to a pluggable kernel backend
(:mod:`repro.kernels`), selected by the ``kernel=`` parameter:

* ``"numpy"`` — the **spin-projected fast path** (the default ``"auto"``
  resolution when no compiled tier is installed): each ``P^{+-}_mu = 1
  +- gamma_mu`` is rank 2, so the hop is computed as project -> SU(3)
  multiply on a *half-spinor* (2 spin components) -> reconstruct,
  exactly the structure QUDA's kernels exploit (Sec. 4;
  arXiv:1011.0024).  This halves the SU(3) matvec work and the data
  shifted between neighbor sites.  Daggered links are precomputed once
  per operator, not per application.  A single right-hand side runs
  *lattice-last* — the field is transposed once to ``(spin, color, T, Z,
  Y, X)`` so every ufunc streams contiguous sites, QUDA's coalesced
  field order in NumPy terms — and is bit-identical to the lattice-first
  formulation it replaced; a batch of them runs as one stacked GEMM.
* ``"numpy_ref"`` — the seed's full 4-spin formulation, kept verbatim as
  the numerical baseline the equivalence tests and the hot-path
  regression benchmark compare against.
* ``"numba"`` — opt-in compiled site loops, when numba is installed.

All tiers agree to rounding (they evaluate the same exact contraction
in a different association order).
"""

from __future__ import annotations

import numpy as np

from repro.dirac import base
from repro.dirac.base import (
    BoundarySpec,
    LatticeOperator,
    PERIODIC,
    lattice_last_links,
    link_apply,
    link_apply_sites,
    shift_sites,
)
from repro.dirac.clover import apply_clover, build_clover_field
from repro.kernels import resolve_kernel
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import axis_of_mu
from repro.linalg import su3
from repro.linalg.gamma import (
    GAMMA5,
    apply_spin_matrix,
    projector,
    projector_tables,
)
from repro.util.counters import record, record_operator, timed

#: Permutation between the spin-major per-site flat index ``s*3 + c`` the
#: clover field is stored in and the color-major index ``c*4 + s`` of the
#: batched GEMM layout.
_COLOR_MAJOR_PERM = np.array([s * 3 + c for c in range(3) for s in range(4)])

#: Index broadcasting a ``(2, 1)`` spin-coefficient table over the four
#: lattice axes of a lattice-last ``(spin, color, T, Z, Y, X)`` field.
_OVER_SITES = (Ellipsis, None, None, None, None)


def _to_batch_last(x: np.ndarray) -> np.ndarray:
    """Batch-first ``(B, X, Y, Z, T, 4, 3)`` -> contiguous color-major
    batch-last ``(X, Y, Z, T, 3, 4, B)``.

    The batched dslash runs in this internal layout so the per-site SU(3)
    multiply becomes one GEMM per direction — ``U(x) @ H(x)`` with the
    (spin, batch) pairs as the ``2B`` columns of ``H`` — instead of 2B
    strided broadcast passes.  The GEMM reuses each link for all columns
    while it is in registers, which is exactly the arithmetic-intensity
    gain multi-RHS batching buys on a GPU (Sec. 7 of the paper); here it
    buys BLAS-3 efficiency instead of broadcast-chain memory traffic.
    """
    return np.ascontiguousarray(x.transpose(1, 2, 3, 4, 6, 5, 0))


def _from_batch_last(xt: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_batch_last`."""
    return np.ascontiguousarray(xt.transpose(6, 0, 1, 2, 3, 5, 4))


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
        Optional precomputed clover field (reused by ``with_boundary``;
        the clover term is site-diagonal so it is unaffected by cuts).
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
        _link_cache: np.ndarray | None = None,
    ):
        super().__init__(gauge.geometry)
        self.gauge = gauge
        self.mass = float(mass)
        self.csw = float(csw)
        self.boundary = boundary
        self._backend = resolve_kernel(kernel, operator="wilson")
        self.kernel = self._backend.name
        if csw != 0.0 and clover is None:
            clover = build_clover_field(gauge, csw)
        self.clover = clover if csw != 0.0 else None
        self.name = "wilson_clover" if self.clover is not None else "wilson"
        self.flops_per_site = (
            base.WILSON_CLOVER_MATVEC_FLOPS
            if self.clover is not None
            else base.WILSON_MATVEC_FLOPS
        )
        # Spin projection matrices P^{-}_mu (forward hop) and P^{+}_mu
        # (backward).  In the paper's normalization P^{+-}_mu = 1 +- gamma_mu
        # (twice the idempotent projector), so that on the free field the
        # hopping term exactly cancels the Wilson "4" and a constant mode
        # has eigenvalue m.
        self._proj_fwd = [2.0 * projector(mu, -1) for mu in range(4)]
        self._proj_bwd = [2.0 * projector(mu, +1) for mu in range(4)]
        # Rank-2 (project/reconstruct) tables for the fast path.
        self._tab_fwd = [projector_tables(mu, -1) for mu in range(4)]
        self._tab_bwd = [projector_tables(mu, +1) for mu in range(4)]
        # Batched-path hop plan: the 8 (direction, orientation) hops in
        # (forward, backward) pairs, ordered so hops whose reconstruction
        # reads the half-spinor in order come first and hops that read it
        # reversed come last.  The grouping lets the batched kernel build
        # each group's lower spin block as ONE weighted sum over
        # contiguous slabs of the stacked hop buffer.
        ident, swapped = [], []
        for mu in range(4):
            pair = [(mu, self._tab_fwd[mu], -1), (mu, self._tab_bwd[mu], +1)]
            group = ident if self._tab_fwd[mu].source == slice(0, 2) else swapped
            group.extend(pair)
        self._hop_plan = ident + swapped
        self._n_ident = len(ident)
        # Reconstruction weights per hop, swapped-group rows pre-reversed
        # so both groups reduce to plain weighted slab sums.
        self._recon_weights = np.array(
            [
                tab.recon_coeff[::-1, 0] if i >= self._n_ident
                else tab.recon_coeff[:, 0]
                for i, (_, tab, _) in enumerate(self._hop_plan)
            ]
        )
        # Operator-level lattice-last link cache, built lazily on first
        # dslash (it is boundary-independent, so ``with_boundary`` shares
        # it).
        self._links_soa: np.ndarray | None = _link_cache
        # Batched-path caches: the stacked hop links for the GEMM dslash,
        # the site-diagonal matrices in the color-major site index, and
        # reusable field-sized scratch buffers keyed by (batch, dtype).
        self._link_stack: np.ndarray | None = None
        self._clover_cm: np.ndarray | None = None
        self._scratch: dict = {}

    @property
    def diagonal_coefficient(self) -> float:
        """The scalar 4 + m multiplying the identity in Eq. (2)."""
        return 4.0 + self.mass

    # ------------------------------------------------------------------
    def _soa_links(self) -> np.ndarray:
        """Links and daggered links in lattice-last order, computed once
        per gauge (:func:`repro.dirac.base.lattice_last_links`)."""
        if self._links_soa is None:
            self._links_soa = lattice_last_links(self.gauge.data)
        return self._links_soa

    def _batched_link_stack(self) -> np.ndarray:
        """The ``(8,) + lattice + (3, 3)`` link stack driving the batched
        stencil as ONE stacked GEMM over all 8 hops.

        The batched kernel writes each hop's projected half-spinor
        *already shifted to the neighbor site* (a two-slice write costs
        the same as an aligned one), so forward slabs hold the plain
        ``U_mu(x)`` and backward slabs the pre-shifted dagger
        ``U_mu(x - mu)^+`` — after the GEMM every product is
        site-aligned and the accumulation needs no rolls at all.  The
        hop scale ``-1/2`` and the fermion boundary factor of the
        wrapping face (``-1`` antiperiodic, ``0`` Dirichlet) are folded
        into the link entries themselves.
        """
        if self._link_stack is None:
            slabs = []
            for mu, _, step in self._hop_plan:
                ax = axis_of_mu(mu)
                if step == -1:  # forward hop
                    mat = self.gauge.data[mu].copy()
                    # The shifted projection wraps h(0) around to the
                    # x_mu = N - 1 sites.
                    wrap_face = -1
                else:  # backward hop
                    mat = np.roll(
                        np.conj(np.swapaxes(self.gauge.data[mu], -1, -2)),
                        1,
                        axis=ax,
                    )
                    wrap_face = 0  # backward wrap lands on x_mu = 0
                bc = self.boundary[mu]
                if bc != "periodic":
                    face = [slice(None)] * mat.ndim
                    face[ax] = wrap_face
                    mat[tuple(face)] *= 0.0 if bc == "zero" else -1.0
                slabs.append(mat)
            self._link_stack = -0.5 * np.stack(slabs)
        return self._link_stack

    def _site_matrices_cm(self) -> np.ndarray:
        """Per-site ``(4 + m) I + A`` matrices re-indexed to the
        color-major layout of the batched path, so the whole site-diagonal
        term is one ``12 x 12 @ 12 x B`` GEMM with no field transpose."""
        if self._clover_cm is None:
            p = _COLOR_MAJOR_PERM
            cm = self.clover[..., p[:, None], p[None, :]]
            self._clover_cm = np.ascontiguousarray(
                cm + self.diagonal_coefficient * np.eye(12)
            )
        return self._clover_cm

    # ------------------------------------------------------------------
    def dslash(self, x: np.ndarray) -> np.ndarray:
        """The hopping term D of Eq. (2) (records its own tally entry)."""
        batch = self.batch_size(x)
        record_operator("wilson_dslash")
        record(
            flops=base.WILSON_DSLASH_FLOPS * self.geometry.volume * batch,
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

        The single-RHS kernel runs *lattice-last*: the field is transposed
        once to ``(spin, color, T, Z, Y, X)`` so each of those steps is a
        whole-lattice ufunc call over contiguous sites — the NumPy
        analogue of QUDA's coalesced field order (Sec. 4-5) — and
        transposed back at the end.  Transposes and slice-writes only move
        data, so the per-site IEEE operation sequence (and hence every bit
        of the result) is that of the lattice-first formulation kept in
        ``tests/dirac/_aos_oracle.py``.

        Batched (multi-RHS) fields take the GEMM path of
        :meth:`_batched_hopping`; it evaluates the same contraction in a
        different association order, so batched and single-RHS results
        agree to rounding rather than bit-for-bit.
        """
        if self.field_lead(x):
            bufs = self._batched_scratch(x.shape[0], x.dtype)
            xt, out = bufs["xt"], bufs["out"]
            xt[...] = x.transpose(1, 2, 3, 4, 6, 5, 0)
            out.fill(0.0)
            self._batched_hopping(xt, out[..., :2, :], out[..., 2:, :], bufs)
            out *= -2.0  # undo the -1/2 folded into the link stack
            return _from_batch_last(out)
        u, udag = self._soa_links()
        # The one layout change in: (T, Z, Y, X, spin, color) -> (spin,
        # color, T, Z, Y, X), so every ufunc below streams contiguous sites.
        xs = np.ascontiguousarray(x.transpose(4, 5, 0, 1, 2, 3))
        xu = xs[:2]
        # Four half-spinor buffers reused across the 8 hops (instead of ~7
        # fresh temporaries per hop).
        h, sh, uh, tmp = (np.empty_like(xu) for _ in range(4))
        acc = np.zeros_like(xs)
        upper, lower = acc[:2], acc[2:]
        for mu in range(4):
            bc = self.boundary[mu]
            axis = 2 + axis_of_mu(mu)
            for tab, links, fwd in (
                (self._tab_fwd[mu], u[mu], True),
                (self._tab_bwd[mu], udag[mu], False),
            ):
                # Project: h = x_upper + coeff * x_lower.
                np.multiply(tab.project_coeff[_OVER_SITES], xs[tab.lower], out=tmp)
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
                np.multiply(tab.recon_coeff[_OVER_SITES], hop[tab.source], out=tmp)
                lower += tmp
        return np.ascontiguousarray(acc.transpose(2, 3, 4, 5, 0, 1))

    def _batched_scratch(self, nb: int, dtype) -> dict:
        """Reusable batched-path buffers, allocated once per (batch,
        dtype): repeatedly allocating the ~8x-field-size hop slabs costs
        more in page faults than the arithmetic they carry."""
        key = (int(nb), np.dtype(dtype))
        bufs = self._scratch.get(key)
        if bufs is None:
            lat = self.geometry.shape
            bufs = {
                "xt": np.empty(lat + (3, 4, nb), dtype),
                "out": np.empty(lat + (3, 4, nb), dtype),
                "h": np.empty((8,) + lat + (3, 2 * nb), dtype),
                "uh": np.empty((8,) + lat + (3, 2 * nb), dtype),
                "p": np.empty(lat + (3, 2, nb), dtype),
            }
            self._scratch[key] = bufs
        return bufs

    def _batched_hopping(
        self, xt: np.ndarray, ou: np.ndarray, ol: np.ndarray, bufs: dict
    ) -> None:
        """Accumulate the scaled hopping term ``-1/2 D x`` into the
        upper/lower spin blocks ``ou``/``ol`` of a batched output.

        Operates in the color-major batch-last layout ``(X, Y, Z, T, 3, 4,
        B)`` of :func:`_to_batch_last`: the 8 spin projections fill one
        half-spinor slab buffer whose ``(spin, batch)`` pairs are the
        ``2B`` GEMM columns, and the link stack of
        :meth:`_batched_link_stack` (scale and boundary factors
        pre-folded) multiplies all slabs in a single stacked ``matmul``.
        Each projection is written *pre-shifted to the hop's neighbor
        site* — a two-slice write along the hop axis, no more data than
        an aligned one — so every GEMM product is already site-aligned
        and the accumulation is roll-free.
        """
        plan = self._hop_plan
        links = self._batched_link_stack()
        xu = xt[..., :2, :]
        nb = xt.shape[-1]
        lat = xt.shape[:4]
        h, p = bufs["h"], bufs["p"]
        hv = h.reshape((8,) + lat + (3, 2, nb))
        for k in range(0, 8, 2):
            # Forward/backward projections of the same direction share the
            # phase product: h_fwd(x) = (x_u + p)(x + mu) and
            # h_bwd(x) = (x_u - p)(x - mu).  The (2, 1) spin coefficients
            # broadcast over the trailing batch axis, and the shifted
            # destinations make the wrap faces line up with the boundary
            # factors folded into the link stack.
            mu = plan[k][0]
            tab = plan[k][1]
            np.multiply(tab.project_coeff, xt[..., tab.lower, :], out=p)
            pre = (slice(None),) * axis_of_mu(mu)
            lo = pre + (slice(None, -1),)
            hi = pre + (slice(-1, None),)
            first = pre + (slice(None, 1),)
            rest = pre + (slice(1, None),)
            np.add(xu[rest], p[rest], out=hv[k][lo])
            np.add(xu[first], p[first], out=hv[k][hi])
            np.subtract(xu[lo], p[lo], out=hv[k + 1][rest])
            np.subtract(xu[hi], p[hi], out=hv[k + 1][first])
        uhv = np.matmul(links, h, out=bufs["uh"]).reshape(hv.shape)
        ou += uhv.sum(axis=0)
        # Lower spin block: each hop contributes its reconstruction phases
        # times an (optionally half-spinor-reversed) slab.  With the plan
        # grouped by reversal and the reversed rows' weights pre-flipped,
        # that is one weighted slab sum per group.
        na = self._n_ident
        w = self._recon_weights
        ol += np.einsum("kt,k...tb->...tb", w[:na], uhv[:na])
        ol += np.einsum("kt,k...tb->...tb", w[na:], uhv[na:])[..., ::-1, :]

    def _apply_batched(self, x: np.ndarray) -> np.ndarray:
        """Full batched matrix application fused in the batch-last layout:
        one layout round-trip covers the diagonal, hopping, and clover
        terms (the site-diagonal GEMM uses the color-major matrices of
        :meth:`_site_matrices_cm`)."""
        bufs = self._batched_scratch(x.shape[0], x.dtype)
        xt, out = bufs["xt"], bufs["out"]
        xt[...] = x.transpose(1, 2, 3, 4, 6, 5, 0)
        if self.clover is not None:
            flat_shape = xt.shape[:4] + (12, xt.shape[-1])
            np.matmul(
                self._site_matrices_cm(),
                xt.reshape(flat_shape),
                out=out.reshape(flat_shape),
            )
        else:
            np.multiply(self.diagonal_coefficient, xt, out=out)
        with timed("wilson_dslash", kind="dslash"):
            self._batched_hopping(xt, out[..., :2, :], out[..., 2:, :], bufs)
        return _from_batch_last(out)

    def _dslash_reference(self, x: np.ndarray) -> np.ndarray:
        """The seed's full 4-spin dslash, kept as the numerical baseline."""
        geom = self.geometry
        lead = self.field_lead(x)
        batched = bool(lead)
        out = np.zeros_like(x)
        for mu in range(4):
            bc = self.boundary[mu]
            u = self.gauge.data[mu]
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

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._backend.fuses_batched_wilson_apply and self.field_lead(x):
            return self._apply_batched(x)
        out = self.diagonal_coefficient * x - 0.5 * self._dslash(x)
        if self.clover is not None:
            out += apply_clover(self.clover, x)
        return out

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
        if self.clover is not None:
            out += apply_clover(self.clover, x)  # in place: keeps x's dtype
        return out

    # Backwards-compatible alias used by the even-odd module.
    apply_diagonal = apply_site_diagonal

    def apply_hopping(self, x: np.ndarray) -> np.ndarray:
        """The hopping part, ``-1/2 D x``."""
        return -0.5 * self._dslash(x)

    # ------------------------------------------------------------------
    def with_boundary(self, boundary: BoundarySpec) -> "WilsonCloverOperator":
        return WilsonCloverOperator(
            self.gauge,
            mass=self.mass,
            csw=self.csw,
            boundary=boundary,
            clover=self.clover,
            kernel=self.kernel,
            _link_cache=self._links_soa,
        )

    def restrict_to_block(self, partition, rank: int) -> "WilsonCloverOperator":
        """The Dirichlet-cut operator on one rank's sub-domain — the block
        system of the additive Schwarz preconditioner (Sec. 8.1).

        The local gauge links (and the site-diagonal clover field, which is
        unaffected by the cut) are sliced from the global fields; the
        partitioned directions get zero boundaries, the rest keep the
        global condition.  Link caches are rebuilt for the sliced gauge.
        """
        local_gauge = GaugeField(
            partition.local_geometry,
            np.ascontiguousarray(self.gauge.data[partition.slices(rank, lead=1)]),
        )
        local_clover = None
        if self.clover is not None:
            local_clover = np.ascontiguousarray(
                self.clover[partition.slices(rank)]
            )
        local_bc = self.boundary.with_dirichlet(partition.grid.partitioned_dims)
        return WilsonCloverOperator(
            local_gauge,
            mass=self.mass,
            csw=self.csw,
            boundary=local_bc,
            clover=local_clover,
            kernel=self.kernel,
        )
