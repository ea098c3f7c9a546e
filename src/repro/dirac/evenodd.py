"""Even-odd (red-black) preconditioning of the Wilson-clover system.

"Even-odd ... preconditioning is almost always used to accelerate the
solution finding process for this system, where the nearest neighbor
property of the D matrix is exploited to solve the Schur complement
system" (Sec. 3.1).

Writing Eq. (2) in checkerboard blocks, with C = (4 + m + A) site-diagonal
and the hopping term connecting opposite parities only::

    M = [ C_ee      -1/2 D_eo ]
        [ -1/2 D_oe  C_oo     ]

the Schur complement on the even sublattice is::

    Mhat = C_ee - 1/4 D_eo C_oo^{-1} D_oe

Solving ``Mhat x_e = b_e + 1/2 D C^{-1} b_o |_e`` and back-substituting
``x_o = C^{-1}(b_o + 1/2 D x_e |_o)`` reproduces the full solution at
roughly half the iteration cost.  Since ``x_o`` solves the odd rows
exactly, the full residual is the Schur one on the even sites and zero on
the odd ones: ``|b - M x| = |bhat - Mhat x_e|``.

Fields of the Schur system hold ONE parity, site-compressed (QUDA's
single-parity fields, arXiv:0911.3191): ``([B,] [L,] T, Z, Y, X/2, 4,
3)``, site ``(t, z, y, i)`` of parity ``p`` being the full-lattice site
``x = 2 i + (t + z + y + p) % 2`` (:func:`repro.lattice.geometry.to_parity`
and ``from_parities`` convert).  The operator's :attr:`geometry` is that
half lattice, so block
partitions and Schwarz regions of the Schur system are laid out on it.  A
T, Z or Y hop is a shift of the other parity's array; an X hop shifts the
rows whose parity calls for it (:func:`repro.dirac.wilson.hop_sites`).

What the complement reads is derived once per configuration and kept in
its :class:`~repro.dirac.base.DerivedState`, in the form the tier reads:
the links split by parity (:func:`half_links`), the clover term on each
parity, and ``C_oo^{-1}`` — one Hermitian 6x6 inverse per chirality
(:func:`repro.dirac.clover.invert_hermitian_blocks`, an order written here,
not LAPACK's), held like the clover term (packed as 72 reals a site on the
compiled tier) and applied by the same site-diagonal code.

On the reference tier (``kernel="numpy_ref"``, which runs no lattice-last
body) the complement is built from the wrapped operator's own dslash on
full-lattice fields zero on one parity, and ``C^{-1}`` / ``A_ee`` are
per-site matrix-vector products: the slow cross-check the half-lattice
body is tested against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dirac.base import LatticeOperator
from repro.dirac.clover import (
    ChiralBlocks,
    apply_chiral,
    apply_chiral_sites,
    invert_hermitian_blocks,
)
from repro.dirac.wilson import (
    _CONVERT,
    _HOPS,
    _TAIL,
    WilsonCloverOperator,
    hop_sites,
)
from repro.lattice.geometry import Geometry, from_parities, to_parity
from repro.linalg.gamma import GAMMA5, apply_spin_matrix
from repro.util.counters import record_timed, timed, timing


def half_geometry(geometry: Geometry) -> Geometry:
    """The lattice one parity's fields live on: X halved."""
    nx, ny, nz, nt = geometry.dims
    return Geometry((nx // 2, ny, nz, nt), half=True)


def half_links(wilson: WilsonCloverOperator) -> np.ndarray:
    """The forward links of ``wilson`` split by parity, ``(parity, mu, b,
    a, [L,] T, Z, Y, X/2)``: per parity the forward half of
    :func:`repro.dirac.base.lattice_last_links` on that parity's sites
    (the backward hop daggers the other parity's, as the compiled core
    does in registers).  Gathered from the gauge field itself where there
    is one: the full-lattice cache is never built for it."""
    if wilson.gauge is not None:
        forward = np.moveaxis(wilson.gauge.data, (-1, -2), (1, 2))
    else:
        forward = wilson._soa_links()[0]
    lattice = forward.shape[3:]
    out = np.empty(
        (2,) + forward.shape[:3] + lattice[:-1] + (lattice[-1] // 2,),
        forward.dtype,
    )
    for parity in (0, 1):
        to_parity(forward, parity, trail=0, out=out[parity])
    return out


def _lattice_last(x: np.ndarray, dtype) -> np.ndarray:
    """A site-major Wilson field as the body's contiguous ``(spin, color,
    ...)`` array in ``dtype`` (widened exactly when narrower)."""
    xs = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
    return xs.astype(dtype, copy=False)


def _site_major(xs: np.ndarray, dtype) -> np.ndarray:
    """The body's array back as a site-major field of ``dtype``."""
    xs = xs.astype(dtype, copy=False)
    return np.ascontiguousarray(np.moveaxis(xs, (0, 1), (-2, -1)))


class EvenOddPreconditionedWilson(LatticeOperator):
    """The even-even Schur complement ``Mhat`` of the Wilson-clover matrix,
    on half-lattice fields of the even parity (module docstring).

    Use :meth:`prepare_rhs` / :meth:`reconstruct` to convert between the
    full system and this one, and :meth:`apply_full` for the full matrix
    on the two parities (what a solve checks its residual with).

    ``apply`` runs the whole complement — two checkerboard hops, ``C_oo^-1``
    between them, ``C_ee`` after — in one call of the wrapped operator's
    kernel tier where the tier has one (``"c"``), else in the NumPy body,
    which any compiled one equals bit for bit.  A reference-tier operator
    runs the reference formulation instead (module docstring).
    """

    nspin = 4

    def __init__(self, wilson: WilsonCloverOperator):
        if wilson.storage is not None:
            raise TypeError(
                "the Schur complement inverts the working-precision clover "
                "term: wrap the working-precision operator and store the "
                "complement"
            )
        super().__init__(half_geometry(wilson.geometry))
        self.wilson = wilson
        self.lanes = wilson.lanes
        self.name = f"eo_{wilson.name}"
        # Two half-lattice hops (one full dslash) plus the site-diagonal
        # terms, counted as the full matrix on twice the sites of one parity.
        self.flops_per_site = 2 * wilson.flops_per_site
        self._backend = wilson._backend
        self._form = wilson._form
        self._lattice = (
            () if self.lanes is None else (self.lanes,)
        ) + self.geometry.shape
        state = wilson._state
        #: Whether the tier runs no lattice-last body: the reference
        #: formulation on the full lattice, which reads no split links.
        self._reference = not wilson._packed
        self._links = None
        if not self._reference:
            self._links = state.get(
                ("links", "eo"), lambda: half_links(wilson)
            )
        terms = state.child("csw", wilson.csw)
        #: A_ee and A_oo, the clover term on each parity's sites (held:
        #: every apply reads A_ee, every solve's residual A_oo).
        self._even = self._odd = None
        if wilson._chiral is not None:
            self._even, self._odd = (
                terms.get(
                    (self._form.clover_form, "eo", parity),
                    lambda parity=parity: self._form.clover_parity(
                        wilson._chiral, self._lattice, parity
                    ),
                )
                for parity in (0, 1)
            )
        masses = terms.child("diagonal", wilson.diagonal_coefficient)
        self._inverse = masses.get(
            (self._form.clover_form, "eo", "inverse"), self._build_inverse
        )
        self._schur = self._bind()

    # -- derived arrays ----------------------------------------------------
    def _build_inverse(self) -> np.ndarray:
        """``C_oo^{-1}`` per chirality, in the tier's held form, from the
        term on the odd sites a chirality at a time."""
        odd = None if self._odd is None else self._blocks(self._odd)
        return self._form.clover_pack(
            lambda c: invert_hermitian_blocks(
                None if odd is None else odd[c],
                self.wilson.diagonal_coefficient, self._lattice, c,
            ),
            self._lattice, np.complex128,
        )

    def _bind(self):
        """The tier's compiled even-odd form on these operands, checked
        once (``None``: the NumPy passes run)."""
        if self._reference:
            return None
        return self._backend.wilson_schur_bind(
            self._links, self._even, self._odd, self._inverse,
            self.wilson.diagonal_coefficient, self.wilson.boundary,
        )

    def _blocks(self, held) -> ChiralBlocks:
        return ChiralBlocks(self._form, held, self._lattice)

    # -- the NumPy pieces ----------------------------------------------------
    def _hop(self, xs: np.ndarray, parity: int, batched: bool) -> np.ndarray:
        """``D`` from the other parity onto ``parity``, lattice-last."""
        out = self._backend.wilson_hop_sites(
            self._links, xs, batched, self.wilson.boundary, parity=parity
        )
        if out is not None:
            return out
        return hop_sites(self._links, xs, batched, self.wilson.boundary, parity)

    def _tail(self, acc, target, batched: bool, hop=None, diagonal=0.0,
              clover=None, inverse=None):
        """What follows the hops, on lattice-last fields: unless ``hop`` is
        ``None`` the matrix tail ``acc = hop acc + diagonal target + A
        target`` in place (``clover`` A, held, or ``None``: the full
        matrix's order), then ``acc = inverse acc`` (summed into a zero
        field) where ``inverse`` is given."""
        if hop is not None:
            acc *= hop
            acc += diagonal * target
            if clover is not None:
                apply_chiral_sites(self._blocks(clover), target, acc, batched)
        if inverse is not None:
            acc = apply_chiral_sites(
                self._blocks(inverse), acc, np.zeros_like(acc), batched
            )
        return acc

    # -- the reference formulation --------------------------------------------
    def _reference_hop(self, v: np.ndarray, parity: int) -> np.ndarray:
        """``D`` from the other parity onto ``parity`` by the wrapped
        operator's dslash, on the full field that is ``v`` on the other
        parity's sites and zero on ``parity``'s."""
        zero = np.zeros_like(v)
        full = from_parities(zero, v) if parity == 0 else from_parities(v, zero)
        return to_parity(self.wilson._dslash(full), parity)

    def _reference_inverse(self, v: np.ndarray) -> np.ndarray:
        """``C_oo^{-1} v``, a 6x6 matrix-vector product a site and
        chirality, in ``v``'s dtype."""
        return apply_chiral(self._blocks(self._inverse), v).astype(
            v.dtype, copy=False
        )

    def _apply_reference(self, x: np.ndarray) -> np.ndarray:
        """``Mhat x`` as ``(4 + m + A_ee) x - 1/4 D C_oo^{-1} D x``."""
        out = self.wilson.diagonal_coefficient * x
        if self._even is not None:
            out += apply_chiral(self._blocks(self._even), x)
        lifted = self._reference_inverse(self._reference_hop(x, 1))
        out -= 0.25 * self._reference_hop(lifted, 0)
        return out

    # -- the Schur complement ---------------------------------------------
    def _timed(self, entry, *args):
        """``entry(*args, seconds)`` of the bound form, its leaves recorded
        as the apply's: its result (``None``: not taken)."""
        seconds = np.zeros(3) if timing() else None
        start = time.perf_counter()
        out = entry(*args, seconds)
        if out is not None and seconds is not None:
            for leaf, elapsed in zip((_CONVERT, _HOPS, _TAIL), seconds):
                record_timed(*leaf, start, elapsed)
                start += elapsed
        return out

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._reference:
            return self._apply_reference(x)
        out = self._schur and self._timed(self._schur.apply, x)
        if out is not None:
            return out
        batched = bool(self.field_lead(x))
        dtype = self._links.dtype
        with timed(*_CONVERT):
            xs = _lattice_last(x, dtype)
        with timed(*_HOPS):
            t = self._hop(xs, 1, batched)
        with timed(*_TAIL):
            t = self._tail(t, None, batched, inverse=self._inverse)
        with timed(*_HOPS):
            out = self._hop(t, 0, batched)
        with timed(*_TAIL):
            self._tail(
                out, xs, batched, -0.25, self.wilson.diagonal_coefficient,
                self._even,
            )
        with timed(*_CONVERT):
            narrower = min(x.dtype, dtype, key=lambda d: d.itemsize)
            return _site_major(out, narrower)

    # -- BiCGstab's fused steps ------------------------------------------------
    # (repro.solvers.space.BatchedArraySpace's seam: each one compiled call
    # on the solve's team, the vector pass, the apply and the reductions as
    # the space's calls compute them, bit for bit; ``coef`` is the pass's
    # coefficients a right-hand side.  Each returns its reductions,
    # unrecorded — the space records them and the passes — or ``None``,
    # nothing written, where the fields are not what the call takes.)
    @property
    def fused_steps(self) -> "EvenOddPreconditionedWilson | None":
        """This operator where its tier binds the even-odd form and it
        applies in working precision (a stored complement rounds around
        the apply), else ``None``."""
        return self if self._schur is not None and self.storage is None else None

    def bicgstab_direction_apply(self, coef, p, r, v, r_hat):
        """``p = r + b (p + c v)``, ``v = Mhat p``, both in place, and
        ``(r_hat, v)``: the one application recorded."""
        denom = self._timed(self._schur.direction, coef, p, r, v, r_hat)
        if denom is not None:
            self._record(p)
        return denom

    def bicgstab_update_apply(self, coef, r, v):
        """``s = r + a v`` in ``r``, ``t = Mhat s``, ``(t, s)`` and
        ``|t|^2``: ``(t, ts, t2)``, the one application recorded."""
        done = self._timed(self._schur.update, coef, r, v)
        if done is not None:
            self._record(r)
        return done

    def bicgstab_closing_reduce(self, coef, p, s, t, x, r_hat):
        """``x = (x + alpha p) + omega s`` and ``r = s + c t`` in ``s``,
        then ``(r_hat, r)`` and ``|r|^2``: ``(rho, r2)``."""
        return self._schur.closing(coef, p, s, t, x, r_hat)

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        # Mhat inherits gamma5-Hermiticity from M; gamma5 (a +-1
        # diagonal) is cast to the field's dtype, as in the full matrix.
        g5 = GAMMA5.astype(x.dtype)
        return apply_spin_matrix(g5, self._apply(apply_spin_matrix(g5, x)))

    # -- full-system conversion ---------------------------------------------
    # One compiled call each on the tier that binds the even-odd form (the
    # full fields read and written a parity at a time); the NumPy passes
    # below otherwise, which it equals bit for bit.
    def _pass(self, src, xt, parity: int, hop=None, diagonal=0.0,
              clover=None, inverse=None):
        """One pass onto the sites of ``parity``, on site-major half-lattice
        fields of the operator's dtype: ``acc = D src`` from the other
        parity (``src`` ``None``: ``acc = xt``); unless ``hop`` is ``None``,
        the matrix tail ``acc = hop acc + diagonal xt + A xt`` (``clover``
        A, held, or ``None``); then ``acc = inverse acc`` where ``inverse``
        is given."""
        batched = bool(self.field_lead(xt))
        dtype = self._links.dtype
        target = _lattice_last(xt, dtype)
        if src is None:
            acc = target.copy()
        else:
            acc = self._hop(_lattice_last(src, dtype), parity, batched)
        acc = self._tail(acc, target, batched, hop, diagonal, clover, inverse)
        return _site_major(acc, dtype)

    def _halves(self, b: np.ndarray):
        """The two parities of a full field in the operator's dtype."""
        dtype = self._links.dtype
        return tuple(to_parity(b, p).astype(dtype, copy=False) for p in (0, 1))

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        """Even-site right-hand side ``b_e + 1/2 D C^{-1} b_o |_e`` of the
        full ``b``, a half-lattice field of ``b``'s dtype."""
        if self._reference:
            b_e, b_o = (to_parity(b, parity) for parity in (0, 1))
            lifted = self._reference_inverse(b_o)
            return b_e + 0.5 * self._reference_hop(lifted, 0)
        out = self._schur and self._schur.rhs(b)
        if out is not None:
            return out
        b_e, b_o = self._halves(b)
        lifted = self._pass(None, b_o, 1, inverse=self._inverse)
        out = self._pass(lifted, b_e, 0, hop=0.5, diagonal=1.0)
        return out.astype(b.dtype, copy=False)

    def reconstruct(self, x_e: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Back-substitute the odd sites: the full solution of ``M x = b``
        from the even half-lattice ``x_e``,
        ``x_o = C^{-1}(b_o + 1/2 D x_e |_o)``."""
        if self._reference:
            b_o = to_parity(b, 1).astype(x_e.dtype, copy=False)
            x_o = self._reference_inverse(
                b_o + 0.5 * self._reference_hop(x_e, 1)
            )
            return from_parities(x_e, x_o)
        done = self._schur and self._schur.solution(x_e, b, residual=False)
        if done:
            return done[0]
        _, b_o = self._halves(b)
        x_o = self._pass(
            x_e.astype(self._links.dtype, copy=False), b_o, 1, hop=0.5,
            diagonal=1.0, inverse=self._inverse,
        )
        return from_parities(x_e, x_o.astype(x_e.dtype, copy=False))

    def reconstruct_residual(self, x_e: np.ndarray, b: np.ndarray):
        """``(x, r)``: the full solution :meth:`reconstruct` gives and its
        full residual ``r = b - M x`` (``M x`` as :meth:`apply_full` gives
        it, in ``x``'s dtype), recorded as that one application of ``M``.
        The compiled call hops from ``x_e`` onto the odd sites once, for
        the back-substitution and the residual's odd half."""
        done = self._schur and self._schur.solution(x_e, b, residual=True)
        if not done:
            x = self.reconstruct(x_e, b)
            return x, b - self.apply_full(x)
        self.wilson._record(done[0])
        return done

    def apply_full(self, x: np.ndarray) -> np.ndarray:
        """The full matrix ``M x`` of a full-lattice field, computed on the
        two parities: bit for bit ``wilson.apply(x)`` on the fast tiers
        (each site's hops and tail are the full body's), without the
        full-lattice link cache; ``wilson.apply(x)`` itself on the
        reference tier.  Recorded as one application of it."""
        if self._reference:
            return self.wilson.apply(x)
        self.wilson._record(x)
        halves = self._halves(x)
        out = [
            self._pass(
                halves[1 - parity], halves[parity], parity, hop=-0.5,
                diagonal=self.wilson.diagonal_coefficient,
                clover=self._odd if parity else self._even,
            ).astype(x.dtype, copy=False)
            for parity in (0, 1)
        ]
        return from_parities(*out)

    # -- derived operators ---------------------------------------------------
    def with_boundary(self, boundary) -> "EvenOddPreconditionedWilson":
        return EvenOddPreconditionedWilson(self.wilson.with_boundary(boundary))

    def _full_origin(self, origin):
        """A half-lattice (x, y, z, t) origin on the full lattice, refused
        where it would swap the checkerboards (an odd full origin: the
        region's own parity is its sites' parity relative to it)."""
        full = (2 * origin[0],) + tuple(origin[1:])
        if sum(full) % 2:
            raise TypeError(
                "EvenOddPreconditionedWilson cannot be restricted to "
                "regions of odd origin"
            )
        return full

    def restrict_to_block(self, partition, rank: int) -> "EvenOddPreconditionedWilson":
        """Dirichlet-cut Schur complement on one sub-domain of a partition
        of this operator's (half) lattice.

        QUDA's production GCR-DD runs on the even-odd preconditioned
        system; the Schwarz block operator is then the Schur complement
        of the *cut* Wilson matrix (cut first, then eliminate the odd
        sites — the order matters and this is the communication-free one).
        """
        from repro.multigpu.partition import BlockPartition

        if partition.geometry != self.geometry:
            raise ValueError(
                f"partition of {partition.geometry!r}: the Schur system's "
                f"fields live on {self.geometry!r}"
            )
        full = BlockPartition(self.wilson.geometry, partition.grid)
        self._full_origin(partition.origin(rank))
        block = self.wilson.restrict_to_block(full, rank)
        return EvenOddPreconditionedWilson(block)

    def _cut_to_regions(self, origins, extents, cut_dims):
        """The cut Schur complements on same-shape regions of the half
        lattice as one lane stack (each region's checkerboard is its own,
        so an odd full-lattice origin is refused).  Stored, it rounds
        around the complement; the Wilson matrix inside stays in working
        precision."""
        origins = [self._full_origin(origin) for origin in origins]
        extents = (2 * extents[0],) + tuple(extents[1:])
        return EvenOddPreconditionedWilson(
            self.wilson.restrict_to_regions(origins, extents, cut_dims)
        )

    def _pick_lanes(self, lanes) -> "EvenOddPreconditionedWilson":
        """The given lanes, their derived arrays taken from this stack's
        (nothing is inverted again)."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.__dict__.pop("_stored", None)
        out.wilson = self.wilson.take_lanes(lanes)
        out.lanes = out.wilson.lanes
        out._lattice = (
            () if out.lanes is None else (out.lanes,)
        ) + self.geometry.shape
        if self._links is not None:
            out._links = np.ascontiguousarray(
                np.take(self._links, lanes, axis=4)
            )
        take = self._form.clover_lanes
        if self._even is not None:
            out._even, out._odd = (
                take(term, lanes) for term in (self._even, self._odd)
            )
        out._inverse = take(self._inverse, lanes)
        out.storage = None
        out._schur = out._bind()
        return out
