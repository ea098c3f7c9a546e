"""Operator interfaces shared by every Dirac discretization.

A :class:`LatticeOperator` is a linear map on spinor-field arrays with
geometry metadata, per-application flop accounting (feeding the performance
model through :mod:`repro.util.counters`), a Hermitian conjugate, and a
``with_boundary`` hook used to impose the Dirichlet cuts of the additive
Schwarz preconditioner.

Standard flop-per-site constants (the counts QUDA/MILC report performance
against) live here as well.
"""

from __future__ import annotations

import abc
import copy
import hashlib
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.lattice.geometry import Geometry, stack_regions
from repro.precision import Precision
from repro.util.counters import record, record_operator

# ----------------------------------------------------------------------
# Standard flop counts per site (community conventions)
# ----------------------------------------------------------------------
#: Wilson dslash (the 8-direction stencil with spin projection).
WILSON_DSLASH_FLOPS = 1320
#: Wilson matrix = dslash + mass axpy.
WILSON_MATVEC_FLOPS = 1368
#: Clover-term application (two 6x6 Hermitian blocks per site).
CLOVER_FLOPS = 504
#: Wilson-clover matrix.
WILSON_CLOVER_MATVEC_FLOPS = WILSON_MATVEC_FLOPS + CLOVER_FLOPS
#: Asqtad dslash (1-hop fat + 3-hop long stencil), MILC counting.
ASQTAD_DSLASH_FLOPS = 1146
#: Asqtad matrix = dslash + mass axpy (6 reals/site).
ASQTAD_MATVEC_FLOPS = ASQTAD_DSLASH_FLOPS + 12
#: Naive (unimproved) staggered dslash.
STAGGERED_DSLASH_FLOPS = 570


# ----------------------------------------------------------------------
# Operator state that depends on the gauge configuration alone
# ----------------------------------------------------------------------
class DerivedState:
    """Everything operators have built from one set of links, so that the
    hundreds of solves on a configuration build each once: the
    lattice-last link cache and its storage-dtype casts under ``("links",
    dtype)``, and two child states — ``child("csw", csw)`` holding the
    clover term as its chiral blocks, in the form the kernel tier that
    asked reads, under ``(form, dtype)`` (``"chiral"``: the blocks
    themselves; ``"packed"``: the compiled tier's Hermitian-packed site
    vectors; ``None`` for the full-precision array the build produces: the
    one kept; blocks of a packed term and the dense field are expanded
    from it for whoever asks and never held here), ``child("regions",
    (origins, extents))`` holding the same again for the lane stack of a
    set of Schwarz regions.  Arrays are handed out read-only: every holder
    shares them.

    ``opened_on`` is what the state stands for — the digest of the links,
    the coefficient, the regions.  A state built directly is private to
    whoever holds it.
    """

    def __init__(self, opened_on=None):
        self.opened_on = opened_on
        self._entries: dict = {}

    def get(self, key, build):
        """The array under ``key``, built by ``build()`` on first request.
        Two threads asking at once may both build; both get the first
        to land."""
        try:
            return self._entries[key]
        except KeyError:
            value = build()
        value.setflags(write=False)
        return self._entries.setdefault(key, value)

    def child(self, slot: str, opened_on) -> "DerivedState":
        """The one state in ``slot``, for what also depends on a
        coefficient or a blocking.  Asking for another drops the one held,
        with all it holds: a configuration keeps the arrays of the last
        kind of solve run on it, however many coefficients and blockings
        its clients sweep (operators still alive keep what they took)."""
        with _STATES_LOCK:
            held = self._entries.get(slot)
            if held is None or held.opened_on != opened_on:
                held = self._entries[slot] = DerivedState(opened_on)
        return held


#: gauge -> its :class:`DerivedState`.  Weakly keyed, and no entry refers
#: back to the gauge, so a state dies with its configuration.
_STATES: "weakref.WeakKeyDictionary[object, DerivedState]" = (
    weakref.WeakKeyDictionary()
)
_STATES_LOCK = threading.Lock()


def configuration_state(gauge) -> DerivedState:
    """The state of a gauge configuration, validated against its links as
    they are now (any caller may write a configuration's links in place):
    one sha256 of the field, about a hundredth of a clover build, and a
    state opened on other links is dropped for a fresh one.  An operator
    validates once, at construction, and stands for the configuration as
    it was then: what it derives later is filed with that state, so the
    links must not change under a live operator."""
    data = np.ascontiguousarray(gauge.data)
    sha = hashlib.sha256(f"{data.dtype.str}{data.shape}".encode())
    sha.update(data)
    digest = sha.digest()
    with _STATES_LOCK:
        state = _STATES.get(gauge)
        if state is None or state.opened_on != digest:
            state = _STATES[gauge] = DerivedState(digest)
    return state


def validated_state(gauge) -> DerivedState:
    """The state :func:`configuration_state` has just validated, for a
    caller holding an array handed out on that validation (no second
    digest)."""
    with _STATES_LOCK:
        return _STATES[gauge]


#: The per-direction conditions a :class:`BoundarySpec` takes.
BOUNDARY_CONDITIONS = ("periodic", "antiperiodic", "zero")


@dataclass(frozen=True)
class BoundarySpec:
    """Per-direction fermion boundary conditions ``(x, y, z, t)``.

    Each entry is ``"periodic"``, ``"antiperiodic"`` or ``"zero"``
    (Dirichlet).  The Schwarz preconditioner is obtained by switching the
    partitioned directions to ``"zero"`` — "essentially, we just have to
    switch off the communications" (Sec. 8.1).
    """

    conditions: tuple[str, str, str, str] = ("periodic",) * 4

    def __post_init__(self):
        if len(self.conditions) != 4 or any(
            c not in BOUNDARY_CONDITIONS for c in self.conditions
        ):
            raise ValueError(f"invalid boundary spec {self.conditions}")

    def __getitem__(self, mu: int) -> str:
        return self.conditions[mu]

    def with_dirichlet(self, dims: tuple[int, ...]) -> "BoundarySpec":
        """Return a copy with the given directions cut (set to zero)."""
        conds = list(self.conditions)
        for mu in dims:
            conds[mu] = "zero"
        return BoundarySpec(tuple(conds))


#: Fully periodic boundaries (default for algorithm studies).
PERIODIC = BoundarySpec()
#: Physical fermion boundaries: periodic in space, antiperiodic in time.
PHYSICAL = BoundarySpec(("periodic", "periodic", "periodic", "antiperiodic"))


def link_apply(links: np.ndarray, x: np.ndarray, batched: bool = False) -> np.ndarray:
    """Apply per-site 3x3 color matrices to a spinor array.

    ``links`` has shape ``sites + (3, 3)``; ``x`` has shape
    ``sites + (nspin, 3)`` (Wilson) or ``sites + (3,)`` (staggered).
    Computes ``y_a = sum_b U_ab x_b`` at every site (and spin).

    With ``batched=True`` the field carries one extra *leading* batch axis
    (multi-RHS); the links broadcast over it unchanged.  The flag is
    explicit because ndim alone cannot distinguish a batched staggered
    field from an unbatched Wilson one.
    """
    lt = np.swapaxes(links, -1, -2)
    spinor_ndim = links.ndim + (1 if batched else 0)
    if x.ndim == spinor_ndim:  # (..., nspin, 3): batched matmul
        return x @ lt
    if x.ndim == spinor_ndim - 1:  # (..., 3): promote to a row vector
        return np.squeeze(x[..., None, :] @ lt, axis=-2)
    raise ValueError(f"incompatible shapes {links.shape} and {x.shape}")


def lattice_last_links(links: np.ndarray) -> np.ndarray:
    """Site-contiguous link cache ``(2, mu, b, a) + lattice``.

    ``[0, mu, b, a] = U_mu(x)_{ab}`` and ``[1, mu, b, a] = (U_mu(x)^+)_{ab}
    = conj(U_mu(x))_{ba}``, so column ``b`` of either matrix is three
    whole-lattice arrays whose fastest axis is the site axis — the order
    :func:`repro.linalg.su3.link_apply_sites` consumes.  Built once per configuration: it is
    the per-call ``su3.dagger`` of the reference path amortized away.  A lane
    axis in front of the lattice axes (``links`` of shape ``(4, L, T, Z, Y,
    X, 3, 3)``) is carried through unchanged.
    """
    out = np.empty((2, 4, 3, 3) + links.shape[1:-2], links.dtype)
    out[0] = np.moveaxis(links, (-1, -2), (1, 2))
    np.conjugate(np.moveaxis(links, (-2, -1), (1, 2)), out=out[1])
    return out


class LatticeOperator(abc.ABC):
    """A linear operator acting on spinor-field arrays.

    Subclasses implement ``_apply`` (and usually ``_apply_dagger``); the
    public ``apply`` wrapper records the operator application and its
    standard flop count to the active tally.
    """

    #: Operator name used in tallies and reports.
    name: str = "operator"
    #: Spins per site of the fields this operator acts on (4 or 1).
    nspin: int = 4
    #: Standard flops per lattice site per application.
    flops_per_site: int = 0
    #: ``None`` for an ordinary operator on one lattice.  A *lane stack*
    #: (from :meth:`restrict_to_regions`) sets it to the number L of
    #: same-shape Dirichlet-cut blocks it applies side by side: its link
    #: and site-diagonal arrays, and the fields it acts on, carry one lane
    #: axis of that length directly in front of the lattice axes —
    #: ``([B,] L, T, Z, Y, X, ...)`` — and ``geometry`` is one block's.
    #: Lanes never mix: every stencil shift runs along a lattice axis.
    lanes: int | None = None
    #: ``None`` for an operator that works in the precision of the field it
    #: is handed.  A *stored* operator (:meth:`stored`, or a restriction
    #: given a ``precision``) lives in that storage format instead:
    #: ``apply`` rounds its argument to the format on the way in and its
    #: result on the way out, so a fixed-precision block solve needs no
    #: conversion of its own around the operator.
    storage: Precision | None = None

    def __init__(self, geometry: Geometry):
        self.geometry = geometry

    # -- required numerics ------------------------------------------------
    @abc.abstractmethod
    def _apply(self, x: np.ndarray) -> np.ndarray: ...

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no dagger")

    # -- public interface --------------------------------------------------
    def apply(self, x: np.ndarray) -> np.ndarray:
        self._record(x)
        return self._apply(x) if self.storage is None else self._apply_stored(x)

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        self._record(x)
        if self.storage is None:
            return self._apply_dagger(x)
        return self._rounded(self._apply_dagger, x)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    # -- storage precision ---------------------------------------------------
    def _rounded(self, fn, x: np.ndarray) -> np.ndarray:
        """``round(fn(round(x)))`` in the storage format (one scale per
        site for half): the generic form of a stored application, with the
        links and the arithmetic of ``fn`` left as they are."""
        site_axes = 2 if self.nspin == 4 else 1
        convert = self.storage.convert
        return convert(fn(convert(x, site_axes)), site_axes)

    def _apply_stored(self, x: np.ndarray) -> np.ndarray:
        return self._rounded(self._apply, x)

    def stored(self, precision: Precision | None) -> "LatticeOperator":
        """This operator living in ``precision`` (see :attr:`storage`);
        ``None`` is the operator itself.  Built once per precision and
        kept, so resolving it on every block solve costs a lookup."""
        if precision is None or precision == self.storage:
            return self
        memo = self.__dict__.setdefault("_stored", {})
        if precision not in memo:
            memo[precision] = self._in_storage(precision)
        return memo[precision]

    def _in_storage(self, precision: Precision) -> "LatticeOperator":
        out = copy.copy(self)
        out.__dict__.pop("_stored", None)
        out.storage = precision
        return out

    # -- multi-RHS (batched) layout ----------------------------------------
    @property
    def field_ndim(self) -> int:
        """ndim of an unbatched field this operator acts on: 4 lattice
        axes (behind the lane axis of a lane stack) plus ``(spin, color)``
        for Wilson or ``(color,)`` for staggered."""
        return (self.lanes is not None) + 4 + (2 if self.nspin == 4 else 1)

    @property
    def sites(self) -> int:
        """Lattice sites one application touches (all lanes)."""
        return self.geometry.volume * (self.lanes or 1)

    def field_lead(self, x: np.ndarray) -> int:
        """Number of leading batch axes of ``x`` (0 or 1).

        Batched fields carry the multi-RHS axis *in front* of the lattice
        axes — ``(B, T, Z, Y, X, ...)`` — so numpy's left-padded
        broadcasting makes the per-site gauge/clover contractions
        batch-transparent.
        """
        extra = x.ndim - self.field_ndim
        if extra in (0, 1):
            return extra
        raise ValueError(
            f"{self.name} expects field ndim {self.field_ndim} "
            f"(or +1 batch axis), got shape {x.shape}"
        )

    def site_lead(self, x: np.ndarray) -> int:
        """Number of axes of ``x`` in front of the lattice axes: the batch
        axis and, on a lane stack, the lane axis."""
        return self.field_lead(x) + (self.lanes is not None)

    def batch_size(self, x: np.ndarray) -> int:
        """Number of right-hand sides carried by ``x`` (1 if unbatched)."""
        return x.shape[0] if self.field_lead(x) else 1

    def _record(self, x: np.ndarray) -> None:
        self.record_application(self.batch_size(x), x.dtype)

    def record_application(self, batch: int, dtype, lanes: int | None = None):
        """Record what one application to ``batch`` right-hand sides of
        ``dtype`` costs — on ``lanes`` of this lane stack (default: all of
        them): a lane stack applies that many block operators at once."""
        lanes = lanes or self.lanes or 1
        record_operator(self.name, lanes)
        sites = self.geometry.volume * lanes
        record(
            flops=self.flops_per_site * sites * batch,
            bytes_moved=self.bytes_per_application(dtype, batch, sites),
        )

    def bytes_per_application(self, dtype, batch: int = 1, sites=None) -> int:
        """Rough device-memory traffic per application (spinor in/out plus
        gauge reads) on ``sites`` sites (default: all of them); refined
        numbers live in :mod:`repro.perfmodel.kernels`.

        For a batched (multi-RHS) application the spinor traffic scales
        with ``batch`` while the gauge links are read once and reused
        across the batch — the arithmetic-intensity gain batching buys.
        """
        site_complex = 3 * self.nspin
        itemsize = np.dtype(dtype).itemsize
        # 8 neighbor spinor reads + 1 write per RHS + 8 link reads
        # (9 complex each) shared across the batch.
        per_site = 9 * site_complex * itemsize * batch + 8 * 9 * itemsize
        return per_site * (self.sites if sites is None else sites)

    def block_mr(self, r: np.ndarray, steps: int, omega: float, convert: bool):
        """The Schwarz block solve's fixed-step MR
        (:func:`repro.precond.schwarz_block_solve`) on this operator, the
        residual ``r`` rounded to its storage first if ``convert``, in ONE
        call of its kernel tier where the tier has one for these arrays,
        unrecorded: ``(z, counts)``, ``counts`` the lanes each step applied
        the operator to, then the lanes that took each step.  ``None``
        here: the block solve runs in Python."""
        return None

    def apply_hopping(self, x: np.ndarray) -> np.ndarray:
        """The off-diagonal (nearest/third-neighbor) part of the operator.

        ``apply(x) == apply_site_diagonal(x) + apply_hopping(x)``; the
        split is what the interior/exterior multi-GPU kernels decompose
        (Sec. 6.2): only the hopping term reads ghost zones.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no hopping/diagonal split"
        )

    def apply_site_diagonal(self, x: np.ndarray) -> np.ndarray:
        """The site-diagonal part (mass and clover terms)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no hopping/diagonal split"
        )

    # -- composition helpers -----------------------------------------------
    def with_boundary(self, boundary: BoundarySpec) -> "LatticeOperator":
        """Return a copy of this operator with different boundary conditions
        (used to build the Dirichlet-cut Schwarz blocks)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support boundary changes"
        )

    # -- Schwarz blocks ------------------------------------------------------
    def restrict_to_regions(
        self, origins, extents, cut_dims: tuple[int, ...],
        precision: Precision | None = None,
    ) -> "LatticeOperator":
        """The Dirichlet-cut operators on same-shape rectangular regions of
        this lattice, as ONE lane stack (see :attr:`lanes`).

        ``origins`` are the regions' (x, y, z, t) first sites (may be
        negative: regions wrap periodically), ``extents`` their common
        size; the ``cut_dims`` directions get zero boundaries, the rest
        keep this operator's condition.

        ``precision`` is the block-solve precision the stack is stored in
        (see :attr:`storage`); ``None`` keeps this operator's own storage.
        A family whose arrays do not depend on the storage implements
        :meth:`_cut_to_regions` / :meth:`_pick_lanes` and is stored here,
        generically; one that gathers in the storage dtype overrides the
        public pair.
        """
        return self._cut_to_regions(origins, extents, cut_dims).stored(
            self.storage if precision is None else precision
        )

    def _cut_to_regions(self, origins, extents, cut_dims) -> "LatticeOperator":
        raise NotImplementedError(
            f"{type(self).__name__} does not support block restriction"
        )

    def _region_stack(
        self, array, origins, extents, lead: int, dtype=None
    ) -> np.ndarray:
        """Regions of one of this operator's arrays (``lead`` axes in
        front of its lattice axes) as a lane axis in that position, cast
        to ``dtype`` as they are gathered.  A lane stack is not cut
        further: restrict the operator it was cut from."""
        if self.lanes is not None:
            raise ValueError(
                f"{type(self).__name__} is a stack of {self.lanes} lanes: "
                "restricting a lane stack to regions is not supported"
            )
        return stack_regions(
            array, self.geometry, origins, extents, lead=lead, dtype=dtype
        )

    def restrict_to_blocks(
        self, partition, ranks=None, precision: Precision | None = None
    ) -> "LatticeOperator":
        """All blocks of ``partition`` (or just ``ranks``) as one lane
        stack — the stacked sibling of ``restrict_to_block``."""
        ranks = partition.grid.all_ranks() if ranks is None else ranks
        return self.restrict_to_regions(
            [partition.origin(rank) for rank in ranks],
            partition.local_dims,
            partition.grid.partitioned_dims,
            precision,
        )

    def take_lanes(self, lanes) -> "LatticeOperator":
        """The lane stack holding only the given lanes of this one, in
        this one's storage."""
        return self._pick_lanes(lanes).stored(self.storage)

    def _pick_lanes(self, lanes) -> "LatticeOperator":
        raise NotImplementedError(
            f"{type(self).__name__} is not a lane stack"
        )

    def normal(self) -> "NormalOperator":
        return NormalOperator(self)

    def shifted(self, sigma: float) -> "ShiftedOperator":
        return ShiftedOperator(self, sigma)


class ShiftedOperator(LatticeOperator):
    """``A + sigma * I`` — the shifted systems of Eq. (4)."""

    def __init__(self, base: LatticeOperator, sigma: float):
        super().__init__(base.geometry)
        self.base = base
        self.sigma = float(sigma)
        self.name = f"{base.name}+{sigma:g}"
        self.nspin = base.nspin
        self.lanes = base.lanes
        self.flops_per_site = base.flops_per_site + 4 * 3 * base.nspin

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.base._apply(x) + self.sigma * x

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        return self.base._apply_dagger(x) + self.sigma * x  # sigma is real

    def _record(self, x: np.ndarray) -> None:
        self.base._record(x)


class NormalOperator(LatticeOperator):
    """``A^dagger A`` — the normal equations (CGNE/CGNR, Sec. 3.1)."""

    def __init__(self, base: LatticeOperator):
        super().__init__(base.geometry)
        self.base = base
        self.name = f"{base.name}^+{base.name}"
        self.nspin = base.nspin
        self.lanes = base.lanes
        self.flops_per_site = 2 * base.flops_per_site

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.base._apply_dagger(self.base._apply(x))

    _apply_dagger = _apply

    def _record(self, x: np.ndarray) -> None:
        self.base._record(x)
        self.base._record(x)
