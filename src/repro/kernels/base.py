"""The kernel-backend protocol: what a dslash implementation declares.

The paper's software stack (QUDA under Chroma/MILC) separates the
*solver* layer — Krylov iterations, domain decomposition, precision
policy — from the *kernel* layer that actually evaluates the stencil on
a device.  This module is that seam for the reproduction: a
:class:`KernelBackend` wraps one implementation of the Wilson and/or
staggered hopping terms and declares, via :class:`KernelCapabilities`,
exactly what it can do (which operator families, whether it vectorizes a
leading multi-RHS batch axis, whether it is valid under the
interior/exterior split schedule, which complex dtypes it accepts).

Backends register with :mod:`repro.kernels.registry`; operators resolve
a name (``"auto"``, ``"c"``, ``"numpy"``, ...) to a backend once at
construction and route every ``_dslash`` through it.  A backend that
cannot run on this host still registers — with ``available`` False
and a human-readable ``unavailable_reason`` — so the capability matrix
(``python -m repro kernels``) and validation errors can say *why* a tier
cannot be selected instead of pretending it does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Operator families a backend may implement.  ``"wilson"`` covers the
#: Wilson and Wilson-clover hopping term (and, for a tier that runs the
#: lattice-last body, the whole matrix around it); ``"staggered"`` covers
#: the naive 1-hop and asqtad 1+3-hop derivative.
OPERATOR_FAMILIES = ("wilson", "staggered")


class KernelUnavailableError(ValueError):
    """A kernel backend was requested but cannot serve the request.

    Carries the list of backend names that *could* serve it, so callers
    (``validate_request``, the serve layer) can surface actionable
    choices in their field-named error messages.
    """

    def __init__(self, message: str, choices: tuple[str, ...] = ()):
        super().__init__(message)
        self.choices = tuple(choices)


@dataclass(frozen=True)
class KernelCapabilities:
    """What one backend's kernels can execute.

    Attributes
    ----------
    operators:
        Operator families served, from :data:`OPERATOR_FAMILIES`.
    batched:
        Accepts fields with a leading multi-RHS batch axis.
    split:
        Valid under the interior/exterior split schedule (the kernel
        must honor ``"zero"`` boundary cuts exactly, so ghost-zeroed and
        ghost-only applications sum to the fused result).
    dtypes:
        Complex dtype names the kernels accept (e.g. ``"complex128"``).
    packed:
        A Wilson-clover operator of this tier carries lattice-last links
        and its clover term in the tier's own form (the two chiral blocks,
        or what :meth:`KernelBackend.clover_pack` makes of them), in the
        storage dtype when stored, and applies M in one lattice-last body
        with the storage rounding inside (the tier runs that body); the
        others round around ``_apply``.
    """

    operators: tuple[str, ...]
    batched: bool = True
    split: bool = True
    dtypes: tuple[str, ...] = ("complex128", "complex64")
    packed: bool = False

    def supports_dtype(self, dtype) -> bool:
        return np.dtype(dtype).name in self.dtypes


class KernelBackend:
    """One dslash implementation tier.

    Subclasses set ``name``, ``priority`` and ``capabilities`` and
    implement the hop-term hooks for the families they declare.  The
    hooks receive the *operator* (which owns the gauge/link fields,
    boundary conditions and any per-operator caches) and the input
    field, and return the bare derivative term — ``D x`` for Wilson,
    ``D_IS x`` for staggered — exactly as the in-tree NumPy stencils do;
    scaling by ``-1/2`` and adding diagonal terms stays in the operator
    (whose lattice-last body a tier may take whole:
    :meth:`wilson_apply_sites`).
    """

    #: Registry key and the value of ``SolveRequest.kernel``.
    name: str = ""
    #: ``"auto"`` resolution picks the highest-priority available
    #: backend that supports the request; ties break by name.
    priority: int = 0
    capabilities: KernelCapabilities = KernelCapabilities(operators=())

    @property
    def available(self) -> bool:
        """Whether the backend can actually run on this host."""
        return True

    @property
    def unavailable_reason(self) -> str | None:
        """Why ``available`` is False (``None`` when available)."""
        return None

    # ------------------------------------------------------------------
    # hop-term hooks
    # ------------------------------------------------------------------
    def wilson_dslash(self, op, x: np.ndarray) -> np.ndarray:
        """Evaluate the Wilson hopping term ``D x`` (Eq. 2's stencil)."""
        raise NotImplementedError(
            f"backend {self.name!r} does not implement the wilson family"
        )

    def staggered_dslash(self, op, x: np.ndarray) -> np.ndarray:
        """Evaluate the staggered derivative ``D_IS x`` (Eq. 3)."""
        raise NotImplementedError(
            f"backend {self.name!r} does not implement the staggered family"
        )

    # ------------------------------------------------------------------
    # the Wilson family's lattice-last body: a tier with a core of its own
    # for the arrays at hand runs it; ``None`` hands them back to the
    # NumPy body, which any such core must equal bit for bit
    # ------------------------------------------------------------------
    def wilson_hop_sites(self, links, xs, batched: bool, boundary):
        """The 8-hop core of ``WilsonCloverOperator._hop_sites`` on the
        lattice-last field ``xs`` and link cache ``links``, or ``None``."""
        return None

    def wilson_apply_sites(
        self, links, chiral, diagonal: float, x, batched: bool, boundary,
        rounding, seconds,
    ):
        """All of ``WilsonCloverOperator._apply_sites`` on the caller's
        site-major field ``x`` — layout change and rounding in, the hops,
        ``-1/2 D x + diagonal x + A x`` (``chiral`` the clover term in the
        tier's own form, see ``clover_pack``, or ``None``), rounding and
        layout change out — or ``None``.
        ``seconds``, unless ``None``, is a float64 triple that gains the
        time spent converting, hopping and in the site-diagonal tail."""
        return None

    def quantize_half(self, array: np.ndarray, leading: bool = False):
        """``repro.precision.quantize_half`` of a Wilson field (site axes
        ``(4, 3)``, trailing or ``leading``), bit for bit, by a quantiser
        of the tier's own, or ``None``."""
        return None

    # ------------------------------------------------------------------
    # the form a Wilson-clover operator of this tier holds its clover term
    # in: ONE array per operator, the operand of the tier's own body, and
    # whatever else is wanted of the term is derived from it through these.
    # Here: the two chiral blocks, lattice-last, ``(2, 6, 6, [L,] T, Z, Y,
    # X)`` complex — what the NumPy bodies read.
    # ------------------------------------------------------------------
    #: The form's name: what the array is filed under in a configuration's
    #: state.
    clover_form: str = "chiral"

    def clover_pack(self, chirality, lattice, dtype) -> np.ndarray:
        """The held form on ``lattice`` (``([L,] T, Z, Y, X)``) from
        ``chirality(c)``, the ``(6, 6) + lattice`` blocks of chirality
        ``c``, cast to ``dtype``."""
        out = np.empty((2, 6, 6) + tuple(lattice), dtype)
        for c in (0, 1):
            out[c] = chirality(c)
        return out

    def clover_chirality(self, held: np.ndarray, lattice, c: int) -> np.ndarray:
        """The blocks ``(6, 6) + lattice`` of chirality ``c`` of the held
        form on ``lattice`` (a read-only view where they *are* the held
        form; expanded afresh, the caller's to drop, where not)."""
        return held[c]

    def clover_cast(self, held: np.ndarray, dtype) -> np.ndarray:
        """The held form of the blocks cast to the complex ``dtype`` (the
        array itself when that is its precision already)."""
        return np.ascontiguousarray(held, dtype=dtype)

    def clover_regions(self, held, op, origins, extents, dtype) -> np.ndarray:
        """The held form of ``op``'s clover term on same-shape regions of
        its lattice, side by side as lanes (``op``'s own lanes merged in,
        lane-major), cast to the complex ``dtype`` (``None``: as held)."""
        return op._region_stack(held, origins, extents, 3, dtype)

    def clover_lanes(self, held: np.ndarray, lanes) -> np.ndarray:
        """The given lanes of a lane stack's held form; one lane alone (an
        integer) as the term of an operator without lanes."""
        return np.take(held, lanes, axis=3)

    # ------------------------------------------------------------------
    def supports(self, operator: str | None = None) -> bool:
        """Whether this backend serves the given operator family."""
        return operator is None or operator in self.capabilities.operators

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "available" if self.available else "unavailable"
        return f"<KernelBackend {self.name!r} ({state})>"


__all__ = [
    "KernelBackend",
    "KernelCapabilities",
    "KernelUnavailableError",
    "OPERATOR_FAMILIES",
]
