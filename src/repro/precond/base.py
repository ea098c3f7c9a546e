"""The preconditioner protocol: what a Schwarz-family entry declares.

The paper hard-wires one preconditioner — the non-overlapping additive
Schwarz (block Jacobi) of Secs. 3.2/8.1 — into its GCR-DD solver.  Its
conclusions, and the multi-splitting literature it points at
(Osaki–Ishikawa arXiv:1011.3318, Tu et al. arXiv:2104.05615), treat the
preconditioner as a *family*: overlapping domains, multiple blocking
levels, weighted splittings.  This module is the seam that makes the
family pluggable, structurally mirroring the kernel-backend protocol of
:mod:`repro.kernels.base` one layer up the solver stack.

A :class:`PrecondEntry` wraps one preconditioner construction and
declares, via :class:`PrecondCapabilities`, exactly what it can do:
which operator families it serves (``"wilson"`` / ``"staggered"``),
whether it vectorizes a leading multi-RHS batch axis, whether it can be
applied *rank-locally* under the SPMD execution model (zero inter-rank
data movement — the property the paper's Schwarz preconditioner is
built around), whether it uses overlapping domains, and which block
storage precisions its dtype policy admits.

Entries register with :mod:`repro.precond.registry`; the solvers and the
request validators resolve a name (``"auto"``, ``"schwarz"``, ``"ras"``,
``"multisplit"``, ``"none"``) to an entry once and build
the live preconditioner through :meth:`PrecondEntry.build`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.precision import HALF, Precision

#: Operator families an entry may serve (same vocabulary as
#: :data:`repro.kernels.base.OPERATOR_FAMILIES`): ``"wilson"`` covers
#: Wilson/Wilson-clover, ``"staggered"`` the naive/asqtad operators and
#: their normal form.
OPERATOR_FAMILIES = ("wilson", "staggered")


class PrecondUnavailableError(ValueError):
    """A preconditioner was requested but cannot serve the request.

    Carries the entry names that *could* serve it, so callers
    (``validate_request``, the serve layer, the CLI) can surface
    actionable choices in their field-named error messages.
    """

    def __init__(self, message: str, choices: tuple[str, ...] = ()):
        super().__init__(message)
        self.choices = tuple(choices)


@dataclass(frozen=True)
class PrecondCapabilities:
    """What one entry's preconditioner can execute.

    Attributes
    ----------
    operators:
        Operator families served, from :data:`OPERATOR_FAMILIES`.
    batched:
        Accepts residuals with a leading multi-RHS batch axis.
    spmd:
        Can be applied *rank-locally*: each rank preconditions its own
        block with zero inter-rank data movement, so the SPMD rank
        programs can host it.
        Overlapping-domain entries need neighbor data to assemble their
        extended residuals and therefore declare ``False``.
    overlapping:
        Uses overlapping domains (honors the ``overlap`` setting).
    dtypes:
        Block-solve storage precisions the entry's dtype policy admits
        (names from :mod:`repro.precision`).
    """

    operators: tuple[str, ...]
    batched: bool = True
    spmd: bool = False
    overlapping: bool = False
    dtypes: tuple[str, ...] = ("half", "single", "double")

    def supports_precision(self, precision: Precision | None) -> bool:
        """Whether the block solve may be stored in ``precision``
        (``None`` — working precision — is always admissible)."""
        return precision is None or precision.name in self.dtypes


@dataclass(frozen=True)
class PrecondSettings:
    """The tunable knobs every entry's :meth:`~PrecondEntry.build` sees.

    Mirrors the ``precond_*`` fields of
    :class:`repro.core.gcrdd.GCRDDConfig`:

    Attributes
    ----------
    steps:
        Block-solver (MR) steps per application (paper: 10).
    omega:
        MR relaxation parameter.
    overlap:
        Sites each domain is grown into its neighbors (overlapping
        entries only; ignored by non-overlapping ones).
    precision:
        Storage precision of the block solve; the paper runs it
        "exclusively ... in half precision".  ``None`` = working
        precision.
    """

    steps: int = 10
    omega: float = 1.0
    overlap: int = 1
    precision: Precision | None = HALF


class PrecondEntry:
    """One preconditioner family member.

    Subclasses set ``name``, ``priority`` and ``capabilities`` and
    implement :meth:`build`, which constructs the live preconditioner —
    a callable mapping a residual to an approximate error, exactly the
    contract :func:`repro.solvers.gcr.gcr` and
    :func:`repro.solvers.cg.pcg` expect — or ``None`` for the identity
    ("no preconditioner").
    """

    #: Registry key and the value of ``SolveRequest.precond``.
    name: str = ""
    #: ``"auto"`` resolution picks the highest-priority available entry
    #: that supports the request; ties break by name.
    priority: int = 0
    capabilities: PrecondCapabilities = PrecondCapabilities(operators=())
    #: The :func:`repro.util.counters.record_operator` tag the built
    #: preconditioner charges per application ("" = records nothing).
    record_name: str = ""

    @property
    def available(self) -> bool:
        """Whether the entry can actually run on this host."""
        return True

    @property
    def unavailable_reason(self) -> str | None:
        """Why ``available`` is False (``None`` when available)."""
        return None

    # ------------------------------------------------------------------
    def build(self, op, partition, settings: PrecondSettings):
        """Construct the live preconditioner for one operator/partition.

        Args:
            op: The *global* operator M the outer solver iterates on.
            partition: The :class:`~repro.multigpu.partition.BlockPartition`
                whose blocks the domains are built from.
            settings: The :class:`PrecondSettings` knobs.

        Returns:
            A callable ``K(r) -> z`` (``z ~= M^{-1} r``), or ``None``
            for the identity preconditioner.
        """
        raise NotImplementedError(
            f"entry {self.name!r} does not implement build()"
        )

    # ------------------------------------------------------------------
    def supports(self, operator: str | None = None) -> bool:
        """Whether this entry serves the given operator family."""
        return operator is None or operator in self.capabilities.operators

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "available" if self.available else "unavailable"
        return f"<PrecondEntry {self.name!r} ({state})>"


__all__ = [
    "OPERATOR_FAMILIES",
    "PrecondCapabilities",
    "PrecondEntry",
    "PrecondSettings",
    "PrecondUnavailableError",
]
