"""High-level solve entry point — the "QUDA interface" of this library.

One call serves every operator and execution path: build a
:class:`SolveRequest` describing the system (operator kind, gauge field,
right-hand side(s), method, precisions, tolerances) and hand it to
:func:`solve`.  The request's ``rhs`` may be a single field or carry a
leading multi-RHS axis, in which case the batched execution path is used
end-to-end: one stencil application, one reduction, and one halo message
per neighbor serve all right-hand sides at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.dirac.base import BoundarySpec, PERIODIC
from repro.dirac.evenodd import EvenOddPreconditionedWilson
from repro.dirac.wilson import WilsonCloverOperator
from repro.kernels import KernelUnavailableError, resolve_kernel
from repro.metrics.solve_report import build_solve_report
from repro.precision import Precision
from repro.precond import (
    AUTO,
    PrecondSettings,
    PrecondUnavailableError,
    precond_choices,
    resolve_precond,
)
from repro.solvers.base import SolverResult
from repro.solvers.multirhs import (
    BatchedSolverResult,
    batched_bicgstab,
    batched_cg,
    batched_defect_correction,
    batched_pcg,
    solve_lanes,
)
from repro.solvers.space import STAGGERED_SPACE, batched_space_for_nspin

# What only some routes run is imported in the branch that runs it, so a
# Wilson BiCGstab solve (and the serve daemon's boot) compiles no GCR-DD,
# domain decomposition, staggered, multi-shift or mixed-precision module.
if TYPE_CHECKING:
    from repro.comm.grid import ProcessGrid
    from repro.core.gcrdd import GCRDDConfig
    from repro.dirac.staggered import AsqtadOperator
    from repro.gauge.asqtad import AsqtadLinks
    from repro.lattice.fields import GaugeField
    from repro.solvers.refine import MultishiftRefineResult

_DEFAULT_TOL = 1e-8
_MULTISHIFT_TOL = 1e-10
_DEFAULT_MAXITER = 2000

_OPERATORS = ("wilson_clover", "asqtad", "asqtad_multishift")
#: The methods each operator takes.
METHODS = {
    "wilson_clover": ("auto", "bicgstab", "gcr-dd"),
    "asqtad": ("auto", "cg"),
    "asqtad_multishift": ("auto",),
}
#: What ``method="auto"`` runs, per operator with a choice of method.
DEFAULT_METHOD = {
    "wilson_clover": "bicgstab",
    "asqtad": "cg",
}
_BACKENDS = ("sequential", "threads", "processes")
_SCHEDULES = ("auto", "fused", "split")

#: Kernel family each operator's stencil (and preconditioner) resolves
#: against.
KERNEL_FAMILY = {
    "wilson_clover": "wilson",
    "asqtad": "staggered",
    "asqtad_multishift": "staggered",
}


@dataclass
class SolveRequest:
    """Everything :func:`solve` needs to produce a solution.

    Parameters
    ----------
    operator:
        ``"wilson_clover"`` (Eq. 2), ``"asqtad"`` (Eq. 3, solved through
        the normal equations), or ``"asqtad_multishift"`` (Eq. 4).
    gauge:
        Thin-link :class:`GaugeField`, or prebuilt :class:`AsqtadLinks`
        for the staggered operators.
    rhs:
        Right-hand side(s): a single spinor field, or an array with one
        extra leading axis batching N right-hand sides.  A batched rhs
        selects the multi-RHS execution path and yields a
        :class:`~repro.solvers.multirhs.BatchedSolverResult`.
    method:
        ``"auto"`` picks the operator's default (BiCGstab for
        Wilson-clover, CG for asqtad, multi-shift CG + refinement for
        asqtad_multishift); or name one of ``"bicgstab"``, ``"cg"``,
        ``"gcr-dd"`` (Wilson-clover, requires ``grid``).
    tol, maxiter:
        ``None`` means "whatever the method's config or defaults say" —
        the caller's ``config`` object is never mutated; explicit values
        override via a copy.
    inner_precision:
        When set, run the work-horse iteration in this precision with
        high-precision reliable updates (ignored by ``"gcr-dd"``, whose
        :class:`GCRDDConfig` policy already fixes all three precisions).
    even_odd:
        Wilson-clover BiCGstab only: solve the red-black Schur system on
        half-lattice fields and reconstruct the full solution.  ``"auto"``
        (the default) resolves once, in :func:`solve`, to ``True`` for a
        Wilson-clover BiCGstab solve (with or without
        ``inner_precision``) and ``False`` otherwise
        (:func:`resolve_even_odd`); ``True`` / ``False`` say it outright.
        ``tol`` stays a guarantee on the full system: each lane stops at
        ``tol * |b| / |bhat|`` of the Schur one, whose residual IS the full
        one (zero on the odd sites), and the reported residual is the full
        system's.
    shifts:
        Required for ``"asqtad_multishift"``.
    backend:
        ``"gcr-dd"`` only: run the solve as SPMD rank programs under the
        named execution backend (``"sequential"``, ``"threads"``, or
        ``"processes"`` — see :mod:`repro.comm.backends`) instead of the
        default global-array :class:`GCRDDSolver`.  All backends are
        bit-identical to one another; ``"processes"`` actually runs the
        ranks on separate cores.
    overlap:
        SPMD ``"gcr-dd"`` only (requires ``backend``): run the overlapped
        halo schedule — pre-posted receives, interior kernel while faces
        are in flight, per-dimension exterior completion (Fig. 4).
        Bit-identical to the blocking path; the measured overlap fraction
        lands in the solve report.
    kernel:
        Dslash kernel backend: ``"auto"`` (highest-priority available
        tier — the compiled ``"c"`` tier for Wilson where the host can
        build it, NumPy otherwise and for staggered), or a concrete
        registered name (``"c"``, ``"numpy"``, ``"numpy_ref"``; the
        first and last serve Wilson only).  Resolved through
        :func:`repro.kernels.resolve_kernel`; requesting an unavailable
        tier fails validation with the available choices listed.
    schedule:
        Rank-program stencil schedule for SPMD ``"gcr-dd"`` solves:
        ``"fused"`` applies the whole stencil after the halo exchange,
        ``"split"`` applies interior/exterior kernels separately (the
        overlap-capable decomposition; implied by ``overlap=True``).
        ``"auto"`` picks ``"split"`` when overlapping, else ``"fused"``.
    precond:
        Preconditioner, resolved through the
        :mod:`repro.precond` registry: ``"auto"`` (the registry's
        highest-priority entry for the operator family — Schwarz for
        ``"gcr-dd"``, none for plain asqtad CG, preserving those paths
        bit-for-bit), or a concrete name — ``"schwarz"``, ``"ras"``,
        ``"multisplit"``, ``"none"``.  Only meaningful
        for ``"gcr-dd"`` (Wilson-clover) and ``"cg"`` (asqtad, requires
        ``grid`` for the block partition); other methods accept only
        ``"auto"``/``"none"``.  Requesting an entry that is unavailable
        or does not support the execution mode (e.g. overlapping
        entries under an SPMD backend) fails validation with the
        usable choices listed.
    precond_steps:
        Block-solve iteration count for the preconditioner (MR steps
        per domain).  ``None`` defers to the config/registry default.
    precond_overlap:
        Domain overlap depth in sites for the overlapping entries
        (``"ras"``, ``"multisplit"``); ignored by the rest.  ``None``
        defers to the default (1).
    """

    operator: str
    gauge: "GaugeField | AsqtadLinks"
    rhs: np.ndarray
    mass: float
    csw: float = 1.0
    method: str = "auto"
    tol: float | None = None
    maxiter: int | None = None
    boundary: BoundarySpec = PERIODIC
    grid: ProcessGrid | None = None
    config: GCRDDConfig | None = None
    even_odd: bool | str = "auto"
    inner_precision: Precision | None = None
    u0: float = 1.0
    shifts: Sequence[float] | None = None
    backend: str | None = None
    overlap: bool = False
    kernel: str = "auto"
    schedule: str = "auto"
    precond: str = "auto"
    precond_steps: int | None = None
    precond_overlap: int | None = None


class SolveRequestError(ValueError):
    """An invalid :class:`SolveRequest`: ``SolveRequest.<field>:
    <problem>[; valid choices: ...]``, with ``field``, ``problem`` and
    ``choices`` (``None`` outside a closed set) kept for callers that
    restate the error (the serve wire's 400)."""

    def __init__(self, field: str, problem: str, choices=None):
        """The error for ``SolveRequest.<field>``.

        Args:
            field: The offending request field's name.
            problem: What is wrong with it.
            choices: The valid values of a closed set, or ``None``.
        """
        text = f"SolveRequest.{field}: {problem}"
        if choices:
            text += f"; valid choices: {', '.join(choices)}"
        super().__init__(text)
        self.field = field
        self.problem = problem
        self.choices = tuple(choices) if choices else None


def resolve_even_odd(request: SolveRequest) -> bool:
    """Whether ``request`` solves the even-odd Schur system: ``even_odd``
    itself when it is a bool; for ``"auto"``, whether it is a Wilson-clover
    BiCGstab solve (the Schur system's own method; GCR-DD and the staggered
    operators solve the full system)."""
    if request.even_odd != AUTO:
        return request.even_odd
    method = request.method
    if method == AUTO:
        method = DEFAULT_METHOD.get(request.operator)
    return request.operator == "wilson_clover" and method == "bicgstab"


def _invalid(field_: str, message: str, choices=None) -> SolveRequestError:
    """A validation error naming the offending ``SolveRequest`` field."""
    return SolveRequestError(field_, message, choices)


def validate_request(request: SolveRequest) -> None:
    """Check a :class:`SolveRequest` for schema-level mistakes up front.

    Runs automatically at the top of :func:`solve`; callers composing
    requests programmatically (the serving layer, notebooks) may also
    call it directly to fail fast without building operators.

    Args:
        request: The request to check.  Only the declarative knobs are
            examined (operator/method names, flag combinations, numeric
            ranges) — gauge/rhs *contents* are validated by the
            operators themselves.

    Raises:
        SolveRequestError: Any invalid field (a ``ValueError``).  The
            message names the field (``SolveRequest.<field>: ...``) and,
            where the value comes from a closed set, lists the valid
            choices; ``field`` and ``choices`` carry the same.
    """
    if request.operator not in _OPERATORS:
        raise _invalid(
            "operator",
            f"unknown operator {request.operator!r}",
            _OPERATORS,
        )
    methods = METHODS[request.operator]
    if request.method not in methods:
        raise _invalid(
            "method",
            f"unknown method {request.method!r} for {request.operator}",
            methods,
        )
    if request.backend is not None:
        if request.backend not in _BACKENDS:
            raise _invalid(
                "backend",
                f"unknown backend {request.backend!r}",
                _BACKENDS,
            )
        if request.method != "gcr-dd":
            raise _invalid(
                "backend", "backend= is only meaningful for method='gcr-dd'"
            )
    if request.overlap:
        if request.method != "gcr-dd":
            raise _invalid(
                "overlap", "overlap= is only meaningful for method='gcr-dd'"
            )
        if request.backend is None:
            raise _invalid(
                "overlap",
                "overlap=True needs an SPMD backend "
                "(backend='sequential'/'threads'/'processes'); the "
                "global-view driver has no overlapped schedule",
            )
    try:
        resolve_kernel(
            request.kernel, operator=KERNEL_FAMILY[request.operator]
        )
    except KernelUnavailableError as exc:
        raise _invalid("kernel", str(exc), exc.choices) from None
    if request.schedule not in _SCHEDULES:
        raise _invalid(
            "schedule",
            f"unknown schedule {request.schedule!r}",
            _SCHEDULES,
        )
    if request.schedule != "auto":
        if request.method != "gcr-dd" or request.backend is None:
            raise _invalid(
                "schedule",
                "an explicit schedule= is only meaningful for "
                "method='gcr-dd' with an SPMD backend",
                _SCHEDULES,
            )
        if request.overlap and request.schedule == "fused":
            raise _invalid(
                "schedule",
                "overlap=True runs the interior/exterior split; "
                "use schedule='auto' or 'split'",
            )
    preconditioned = (
        request.operator == "wilson_clover" and request.method == "gcr-dd"
    ) or (request.operator == "asqtad" and request.method in ("auto", "cg"))
    # A name no entry registers is refused first, whatever the method (the
    # wire's order): the registry's refusal below names it.
    if (
        request.precond in precond_choices()
        and request.precond not in ("auto", "none")
        and not preconditioned
    ):
        raise _invalid(
            "precond",
            f"precond={request.precond!r} is only meaningful for "
            "method='gcr-dd' (wilson_clover) or method='cg' (asqtad)",
            ("auto", "none"),
        )
    try:
        resolve_precond(
            request.precond,
            operator=KERNEL_FAMILY[request.operator],
            spmd=request.backend is not None,
        )
    except PrecondUnavailableError as exc:
        raise _invalid("precond", str(exc), exc.choices) from None
    if (
        request.operator == "asqtad"
        and request.precond not in ("auto", "none")
        and request.grid is None
    ):
        raise _invalid(
            "grid",
            "a preconditioned asqtad cg solve needs a process grid "
            "(the preconditioner's block partition)",
        )
    if request.precond_steps is not None and request.precond_steps <= 0:
        raise _invalid(
            "precond_steps", f"must be > 0, got {request.precond_steps!r}"
        )
    if request.precond_overlap is not None and request.precond_overlap < 0:
        raise _invalid(
            "precond_overlap",
            f"must be >= 0, got {request.precond_overlap!r}",
        )
    if (
        request.operator == "asqtad"
        and request.precond not in ("auto", "none")
        and request.inner_precision is not None
    ):
        raise _invalid(
            "inner_precision",
            "cannot combine reliable-update inner_precision= with a "
            "preconditioned asqtad cg solve; the preconditioner already "
            "carries the low-precision work",
        )
    if request.method == "gcr-dd" and request.grid is None:
        raise _invalid(
            "grid", "gcr-dd needs a process grid (the Schwarz blocks)"
        )
    if request.operator == "asqtad_multishift" and request.shifts is None:
        raise _invalid("shifts", "asqtad_multishift needs shifts")
    if not (isinstance(request.even_odd, bool) or request.even_odd == AUTO):
        raise _invalid(
            "even_odd",
            f"must be 'auto', True or False, got {request.even_odd!r}",
        )
    if request.even_odd is True and request.operator != "wilson_clover":
        raise _invalid(
            "even_odd", "is only meaningful for operator='wilson_clover'"
        )
    if request.even_odd is True and request.method == "gcr-dd":
        raise _invalid(
            "even_odd",
            "is not applied by method='gcr-dd' (it selects the red-black "
            "BiCGstab solve); for GCR-DD on the Schur system build "
            "GCRDDSolver over EvenOddPreconditionedWilson yourself",
        )
    if request.tol is not None and request.tol <= 0:
        raise _invalid("tol", f"must be > 0, got {request.tol!r}")
    if request.maxiter is not None and request.maxiter <= 0:
        raise _invalid("maxiter", f"must be > 0, got {request.maxiter!r}")
    if request.u0 <= 0:
        raise _invalid("u0", f"must be > 0, got {request.u0!r}")


def resolve_request_precond(request: SolveRequest, batched: bool = False):
    """The precond registry entry a Wilson ``bicgstab`` or asqtad ``cg``
    solve of ``request`` runs.

    ``"auto"`` keeps those methods' plain Krylov path bit for bit (the
    identity entry, ``"none"``); a concrete name resolves through the
    registry, which with ``batched=True`` refuses an entry that cannot
    take a batch of right-hand sides.

    Raises:
        PrecondUnavailableError: The entry cannot serve the solve; its
            ``choices`` name the entries that can.
    """
    name = "none" if request.precond == AUTO else request.precond
    return resolve_precond(
        name, operator=KERNEL_FAMILY[request.operator], batched=batched
    )


def _resolved(value, default):
    return default if value is None else value


def _rel_residuals(r, b, lead: int):
    """Relative true residual(s) ``|r| / |b|`` of the residual ``r`` of
    the source ``b``: a float, or a ``(B,)`` array if batched.  0 for a
    zero source; NaN for one whose norm is not finite (it overflows, or
    holds a NaN), which has no relative residual.  A single source is the
    batch of one: the norms are NumPy's per-row sums either way, never the
    host BLAS's dot (whose threads would contend with the solve's)."""
    nb = b.shape[0] if lead else 1
    # The norms overflow quietly: that lane's answer is the NaN.
    with np.errstate(over="ignore"):
        rn = np.linalg.norm(r.reshape(nb, -1), axis=1)
        bn = np.linalg.norm(b.reshape(nb, -1), axis=1)
        usable = np.isfinite(bn) & (bn > 0.0)
        rel = rn / np.where(usable, bn, 1.0)
    rel = np.where(usable, rel, np.where(bn == 0.0, 0.0, np.nan))
    return rel if lead else float(rel[0])


def _gcrdd_config(request: SolveRequest) -> GCRDDConfig:
    """The solver config, honoring the caller's object without mutating it.

    Only fields the caller explicitly set on the request override the
    config (via a copy) — passing ``config=`` plus the default
    ``tol=None`` leaves the config's own tolerance in charge.
    """
    from repro.core.gcrdd import GCRDDConfig

    base = request.config or GCRDDConfig()
    overrides = {}
    if request.tol is not None:
        overrides["tol"] = float(request.tol)
    if request.maxiter is not None:
        overrides["maxiter"] = int(request.maxiter)
    if request.precond != "auto":
        overrides["precond"] = request.precond
    if request.precond_steps is not None:
        overrides["precond_steps"] = int(request.precond_steps)
    if request.precond_overlap is not None:
        overrides["precond_overlap"] = int(request.precond_overlap)
    return replace(base, **overrides) if overrides else base


def _solve_wilson(request: SolveRequest):
    b = np.asarray(request.rhs)
    method = request.method
    if method == "auto":
        method = DEFAULT_METHOD[request.operator]
    if method == "gcr-dd" and request.backend is not None:
        from repro.core.spmd import SPMDGCRDDSolver

        # The rank solver builds its own operator (and clover field).
        return SPMDGCRDDSolver(
            request.gauge, request.mass, request.csw, request.grid,
            boundary=request.boundary, config=_gcrdd_config(request),
            backend=request.backend, overlap=request.overlap,
            kernel=request.kernel, schedule=request.schedule,
        ).solve(b)

    op = WilsonCloverOperator(
        request.gauge, mass=request.mass, csw=request.csw,
        boundary=request.boundary, kernel=request.kernel,
    )
    if method == "gcr-dd":
        from repro.core.gcrdd import GCRDDSolver

        return GCRDDSolver(op, request.grid, _gcrdd_config(request)).solve(b)

    lead = op.field_lead(b)
    tol = _resolved(request.tol, _DEFAULT_TOL)
    maxiter = _resolved(request.maxiter, _DEFAULT_MAXITER)
    space = batched_space_for_nspin(4)
    prec = request.inner_precision

    def run(target_op, rhs, tol):
        # One loop for one right-hand side or many (a single one is the
        # batch of one): a served lane is its solo solve.
        if prec is not None:
            from repro.solvers.mixed import BICGSTAB_INNER_TOL

            return solve_lanes(
                batched_defect_correction, target_op, rhs, lead=lead,
                inner_solver=batched_bicgstab, inner_precision=prec, tol=tol,
                inner_tol=BICGSTAB_INNER_TOL, inner_maxiter=maxiter,
                space=space,
            )
        return solve_lanes(batched_bicgstab, target_op, rhs, lead=lead,
                           tol=tol, maxiter=maxiter, space=space)

    if not request.even_odd:
        return run(op.apply, b, tol)
    eo = EvenOddPreconditionedWilson(op)
    b_hat = eo.prepare_rhs(b)
    # The full residual is the Schur one on the even sites (and zero on
    # the odd ones), so |r| <= tol |b| is a per-lane Schur threshold.
    # A source whose norm overflows gets a NaN threshold, quietly: its
    # lane iterates until a reduction says it is not finite.
    rows = b.shape[0] if lead else 1
    with np.errstate(over="ignore", invalid="ignore"):
        b_norm, hat_norm = (
            np.linalg.norm(v.reshape(rows, -1), axis=1) for v in (b, b_hat)
        )
        schur_tol = tol * b_norm / np.where(hat_norm > 0.0, hat_norm, 1.0)
    # the operator itself, whose fused BiCGstab steps the loop may take
    res = run(eo, b_hat, schur_tol)
    res.x, r = eo.reconstruct_residual(res.x, b)
    rel = _rel_residuals(r, b, lead)
    if lead:
        res.residuals = rel
    else:
        res.residual = rel
    return res


def _asqtad_operator(
    source: "GaugeField | AsqtadLinks",
    mass: float,
    boundary: BoundarySpec,
    u0: float,
    kernel: str = "auto",
) -> AsqtadOperator:
    from repro.dirac.staggered import AsqtadOperator
    from repro.gauge.asqtad import build_asqtad_links
    from repro.lattice.fields import GaugeField

    links = (
        build_asqtad_links(source, u0=u0)
        if isinstance(source, GaugeField)
        else source
    )
    return AsqtadOperator(links, mass=mass, boundary=boundary, kernel=kernel)


def _solve_asqtad(request: SolveRequest):
    from repro.dirac.staggered import StaggeredNormalOperator

    op = _asqtad_operator(
        request.gauge, request.mass, request.boundary, request.u0,
        kernel=request.kernel,
    )
    normal = StaggeredNormalOperator(op)
    b = np.asarray(request.rhs)
    lead = op.field_lead(b)
    tol = _resolved(request.tol, _DEFAULT_TOL)
    maxiter = _resolved(request.maxiter, _DEFAULT_MAXITER)
    rhs = op.apply_dagger(b)
    space = batched_space_for_nspin(1)
    prec = request.inner_precision
    # "auto" keeps the historical plain-CG path bit-for-bit; a concrete
    # entry routes through the flexible multi-splitting-capable PCG.
    entry = resolve_request_precond(request, batched=bool(lead))

    if entry.name != "none":
        from repro.multigpu.partition import BlockPartition

        settings = PrecondSettings(
            steps=(
                10
                if request.precond_steps is None
                else int(request.precond_steps)
            ),
            overlap=(
                1
                if request.precond_overlap is None
                else int(request.precond_overlap)
            ),
        )
        preconditioner = entry.build(
            normal, BlockPartition(op.geometry, request.grid), settings
        )
        res = solve_lanes(
            batched_pcg, normal.apply, rhs, lead=lead,
            preconditioner=preconditioner, tol=tol, maxiter=maxiter,
            space=space,
        )
        res.extras["precond"] = entry.name
    elif prec is None:
        res = solve_lanes(batched_cg, normal.apply, rhs, lead=lead, tol=tol,
                          maxiter=maxiter, space=space)
    else:
        from repro.solvers.mixed import CG_INNER_TOL

        res = solve_lanes(
            batched_defect_correction, normal.apply, rhs, lead=lead,
            inner_solver=batched_cg, inner_precision=prec, tol=tol,
            inner_tol=CG_INNER_TOL, inner_maxiter=maxiter, space=space,
        )
    rel = _rel_residuals(b - op.apply(res.x), b, lead)
    if lead:
        res.residuals = rel
    else:
        res.residual = rel
    return res


def _solve_asqtad_multishift(request: SolveRequest) -> MultishiftRefineResult:
    from repro.dirac.staggered import StaggeredNormalOperator
    from repro.solvers.refine import multishift_with_refinement

    b = np.asarray(request.rhs)
    op = _asqtad_operator(
        request.gauge, request.mass, request.boundary, request.u0,
        kernel=request.kernel,
    )
    if op.field_lead(b):
        raise ValueError("asqtad_multishift does not support a batched rhs")
    tol = _resolved(request.tol, _MULTISHIFT_TOL)
    maxiter = _resolved(request.maxiter, _DEFAULT_MAXITER)

    def factory(sigma: float):
        return StaggeredNormalOperator(op, sigma).apply

    return multishift_with_refinement(
        factory, b, list(request.shifts), tol=tol, maxiter=maxiter,
        space=STAGGERED_SPACE,
    )


#: One solver routine per operator (``validate_request`` has already
#: rejected anything outside ``_OPERATORS``).
_DISPATCH = {
    "wilson_clover": _solve_wilson,
    "asqtad": _solve_asqtad,
    "asqtad_multishift": _solve_asqtad_multishift,
}


def solve(
    request: SolveRequest,
) -> "SolverResult | BatchedSolverResult | MultishiftRefineResult":
    """Solve the system described by ``request``.

    Every result carries the flight-recorder artifact on ``.report``: a
    :class:`~repro.metrics.SolveReport` assembled from the solve's own
    tally (per-rank waits included under the SPMD backends) and wall
    time — see docs/observability.md.  The solve runs under a nested
    tally, so a caller's enclosing :func:`~repro.util.counters.tally`
    still observes everything.

    Args:
        request: The fully-described system (see :class:`SolveRequest`
            for the field semantics).  Validated by
            :func:`validate_request` before any operator is built.

    Returns:
        A :class:`~repro.solvers.base.SolverResult` for a single
        right-hand side, a
        :class:`~repro.solvers.multirhs.BatchedSolverResult` when
        ``rhs`` carries a leading batch axis, and a
        :class:`~repro.solvers.refine.MultishiftRefineResult` for
        ``asqtad_multishift``.

    Raises:
        ValueError: An invalid request; the message names the offending
            field (``SolveRequest.<field>: ...``) and, for closed sets
            (operator, method, backend), the valid choices.
    """
    from repro.kernels.c_backend import solve_team
    from repro.util.counters import tally

    validate_request(request)
    request = replace(request, even_odd=resolve_even_odd(request))
    start = time.perf_counter()
    # one team of helper threads for the solve's compiled even-odd calls,
    # joined before this returns or raises
    with tally() as t, solve_team():
        result = _DISPATCH[request.operator](request)
    result.report = build_solve_report(
        request, result, t, time.perf_counter() - start
    )
    return result

