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
from typing import Sequence

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.core.gcrdd import GCRDDConfig, GCRDDSolver
from repro.dirac.base import BoundarySpec, PERIODIC
from repro.dirac.evenodd import EvenOddPreconditionedWilson
from repro.dirac.staggered import AsqtadOperator, StaggeredNormalOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.gauge.asqtad import AsqtadLinks, build_asqtad_links
from repro.kernels import KernelUnavailableError, resolve_kernel
from repro.lattice.fields import GaugeField
from repro.metrics.registry import metrics_scope
from repro.metrics.solve_report import build_solve_report
from repro.precision import Precision
from repro.precond import (
    PrecondSettings,
    PrecondUnavailableError,
    resolve_precond,
)
from repro.solvers.base import SolverResult
from repro.solvers.bicgstab import bicgstab
from repro.solvers.cg import cg, pcg
from repro.solvers.mixed import mixed_precision_bicgstab, mixed_precision_cg
from repro.solvers.multirhs import (
    BatchedSolverResult,
    batched_bicgstab,
    batched_cg,
    batched_defect_correction,
    batched_pcg,
)
from repro.solvers.refine import MultishiftRefineResult, multishift_with_refinement
from repro.solvers.space import (
    STAGGERED_SPACE,
    WILSON_SPACE,
    batched_space_for_nspin,
)

_DEFAULT_TOL = 1e-8
_MULTISHIFT_TOL = 1e-10
_DEFAULT_MAXITER = 2000

_OPERATORS = ("wilson_clover", "asqtad", "asqtad_multishift")
_METHODS = {
    "wilson_clover": ("auto", "bicgstab", "gcr-dd"),
    "asqtad": ("auto", "cg"),
    "asqtad_multishift": ("auto",),
}
_BACKENDS = ("sequential", "threads", "processes")
_SCHEDULES = ("auto", "fused", "split")

#: Kernel family each operator's stencil resolves against.
_KERNEL_FAMILY = {
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
        Wilson-clover BiCGstab only: solve the red-black Schur system
        and reconstruct the full solution.
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
        ``"twolevel"``, ``"multisplit"``, ``"none"``.  Only meaningful
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
    even_odd: bool = False
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


def _invalid(field_: str, message: str, choices=None) -> ValueError:
    """A validation error whose message names the offending
    ``SolveRequest`` field and, for closed sets, the valid choices."""
    text = f"SolveRequest.{field_}: {message}"
    if choices:
        text += f"; valid choices: {', '.join(choices)}"
    return ValueError(text)


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
        ValueError: Any invalid field.  The message names the field
            (``SolveRequest.<field>: ...``) and, where the value comes
            from a closed set, lists the valid choices.
    """
    if request.operator not in _OPERATORS:
        raise _invalid(
            "operator",
            f"unknown operator {request.operator!r}",
            _OPERATORS,
        )
    methods = _METHODS[request.operator]
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
            request.kernel, operator=_KERNEL_FAMILY[request.operator]
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
    if request.precond not in ("auto", "none") and not preconditioned:
        raise _invalid(
            "precond",
            f"precond={request.precond!r} is only meaningful for "
            "method='gcr-dd' (wilson_clover) or method='cg' (asqtad)",
            ("auto", "none"),
        )
    try:
        resolve_precond(
            request.precond,
            operator=_KERNEL_FAMILY[request.operator],
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
    if request.even_odd and request.operator != "wilson_clover":
        raise _invalid(
            "even_odd", "is only meaningful for operator='wilson_clover'"
        )
    if request.even_odd and request.method == "gcr-dd":
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


def _resolved(value, default):
    return default if value is None else value


def _rel_residuals(op, x, b, lead: int):
    """Relative true residual(s): a float, or a ``(B,)`` array if batched."""
    r = b - op.apply(x)
    if lead:
        nb = b.shape[0]
        rn = np.linalg.norm(r.reshape(nb, -1), axis=1)
        bn = np.linalg.norm(b.reshape(nb, -1), axis=1)
        return np.where(bn > 0.0, rn / np.where(bn == 0.0, 1.0, bn), 0.0)
    bn = np.linalg.norm(b)
    return float(np.linalg.norm(r) / bn) if bn else 0.0


def _gcrdd_config(request: SolveRequest) -> GCRDDConfig:
    """The solver config, honoring the caller's object without mutating it.

    Only fields the caller explicitly set on the request override the
    config (via a copy) — passing ``config=`` plus the default
    ``tol=None`` leaves the config's own tolerance in charge.
    """
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
    method = "bicgstab" if request.method == "auto" else request.method
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
        return GCRDDSolver(op, request.grid, _gcrdd_config(request)).solve(b)

    lead = op.field_lead(b)
    tol = _resolved(request.tol, _DEFAULT_TOL)
    maxiter = _resolved(request.maxiter, _DEFAULT_MAXITER)
    space = batched_space_for_nspin(4) if lead else WILSON_SPACE
    prec = request.inner_precision

    def run(target_op, rhs):
        if prec is not None:
            if lead:
                return batched_defect_correction(
                    target_op, rhs, batched_bicgstab, prec,
                    tol=tol, inner_maxiter=maxiter, space=space,
                )
            return mixed_precision_bicgstab(
                target_op, rhs, prec, tol=tol,
                inner_maxiter=maxiter, space=space,
            )
        solver = batched_bicgstab if lead else bicgstab
        return solver(target_op, rhs, tol=tol, maxiter=maxiter, space=space)

    if request.even_odd:
        eo = EvenOddPreconditionedWilson(op)
        res = run(eo.apply, eo.prepare_rhs(b))
        res.x = eo.reconstruct(res.x, b)
        # Re-express the residual in terms of the original system.
        rel = _rel_residuals(op, res.x, b, lead)
        if lead:
            res.residuals = rel
        else:
            res.residual = rel
        return res
    return run(op.apply, b)


def _asqtad_operator(
    source: "GaugeField | AsqtadLinks",
    mass: float,
    boundary: BoundarySpec,
    u0: float,
    kernel: str = "auto",
) -> AsqtadOperator:
    links = (
        build_asqtad_links(source, u0=u0)
        if isinstance(source, GaugeField)
        else source
    )
    return AsqtadOperator(links, mass=mass, boundary=boundary, kernel=kernel)


def _solve_asqtad(request: SolveRequest):
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
    space = batched_space_for_nspin(1) if lead else STAGGERED_SPACE
    prec = request.inner_precision
    # "auto" keeps the historical plain-CG path bit-for-bit; a concrete
    # entry routes through the flexible multi-splitting-capable PCG.
    precond = "none" if request.precond == "auto" else request.precond

    if precond != "none":
        from repro.multigpu.partition import BlockPartition

        entry = resolve_precond(precond, operator="staggered")
        if lead and not entry.capabilities.batched:
            raise ValueError(
                f"preconditioner {entry.name!r} does not support batched "
                "multi-RHS solves; solve the right-hand sides one at a time"
            )
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
        solver = batched_pcg if lead else pcg
        res = solver(
            normal.apply, rhs, preconditioner=preconditioner,
            tol=tol, maxiter=maxiter, space=space,
        )
        res.extras["precond"] = entry.name
    elif prec is None:
        solver = batched_cg if lead else cg
        res = solver(normal.apply, rhs, tol=tol, maxiter=maxiter, space=space)
    elif lead:
        res = batched_defect_correction(
            normal.apply, rhs, batched_cg, prec,
            tol=tol, inner_maxiter=maxiter, space=space,
        )
    else:
        res = mixed_precision_cg(
            normal.apply, rhs, prec, tol=tol,
            inner_maxiter=maxiter, space=space,
        )
    rel = _rel_residuals(op, res.x, b, lead)
    if lead:
        res.residuals = rel
    else:
        res.residual = rel
    return res


def _solve_asqtad_multishift(request: SolveRequest) -> MultishiftRefineResult:
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
    tally, metrics registry (per-rank wait histograms under the SPMD
    backends) and wall time — see docs/observability.md.  The solve runs
    under a nested tally/registry, so a caller's enclosing
    :func:`~repro.util.counters.tally` or
    :func:`~repro.metrics.metrics_scope` still observes everything.

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
    from repro.util.counters import tally

    validate_request(request)
    start = time.perf_counter()
    with tally() as t, metrics_scope() as registry:
        result = _DISPATCH[request.operator](request)
    result.report = build_solve_report(
        request, result, t, time.perf_counter() - start, registry
    )
    return result

