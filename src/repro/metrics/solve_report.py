"""Per-solve flight-recorder artifact: build, validate, render, diff.

Every :func:`repro.core.api.solve` call now returns with a
:class:`SolveReport` attached (``result.report``): the durable record of
what the solve was (config fingerprint), what it did (residual history,
iterations per precision, the merged cost tally, kernel-seconds
breakdown), where it ran (host block), and — for SPMD backends — how the
ranks waited (per-rank wait stats and the straggler summary, read from
the merged tally's ``wait_seconds``).  The report serializes to a
versioned JSON artifact; ``python -m repro report show|diff`` renders
and compares them, and ``report diff --baseline --tolerance`` is the
perf regression gate CI runs.

Diff semantics: *deterministic* quantities (iterations, matvecs, flops,
messages, reductions, comm bytes) are compared at ``count_tolerance``
(default 0 — any growth is a regression), *measured* quantities (wall
seconds, per-kernel seconds) at ``tolerance`` (default 0.2 — noise
allowance).  Only increases fail; getting faster is not a regression.
A convergence loss is always a regression.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.metrics.bench_schema import host_info
from repro.metrics.straggler import rank_wait_stats, straggler_summary
from repro.util.counters import OVERLAP_WAIT, OVERLAP_WINDOW, Tally

REPORT_SCHEMA_VERSION = 1

#: Deterministic counters the diff gate compares at ``count_tolerance``.
_COUNT_METRICS = (
    ("iterations", ("solve", "iterations")),
    ("matvecs", ("solve", "matvecs")),
    ("flops", ("tally", "flops")),
    ("messages", ("tally", "messages")),
    ("reductions", ("tally", "reductions")),
    ("local_reductions", ("tally", "local_reductions")),
    ("comm_bytes", ("tally", "comm_bytes")),
)


def _json_safe(value):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def config_fingerprint(request) -> dict:
    """The request reduced to its solve-defining knobs, plus a sha256.

    Two requests with the same fingerprint describe the same linear
    system and solver configuration — a diff between reports with
    different fingerprints compares different problems and says so.
    """
    cfg = request.config
    fp = {
        "operator": request.operator,
        "method": request.method,
        "rhs_shape": list(np.asarray(request.rhs).shape),
        "mass": request.mass,
        "csw": request.csw,
        "tol": request.tol,
        "maxiter": request.maxiter,
        "boundary": list(request.boundary.conditions),
        "grid": list(request.grid.dims) if request.grid is not None else None,
        "even_odd": request.even_odd,
        "inner_precision": (
            request.inner_precision.name
            if request.inner_precision is not None
            else None
        ),
        "u0": request.u0,
        "shifts": list(request.shifts) if request.shifts is not None else None,
        "backend": request.backend,
        "overlap": bool(getattr(request, "overlap", False)),
        "precond": getattr(request, "precond", None),
        "precond_overlap": getattr(request, "precond_overlap", None),
        "gcrdd": (
            {
                "tol": cfg.tol,
                "maxiter": cfg.maxiter,
                "kmax": cfg.kmax,
                "delta": cfg.delta,
                "precond": cfg.precond,
                "precond_steps": cfg.precond_steps,
                "precond_overlap": cfg.precond_overlap,
                "policy": cfg.policy.label(),
            }
            if cfg is not None
            else None
        ),
    }
    fp = _json_safe(fp)
    digest = hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()
    ).hexdigest()
    return {"config": fp, "sha256": digest}


def _iterations_by_precision(result) -> dict:
    """Per-precision iteration split, from solver extras where available.

    Mixed-precision solvers (:mod:`repro.solvers.mixed`,
    :mod:`repro.solvers.gcr`) record their split in
    ``extras["iterations_by_precision"]``; anything else iterated
    entirely in double.
    """
    extras = getattr(result, "extras", None) or {}
    split = extras.get("iterations_by_precision")
    if split:  # a batch's counts are per lane: summed, as iterations are
        return {str(k): int(np.sum(v)) for k, v in split.items()}
    iterations = getattr(result, "iterations", 0)
    return {"double": int(np.sum(iterations))}


def _solve_block(result) -> dict:
    """Normalize Solver/Batched/MultishiftRefine results to one block."""
    if hasattr(result, "refinements"):  # MultishiftRefineResult
        ms = result.multishift
        return {
            "converged": bool(result.converged),
            "iterations": int(ms.iterations)
            + sum(int(r.iterations) for r in result.refinements),
            "residual": float(max(result.residuals)),
            "matvecs": int(result.total_matvecs),
            "restarts": sum(int(r.restarts) for r in result.refinements),
            "batch": None,
            "precond": None,
        }
    iterations = np.asarray(getattr(result, "iterations", 0))
    batched = iterations.ndim > 0
    residual = (
        float(np.max(result.residuals))
        if batched
        else float(result.residual)
    )
    converged = (
        bool(np.all(result.converged)) if batched else bool(result.converged)
    )
    return {
        "converged": converged,
        "iterations": int(np.sum(iterations)),
        "residual": residual,
        "matvecs": int(getattr(result, "matvecs", 0)),
        "restarts": int(getattr(result, "restarts", 0)),
        "batch": int(iterations.shape[0]) if batched else None,
        # The *resolved* preconditioner entry (never "auto"), forwarded
        # from the solver's extras; None for non-preconditioned methods.
        "precond": (getattr(result, "extras", None) or {}).get("precond"),
    }


def _residual_history(result) -> list:
    if hasattr(result, "refinements"):
        history = list(result.multishift.residual_history)
    else:
        history = list(getattr(result, "residual_history", ()))
    return _json_safe(history)


@dataclass
class SolveReport:
    """One solve's flight-recorder record (see module docstring)."""

    fingerprint: dict
    host: dict
    solve: dict
    residual_history: list
    iterations_by_precision: dict
    tally: dict
    wall_seconds: float
    ranks: dict | None = None
    #: Serve-lifecycle breakdown when this solve was dispatched by the
    #: solve service: request_id, queue/coalesce/solve/latency seconds,
    #: lane and occupancy (None for direct solves).
    serve: dict | None = None
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_dict(self) -> dict:
        doc = {
            "schema_version": self.schema_version,
            "kind": "solve_report",
            "fingerprint": self.fingerprint,
            "host": self.host,
            "solve": self.solve,
            "residual_history": self.residual_history,
            "iterations_by_precision": self.iterations_by_precision,
            "tally": self.tally,
            "wall_seconds": self.wall_seconds,
            "ranks": self.ranks,
        }
        if self.serve is not None:
            doc["serve"] = self.serve
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SolveReport":
        problems = validate_report(doc)
        if problems:
            raise ValueError(
                "invalid solve report:\n  " + "\n  ".join(problems)
            )
        return cls(
            fingerprint=doc["fingerprint"],
            host=doc["host"],
            solve=doc["solve"],
            residual_history=doc["residual_history"],
            iterations_by_precision=doc["iterations_by_precision"],
            tally=doc["tally"],
            wall_seconds=doc["wall_seconds"],
            ranks=doc.get("ranks"),
            serve=doc.get("serve"),
            schema_version=doc["schema_version"],
        )

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "SolveReport":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def overlap_summary(t: Tally) -> dict | None:
    """The measured comm/compute overlap of an overlapped-schedule solve,
    summed over ranks: the *window* is post-return to last-face-in (time
    communication had to hide under the interior kernel), the *wait* is
    the part that actually blocked in ``wait_any``; ``fraction`` is the
    hidden share ``(window - wait) / window`` — compare it against the
    Fig. 4 model track (``python -m repro trace``, see
    docs/observability.md).  ``None`` when no overlapped exchange ran."""
    window = wait = 0.0
    exchanges = 0
    for (_, kind), (seconds, count) in t.wait_seconds.items():
        if kind == OVERLAP_WINDOW:
            window += seconds
            exchanges += count
        elif kind == OVERLAP_WAIT:
            wait += seconds
    if not exchanges:
        return None
    return {
        "exchanges": exchanges,
        "window_seconds": window,
        "wait_seconds": wait,
        "fraction": ((window - wait) / window) if window > 0 else None,
    }


def build_solve_report(
    request, result, tally: Tally, wall_seconds: float,
) -> SolveReport:
    """Assemble the report for one completed :func:`solve` call."""
    ranks = None
    per_rank = rank_wait_stats(tally)
    if per_rank:
        ranks = {
            "count": len(per_rank),
            "wait": {str(r): m for r, m in sorted(per_rank.items())},
            "straggler": straggler_summary(tally),
        }
    overlap = overlap_summary(tally)
    if overlap is not None:
        if ranks is None:  # pragma: no cover - overlap implies waits
            ranks = {"count": 0, "wait": {}, "straggler": None}
        ranks["overlap"] = overlap
    return SolveReport(
        fingerprint=config_fingerprint(request),
        host=host_info(),
        solve=_solve_block(result),
        residual_history=_residual_history(result),
        iterations_by_precision=_iterations_by_precision(result),
        tally=tally.to_dict(),
        wall_seconds=float(wall_seconds),
        ranks=ranks,
    )


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_report(doc: dict) -> list[str]:
    """All schema violations in a solve-report document (empty == valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {REPORT_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    if doc.get("kind") != "solve_report":
        problems.append(f"kind must be 'solve_report', got {doc.get('kind')!r}")
    fp = doc.get("fingerprint")
    if not isinstance(fp, dict) or "sha256" not in fp or "config" not in fp:
        problems.append("fingerprint must carry config and sha256")
    if not isinstance(doc.get("host"), dict):
        problems.append("host must be an object")
    solve = doc.get("solve")
    if not isinstance(solve, dict):
        problems.append("solve must be an object")
    else:
        for key in ("converged", "iterations", "residual"):
            if key not in solve:
                problems.append(f"solve is missing {key!r}")
    if not isinstance(doc.get("residual_history"), list):
        problems.append("residual_history must be a list")
    if not isinstance(doc.get("iterations_by_precision"), dict):
        problems.append("iterations_by_precision must be an object")
    t = doc.get("tally")
    if not isinstance(t, dict):
        problems.append("tally must be an object")
    else:
        for key in ("flops", "messages", "reductions", "kernel_seconds"):
            if key not in t:
                problems.append(f"tally is missing {key!r}")
    if not isinstance(doc.get("wall_seconds"), (int, float)):
        problems.append("wall_seconds must be a number")
    return problems


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------
def _get(doc: dict, path: tuple[str, ...]):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _relative_increase(baseline: float, current: float) -> float:
    if baseline <= 0:
        return float("inf") if current > 0 else 0.0
    return (current - baseline) / baseline


def diff_reports(
    current: dict,
    baseline: dict,
    tolerance: float = 0.2,
    count_tolerance: float = 0.0,
) -> tuple[list[dict], list[str]]:
    """Compare two report documents; returns ``(regressions, notes)``.

    ``regressions`` is the list of gate failures (each with metric name,
    both values, the relative change and the allowance it exceeded);
    ``notes`` are non-fatal observations (fingerprint mismatch, metrics
    present on only one side).
    """
    regressions: list[dict] = []
    notes: list[str] = []

    cur_fp = _get(current, ("fingerprint", "sha256"))
    base_fp = _get(baseline, ("fingerprint", "sha256"))
    if cur_fp != base_fp:
        notes.append(
            "config fingerprints differ — this diff compares different "
            f"problems (current {str(cur_fp)[:12]}..., baseline "
            f"{str(base_fp)[:12]}...)"
        )

    def check(metric, base_val, cur_val, allowed, kind):
        if base_val is None or cur_val is None:
            if (base_val is None) != (cur_val is None):
                notes.append(f"{metric} present on only one side; skipped")
            return
        change = _relative_increase(float(base_val), float(cur_val))
        if change > allowed:
            regressions.append({
                "metric": metric,
                "kind": kind,
                "baseline": float(base_val),
                "current": float(cur_val),
                "change": change,
                "allowed": allowed,
            })

    # Convergence is binary: losing it is always a regression.
    base_conv = _get(baseline, ("solve", "converged"))
    cur_conv = _get(current, ("solve", "converged"))
    if base_conv and not cur_conv:
        regressions.append({
            "metric": "converged",
            "kind": "status",
            "baseline": 1.0,
            "current": 0.0,
            "change": float("inf"),
            "allowed": 0.0,
        })

    for name, path in _COUNT_METRICS:
        check(name, _get(baseline, path), _get(current, path),
              count_tolerance, "count")

    check(
        "wall_seconds", baseline.get("wall_seconds"),
        current.get("wall_seconds"), tolerance, "timing",
    )
    check(
        "kernel_seconds_total",
        sum((_get(baseline, ("tally", "kernel_seconds")) or {}).values()),
        sum((_get(current, ("tally", "kernel_seconds")) or {}).values()),
        tolerance, "timing",
    )
    base_kernels = _get(baseline, ("tally", "kernel_seconds")) or {}
    cur_kernels = _get(current, ("tally", "kernel_seconds")) or {}
    for kernel in sorted(set(base_kernels) & set(cur_kernels)):
        check(
            f"kernel_seconds[{kernel}]", base_kernels[kernel],
            cur_kernels[kernel], tolerance, "timing",
        )
    only = set(base_kernels) ^ set(cur_kernels)
    if only:
        notes.append(
            "kernels present on only one side: " + ", ".join(sorted(only))
        )
    return regressions, notes


# ----------------------------------------------------------------------
# terminal rendering
# ----------------------------------------------------------------------
def render_report(doc: dict, width: int = 60) -> str:
    """ASCII view of one report: header, residual-history chart,
    kernel-seconds table, per-rank wait table + straggler ratio."""
    from repro.report.ascii_plot import AsciiPlot

    fp = _get(doc, ("fingerprint", "config")) or {}
    solve = doc.get("solve", {})
    lines = [
        f"solve report (schema v{doc.get('schema_version')}) — "
        f"{fp.get('operator')}/{fp.get('method')}"
        + (f" backend={fp.get('backend')}" if fp.get("backend") else ""),
        f"  fingerprint {str(_get(doc, ('fingerprint', 'sha256')))[:16]}  "
        f"host {doc.get('host', {}).get('platform')}",
        f"  converged={solve.get('converged')}  "
        f"iterations={solve.get('iterations')}  "
        f"residual={solve.get('residual'):.3e}  "
        f"wall={doc.get('wall_seconds'):.3f}s",
        "  iterations by precision: "
        + ", ".join(
            f"{k}={v}"
            for k, v in sorted(doc.get("iterations_by_precision", {}).items())
        ),
    ]

    history = [
        float(r) for r in doc.get("residual_history", ())
        if np.isscalar(r) and float(r) > 0.0
    ]
    if len(history) >= 2:
        plot = AsciiPlot(
            title="residual history (log-log: step vs relative residual)",
            xlabel="step", ylabel="rel res", width=width, height=12,
        )
        plot.add_series("residual", range(1, len(history) + 1), history)
        lines += ["", plot.render()]

    kernels = _get(doc, ("tally", "kernel_seconds")) or {}
    if kernels:
        lines += ["", "kernel seconds:"]
        name_w = max(len(k) for k in kernels)
        for name, secs in sorted(kernels.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<{name_w}}  {secs * 1e3:10.3f} ms")

    ranks = doc.get("ranks")
    if ranks:
        lines += ["", f"per-rank waits ({ranks['count']} ranks):"]
        for rank, metrics in sorted(
            ranks.get("wait", {}).items(), key=lambda kv: int(kv[0])
        ):
            parts = ", ".join(
                f"{name.removeprefix('spmd_').removesuffix('_seconds')} "
                f"{m['seconds'] * 1e3:.2f}ms/{m['count']}"
                for name, m in sorted(metrics.items())
            )
            lines.append(f"  rank {rank}: {parts}")
        straggler = ranks.get("straggler") or {}
        ratio = straggler.get("max_over_median")
        if ratio is not None:
            lines.append(
                f"  straggler ratio (max/median rank wait): {ratio:.2f} — "
                "read like the Sec. 9 scaling knee (docs/observability.md)"
            )
        overlap = ranks.get("overlap")
        if overlap:
            frac = overlap.get("fraction")
            lines.append(
                f"  halo overlap: {overlap['exchanges']} overlapped "
                f"exchanges, window {overlap['window_seconds'] * 1e3:.2f}ms, "
                f"blocked {overlap['wait_seconds'] * 1e3:.2f}ms"
                + (
                    f", fraction hidden {frac:.1%} — compare the Fig. 4 "
                    "model track"
                    if frac is not None
                    else ""
                )
            )
    return "\n".join(lines)


def format_diff(regressions: list[dict], notes: list[str]) -> str:
    """Human-readable diff outcome for terminals and CI logs."""
    lines = []
    for note in notes:
        lines.append(f"note: {note}")
    if not regressions:
        lines.append("no regressions")
        return "\n".join(lines)
    lines.append(f"{len(regressions)} regression(s):")
    for r in regressions:
        change = (
            "inf" if r["change"] == float("inf") else f"{r['change']:+.1%}"
        )
        lines.append(
            f"  {r['metric']} ({r['kind']}): {r['baseline']:g} -> "
            f"{r['current']:g}  ({change}, allowed {r['allowed']:+.1%})"
        )
    return "\n".join(lines)
