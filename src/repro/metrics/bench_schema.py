"""The one versioned schema behind every ``BENCH_*.json`` artifact.

Before this module each benchmark writer invented its own JSON layout;
now all of them (``python -m repro bench``, ``bench-multirhs``,
``benchmarks/bench_hotpath_regression.py``) emit the same envelope and
both the bench scripts and the CI gate validate it with
:func:`validate_bench`:

.. code-block:: json

    {
      "schema_version": 1,
      "bench": "spmd",
      "host": {"cpu_count": 8, "platform": "...", "python": "3.12.1"},
      "config": { ...the knobs that produced the run... },
      "metrics": { ...headline scalars the trajectory gate reads... },
      "results": [ ...optional detailed per-point entries... ]
    }

``metrics`` is deliberately flat (name -> number): it is what a
regression gate diffs and what a dashboard plots; anything structured
belongs in ``results``.  Run ``python -m repro.metrics.bench_schema
FILE...`` to validate artifacts from the command line (the CI
trajectory gate does exactly this against the committed files).

On top of the shared envelope, every ``bench`` string must name a
**registered kind** (:data:`BENCH_KINDS`): each kind declares the
config keys and per-result-entry keys its artifacts must carry, so a
malformed ``BENCH_scaling.json`` is rejected exactly like a malformed
``BENCH_spmd.json`` — an unknown kind is itself a violation that lists
the known kinds.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

BENCH_SCHEMA_VERSION = 1

#: Keys every host block carries (values may be null for artifacts
#: migrated from before host capture existed).
HOST_KEYS = ("cpu_count", "platform", "python")


@dataclass(frozen=True)
class BenchKind:
    """Per-kind schema requirements layered over the shared envelope.

    Attributes
    ----------
    name:
        The ``bench`` string of this kind.
    required_config:
        Config keys every artifact of this kind must carry.
    required_result_keys:
        Keys every ``results`` entry must carry (only checked when the
        kind requires results or the artifact provides them).
    results_required:
        Whether a ``results`` list with at least one entry is mandatory.
    """

    name: str
    required_config: tuple[str, ...] = ()
    required_result_keys: tuple[str, ...] = ()
    results_required: bool = False


#: The registry of known bench kinds: an artifact with an unregistered
#: ``bench`` string is a schema violation, exactly like a missing host
#: block — ``bench-smoke`` and the report gate reject it.
BENCH_KINDS: dict[str, BenchKind] = {}


def register_bench_kind(kind: BenchKind) -> BenchKind:
    """Add one kind to the registry (idempotent per name).

    Returns:
        The registered kind, for chaining.
    """
    BENCH_KINDS[kind.name] = kind
    return kind


register_bench_kind(BenchKind(
    "spmd",
    required_config=("dims", "ranks", "grid"),
    required_result_keys=("backend", "seconds", "converged", "iterations"),
    results_required=True,
))
register_bench_kind(BenchKind(
    "multirhs",
    required_config=("dims", "operator", "method"),
    required_result_keys=("batch", "batched_seconds", "speedup"),
    results_required=True,
))
register_bench_kind(BenchKind(
    "precond",
    required_config=("dims", "ranks", "preconds"),
    required_result_keys=("precond", "seconds", "converged", "iterations"),
    results_required=True,
))
register_bench_kind(BenchKind(
    "wilson_dslash_hotpath",
    required_config=("dims", "reps"),
    required_result_keys=("kernel", "seconds_per_apply"),
    results_required=True,
))
register_bench_kind(BenchKind(
    "scaling",
    required_config=("dims", "ranks", "backend"),
    required_result_keys=(
        "ranks", "grid", "measured_seconds", "model_seconds",
        "measured_efficiency", "model_efficiency",
        "measured_comm_fraction", "model_comm_fraction",
    ),
    results_required=True,
))


def _platform() -> str:
    """``platform.platform()``, composed without asking for the processor.

    The stdlib resolves ``uname().processor`` by starting ``uname -p``: a
    child process, and the module that starts it, in the first report of
    every process.  On Linux that string drops the processor anyway when
    it is ``unknown`` or equals the machine, so it is spelled here from
    the system, release, machine and C library; elsewhere the stdlib's
    own answer stands.
    """
    import platform

    uname = platform.uname()
    if uname.system != "Linux":
        return platform.platform()
    lib, version = platform.libc_ver()
    name = "-".join(
        part.strip()
        for part in (uname.system, uname.release, uname.machine, "with",
                     lib + version)
        if part
    )
    # The stdlib's clean-up of the joined string: filename-safe, no
    # "unknown", no empty fields.
    name = re.sub(r'[/\\:;"()]', "-", name.replace(" ", "_"))
    name = re.sub("-+", "-", name.replace("unknown", ""))
    return name.rstrip("-")


def host_info() -> dict:
    """The host block for a fresh artifact (shared with SolveReport)."""
    import os
    import platform

    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "platform": _platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
    }


def wrap_bench(
    bench: str,
    config: dict,
    metrics: dict,
    results: list | None = None,
    host: dict | None = None,
) -> dict:
    """Assemble (and validate) one schema-conforming bench document."""
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "host": host if host is not None else host_info(),
        "config": config,
        "metrics": metrics,
    }
    if results is not None:
        doc["results"] = results
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            "refusing to emit an invalid bench document:\n  "
            + "\n  ".join(problems)
        )
    return doc


def validate_bench(doc: dict) -> list[str]:
    """All schema violations in ``doc`` (empty list == valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {doc.get('schema_version')!r}"
        )
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        problems.append("bench must be a non-empty string")
    elif bench not in BENCH_KINDS:
        problems.append(
            f"unknown bench kind {bench!r}; known kinds: "
            + ", ".join(sorted(BENCH_KINDS))
        )
    host = doc.get("host")
    if not isinstance(host, dict):
        problems.append("host must be an object")
    else:
        for key in HOST_KEYS:
            if key not in host:
                problems.append(f"host is missing {key!r}")
    if not isinstance(doc.get("config"), dict):
        problems.append("config must be an object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for name, value in metrics.items():
            if value is not None and not isinstance(value, (int, float)):
                problems.append(
                    f"metrics[{name!r}] must be a number (or null), "
                    f"got {type(value).__name__}"
                )
    if "results" in doc and not isinstance(doc["results"], list):
        problems.append("results, when present, must be a list")

    kind = BENCH_KINDS.get(bench) if isinstance(bench, str) else None
    if kind is not None:
        config = doc.get("config")
        if isinstance(config, dict):
            for key in kind.required_config:
                if key not in config:
                    problems.append(
                        f"{bench} config is missing {key!r}"
                    )
        results = doc.get("results")
        if kind.results_required and not (
            isinstance(results, list) and results
        ):
            problems.append(f"{bench} requires a non-empty results list")
        if isinstance(results, list):
            for i, entry in enumerate(results):
                if not isinstance(entry, dict):
                    problems.append(f"results[{i}] must be an object")
                    continue
                for key in kind.required_result_keys:
                    if key not in entry:
                        problems.append(
                            f"results[{i}] ({bench}) is missing {key!r}"
                        )
    return problems


def validate_bench_file(path: str) -> list[str]:
    """Validate one JSON artifact on disk; parse errors are violations."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read {path}: {exc}"]
    return validate_bench(doc)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.metrics.bench_schema FILE...`` — the CI gate's
    schema check over the committed trajectory artifacts."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.metrics.bench_schema FILE...",
              file=sys.stderr)
        return 2
    rc = 0
    for path in paths:
        problems = validate_bench_file(path)
        if problems:
            rc = 1
            print(f"{path}: INVALID")
            for p in problems:
                print(f"  - {p}")
        else:
            print(f"{path}: ok")
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
