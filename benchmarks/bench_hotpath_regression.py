"""Hot-path regression benchmark across the kernel-backend tiers.

Times the Wilson dslash — and, beside it, the whole Wilson-clover matrix
``M x`` in working precision (``matrix``) and stored in half precision
(``matrix_half``: the Schwarz block operator) — on each registered kernel
backend: the ``"numpy_ref"`` full-spinor seed path, the spin-projected
``"numpy"`` tier (project -> half-spinor SU(3) multiply -> reconstruct,
cached daggered links, one lattice-last body for ``M x``), and the
compiled ``"c"`` tier (the same body run from ``kernels/wilson_hop.c``)
where the host can build it — asserts the NumPy tier agrees with the
reference to rounding and the compiled tier with the NumPy tier *bit for
bit*, and writes the measurements to ``BENCH_hotpath.json`` at the
repository root.  One command:

    PYTHONPATH=src python -m benchmarks.bench_hotpath_regression

Options: ``--dims X Y Z T [X Y Z T ...]`` (default 8^4 and 16^4: the
committed artifact's volumes), ``--reps N`` and ``--output PATH``.  The
committed JSON is the regression reference: at every volume the projected
path stays at >= 2x the reference and the compiled tier at >= 2x the
projected one.  The ``c_*`` metrics are ``null`` on a host that cannot
build the tier — the gates only read them where present.  The top-level
metrics are those of the last volume given: the dslash ones under their
historical names, the whole-matrix ones prefixed ``matrix_`` /
``matrix_half_``.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.dirac import WilsonCloverOperator
from repro.kernels import available_backends
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.metrics.bench_schema import wrap_bench
from repro.precision import HALF

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tier label -> kernel backend name; tiers missing from the registry's
#: available set report null metrics instead of being silently skipped.
TIERS = (
    ("reference", "numpy_ref"),
    ("projected", "numpy"),
    ("c", "c"),
)


#: Alternating timing rounds per tier.
ROUNDS = 2

#: What is timed: label -> (csw, storage, field dtype, the call, the
#: agreement with the reference tier asserted of every tier).  The half
#: rows agree at the level of the format: the reference tier rounds
#: around complex128 arithmetic, the others compute in complex64.
APPLIES = {
    "dslash": (0.0, None, np.complex128, lambda op, x: op._dslash(x), 1e-12),
    "matrix": (1.0, None, np.complex128, lambda op, x: op.apply(x), 1e-12),
    "matrix_half": (1.0, HALF, np.complex64, lambda op, x: op.apply(x), 1e-3),
}


def _time_block(call, op, x: np.ndarray, reps: int) -> float:
    """Total seconds for ``reps`` consecutive applications (a sustained
    same-path block, the way a solver loop actually runs the kernel)."""
    start = time.perf_counter()
    for _ in range(reps):
        call(op, x)
    return time.perf_counter() - start


def _measure(gauge, x, apply: str, reps: int, usable) -> dict:
    """Seconds per application and cross-tier agreement of one of
    :data:`APPLIES` on every usable tier."""
    csw, storage, dtype, call, bound = APPLIES[apply]
    x = x.astype(dtype)
    ops = {
        tier: WilsonCloverOperator(
            gauge, mass=0.1, csw=csw, kernel=kernel
        ).stored(storage)
        for tier, kernel in TIERS
        if kernel in usable
    }
    out_ref = call(ops["reference"], x)
    out_numpy = call(ops["projected"], x)
    scale = np.abs(out_ref).max()

    # Cross-tier agreement, then warm-up (caches, the library load) and
    # sustained same-path timing blocks, alternating the tiers over two
    # rounds so slow environmental drift (frequency scaling, a background
    # process on a shared core) averages out.  Per-rep *means* are
    # reported: allocator churn recurs on every application, so it
    # belongs in the number.
    errors: dict[str, float] = {}
    for tier, op in ops.items():
        err = float(np.abs(call(op, x) - out_ref).max() / scale)
        errors[tier] = err
        assert err < bound, (
            f"{op.kernel} kernel diverged from the reference on {apply} "
            f"(max rel err {err:.3e})"
        )
    c_err = None
    if "c" in ops:
        # Against the NumPy tier, not the reference: exactly zero.
        c_err = float(np.abs(call(ops["c"], x) - out_numpy).max() / scale)

    seconds = {tier: 0.0 for tier in ops}
    for _ in range(ROUNDS):
        for tier, op in ops.items():
            seconds[tier] += _time_block(call, op, x, reps) / (ROUNDS * reps)
    return {
        "seconds": seconds, "errors": errors, "c_max_rel_err": c_err,
        "kernels": {tier: op.kernel for tier, op in ops.items()},
    }


def run(dims: tuple[int, int, int, int], reps: int) -> dict:
    geom = Geometry(dims)
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=2024)
    x = SpinorField.random(geom, rng=7).data
    usable = available_backends(operator="wilson")

    result = {
        "benchmark": "wilson_dslash_hotpath",
        "dims": list(dims),
        "sites": geom.volume,
        "reps": reps,
        "rounds": ROUNDS,
        "kernels": {
            tier: (kernel if kernel in usable else None)
            for tier, kernel in TIERS
        },
        "results": [],
    }
    for apply in APPLIES:
        measured = _measure(gauge, x, apply, reps, usable)
        seconds, errors = measured["seconds"], measured["errors"]
        t_ref = seconds["reference"]
        prefix = "" if apply == "dslash" else f"{apply}_"
        result.update({
            f"{prefix}reference_seconds": t_ref,
            f"{prefix}projected_seconds": seconds["projected"],
            f"{prefix}speedup": t_ref / seconds["projected"],
            f"{prefix}max_rel_err": errors["projected"],
            f"{prefix}c_seconds": seconds.get("c"),
            f"{prefix}c_speedup": t_ref / seconds["c"] if "c" in seconds else None,
            f"{prefix}c_speedup_vs_numpy": (
                seconds["projected"] / seconds["c"] if "c" in seconds else None
            ),
            f"{prefix}c_max_rel_err": measured["c_max_rel_err"],
        })
        result["results"] += [
            {
                "dims": list(dims),
                "apply": apply,
                "tier": tier,
                "kernel": kernel,
                "seconds_per_apply": seconds[tier],
                "speedup_vs_reference": t_ref / seconds[tier],
                "max_rel_err": errors[tier],
            }
            for tier, kernel in measured["kernels"].items()
        ]
    return result


#: The flat headline metrics: per apply the same eight numbers.
METRICS = tuple(
    ("" if apply == "dslash" else f"{apply}_") + name
    for apply in APPLIES
    for name in (
        "reference_seconds", "projected_seconds", "speedup", "max_rel_err",
        "c_seconds", "c_speedup", "c_speedup_vs_numpy", "c_max_rel_err",
    )
)


def test_fast_path_faster_and_exact():
    """Collectable smoke version at a small volume: numerically identical
    and clearly faster (the full regression gate runs via main)."""
    result = run((16, 16, 16, 16), reps=2)
    assert result["max_rel_err"] < 1e-13
    assert result["speedup"] > 1.3
    if result["c_seconds"] is not None:
        assert result["c_max_rel_err"] == 0.0
        assert result["c_speedup_vs_numpy"] > 1.3
        assert result["matrix_c_max_rel_err"] == 0.0
        assert result["matrix_half_c_max_rel_err"] == 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dims", type=int, nargs="+", default=[8] * 4 + [16] * 4,
        metavar="N", help="X Y Z T of each volume, in turn",
    )
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--output", type=str, default=str(REPO_ROOT / "BENCH_hotpath.json"),
        help="bench-schema JSON output path",
    )
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if len(args.dims) % 4:
        parser.error("--dims takes four extents per volume")
    if any(n < 2 for n in args.dims):
        parser.error("--dims entries must be >= 2 (even-odd structure)")
    volumes = [tuple(args.dims[i:i + 4]) for i in range(0, len(args.dims), 4)]

    runs = [run(dims, args.reps) for dims in volumes]
    for result in runs:
        if result["c_seconds"] is not None:
            for key in METRICS:
                if key.endswith("c_max_rel_err"):
                    assert result[key] == 0.0, (result["dims"], key)
    last = runs[-1]
    report = wrap_bench(
        "wilson_dslash_hotpath",
        config={
            "dims": [result["dims"] for result in runs],
            "sites": [result["sites"] for result in runs],
            "reps": last["reps"],
            "rounds": last["rounds"],
            "kernels": last["kernels"],
        },
        metrics={key: last[key] for key in METRICS},
        results=[row for result in runs for row in result["results"]],
    )
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
