"""Hot-path regression benchmark across the kernel-backend tiers.

Times the Wilson dslash on each registered kernel backend — the
``"numpy_ref"`` full-spinor seed path, the spin-projected ``"numpy"``
tier (project -> half-spinor SU(3) multiply -> reconstruct, cached
daggered links), and the compiled ``"c"`` tier (the same lattice-last
body with its 8-hop core run from ``kernels/wilson_hop.c``) where the
host can build it — asserts the NumPy tier agrees with the reference to
double-precision rounding and the compiled tier with the NumPy tier *bit
for bit*, and writes the measurements to ``BENCH_hotpath.json`` at the
repository root.  One command:

    PYTHONPATH=src python -m benchmarks.bench_hotpath_regression

Options: ``--dims X Y Z T [X Y Z T ...]`` (default 8^4 and 16^4: the
committed artifact's volumes), ``--reps N`` and ``--output PATH``.  The
committed JSON is the regression reference: at every volume the projected
path stays at >= 2x the reference and the compiled tier at >= 2x the
projected one.  The ``c_*`` metrics are ``null`` on a host that cannot
build the tier — the gates only read them where present.  The top-level
metrics are those of the last volume given.
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

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Tier label -> kernel backend name; tiers missing from the registry's
#: available set report null metrics instead of being silently skipped.
TIERS = (
    ("reference", "numpy_ref"),
    ("projected", "numpy"),
    ("c", "c"),
)


def _time_block(op: WilsonCloverOperator, x: np.ndarray, reps: int) -> float:
    """Total seconds for ``reps`` consecutive applications (a sustained
    same-path block, the way a solver loop actually runs the kernel)."""
    start = time.perf_counter()
    for _ in range(reps):
        op._dslash(x)
    return time.perf_counter() - start


def run(dims: tuple[int, int, int, int], reps: int) -> dict:
    geom = Geometry(dims)
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=2024)
    x = SpinorField.random(geom, rng=7).data

    usable = available_backends(operator="wilson")
    ops = {
        tier: WilsonCloverOperator(gauge, mass=0.1, kernel=kernel)
        for tier, kernel in TIERS
        if kernel in usable
    }
    out_ref = ops["reference"]._dslash(x)
    out_numpy = ops["projected"]._dslash(x)
    scale = np.abs(out_ref).max()

    # Cross-tier agreement, then warm-up (caches, the library load) and
    # sustained same-path timing blocks, alternating the tiers over two
    # rounds so slow environmental drift (frequency scaling, a background
    # process on a shared core) averages out.  Per-rep *means* are
    # reported: allocator churn recurs on every application, so it
    # belongs in the number.
    errors: dict[str, float | None] = {}
    for tier, op in ops.items():
        err = float(np.abs(op._dslash(x) - out_ref).max() / scale)
        errors[tier] = err
        assert err < 1e-12, (
            f"{op.kernel} kernel diverged from the reference "
            f"(max rel err {err:.3e})"
        )
    c_err = None
    if "c" in ops:
        c_err = float(np.abs(ops["c"]._dslash(x) - out_numpy).max() / scale)

    rounds = 2
    seconds = {tier: 0.0 for tier in ops}
    for _ in range(rounds):
        for tier, op in ops.items():
            seconds[tier] += _time_block(op, x, reps) / (rounds * reps)

    t_ref = seconds["reference"]
    result = {
        "benchmark": "wilson_dslash_hotpath",
        "dims": list(dims),
        "sites": geom.volume,
        "reps": reps,
        "rounds": rounds,
        "kernels": {
            tier: (kernel if kernel in usable else None)
            for tier, kernel in TIERS
        },
        "reference_seconds": t_ref,
        "projected_seconds": seconds["projected"],
        "speedup": t_ref / seconds["projected"],
        "max_rel_err": errors["projected"],
        "c_seconds": seconds.get("c"),
        "c_speedup": t_ref / seconds["c"] if "c" in seconds else None,
        "c_speedup_vs_numpy": (
            seconds["projected"] / seconds["c"] if "c" in seconds else None
        ),
        # Against the NumPy tier, not the reference: exactly zero.
        "c_max_rel_err": c_err,
    }
    result["results"] = [
        {
            "dims": list(dims),
            "tier": tier,
            "kernel": op.kernel,
            "seconds_per_apply": seconds[tier],
            "speedup_vs_reference": t_ref / seconds[tier],
            "max_rel_err": errors[tier],
        }
        for tier, op in ops.items()
    ]
    return result


def test_fast_path_faster_and_exact():
    """Collectable smoke version at a small volume: numerically identical
    and clearly faster (the full regression gate runs via main)."""
    result = run((16, 16, 16, 16), reps=2)
    assert result["max_rel_err"] < 1e-13
    assert result["speedup"] > 1.3
    if result["c_seconds"] is not None:
        assert result["c_max_rel_err"] == 0.0
        assert result["c_speedup_vs_numpy"] > 1.3


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
            assert result["c_max_rel_err"] == 0.0, result["dims"]
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
        metrics={
            key: last[key]
            for key in (
                "reference_seconds", "projected_seconds",
                "speedup", "max_rel_err",
                "c_seconds", "c_speedup", "c_speedup_vs_numpy",
                "c_max_rel_err",
            )
        },
        results=[row for result in runs for row in result["results"]],
    )
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
