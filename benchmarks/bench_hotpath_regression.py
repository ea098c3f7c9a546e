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

Beside the stencil, at fixed shapes whatever the volumes: the Krylov
loops' vector updates, one iteration's worth — BiCGstab's at 8^4
complex128 (``bicgstab_updates``) and at 12 lanes of 4^4
(``bicgstab_updates_12``), and the Schwarz block solve's MR step on its
complex64 four-lane stack (``mr_step_c64``) — as the allocating NumPy
expressions, as NumPy writing in place (the fallback), and as the
compiled tier's fused passes; both in-place sides must have the
allocating side's bits (``max_rel_err`` 0.0).

And the set-up a configuration pays once, in milliseconds per tier: the
clover build at 8^4 (``clover_build``: six field strengths and both
chiral blocks) and the asqtad fat and long links at 4x8^3
(``asqtad_links``) — the retired stacked-``matmul`` form (``matmul``, the
reference: ``zgemm``'s bits), the lattice-last NumPy walk (``numpy``) and
the compiled path sums (``c``), each tier's ``max_rel_err`` against the
``matmul`` form; ``c`` must have the ``numpy`` bits.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import itertools

import numpy as np

from repro.dirac import WilsonCloverOperator
from repro.dirac.clover import _chirality_builder
from repro.gauge.asqtad import (
    NAIK_COEFF,
    build_fat_links,
    build_long_links,
    fattening_paths,
)
from repro.gauge.observables import clover_leaves
from repro.gauge.paths import shift_field
from repro.kernels import available_backends
from repro.kernels.registry import KERNELS
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.linalg import su3
from repro.linalg.gamma import sigma
from repro.metrics.bench_schema import wrap_bench
from repro.precision import HALF
from repro.solvers.space import ArraySpace, BatchedArraySpace

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


# ----------------------------------------------------------------------
# The solvers' vector updates: one iteration's worth, three ways.
# ----------------------------------------------------------------------
class _NoPasses:
    """The compiled tier with no library loaded: every update is NumPy's
    ``out=`` fallback, every path sum the NumPy walk."""

    @staticmethod
    def vector_pass(entry, coefficients, vectors):
        return None

    @staticmethod
    def path_sum(links, weighted_paths):
        return None


def _bicgstab_updates(space, v, coefficients, allocating):
    """One BiCGstab iteration's updates on ``v = (x, p, r, v, t)``, the
    loop's own calls (``allocating``: as the loop spelled them before it
    wrote its vectors in place, each a fresh ``y + a*x``)."""
    x, p, r, w, t = v
    alpha, beta, omega = coefficients
    if allocating:
        p = r + _mul(beta, p + _mul(-omega, w))
        s = r + _mul(-alpha, w)
        x = (x + _mul(alpha, p)) + _mul(omega, s)
        return x, p, s + _mul(-omega, t), w, t
    p = space.bicgstab_direction(p, r, w, beta, -omega)
    s = space.axpy(-alpha, w, r, out=r)
    x, r = space.bicgstab_closing(x, p, s, t, alpha, omega)
    return x, p, r, w, t


def _mr_step(space, v, coefficients, allocating):
    """The Schwarz block solve's minimal-residual step on ``(x, r, Ar)``."""
    x, r, ar = v
    (c,) = coefficients
    if allocating:
        return x + _mul(c, r), r + _mul(-c, ar), ar
    x, r = space.update_pair(x, c, r, r, -c, ar)
    return x, r, ar


def _mul(a, v):
    """``a * v`` as the space multiplies: a per-lane coefficient rounded to
    the field's dtype, a Python scalar as NumPy promotes it."""
    if isinstance(a, np.ndarray):
        return np.asarray(a, v.dtype).reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return a * v


#: label -> (space, vector shape, dtype, the iteration, its coefficients):
#: ``wc_bicgstab``'s field, ``serve_propagator``'s 12-lane batch and the
#: ``wc_gcrdd_schwarz`` block stack (8^4 in (1, 1, 2, 2) blocks: four
#: lanes of 1024 sites, complex64, one coefficient per lane).
_LANES12 = np.linspace(0.2, 0.7, 12) * np.exp(0.4j)
UPDATES = {
    "bicgstab_updates": (
        ArraySpace(), (8, 8, 8, 8, 4, 3), np.complex128, _bicgstab_updates,
        (0.31 - 0.12j, 0.42 + 0.05j, 0.56 - 0.21j),
    ),
    "bicgstab_updates_12": (
        BatchedArraySpace(), (12, 4, 4, 4, 4, 4, 3), np.complex128,
        _bicgstab_updates, (_LANES12, _LANES12[::-1], 0.5 * _LANES12.conj()),
    ),
    "mr_step_c64": (
        BatchedArraySpace(), (4, 4, 4, 8, 8, 4, 3), np.complex64, _mr_step,
        (np.array([0.61 - 0.2j, 0.55 + 0.1j, 0.7 - 0.05j, 0.48 + 0.3j]),),
    ),
}
#: Iterations per timed block, per ``--reps``.
UPDATE_REPS = 40


def measure_updates(reps: int) -> dict:
    """Seconds per iteration of each of :data:`UPDATES` — allocating
    NumPy, NumPy writing in place (``out=``), and the compiled tier's
    passes where the library is there — and each in-place side's largest
    difference from the allocating one (0.0: the same bits)."""
    compiled = KERNELS.entries["c"]
    tiers = {"allocating": compiled, "numpy": _NoPasses()}
    if compiled.available:
        tiers["c"] = compiled
    out = {}
    for label, (space, shape, dtype, step, coefficients) in UPDATES.items():
        rng = np.random.default_rng(11)
        count = 5 if step is _bicgstab_updates else 3
        start = [
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
            for _ in range(count)
        ]

        def iterate(tier, vectors, n):
            KERNELS.entries["c"] = tiers[tier]
            try:
                for _ in range(n):
                    vectors = step(space, vectors, coefficients, tier == "allocating")
            finally:
                KERNELS.entries["c"] = compiled
            return vectors

        expected = iterate("allocating", [v.copy() for v in start], 1)
        scale = max(float(np.abs(v).max()) for v in expected)
        errors, seconds = {}, {tier: 0.0 for tier in tiers}
        for tier in tiers:
            got = iterate(tier, [v.copy() for v in start], 1)
            errors[tier] = max(
                float(np.abs(g - e).max()) for g, e in zip(got, expected)
            ) / scale
        n = UPDATE_REPS * reps
        for _ in range(ROUNDS):
            for tier in tiers:
                vectors = [v.copy() for v in start]
                begin = time.perf_counter()
                iterate(tier, vectors, n)
                seconds[tier] += (time.perf_counter() - begin) / (ROUNDS * n)
        out[label] = {"seconds": seconds, "errors": errors, "shape": shape,
                      "dtype": np.dtype(dtype).name}
    return out


def update_rows(measured: dict) -> tuple[dict, list]:
    """The update measurements as flat metrics and ``results`` rows."""
    metrics, rows = {}, []
    for label, m in measured.items():
        seconds, errors = m["seconds"], m["errors"]
        c = seconds.get("c")
        metrics.update({
            f"{label}_allocating_seconds": seconds["allocating"],
            f"{label}_numpy_seconds": seconds["numpy"],
            f"{label}_numpy_max_rel_err": errors["numpy"],
            f"{label}_c_seconds": c,
            f"{label}_c_speedup_vs_allocating": seconds["allocating"] / c if c else None,
            f"{label}_c_max_rel_err": errors.get("c"),
        })
        rows += [
            {
                "shape": list(m["shape"]),
                "dtype": m["dtype"],
                "apply": label,
                "tier": tier,
                "kernel": "c" if tier == "c" else "numpy",
                "seconds_per_apply": seconds[tier],
                "speedup_vs_reference": seconds["allocating"] / seconds[tier],
                "max_rel_err": errors[tier],
            }
            for tier in seconds
        ]
    return metrics, rows


# ----------------------------------------------------------------------
# Set-up: the path products under the clover term and the asqtad links.
# ----------------------------------------------------------------------
def _matmul_path(geometry, data, steps):
    """The retired path product: links rolled to the start, one stacked
    ``(..., 3, 3) @ (..., 3, 3)`` per step."""
    offset, product = [0, 0, 0, 0], None
    for mu, sign in steps:
        if sign == +1:
            link = shift_field(geometry, data[mu], offset)
            offset[mu] += 1
        else:
            offset[mu] -= 1
            link = su3.dagger(shift_field(geometry, data[mu], offset))
        product = link if product is None else product @ link
    return product


def _matmul_clover(gauge):
    """The chiral blocks ``(2, 6, 6) + sites`` as the retired build made
    them: field strengths from ``matmul`` leaves, ``sigma (x) iF`` by
    ``einsum``."""
    geom, data, sites = gauge.geometry, gauge.data, gauge.geometry.shape
    i_f = []
    for mu, nu in itertools.combinations(range(4), 2):
        q = sum(_matmul_path(geom, data, leaf) for leaf in clover_leaves(mu, nu))
        i_f.append((mu, nu, np.moveaxis(1j * (q - su3.dagger(q)) / 8.0,
                                        (-2, -1), (0, 1))))
    blocks = np.zeros((2, 2, 3, 2, 3) + sites, np.complex128)
    for c in (0, 1):
        for mu, nu, f in i_f:
            spin = sigma(mu, nu)[2 * c: 2 * c + 2, 2 * c: 2 * c + 2]
            blocks[c] += np.einsum("st,ab...->satb...", spin, f)
    return blocks.reshape((2, 6, 6) + sites)


def _matmul_asqtad(gauge):
    geom, data = gauge.geometry, gauge.data
    fat, long_links = np.zeros_like(data), np.empty_like(data)
    for mu in range(4):
        for coeff, path in fattening_paths(mu):
            fat[mu] += coeff * _matmul_path(geom, data, path)
        long_links[mu] = NAIK_COEFF * _matmul_path(geom, data, [(mu, +1)] * 3)
    return np.stack([fat, long_links])


def _clover(gauge):
    chirality = _chirality_builder(gauge, 1.0)
    return np.stack([chirality(0), chirality(1)])


def _asqtad(gauge):
    return np.stack([build_fat_links(gauge), build_long_links(gauge)])


#: label -> (X, Y, Z, T, the matmul build, the lattice-last build): the
#: clover term of ``wc_bicgstab``'s lattice, the links of
#: ``asqtad_multishift``'s.
SETUP = {
    "clover_build": ((8, 8, 8, 8), _matmul_clover, _clover),
    "asqtad_links": ((8, 8, 8, 4), _matmul_asqtad, _asqtad),
}


def measure_setup(reps: int) -> dict:
    """Milliseconds per build of each of :data:`SETUP` on each tier, and
    each tier's largest difference from the ``matmul`` form; ``same_bits``:
    whether ``c`` built the ``numpy`` bytes."""
    compiled = KERNELS.entries["c"]
    out = {}
    for label, (dims, retired, build) in SETUP.items():
        gauge = GaugeField.weak(Geometry(dims), epsilon=0.25, rng=2024)
        tiers = {"matmul": retired, "numpy": build}
        if compiled.available:
            tiers["c"] = build

        def once(tier):
            KERNELS.entries["c"] = _NoPasses() if tier == "numpy" else compiled
            try:
                return tiers[tier](gauge)
            finally:
                KERNELS.entries["c"] = compiled

        built = {tier: once(tier) for tier in tiers}
        scale = float(np.abs(built["matmul"]).max())
        errors = {
            tier: float(np.abs(array - built["matmul"]).max()) / scale
            for tier, array in built.items()
        }
        same = built["c"].tobytes() == built["numpy"].tobytes() if "c" in built else None
        del built
        ms = {tier: 0.0 for tier in tiers}
        for _ in range(ROUNDS):
            for tier in tiers:
                for _ in range(reps):
                    begin = time.perf_counter()
                    once(tier)
                    ms[tier] += 1e3 * (time.perf_counter() - begin) / (ROUNDS * reps)
        out[label] = {"dims": dims, "ms": ms, "errors": errors, "same_bits": same}
    return out


def setup_rows(measured: dict) -> tuple[dict, list]:
    """The set-up measurements as flat metrics and ``results`` rows."""
    metrics, rows = {}, []
    for label, m in measured.items():
        ms, errors = m["ms"], m["errors"]
        for tier in ("matmul", "numpy", "c"):
            metrics[f"{label}_{tier}_ms"] = ms.get(tier)
            metrics[f"{label}_{tier}_max_rel_err"] = errors.get(tier)
        metrics[f"{label}_c_same_bits_as_numpy"] = m["same_bits"]
        rows += [
            {
                "dims": list(m["dims"]),
                "apply": label,
                "tier": tier,
                "kernel": "c" if tier == "c" else "numpy",
                "seconds_per_apply": ms[tier] / 1e3,
                "speedup_vs_reference": ms["matmul"] / ms[tier],
                "max_rel_err": errors[tier],
            }
            for tier in ms
        ]
    return metrics, rows


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


def test_updates_exact():
    """Every in-place side of the update rows has the allocating bits."""
    metrics, _ = update_rows(measure_updates(reps=1))
    for key, value in metrics.items():
        if key.endswith("max_rel_err"):
            assert value in (0.0, None), key


def _check_setup(metrics: dict) -> None:
    """The lattice-last builds within rounding of the ``matmul`` form, the
    compiled ones with the NumPy walk's bits."""
    for label in SETUP:
        assert metrics[f"{label}_numpy_max_rel_err"] < 1e-14, label
        assert metrics[f"{label}_c_same_bits_as_numpy"] in (True, None), label


def test_setup_exact():
    _check_setup(setup_rows(measure_setup(reps=1))[0])


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
    update_metrics, update_results = update_rows(measure_updates(args.reps))
    for key, value in update_metrics.items():
        assert not key.endswith("max_rel_err") or value in (0.0, None), (key, value)
    setup_metrics, setup_results = setup_rows(measure_setup(args.reps))
    _check_setup(setup_metrics)
    last = runs[-1]
    report = wrap_bench(
        "wilson_dslash_hotpath",
        config={
            "dims": [result["dims"] for result in runs],
            "sites": [result["sites"] for result in runs],
            "reps": last["reps"],
            "rounds": last["rounds"],
            "kernels": last["kernels"],
            "update_iterations": UPDATE_REPS * args.reps,
        },
        metrics={
            **{key: last[key] for key in METRICS}, **update_metrics,
            **setup_metrics,
        },
        results=[row for result in runs for row in result["results"]]
        + update_results + setup_results,
    )
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
