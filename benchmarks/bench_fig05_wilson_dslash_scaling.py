"""Figure 5: strong scaling of the Wilson-clover dslash.

V = 32^3 x 256, 12-real gauge reconstruction, single (SP) and half (HP)
precision, 8..256 GPUs — Gflops per GPU.

The table regenerates the figure from the performance model; the timed
benchmarks exercise the real NumPy Wilson-clover kernel (the functional
layer whose flop counts feed the model).
"""

from __future__ import annotations

import pytest

from benchmarks.paper_data import FIG5_GPUS, FIG5_PAPER, print_table
from repro.core.scaling import DslashScalingStudy
from repro.dirac import WilsonCloverOperator
from repro.perfmodel.kernels import OperatorKind
from repro.precision import HALF, SINGLE

VOLUME = (32, 32, 32, 256)


def fig5_series(precision) -> list[float]:
    study = DslashScalingStudy(VOLUME, OperatorKind.WILSON_CLOVER, precision, 12)
    return [p.gflops_per_gpu for p in study.run(FIG5_GPUS)]


def test_fig5_table_and_shape():
    sp = fig5_series(SINGLE)
    hp = fig5_series(HALF)
    rows = []
    for i, gpus in enumerate(FIG5_GPUS):
        rows.append(
            [
                gpus,
                sp[i],
                FIG5_PAPER["SP"][i],
                hp[i],
                FIG5_PAPER["HP"][i],
            ]
        )
    print_table(
        "fig05",
        "Fig. 5 — Wilson-clover dslash strong scaling (Gflops/GPU), "
        "V=32^3x256, 12-reconstruct",
        ["GPUs", "SP model", "SP paper", "HP model", "HP paper"],
        rows,
    )
    # Shape checks: monotone decline and the within-2x agreement band.
    assert sp == sorted(sp, reverse=True)
    assert hp == sorted(hp, reverse=True)
    for model, paper in zip(sp, FIG5_PAPER["SP"]):
        assert 0.4 < model / paper < 2.5
    # HP > SP everywhere, with the advantage bounded (Sec. 7.2 notes the
    # gap narrows as communication dominates).
    for s, h in zip(sp, hp):
        assert 1.0 < h / s < 2.2


def test_fig5_departure_from_ideal_past_32():
    """"We see significant departures from ideal scaling for more than 32
    GPUs": per-GPU rate at 64 drops well below the 8-GPU rate."""
    sp = dict(zip(FIG5_GPUS, fig5_series(SINGLE)))
    assert sp[64] < 0.5 * sp[8]
    assert sp[256] < 0.25 * sp[8]


@pytest.mark.benchmark(group="fig5-kernel")
def test_bench_wilson_clover_matvec(benchmark, bench_gauge, bench_wilson_vec):
    """Real kernel: the full Wilson-clover matvec on an 8^3x16 lattice."""
    op = WilsonCloverOperator(bench_gauge, mass=0.1, csw=1.0)
    benchmark(op.apply, bench_wilson_vec)


@pytest.mark.benchmark(group="fig5-kernel")
def test_bench_wilson_dslash_only(benchmark, bench_gauge, bench_wilson_vec):
    """Real kernel: the hopping term alone (what Fig. 5 times on the GPU)."""
    op = WilsonCloverOperator(bench_gauge, mass=0.1, csw=0.0)
    benchmark(op.dslash, bench_wilson_vec)


@pytest.mark.benchmark(group="fig5-kernel")
def test_bench_wilson_dslash_half_precision(benchmark, bench_gauge, bench_wilson_vec):
    """Real kernel under emulated half precision (quantization included)."""
    from repro.solvers.space import WILSON_SPACE

    apply = WilsonCloverOperator(bench_gauge, mass=0.1, csw=0.0).apply

    def half_apply(x):
        x = WILSON_SPACE.convert(x, HALF)
        return WILSON_SPACE.convert(apply(x), HALF)

    benchmark(half_apply, bench_wilson_vec)


if __name__ == "__main__":
    test_fig5_table_and_shape()
