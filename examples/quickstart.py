#!/usr/bin/env python
"""Quickstart: solve a Wilson-clover Dirac system end-to-end.

Builds a small lattice and a synthetic gauge configuration, then solves
``M x = b`` (Eq. 2 of the paper) three ways:

1. plain BiCGstab in double precision (the baseline Krylov solver),
2. mixed-precision BiCGstab (single-precision inner iterations with
   high-precision reliable updates),
3. the paper's GCR-DD: additive-Schwarz-preconditioned flexible GCR with
   half-precision block solves on a 2x2 virtual GPU grid.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    GCRDDConfig,
    GCRDDSolver,
    GaugeField,
    Geometry,
    ProcessGrid,
    SolveRequest,
    SpinorField,
    WilsonCloverOperator,
    solve,
    tally,
)
from repro.precision import SINGLE


def main() -> None:
    geometry = Geometry((8, 8, 8, 16))
    print(f"lattice: {geometry!r}, {geometry.volume} sites")

    gauge = GaugeField.weak(geometry, epsilon=0.25, rng=2024)
    print(f"gauge: weak-coupling synthetic config, plaquette = "
          f"{gauge.plaquette():.4f}")

    b = SpinorField.random(geometry, rng=1).data
    mass, csw = 0.1, 1.0

    # 1. Baseline double-precision BiCGstab.
    with tally() as t:
        res = solve(SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=b,
            mass=mass, csw=csw, tol=1e-8,
        ))
    print(
        f"\nBiCGstab (double):       {res.iterations:4d} iterations, "
        f"residual {res.residual:.2e}, {t.reductions} global reductions"
    )

    # 2. Mixed-precision BiCGstab (QUDA's production baseline).
    res_mp = solve(SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=b,
        mass=mass, csw=csw, tol=1e-8, inner_precision=SINGLE,
    ))
    print(
        f"BiCGstab (mixed d/s):    {res_mp.iterations:4d} inner iterations, "
        f"{res_mp.restarts} reliable updates, residual {res_mp.residual:.2e}"
    )

    # 3. GCR-DD on a 1x1x2x2 virtual GPU grid: the Schwarz preconditioner
    #    solves four Dirichlet-cut blocks with 10 MR steps in half
    #    precision, communication-free.
    op = WilsonCloverOperator(gauge, mass=mass, csw=csw)
    solver = GCRDDSolver(
        op, ProcessGrid((1, 1, 2, 2)), GCRDDConfig(tol=1e-6, precond_steps=10)
    )
    with tally() as t:
        res_dd = solver.solve(b)
    print(
        f"GCR-DD (single-half-half): {res_dd.iterations:2d} outer iterations, "
        f"{res_dd.restarts} restarts, residual {res_dd.residual:.2e}"
    )
    print(
        f"  communication profile: {t.reductions} global reductions vs "
        f"{t.local_reductions} block-local ones (no inter-GPU traffic)"
    )

    # All three agree.
    x_ref = res.x
    for label, x in [("mixed", res_mp.x), ("gcr-dd", res_dd.x)]:
        rel = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
        print(f"  {label} solution matches baseline to {rel:.2e}")


if __name__ == "__main__":
    main()
