"""repro — a reproduction of "Scaling Lattice QCD beyond 100 GPUs"
(Babich, Clark, Joo, Shi, Brower, Gottlieb; SC'11, arXiv:1109.2935).

The library implements the paper's full stack in pure Python/NumPy:

* lattice geometry, spinor/gauge fields, SU(3) and gamma algebra;
* Wilson-clover and improved staggered (asqtad) Dirac operators, with
  even-odd preconditioning and asqtad fat/long link construction;
* Krylov solvers (CG, CGNR, BiCGstab, MR, flexible GCR, multi-shift CG)
  with QUDA-style mixed precision including emulated 16-bit fixed point;
* the multi-dimensional multi-GPU parallelization of Sec. 6 on a virtual
  cluster — real ghost-zone halo exchanges, interior/exterior kernel
  split, message logging;
* the additive Schwarz domain-decomposed GCR solver (GCR-DD) of Sec. 8;
* an analytic performance model of the Edge cluster reproducing the
  strong-scaling behaviour of Figs. 5-10.

Quick start::

    import numpy as np
    from repro import Geometry, GaugeField, SpinorField, SolveRequest, solve

    geometry = Geometry((8, 8, 8, 16))
    gauge = GaugeField.weak(geometry, epsilon=0.25, rng=0)
    b = SpinorField.random(geometry, rng=1)
    result = solve(SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=b.data,
        mass=0.1, csw=1.0, tol=1e-8,
    ))
    print(result.converged, result.iterations, result.residual)

Stack N right-hand sides along a leading axis (``rhs.shape == (N,) +
field.shape``) and the same call runs the batched multi-RHS path: one
stencil sweep, one reduction, and one halo message per neighbor serve
all N systems at once (see docs/api.md).
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lattice": ("Geometry", "GaugeField", "SpinorField"),
    "repro.precision": (
        "Precision", "PrecisionPolicy", "DOUBLE", "SINGLE", "HALF",
        "SINGLE_HALF_HALF",
    ),
    "repro.dirac": (
        "BoundarySpec", "PERIODIC", "PHYSICAL", "WilsonCloverOperator",
        "EvenOddPreconditionedWilson", "NaiveStaggeredOperator",
        "AsqtadOperator", "StaggeredNormalOperator",
    ),
    "repro.solvers": (
        "SolverResult", "BatchedSolverResult", "cg", "cgnr", "bicgstab",
        "batched_cg", "batched_bicgstab", "batched_gcr", "mr", "gcr",
        "multishift_cg", "multishift_with_refinement",
    ),
    "repro.comm": ("ProcessGrid", "choose_grid"),
    "repro.multigpu": ("BlockPartition", "HaloExchanger"),
    "repro.dd": (
        "AdditiveSchwarzPreconditioner", "OverlappingSchwarzPreconditioner",
    ),
    "repro.core": (
        "GCRDDConfig", "GCRDDSolver", "SPMDGCRDDSolver", "SolveRequest",
        "solve",
    ),
    "repro.kernels": (
        "KernelBackend", "KernelUnavailableError", "capability_matrix",
        "kernel_choices", "resolve_kernel",
    ),
    "repro.util": ("Tally", "tally"),
})
__all__.append("__version__")
