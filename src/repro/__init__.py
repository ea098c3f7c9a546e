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

from repro.lattice import Geometry, GaugeField, SpinorField
from repro.precision import (
    DOUBLE,
    HALF,
    SINGLE,
    SINGLE_HALF_HALF,
    Precision,
    PrecisionPolicy,
)
from repro.dirac import (
    AsqtadOperator,
    EvenOddPreconditionedWilson,
    NaiveStaggeredOperator,
    StaggeredNormalOperator,
    WilsonCloverOperator,
    PERIODIC,
    PHYSICAL,
    BoundarySpec,
)
from repro.solvers import (
    BatchedSolverResult,
    SolverResult,
    batched_bicgstab,
    batched_cg,
    batched_gcr,
    bicgstab,
    cg,
    cgnr,
    gcr,
    mr,
    multishift_cg,
    multishift_with_refinement,
)
from repro.comm import ProcessGrid, choose_grid
from repro.multigpu import BlockPartition, HaloExchanger
from repro.dd import (
    AdditiveSchwarzPreconditioner,
    OverlappingSchwarzPreconditioner,
    SAPPreconditioner,
    TwoLevelSchwarzPreconditioner,
)
from repro.core import (
    GCRDDConfig,
    GCRDDSolver,
    SPMDGCRDDSolver,
    SolveRequest,
    solve,
    tune_dslash_partitioning,
    tune_precision_policy,
    tune_wilson_solver,
)
from repro.kernels import (
    KernelBackend,
    KernelUnavailableError,
    capability_matrix,
    kernel_choices,
    resolve_kernel,
)
from repro.gauge.heatbath import HeatbathUpdater
from repro.gauge.hmc import PureGaugeHMC
from repro.gauge.dynamical import DynamicalHMC
from repro.util import Tally, tally

__version__ = "1.0.0"

__all__ = [
    "Geometry",
    "GaugeField",
    "SpinorField",
    "Precision",
    "PrecisionPolicy",
    "DOUBLE",
    "SINGLE",
    "HALF",
    "SINGLE_HALF_HALF",
    "BoundarySpec",
    "PERIODIC",
    "PHYSICAL",
    "WilsonCloverOperator",
    "EvenOddPreconditionedWilson",
    "NaiveStaggeredOperator",
    "AsqtadOperator",
    "StaggeredNormalOperator",
    "SolverResult",
    "BatchedSolverResult",
    "cg",
    "cgnr",
    "bicgstab",
    "batched_cg",
    "batched_bicgstab",
    "batched_gcr",
    "mr",
    "gcr",
    "multishift_cg",
    "multishift_with_refinement",
    "ProcessGrid",
    "choose_grid",
    "BlockPartition",
    "HaloExchanger",
    "AdditiveSchwarzPreconditioner",
    "OverlappingSchwarzPreconditioner",
    "SAPPreconditioner",
    "TwoLevelSchwarzPreconditioner",
    "GCRDDConfig",
    "GCRDDSolver",
    "SPMDGCRDDSolver",
    "SolveRequest",
    "solve",
    "tune_dslash_partitioning",
    "tune_wilson_solver",
    "tune_precision_policy",
    "KernelBackend",
    "KernelUnavailableError",
    "capability_matrix",
    "kernel_choices",
    "resolve_kernel",
    "HeatbathUpdater",
    "PureGaugeHMC",
    "DynamicalHMC",
    "Tally",
    "tally",
    "__version__",
]
