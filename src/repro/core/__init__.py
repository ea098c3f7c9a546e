"""The paper's headline contribution, packaged: the domain-decomposed
mixed-precision GCR solver (GCR-DD), the baseline mixed-precision
BiCGstab, the two-stage asqtad multi-shift solver, and high-level solve
entry points."""

from repro.core.gcrdd import GCRDDConfig, GCRDDSolver
from repro.core.spmd import SPMDGCRDDSolver
from repro.core.api import SolveRequest, solve
from repro.core.tune import (
    tune_dslash_partitioning,
    tune_precision_policy,
    tune_wilson_solver,
)

__all__ = [
    "GCRDDConfig",
    "GCRDDSolver",
    "SPMDGCRDDSolver",
    "SolveRequest",
    "solve",
    "tune_dslash_partitioning",
    "tune_wilson_solver",
    "tune_precision_policy",
]
