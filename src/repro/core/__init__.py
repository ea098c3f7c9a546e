"""The paper's headline contribution, packaged: the domain-decomposed
mixed-precision GCR solver (GCR-DD), the baseline mixed-precision
BiCGstab, the two-stage asqtad multi-shift solver, and high-level solve
entry points."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gcrdd": ("GCRDDConfig", "GCRDDSolver"),
    ".spmd": ("SPMDGCRDDSolver",),
    ".api": ("SolveRequest", "solve"),
})
