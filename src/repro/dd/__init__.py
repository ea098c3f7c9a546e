"""Domain decomposition: the non-overlapping additive Schwarz (block
Jacobi) preconditioner of Secs. 3.2 and 8.1, plus the extensions the
paper's conclusions anticipate — overlapping (restricted additive)
Schwarz and weighted multi-splittings.

Construction normally goes through the :mod:`repro.precond` registry
(``resolve_precond(...).build(...)``) rather than these classes
directly."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".schwarz": ("AdditiveSchwarzPreconditioner",),
    ".multisplit": ("MultiSplittingPreconditioner",),
    ".overlapping": ("OverlappingSchwarzPreconditioner",),
})
