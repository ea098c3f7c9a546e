"""Iterative Krylov solvers (Sec. 3) and the mixed-precision machinery of
Sec. 8: CG / CGNR, BiCGstab, MR, flexible restarted GCR (Algorithm 1),
multi-shift CG, and defect-correction ("reliable update") wrappers."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Operator", "SolverResult"),
    ".bicgstab": ("bicgstab",),
    ".cg": ("cg", "cgnr", "pcg"),
    ".eigen": (
        "SpectrumEstimate", "estimate_condition_number", "lanczos_spectrum",
    ),
    ".gcr": ("gcr",),
    ".mixed": (
        "defect_correction", "mixed_precision_bicgstab", "mixed_precision_cg",
    ),
    ".mr": ("mr",),
    ".multirhs": (
        "BatchedSolverResult", "batched_bicgstab", "batched_cg",
        "batched_defect_correction", "batched_gcr", "batched_mr",
        "batched_pcg",
    ),
    ".multishift": ("multishift_cg",),
    ".refine": ("MultishiftRefineResult", "multishift_with_refinement"),
    ".space": (
        "ArraySpace", "BatchedArraySpace", "STAGGERED_SPACE", "WILSON_SPACE",
        "batched_space_for_nspin", "space_for_nspin",
    ),
})
