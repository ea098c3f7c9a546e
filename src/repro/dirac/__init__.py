"""Discretized Dirac operators: Wilson, Wilson-clover, naive staggered and
improved staggered (asqtad), with even-odd preconditioned and shifted/normal
forms (Secs. 2-3 of the paper)."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": (
        "BoundarySpec", "LatticeOperator", "NormalOperator", "PERIODIC",
        "PHYSICAL", "ShiftedOperator", "link_apply",
    ),
    ".wilson": ("WilsonCloverOperator",),
    ".clover": ("build_clover_field", "apply_clover"),
    ".staggered": (
        "AsqtadOperator", "NaiveStaggeredOperator",
        "StaggeredNormalOperator", "staggered_phases",
    ),
    ".evenodd": ("EvenOddPreconditionedWilson",),
})
