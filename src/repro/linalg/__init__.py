"""Dense per-site linear algebra: SU(3) color algebra, spin (gamma) algebra,
and the BLAS-like vector layer with cost accounting."""

from repro._exports import lazy_exports

# The three names are the submodules themselves, which the surface
# imports on first access.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {})
__all__ += ["blas", "gamma", "su3"]
