"""Lattice geometry and field containers.

The conventions mirror QUDA's: sites are stored with X fastest-varying and T
slowest (array shape ``(T, Z, Y, X)``), directions are numbered
``mu = 0,1,2,3 -> x,y,z,t``, and even-odd (red-black) checkerboarding uses
parity ``(x+y+z+t) mod 2``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".geometry": ("Geometry", "X", "Y", "Z", "T", "DIRECTIONS"),
    ".fields": ("GaugeField", "SpinorField", "WILSON_SPINS", "STAGGERED_SPINS"),
    ".layout": ("FieldLayout", "spinor_layout", "gauge_layout"),
})
