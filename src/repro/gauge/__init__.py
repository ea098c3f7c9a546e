"""Gauge-field sector: Wilson-line path products, observables, and the
asqtad fat/long link construction (Sec. 2.3 of the paper)."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".paths": ("path_product", "shift_field"),
    ".observables": ("average_plaquette", "plaquette_field"),
    ".asqtad": ("AsqtadLinks", "build_asqtad_links"),
})
