"""Gauge-field sector: Wilson-line path products, observables, and the
asqtad fat/long link construction (Sec. 2.3 of the paper)."""

from repro.gauge.paths import path_product, shift_field
from repro.gauge.observables import average_plaquette, plaquette_field
from repro.gauge.asqtad import AsqtadLinks, build_asqtad_links

__all__ = [
    "path_product",
    "shift_field",
    "average_plaquette",
    "plaquette_field",
    "AsqtadLinks",
    "build_asqtad_links",
]
