"""Asqtad fat and long (Naik) link construction, Sec. 2.3 of the paper.

The improved staggered operator of Eq. (3) uses two derived gauge fields,
precomputed once per solve:

* the **fat** link ``U-hat``: a local average of the thin link over the
  fat7 + Lepage path set (one-link, 3-, 5-, 7-link staples and the
  double-detour Lepage term);
* the **long** link ``U-check``: the straight 3-hop product
  ``U_mu(x) U_mu(x+mu) U_mu(x+2mu)`` carrying the Naik coefficient.

Path coefficients are the standard asqtad values (the ones in the MILC
code), with tadpole factors ``1/u0^(L-1)`` for a path of length L:

==========  ==============  =========
term        paths per mu    coefficient
==========  ==============  =========
one-link    1               5/8
3-staple    6               -1/16
5-staple    24              +1/64
7-staple    48              -1/384
Lepage      6               -1/16
Naik        1               -1/24
==========  ==============  =========

The fattened links are *not* SU(3) matrices (they are sums of group
elements); this is expected and the staggered operator uses them as-is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.gauge.paths import Step, link_slabs, path_sum_sites
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import Geometry
from repro.util.counters import timed

#: Standard asqtad path coefficients at u0 = 1.
ONE_LINK_COEFF = 5.0 / 8.0
THREE_STAPLE_COEFF = -1.0 / 16.0
FIVE_STAPLE_COEFF = 1.0 / 64.0
SEVEN_STAPLE_COEFF = -1.0 / 384.0
LEPAGE_COEFF = -1.0 / 16.0
NAIK_COEFF = -1.0 / 24.0


@dataclass
class AsqtadLinks:
    """The precomputed smeared fields consumed by the asqtad operator.

    Attributes
    ----------
    fat:
        Fat links, shape ``(4,) + geometry.shape + (3, 3)``; coefficients
        folded in.
    long:
        Long (3-hop Naik) links, same shape; the Naik coefficient is folded
        in, so the operator applies them with unit weight.
    """

    geometry: Geometry
    fat: np.ndarray
    long: np.ndarray


def _staple_paths(mu: int, detours: tuple[int, ...]) -> list[list[Step]]:
    """All signed staple paths for the mu link with the given ordered detour
    directions: out along each detour, across mu, back in reverse order."""
    paths: list[list[Step]] = []
    for signs in itertools.product((+1, -1), repeat=len(detours)):
        outward = [(nu, s) for nu, s in zip(detours, signs)]
        inward = [(nu, -s) for nu, s in reversed(list(zip(detours, signs)))]
        paths.append(outward + [(mu, +1)] + inward)
    return paths


def fattening_paths(mu: int) -> list[tuple[float, list[Step]]]:
    """The full asqtad fat-link path set for direction mu: 85 weighted paths."""
    others = [nu for nu in range(4) if nu != mu]
    weighted: list[tuple[float, list[Step]]] = [(ONE_LINK_COEFF, [(mu, +1)])]
    # 3-staples: one orthogonal detour direction.
    for nu in others:
        for path in _staple_paths(mu, (nu,)):
            weighted.append((THREE_STAPLE_COEFF, path))
    # 5-staples: two distinct orthogonal detours (ordered).
    for nu, rho in itertools.permutations(others, 2):
        for path in _staple_paths(mu, (nu, rho)):
            weighted.append((FIVE_STAPLE_COEFF, path))
    # 7-staples: all three orthogonal detours (ordered).
    for detours in itertools.permutations(others, 3):
        for path in _staple_paths(mu, detours):
            weighted.append((SEVEN_STAPLE_COEFF, path))
    # Lepage: double detour in a single direction.
    for nu in others:
        for sign in (+1, -1):
            path = [(nu, sign), (nu, sign), (mu, +1), (nu, -sign), (nu, -sign)]
            weighted.append((LEPAGE_COEFF, path))
    return weighted


def build_fat_links(gauge: GaugeField, u0: float = 1.0) -> np.ndarray:
    """Compute the asqtad fat links for all four directions: per
    direction the weighted path products summed in :func:`fattening_paths`
    order, lattice-last, then laid out as ``GaugeField.data``."""
    return _per_direction(gauge, lambda mu: [
        (coeff * u0 ** (1 - len(path)), path)  # tadpole 1/u0^(L-1)
        for coeff, path in fattening_paths(mu)
    ])


def build_long_links(gauge: GaugeField, u0: float = 1.0) -> np.ndarray:
    """Compute the Naik long links (3-hop straight products, coefficient in)."""
    return _per_direction(
        gauge, lambda mu: [(NAIK_COEFF / u0**2, [(mu, +1)] * 3)]
    )


def _per_direction(gauge: GaugeField, weighted_paths) -> np.ndarray:
    """The link field, laid out as ``GaugeField.data``, whose mu link is
    the weighted path sum ``weighted_paths(mu)`` of the thin links."""
    links = link_slabs(gauge.data)
    out = np.empty_like(gauge.data)
    for mu in range(4):
        out[mu] = np.moveaxis(
            path_sum_sites(links, weighted_paths(mu)), (0, 1), (-2, -1)
        )
    return out


def build_asqtad_links(gauge: GaugeField, u0: float = 1.0) -> AsqtadLinks:
    """Precompute fat + long links (done once per solve, as in Sec. 2.3):
    the timed leaf ``asqtad_links`` (kind ``setup``)."""
    if min(gauge.geometry.dims) < 4:
        raise ValueError(
            "asqtad links need every lattice extent >= 4 (3-hop Naik term); "
            f"got {gauge.geometry.dims}"
        )
    with timed("asqtad_links", kind="setup"):
        return AsqtadLinks(
            geometry=gauge.geometry,
            fat=build_fat_links(gauge, u0=u0),
            long=build_long_links(gauge, u0=u0),
        )
