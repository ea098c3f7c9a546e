"""Basic gauge observables: plaquettes and the clover-leaf field strength.

The clover-leaf ``F_{mu nu}`` built here is the input to the Wilson-clover
term ``A_x`` of Eq. (2) (see :mod:`repro.dirac.clover`).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.gauge.paths import Step, link_slabs, path_product, path_sum_sites
from repro.lattice.fields import GaugeField
from repro.linalg import su3


def plaquette_field(gauge: GaugeField, mu: int, nu: int) -> np.ndarray:
    """The mu-nu plaquette ``U_mu(x) U_nu(x+mu) U_mu(x+nu)^+ U_nu(x)^+``
    at every site, shape ``geometry.shape + (3, 3)``."""
    return path_product(
        gauge.geometry, gauge.data, [(mu, +1), (nu, +1), (mu, -1), (nu, -1)]
    )


def average_plaquette(gauge: GaugeField) -> float:
    """Average of ``Re tr P / 3`` over sites and the 6 plaquette planes.

    1.0 for the free field; ~0 for a hot start.  This is the standard sanity
    observable for generated configurations.
    """
    total = 0.0
    count = 0
    for mu, nu in itertools.combinations(range(4), 2):
        p = plaquette_field(gauge, mu, nu)
        total += float(su3.trace(p).real.mean()) / 3.0
        count += 1
    return total / count


def clover_leaf_sum(gauge: GaugeField, mu: int, nu: int) -> np.ndarray:
    """Sum ``Q_{mu nu}`` of the four plaquette "leaves" around each site.

    The four leaves are the plaquettes in the (mu, nu) plane touching x in
    each quadrant, all path-ordered to start and end at x; summed in that
    order, lattice-last, and returned as a site-major view.
    """
    return np.moveaxis(_leaf_sum_sites(gauge, mu, nu, 1.0), (0, 1), (-2, -1))


def clover_leaves(mu: int, nu: int) -> list[list[Step]]:
    """The four leaves of the (mu, nu) clover, in summation order."""
    return [
        [(mu, +1), (nu, +1), (mu, -1), (nu, -1)],
        [(nu, +1), (mu, -1), (nu, -1), (mu, +1)],
        [(mu, -1), (nu, -1), (mu, +1), (nu, +1)],
        [(nu, -1), (mu, +1), (nu, +1), (mu, -1)],
    ]


def _leaf_sum_sites(gauge: GaugeField, mu: int, nu: int, weight: float):
    """``weight * Q_{mu nu}`` lattice-last: the leaves weighted and summed
    by :func:`repro.gauge.paths.path_sum_sites`."""
    return path_sum_sites(
        link_slabs(gauge.data),
        [(weight, leaf) for leaf in clover_leaves(mu, nu)],
    )


def field_strength(gauge: GaugeField, mu: int, nu: int) -> np.ndarray:
    """Clover-leaf field strength ``F_{mu nu} = (Q - Q^+)/8`` (anti-Hermitian).

    Antisymmetric under mu <-> nu; vanishes on the free field.  Computed
    lattice-last, as ``Q/8 - (Q/8)^+`` (the eighth, exact, taken in the
    leaf sum), and returned as a site-major view ``sites + (3, 3)`` of a
    contiguous ``(3, 3) + sites`` array (``np.moveaxis(f, (-2, -1), (0,
    1))`` gives that back without a copy).
    """
    q = _leaf_sum_sites(gauge, mu, nu, 1.0 / 8.0)
    f = np.conjugate(np.swapaxes(q, 0, 1), out=np.empty_like(q))
    return np.moveaxis(np.subtract(q, f, out=f), (0, 1), (-2, -1))
