"""Wilson-line path products on the lattice.

A *path* is a sequence of signed direction steps, e.g.
``[(Y, +1), (X, +1), (Y, -1)]`` is the upper 3-staple contributing to the
fat X link.  :func:`path_product` evaluates, for every starting site x at
once, the ordered product of link matrices along the path:

* a ``(mu, +1)`` step multiplies ``U_mu(p)`` and advances p to p + mu-hat;
* a ``(mu, -1)`` step retreats p to p - mu-hat and multiplies
  ``U_mu(p)^dagger``.

These products are the building blocks of the plaquette, the clover-leaf
field strength and the asqtad fattening paths.

They run *lattice-last*, in an order this module defines: links are read
as ``(3, 3, T, Z, Y, X)`` slabs, and every 3x3 product is three
whole-lattice multiply-adds,

    ``out[i, j] = (a[i, 0] b[0, j] + a[i, 1] b[1, j]) + a[i, 2] b[2, j]``

(:func:`repro.linalg.su3.link_apply_sites`), NumPy's complex multiply with
``a`` — the product so far — first, taken left to right along the path.
No BLAS call is made, so the bits are the same on every CPU (NumPy's
stacked matrix product is OpenBLAS ``zgemm``, whose kernel is chosen per
CPU).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.registry import KERNELS
from repro.lattice.geometry import Geometry, axis_of_mu, shift_sites
from repro.linalg.su3 import link_apply_sites

Step = tuple[int, int]  # (direction mu, sign +1/-1)


def shift_field(
    geometry: Geometry, array: np.ndarray, offset: Sequence[int]
) -> np.ndarray:
    """Shift a site field by an integer 4-vector: ``out[x] = array[x + offset]``.

    ``offset`` is in physics order ``(dx, dy, dz, dt)``; periodic wrap.
    """
    out = array
    for mu, steps in enumerate(offset):
        if steps:
            out = np.roll(out, -steps, axis=axis_of_mu(mu))
    return out


def link_slabs(gauge_data: np.ndarray) -> np.ndarray:
    """``U[mu, t, z, y, x, a, b]`` (``GaugeField.data``) as the slabs
    :func:`path_product_sites` reads, ``(mu, a, b, t, z, y, x)``: a view."""
    return np.moveaxis(gauge_data, (-2, -1), (1, 2))


def path_product_sites(links: np.ndarray, steps: Sequence[Step]) -> np.ndarray:
    """Ordered product of links along ``steps`` for every starting site,
    lattice-last: ``(3, 3) + lattice``, contiguous.

    ``links`` is ``(4, 3, 3) + lattice`` with ``links[mu, a, b]`` the
    element ``U_mu(x)_ab`` at every site (:func:`link_slabs`, or a view of
    any layout).  The walk holds the product at the path's *current end*:
    after k steps, ``R(y)`` is the product of the first k links of the
    path that has reached ``y``.  A forward step multiplies by ``U_mu(y)``
    and moves ``R`` one site on; a backward step moves ``R`` one site back
    and multiplies by ``U_mu(y)^+`` (its conjugate, read transposed).  Each
    link is read where it lies, each step is one single-axis slice shift
    (:func:`repro.lattice.geometry.shift_sites`), and the product is moved
    back to the starting sites at the end — not at all for a closed loop.
    Per site that is the product taken left to right from the start, the
    first link as it is.
    """
    _check_steps(steps)
    lattice = links.shape[3:]
    product, moved, tmp, conj = (
        np.empty((3, 3) + lattice, links.dtype) for _ in range(4)
    )
    offset = [0, 0, 0, 0]
    first = True
    for mu, sign in steps:
        axis = -1 - mu
        offset[mu] += sign
        if sign == +1:
            link = links[mu]
            if first:
                shift_sites(product, link, axis, -1, "periodic")
            else:
                link_apply_sites(link, product, moved, tmp)
                shift_sites(product, moved, axis, -1, "periodic")
        else:
            np.conjugate(np.swapaxes(links[mu], 0, 1), out=conj)
            if first:
                product, conj = conj, product
            else:
                shift_sites(moved, product, axis, +1, "periodic")
                link_apply_sites(conj, moved, product, tmp)
        first = False
    if first:
        product[...] = np.eye(3, dtype=links.dtype).reshape(
            (3, 3) + (1,) * len(lattice)
        )
        return product
    for mu, steps_mu in enumerate(offset):
        if steps_mu:
            shift_sites(moved, product, -1 - mu, steps_mu, "periodic")
            product, moved = moved, product
    return product


def path_sum_sites(links: np.ndarray, weighted_paths) -> np.ndarray:
    """``sum_p w_p P_p`` for every starting site, lattice-last ``(3, 3) +
    lattice``: the path products of :func:`path_product_sites` weighted by
    ``(w_p, path_p)`` of ``weighted_paths`` and summed in that order,
    starting from zero — each ``w_p`` a real number taken as the
    product's first operand, in the links' precision.  The compiled tier
    runs the whole sum with the product and the sum of a block of sites
    in registers when its library is loaded (never built here): the same
    bits."""
    weighted_paths = [(float(w), list(path)) for w, path in weighted_paths]
    for _, path in weighted_paths:
        _check_steps(path)
    compiled = KERNELS.entries["c"].path_sum(links, weighted_paths)
    if compiled is not None:
        return compiled
    out = np.zeros((3, 3) + links.shape[3:], links.dtype)
    for w, path in weighted_paths:
        product = path_product_sites(links, path)
        out += np.multiply(w, product, out=product)
    return out


def _check_steps(steps: Sequence[Step]) -> None:
    for mu, sign in steps:
        if mu not in (0, 1, 2, 3):
            raise ValueError(f"invalid step direction {mu}")
        if sign not in (+1, -1):
            raise ValueError(f"invalid step sign {sign}")


def path_product(
    geometry: Geometry, gauge_data: np.ndarray, steps: Sequence[Step]
) -> np.ndarray:
    """Ordered product of links along ``steps``, for every starting site.

    Parameters
    ----------
    gauge_data:
        Link field ``U[mu, t, z, y, x, a, b]`` (``GaugeField.data``).
    steps:
        Sequence of ``(mu, sign)`` moves.

    Returns
    -------
    Array of shape ``geometry.shape + (3, 3)``: the path-ordered product
    starting at each site — a site-major view of
    :func:`path_product_sites`.
    """
    product = path_product_sites(link_slabs(gauge_data), steps)
    return np.moveaxis(product, (0, 1), (-2, -1))


def path_displacement(steps: Sequence[Step]) -> tuple[int, int, int, int]:
    """Net lattice displacement of a path (useful for validating path sets)."""
    disp = [0, 0, 0, 0]
    for mu, sign in steps:
        disp[mu] += sign
    return tuple(disp)
