"""Test-only oracle: the path product as it stood in ``src/`` before it ran
lattice-last — each link shifted to the starting site with ``np.roll``,
each step one stacked ``(..., 3, 3) @ (..., 3, 3)`` product.  A stacked
``matmul`` is OpenBLAS ``zgemm``, whose kernel (hence bits) the BLAS build
picks per CPU, so the lattice-last form is held to it within rounding, not
bit for bit.  Nothing in ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np

from repro.gauge.paths import shift_field
from repro.linalg import su3


def matmul_path_product(geometry, gauge_data, steps) -> np.ndarray:
    """``geometry.shape + (3, 3)``: the path-ordered product at each site."""
    offset = [0, 0, 0, 0]
    product = None
    for mu, sign in steps:
        if sign == +1:
            link = shift_field(geometry, gauge_data[mu], offset)
            offset[mu] += 1
        else:
            offset[mu] -= 1
            link = su3.dagger(shift_field(geometry, gauge_data[mu], offset))
        product = link if product is None else product @ link
    return product
