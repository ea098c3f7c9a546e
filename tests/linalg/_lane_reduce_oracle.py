"""``repro.linalg.blas.lane_reduce`` as it was first written: the order's
reference in NumPy, one ``np.add.accumulate`` over a site's terms and
another over the slots' sites.  The library's version now sums a site's
components in a Python loop (one vectorised add over every site a step)
and must give these bytes; ``test_lane_reduce.py`` holds it to them."""

from __future__ import annotations

import math

import numpy as np

_SLOTS = 8


def previous_lane_reduce(x, y=None, site_axes=2):
    """The order of :func:`repro.linalg.blas.lane_reduce`, as first written."""
    rows = x.shape[0]
    k = math.prod(x.shape[x.ndim - site_axes:])

    def parts(v):
        v = np.ascontiguousarray(v).reshape(rows, -1, k)
        return v.view(v.real.dtype).reshape(v.shape + (2,)).astype(np.float64)

    a = parts(x)
    if y is None:
        terms = (a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1])[..., None]
    else:
        b = parts(y)
        terms = np.stack([
            a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1],
            a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
        ], axis=-1)
    sites = np.add.accumulate(terms, axis=2)[:, :, -1]  # (rows, V, parts)
    full = sites.shape[1] - sites.shape[1] % _SLOTS
    slots = np.zeros((rows, _SLOTS, sites.shape[2]))
    if full:
        blocks = sites[:, :full].reshape(rows, -1, _SLOTS, sites.shape[2])
        slots = np.add.accumulate(blocks, axis=1)[:, -1]
    tail = sites[:, full:]
    if tail.shape[1]:
        n = tail.shape[1]
        slots[:, :n] = slots[:, :n] + tail if full else tail
    while slots.shape[1] > 1:
        half = slots.shape[1] // 2
        slots = slots[:, :half] + slots[:, half:]
    if y is None:
        return slots[:, 0, 0]
    out = np.empty(rows, np.complex128)
    out.real, out.imag = slots[:, 0, 0], slots[:, 0, 1]
    return out
