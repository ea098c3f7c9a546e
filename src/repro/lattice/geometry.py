"""4-dimensional periodic lattice geometry.

A :class:`Geometry` fixes the global lattice extents and provides the site
indexing, parity masks and covariant shift operations that every Dirac
operator and halo-exchange routine is built on.

Conventions (matching the paper and QUDA):

* Physics extents are given as ``dims = (nx, ny, nz, nt)``.
* Arrays are stored ``(T, Z, Y, X, ...)`` so X is fastest-varying in memory
  ("the standard T-slowest mapping", Sec. 6.2 of the paper).
* Direction indices: ``mu = 0 -> x, 1 -> y, 2 -> z, 3 -> t``.
* ``shift(a, mu, +1)[x] == a[x + mu-hat]`` with periodic wrap by default;
  a ``"zero"`` boundary implements the Dirichlet cuts used by the additive
  Schwarz preconditioner (Sec. 3.2).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

#: Direction indices (physics convention).
X, Y, Z, T = 0, 1, 2, 3
DIRECTIONS = (X, Y, Z, T)

#: Names for pretty-printing partitionings, e.g. "XYZT".
DIR_NAMES = "XYZT"


def axis_of_mu(mu: int) -> int:
    """Array axis corresponding to direction ``mu`` for ``(T,Z,Y,X)`` layout."""
    if mu not in DIRECTIONS:
        raise ValueError(f"invalid direction {mu!r}")
    return 3 - mu


class Geometry:
    """Global (or local sub-) lattice geometry.

    Parameters
    ----------
    dims:
        Physics-order extents ``(nx, ny, nz, nt)``.  Extents must be even so
        the lattice admits an exact even-odd checkerboarding (all production
        lattices, including the paper's 32^3x256 and 64^3x192, are even).

    Examples
    --------
    >>> g = Geometry((4, 4, 4, 8))
    >>> g.volume
    512
    >>> g.shape
    (8, 4, 4, 4)
    """

    def __init__(self, dims: tuple[int, int, int, int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) != 4:
            raise ValueError(f"need 4 extents (nx,ny,nz,nt), got {dims}")
        if any(d < 2 for d in dims):
            raise ValueError(f"extents must be >= 2, got {dims}")
        if any(d % 2 for d in dims):
            raise ValueError(f"extents must be even for even-odd order, got {dims}")
        self.dims = dims
        #: Array shape, T slowest: (nt, nz, ny, nx).
        self.shape: tuple[int, int, int, int] = tuple(reversed(dims))
        self.volume = int(np.prod(dims))
        #: Number of sites per parity (half the volume).
        self.half_volume = self.volume // 2

    # ------------------------------------------------------------------
    # identity / comparison
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nx, ny, nz, nt = self.dims
        return f"Geometry({nx}x{ny}x{nz}x{nt})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Geometry) and other.dims == self.dims

    def __hash__(self) -> int:
        return hash(("Geometry", self.dims))

    # ------------------------------------------------------------------
    # coordinates and parity
    # ------------------------------------------------------------------
    @cached_property
    def _coords(self) -> np.ndarray:
        # index arrays ordered (t, z, y, x)
        return np.indices(self.shape)

    def coordinate(self, mu: int) -> np.ndarray:
        """Integer coordinate array for direction ``mu`` over all sites."""
        return self._coords[axis_of_mu(mu)]

    @cached_property
    def parity(self) -> np.ndarray:
        """Site parity array: 0 for even sites, 1 for odd, shape ``self.shape``."""
        t, z, y, x = self._coords
        return ((x + y + z + t) % 2).astype(np.int8)

    @cached_property
    def even_mask(self) -> np.ndarray:
        return self.parity == 0

    @cached_property
    def odd_mask(self) -> np.ndarray:
        return self.parity == 1

    def parity_mask(self, parity: int) -> np.ndarray:
        if parity == 0:
            return self.even_mask
        if parity == 1:
            return self.odd_mask
        raise ValueError(f"parity must be 0 or 1, got {parity}")

    # ------------------------------------------------------------------
    # shifts
    # ------------------------------------------------------------------
    def shift(
        self,
        array: np.ndarray,
        mu: int,
        steps: int = 1,
        boundary: str = "periodic",
        lead: int = 0,
    ) -> np.ndarray:
        """Return the array of neighbor values ``result[x] = array[x + steps*mu]``.

        ``boundary="periodic"`` wraps around the lattice; ``boundary="zero"``
        implements Dirichlet conditions (sites whose neighbor falls outside
        the lattice read zero), which is exactly the communication-free cut
        the additive Schwarz preconditioner imposes at block boundaries;
        ``boundary="antiperiodic"`` flips the sign of wrapped values (the
        physical fermion boundary condition in time).

        ``lead`` leading axes (e.g. a multi-RHS batch axis) pass through
        unshifted; the lattice axes then start at ``array.shape[lead]``.
        """
        lead = int(lead)
        if array.ndim < lead + 4 or array.shape[lead : lead + 4] != self.shape:
            raise ValueError(
                f"array lattice shape {array.shape[lead:lead + 4]} does not "
                f"match lattice {self.shape}"
            )
        axis = lead + axis_of_mu(mu)
        out = np.roll(array, -steps, axis=axis)
        if boundary == "periodic":
            return out
        if boundary not in ("zero", "antiperiodic"):
            raise ValueError(f"unknown boundary {boundary!r}")
        out = out.copy() if out is array else out
        n = self.shape[axis_of_mu(mu)]
        if abs(steps) >= n:
            # Every site's neighbor crossed the boundary at least once; for
            # simplicity only single-crossing shifts are supported beyond
            # the zero case.
            if boundary == "zero":
                out[...] = 0
                return out
            raise ValueError(
                f"antiperiodic shift by {steps} exceeds extent {n}"
            )
        sl: list[slice] = [slice(None)] * array.ndim
        if steps > 0:
            sl[axis] = slice(n - steps, n)
        else:
            sl[axis] = slice(0, -steps)
        if boundary == "zero":
            out[tuple(sl)] = 0
        else:
            out[tuple(sl)] = -out[tuple(sl)]
        return out

    # ------------------------------------------------------------------
    # face / boundary helpers (used by the halo-exchange engine)
    # ------------------------------------------------------------------
    def face_slice(self, mu: int, side: int, depth: int = 1) -> tuple[slice, ...]:
        """Slicing tuple selecting the boundary slab of thickness ``depth``.

        ``side=+1`` selects the slab at the maximal coordinate in ``mu``
        (the face whose sites need ghosts from the forward neighbor);
        ``side=-1`` the minimal-coordinate slab.
        """
        if side not in (+1, -1):
            raise ValueError("side must be +1 or -1")
        axis = axis_of_mu(mu)
        n = self.shape[axis]
        if not 1 <= depth <= n:
            raise ValueError(f"depth {depth} out of range for extent {n}")
        sl: list[slice] = [slice(None)] * 4
        sl[axis] = slice(n - depth, n) if side == +1 else slice(0, depth)
        return tuple(sl)

    def face_volume(self, mu: int, depth: int = 1) -> int:
        """Number of sites in a boundary slab of thickness ``depth``."""
        axis = axis_of_mu(mu)
        return depth * self.volume // self.shape[axis]

    def surface_to_volume(self, partitioned: tuple[int, ...], depth: int = 1) -> float:
        """Total two-sided halo surface over local volume, for scaling analysis."""
        surface = sum(2 * self.face_volume(mu, depth) for mu in partitioned)
        return surface / self.volume


def shift_sites(
    dst: np.ndarray, src: np.ndarray, axis: int, steps: int, boundary: str
) -> np.ndarray:
    """``dst[x] = src[x + steps]`` along ``axis`` as two slice-writes.

    Same values as :meth:`Geometry.shift` (periodic wrap, sign-flipped
    wrap, or zeroed wrap) without the ``np.roll`` temporary; ``dst`` must
    not alias ``src``.
    """
    n = src.shape[axis]
    if abs(steps) >= n and boundary != "periodic":
        if boundary != "zero":
            raise ValueError(f"antiperiodic shift by {steps} exceeds extent {n}")
        dst.fill(0)
        return dst
    s = steps % n
    pre = (slice(None),) * (axis % src.ndim)
    dst[pre + (slice(0, n - s),)] = src[pre + (slice(s, n),)]
    dst[pre + (slice(n - s, n),)] = src[pre + (slice(0, s),)]
    if boundary != "periodic":
        # The sites whose neighbor crossed the boundary: the high end for
        # a forward shift, the low end for a backward one.
        wrapped = dst[pre + (slice(n - s, n) if steps > 0 else slice(0, n - s),)]
        if boundary == "zero":
            wrapped.fill(0)
        else:
            np.negative(wrapped, out=wrapped)
    return dst


def extract_region(
    array: np.ndarray,
    geometry: Geometry,
    origin: tuple[int, int, int, int],
    extents: tuple[int, int, int, int],
    lead: int = 0,
) -> np.ndarray:
    """Copy a (periodically wrapped) rectangular region of a global field.

    ``origin`` is the physics-order (x, y, z, t) coordinate of the
    region's first site (may be negative); ``extents`` its size.
    """
    out = array
    for mu in range(4):
        axis = lead + axis_of_mu(mu)
        n = geometry.dims[mu]
        idx = (np.arange(extents[mu]) + origin[mu]) % n
        out = np.take(out, idx, axis=axis)
    return np.ascontiguousarray(out)


def stack_regions(
    array: np.ndarray,
    geometry: Geometry,
    origins,
    extents: tuple[int, int, int, int],
    lead: int = 0,
    dtype=None,
) -> np.ndarray:
    """Copy same-shape regions of a global field into one array, the
    regions becoming a *lane* axis in front of the lattice axes:
    ``array.shape[:lead] + (len(origins),) + region shape + site axes``.
    ``dtype`` (default: the field's) is what the regions are cast to as
    they are written, so no full-size copy in the field's own dtype exists.
    """
    out = np.empty(
        array.shape[:lead] + (len(origins),) + tuple(extents[::-1])
        + array.shape[lead + 4:],
        dtype=array.dtype if dtype is None else dtype,
    )
    for lane, origin in enumerate(origins):
        out[(slice(None),) * lead + (lane,)] = extract_region(
            array, geometry, origin, extents, lead=lead
        )
    return out
