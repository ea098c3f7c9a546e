"""Splitting the global lattice into per-rank sub-volumes.

"Upon partitioning the lattice each GPU is assigned a 4-dimensional
subvolume that is bounded by at most eight 3-dimensional faces" (Sec. 6.1).
A :class:`BlockPartition` binds a :class:`~repro.lattice.geometry.Geometry`
to a :class:`~repro.comm.grid.ProcessGrid` and provides the array slicing
to scatter/gather fields, plus the per-rank origins the staggered phases
and ghost layout need.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import Geometry, axis_of_mu


class BlockPartition:
    """A division of the global lattice into equal rectangular blocks."""

    def __init__(self, geometry: Geometry, grid: ProcessGrid):
        self.geometry = geometry
        self.grid = grid
        local = []
        for mu in range(4):
            n, p = geometry.dims[mu], grid.dims[mu]
            if n % p:
                raise ValueError(
                    f"lattice extent {n} (dir {mu}) not divisible by grid {p}"
                )
            if (n // p) % 2 or n // p < 2:
                raise ValueError(
                    f"local extent {n // p} (dir {mu}) must be even and >= 2"
                )
            local.append(n // p)
        #: Local block extents (nx, ny, nz, nt).
        self.local_dims = tuple(local)
        self.local_geometry = Geometry(self.local_dims)

    @property
    def n_ranks(self) -> int:
        return self.grid.size

    @cached_property
    def local_volume(self) -> int:
        return self.local_geometry.volume

    def origin(self, rank: int) -> tuple[int, int, int, int]:
        """Global (x, y, z, t) coordinate of the block's first site."""
        coords = self.grid.coords(rank)
        return tuple(coords[mu] * self.local_dims[mu] for mu in range(4))

    def slices(self, rank: int, lead: int = 0) -> tuple[slice, ...]:
        """Array slicing tuple selecting this rank's block.

        ``lead`` extra leading axes are passed through (1 for gauge fields,
        whose arrays start with the direction axis).
        """
        coords = self.grid.coords(rank)
        site_slices = [slice(None)] * 4
        for mu in range(4):
            start = coords[mu] * self.local_dims[mu]
            site_slices[axis_of_mu(mu)] = slice(start, start + self.local_dims[mu])
        return (slice(None),) * lead + tuple(site_slices)

    # ------------------------------------------------------------------
    # scatter / gather
    # ------------------------------------------------------------------
    def split(self, array: np.ndarray, lead: int = 0) -> list[np.ndarray]:
        """Scatter a global array into per-rank blocks (copies)."""
        self._check_global(array, lead)
        return [
            np.ascontiguousarray(array[self.slices(rank, lead)])
            for rank in self.grid.all_ranks()
        ]

    def assemble(
        self, locals_: list[np.ndarray], lead: int = 0, dtype=None
    ) -> np.ndarray:
        """Gather per-rank blocks back into one global array (of the
        blocks' dtype unless ``dtype`` says otherwise)."""
        if len(locals_) != self.n_ranks:
            raise ValueError(
                f"need {self.n_ranks} local blocks, got {len(locals_)}"
            )
        sample = locals_[0]
        global_shape = (
            sample.shape[:lead]
            + self.geometry.shape
            + sample.shape[lead + 4 :]
        )
        out = np.empty(global_shape, dtype=dtype or sample.dtype)
        for rank, block in enumerate(locals_):
            out[self.slices(rank, lead)] = block
        return out

    def stack(self, array: np.ndarray, lead: int = 0) -> np.ndarray:
        """Scatter a global array into ONE array whose blocks are a *lane*
        axis in front of the lattice axes: ``array.shape[:lead] +
        (n_ranks,) + local shape + site axes`` (lane ``r`` is
        ``split(array, lead)[r]``)."""
        self._check_global(array, lead)
        return np.stack(
            [array[self.slices(rank, lead)] for rank in self.grid.all_ranks()],
            axis=lead,
        )

    def unstack(self, stacked: np.ndarray, lead: int = 0, dtype=None) -> np.ndarray:
        """Gather a lane-stacked array (see :meth:`stack`) back into one
        global array."""
        return self.assemble(list(np.moveaxis(stacked, lead, 0)), lead, dtype)

    def split_gauge(self, gauge: GaugeField) -> list[GaugeField]:
        """Scatter a gauge field into per-rank local gauge fields."""
        return [
            GaugeField(self.local_geometry, block)
            for block in self.split(gauge.data, lead=1)
        ]

    def _check_global(self, array: np.ndarray, lead: int) -> None:
        if array.shape[lead : lead + 4] != self.geometry.shape:
            raise ValueError(
                f"array site shape {array.shape[lead:lead + 4]} does not "
                f"match lattice {self.geometry.shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockPartition({self.geometry!r} over {self.grid})"
