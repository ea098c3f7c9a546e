"""The compiled path sum (``CBackend.path_sum``, ``repro_path_sum`` in
``wilson_hop.c``) against the NumPy walk of ``path_sum_sites``, bit for
bit: the asqtad fattening paths, the clover leaves and the Naik path on
links of the grid's extents (1 and odd included), in the site-major layout
of ``GaugeField.data`` and lattice-last, through zeros of both signs and
non-finite values."""

from __future__ import annotations

import itertools
import subprocess
import tempfile

import numpy as np
import pytest

from _c_grid import DTYPES, EXTENTS, field, needs_c, same_bits

from repro.gauge.asqtad import NAIK_COEFF, fattening_paths
from repro.gauge.observables import clover_leaves
from repro.gauge.paths import link_slabs, path_sum_sites
from repro.kernels import CBackend, get_backend

pytestmark = needs_c

#: Per case: one direction's fattening paths, every clover's leaves
#: weighted an eighth (the field strength's sums), the Naik path.
SUMS = [fattening_paths(2)] + [
    [(0.125, leaf) for leaf in clover_leaves(mu, nu)]
    for mu, nu in itertools.combinations(range(4), 2)
] + [[(NAIK_COEFF, [(0, +1)] * 3)]]

GRID = [
    (1, 1, 1, 1), (2, 3, 1, 4), (3, 3, 3, 3), (4, 6, 2, 1), (8, 1, 3, 6),
    (6, 4, 8, 2), (8, 8, 8, 4),
]
assert {e for dims in GRID for e in dims} == set(EXTENTS)


def numpy_sum(monkeypatch, links, weighted):
    with monkeypatch.context() as m:
        m.setattr(get_backend("c"), "path_sum", lambda *args: None)
        return path_sum_sites(links, weighted)


def layouts(site_major):
    """The links as ``GaugeField.data`` holds them, and lattice-last."""
    slabs = link_slabs(site_major)
    return {"site-major": slabs, "lattice-last": np.ascontiguousarray(slabs)}


def assert_sums(monkeypatch, site_major):
    for layout, links in layouts(site_major).items():
        for weighted in SUMS:
            compiled = get_backend("c").path_sum(links, weighted)
            assert compiled is not None, layout
            assert same_bits(compiled, numpy_sum(monkeypatch, links, weighted)), (
                layout, weighted[0][1],
            )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dims", GRID)
def test_compiled_sum_equals_numpy(monkeypatch, dims, dtype):
    rng = np.random.default_rng(sum(dims))
    assert_sums(monkeypatch, field(rng, (4,) + dims[::-1] + (3, 3), dtype, "dense"))


@pytest.mark.parametrize("fill", ["negative-zero", "nan", "inf", "zero"])
def test_compiled_sum_equals_numpy_on_special_values(monkeypatch, fill):
    rng = np.random.default_rng(7)
    with np.errstate(invalid="ignore", over="ignore"):
        assert_sums(monkeypatch, field(rng, (4, 2, 3, 1, 4, 3, 3), np.complex128, fill))


def test_the_entry_is_taken(monkeypatch):
    """``path_sum_sites`` reaches the library where it is loaded (a spy
    that fails if the NumPy walk runs instead)."""
    import repro.gauge.paths

    backend = get_backend("c")
    assert backend.available
    monkeypatch.setattr(
        repro.gauge.paths, "path_product_sites",
        lambda *a: pytest.fail("the NumPy walk ran"),
    )
    links = link_slabs(field(np.random.default_rng(1), (4, 4, 4, 4, 4, 3, 3),
                             np.complex128, "dense"))
    assert path_sum_sites(links, SUMS[0]).shape == (3, 3, 4, 4, 4, 4)


def test_a_path_sum_never_builds_the_library(tmp_path, monkeypatch):
    """With nothing cached the entry declines and compiles nothing: the
    NumPy walk is the answer (a set-up starts no compiler)."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(
        subprocess, "run", lambda *a, **k: pytest.fail("started a compiler")
    )
    links = link_slabs(field(np.random.default_rng(2), (4, 2, 2, 2, 2, 3, 3),
                             np.complex128, "dense"))
    assert CBackend().path_sum(links, SUMS[1]) is None
    assert not any(tmp_path.rglob("*.so"))


def test_declines_what_it_cannot_read():
    backend = get_backend("c")
    links = link_slabs(field(np.random.default_rng(3), (4, 2, 2, 2, 2, 3, 3),
                             np.complex128, "dense"))
    assert backend.path_sum(links, [(1.0, [])]) is None  # the empty path
    assert backend.path_sum(links[:, :, :, ::-1], SUMS[1]) is None  # stride < 0
    assert backend.path_sum(links.astype(np.clongdouble), SUMS[1]) is None
    assert backend.path_sum(links[..., :0], SUMS[1]) is None  # no sites
    # steps the library would read out of bounds with
    for step in ((4, 1), (-1, 1), (0, 2), (1, 0)):
        assert backend.path_sum(links, [(1.0, [(0, 1), step])]) is None
