"""The lattice-last path products against the stacked-``matmul`` form they
replaced (``_matmul_paths.py``): every asqtad path and every clover leaf
on a 4^4 weak gauge, to rounding — the two associate nothing differently,
but ``zgemm`` rounds its dot products its own (CPU-dependent) way."""

import itertools

import numpy as np
import pytest

from repro.gauge.asqtad import (
    NAIK_COEFF,
    build_fat_links,
    build_long_links,
    fattening_paths,
)
from repro.gauge.observables import clover_leaves, field_strength
from repro.gauge.paths import (
    link_slabs,
    path_product,
    path_product_sites,
    path_sum_sites,
)
from repro.linalg import su3

from _matmul_paths import matmul_path_product

PLANES = list(itertools.combinations(range(4), 2))


def close(new, old):
    return np.allclose(new, old, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("mu", range(4))
def test_every_asqtad_path_matches_matmul(weak_gauge, mu):
    geom, data = weak_gauge.geometry, weak_gauge.data
    paths = [path for _, path in fattening_paths(mu)] + [[(mu, +1)] * 3]
    assert len(paths) == 86
    for path in paths:
        assert close(
            path_product(geom, data, path), matmul_path_product(geom, data, path)
        ), path


def test_every_clover_leaf_matches_matmul(weak_gauge):
    geom, data = weak_gauge.geometry, weak_gauge.data
    for mu, nu in PLANES:
        for leaf in clover_leaves(mu, nu):
            assert close(
                path_product(geom, data, leaf),
                matmul_path_product(geom, data, leaf),
            ), leaf


def test_field_strength_and_links_match_matmul(weak_gauge):
    """What the clover build and the fattening take from the products."""
    geom, data = weak_gauge.geometry, weak_gauge.data
    for mu, nu in PLANES:
        q = sum(matmul_path_product(geom, data, leaf)
                for leaf in clover_leaves(mu, nu))
        assert close(field_strength(weak_gauge, mu, nu), (q - su3.dagger(q)) / 8)
    fat = np.zeros_like(data)
    long_links = np.empty_like(data)
    for mu in range(4):
        for coeff, path in fattening_paths(mu):
            fat[mu] += coeff * matmul_path_product(geom, data, path)
        long_links[mu] = NAIK_COEFF * matmul_path_product(
            geom, data, [(mu, +1)] * 3
        )
    assert close(build_fat_links(weak_gauge), fat)
    assert close(build_long_links(weak_gauge), long_links)


def test_site_major_view_of_the_lattice_last_product(weak_gauge):
    geom, data = weak_gauge.geometry, weak_gauge.data
    path = [(0, +1), (2, -1), (3, +1)]
    sites = path_product_sites(link_slabs(data), path)
    assert sites.flags.c_contiguous and sites.shape == (3, 3) + geom.shape
    assert np.array_equal(
        path_product(geom, data, path), np.moveaxis(sites, (0, 1), (-2, -1))
    )


@pytest.mark.parametrize("step", [(0, 2), (0, 0), (1, -2), (4, 1), (-1, 1)])
def test_an_invalid_step_raises(weak_gauge, step):
    links = link_slabs(weak_gauge.data)
    with pytest.raises(ValueError):
        path_product_sites(links, [(0, +1), step])
    with pytest.raises(ValueError):
        path_sum_sites(links, [(1.0, [(1, +1)]), (0.5, [step, (0, -1)])])


def test_an_empty_path_in_a_sum_is_the_identity(weak_gauge):
    links = link_slabs(weak_gauge.data)
    out = path_sum_sites(links, [(0.5, []), (0.25, [(2, +1), (2, -1)])])
    expect = 0.75 * np.eye(3).reshape((3, 3) + (1,) * 4)
    assert np.allclose(out, expect, atol=1e-15)
