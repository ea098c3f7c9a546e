"""Shared fixtures: small lattices and gauge configurations.

Session-scoped fixtures are treated as immutable by every test; anything
that needs to mutate a field makes its own copy.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.lattice import Geometry, GaugeField, SpinorField


@pytest.fixture()
def child_env() -> dict:
    """Environment for a ``python -m repro`` / ``python -c`` child: the
    ``src`` this session imported ``repro`` from, first on its path."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def missing_compiler():
    """The host without a C compiler: the registered ``"c"`` tier is one
    built around a compiler path that does not exist, so it is unavailable
    with the reason and ``"auto"`` is NumPy (the degrade path of a host
    that cannot build the library)."""
    from repro.kernels import CBackend
    from repro.kernels.registry import KERNELS

    saved = KERNELS.entries["c"]
    broken = KERNELS.register(CBackend(compiler="/nonexistent/bin/cc"))
    yield broken
    KERNELS.entries["c"] = saved


@pytest.fixture(scope="session")
def geom44() -> Geometry:
    """The smallest asqtad-capable lattice: 4^4."""
    return Geometry((4, 4, 4, 4))


@pytest.fixture(scope="session")
def geom448() -> Geometry:
    """An asymmetric lattice (nx=ny=4, nz=4, nt=8) for partition tests."""
    return Geometry((4, 4, 4, 8))


@pytest.fixture(scope="session")
def geom_mixed() -> Geometry:
    """Distinct extents in every direction to catch axis-order bugs."""
    return Geometry((4, 6, 8, 10))


@pytest.fixture(scope="session")
def weak_gauge(geom44) -> GaugeField:
    return GaugeField.weak(geom44, epsilon=0.3, rng=101)


@pytest.fixture(scope="session")
def weak_gauge448(geom448) -> GaugeField:
    return GaugeField.weak(geom448, epsilon=0.3, rng=202)


@pytest.fixture(scope="session")
def hot_gauge(geom44) -> GaugeField:
    return GaugeField.hot(geom44, rng=303)


@pytest.fixture()
def wilson_vec(geom44, rng) -> np.ndarray:
    return SpinorField.random(geom44, rng=rng).data


@pytest.fixture()
def staggered_vec(geom44, rng) -> np.ndarray:
    return SpinorField.random(geom44, nspin=1, rng=rng).data


def random_wilson(geometry: Geometry, seed: int = 7) -> np.ndarray:
    return SpinorField.random(geometry, rng=seed).data


def random_staggered(geometry: Geometry, seed: int = 7) -> np.ndarray:
    return SpinorField.random(geometry, nspin=1, rng=seed).data
