"""The clover term and the asqtad fat and long links are the repository's
bits, not the BLAS build's: built from the same saved gauge bytes under
two OpenBLAS core types, they hash the same.

OpenBLAS (``DYNAMIC_ARCH``) picks its kernels per CPU, and
``OPENBLAS_CORETYPE`` overrides the pick; a stacked ``matmul`` is
``zgemm``, so a build that multiplied links through it had bits that
moved with the variable.  The test first makes sure the variable does
move a stacked ``matmul``'s bits here, and skips where it does not (no
OpenBLAS, no such core type, or one CPU kernel for both).  The gauge is
generated once and saved: ``GaugeField.weak`` projects to SU(3) through
LAPACK, so the configuration itself would differ.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro import GaugeField, Geometry

CORE_TYPES = ("Haswell", "Sandybridge")

MATMUL = """
import hashlib, numpy as np
rng = np.random.default_rng(0)
a, b = (rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3))
        for _ in range(2))
print(hashlib.sha256((a @ b).tobytes()).hexdigest())
"""

BUILD = """
import hashlib, sys, numpy as np
from repro import GaugeField, Geometry
from repro.dirac.clover import build_clover_blocks
from repro.gauge.asqtad import build_fat_links, build_long_links
from repro.kernels import get_backend
data = np.load(sys.argv[1])
gauge = GaugeField(Geometry(data.shape[1:5][::-1]), data)
for array in (build_clover_blocks(gauge, 1.0, get_backend("numpy")),
              build_fat_links(gauge), build_long_links(gauge, u0=0.9)):
    print(hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest())
"""


def run(child_env, core_type, *argv):
    """A child's output under ``core_type``, or ``None`` if it failed (a
    core type this CPU cannot run)."""
    done = subprocess.run(
        [sys.executable, "-c", *argv], capture_output=True, text=True,
        timeout=300, env=dict(child_env, OPENBLAS_CORETYPE=core_type),
    )
    return done.stdout.split() if done.returncode == 0 else None


def test_set_up_bits_do_not_depend_on_the_blas_kernel(tmp_path, child_env):
    matmuls = [run(child_env, core, MATMUL) for core in CORE_TYPES]
    if None in matmuls or matmuls[0] == matmuls[1]:
        pytest.skip(
            f"OPENBLAS_CORETYPE={' / '.join(CORE_TYPES)} does not change a "
            "stacked matmul's bits on this host"
        )
    saved = tmp_path / "gauge.npy"
    np.save(saved, GaugeField.weak(Geometry((4, 4, 4, 4)), epsilon=0.25, rng=3).data)
    # The NumPy walk, which is what could depend on the BLAS (the compiled
    # one is held to its bits by tests/kernels/test_c_path_sum.py).
    (tmp_path / "tmp").mkdir()
    env = dict(child_env, XDG_CACHE_HOME=str(tmp_path / "empty-cache"),
               TMPDIR=str(tmp_path / "tmp"))
    hashes = [run(env, core, BUILD, str(saved)) for core in CORE_TYPES]
    assert hashes[0] is not None and len(hashes[0]) == 3
    assert hashes[0] == hashes[1]
