"""The compiled tier's build, cache and load-time probe: where the library
goes, who may build it at once, what makes the tier unavailable and that
it then says why.  Every test points the cache at its own empty directory;
none touches the session's (or the user's) cached library."""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import CBackend, get_backend
from repro.kernels.c_backend import SOURCE, cache_directories

pytestmark = pytest.mark.skipif(
    not get_backend("c").available, reason="this host cannot build the tier"
)

REPORT = (
    "from repro.kernels import get_backend, resolve_kernel\n"
    "c = get_backend('c')\n"
    "print(c.available, resolve_kernel('auto', 'wilson').name, c.library_path)"
)


@pytest.fixture()
def cold_cache(tmp_path, monkeypatch):
    """An empty ``$XDG_CACHE_HOME``, for this process and its children."""
    home = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


def libraries(directory: Path) -> list[Path]:
    return sorted(directory.glob("repro/wilson_hop-*.so"))


def test_builds_once_then_loads(cold_cache, monkeypatch):
    first = CBackend()
    assert first.available and first.unavailable_reason is None
    (library,) = libraries(cold_cache)
    assert first.library_path == library
    assert stat.S_IMODE(library.parent.stat().st_mode) == 0o700
    assert not list(library.parent.glob("*.tmp"))
    # A second process-worth of state finds it: no compiler is started.
    monkeypatch.setattr(
        subprocess, "run",
        lambda *a, **k: pytest.fail("rebuilt a cached library"),
    )
    again = CBackend()
    assert again.available and again.library_path == library
    assert again.availability_hint() == "c"


def test_probe_compares_with_numpy_multiply():
    library = get_backend("c")._library
    library.probe()
    for name, multiply in library.multiply.items():
        rng = np.random.default_rng(1)
        a, b = (
            (rng.standard_normal(1001) + 1j * rng.standard_normal(1001)).astype(name)
            for _ in range(2)
        )
        got = np.empty_like(a)
        multiply(a.size, a.ctypes.data, b.ctypes.data, got.ctypes.data)
        assert got.tobytes() == (a * b).tobytes()
        # ... which is the fused form, not the textbook one.
        plain = (a.real * b.real - a.imag * b.imag) + 1j * (
            a.real * b.imag + a.imag * b.real
        )
        assert (plain.astype(name) != got).sum() > 100


def test_unfused_multiply_is_refused(cold_cache, tmp_path):
    """-ffp-contract=off alone is not enough: a library whose multiply is
    the textbook ``ar*br - ai*bi`` builds, loads — and fails the probe."""
    text = SOURCE.read_text()
    fused = "FMA((ar), (br), -((ai) * (bi)))"
    assert fused in text
    source = tmp_path / "unfused" / SOURCE.name
    source.parent.mkdir()
    source.write_text(text.replace(fused, "((ar) * (br) - (ai) * (bi))"))
    backend = CBackend(source=source)
    assert not backend.available
    assert "multiply probe failed" in backend.unavailable_reason
    assert backend.availability_hint().startswith("c (unavailable: multiply probe")
    assert libraries(cold_cache)  # it did build: the probe is what refused it


def test_an_update_unlike_numpys_is_refused(cold_cache, tmp_path):
    """The probe runs the update entry too: a library whose ``y + a*x``
    multiplies the textbook way builds and loads — and is refused."""
    text = SOURCE.read_text()
    fused = "out[i] = y[i] + CMUL_RE(ar, ai, xr, xi);"
    assert fused in text
    source = tmp_path / "update" / SOURCE.name
    source.parent.mkdir()
    source.write_text(text.replace(fused, "out[i] = y[i] + (ar * xr - ai * xi);"))
    backend = CBackend(source=source)
    assert not backend.available
    assert "update probe failed" in backend.unavailable_reason
    assert libraries(cold_cache)


def test_a_blas_call_loads_the_library_and_never_builds_it(
    cold_cache, monkeypatch
):
    """No library cached: the update is NumPy's and no compiler starts.
    Cached (another process built it): the next process's first update
    loads it and runs its pass — still without a compiler."""
    from repro.kernels.registry import KERNELS
    from repro.linalg import blas

    def fresh_process_tier():
        monkeypatch.setitem(KERNELS.entries, "c", CBackend())
        return KERNELS.entries["c"]

    # an update in place of a field the compiled pass is for
    x = np.arange(blas._COMPILED_UPDATE_BYTES // 16, dtype=np.complex128)
    y = np.ones_like(x)
    expected = (y + 0.5j * x).tobytes()
    run = subprocess.run
    monkeypatch.setattr(
        subprocess, "run", lambda *a, **k: pytest.fail("a BLAS call built")
    )
    tier = fresh_process_tier()
    out = y.copy()
    assert blas.caxpy(0.5j, x, y, out=out) is out
    assert out.tobytes() == expected
    assert tier.library_path is None and not libraries(cold_cache)

    monkeypatch.setattr(subprocess, "run", run)
    assert CBackend().available  # the build another process makes
    monkeypatch.setattr(
        subprocess, "run", lambda *a, **k: pytest.fail("a BLAS call built")
    )
    tier = fresh_process_tier()
    out = y.copy()
    assert blas.caxpy(0.5j, x, y, out=out) is out
    assert out.tobytes() == expected
    assert tier.library_path == libraries(cold_cache)[0]


def test_compiler_errors_land_in_the_reason(cold_cache, tmp_path):
    source = tmp_path / "broken" / SOURCE.name
    source.parent.mkdir()
    source.write_text(SOURCE.read_text() + "\nthis is not C;\n")
    backend = CBackend(source=source)
    assert not backend.available
    assert "failed" in backend.unavailable_reason
    assert "error" in backend.unavailable_reason
    assert not libraries(cold_cache)
    assert not list(cold_cache.glob("repro/*.tmp"))


def test_missing_compiler(cold_cache):
    backend = CBackend(compiler="/nonexistent/bin/cc")
    assert not backend.available
    assert backend.unavailable_reason == (
        "no C compiler: '/nonexistent/bin/cc' is not on PATH"
    )
    assert not cold_cache.exists()


def test_unusable_home_falls_back_to_the_temp_directory_then_gives_up(
    tmp_path, monkeypatch
):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    fallback = tmp_path / "tmp" / f"repro-{os.getuid()}"
    assert list(cache_directories()) == [blocker / "cache" / "repro", fallback]
    backend = CBackend()
    assert backend.available and backend.library_path.parent == fallback
    assert stat.S_IMODE(fallback.stat().st_mode) == 0o700

    # A directory others can write to is not somewhere to load code from.
    fallback.chmod(0o777)
    refused = CBackend()
    assert not refused.available
    assert "no private writable cache directory" in refused.unavailable_reason
    assert str(fallback) in refused.unavailable_reason


def test_four_processes_race_on_a_cold_cache(cold_cache, child_env):
    """The round child and the daemon it boots, ``processes``-backend rank
    workers: each builds to its own temporary name and renames it in."""
    env = dict(child_env, XDG_CACHE_HOME=str(cold_cache))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", REPORT], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(4)
    ]
    outputs = [child.communicate(timeout=300) for child in children]
    (library,) = libraries(cold_cache)
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
        assert out.split() == ["True", "c", str(library)]
    assert not list(cold_cache.glob("repro/*.tmp"))


def test_help_does_not_build_and_kernels_does(cold_cache, child_env):
    env = dict(child_env, XDG_CACHE_HOME=str(cold_cache))

    def repro(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert "c (builds on first use), numpy" in repro("--help")
    assert not cold_cache.exists()
    out = repro("kernels")
    (library,) = libraries(cold_cache)
    assert f"c: {library} (multiply probe passed)" in out
    assert "kernel backends: c, numpy, numpy_ref" in repro("--help")
