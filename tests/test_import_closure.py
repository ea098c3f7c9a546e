"""What ``import repro`` loads.  Every solve, round child, forked rank
worker and daemon imports the package, so a third-party module pulled in
at import time is paid by all of them; the library depends on NumPy
alone.  The gate is the module set; the seconds are printed for the CI
log, not asserted (the host wanders +-30%)."""

from __future__ import annotations

import subprocess
import sys

import pytest

#: Importing the library, the serve package (client and daemon) and the
#: CLI may load NumPy and none of these.  ``subprocess`` is the compiled
#: kernel tier's: registering the tier at import neither builds nor loads
#: anything, so only the one process per host that compiles imports it.
FORBIDDEN = ("scipy", "matplotlib", "pytest", "subprocess")

CLOSURE = f"""
import sys, time
start = time.perf_counter()
import repro, repro.serve, repro.cli
seconds = time.perf_counter() - start
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in {FORBIDDEN!r}
)
print(f"import repro, repro.serve, repro.cli: {{seconds:.3f}} s, "
      f"{{len(sys.modules)}} modules")
assert not loaded, loaded
"""

HELP = """
import sys
from repro.cli import main
for argv in (["--help"], ["serve", "--help"]):
    try:
        main(argv)
    except SystemExit as exit:
        assert exit.code == 0, argv
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
"""

@pytest.fixture()
def run(child_env):
    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


def test_import_loads_no_scipy_matplotlib_or_pytest(run):
    print(run(CLOSURE))


def test_help_needs_no_scipy(run):
    out = run(HELP)
    assert "usage:" in out and "serve" in out

