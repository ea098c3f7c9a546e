"""The compiled tier: the Wilson stencil core in C, loaded with ctypes.

``wilson_hop.c`` (beside this module) holds the lattice-last 8-hop core of
``WilsonCloverOperator._hop_sites`` and the whole of ``_apply_sites``
around it — site-major field in, layout change, storage rounding, hops,
site-diagonal tail, rounding, site-major field out, no NumPy pass in
between — for complex128 and complex64, written to reproduce the NumPy
body's per-site IEEE operation sequence: the results are equal bit for
bit, so the NumPy body stays both the reference and the fallback for
whatever the C entries do not take (a non-contiguous lattice-last field,
a field wider than the operator).  Around that matrix it runs the Schwarz
block solve's whole MR recurrence in one call (``wilson_block_mr``), its
reductions in the order ``repro.linalg.blas.lane_reduce`` spells in
NumPy.  The matrix, the block solve and the even-odd entries split each
call over the CPUs the process may use: one helper thread per further
CPU, bound to it, on the solve's team (:func:`solve_team`) or joined
before the call returns.  The tier serves the Wilson family only.

The operands are the tier's own.  An operator of this tier holds its
clover term *Hermitian-packed in site vectors* — ``(L, NB, 2, 36, W)``
reals: per lane the lattice-last sites in blocks of ``W`` (the last one
zero-padded), per block and chirality the 6 real diagonals then the 15
elements above the diagonal, each ``W`` real parts then ``W`` imaginary
parts: the paper's 72 reals a site, half the bytes of the chiral blocks
the NumPy tiers keep — and that array is the only form it holds: the
``clover_*`` hooks below pack it (refusing blocks that are not Hermitian
bit for bit), expand it back — a chirality at a time — for whoever needs
the blocks, cast it, and gather region stacks and lanes from it, in C,
with no NumPy temporary.

The library is built on first use with the host's ``cc`` into the user
cache directory and loaded from there ever after:

* **where** — ``$XDG_CACHE_HOME`` (default ``~/.cache``) ``/repro``, mode
  0700; when that cannot be had, ``repro-<uid>`` under the system temp
  directory; otherwise the tier is unavailable.  A directory that is not
  this user's alone is refused.
* **key** — sha256 of the source, the flags, the compiler's identity
  (resolved path, size, mtime: what changes when the compiler does,
  without starting a process per process) and the CPU's feature flags
  (``-march=native`` code is host code; home directories are shared).
* **publish** — each builder compiles to a unique temporary name and
  ``os.replace``\\ s it in, so racing processes never load half a file.
* **probe** — NumPy's complex multiply is the *fused* form ``re = fma(ar,
  br, -(ai*bi)), im = fma(ar, bi, ai*br)`` on this project's hosts, and
  the C spells exactly that with ``fma()`` under ``-ffp-contract=off``.
  At load a fixed vector goes through ``np.multiply`` and through the
  library's multiply in both dtypes; any differing bit — a NumPy that
  does not fuse, a miscompile — makes the tier unavailable.

Unavailable, for any reason, means ``kernel="auto"`` is the NumPy tier and
an explicit ``kernel="c"`` is refused with the reason.  ``available``
builds; :meth:`CBackend.availability_hint` (the ``--help`` epilog) never
does.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import threading
from pathlib import Path

import numpy as np

from repro.kernels.base import KernelBackend, KernelCapabilities
from repro.linalg.gamma import projector_tables

SOURCE = Path(__file__).with_name("wilson_hop.c")
#: ``-ffp-contract=off`` alone would *lose* bit-identity: NumPy fuses.  The
#: source calls ``fma()`` where NumPy does and nothing else may fuse.  The
#: block solve and the even-odd entries run on helper threads (``-pthread``).
FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-pthread", "-shared", "-fPIC",
)
_BOUNDARY_CODES = {"periodic": 0, "antiperiodic": 1, "zero": 2}
_SUFFIX = {"complex128": "c128", "complex64": "c64"}
_REAL = {"complex128": "float64", "complex64": "float32"}
_COMPLEX = {real: name for name, real in _REAL.items()}
_C64, _C128 = np.dtype("complex64"), np.dtype("complex128")
#: Sites in a block of the site-vector operands (``W`` in the source).
SITE_VECTOR = 8
#: The solvers' vector updates the library runs as one in-place pass each
#: (``wilson_hop.c``, "the solvers' vector updates"): per entry the
#: coefficients a lane takes, the vectors it only reads and the vectors it
#: writes, in the order the entry takes them.
VECTOR_PASSES = {
    "update": (1, 2, 1),              # out = y + a x               x, y; out
    "update_pair": (2, 2, 2),         # x = x + c p, r = r + d q    p, q; x, r
    "bicgstab_direction": (2, 2, 1),  # p = r + b (p + c v)         v, r; p
    "bicgstab_closing": (3, 3, 2),    # x = (x + a p) + w s,
                                      # r = s + c t              p, s, t; x, r
}


def packed_shape(lattice) -> tuple[int, ...]:
    """The packed clover term's shape on ``([L,] T, Z, Y, X)``."""
    sites = int(np.prod(lattice[-4:]))
    lanes = lattice[0] if len(lattice) == 5 else 1
    return (lanes, -(-sites // SITE_VECTOR), 2, 36, SITE_VECTOR)


def _check_packed(held: np.ndarray, lattice) -> None:
    """Raise unless ``held`` is a packed clover term on ``lattice``: what
    the library is about to read through a bare pointer."""
    if (
        held.dtype.name not in _COMPLEX
        or held.shape != packed_shape(lattice)
        or not held.flags.c_contiguous
    ):
        raise ValueError(
            f"not a packed clover term on {tuple(lattice)}: "
            f"{held.dtype} {held.shape}"
        )


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex128 array of parts ``re`` and ``im``, exactly."""
    out = np.empty(len(re), _C128)
    out.real, out.imag = re, im
    return out


def _address(a: np.ndarray) -> int:
    """Where the C-contiguous ``a``'s data starts: through the buffer
    protocol where ``a`` is writable (~0.5 us on the 2-core host),
    ``a.ctypes.data`` otherwise (~1.5 us) — several times per update."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only, or empty
        return a.ctypes.data


def _site_vectors(shape, dtype) -> np.ndarray:
    """An uninitialised array starting on a cache line, so that no site
    vector of it straddles two (NumPy promises 16 bytes; a straddling tail
    measured 15% slower)."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype).reshape(shape)


class _Unavailable(Exception):
    """Why the library cannot be had on this host."""


def cache_directories():
    """Where the library may live, in order of preference.  (Lazily, and
    ``_which`` below instead of ``shutil.which``: ``tempfile`` and
    ``shutil`` are half a megabyte of every process that loads the
    library, for a fallback and a PATH walk.)"""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    yield Path(base) / "repro"
    import tempfile

    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def _which(command: str) -> str | None:
    """The executable ``command`` names: a path, or a name on ``PATH``."""
    if os.path.dirname(command):
        candidates = [command]
    else:
        path = os.environ.get("PATH", os.defpath)
        candidates = [os.path.join(d, command) for d in path.split(os.pathsep) if d]
    return next(
        (c for c in candidates if os.path.isfile(c) and os.access(c, os.X_OK)),
        None,
    )


def _private_directory(path: Path, create: bool) -> bool:
    """Whether ``path`` is a directory of this user's that nobody else can
    write to, made first (mode 0700) if ``create``."""
    try:
        if create:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = path.stat()
    except OSError:
        return False
    return (
        status.st_uid == os.getuid()
        and not status.st_mode & 0o022
        and os.access(path, os.W_OK | os.X_OK)
    )


def _antiperiodic_unit_extent(boundary, lattice, half=False) -> bool:
    """An antiperiodic hop across an extent of 1: the NumPy body's error
    to raise.  ``lattice`` ends in ``(T, Z, Y, X)``; on a ``half`` lattice
    an X row of one site is a full-lattice extent of 2 (no error)."""
    return any(
        condition == "antiperiodic" and lattice[-1 - mu] == 1
        for mu, condition in enumerate(boundary.conditions)
        if not (half and mu == 0)
    )


@functools.lru_cache(maxsize=None)
def _boundary_codes(conditions: tuple) -> np.ndarray:
    """The C side's code per direction (built once per boundary spec: this
    sits on the path of every stencil call)."""
    return np.array([_BOUNDARY_CODES[c] for c in conditions], np.int32)


def _cpu_features() -> str:
    try:
        with open("/proc/cpuinfo") as lines:
            for line in lines:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    import platform

    return platform.machine() + platform.processor()


def _probe_vectors(dtype) -> tuple[np.ndarray, np.ndarray]:
    """Fixed operands whose products round differently fused and unfused
    (about half of them do); odd length, to cover NumPy's loop tail."""
    k = np.arange(1, 258, dtype=np.float64)
    a = np.sin(0.7 * k) * k + 1j * np.cos(1.3 * k) / k
    b = np.cos(2.1 * k) / 3.0 + 1j * np.sin(0.3 * k) * 7.0
    return a.astype(dtype), b.astype(dtype)


class _Library:
    """The loaded shared object: typed entry points per complex dtype."""

    def __init__(self, path: Path):
        self.path = path
        lib = ctypes.CDLL(str(path))
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        self.multiply, self.hop, self.apply, self.mr = {}, {}, {}, {}
        self.schur = {}
        self.pack, self.unpack, self.gather = {}, {}, {}
        self.split = {}
        self.path_sum = {}
        self.passes = {entry: {} for entry in VECTOR_PASSES}
        self.reduce, self.closing = {}, {}
        # The half format is float32 arithmetic: its one instance.
        self.quantize = lib.repro_quantize_half_c64
        self.quantize.argtypes, self.quantize.restype = (ptr, ptr) + (i64,) * 3, None
        # A solve's team of helper threads (solve_team).
        self.team_open = lib.repro_team_open
        self.team_open.argtypes, self.team_open.restype = (ctypes.c_int,), ptr
        for name in ("stop", "close"):
            f = getattr(lib, f"repro_team_{name}")
            f.argtypes, f.restype = (ptr,), None
            setattr(self, f"team_{name}", f)
        for name, suffix in _SUFFIX.items():
            f = getattr(lib, f"repro_multiply_{suffix}")
            f.argtypes, f.restype = (i64, ptr, ptr, ptr), None
            self.multiply[name] = f
            for entry, (_, inputs, outputs) in VECTOR_PASSES.items():
                f = getattr(lib, f"repro_{entry}_{suffix}")
                f.argtypes = (i64, i64) + (ptr,) * (1 + inputs + outputs)
                f.restype = None
                # by the dtype itself: a solver asks per update
                self.passes[entry][np.dtype(name)] = f
            f = getattr(lib, f"repro_wilson_hop_{suffix}")
            f.argtypes = (ptr,) * 5 + (i64,) * 6 + (ptr, ctypes.c_int)
            f.restype = ctypes.c_int
            self.hop[name] = f
            # the even-odd form's entries: fields, narrow, batch, operands,
            # (seconds,) team; then the fused BiCGstab steps: fields,
            # coefficients, batch, operands, seconds, team, reductions
            entries = []
            for entry, fields, tail in (
                ("apply", 2, (ptr, ptr, ptr)), ("rhs", 2, (ptr, ptr)),
                ("solution", 4, (ptr, ptr)),
            ):
                f = getattr(lib, f"repro_schur_{entry}_{suffix}")
                f.argtypes = (ptr,) * fields + (ctypes.c_int, i64) + tail
                f.restype = ctypes.c_int
                entries.append(f)
            for entry, fields in (("direction", 4), ("update", 3)):
                f = getattr(lib, f"repro_schur_{entry}_{suffix}")
                f.argtypes = (ptr,) * (fields + 1) + (i64,) + (ptr,) * 4
                f.restype = ctypes.c_int
                entries.append(f)
            self.schur[np.dtype(name)] = tuple(entries)
            f = getattr(lib, f"repro_closing_reduce_{suffix}")
            f.argtypes, f.restype = (i64,) * 2 + (ptr,) * 8, ctypes.c_int
            self.closing[np.dtype(name)] = f
            f = getattr(lib, f"repro_lane_reduce_{suffix}")
            f.argtypes, f.restype = (i64,) * 3 + (ptr,) * 3, None
            self.reduce[np.dtype(name)] = f
            f = getattr(lib, f"repro_wilson_apply_{suffix}")
            f.argtypes = (
                (ptr,) * 3 + (ctypes.c_double, ptr) + (ctypes.c_int,) * 2
                + (ptr,) * 2 + (i64,) * 6 + (ptr,) * 3
            )
            f.restype = ctypes.c_int
            self.apply[name] = f
            f = getattr(lib, f"repro_wilson_mr_{suffix}")
            f.argtypes = (
                (ptr,) * 3 + (ctypes.c_double, ptr) + (ctypes.c_int,) * 2
                + (ptr,) * 2 + (i64,) * 6 + (ptr, i64, ctypes.c_double)
                + (ptr,) * 4
            )
            f.restype = ctypes.c_int
            self.mr[name] = f
            f = getattr(lib, f"repro_path_sum_{suffix}")
            f.argtypes = (ptr, ptr) + (i64,) * 4 + (ptr,) * 3 + (i64, ptr)
            f.restype = ctypes.c_int
            self.path_sum[np.dtype(name)] = f
            f = getattr(lib, f"repro_clover_pack_{suffix}")
            f.argtypes, f.restype = (ptr, i64, i64, ctypes.c_int, ptr), i64
            self.pack[name] = f
            # ... and what reads the packed term, by its (real) dtype
            f = getattr(lib, f"repro_clover_unpack_{suffix}")
            f.argtypes, f.restype = (ptr, i64, i64, ctypes.c_int, ptr), None
            self.unpack[_REAL[name]] = f
            f = getattr(lib, f"repro_clover_gather_{suffix}")
            f.argtypes = (ptr, ptr, ptr, i64, ptr, ptr, ctypes.c_int)
            f.restype = None
            self.gather[_REAL[name]] = f
            f = getattr(lib, f"repro_clover_parity_{suffix}")
            f.argtypes = (ptr, i64, ptr, ctypes.c_int, ptr)
            f.restype = None
            self.split[_REAL[name]] = f

    def probe(self) -> None:
        """Raise unless the library multiplies as ``np.multiply`` does and
        updates as ``y + a * x`` does, a scalar and a per-lane coefficient."""
        for name in _SUFFIX:
            a, b = _probe_vectors(name)
            got = np.empty_like(a)
            self.multiply[name](
                a.size, a.ctypes.data, b.ctypes.data, got.ctypes.data
            )
            if got.tobytes() != np.multiply(a, b).tobytes():
                raise _Unavailable(
                    f"multiply probe failed for {name}: this NumPy's complex "
                    "multiply and the library's fused form differ, so the "
                    "compiled stencil would not be bit-identical"
                )
            # x, y: the vectors as 1 lane of 257, and 4 lanes of 64
            for x, y, coef in (
                (a, b, np.array([0.7 - 1.3j], name)),
                (a[1:].reshape(4, -1), b[1:].reshape(4, -1), a[:4] * 3j),
            ):
                got = np.empty_like(x)
                self.passes["update"][x.dtype](
                    len(coef), x.size // len(coef), coef.ctypes.data,
                    x.ctypes.data, y.ctypes.data, got.ctypes.data,
                )
                if got.tobytes() != (y + coef.reshape(-1, 1) * x).tobytes():
                    raise _Unavailable(
                        f"update probe failed for {name}: the library's "
                        "y + a * x and NumPy's differ"
                    )


#: The solve teams open in this process, each with its library (a handle
#: is ``repro_team_open``'s pointer); ``_SOLVE.teams``, this thread's solve's,
#: and ``_SOLVE.threads`` the most threads a call of theirs may have.
_OPEN: dict = {}
_OPEN_LOCK = threading.Lock()
_SOLVE = threading.local()


@contextlib.contextmanager
def solve_team(threads: int | None = None):
    """Run the enclosed solve's compiled calls — the whole matrix, the
    Schwarz block solve, the Schur apply, ``prepare_rhs``,
    ``reconstruct_residual`` and the fused BiCGstab steps — on ONE team of
    helper threads (``wilson_hop.c``, "a team that lives for a solve"),
    started as they first need them, parked between them and joined on the
    way out, also when the solve raises.  The team is this thread's: two
    threads solving at once have one each.  Nested, the outer solve's team
    serves.  Outside one, each call starts and joins its own helpers (no
    thread outlives a call).

    ``threads`` caps a call at that many threads, the caller's among them:
    a rank program's share of the CPUs
    (:func:`repro.comm.backends.run_rank_job`).  The capped scope is its
    own, nested or not, and the enclosing one resumes after it."""
    if threads is None and getattr(_SOLVE, "teams", None) is not None:
        yield
        return
    outer = getattr(_SOLVE, "teams", None), getattr(_SOLVE, "threads", 0)
    _SOLVE.teams, _SOLVE.threads = {}, threads or 0
    try:
        yield
    finally:
        teams = _SOLVE.teams
        _SOLVE.teams, _SOLVE.threads = outer
        for library, handle in teams.items():
            # closed under the lock: a fork meets it open, or joined
            with _OPEN_LOCK:
                _OPEN.pop(handle, None)
                library.team_close(handle)


def _team(library):
    """This thread's solve's team on ``library`` (opened on first use), or
    ``None`` outside a solve."""
    teams = getattr(_SOLVE, "teams", None)
    if teams is None:
        return None
    handle = teams.get(library)
    if handle is None:
        handle = library.team_open(_SOLVE.threads)
        if handle:
            teams[library] = handle
            with _OPEN_LOCK:
                _OPEN[handle] = library
    return handle


def _stop_teams():
    """Join every open team's helpers (a later call starts them again):
    none is alive while the process forks."""
    with _OPEN_LOCK:
        for handle, library in _OPEN.items():
            library.team_stop(handle)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_stop_teams)


class _SchurOperands(ctypes.Structure):
    """``schur_operands`` of ``wilson_hop.c``: what every entry of the
    even-odd form reads besides its fields."""

    _fields_ = [
        (name, ctypes.c_void_p) for name in ("links", "even", "odd", "inverse")
    ] + [("diag", ctypes.c_double)] + [
        (name, ctypes.c_void_p) for name in ("spins", "coef", "bc")
    ] + [(name, ctypes.c_int64) for name in ("nl", "T", "Z", "Y", "X")]


class _BoundSchur:
    """The library's entries of the even-odd form on one operator's
    operands, checked and bound once (``CBackend.wilson_schur_bind``): a
    call checks only its fields — the operator's dtype or complex64 on a
    complex128 operator, one of both; the shape; C-contiguous — and
    returns ``None``, nothing written, where they are not what the
    library takes: the NumPy body runs instead."""

    def __init__(self, backend, library, links, even, odd, inverse,
                 diagonal, boundary):
        self._bind = (backend, links, even, odd, inverse, diagonal, boundary)
        lattice = links.shape[4:]
        spins, phases = backend._projection(links.dtype)
        codes = _boundary_codes(boundary.conditions)
        address = [
            None if a is None else a.ctypes.data
            for a in (links, even, odd, inverse, spins, phases, codes)
        ]
        self._operands = _SchurOperands(
            *address[:4], diagonal, *address[4:],
            lattice[0] if len(lattice) == 5 else 1, *lattice[-4:],
        )
        #: every array a pointer above points into, kept alive with them
        self._held = (links, even, odd, inverse, spins, phases, codes)
        self._at = ctypes.addressof(self._operands)
        self._dtypes = (links.dtype,) + ((_C64,) if links.dtype == _C128 else ())
        self._half = lattice + (4, 3)
        self._full = lattice[:-1] + (2 * lattice[-1], 4, 3)
        self._library = library
        (self._apply, self._rhs, self._solution, self._direction,
         self._update) = library.schur[links.dtype]
        self._closing = library.closing[links.dtype]

    def __reduce__(self):
        # bound again where it is unpickled: the pointers are this process's
        backend, *operands = self._bind
        return backend.wilson_schur_bind, tuple(operands)

    def _batch(self, x, shape):
        """The right-hand sides of ``x`` where it is a field these entries
        take on ``shape``, else ``None``."""
        lead = x.ndim - len(shape)
        if (
            lead not in (0, 1)
            or x.shape[lead:] != shape
            or x.dtype not in self._dtypes
            or not x.flags.c_contiguous
        ):
            return None
        return x.shape[0] if lead else 1

    def apply(self, x, seconds):
        """``EvenOddPreconditionedWilson._apply(x)``; ``seconds`` as for
        :meth:`CBackend.wilson_apply_sites`."""
        nb = self._batch(x, self._half)
        if nb is None:
            return None
        out = np.empty_like(x)
        failed = self._apply(
            _address(x), _address(out), x.dtype != self._dtypes[0], nb,
            self._at, None if seconds is None else _address(seconds),
            _team(self._library),
        )
        return None if failed else out

    def _step(self, coefficients, k, *fields):
        """``(nb, addresses)``: the right-hand sides of a fused step's
        ``fields`` — half-lattice fields of the operator's dtype (no
        narrower one: the reductions would not be its), one shape,
        C-contiguous, writable, pairwise disjoint — and where each starts,
        ``coefficients`` (``(nb, k)`` of that dtype) last; else ``None``."""
        nb = self._batch(fields[0], self._half)
        dtype, shape = self._dtypes[0], fields[0].shape
        if (
            nb is None
            or coefficients.shape != (nb, k)
            or coefficients.dtype != dtype
            or not coefficients.flags.c_contiguous
        ):
            return None
        for f in fields:
            if (f.dtype != dtype or f.shape != shape
                    or not (f.flags.c_contiguous and f.flags.writeable)):
                return None
        at = [_address(f) for f in fields]
        # contiguous fields of one size are disjoint where their starts are
        # a field apart
        starts = sorted(at)
        if any(b - a < fields[0].nbytes for a, b in zip(starts, starts[1:])):
            return None
        return nb, at + [_address(coefficients)]

    def _seconds_team(self, seconds):
        """A timed entry's last arguments but its reductions'."""
        return None if seconds is None else _address(seconds), _team(self._library)

    def direction(self, coefficients, p, r, v, r_hat, seconds):
        """``p = r + b (p + c v)``, ``v = Mhat p`` (both in place) and
        ``(r_hat, v)`` in one call: the reduction (complex128 ``(nb,)``,
        unrecorded), or ``None``, nothing written.  ``coefficients`` is
        ``(c, b)`` a right-hand side, as the ``bicgstab_direction`` pass
        takes them."""
        step = self._step(coefficients, 2, p, r, v, r_hat)
        if step is None:
            return None
        nb, at = step
        red = np.empty(nb, _C128)
        failed = self._direction(
            *at, nb, self._at, *self._seconds_team(seconds), _address(red)
        )
        return None if failed else red

    def update(self, coefficients, r, v, seconds):
        """``s = r + a v`` (in ``r``), ``t = Mhat s`` and ``(t, s)``,
        ``|t|^2`` in one call: ``(t, ts, t2)``, the reductions unrecorded,
        or ``None``, nothing written."""
        step = self._step(coefficients, 1, r, v)
        if step is None:
            return None
        nb, (r_at, v_at, coef_at) = step
        t = np.empty_like(r)
        red = np.empty((nb, 3))
        failed = self._update(
            r_at, v_at, _address(t), coef_at, nb, self._at,
            *self._seconds_team(seconds), _address(red),
        )
        if failed:
            return None
        return t, _complex(red[:, 0], red[:, 1]), red[:, 2]

    def closing(self, coefficients, p, s, t, x, r_hat):
        """``x = (x + alpha p) + omega s`` and ``r = s + c t`` (in ``s``),
        then ``(r_hat, r)`` and ``|r|^2``, in one call on the team: ``(rho,
        r2)`` unrecorded, or ``None``, nothing written."""
        step = self._step(coefficients, 3, p, s, t, x, r_hat)
        if step is None:
            return None
        nb, at = step
        red = np.empty((nb, 3))
        failed = self._closing(
            nb, p.size // (12 * nb), at[-1], *at[:-1], _team(self._library),
            _address(red),
        )
        if failed:
            return None
        return _complex(red[:, 0], red[:, 1]), red[:, 2]

    def rhs(self, b):
        """``EvenOddPreconditionedWilson.prepare_rhs(b)``."""
        nb = self._batch(b, self._full)
        if nb is None:
            return None
        out = np.empty(b.shape[:b.ndim - len(self._full)] + self._half, b.dtype)
        failed = self._rhs(
            _address(b), _address(out), b.dtype != self._dtypes[0], nb,
            self._at, _team(self._library),
        )
        return None if failed else out

    def solution(self, x_e, b, residual: bool):
        """``(x, r)``: ``EvenOddPreconditionedWilson.reconstruct(x_e, b)``
        and, with ``residual``, ``b - M x`` (else ``None``), the odd-site
        hop shared — ``x_e`` and ``b`` of one dtype."""
        nb = self._batch(b, self._full)
        if (
            nb is None
            or x_e.dtype != b.dtype
            or x_e.shape != b.shape[:b.ndim - len(self._full)] + self._half
            or not x_e.flags.c_contiguous
        ):
            return None
        x = np.empty_like(b)
        r = np.empty_like(b) if residual else None
        failed = self._solution(
            _address(x_e), _address(b), _address(x),
            None if r is None else _address(r), b.dtype != self._dtypes[0],
            nb, self._at, _team(self._library),
        )
        return None if failed else (x, r)


class CBackend(KernelBackend):
    """``wilson_hop.c`` behind the Wilson family's lattice-last body.

    ``compiler`` and ``source`` are for tests (a compiler that does not
    exist, a source that multiplies differently), not settings.
    """

    name = "c"
    priority = 10
    capabilities = KernelCapabilities(operators=("wilson",), packed=True)

    def __init__(self, compiler: str = "cc", source: Path = SOURCE):
        self._compiler = compiler
        self._source = Path(source)
        self._lock = threading.Lock()
        self._library: _Library | None = None
        self._reason: str | None = None
        self._looked = False
        self._tables: dict = {}

    def __reduce__(self):
        # An operator sent to a rank process carries its backend: the
        # other side loads the cached library for itself.
        return type(self), (self._compiler, self._source)

    # ------------------------------------------------------------------
    # locating, building, loading
    # ------------------------------------------------------------------
    def _resolve(self, build: bool) -> _Library | None:
        """The library, loaded once per process; ``None`` with
        ``_reason`` set when it cannot be had, ``None`` without one when
        it would have to be built first and ``build`` is off."""
        with self._lock:
            if self._library is None and self._reason is None:
                try:
                    self._library = self._open(build)
                except _Unavailable as exc:
                    self._reason = str(exc)
            return self._library

    def _open(self, build: bool) -> _Library | None:
        compiler = _which(self._compiler)
        if compiler is None:
            raise _Unavailable(
                f"no C compiler: {self._compiler!r} is not on PATH"
            )
        try:
            source = self._source.read_bytes()
            binary = os.stat(os.path.realpath(compiler))
        except OSError as exc:
            raise _Unavailable(f"cannot read {exc.filename}: {exc.strerror}")
        identity = (
            f"{os.path.realpath(compiler)} {binary.st_size} {binary.st_mtime_ns}"
        )
        key = hashlib.sha256(
            b"\0".join(
                [source, " ".join(FLAGS).encode(), identity.encode(),
                 _cpu_features().encode()]
            )
        ).hexdigest()[:20]
        directory = next(
            (d for d in cache_directories()
             if _private_directory(d, create=build)),
            None,
        )
        if directory is None:
            if not build:  # nothing cached; the build finds out the rest
                return None
            raise _Unavailable(
                "no private writable cache directory (tried "
                + ", ".join(map(str, cache_directories())) + ")"
            )
        path = directory / f"wilson_hop-{key}.so"
        if not path.is_file():
            if not build:
                return None
            self._build(compiler, path)
        try:
            library = _Library(path)
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"cannot load {path}: {exc}")
        library.probe()
        return library

    def _build(self, compiler: str, path: Path) -> None:
        """Compile to a unique name beside ``path``, then rename: a racing
        process builds its own copy and neither loads a partial file."""
        import subprocess
        import tempfile

        handle, scratch = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        os.close(handle)
        try:
            done = subprocess.run(
                [compiler, *FLAGS, "-o", scratch, str(self._source), "-lm"],
                capture_output=True, text=True, timeout=300,
            )
            if done.returncode != 0:
                raise _Unavailable(
                    f"{compiler} failed: "
                    + " | ".join(done.stderr.strip().splitlines()[:3])
                )
            os.replace(scratch, path)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(f"building {path.name} failed: {exc}")
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)

    @property
    def available(self) -> bool:
        return self._resolve(build=True) is not None

    @property
    def unavailable_reason(self) -> str | None:
        self._resolve(build=True)
        return self._reason

    @property
    def library_path(self) -> Path | None:
        """The loaded library's file (``None`` until it is loaded)."""
        return self._library.path if self._library else None

    def availability_hint(self) -> str:
        """This tier's words in the one-line availability note, answered
        without compiling: from the cached library when there is one,
        else from whether a compiler and a cache directory are there."""
        if self._resolve(build=False) is not None:
            return self.name
        if self._reason is not None:
            return f"{self.name} (unavailable: {self._reason})"
        return f"{self.name} (builds on first use)"

    # ------------------------------------------------------------------
    # the kernels
    # ------------------------------------------------------------------
    def _projection(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Per hop (mu forward, mu backward, ...): the spin rows the
        projection and the reconstruction read, and their +-1 / +-i
        phases, from the same tables the NumPy body uses."""
        if dtype.name not in self._tables:
            spins = np.empty((8, 4), np.int32)
            phases = np.empty((8, 4), dtype)
            for hop in range(8):
                tab = projector_tables(hop // 2, +1 if hop % 2 else -1, dtype)
                spins[hop] = list(range(4))[tab.lower] + list(range(2))[tab.source]
                phases[hop, :2] = tab.project_coeff[:, 0]
                phases[hop, 2:] = tab.recon_coeff[:, 0]
            self._tables[dtype.name] = spins, phases
        return self._tables[dtype.name]

    def wilson_dslash(self, op, x: np.ndarray) -> np.ndarray:
        return op._dslash_projected(x)

    def wilson_hop_sites(self, links, xs, batched, boundary, parity=None):
        library = self._library or self._resolve(build=True)
        lattice = xs.shape[-4:]
        if (
            library is None
            or xs.dtype != links.dtype
            or xs.dtype.name not in _SUFFIX
            or not (xs.flags.c_contiguous and links.flags.c_contiguous)
            or links.shape[:4] != (2, 4, 3, 3)
            or xs.shape[:2] != (4, 3)
            or xs.shape[2 + batched:] != links.shape[4:]
            or _antiperiodic_unit_extent(boundary, lattice, parity is not None)
            or parity not in (None, 0, 1)
        ):
            return None
        codes = _boundary_codes(boundary.conditions)
        spins, phases = self._projection(xs.dtype)
        out = np.empty_like(xs)
        failed = library.hop[xs.dtype.name](
            xs.ctypes.data, links.ctypes.data, out.ctypes.data,
            spins.ctypes.data, phases.ctypes.data,
            xs.shape[2] if batched else 1,
            xs.shape[-5] if xs.ndim == 7 + batched else 1,
            *lattice, codes.ctypes.data, -1 if parity is None else parity,
        )
        return None if failed else out

    def _matrix(self, links, chiral, x, batched, boundary, rounding):
        """The library, where it takes these operands of the whole matrix
        (``wilson_apply_sites``), else ``None``."""
        library = self._library or self._resolve(build=True)
        name = links.dtype.name
        lattice = links.shape[4:]
        narrow = x.dtype != links.dtype
        if (
            library is None
            or name not in _SUFFIX
            # a field of the operator's dtype, or the narrower one
            or (narrow and (x.dtype.name, name) != ("complex64", "complex128"))
            # the half format is float32 arithmetic; single and double
            # storage are the operator's dtype and round nothing
            or (rounding is not None and rounding.dtype != links.dtype)
            or not links.flags.c_contiguous
            or links.shape[:4] != (2, 4, 3, 3)
            or x.shape[batched:] != lattice + (4, 3)
            or _antiperiodic_unit_extent(boundary, lattice)
        ):
            return None
        if chiral is not None and (
            chiral.dtype.name != _REAL[name]
            or not chiral.flags.c_contiguous
            or chiral.shape != packed_shape(lattice)
        ):
            return None
        return library

    def _matrix_operands(self, links, chiral, x, batched, boundary, rounding):
        """The arguments the matrix's entries share, from the field's."""
        lattice = links.shape[4:]
        spins, phases = self._projection(links.dtype)
        return (
            links.ctypes.data, None if chiral is None else chiral.ctypes.data,
            spins.ctypes.data, phases.ctypes.data,
            x.shape[0] if batched else 1,
            lattice[0] if len(lattice) == 5 else 1,
            *lattice[-4:], _boundary_codes(boundary.conditions).ctypes.data,
            rounding is not None and rounding.name == "half",
        )

    def wilson_apply_sites(
        self, links, chiral, diagonal, x, batched, boundary, rounding, seconds
    ):
        library = self._matrix(links, chiral, x, batched, boundary, rounding)
        if library is None:
            return None
        x = np.ascontiguousarray(x)
        (u, a, spins, phases, *extents, codes, half) = self._matrix_operands(
            links, chiral, x, batched, boundary, rounding
        )
        out = np.empty_like(x)
        failed = library.apply[links.dtype.name](
            x.ctypes.data, u, a, diagonal, out.ctypes.data,
            x.dtype != links.dtype, half, spins, phases, *extents, codes,
            None if seconds is None else seconds.ctypes.data, _team(library),
        )
        return None if failed else out

    def wilson_schur_bind(self, links, even, odd, inverse, diagonal, boundary):
        library = self._library or self._resolve(build=True)
        real = _REAL.get(links.dtype.name)
        lattice = links.shape[4:]
        if (
            library is None
            or real is None
            or inverse is None
            or not links.flags.c_contiguous
            or links.shape[:4] != (2, 4, 3, 3)
            or _antiperiodic_unit_extent(boundary, lattice, half=True)
            or any(
                held is not None and (
                    held.dtype != real
                    or not held.flags.c_contiguous
                    or held.shape != packed_shape(lattice)
                )
                for held in (even, odd, inverse)
            )
        ):
            return None
        return _BoundSchur(
            self, library, links, even, odd, inverse, diagonal, boundary
        )

    def wilson_block_mr(
        self, links, chiral, diagonal, r, batched, boundary, rounding,
        convert, steps, omega, seconds,
    ):
        if r.dtype != links.dtype:
            return None
        library = self._matrix(links, chiral, r, batched, boundary, rounding)
        if library is None:
            return None
        r = np.ascontiguousarray(r)
        (u, a, spins, phases, *extents, codes, half) = self._matrix_operands(
            links, chiral, r, batched, boundary, rounding
        )
        z = np.empty_like(r)
        counts = np.empty(2 * steps, np.int64)
        failed = library.mr[links.dtype.name](
            r.ctypes.data, u, a, diagonal, z.ctypes.data, half, convert,
            spins, phases, *extents, codes, steps, omega, counts.ctypes.data,
            None, None if seconds is None else seconds.ctypes.data,
            _team(library),
        )
        return None if failed else (z, counts)

    # ------------------------------------------------------------------
    # the clover term, Hermitian-packed in site vectors
    # ------------------------------------------------------------------
    clover_form = "packed"

    def _loaded(self) -> _Library:
        library = self._library or self._resolve(build=True)
        if library is None:
            raise RuntimeError(f"kernel 'c' is unavailable: {self._reason}")
        return library

    def clover_pack(self, chirality, lattice, dtype):
        dtype = np.dtype(dtype)
        out = _site_vectors(packed_shape(lattice), _REAL[dtype.name])
        sites = int(np.prod(lattice[-4:]))
        pack = self._loaded().pack[dtype.name]
        for c in (0, 1):
            blocks = np.ascontiguousarray(chirality(c), dtype=dtype)
            if blocks.shape != (6, 6) + tuple(lattice):
                raise ValueError(
                    f"chirality {c}: blocks {blocks.shape} on {tuple(lattice)}"
                )
            bad = pack(
                blocks.ctypes.data, out.shape[0], sites, c, out.ctypes.data
            )
            if bad >= 0:
                lane, site = divmod(bad, sites)
                raise ValueError(
                    "clover term is not Hermitian bit for bit (chirality "
                    f"{c}, lane {lane}, site {site}): kernel 'c' holds it "
                    "Hermitian-packed; kernel='numpy' takes any blocks"
                )
        return out

    def clover_chirality(self, held, lattice, c):
        _check_packed(held, lattice)
        blocks = np.empty((6, 6) + tuple(lattice), _COMPLEX[held.dtype.name])
        self._loaded().unpack[held.dtype.name](
            held.ctypes.data, held.shape[0], int(np.prod(lattice[-4:])), c,
            blocks.ctypes.data,
        )
        return blocks

    def clover_cast(self, held, dtype):
        real = _REAL[np.dtype(dtype).name]
        if held.dtype.name == real:
            return held
        out = _site_vectors(held.shape, real)
        out[...] = held
        return out

    def clover_regions(self, held, op, origins, extents, dtype):
        _check_packed(held, op.geometry.shape)
        narrow = (held.dtype.name, dtype) == ("float64", np.complex64)
        dims, starts, sizes = (
            np.ascontiguousarray(v, np.int64)
            for v in (op.geometry.shape[::-1], origins, extents)
        )
        if starts.shape != (len(starts), 4) or sizes.shape != (4,):
            raise ValueError("regions are (x, y, z, t) origins and extents")
        out = _site_vectors(
            (len(starts),) + packed_shape(sizes[::-1])[1:],
            "float32" if narrow else held.dtype,
        )
        self._loaded().gather[held.dtype.name](
            held.ctypes.data, dims.ctypes.data,
            starts.ctypes.data, len(starts), sizes.ctypes.data,
            out.ctypes.data, narrow,
        )
        # (a stack stored *above* its operator's precision: widened after)
        return out if dtype is None else self.clover_cast(out, dtype)

    def clover_parity(self, held, lattice, parity):
        full = tuple(lattice[:-1]) + (2 * lattice[-1],)
        _check_packed(held, full)
        out = _site_vectors(packed_shape(lattice), held.dtype)
        dims = np.ascontiguousarray(full[-4:][::-1], np.int64)
        self._loaded().split[held.dtype.name](
            held.ctypes.data, held.shape[0], dims.ctypes.data, parity,
            out.ctypes.data,
        )
        return out

    def clover_lanes(self, held, lanes):
        lanes = np.atleast_1d(lanes)
        out = _site_vectors((len(lanes),) + held.shape[1:], held.dtype)
        return np.take(held, lanes, axis=0, out=out)

    def quantize_half(self, array: np.ndarray, leading: bool = False):
        """``repro.precision.quantize_half`` of a Wilson field (site axes
        ``(4, 3)``, trailing or ``leading``) by the library's own per-site
        quantiser — the one inside the whole apply —, or ``None``."""
        library = self._library or self._resolve(build=True)
        if (
            library is None
            or array.dtype != np.complex64  # the format's own arithmetic
            or not array.flags.c_contiguous
            or (array.shape[:2] if leading else array.shape[-2:]) != (4, 3)
        ):
            return None
        sites = array.size // 12
        out = np.empty_like(array)
        library.quantize(
            array.ctypes.data, out.ctypes.data, sites,
            *((sites, 1) if leading else (1, 12)),
        )
        return out

    # ------------------------------------------------------------------
    # the solvers' vector updates: every operator family's
    # ------------------------------------------------------------------
    def _cached(self) -> _Library | None:
        """The library if this process has it: loaded from the cache the
        first time it is asked for here, never built — a BLAS call starts
        no compiler (the first Wilson operator does)."""
        if self._library is None and not self._looked:
            self._looked = True
            self._resolve(build=False)
        return self._library

    def path_sum(self, links: np.ndarray, weighted_paths) -> np.ndarray | None:
        """``repro.gauge.paths.path_sum_sites`` by the library — the same
        bits — or ``None`` where it is not loaded or the operands are not
        these: ``links`` a ``(4, 3, 3) + lattice`` view of complex links
        in any layout of non-negative strides, every path at least one
        ``(mu, +-1)`` step long."""
        library = self._library or self._cached()
        run = library and library.path_sum.get(links.dtype)
        real = links.itemsize // 2
        if (
            not run
            or links.ndim != 7
            or links.shape[:3] != (4, 3, 3)
            or not (links.size and links.flags.aligned)
            or any(s < 0 or s % real for s in links.strides)
            or not all(path for _, path in weighted_paths)
            # steps the library would read out of bounds with
            or not all(
                mu in (0, 1, 2, 3) and sign in (1, -1)
                for _, path in weighted_paths for mu, sign in path
            )
        ):
            return None
        strides = np.array(links.strides, np.int64) // real
        steps = np.array(
            [step for _, path in weighted_paths for step in path], np.int32
        )
        lengths = np.array([len(path) for _, path in weighted_paths], np.int32)
        weights = np.array([w for w, _ in weighted_paths], np.float64)
        out = np.empty((3, 3) + links.shape[3:], links.dtype)
        failed = run(
            links.ctypes.data, strides.ctypes.data, *links.shape[3:],
            steps.ctypes.data, lengths.ctypes.data, weights.ctypes.data,
            len(weighted_paths), out.ctypes.data,
        )
        return None if failed else out

    def lane_reduce(self, x, y, components):
        """``repro.linalg.blas.lane_reduce`` of ``x`` (and ``y``) with
        ``components`` a site by the library — the same bits, unthreaded —
        or ``None`` where it is not loaded or the operands are not these: a
        non-empty field, ``y`` (if any) of its dtype and shape, C-contiguous
        and aligned."""
        library = self._library or self._cached()
        run = library and library.reduce.get(x.dtype)
        if (
            not run
            or not x.size
            or not (x.flags.c_contiguous and x.flags.aligned)
            or (y is not None and (
                y.dtype != x.dtype or y.shape != x.shape
                or not (y.flags.c_contiguous and y.flags.aligned)
            ))
        ):
            return None
        rows = x.shape[0]
        out = np.empty(rows, np.float64 if y is None else _C128)
        run(rows, x.size // (rows * components), components, _address(x),
            None if y is None else _address(y), _address(out))
        return out

    def vector_pass(self, entry: str, coefficients, vectors):
        """Run the pass ``VECTOR_PASSES[entry]`` in place and return the
        vectors it wrote — or ``None``, nothing written, where the library
        is not loaded or the operands are not these: NumPy's arithmetic is
        the reference and the fallback.  ``coefficients`` is ``(lanes, k)``
        in the vectors' dtype, one row per lane (a run of ``size // lanes``
        consecutive elements); ``vectors`` is what the entry reads, then
        what it writes, all of one dtype and shape, C-contiguous.  An
        output may be one of the inputs (in place); no other overlap.
        Called once per update, so it checks what the C needs and no
        more, each thing once (a pointer costs ~1 us, ``dtype.name`` ~2:
        the passes are keyed by the dtype itself)."""
        library = self._library or self._cached()
        if library is None:
            return None
        first = vectors[0]
        dtype, shape = first.dtype, first.shape
        run = library.passes[entry].get(dtype)
        lanes = len(coefficients)
        k, inputs, outputs = VECTOR_PASSES[entry]
        if (
            run is None
            or len(vectors) != inputs + outputs
            or coefficients.shape != (lanes, k)
            or coefficients.dtype != dtype
            or not coefficients.flags.c_contiguous
            or not lanes
            or first.size % lanes
        ):
            return None
        at = []
        for v in vectors:
            flags = v.flags
            if (
                v.dtype != dtype or v.shape != shape
                or not (flags.c_contiguous and flags.aligned)
            ):
                return None
            at.append(_address(v))
        # Contiguous, equal-sized vectors overlap iff their starts are
        # closer than their size; only the same start as an input is allowed.
        size = first.nbytes
        for j in range(inputs, len(at)):
            if not vectors[j].flags.writeable:
                return None
            for i, start in enumerate(at):
                if (
                    i != j and abs(start - at[j]) < size
                    and (i >= inputs or start != at[j])
                ):
                    return None
        run(lanes, first.size // lanes, _address(coefficients), *at)
        return vectors[inputs:]


__all__ = ["CBackend", "cache_directories", "solve_team"]
