"""Build and load the compiled declared-rule loop (``_loop.c``).

:class:`~repro.engine.simulator.Simulator` runs every declared pairwise
rule through ``run_batch`` from ``_loop.c``.  The source is compiled on
first use with the system C compiler (``$CC``, else ``cc``) and loaded
through :mod:`ctypes`; nothing beyond the standard library is needed.

The shared library is cached under the user cache directory
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``), or under a
per-user directory in :func:`tempfile.gettempdir` when that one cannot
be written.  Its name carries a hash of the source, the flags, the
compiler's ``--version`` output and the platform, so a changed source or
compiler never loads a stale build.  A build is written to a per-process
temporary file and published with :func:`os.replace`, so processes that
compile at once on a cold cache never load a partial file.

Without a working compiler (missing, failing, or a library that will not
load) :func:`load_loop` warns once per process and returns None, and
declared rules run on the generic loop: the same results, only slower.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path
from typing import Callable

SOURCE = Path(__file__).with_name("_loop.c")

#: ``-ffp-contract=off``: a fused multiply-add rounds once instead of
#: twice and would change bits against the Python loop.  Never add
#: ``-march=native``, ``-Ofast`` or ``-ffast-math``.
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

#: ``run_batch`` return codes (see ``_loop.c``).
BATCH_DONE, REFRESH, TARGET, DIVERGED, MAX_TIME = range(5)

_POINTER = ctypes.c_void_p
_INT = ctypes.c_int64
_DOUBLE = ctypes.c_double


class LoopState(ctypes.Structure):
    """The C loop's per-run state; mirrors ``LoopState`` in ``_loop.c``."""

    _fields_ = [
        ("ops", _POINTER),
        ("edges_u", _POINTER),
        ("edges_v", _POINTER),
        ("x", _POINTER),
        ("alpha", _DOUBLE),
        ("momentum", _DOUBLE),
        ("slow_step", _DOUBLE),
        ("tau", _DOUBLE),
        ("harmonic", _INT),
        ("swap_a", _POINTER),
        ("swap_b", _POINTER),
        ("swap_gain", _POINTER),
        ("swap_epoch", _POINTER),
        ("swap_ticks", _POINTER),
        ("swaps_fired", _POINTER),
        ("mass", _POINTER),
        ("weight", _POINTER),
        ("previous", _POINTER),
        ("n_thresholds", _INT),
        ("thr_abs", _POINTER),
        ("first_below", _POINTER),
        ("below_seen", _POINTER),
        ("last_above", _POINTER),
        ("has_target", _INT),
        ("target_abs", _DOUBLE),
        ("has_divergence", _INT),
        ("divergence_abs", _DOUBLE),
        ("has_max_time", _INT),
        ("max_time", _DOUBLE),
        ("inv_n", _DOUBLE),
        ("n_events", _INT),
        ("n_updates", _INT),
        ("next_recompute", _INT),
        ("cut_ticks", _INT),
        ("position", _INT),
        ("resume", _INT),
        ("total", _DOUBLE),
        ("square_sum", _DOUBLE),
        ("variance", _DOUBLE),
        ("now", _DOUBLE),
    ]


def _cache_dirs() -> "list[Path]":
    """Where the library may live, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    user = getattr(os, "getuid", lambda: "user")()
    return [
        Path(base).expanduser() / "repro",
        Path(tempfile.gettempdir()) / f"repro-cache-{user}",
    ]


def _library_name(compiler: "list[str]") -> str:
    version = subprocess.run(
        [*compiler, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    key = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        " ".join(FLAGS).encode(),
        version,
        f"{sysconfig.get_platform()} {sys.implementation.name}".encode(),
    ):
        key.update(hashlib.sha256(part).digest())
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    return f"loop-{key.hexdigest()[:16]}{suffix}"


def _build(compiler: "list[str]", directory: Path, name: str) -> Path:
    """The cached library in ``directory``, compiled there if missing.

    Raises :class:`OSError` when ``directory`` cannot be written and
    :class:`subprocess.CalledProcessError` when the compile fails.
    """
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    if hasattr(os, "getuid") and directory.stat().st_uid != os.getuid():
        raise PermissionError(f"{directory} belongs to another user")
    path = directory / name
    if path.exists():
        return path
    partial = directory / f".{name}.{os.getpid()}.tmp"
    partial.touch()
    try:
        subprocess.run(
            [*compiler, *FLAGS, "-o", str(partial), str(SOURCE)],
            capture_output=True,
            check=True,
            timeout=120,
        )
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


@functools.lru_cache(maxsize=None)
def load_loop() -> "Callable[..., int] | None":
    """``run_batch`` from the compiled loop, or None without a compiler.

    Compiles on the first call of the process, or loads the cached
    build; a failure warns once (a :class:`RuntimeWarning`) and is
    remembered for the rest of the process.
    """
    compiler = shlex.split(os.environ.get("CC") or "cc")
    try:
        name = _library_name(compiler)
        for directory in _cache_dirs():
            try:
                path = _build(compiler, directory, name)
            except OSError as error:
                last_error: Exception = error
                continue
            library = ctypes.CDLL(str(path))
            break
        else:
            raise last_error
    except (OSError, subprocess.SubprocessError) as error:
        warnings.warn(
            f"compiled event loop unavailable ({error}); declared rules "
            "run on the generic loop, with identical results",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    run_batch = library.run_batch
    run_batch.argtypes = [
        ctypes.POINTER(LoopState),
        _POINTER,
        _POINTER,
        _INT,
        _POINTER,
    ]
    run_batch.restype = ctypes.c_int
    return run_batch
