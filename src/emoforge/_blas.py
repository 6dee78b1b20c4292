"""One BLAS thread for model code, from the moment numpy loads.

numpy hands a matrix product large enough to OpenBLAS, which splits it over
its thread pool. How it splits decides how the sums round, so a model
trained on a multi-core host would differ in its last bits from one trained
on a single core, and the pool's workers spin between calls. Model fitting
and prediction therefore run inside ``single_blas_thread``, which sets the
pool of the OpenBLAS that numpy has loaded to one thread and restores the
caller's count when the last of any nested or concurrent entries leaves.

Importing emoforge before numpy also starts numpy's OpenBLAS with a pool of
one thread. OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when it loads, and
otherwise starts one worker per core, which costs CPU at start-up and spins
between calls although no emoforge model uses it. So when numpy is not yet
imported and none of ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
``OMP_NUM_THREADS`` is set, this module sets ``OPENBLAS_NUM_THREADS=1``,
imports numpy and removes the variable again: code that runs later, and
child processes, see the environment as it was. ``OMP_NUM_THREADS`` is never
touched, because other OpenMP libraries read it too. A process that wants a
larger pool presets one of the three variables, imports numpy first, or
raises the count afterwards with ``openblas().set_num_threads``.

The library is found among the shared objects mapped into the process
(``/proc/self/maps``) by its exported thread-count functions. Where none is
found, as with another BLAS or on another platform, the context does
nothing, and model bytes carry no such guarantee.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, NamedTuple, Optional

# the variables that OpenBLAS reads for its pool size when it loads
_POOL_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _import_numpy_on_one_thread() -> None:
    """Import numpy with its OpenBLAS pool started on one thread, unless numpy
    is already imported or the environment sizes the pool."""
    if "numpy" in sys.modules or any(name in os.environ for name in _POOL_VARIABLES):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


_import_numpy_on_one_thread()

# (prefix, suffix) of the thread-count functions: scipy-openblas wheels with
# 64-bit and 32-bit integers, then a plain OpenBLAS build
_SYMBOL_STYLES = (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", ""))


class OpenBlas(NamedTuple):
    """The thread-count functions of one loaded OpenBLAS library."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _mapped_openblas_paths() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = [f[5].strip() for f in fields if len(f) == 6]
    return list(dict.fromkeys(p for p in paths if "openblas" in os.path.basename(p).lower()))


@cache
def openblas() -> Optional[OpenBlas]:
    """The OpenBLAS library numpy has loaded, or None where none is found."""
    for path in _mapped_openblas_paths():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _SYMBOL_STYLES:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return OpenBlas(get, put)
    return None


# The pool is process-wide, so its pin is too: the first entry saves the
# caller's count and the last exit restores it.
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with numpy's OpenBLAS on one thread (a no-op without one)."""
    global _depth, _saved
    lib = openblas()
    if lib is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _saved = lib.get_num_threads()
            lib.set_num_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                lib.set_num_threads(_saved)
