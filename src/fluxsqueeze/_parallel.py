"""Independent work items on every CPU, with OpenBLAS pinned to one thread.

numpy offers no call that sets its BLAS thread count, so ``_openblas``
finds the OpenBLAS that numpy has loaded, by its path in
``/proc/self/maps``, and binds its thread-count and core-name calls
through ``ctypes``.  Where no such library or symbol is found (another
platform, another BLAS), nothing is pinnable and ``map_points`` runs on
the calling thread alone.  A pinned run writes the bytes of a run under
``OPENBLAS_NUM_THREADS=1``.

Imported before numpy (``fluxsqueeze`` imports it first), this module
sets ``OPENBLAS_THREAD_TIMEOUT`` to 20 unless the user has set it, so
that an idle OpenBLAS worker spins about 0.3 ms, not about 80 ms, before
it sleeps.  Thread counts and bytes are unchanged.  The CLI runs the
commands whose small products come far apart under ``_one_blas_thread``,
as a sleeping worker is slow to wake.  In the library, ``map_points`` and
``circuit._cached_terms`` pin one thread too; every other call keeps the
process's thread count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
from typing import Callable, Iterator, NamedTuple, Sequence

# read by OpenBLAS when numpy loads it, so too late once numpy is imported
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

# (prefix, suffix) of the OpenBLAS symbols, in the order they are tried:
# the scipy_openblas64 and scipy_openblas32 libraries of numpy 2 wheels,
# the openblas64_ library of numpy 1 wheels, then a system OpenBLAS
_NAMINGS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))


class _OpenBLAS(NamedTuple):
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    get_corename: Callable[[], bytes] | None


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """The thread and core-name calls of numpy's OpenBLAS, or None; loads
    numpy first, as a scan before it loads would cache None for good."""
    import ctypes

    import numpy  # noqa: F401

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # address, perms, offset, device, inode, path
            paths = {f[5] for f in map(str.split, fh) if len(f) == 6 and "openblas" in f[5]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _NAMINGS:
            get, set_, core = (
                getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
                for name in ("get_num_threads", "set_num_threads", "get_corename")
            )
            if get is None or set_ is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            if core is not None:
                core.restype, core.argtypes = ctypes.c_char_p, []
            return _OpenBLAS(get, set_, core)
    return None


def core_name() -> str | None:
    """The kernel OpenBLAS picked for this CPU (``SkylakeX``, ``Haswell``,
    ...), or None where it is not reachable."""
    lib = _openblas()
    if lib is None or lib.get_corename is None:
        return None
    return lib.get_corename().decode("ascii", "replace")


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """OpenBLAS on one thread inside the block, its count restored after;
    yields whether it could be pinned."""
    lib = _openblas()
    if lib is None:
        yield False
        return
    previous = lib.get_num_threads()
    lib.set_num_threads(1)
    try:
        yield True
    finally:
        lib.set_num_threads(previous)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_points(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]`` on the calling thread plus one helper
    thread per further CPU, under one OpenBLAS thread.

    Workers take indices in ascending order from one shared counter and
    store each result by its index.  After a failure no worker takes a new
    index, but every index already taken is finished, so every index below
    the lowest failing one has run: that failure is raised, as a serial
    loop would raise it.  Without a pinnable OpenBLAS the calling thread
    runs every item through the same loop.
    """
    results = [None] * len(items)
    errors: dict[int, Exception] = {}
    counter = itertools.count()
    lock = threading.Lock()
    stop = threading.Event()

    def work():
        while not stop.is_set():
            with lock:
                i = next(counter)
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                errors[i] = exc
                stop.set()

    with _one_blas_thread() as pinned:
        workers = min(_cpus(), len(items)) if pinned else 1
        helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
        for helper in helpers:
            helper.start()
        try:
            work()
        finally:
            stop.set()
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results
