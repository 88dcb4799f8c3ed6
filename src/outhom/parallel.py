"""Process-pool map with a deterministic, order-preserving contract."""

from __future__ import annotations

import sys
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Sequence[T], threads: int) -> Iterable[R]:
    """Map preserving input order; falls back to serial if no pool starts.

    The serial map is lazy, so results consumed one at a time are never all
    held.  Only a pool that cannot be created or cannot start its workers
    falls back; an exception the job raises in a worker, ``OSError``
    included, propagates.  A dead worker surfaces as a resource-cap error.
    The pool modules (and ``multiprocessing`` with them) are imported only
    when a pool starts.
    """
    if threads <= 1 or len(items) <= 1:
        return map(fn, items)
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        try:
            pool = ProcessPoolExecutor(max_workers=min(threads, len(items)))
            # map submits every chunk now, which starts the workers; the
            # jobs' own exceptions are raised only when the results are read
            results = pool.map(fn, items, chunksize=max(1, len(items) // (8 * threads)))
        except OSError as exc:  # pool unavailable in restricted environments
            print(f"process pool unavailable ({exc}); running serially", file=sys.stderr)
            return map(fn, items)
        with pool:
            return list(results)
    except BrokenProcessPool as exc:  # also raised by a submit after a death
        pool.shutdown(cancel_futures=True)
        from .enumerator import ResourceCapError  # enumerator imports this module

        raise ResourceCapError(f"process pool worker died ({exc})") from exc
