"""Process-pool map with a deterministic, order-preserving contract."""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Sequence[T], threads: int) -> Iterable[R]:
    """Map preserving input order; falls back to serial if no pool starts.

    The serial map is lazy, so results consumed one at a time are never all
    held.  A dead worker surfaces as a resource-cap error.
    """
    if threads <= 1 or len(items) <= 1:
        return map(fn, items)
    try:
        with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
            chunk = max(1, len(items) // (8 * threads))
            return list(pool.map(fn, items, chunksize=chunk))
    except OSError as exc:  # pool unavailable in restricted environments
        print(f"process pool unavailable ({exc}); running serially", file=sys.stderr)
        return map(fn, items)
    except BrokenProcessPool as exc:
        from .enumerator import ResourceCapError  # enumerator imports this module

        raise ResourceCapError(f"process pool worker died ({exc})") from exc
