"""Benchmark workloads and the reference ranks every run is checked against.

A workload is one ``compute_rank_profile`` call.  ``None`` in a reference
list means the profile leaves that entry undefined (p outside the range, or
c_p / dim H_p without the level below).  Calls use the default field
GF(65521); the references also hold under GF(65519).  The seed picks only the
canonical-form relabelings of the traced replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p_range: Optional[tuple[int, ...]]  # None: the full default range
    threads: int  # capped at the number of cores
    a: tuple[Optional[int], ...]
    b: tuple[Optional[int], ...]
    c: tuple[Optional[int], ...]
    dims: tuple[Optional[int], ...]

    def spec(self, seed: int, cores: int) -> dict:
        """What a measuring interpreter needs; JSON-serializable."""
        return {
            "n": self.n,
            "p_range": None if self.p_range is None else list(self.p_range),
            "threads": max(1, min(self.threads, cores)),
            "seed": seed,
        }

    def mismatches(self, got: dict) -> list[str]:
        """Reference entries that ``got`` (a/b/c/dims lists) gets wrong."""
        out = []
        for key in ("a", "b", "c", "dims"):
            want = list(getattr(self, key))
            if list(got.get(key) or []) != want:
                out.append(f"{key}={got.get(key)} expected {want}")
        return out


def _pad(values: dict[int, int], top: int) -> tuple[Optional[int], ...]:
    return tuple(values.get(p) for p in range(top + 1))


WORKLOADS = {
    w.name: w
    for w in (
        # Every module and filtration level at a small size; fixed costs
        # (interpreter, imports, per-call set-up) are a large share.
        # a/b/c from the seed under both primes, dims from PAPER.md.
        Workload(
            "n5-full",
            n=5,
            p_range=None,
            threads=1,
            a=(16, 64, 166, 420, 877, 1189, 926, 352),
            b=(16, 26, 20, 37, 69, 53, 12, 0),
            c=(0, 15, 11, 9, 28, 41, 12, 0),
            dims=(1, 0, 0, 0, 0, 0, 0, 0),
        ),
        # The published n = 7 numbers at p <= 1 (PAPER.md): 365 classes, so
        # enumeration and canonical labeling dominate.  p = 2 is left out
        # because one call there takes ~50 s, over the per-run budget.
        Workload(
            "n7-low-p01",
            n=7,
            p_range=(0, 1),
            threads=1,
            a=_pad({0: 365, 1: 3712}, 11),
            b=_pad({0: 365, 1: 1784}, 11),
            c=_pad({0: 0, 1: 364}, 11),
            dims=_pad({0: 1}, 11),
        ),
        # The top filtration level of n = 6 under a process pool: p = 9 is
        # one block of 11035 columns, so big-block pivot selection,
        # contraction assembly and large-forest orbits dominate.  p = 0, 1
        # are cheap and make the c_p stage and H_0 run too; p = 8 (needed
        # for c_9) is left out because it alone takes ~70 s.
        Workload(
            "n6-top-p9",
            n=6,
            p_range=(0, 1, 9),
            threads=2,
            a=_pad({0: 66, 1: 437, 9: 11035}, 9),
            b=_pad({0: 66, 1: 193, 9: 35}, 9),
            c=_pad({0: 0, 1: 65}, 9),
            dims=_pad({0: 1}, 9),
        ),
        # Seconds-long configuration for the harness self-test only.
        Workload(
            "n3-selftest",
            n=3,
            p_range=None,
            threads=2,
            a=(2, 3, 1, 0),
            b=(2, 1, 0, 0),
            c=(0, 1, 0, 0),
            dims=(1, 0, 0, 0),
        ),
    )
}
