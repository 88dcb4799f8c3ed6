"""End-to-end rank profiles and the brute-force full-complex oracle.

The production path works one forest size p at a time inside the filtration:
enumerate trivalent classes once, build the forest basis, assemble both
boundaries, and record

    a_p  basis size,
    b_p  kernel dimension of the contraction boundary d_C,
         a_p - rank d_C,
    c_p  rank of the removal boundary d_R restricted to that kernel,
         rank [d_C; d_R] - rank d_C,

from which the homology dimension at p is b_p - c_p - c_{p+1}.  Only ranks
are taken, so no kernel basis is built.

The oracle path (ranks up to ``ORACLE_MAX_RANK``) ignores the filtration
entirely: it enumerates graphs of every degree, loops allowed, assembles the
full signed boundary, and reads dimensions off exact rational ranks.
Agreement of the two paths is an acceptance gate.

Intermediate artifacts are cached by :mod:`outhom.artifacts` so interrupted
runs resume, and a cached run reproduces its report byte for byte.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .artifacts import ArtifactStore
from .chain import (
    ChainBasis,
    ClassStore,
    assemble,
    build_chain_basis,
    matmul,
    vstack,
)
from .enumerator import EnumSpec, ResourceCapError, enumerate_graphs
from .exactla import DEFAULT_PRIMES, FieldSpec, rank_of
from .multigraph import GraphClass

CACHE_ENV_VAR = "OUTHOM_CACHE_DIR"

DEFAULT_MAX_NNZ = 5_000_000
DEFAULT_MAX_BASIS = 500_000

# the largest rank the full-complex oracle takes: at n = 6 its bases take
# 45 s and an elimination of the k = 4 boundary runs out of memory
ORACLE_MAX_RANK = 5

# the resource caps a report records; a cached report serves a request only
# if each of the request's caps is at least the recorded one
_CAPS = ("max_nnz", "max_basis")

# what leaves a hole in a level instead of aborting the profile
_HOLE_CAUSES = (ResourceCapError, MemoryError)


def _shape(name: str, rows: int, cols: int, nnz: int) -> str:
    """The sizes a hole line names for a matrix."""
    return f"{name} {rows} x {cols}, nnz {nnz}"


class NegativeDimensionError(RuntimeError):
    """A homology dimension came out negative: a rank was lost to the prime."""


class CrossPrimeError(RuntimeError):
    """Two prime-field runs disagreed on a rank."""


def default_p_range(n: int) -> list[int]:
    top = 2 * n - 3
    if n <= 5:
        return list(range(top + 1))
    return sorted({0, 1, 2, top - 1, top})


@dataclass
class RankProfile:
    """Per-p ranks for one n, with holes where a resource cap was hit."""

    n: int
    field: str
    primes: list[int]
    p_range: list[int]
    a: list[Optional[int]]
    b: list[Optional[int]]
    c: list[Optional[int]]
    dims: list[Optional[int]]
    holes: list[int]
    timings: dict[str, float]
    maxrss_kb: int
    max_nnz: int = DEFAULT_MAX_NNZ
    max_basis: int = DEFAULT_MAX_BASIS
    from_cache: bool = False

    @property
    def top(self) -> int:
        return 2 * self.n - 3

    def to_json(self) -> str:
        payload = {k: v for k, v in vars(self).items() if k != "from_cache"}
        payload["timings"] = {k: round(v, 3) for k, v in self.timings.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "RankProfile":
        """Parse a report; a missing or unknown key raises ``TypeError``."""
        payload = json.loads(text)
        missing = [k for k in _CAPS if k not in payload]
        if missing:
            raise TypeError(f"report records no {', '.join(missing)}")
        return RankProfile(**payload, from_cache=True)

    def serves(self, field: str, p_range: list[int], caps: dict[str, int]) -> bool:
        """Whether this report answers a request: same field and p_range, no
        holes, and every cap of the request at least the recorded one, so a
        fresh run could leave no hole either."""
        return (
            self.field == field
            and self.p_range == p_range
            and not self.holes
            and all(caps[k] >= getattr(self, k) for k in _CAPS)
        )


def homology_dimensions(rp: RankProfile) -> list[Optional[int]]:
    """dims[p] = b_p - c_p - c_{p+1}; beyond the top filtration c is 0.

    Raises :class:`NegativeDimensionError` if any defined dimension is
    negative, which signals a rank lost to an unlucky prime.
    """
    dims: list[Optional[int]] = [None] * (rp.top + 1)
    negatives = []
    for p in range(rp.top + 1):
        b = rp.b[p]
        c = rp.c[p]
        c_next = 0 if p + 1 > rp.top else rp.c[p + 1]
        if b is None or c is None or c_next is None:
            continue
        d = b - c - c_next
        dims[p] = d
        if d < 0:
            negatives.append(p)
    if negatives:
        raise NegativeDimensionError(
            f"negative homology dimension at p={negatives} for n={rp.n}"
        )
    return dims


# ---------------------------------------------------------------------------
# the profile computation

def compute_rank_profile(
    n: int,
    p_range: Optional[Sequence[int]] = None,
    f: Optional[FieldSpec] = None,
    cache_dir: Optional[str] = None,
    threads: int = 1,
    max_nnz: int = DEFAULT_MAX_NNZ,
    max_basis: int = DEFAULT_MAX_BASIS,
) -> RankProfile:
    """Compute a_p, b_p, c_p and homology dimensions for one n.

    ``c_p`` needs the basis one level down, so it is computed only when
    ``p - 1`` is also in range (or p = 0, where it is zero); when that basis
    is a hole, so is p.  Resource caps, and running out of memory, leave
    explicit holes instead of aborting the whole profile.

    ``threads`` worker processes enumerate the trivalent classes, but only
    in the rank steps with at least ``enumerator.POOL_MIN_PARENTS``
    parents, so at n <= 7 nothing forks.  Bases, matrices and ranks are
    built in this process.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    if f is None:
        f = FieldSpec.prime(DEFAULT_PRIMES[0])
    p_list = sorted(set(default_p_range(n) if p_range is None else p_range))
    top = 2 * n - 3
    if p_list and not (0 <= p_list[0] and p_list[-1] <= top):
        raise ValueError(f"p_range must lie within [0, {top}]")

    cache = ArtifactStore(cache_dir)
    caps = {"max_nnz": max_nnz, "max_basis": max_basis}
    cached = cache.report(n, f.label(), RankProfile.from_json)
    if cached is not None and cached.serves(f.label(), p_list, caps):
        return cached

    timings: dict[str, float] = {}
    t0 = time.monotonic()
    graphs = cache.graphs(EnumSpec(n), threads)
    timings["graphs"] = time.monotonic() - t0

    store = ClassStore()
    size = top + 1
    bases: dict[int, ChainBasis] = {}

    def run_level(p: int, fld: FieldSpec, rp: RankProfile) -> None:
        def hole(stage: str, exc: Exception | str, sizes: str = "") -> None:
            if isinstance(exc, MemoryError):
                exc = f"out of memory ({exc!r})"
            at = f" at {sizes}" if sizes else ""
            print(f"n={n} p={p}: {stage}: {exc}{at}; leaving a hole", file=sys.stderr)
            if p not in rp.holes:
                rp.holes.append(p)

        # The basis survives a later-stage cap so c at p+1 stays computable.
        t = time.monotonic()
        basis = bases.get(p)
        if basis is None:
            try:
                basis = cache.basis(n, p, graphs, store, max_basis)
            except _HOLE_CAUSES as exc:
                hole("basis", exc)
                return
            bases[p] = basis
            timings[f"basis-p{p}"] = time.monotonic() - t
        rp.a[p] = basis.dim
        rank_dc: Optional[int] = None
        stage, sizes = "dc", f"a_{p}={basis.dim}"
        try:
            t = time.monotonic()
            dc = cache.matrix("dc", basis, store)
            timings[f"dc-p{p}"] = time.monotonic() - t
            stage, sizes = "rank dc", _shape("dc", dc.rows, dc.cols, dc.nnz)
            t = time.monotonic()
            rank_dc = rank_of(dc, fld, max_nnz)
            rp.b[p] = basis.dim - rank_dc
            # the key predates rank-only b_p; bench/run.py sums stages by name
            timings[f"nullspace-p{p}"] = time.monotonic() - t
        except _HOLE_CAUSES as exc:
            hole(stage, exc, sizes)
        if p == 0:
            rp.c[p] = 0
            return
        if p - 1 not in bases:
            # a p - 1 outside the range leaves c_p undefined, not a hole
            if p - 1 in p_list:
                hole("dr", f"c_{p} needs the p={p - 1} basis, which is a hole")
            return
        if rank_dc is None:
            return
        stage, sizes = "dr", f"a_{p}={basis.dim}, a_{p - 1}={bases[p - 1].dim}"
        try:
            t = time.monotonic()
            dr = cache.matrix("dr", basis, store, bases[p - 1])
            stage = "rank [dc; dr]"
            sizes = _shape("[dc; dr]", dc.rows + dr.rows, dc.cols, dc.nnz + dr.nnz)
            # the stacked copy is all the rank reads
            stacked = vstack(dc, dr)
            del dc, dr
            rp.c[p] = rank_of(stacked, fld, max_nnz) - rank_dc
            timings[f"c-p{p}"] = time.monotonic() - t
        except _HOLE_CAUSES as exc:
            hole(stage, exc, sizes)

    def run_levels(fld: FieldSpec) -> RankProfile:
        rp = RankProfile(
            n=n,
            field=fld.label(),
            primes=[] if fld.p is None else [fld.p],
            p_range=p_list,
            a=[None] * size,
            b=[None] * size,
            c=[None] * size,
            dims=[None] * size,
            holes=[],
            timings=timings,
            maxrss_kb=0,
            **caps,
        )
        for p in p_list:
            run_level(p, fld, rp)
        rp.holes.sort()
        rp.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rp.dims = homology_dimensions(rp)
        return rp

    # Retry policy for a rank lost to an unlucky prime: rerun every level
    # under a second prime, then over the rationals.
    fields = [f]
    if f.p is not None:
        alt = next(q for q in DEFAULT_PRIMES if q != f.p)
        fields += [FieldSpec.prime(alt), FieldSpec.rational()]
    for fld in fields:
        try:
            profile = run_levels(fld)
            break
        except NegativeDimensionError:
            continue
    else:
        raise NegativeDimensionError(
            f"negative dimensions persisted for n={n} after prime retry"
        )
    cache.write_report(n, profile.field, profile.to_json())
    return profile


def cross_prime_profile(
    n: int,
    p_range: Optional[Sequence[int]] = None,
    primes: tuple[int, int] = DEFAULT_PRIMES,
    **kwargs,
) -> RankProfile:
    """Run the profile under two primes; any rank disagreement aborts.

    Both runs share the cached bases and matrices, which hold integers; each
    prime keeps its own report.  Equal primes raise ``ValueError``: one prime
    run twice always agrees with itself.  A run that lost a rank and came
    back under the other prime raises :class:`CrossPrimeError`.
    """
    if primes[0] == primes[1]:
        raise ValueError(f"the two primes must differ, both are {primes[0]}")
    first, second = runs = [compute_rank_profile(n, p_range, FieldSpec.prime(q), **kwargs)
                            for q in primes]
    for q, run in zip(primes, runs):
        if run.field != str(q):
            raise CrossPrimeError(f"GF({q}) lost a rank at n={n}; it came back over {run.field}")
    if first.b != second.b or first.c != second.c:
        raise CrossPrimeError(
            f"rank disagreement between GF({primes[0]}) and GF({primes[1]}) at n={n}: "
            f"b {first.b} vs {second.b}; c {first.c} vs {second.c}"
        )
    first.primes = list(primes)
    return first


# ---------------------------------------------------------------------------
# full-complex oracle (ranks 2 to ORACLE_MAX_RANK)

def oracle_graphs(n: int) -> list[GraphClass]:
    """Every connected bridgeless min-valence-3 graph of rank n, loops
    allowed: this is the contraction closure of the trivalent classes."""
    return enumerate_graphs(EnumSpec(n, max_degree=2 * n - 3, allow_loops=True))


def oracle_full_complex(n: int) -> list[int]:
    """Homology dimensions of the full signed complex, exactly over Q.

    Raises ``ValueError`` for a rank outside 2 to ``ORACLE_MAX_RANK``, and
    ``AssertionError`` if a composite of consecutive boundaries is nonzero.
    """
    if not 2 <= n <= ORACLE_MAX_RANK:
        raise ValueError(f"the full-complex oracle takes ranks 2 to {ORACLE_MAX_RANK}")
    bases, store = _oracle_bases(n)
    # the combined boundary, contraction minus removal, into the basis below
    full = (("contract", 1), ("remove", -1))
    mats = [assemble(bases[k], full, store, bases[k - 1]) for k in range(1, len(bases))]
    for k in range(1, len(mats)):
        if matmul(mats[k - 1], mats[k]).nnz:
            raise AssertionError(f"oracle boundary squared nonzero at k={k + 1}")
    rational = FieldSpec.rational()
    ranks = [rank_of(m, rational) for m in mats] + [0]
    dims = [b.dim - ranks[k] - (ranks[k - 1] if k else 0) for k, b in enumerate(bases)]
    top = 2 * n - 3
    dims += [0] * (top + 1 - len(dims))
    return dims[: top + 1]


def _oracle_bases(n: int) -> tuple[list[ChainBasis], ClassStore]:
    """Bases of the full complex by forest size, up to the first empty one."""
    graphs = oracle_graphs(n)
    store = ClassStore()
    for g in graphs:
        store.intern(g)
    bases: list[ChainBasis] = []
    while True:
        basis = build_chain_basis(n, len(bases), graphs, store)
        if bases and basis.dim == 0:
            return bases, store
        bases.append(basis)
