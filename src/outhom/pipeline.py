"""End-to-end rank profiles and the brute-force full-complex oracle.

The production path works one forest size p at a time inside the filtration:
enumerate trivalent classes once, build the forest basis, assemble both
boundaries, take the kernel of the contraction boundary blockwise, and
record

    a_p  basis size,
    b_p  kernel dimension of the contraction boundary,
    c_p  rank of the removal boundary restricted to that kernel,

from which the homology dimension at p is b_p - c_p - c_{p+1}.

The oracle path (small ranks only) ignores the filtration entirely: it
enumerates graphs of every degree, loops allowed, assembles the full signed
boundary, and reads dimensions off exact rational ranks.  Agreement of the
two paths is an acceptance gate.

Intermediate artifacts are cached as text files so interrupted runs resume,
and a cached run reproduces its report byte for byte.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .chain import (
    ChainBasis,
    ClassStore,
    SparseIntMat,
    accumulate_boundary,
    assemble,
    boundary_contract,
    boundary_remove,
    build_chain_basis,
    matmul,
)
from .enumerator import EnumSpec, ResourceCapError, enumerate_graphs, pairing_classes
from .exactla import (
    DEFAULT_PRIMES,
    FieldSpec,
    NullspaceBasis,
    RankOverflowError,
    nullspace_blockwise,
    rank_of,
)
from .forests import ForestedGraph, ForestIndex
from .multigraph import GraphClass, Multigraph, canonical_form
from .parallel import pmap

CACHE_ENV_VAR = "OUTHOM_CACHE_DIR"

DEFAULT_MAX_NNZ = 5_000_000
DEFAULT_MAX_BASIS = 500_000


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
    report_text: Optional[str] = None
    from_cache: bool = False

    @property
    def top(self) -> int:
        return 2 * self.n - 3

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "field": self.field,
            "primes": self.primes,
            "p_range": self.p_range,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "dims": self.dims,
            "holes": self.holes,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "maxrss_kb": self.maxrss_kb,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "RankProfile":
        d = json.loads(text)
        return RankProfile(
            n=d["n"],
            field=d["field"],
            primes=list(d["primes"]),
            p_range=list(d["p_range"]),
            a=list(d["a"]),
            b=list(d["b"]),
            c=list(d["c"]),
            dims=list(d["dims"]),
            holes=list(d["holes"]),
            timings=dict(d["timings"]),
            maxrss_kb=d["maxrss_kb"],
            report_text=text,
            from_cache=True,
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
# cache helpers

def _cache_path(cache_dir: Optional[str], name: str) -> Optional[Path]:
    if cache_dir is None:
        return None
    return Path(cache_dir) / name


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="ascii")
    tmp.replace(path)


def load_graphs(path: Path) -> list[GraphClass]:
    out = []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.strip():
            out.append(canonical_form(Multigraph.from_text(line)))
    return out


def cached_enumeration(spec: EnumSpec, cache_dir: Optional[str], threads: int = 1) -> list[GraphClass]:
    """Enumerate per spec with the file cache named after the mode."""
    if spec.trivalent and not spec.allow_loops:
        mode = "trivalent"
    else:
        mode = f"maxdeg{spec.max_degree}" + ("-loops" if spec.allow_loops else "")
    path = _cache_path(cache_dir, f"graphs-n{spec.n}-{mode}.txt")
    if path is not None and path.exists():
        return load_graphs(path)
    graphs = enumerate_graphs(spec, threads)
    if path is not None:
        _write_lines(path, [g.canon.to_text() for g in graphs])
        _write_lines(
            _cache_path(cache_dir, f"graphs-n{spec.n}-{mode}.count"),
            [str(len(graphs))],
        )
    return graphs


def _orbit_reps_job(args: tuple[GraphClass, int]):
    cls, p = args
    return ForestIndex(cls).orbit_representatives(p)


def _cached_basis(
    n: int,
    p: int,
    graphs: list[GraphClass],
    store: ClassStore,
    cache_dir: Optional[str],
    max_basis: Optional[int],
    threads: int,
) -> ChainBasis:
    path = _cache_path(cache_dir, f"basis-n{n}-p{p}.txt")
    if path is not None and path.exists():
        elements = []
        for line in path.read_text(encoding="ascii").splitlines():
            if not line.strip():
                continue
            gtext, forest = _label_from_text(line)
            cls = store.intern(canonical_form(Multigraph.from_text(gtext.decode("ascii"))))
            elements.append(ForestedGraph(cls, forest, store.block_key(cls, forest)))
        return ChainBasis(n=n, p=p, elements=tuple(elements))
    orbit_lists = None
    if threads > 1:
        orbit_lists = pmap(_orbit_reps_job, [(g, p) for g in graphs], threads)
    basis = build_chain_basis(n, p, graphs, store, max_basis, orbit_lists)
    if path is not None:
        _write_lines(path, [el.to_text() for el in basis.elements])
    return basis


def _cached_matrix(
    name: str,
    cache_dir: Optional[str],
    build,
) -> SparseIntMat:
    path = _cache_path(cache_dir, f"{name}.txt")
    rows_path = _cache_path(cache_dir, f"{name}.rows.txt")
    if path is not None and path.exists():
        lines = path.read_text(encoding="ascii").splitlines()
        labels = None
        if rows_path.exists():
            labels = tuple(
                _label_from_text(line)
                for line in rows_path.read_text(encoding="ascii").splitlines()
                if line.strip()
            )
        return SparseIntMat.from_lines(lines, labels)
    mat = build()
    if path is not None:
        _write_lines(path, mat.to_lines())
        if mat.row_labels is not None:
            _write_lines(rows_path, [_label_to_text(k) for k in mat.row_labels])
    return mat


def _label_to_text(key) -> str:
    graph_key, forest = key
    body = ",".join(str(i) for i in forest)
    return f"{graph_key.decode('ascii')} | F={body}"


def _label_from_text(line: str):
    gtext, ftext = line.split(" | F=")
    forest = tuple(int(x) for x in ftext.split(",")) if ftext else ()
    return (gtext.encode("ascii"), forest)


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
    second_prime: Optional[int] = None,
    max_classes: int = 10_000_000,
) -> RankProfile:
    """Compute a_p, b_p, c_p and homology dimensions for one n.

    ``c_p`` needs the basis one level down, so it is computed only when
    ``p - 1`` is also in range (or p = 0, where it is zero).  Resource caps
    leave explicit holes instead of aborting the whole profile.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    if f is None:
        f = FieldSpec.prime(DEFAULT_PRIMES[0])
    p_list = sorted(set(default_p_range(n) if p_range is None else p_range))
    top = 2 * n - 3
    if p_list and not (0 <= p_list[0] and p_list[-1] <= top):
        raise ValueError(f"p_range must lie within [0, {top}]")

    cached = _load_cached_report(n, p_list, f, cache_dir)
    if cached is not None:
        return cached

    timings: dict[str, float] = {}
    t0 = time.monotonic()
    graphs = cached_enumeration(EnumSpec(n, max_classes=max_classes), cache_dir, threads)
    timings["graphs"] = time.monotonic() - t0

    store = ClassStore()
    size = top + 1
    bases: dict[int, ChainBasis] = {}

    def run_level(p: int, fld: FieldSpec, rp: RankProfile) -> None:
        def hole(exc: ResourceCapError) -> None:
            print(f"n={n} p={p}: {exc}; leaving a hole", file=sys.stderr)
            if p not in rp.holes:
                rp.holes.append(p)

        # The basis survives a later-stage cap so c at p+1 stays computable.
        t = time.monotonic()
        basis = bases.get(p)
        if basis is None:
            try:
                basis = _cached_basis(n, p, graphs, store, cache_dir, max_basis, threads)
            except ResourceCapError as exc:
                hole(exc)
                return
            bases[p] = basis
            timings[f"basis-p{p}"] = time.monotonic() - t
        rp.a[p] = basis.dim
        ns: Optional[NullspaceBasis] = None
        try:
            t = time.monotonic()
            dc = _cached_matrix(
                f"dc-n{n}-p{p}", cache_dir, lambda: boundary_contract(basis, store)
            )
            timings[f"dc-p{p}"] = time.monotonic() - t
            t = time.monotonic()
            blocks = [basis.blocks[k] for k in sorted(basis.blocks)]
            ns = nullspace_blockwise(dc, blocks, fld, max_nnz, threads)
            rp.b[p] = ns.dim
            timings[f"nullspace-p{p}"] = time.monotonic() - t
            if cache_dir is not None:
                _write_lines(
                    _cache_path(cache_dir, f"ns-n{n}-p{p}-f{fld.label()}.txt"),
                    [f"field={fld.label()}"] + ns.to_mat().to_lines(),
                )
        except ResourceCapError as exc:
            hole(exc)
        if p == 0:
            rp.c[p] = 0
            return
        if ns is None or (p - 1) not in bases:
            return
        try:
            t = time.monotonic()
            dr = _cached_matrix(
                f"dr-n{n}-p{p}",
                cache_dir,
                lambda: boundary_remove(basis, bases[p - 1], store),
            )
            composite = matmul(dr, ns.to_mat())
            rp.c[p] = rank_of(composite, fld, max_nnz)
            timings[f"c-p{p}"] = time.monotonic() - t
        except ResourceCapError as exc:
            hole(exc)

    def run_levels(fld: FieldSpec) -> RankProfile:
        rp = RankProfile(
            n=n,
            field=fld.label(),
            primes=[fld.p] if fld.kind == "prime" else [],
            p_range=p_list,
            a=[None] * size,
            b=[None] * size,
            c=[None] * size,
            dims=[None] * size,
            holes=[],
            timings=timings,
            maxrss_kb=0,
        )
        for p in p_list:
            run_level(p, fld, rp)
        rp.holes.sort()
        rp.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rp.dims = homology_dimensions(rp)
        return rp

    # Retry policy for a rank lost to an unlucky prime: rerun every level
    # under a second prime, then over the rationals if the matrices fit.
    fields = [f]
    if f.kind == "prime":
        alt = second_prime or next(q for q in DEFAULT_PRIMES if q != f.p)
        fields += [FieldSpec.prime(alt), FieldSpec.rational()]
    for fld in fields:
        try:
            profile = run_levels(fld)
            break
        except NegativeDimensionError:
            continue
        except RankOverflowError:
            if fld is f:
                raise
            continue
    else:
        raise NegativeDimensionError(
            f"negative dimensions persisted for n={n} after prime retry"
        )
    profile.report_text = profile.to_json()
    path = _cache_path(cache_dir, f"report-n{n}.json")
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(profile.report_text, encoding="ascii")
    return profile


def _load_cached_report(
    n: int, p_list: list[int], f: FieldSpec, cache_dir: Optional[str]
) -> Optional[RankProfile]:
    path = _cache_path(cache_dir, f"report-n{n}.json")
    if path is None or not path.exists():
        return None
    try:
        profile = RankProfile.from_json(path.read_text(encoding="ascii"))
    except (ValueError, KeyError):
        return None
    # A report with holes is recomputed: the caps may have been raised.
    if profile.p_range == p_list and profile.field == f.label() and not profile.holes:
        return profile
    return None


def cross_prime_profile(
    n: int,
    p_range: Optional[Sequence[int]] = None,
    primes: tuple[int, int] = DEFAULT_PRIMES,
    **kwargs,
) -> RankProfile:
    """Run the profile under two primes; any rank disagreement aborts."""
    first = compute_rank_profile(n, p_range, FieldSpec.prime(primes[0]), **kwargs)
    second = compute_rank_profile(
        n,
        p_range,
        FieldSpec.prime(primes[1]),
        **{**kwargs, "cache_dir": None},
    )
    if first.b != second.b or first.c != second.c:
        raise CrossPrimeError(
            f"rank disagreement between GF({primes[0]}) and GF({primes[1]}) at n={n}: "
            f"b {first.b} vs {second.b}; c {first.c} vs {second.c}"
        )
    first.primes = list(primes)
    first.report_text = first.to_json()
    return first


# ---------------------------------------------------------------------------
# full-complex oracle (small ranks)

def oracle_graphs(n: int) -> list[GraphClass]:
    """Every connected bridgeless min-valence-3 graph of rank n, loops
    allowed: this is the contraction closure of the trivalent classes."""
    spec = EnumSpec(n, max_degree=2 * n - 3, allow_loops=True)
    classes = pairing_classes(spec)
    return [classes[k] for k in sorted(classes)]


def oracle_full_complex(n: int, verify_d_squared: bool = True) -> list[int]:
    """Homology dimensions of the full signed complex, exactly over Q.

    Only ranks 2 and 3 are allowed; beyond that the graph counts blow up.
    """
    if n not in (2, 3):
        raise ValueError("full-complex oracle is limited to ranks 2 and 3")
    bases, store = _oracle_bases(n)
    mats: list[SparseIntMat] = []
    for k in range(1, len(bases)):
        mats.append(_oracle_boundary(bases[k], bases[k - 1], store))
    if verify_d_squared:
        for k in range(1, len(mats)):
            square = matmul(mats[k - 1], mats[k])
            if square.entries:
                raise AssertionError(f"oracle boundary squared nonzero at k={k + 1}")
    rational = FieldSpec.rational()
    ranks = [rank_of(m, rational) for m in mats] + [0]
    dims = []
    for k, basis in enumerate(bases):
        up = ranks[k] if k < len(ranks) else 0
        down = ranks[k - 1] if k >= 1 else 0
        dims.append(basis.dim - up - down)
    top = 2 * n - 3
    dims += [0] * (top + 1 - len(dims))
    return dims[: top + 1]


def _oracle_boundary(b: ChainBasis, target: ChainBasis, store: ClassStore) -> SparseIntMat:
    """Combined boundary (contraction minus removal) into the lower basis."""
    acc = accumulate_boundary({}, b, "contract", store)
    return assemble(accumulate_boundary(acc, b, "remove", store, -1), b.dim, target)


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


def oracle_euler_characteristic(n: int) -> int:
    """Alternating sum of full-complex dimensions (equals that of homology)."""
    bases, _ = _oracle_bases(n)
    return sum(-b.dim if k % 2 else b.dim for k, b in enumerate(bases))
