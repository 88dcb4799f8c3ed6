"""Command-line surface.

Each subcommand takes only the flags it reads; any other flag is an error.

Exit codes: 0 success, 1 bad configuration or input (a negative cap, or a
file or cache directory that cannot be read or written), 2 a resource cap was
hit or memory ran out (partial artifacts remain valid), 3 rank disagreement
between primes (or a negative dimension surviving every retry), or a
``check`` whose pipeline dimensions differ from the oracle's.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .artifacts import ArtifactStore, label_text
from .chain import ClassStore
from .cycleio import parse_cycle, verify_cycle
from .enumerator import EnumSpec, ResourceCapError
from .exactla import DEFAULT_PRIMES, FieldSpec
from .pipeline import (
    CACHE_ENV_VAR,
    DEFAULT_MAX_BASIS,
    DEFAULT_MAX_NNZ,
    ORACLE_MAX_RANK,
    CrossPrimeError,
    NegativeDimensionError,
    RankProfile,
    compute_rank_profile,
    cross_prime_profile,
    oracle_full_complex,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2
EXIT_CROSS_PRIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


# Every flag of the command line; each subcommand picks the ones it reads.
_FLAGS = {
    "--n": dict(type=int, required=True, help="rank of the free group"),
    "--p": dict(type=int, default=None, help="single forest size"),
    "--p-max": dict(type=int, default=None, help="forest sizes 0..p-max"),
    "--prime": dict(type=int, default=DEFAULT_PRIMES[0]),
    "--second-prime": dict(type=int, default=None,
                           help="also run this prime and require agreement"),
    "--rational": dict(action="store_true", help="exact rationals"),
    "--threads": dict(type=int, default=1),
    "--cache-dir": dict(default=None, help=f"artifact cache (default ${CACHE_ENV_VAR})"),
    "--format": dict(dest="fmt", choices=("table", "structured"), default="table"),
    "--count-only": dict(action="store_true"),
    "--max-nnz": dict(type=int, default=DEFAULT_MAX_NNZ),
    "--max-basis": dict(type=int, default=DEFAULT_MAX_BASIS),
    "--max-degree": dict(type=int, default=0),
    "--allow-loops": dict(action="store_true"),
}


def _rank(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise ValueError("--n must be at least 2")
    return args.n


def _threads(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be at least 1")
    return args.threads


def _size(n: int, p: int) -> int:
    top = 2 * n - 3
    if not 0 <= p <= top:
        raise ValueError(f"forest sizes must lie in [0, {top}]")
    return p


def _field(args: argparse.Namespace) -> FieldSpec:
    return FieldSpec.rational() if args.rational else FieldSpec.prime(args.prime)


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    return args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None


def _trivalent_graphs(args: argparse.Namespace, n: int) -> tuple[ArtifactStore, list]:
    """The artifact store of ``--cache-dir`` and the trivalent classes of rank n."""
    cache = ArtifactStore(_cache_dir(args))
    return cache, cache.graphs(EnumSpec(n), _threads(args))


def _profile_table(rp: RankProfile) -> str:
    lines = [f"n = {rp.n}   field = {rp.field}"]
    lines.append(f"{'p':>3} {'a_p':>9} {'b_p':>9} {'c_p':>9} {'dim H_p':>9}")
    for p in range(rp.top + 1):
        cells = [rp.a[p], rp.b[p], rp.c[p], rp.dims[p]]
        text = [("-" if x is None else str(x)) for x in cells]
        lines.append(f"{p:>3} {text[0]:>9} {text[1]:>9} {text[2]:>9} {text[3]:>9}")
    if rp.holes:
        lines.append(f"holes (resource caps): {','.join(map(str, rp.holes))}")
    dims = ",".join("-" if d is None else str(d) for d in rp.dims)
    lines.append(f"dims: {dims}")
    return "\n".join(lines)


def _cmd_graphs(args: argparse.Namespace) -> int:
    spec = EnumSpec(_rank(args), max_degree=args.max_degree, allow_loops=args.allow_loops)
    graphs = ArtifactStore(_cache_dir(args)).graphs(spec, _threads(args))
    if args.count_only:
        print(len(graphs))
    else:
        for g in graphs:
            print(g.canon.to_text())
    return EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> int:
    n = _rank(args)
    p = _size(n, 0 if args.p is None else args.p)
    cache, graphs = _trivalent_graphs(args, n)
    basis = cache.basis(n, p, graphs, ClassStore(), args.max_basis)
    if args.count_only:
        print(basis.dim)
    else:
        for el in basis.elements:
            print(label_text(el.key))
    return EXIT_OK


def _cmd_matrices(args: argparse.Namespace) -> int:
    n = _rank(args)
    p = _size(n, 1 if args.p is None else args.p)
    cache, graphs = _trivalent_graphs(args, n)
    store = ClassStore()
    basis = cache.basis(n, p, graphs, store, args.max_basis)
    dc = cache.matrix("dc", basis, store)
    print(f"contraction boundary: {dc.rows} x {dc.cols}, nnz {dc.nnz}")
    if p >= 1:
        lower = cache.basis(n, p - 1, graphs, store, args.max_basis)
        dr = cache.matrix("dr", basis, store, lower)
        print(f"removal boundary:     {dr.rows} x {dr.cols}, nnz {dr.nnz}")
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    n = _rank(args)
    if args.p is not None and args.p_max is not None:
        raise ValueError("--p and --p-max are mutually exclusive")
    p_range: Optional[list[int]] = None
    if args.p is not None:
        p_range = [_size(n, args.p)]
    elif args.p_max is not None:
        p_range = list(range(_size(n, args.p_max) + 1))
    field = _field(args)
    if args.rational and args.second_prime is not None:
        raise ValueError("--second-prime compares two primes; it cannot run with --rational")
    kwargs = dict(
        p_range=p_range,
        cache_dir=_cache_dir(args),
        threads=_threads(args),
        max_nnz=args.max_nnz,
        max_basis=args.max_basis,
    )
    if args.second_prime is None:
        rp = compute_rank_profile(n, f=field, **kwargs)
    else:
        rp = cross_prime_profile(n, primes=(field.p, args.second_prime), **kwargs)
    if args.fmt == "structured":
        sys.stdout.write(rp.to_json())
    else:
        print(_profile_table(rp))
    return EXIT_RESOURCE if rp.holes else EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    dims = oracle_full_complex(_rank(args))
    print("dims: " + ",".join(map(str, dims)))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    n = _rank(args)
    oracle_dims = oracle_full_complex(n)
    rp = compute_rank_profile(
        n,
        f=_field(args),
        cache_dir=_cache_dir(args),
        max_nnz=args.max_nnz,
        max_basis=args.max_basis,
    )
    print("oracle dims:   " + ",".join(map(str, oracle_dims)))
    print("pipeline dims: " + ",".join("-" if d is None else str(d) for d in rp.dims))
    if rp.dims != oracle_dims:
        print("MISMATCH", file=sys.stderr)
        return EXIT_CROSS_PRIME
    print("match")
    return EXIT_OK


def _cmd_verify_cycle(args: argparse.Namespace) -> int:
    n = _rank(args)
    p = _size(n, args.p)
    store = ClassStore()
    with open(args.file, "r", encoding="ascii") as fh:
        w = parse_cycle(fh, store)
    if w.n != n or w.p != p:
        raise ValueError(f"cycle file has (n={w.n}, p={w.p}), expected (n={n}, p={p})")
    verdict = verify_cycle(w, _trivalent_graphs(args, n)[1], store)
    print(f"terms: {len(w.terms)}")
    print(f"is_in_basis: {verdict.is_in_basis}")
    print(f"dC_zero: {verdict.dC_zero}")
    print(f"dR_zero: {verdict.dR_zero}")
    if verdict.missing:
        for key in verdict.missing[:10]:
            print(f"missing: {key}", file=sys.stderr)
    print("cycle: " + ("yes" if verdict.is_cycle else "no"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="outhom", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, summary, *flags):
        # no abbreviations: `check --p 1` must not be read as `--prime 1`
        sp = subs.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(fn=fn, parser=sp)
        return sp

    add("graphs", _cmd_graphs, "enumerate admissible graph classes",
        "--n", "--threads", "--cache-dir", "--count-only", "--max-degree", "--allow-loops")
    add("basis", _cmd_basis, "forest basis for one (n, p)",
        "--n", "--p", "--threads", "--cache-dir", "--count-only", "--max-basis")
    add("matrices", _cmd_matrices, "assemble boundary matrices",
        "--n", "--p", "--threads", "--cache-dir", "--max-basis")
    add("homology", _cmd_homology, "full rank profile and dimensions",
        "--n", "--p", "--p-max", "--prime", "--second-prime", "--rational",
        "--threads", "--cache-dir", "--format", "--max-nnz", "--max-basis")
    add("oracle", _cmd_oracle, f"full-complex homology (n <= {ORACLE_MAX_RANK})", "--n")
    add("check", _cmd_check, "oracle vs pipeline comparison",
        "--n", "--prime", "--rational", "--cache-dir", "--max-nnz", "--max-basis")
    sp = add("verify-cycle", _cmd_verify_cycle, "check a cycle file",
             "--n", "--threads", "--cache-dir")
    sp.add_argument("file")
    sp.add_argument("--p", type=int, required=True,
                    help="forest size of the basis")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args, unread = parser.parse_known_args(argv)
        if unread:
            # argparse hands a subcommand's unknown arguments back to the
            # top-level parser; report them with the subcommand's usage
            args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
        for cap in ("max_nnz", "max_basis"):
            if getattr(args, cap, 0) < 0:
                raise ValueError(f"--{cap.replace('_', '-')} must be at least 0")
        return args.fn(args)
    except SystemExit as exc:  # argparse help/validation paths
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CrossPrimeError, NegativeDimensionError) as exc:
        print(f"rank failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_PRIME
    except (ValueError, OSError) as exc:  # OSError: an unreadable file or cache
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
