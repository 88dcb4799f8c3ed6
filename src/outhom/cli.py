"""Command-line surface.

Exit codes: 0 success, 1 bad configuration or input, 2 a resource cap was
hit (partial artifacts remain valid), 3 rank disagreement between primes
(or a negative dimension surviving every retry).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .chain import ClassStore, boundary_contract, boundary_remove
from .cycleio import CycleFormatError, parse_cycle, verify_cycle
from .enumerator import EnumSpec, ResourceCapError
from .exactla import DEFAULT_PRIMES, FieldSpec
from .pipeline import (
    CACHE_ENV_VAR,
    DEFAULT_MAX_BASIS,
    DEFAULT_MAX_NNZ,
    CrossPrimeError,
    NegativeDimensionError,
    RankProfile,
    cached_enumeration,
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


@dataclass
class RunConfig:
    """Validated flags shared by the compute subcommands."""

    n: int
    p_range: Optional[list[int]]
    field: FieldSpec
    second_prime: Optional[int]
    threads: int
    cache_dir: Optional[str]
    fmt: str
    count_only: bool
    max_nnz: int
    max_basis: int


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="rank of the free group")
    sub.add_argument("--p", type=int, default=None, help="single forest size")
    sub.add_argument("--p-max", type=int, default=None, help="forest sizes 0..p-max")
    sub.add_argument("--prime", type=int, default=DEFAULT_PRIMES[0])
    sub.add_argument("--second-prime", type=int, default=None,
                     help="also run this prime and require agreement")
    sub.add_argument("--rational", action="store_true", help="exact rationals")
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--cache-dir", default=None,
                     help=f"artifact cache (default ${CACHE_ENV_VAR})")
    sub.add_argument("--format", dest="fmt", choices=("table", "structured"),
                     default="table")
    sub.add_argument("--count-only", action="store_true")
    sub.add_argument("--max-nnz", type=int, default=DEFAULT_MAX_NNZ)
    sub.add_argument("--max-basis", type=int, default=DEFAULT_MAX_BASIS)


def _config(args: argparse.Namespace) -> RunConfig:
    if args.n < 2:
        raise SystemExit(_fail("--n must be at least 2"))
    top = 2 * args.n - 3
    p_range: Optional[list[int]] = None
    if args.p is not None and args.p_max is not None:
        raise SystemExit(_fail("--p and --p-max are mutually exclusive"))
    if args.p is not None:
        p_range = [args.p]
    elif args.p_max is not None:
        p_range = list(range(args.p_max + 1))
    if p_range is not None and not all(0 <= p <= top for p in p_range):
        raise SystemExit(_fail(f"forest sizes must lie in [0, {top}]"))
    try:
        field = FieldSpec.rational() if args.rational else FieldSpec.prime(args.prime)
    except ValueError as exc:
        raise SystemExit(_fail(str(exc)))
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR) or None
    return RunConfig(
        n=args.n,
        p_range=p_range,
        field=field,
        second_prime=args.second_prime,
        threads=max(1, args.threads),
        cache_dir=cache_dir,
        fmt=args.fmt,
        count_only=args.count_only,
        max_nnz=args.max_nnz,
        max_basis=args.max_basis,
    )


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_VALIDATION


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


def _emit_profile(rp: RankProfile, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(rp.report_text or rp.to_json())
    else:
        print(_profile_table(rp))


def _cmd_graphs(args: argparse.Namespace) -> int:
    cfg = _config(args)
    spec = EnumSpec(cfg.n, max_degree=args.max_degree, allow_loops=args.allow_loops)
    graphs = cached_enumeration(spec, cfg.cache_dir, cfg.threads)
    if cfg.count_only:
        print(len(graphs))
    else:
        for g in graphs:
            print(g.canon.to_text())
    return EXIT_OK


def _cmd_basis(args: argparse.Namespace) -> int:
    cfg = _config(args)
    p = args.p if args.p is not None else 0
    from .pipeline import _cached_basis

    store = ClassStore()
    graphs = cached_enumeration(EnumSpec(cfg.n), cfg.cache_dir, cfg.threads)
    basis = _cached_basis(cfg.n, p, graphs, store, cfg.cache_dir, cfg.max_basis, cfg.threads)
    if cfg.count_only:
        print(basis.dim)
    else:
        for el in basis.elements:
            print(el.to_text())
    return EXIT_OK


def _cmd_matrices(args: argparse.Namespace) -> int:
    cfg = _config(args)
    p = args.p if args.p is not None else 1
    from .pipeline import _cached_basis, _cached_matrix

    store = ClassStore()
    graphs = cached_enumeration(EnumSpec(cfg.n), cfg.cache_dir, cfg.threads)
    basis = _cached_basis(cfg.n, p, graphs, store, cfg.cache_dir, cfg.max_basis, cfg.threads)
    dc = _cached_matrix(
        f"dc-n{cfg.n}-p{p}", cfg.cache_dir, lambda: boundary_contract(basis, store)
    )
    print(f"contraction boundary: {dc.rows} x {dc.cols}, nnz {len(dc.entries)}")
    if p >= 1:
        lower = _cached_basis(
            cfg.n, p - 1, graphs, store, cfg.cache_dir, cfg.max_basis, cfg.threads
        )
        dr = _cached_matrix(
            f"dr-n{cfg.n}-p{p}", cfg.cache_dir, lambda: boundary_remove(basis, lower, store)
        )
        print(f"removal boundary:     {dr.rows} x {dr.cols}, nnz {len(dr.entries)}")
    return EXIT_OK


def _cmd_homology(args: argparse.Namespace) -> int:
    cfg = _config(args)
    kwargs = dict(
        p_range=cfg.p_range,
        cache_dir=cfg.cache_dir,
        threads=cfg.threads,
        max_nnz=cfg.max_nnz,
        max_basis=cfg.max_basis,
    )
    if cfg.second_prime is not None and cfg.field.kind == "prime":
        rp = cross_prime_profile(
            cfg.n, primes=(cfg.field.p, cfg.second_prime), **kwargs
        )
    else:
        rp = compute_rank_profile(cfg.n, f=cfg.field, **kwargs)
    _emit_profile(rp, cfg.fmt)
    return EXIT_RESOURCE if rp.holes else EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if cfg.n not in (2, 3):
        return _fail("the full-complex oracle supports --n 2 and --n 3 only")
    dims = oracle_full_complex(cfg.n)
    print("dims: " + ",".join(map(str, dims)))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if cfg.n not in (2, 3):
        return _fail("check compares against the oracle; --n 2 or 3 only")
    oracle_dims = oracle_full_complex(cfg.n)
    rp = compute_rank_profile(
        cfg.n,
        f=cfg.field,
        cache_dir=cfg.cache_dir,
        threads=cfg.threads,
        max_nnz=cfg.max_nnz,
        max_basis=cfg.max_basis,
    )
    print("oracle dims:   " + ",".join(map(str, oracle_dims)))
    print("pipeline dims: " + ",".join("-" if d is None else str(d) for d in rp.dims))
    if rp.dims != oracle_dims:
        print("MISMATCH", file=sys.stderr)
        return EXIT_CROSS_PRIME
    print("match")
    return EXIT_OK


def _cmd_verify_cycle(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.p is None:
        return _fail("verify-cycle needs --p (the forest size of the basis)")
    from .pipeline import _cached_basis

    store = ClassStore()
    try:
        with open(args.file, "r", encoding="ascii") as fh:
            w = parse_cycle(fh, store)
    except OSError as exc:
        return _fail(str(exc))
    except CycleFormatError as exc:
        return _fail(str(exc))
    if w.n != cfg.n or w.p != args.p:
        return _fail(
            f"cycle file has (n={w.n}, p={w.p}), expected (n={cfg.n}, p={args.p})"
        )
    graphs = cached_enumeration(EnumSpec(cfg.n), cfg.cache_dir, cfg.threads)
    basis = _cached_basis(
        cfg.n, args.p, graphs, store, cfg.cache_dir, cfg.max_basis, cfg.threads
    )
    verdict = verify_cycle(w, basis, store)
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

    sp = subs.add_parser("graphs", help="enumerate admissible graph classes")
    _add_common(sp)
    sp.add_argument("--trivalent", action="store_true", default=True,
                    help="trivalent classes (default)")
    sp.add_argument("--max-degree", type=int, default=0)
    sp.add_argument("--allow-loops", action="store_true")
    sp.set_defaults(fn=_cmd_graphs)

    sp = subs.add_parser("basis", help="forest basis for one (n, p)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_basis)

    sp = subs.add_parser("matrices", help="assemble boundary matrices")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_matrices)

    sp = subs.add_parser("homology", help="full rank profile and dimensions")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_homology)

    sp = subs.add_parser("oracle", help="full-complex homology (n <= 3)")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_oracle)

    sp = subs.add_parser("check", help="oracle vs pipeline comparison")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_check)

    sp = subs.add_parser("verify-cycle", help="check a cycle file")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify_cycle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse help/validation paths
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CrossPrimeError, NegativeDimensionError) as exc:
        print(f"rank failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_PRIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
