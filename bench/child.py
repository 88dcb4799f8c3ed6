"""One cold measurement, run in a fresh interpreter by ``run.py``.

    python child.py MODE SPEC_JSON RESULT_FD

MODE is ``probe`` (set-up only), ``profile`` (one untraced
``compute_rank_profile`` call) or ``replay`` (the profile replayed through
the public functions of each module, with spans around every call).  The
result goes to RESULT_FD as one JSON object, so whatever the library prints
on stdout cannot corrupt it.  ``t_call`` is the monotonic clock (shared by
all processes of the machine) when set-up ends; the parent subtracts its own
spawn time from it to get the set-up time.

Every mode also times a short fixed pure-Python loop every 20 ms (see
``SpeedSampler``).  ``sample_setup_s`` and, for ``profile``,
``sample_call_s`` are the loop's mean time during set-up and during the
call.  The loop does not touch outhom, so its time tracks only how fast the
machine ran.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import sys
import time
from contextlib import contextmanager

# Everything imported up to here and in main() before t_call is set-up.

RELABELINGS = 4  # random relabelings per class for canonical_form
SAMPLE_EVERY_S = 0.02
SAMPLE_ITERATIONS = 1_000


def _rusage_cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _speed_loop(iterations: int) -> int:
    """Fixed integer and dict work, like the library's inner loops."""
    rows: dict[int, int] = {}
    x = 1
    for i in range(iterations):
        x = (x * 48271 + i) % 65521
        rows[x & 1023] = (rows.get(x & 1023, 0) + x) % 65521
    return x


class SpeedSampler:
    """Times a short fixed loop every SAMPLE_EVERY_S of wall time (SIGALRM).

    A sample is the loop's thread CPU time, so time the process spends
    descheduled does not count, while a core slowed by its neighbours shows
    as a longer sample.  The mean over an interval is the machine's speed
    during it, as this process saw it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (monotonic time, seconds)
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def sample(self) -> None:
        t = time.thread_time()
        _speed_loop(SAMPLE_ITERATIONS)
        self.samples.append((time.monotonic(), time.thread_time() - t))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean(self, start: float, end: float) -> float:
        inside = [d for t, d in self.samples if start <= t <= end]
        return sum(inside) / len(inside)


def profile(spec: dict, sampler: SpeedSampler) -> dict:
    from outhom.pipeline import compute_rank_profile

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    rp = compute_rank_profile(spec["n"], spec["p_range"], threads=spec["threads"])
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    sampler.sample()
    return {
        "sample_call_s": sampler.mean(t0, time.monotonic()),
        "wall_s": t1 - t0,
        "cpu_s": _rusage_cpu(ru1) - _rusage_cpu(ru0) + _rusage_cpu(workers),
        "rss_self_kb": ru1.ru_maxrss,
        "rss_workers_kb": workers.ru_maxrss,
        "a": rp.a,
        "b": rp.b,
        "c": rp.c,
        "dims": rp.dims,
        "holes": rp.holes,
        "from_cache": rp.from_cache,
        "timings": rp.timings,
    }


class Tracer:
    """Spans (name, start, end, parent, p) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, p=None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "p": p,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def replay(spec: dict) -> dict:
    """The profile's stages, called one by one in pipeline order."""
    from outhom.chain import ClassStore, boundary_contract, boundary_remove, build_chain_basis, matmul
    from outhom.enumerator import EnumSpec, enumerate_graphs
    from outhom.exactla import DEFAULT_PRIMES, FieldSpec, nullspace_blockwise, rank_of
    from outhom.multigraph import apply_vertex_perm, canonical_form
    from outhom.pipeline import RankProfile, default_p_range, homology_dimensions

    n = spec["n"]
    f = FieldSpec.prime(DEFAULT_PRIMES[0])  # compute_rank_profile's default field
    p_list = sorted(default_p_range(n) if spec["p_range"] is None else spec["p_range"])
    size = 2 * n - 2
    a, b, c = [None] * size, [None] * size, [None] * size
    tr = Tracer()
    store = ClassStore()
    bases = {}
    cells = 0
    with tr.span("pipeline.replay"):
        with tr.span("enumerator.enumerate_graphs"):
            graphs = enumerate_graphs(EnumSpec(n))
        tr.add("enumerator.classes", len(graphs))
        for p in p_list:
            with tr.span("forests.orbit_representatives", p):
                orbit_lists = [store.forest_index(g).orbit_representatives(p) for g in graphs]
            tr.add("forests.orbits", sum(len(reps) for reps in orbit_lists))
            with tr.span("chain.build_chain_basis", p):
                basis = build_chain_basis(n, p, graphs, store, orbit_lists=orbit_lists)
            bases[p] = basis
            a[p] = basis.dim
            tr.add("chain.basis_dim", basis.dim)
            tr.add("chain.blocks", len(basis.blocks))
            tr.peak("chain.largest_block", max(map(len, basis.blocks.values()), default=0))
            with tr.span("chain.boundary_contract", p):
                dc = boundary_contract(basis, store)
            tr.add("chain.dc_rows", dc.rows)
            tr.add("chain.dc_nnz", len(dc.entries))
            with tr.span("exactla.nullspace_blockwise", p):
                ns = nullspace_blockwise(dc, [basis.blocks[k] for k in sorted(basis.blocks)], f)
            b[p] = ns.dim
            tr.add("exactla.kernel_dim", ns.dim)
            tr.add("exactla.kernel_nnz", sum(len(col) for col in ns.columns))
            if p == 0:
                c[p] = 0
                continue
            if p - 1 not in bases:
                continue
            with tr.span("chain.boundary_remove", p):
                dr = boundary_remove(basis, bases[p - 1], store)
            tr.add("chain.dr_nnz", len(dr.entries))
            with tr.span("chain.matmul", p):
                composite = matmul(dr, ns.to_mat())
            tr.add("chain.composite_nnz", len(composite.entries))
            cells += composite.rows * composite.cols
            with tr.span("exactla.rank_of", p):
                c[p] = rank_of(composite, f)
            tr.add("exactla.rank", c[p])
    tr.counts["exactla.composite_density"] = (
        tr.counts.get("chain.composite_nnz", 0) / cells if cells else 0.0
    )
    dims = homology_dimensions(
        RankProfile(
            n=n, field=f.label(), primes=[f.p], p_range=p_list, a=a, b=b, c=c,
            dims=[None] * size, holes=[], timings={}, maxrss_kb=0,
        )
    )

    # Canonical labeling of every class under seeded random relabelings;
    # each result must reproduce the class's key.
    rng = random.Random(spec["seed"])
    bad_keys = 0
    with tr.span("multigraph.canonical_form"):
        for cls in graphs:
            for _ in range(RELABELINGS):
                perm = list(range(cls.canon.vertex_count))
                rng.shuffle(perm)
                g = apply_vertex_perm(cls.canon, perm)
                if canonical_form(g).canonical_key != cls.canonical_key:
                    bad_keys += 1
                tr.add("multigraph.canonical_form_calls", 1)
    return {
        "a": a,
        "b": b,
        "c": c,
        "dims": dims,
        "holes": [],
        "from_cache": False,
        "canonical_mismatches": bad_keys,
        "spans": tr.spans,
        "counts": tr.counts,
    }


def main() -> None:
    mode, spec, fd = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
    sampler = SpeedSampler()
    import outhom.pipeline  # noqa: F401  (the library's import cost is set-up)

    t_call = time.monotonic()
    sampler.sample()
    sample_setup_s = sampler.mean(0.0, time.monotonic())
    if mode == "probe":
        import numpy

        result = {"numpy": numpy.__version__}
    elif mode == "profile":
        result = profile(spec, sampler)
    elif mode == "replay":
        result = replay(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sampler.stop()
    result.update(t_call=t_call, sample_setup_s=sample_setup_s)
    with os.fdopen(fd, "w", encoding="utf-8") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
