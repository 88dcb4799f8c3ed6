"""outhom benchmark: cold rank profiles, checked against reference ranks.

    python3 bench/run.py --workload n5-full --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every measured call of ``outhom.pipeline.compute_rank_profile`` runs in a
fresh interpreter (``child.py``) with no cache, and its ranks are checked
against the workload's reference before any time is kept.  With
``--trace 0`` the run repeats cold calls for ``--seconds`` and prints the
end-to-end metrics as medians, with times scaled to a reference machine
speed by the speed samples each child takes; with ``--trace 1`` it makes
one untraced call and one traced replay and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object.  A copy of the
result, the environment and the trace spans is written to ``bench/out/``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

RUN_LIMIT_S = 165.0  # a run must end within 180 s
SETUP_PROBES = 9
# Seconds child.SpeedSampler's loop takes at the reference speed (its fast
# level on a 2-core x86_64 VM).  End-to-end times are scaled by this over
# the loop's mean time during the interval measured.
SAMPLE_REF_S = 3.0e-4
HOLE_MARK = "leaving a hole"
POOL_FALLBACK_MARK = "process pool unavailable"  # outhom.parallel.pmap ran serially


class HarnessError(RuntimeError):
    """The program cannot be measured here at all (no source, no imports)."""


def cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OUTHOM_CACHE_DIR", None)  # a cache would turn the run into a read
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports from bytecode caches, as installed
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def at_reference(seconds: float, sample_s: float) -> float:
    """A time measured while the speed sample loop took ``sample_s``,
    scaled to the reference speed."""
    return seconds * SAMPLE_REF_S / sample_s


class Call:
    """One child interpreter: its result object, output and exit status."""

    def __init__(self, mode: str, spec: dict, timeout: float):
        read_fd, write_fd = os.pipe()
        chunks: list[bytes] = []

        def drain() -> None:
            with os.fdopen(read_fd, "rb") as src:
                chunks.append(src.read())

        reader = threading.Thread(target=drain)
        reader.start()
        self.t_spawn = time.monotonic()
        try:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), mode, json.dumps(spec), str(write_fd)],
                cwd=ROOT,
                env=child_env(),
                pass_fds=(write_fd,),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        finally:
            os.close(write_fd)  # the reader sees EOF once the child is gone
        self.timed_out = False
        try:
            self.stdout, self.stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.timed_out = True
        finally:
            if proc.returncode is None:
                # the whole session: pool workers go too
                os.killpg(proc.pid, signal.SIGKILL)
                self.stdout, self.stderr = proc.communicate()
            reader.join()
        self.returncode = proc.returncode
        raw = b"".join(chunks)
        self.result = json.loads(raw) if raw and proc.returncode == 0 else None

    def failure(self, workload: Workload) -> str | None:
        """Why this call counts as failed, or None if its ranks are right."""
        if self.timed_out:
            return "timed out"
        if self.returncode != 0 or self.result is None:
            tail = self.stderr.strip().splitlines()[-1:] or ["no result"]
            return f"exit {self.returncode}: {tail[0]}"
        if POOL_FALLBACK_MARK in self.stderr:
            return "process pool unavailable: the call ran serially"
        if HOLE_MARK in self.stdout or self.result["holes"]:
            return f"holes {self.result['holes']}"
        if self.result["from_cache"]:
            return "served from a cache"
        if self.result.get("canonical_mismatches"):
            return f"{self.result['canonical_mismatches']} canonical keys changed under relabeling"
        wrong = workload.mismatches(self.result)
        return "; ".join(wrong) if wrong else None

    @property
    def measured_setup_s(self) -> float:
        return self.result["t_call"] - self.t_spawn

    @property
    def setup_s(self) -> float:
        return at_reference(self.measured_setup_s, self.result["sample_setup_s"])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    # A checkout without .git must not report the commit of a repository above it.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(numpy_version: str, threads: int) -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "nproc": cores(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": threads,
        "loadavg_at_start": [float(x) for x in loadavg],
        "machine": platform.machine(),
    }


def warm_up(spec: dict, deadline: float) -> str:
    """Unmeasured interpreter start that also writes the bytecode caches."""
    call = Call("probe", spec, deadline - time.monotonic())
    if call.result is None:
        raise HarnessError(f"cannot import outhom from {SRC}: {call.stderr.strip()[-500:]}")
    return call.result["numpy"]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, spec: dict, seconds: float, deadline: float):
    probes = []
    for _ in range(SETUP_PROBES):
        probe = Call("probe", spec, deadline - time.monotonic())
        if probe.result is None:
            raise HarnessError(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
        probes.append(probe)
    window_end = time.monotonic() + seconds
    good: list[Call] = []
    failures: list[str] = []
    last = 0.0
    # Start another call only if one as long as the last ends in the window.
    while not (good or failures) or time.monotonic() + last < min(window_end, deadline):
        call = Call("profile", spec, deadline - time.monotonic())
        last = time.monotonic() - call.t_spawn
        why = call.failure(workload)
        if why is None:
            good.append(call)
        else:
            failures.append(why)
    attempted = len(good) + len(failures)
    started = probes + good  # every start that measured its set-up
    samples = {
        "wall_s": [c.result["wall_s"] for c in good],
        "cpu_s": [c.result["cpu_s"] for c in good],
        "sample_call_s": [c.result["sample_call_s"] for c in good],
        "rss_self_kb": [c.result["rss_self_kb"] for c in good],
        "rss_workers_kb": [c.result["rss_workers_kb"] for c in good],
        "setup_s": [c.measured_setup_s for c in started],
        "sample_setup_s": [c.result["sample_setup_s"] for c in started],
    }
    metrics = {}
    notes = []
    if good:

        def scaled(key: str) -> float:
            return statistics.median(at_reference(c.result[key], c.result["sample_call_s"]) for c in good)

        metrics = {
            "wall_s": metric(scaled("wall_s"), "s"),
            "cpu_s": metric(scaled("cpu_s"), "s"),
            "peak_rss_mb": metric(
                statistics.median(
                    (c.result["rss_self_kb"] + c.result["rss_workers_kb"]) / 1024 for c in good
                ),
                "MB",
            ),
            "setup_s": metric(statistics.median(c.setup_s for c in started), "s"),
        }
        notes.append(
            "as measured, unscaled: "
            + ", ".join(f"{k} {statistics.median(samples[k]):.6g} s" for k in ("wall_s", "cpu_s", "setup_s"))
            + f"; speed sample loop {statistics.median(samples['sample_call_s']) * 1e3:.4g} ms"
            f" (reference {SAMPLE_REF_S * 1e3:.4g} ms); {len(good)} calls, {len(started)} set-ups"
        )
    notes.insert(0, f"error_rate {len(failures) / attempted} ratio ({len(failures)} failed / {attempted} attempted)")
    return attempted, failures, metrics, {"samples": samples}, notes


# Spans the replay records (each gives a "<name>_s" metric) and its counters.
SPANS = (
    "enumerator.enumerate_graphs",
    "multigraph.canonical_form",
    "forests.orbit_representatives",
    "chain.build_chain_basis",
    "chain.boundary_contract",
    "chain.boundary_remove",
    "chain.matmul",
    "exactla.nullspace_blockwise",
    "exactla.rank_of",
)
COUNTS = (
    "enumerator.classes",
    "multigraph.canonical_form_calls",
    "forests.orbits",
    "chain.basis_dim",
    "chain.blocks",
    "chain.largest_block",
    "chain.dc_rows",
    "chain.dc_nnz",
    "chain.dr_nnz",
    "chain.composite_nnz",
    "exactla.kernel_dim",
    "exactla.kernel_nnz",
    "exactla.rank",
)


def _stage_sum(timings: dict, stage: str) -> float:
    return sum(v for k, v in timings.items() if k == stage or k.startswith(stage + "-p"))


def traced(workload: Workload, spec: dict, deadline: float):
    untraced = Call("profile", spec, deadline - time.monotonic())
    replayed = Call("replay", spec, deadline - time.monotonic())
    failures = [why for why in (untraced.failure(workload), replayed.failure(workload)) if why]
    notes = [f"error_rate {len(failures) / 2} ratio ({len(failures)} failed / 2 attempted)"]
    if failures:
        return 2, failures, {}, {}, notes
    prof, rep = untraced.result, replayed.result
    spans, counts = rep["spans"], rep["counts"]

    def span_s(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def count(name: str) -> float:
        return counts.get(name, 0)

    timings = prof["timings"]
    stages = {k: _stage_sum(timings, k) for k in ("graphs", "basis", "dc", "nullspace", "c")}
    replay_s = span_s("pipeline.replay")
    m = {f"{name}_s": metric(span_s(name), "s") for name in SPANS}
    m.update({name: metric(count(name), "count") for name in COUNTS})
    m.update(
        {
            "forests.nonzero_ratio": metric(count("chain.basis_dim") / count("forests.orbits"), "ratio"),
            "exactla.composite_density": metric(count("exactla.composite_density"), "ratio"),
            **{f"pipeline.{k}_s": metric(stages[k], "s") for k in stages},
            "pipeline.untimed_s": metric(prof["wall_s"] - sum(timings.values()), "s"),
            "parallel.cpu_utilization": metric(prof["cpu_s"] / (prof["wall_s"] * spec["threads"]), "ratio"),
            "parallel.worker_peak_rss_mb": metric(prof["rss_workers_kb"] / 1024, "MB"),
            "trace.replay_s": metric(replay_s, "s"),
            "trace.overhead_s": metric(replay_s - prof["wall_s"], "s"),
        }
    )
    notes.append(
        f"untraced wall_s {prof['wall_s']} s; replay {replay_s} s; "
        f"replay-plus-tracing overhead {replay_s - prof['wall_s']} s"
    )
    return 2, [], m, {"untraced": prof, "spans": spans, "counts": counts}, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    spec = workload.spec(seed, cores())
    deadline = time.monotonic() + RUN_LIMIT_S
    numpy_version = warm_up(spec, deadline)
    env = environment(numpy_version, spec["threads"])
    if trace:
        outcome = traced(workload, spec, deadline)
    else:
        outcome = end_to_end(workload, spec, seconds, deadline)
    attempted, failures, metrics, detail, notes = outcome
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"workload": name, "spec": spec, "env": env, "failures": failures, **result, **detail}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{name} env {json.dumps(env, sort_keys=True)}")
    for why in failures:
        print(f"{name} FAILED {why}")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"{name} {line}")
    print(f"{name} details in {out_path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that Call kills the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "outhom" / "__init__.py").is_file():
        print(f"no outhom source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = [args.workload]
    if args.workload == "all":
        listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
        names = [w["name"] for w in listed]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
