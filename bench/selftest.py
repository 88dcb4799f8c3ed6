"""Self-test of the benchmark harness on a seconds-long n = 3 configuration.

    python3 bench/selftest.py

Drives ``run.py`` on the ``n3-selftest`` workload with tracing off and on,
and checks that the last line parses, that every metric named in
BENCHMARK.json appears with its unit (and nothing else does), that the ranks
were right, and that a directory holding only the benchmark exits non-zero
without printing a result.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD = "n3-selftest"


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(trace: int, declared: list[dict]) -> None:
    proc = run(ROOT, "--workload", WORKLOAD, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    check(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
    check(result["correct"] is True, f"trace {trace}: not correct: {lines[:-1]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    check(result["failed"] == 0, f"failed {result['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    check(set(got) == set(want), f"trace {trace}: metrics differ: {sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        value = got[name]["value"]
        check(got[name]["unit"] == unit, f"{name}: unit {got[name]['unit']} != {unit}")
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{name}: value {value}")
        check(
            any(line.startswith(f"{WORKLOAD} {name} ") and line.endswith(f" {unit}") for line in lines),
            f"{name} not printed with its unit",
        )
    check(any(f"{WORKLOAD} error_rate " in line for line in lines), "error_rate not printed")
    record = json.loads((BENCH_DIR / "out" / f"{WORKLOAD}-seed7-trace{trace}.json").read_text())
    for key in ("nproc", "python", "numpy", "git_commit", "threads", "loadavg_at_start"):
        check(key in record["env"], f"environment lacks {key}")
    if trace:
        spans = record["spans"]
        check(spans and all({"name", "start", "end", "parent", "p"} <= set(s) for s in spans), "spans")
    else:
        for key in ("sample_call_s", "sample_setup_s"):
            values = record["samples"][key]
            check(values and all(v > 0 for v in values), f"speed samples {key}: {values}")
    print(f"selftest trace {trace}: {len(got)} metrics with units, ranks match")


def check_bare_directory() -> None:
    bare = BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "--workload", "n5-full", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "a directory without the source must not succeed")
    check(not proc.stdout.strip(), f"printed a result without the source: {proc.stdout!r}")
    print("selftest bare directory: exit", proc.returncode, "and no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_result(0, spec["end_to_end"])
    check_result(1, spec["per_layer"])
    check_bare_directory()
    print("selftest PASS")


if __name__ == "__main__":
    main()
