#!/usr/bin/env python3
"""onto-seeker benchmark: seeded synthetic workloads through the public API.

    python3 perfbench/run.py --workload site-cpu --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

A run generates a synthetic site from --seed, crawls it, indexes the URL
file, loads the index and answers a seeded query stream, checking every
output against the site's ground truth outside the timed region. With
--trace 0 it prints every end-to-end metric; with --trace 1 it wraps the
call sites of each layer (see tracing.py) and prints the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object.
``--workload all`` runs each workload in a fresh process, one at a time.

Exit codes: 0 ok, 1 correctness gate failed, 2 program sources not found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("site-cpu", "site-io", "query-stream")
RUN_TIMEOUT_S = 180


def _load_program() -> None:
    """Import onto_seeker from this checkout's sources, never from elsewhere."""
    if not (SRC / "onto_seeker" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/onto_seeker", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    if args.workload == "all":
        return run_all(args)

    import bench  # noqa: PLC0415  (needs the program on sys.path)

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = bench.run_traced(args.workload, args.seed, workdir, WORK / "spans")
        else:
            result = bench.run_timed(args.workload, args.seed, args.seconds, workdir)
    except bench.GateFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result.lines:
        print(line)
    attempted, failed = result.ops.total()
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (ru_maxrss is a process high-water
    mark), strictly one after another."""
    merged: dict[str, dict] = {}
    ok = True
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"FAIL [{name}] exited with {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": ok, "attempted": max(attempted, 1), "failed": failed, "metrics": merged,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
