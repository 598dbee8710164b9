#!/usr/bin/env python3
"""Record the benchmark's end-to-end medians in BENCH_<n>.json, or compare two records.

    python3 scripts/bench_record.py
    python3 scripts/bench_record.py --compare BENCH_1.json BENCH_2.json

A record runs ``perfbench/run.py --workload W --seed S --seconds 12 --trace 0``
for each workload W and seed S from 101 to 110 (the seeds of
``perfbench/baseline.json``), one child process at a time, and reads the JSON
object each prints as its last stdout line. Per workload and metric it keeps
the median, the quartiles (``statistics.quantiles``, n=4) and every run's
value, with the seeds, ``git rev-parse HEAD``, whether a tracked file differed
from HEAD, ``sys.version`` and ``os.cpu_count()``. It is written to the repo
root as BENCH_<n>.json, n one more than the highest there. If a run fails its
gate or reports a failed operation, nothing is written and the exit code is 1.

``--compare A B`` prints each metric's median change from A to B, and flags
one that is worse by more than its bound in BENCHMARK.json; it exits 1 if any
is flagged. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("site-cpu", "site-io", "query-stream")
SEEDS = range(101, 111)
SECONDS = 12
RUN_TIMEOUT_S = 900
_RECORD_NAME = re.compile(r"BENCH_([0-9]+)\.json")


class RunFailed(Exception):
    pass


def bench_command(workload: str, seed: int) -> list[str]:
    return [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]


def run_once(command: list[str]) -> dict:
    """The metrics of one run; RunFailed if it fails its gate or an operation."""
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT, check=False
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        raise RunFailed(f"{' '.join(command[1:])}: exit {proc.returncode}\n{proc.stderr.strip()}")
    return result["metrics"]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], capture_output=True, text=True, cwd=ROOT, check=False
    ).stdout.strip()


def record(workloads: list[str], seeds: list[int], command: Callable[[str, int], list[str]]) -> dict:
    """Run every (workload, seed) in turn; RunFailed at the first failed run."""
    started = time.monotonic()
    per_workload = {}
    for workload in workloads:
        runs: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            for name, metric in run_once(command(workload, seed)).items():
                runs.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        per_workload[workload] = {
            name: {"unit": units[name], **summarise(values)} for name, values in runs.items()
        }
    return {
        "run": f"perfbench/run.py --seconds {SECONDS} --trace 0",
        "seeds": seeds,
        "head": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "recorded_s": round(time.monotonic() - started, 1),
        "workloads": per_workload,
    }


def write_record(
    folder: Path,
    workloads: list[str],
    seeds: list[int],
    command: Callable[[str, int], list[str]] = bench_command,
) -> Path:
    """Record, then write BENCH_<n>.json in ``folder``; RunFailed, writing nothing."""
    result = record(workloads, seeds, command)
    numbers = [int(m[1]) for p in folder.iterdir() if (m := _RECORD_NAME.fullmatch(p.name))]
    path = folder / f"BENCH_{max(numbers, default=0) + 1}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def compare(before: dict, after: dict, bounds: dict[str, dict]) -> tuple[list[str], int]:
    """One line per metric that both records hold, and how many are flagged."""
    lines, flagged = [], 0
    for workload, metrics in before["workloads"].items():
        for name, old in metrics.items():
            new = after["workloads"].get(workload, {}).get(name)
            if new is None:
                continue
            a, b = old["median"], new["median"]
            delta = (b - a) / a if a else float(b != a)
            line = f"{workload} {name}: {a:.6g} -> {b:.6g} ({delta:+.1%})"
            bound = bounds.get(name)
            if bound is not None:
                worse = -delta if bound["better"] == "higher" else delta
                if worse > bound["bound"]:
                    flagged += 1
                    line += f"  WORSE PAST BOUND {bound['bound']:.0%}"
            lines.append(line)
    return lines, flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
        lines, flagged = compare(before, after, bounds)
        print("\n".join(lines))
        print(f"{flagged} of {len(lines)} metrics worse past their bound")
        return 1 if flagged else 0

    try:
        path = write_record(ROOT, list(WORKLOADS), list(SEEDS))
    except RunFailed as exc:
        print(f"FAIL {exc}\nnothing written", file=sys.stderr)
        return 1
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
