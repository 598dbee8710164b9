"""scripts/bench_record.py, driven by a stub in place of perfbench/run.py."""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BOUNDS = {
    "crawl_pages_per_s": {"name": "crawl_pages_per_s", "better": "higher", "bound": 0.25},
    "query_p50_ms": {"name": "query_p50_ms", "better": "lower", "bound": 0.25},
}


def stub(failing: tuple[str, int] | None = None, failed_ops: int = 0):
    """A command that prints a line of noise and then run.py's JSON line:
    crawl_pages_per_s is 100 × seed and query_p50_ms is 1 on site-cpu and
    2 elsewhere; the run (workload, seed) ``failing`` fails its gate."""

    def command(workload: str, seed: int) -> list[str]:
        result = {
            "correct": (workload, seed) != failing,
            "attempted": 10,
            "failed": failed_ops,
            "metrics": {
                "crawl_pages_per_s": {"value": 100.0 * seed, "unit": "pages/s"},
                "query_p50_ms": {"value": 1.0 if workload == "site-cpu" else 2.0, "unit": "ms"},
            },
        }
        code = 1 if (workload, seed) == failing else 0
        script = f"print('site built'); print({json.dumps(result)!r}); raise SystemExit({code})"
        return [sys.executable, "-c", script]

    return command


def _record(metrics: dict[str, float]) -> dict:
    return {"workloads": {"site-cpu": {name: {"median": v} for name, v in metrics.items()}}}


class TestRecord:
    def test_medians_quartiles_and_runs_per_workload_and_metric(self, tmp_path):
        path = bench_record.write_record(tmp_path, ["site-cpu", "site-io"], [1, 2, 3, 4, 5], stub())
        assert path.name == "BENCH_1.json"
        written = json.loads(path.read_text())
        crawl = written["workloads"]["site-io"]["crawl_pages_per_s"]
        runs = [100.0, 200.0, 300.0, 400.0, 500.0]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        assert crawl == {"unit": "pages/s", "median": 300.0, "q1": q1, "q3": q3, "runs": runs}
        assert (q1, q3) == (150.0, 450.0)
        assert written["workloads"]["site-cpu"]["query_p50_ms"]["median"] == 1.0
        assert written["workloads"]["site-io"]["query_p50_ms"]["median"] == 2.0
        assert written["seeds"] == [1, 2, 3, 4, 5]
        assert written["python"] == sys.version
        assert isinstance(written["dirty"], bool) and isinstance(written["head"], str)
        assert {"cpu_count", "recorded_s", "run"} <= written.keys()

    def test_each_record_takes_the_next_number(self, tmp_path):
        (tmp_path / "BENCH_2.json").write_text("{}")
        (tmp_path / "BENCH_10.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")
        first = bench_record.write_record(tmp_path, ["site-cpu"], [1], stub())
        second = bench_record.write_record(tmp_path, ["site-cpu"], [1], stub())
        assert (first.name, second.name) == ("BENCH_11.json", "BENCH_12.json")

    @pytest.mark.parametrize(
        "command", [stub(failing=("site-io", 2)), stub(failed_ops=1)], ids=["gate", "operations"]
    )
    def test_a_failed_run_writes_nothing(self, tmp_path, command):
        with pytest.raises(bench_record.RunFailed):
            bench_record.write_record(tmp_path, ["site-cpu", "site-io"], [1, 2], command)
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_a_record_against_itself_flags_nothing(self):
        record = _record({"crawl_pages_per_s": 10_000.0, "query_p50_ms": 0.3, "other": 5.0})
        lines, flagged = bench_record.compare(record, record, BOUNDS)
        assert flagged == 0 and len(lines) == 3
        assert all(line.endswith("(+0.0%)") for line in lines)

    @pytest.mark.parametrize(
        "crawl,p50,flags",
        [(7_400.0, 0.3, ["crawl_pages_per_s"]), (7_600.0, 0.3, []), (20_000.0, 0.3, []),
         (10_000.0, 0.38, ["query_p50_ms"]), (10_000.0, 0.37, []), (10_000.0, 0.1, [])],
    )
    def test_only_a_change_worse_than_its_bound_is_flagged(self, crawl, p50, flags):
        before = _record({"crawl_pages_per_s": 10_000.0, "query_p50_ms": 0.3})
        after = _record({"crawl_pages_per_s": crawl, "query_p50_ms": p50})
        lines, flagged = bench_record.compare(before, after, BOUNDS)
        assert flagged == len(flags)
        assert [line.split()[1][:-1] for line in lines if "WORSE" in line] == flags

    def test_the_compare_mode_reads_the_bounds_of_benchmark_json(self, tmp_path, capsys):
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        before.write_text(json.dumps(_record({"crawl_pages_per_s": 10_000.0})))
        after.write_text(json.dumps(_record({"crawl_pages_per_s": 7_000.0})))
        assert bench_record.main(["--compare", str(before), str(before)]) == 0
        assert bench_record.main(["--compare", str(before), str(after)]) == 1
        assert "WORSE PAST BOUND 25%" in capsys.readouterr().out
