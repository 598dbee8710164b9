from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", _SCRIPT)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)


def _write_hits(folder: Path, name: str, entries) -> None:
    rows = (f"{line_coverage.SRC / path}\t{line}\n" for path, line, _owner, _text in entries)
    (folder / name).write_text("".join(rows), encoding="utf-8")


class TestUnrunLines:
    def test_the_one_line_no_process_ran_is_reported(self, tmp_path):
        lines = line_coverage.src_lines()
        missing = lines[len(lines) // 2]
        _write_hits(tmp_path, "a.hits", [entry for entry in lines if entry != missing])
        assert line_coverage.unrun_lines(tmp_path) == [missing]

    def test_lines_run_across_processes_leave_none(self, tmp_path):
        lines = line_coverage.src_lines()
        _write_hits(tmp_path, "a.hits", lines[::2])
        _write_hits(tmp_path, "b.hits", lines[1::2])
        assert line_coverage.unrun_lines(tmp_path) == []
