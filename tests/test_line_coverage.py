from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_coverage.py"
_spec = importlib.util.spec_from_file_location("line_coverage", _SCRIPT)
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)


class TestStaleAllowlist:
    def test_every_allowed_entry_names_an_executable_src_line(self):
        assert line_coverage.stale_entries(line_coverage.ALLOWED) == []

    def test_an_entry_that_matches_no_line_is_stale(self):
        made_up = ("onto_seeker/harness/synth.py", "_split_iri", "return 'no such line'")
        assert line_coverage.stale_entries(line_coverage.ALLOWED | {made_up}) == [made_up]

    def test_each_part_of_an_entry_must_match(self):
        real = ("onto_seeker/harness/synth.py", "_split_iri", "return None")
        moved = [
            ("onto_seeker/harness/corpus.py", *real[1:]),
            (real[0], "serialize_turtle", real[2]),
            ("onto_seeker/gone.py", *real[1:]),
        ]
        assert line_coverage.stale_entries({real, *moved}) == sorted(moved)
