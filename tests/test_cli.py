from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_parts
from onto_seeker.cli import main
from onto_seeker.indexer import read_index, write_index
from onto_seeker.rdf import OntologySummary

FIXTURES = Path(__file__).parent / "fixtures"
SITE1 = FIXTURES / "site1"


def _assert_error_exit(captured, code, expected):
    assert code == expected
    assert "Traceback" not in captured.err
    assert captured.err.strip()


def _crawl_site1(tmp_path, capsys, *extra):
    out = tmp_path / "urls.txt"
    code = main(
        [
            "crawl",
            "--corpus-dir", str(SITE1),
            "--seed-url", "http://fixture.test/",
            "--max-pages", "50",
            "--politeness-ms", "0",
            "--out", str(out),
            *extra,
        ]
    )
    return code, out, capsys.readouterr()


class TestCmdCrawl:
    def test_fixture_site_collects_by_extension(self, tmp_path, capsys):
        code, out, captured = _crawl_site1(tmp_path, capsys)
        assert code == 0
        assert out.read_text().splitlines() == [
            "http://fixture.test/data/y.rdf",
            "http://fixture.test/x.owl",
        ]
        assert "pages_fetched" in captured.out

    def test_tsv_report_echoes_defaults(self, tmp_path, capsys):
        code, _out, captured = _crawl_site1(tmp_path, capsys, "--format", "tsv")
        assert code == 0
        lines = dict(line.split("\t", 1) for line in captured.out.strip().splitlines())
        assert lines["max_depth"] == "-1"
        assert lines["politeness_ms"] == "0"
        assert lines["seed_urls"] == "http://fixture.test/"

    def test_default_seed_with_plain_corpus_dir(self, tmp_path, capsys, monkeypatch):
        # the corpus dir answers for the default seed's host, so a bare
        # "--corpus-dir fixtures/site1 --max-pages 50" invocation works
        monkeypatch.chdir(tmp_path)
        code = main(["crawl", "--corpus-dir", str(SITE1), "--max-pages", "50",
                     "--politeness-ms", "0"])
        assert code == 0
        assert (tmp_path / "urls.txt").is_file()
        report = capsys.readouterr().out
        assert "www.ontologyportal.org" in report

    def test_all_seeds_unreachable_is_runtime_error(self, tmp_path, capsys):
        code = main(
            [
                "crawl",
                "--corpus-dir", str(SITE1),
                "--corpus-host", "fixture.test",
                "--seed-url", "http://other.test/",
                "--max-pages", "5",
                "--out", str(tmp_path / "urls.txt"),
            ]
        )
        assert code == 3

    def test_bad_depth_is_usage_error(self, capsys):
        code = main(
            ["crawl", "--corpus-dir", str(SITE1), "--max-pages", "5", "--max-depth", "-2"]
        )
        assert code == 1

    def test_missing_max_pages_is_usage_error(self):
        assert main(["crawl", "--corpus-dir", str(SITE1)]) == 1

    def test_transport_required(self):
        assert main(["crawl", "--max-pages", "5"]) == 1

    def test_unwritable_out_dir(self, tmp_path):
        code = main(
            [
                "crawl",
                "--corpus-dir", str(SITE1),
                "--seed-url", "http://fixture.test/",
                "--max-pages", "5",
                "--out", str(tmp_path / "missing" / "urls.txt"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "site_json", ["[1]", "{}", '{"entries": {"http://h.test/": 5}}', "{"]
    )
    def test_malformed_site_json_is_input_error(self, tmp_path, capsys, site_json):
        site = tmp_path / "site"
        site.mkdir()
        (site / "site.json").write_text(site_json)
        code = main(
            ["crawl", "--corpus-dir", str(site), "--max-pages", "5",
             "--out", str(tmp_path / "urls.txt")]
        )
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 2)
        assert str(site / "site.json") in captured.err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_malformed_marked_section_does_not_abort_the_crawl(self, tmp_path, workers):
        site = tmp_path / "site"
        site.mkdir()
        (site / "index.html").write_text('<a href="p1.html">1</a><a href="p2.html">2</a>')
        (site / "p1.html").write_text('<![CDAT[ x ]]><a href="later.owl">o</a>')
        (site / "p2.html").write_text("<p>end</p>")
        out = tmp_path / "urls.txt"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "onto_seeker.cli", "crawl", "--corpus-dir", str(site),
             "--seed-url", "http://fixture.test/", "--max-pages", "10", "--workers", workers,
             "--politeness-ms", "0", "--out", str(out), "--format", "tsv"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        assert "Traceback" not in done.stderr
        assert done.returncode == 0
        report = dict(line.split("\t", 1) for line in done.stdout.splitlines())
        assert (report["pages_fetched"], report["errors"]) == ("3", "0")
        assert out.read_text() == "http://fixture.test/later.owl\n"


class TestCmdIndex:
    def test_missing_urls_names_crawl(self, tmp_path, capsys):
        code = main(
            [
                "index",
                "--urls", str(tmp_path / "nope.txt"),
                "--index-dir", str(tmp_path / "idx"),
                "--corpus-dir", str(SITE1),
            ]
        )
        assert code == 2
        assert "crawl" in capsys.readouterr().err

    def test_end_to_end_over_fixture(self, tmp_path, capsys):
        _code, out, _ = _crawl_site1(tmp_path, capsys)
        code = main(
            [
                "index",
                "--urls", str(out),
                "--index-dir", str(tmp_path / "idx"),
                "--corpus-dir", str(SITE1),
                "--politeness-ms", "0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        lines = dict(line.split("\t", 1) for line in captured.strip().splitlines())
        assert lines["doc_count"] == "2"
        assert lines["blank_or_null"] == "0"
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["doc_count"] == 2

    def test_max_bytes_all_oversize(self, tmp_path, capsys):
        _code, out, _ = _crawl_site1(tmp_path, capsys)
        code = main(
            [
                "index",
                "--urls", str(out),
                "--index-dir", str(tmp_path / "idx"),
                "--corpus-dir", str(SITE1),
                "--politeness-ms", "0",
                "--max-bytes", "10",
            ]
        )
        assert code == 0
        lines = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["doc_count"] == "0"
        assert lines["oversize"] == "2"

    @pytest.mark.parametrize(
        "flags", [["--max-bytes", "0"], ["--politeness-ms", "-1"]], ids=["max-bytes", "politeness"]
    )
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, flags):
        _code, out, _ = _crawl_site1(tmp_path, capsys)
        code = main(
            ["index", "--urls", str(out), "--index-dir", str(tmp_path / "idx"),
             "--corpus-dir", str(SITE1), *flags]
        )
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith("error: ")
        assert not (tmp_path / "idx").exists()

    def test_non_utf8_url_list_is_input_error(self, tmp_path, capsys):
        urls = tmp_path / "urls.txt"
        urls.write_bytes(b"\xff\xfeh\x00t\x00t\x00p\x00\n")
        code = main(
            ["index", "--urls", str(urls), "--index-dir", str(tmp_path / "idx"),
             "--corpus-dir", str(SITE1), "--politeness-ms", "0"]
        )
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 2)
        assert "cannot read URL list" in captured.err
        assert not (tmp_path / "idx").exists()


def _build_index(tmp_path, capsys) -> Path:
    _code, out, _ = _crawl_site1(tmp_path, capsys)
    idx = tmp_path / "idx"
    main(
        [
            "index",
            "--urls", str(out),
            "--index-dir", str(idx),
            "--corpus-dir", str(SITE1),
            "--politeness-ms", "0",
        ]
    )
    capsys.readouterr()
    return idx


class TestCmdQuery:
    def test_class_keyword_hits_line_one(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        code = main(["query", "--index-dir", str(idx), "--query", "Anchor"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rank, score, url = lines[0].split("\t")
        assert (rank, url) == ("1", "http://fixture.test/x.owl")
        assert score == "3.000000"

    def test_unknown_keyword_no_lines_exit_zero(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        code = main(["query", "--index-dir", str(idx), "--query", "zzzz"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_empty_query_usage_error(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        assert main(["query", "--index-dir", str(idx), "--query", "  _ "]) == 1

    def test_zero_top_k_is_usage_error(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        code = main(["query", "--index-dir", str(idx), "--query", "Anchor", "--top-k", "0"])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_missing_index_names_index_command(self, tmp_path, capsys):
        code = main(["query", "--index-dir", str(tmp_path / "noidx"), "--query", "x"])
        assert code == 2
        assert "index" in capsys.readouterr().err

    def test_corrupt_postings_rejected(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        postings = idx / "postings.tsv"
        lines = postings.read_text().splitlines()
        postings.write_text("\n".join(reversed(lines)) + "\n")
        assert main(["query", "--index-dir", str(idx), "--query", "anchor"]) == 2

    def test_non_object_manifest_rejected(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        (idx / "manifest.json").write_text("[]")
        assert main(["query", "--index-dir", str(idx), "--query", "anchor"]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_machine_format_appends_detail(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        main(["query", "--index-dir", str(idx), "--query", "Anchor", "--format", "tsv"])
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert line.split("\t")[3] == "class:anchor"

    def test_query_never_mutates_index(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        before = {f.name: f.read_bytes() for f in idx.iterdir()}
        main(["query", "--index-dir", str(idx), "--query", "Anchor"])
        after = {f.name: f.read_bytes() for f in idx.iterdir()}
        assert before == after


def _run_with_early_closing_reader(args: list[str], lines_read: int) -> tuple[list[str], int, str]:
    """Run the CLI in a child process whose stdout reader closes after
    ``lines_read`` lines; returns those lines, the exit code and stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "onto_seeker.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return lines, proc.wait(timeout=60), err


class TestClosedStdout:
    def test_query_output_cut_after_the_first_line(self, tmp_path):
        # 5,000 result lines are more than a pipe holds, so the child is
        # still writing when the reader goes away.
        summaries = [
            OntologySummary(f"http://h.test/o{i}.owl", frozenset({"Person"}), frozenset(),
                            frozenset(), triple_count=1, byte_size=10)
            for i in range(5000)
        ]
        write_index(tmp_path / "idx", *build_parts(summaries))
        lines, code, err = _run_with_early_closing_reader(
            ["query", "--index-dir", str(tmp_path / "idx"), "--query", "person",
             "--top-k", "5000"],
            lines_read=1,
        )
        assert lines == ["1\t3.000000\thttp://h.test/o0.owl\n"]
        assert (code, err) == (141, "")

    def test_index_report_to_a_closed_reader(self, tmp_path, capsys):
        # The report is a few hundred bytes, all written in one flush, so a
        # reader that waited for its first line would get every line; this
        # reader closes before the child writes anything.
        _code, urls, _ = _crawl_site1(tmp_path, capsys)
        _lines, code, err = _run_with_early_closing_reader(
            ["index", "--urls", str(urls), "--index-dir", str(tmp_path / "idx"),
             "--corpus-dir", str(SITE1), "--politeness-ms", "0"],
            lines_read=0,
        )
        assert (code, err) == (141, "")
        assert read_index(tmp_path / "idx").manifest.doc_count > 0


class TestCmdPipeline:
    def test_full_run_produces_all_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(SITE1),
                "--seed-url", "http://fixture.test/",
                "--max-pages", "50",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
                "--query", "CargoShip",
            ]
        )
        assert code == 0
        assert (tmp_path / "urls.txt").is_file()
        assert (tmp_path / "idx" / "manifest.json").is_file()
        out = capsys.readouterr().out
        assert "http://fixture.test/data/y.rdf" in out

    def test_crawl_failure_stops_pipeline(self, tmp_path, capsys):
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(SITE1),
                "--corpus-host", "fixture.test",
                "--seed-url", "http://dead.test/",
                "--max-pages", "5",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
            ]
        )
        assert code == 3
        assert not (tmp_path / "idx").exists()

    def test_query_omitted_stops_after_index(self, tmp_path, capsys):
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(SITE1),
                "--seed-url", "http://fixture.test/",
                "--max-pages", "50",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
            ]
        )
        assert code == 0
        assert (tmp_path / "idx" / "manifest.json").is_file()


    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-bytes", "0"], "error: "),
            (["--query", "Anchor", "--top-k", "0"], "error: "),
            (["--query", " "], "unusable query"),
        ],
        ids=["max-bytes", "top-k", "blank-query"],
    )
    def test_bad_later_stage_flag_stops_before_crawl(self, tmp_path, capsys, flags, message):
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(SITE1),
                "--seed-url", "http://fixture.test/",
                "--max-pages", "50",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
                *flags,
            ]
        )
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert message in captured.err
        assert not (tmp_path / "urls.txt").exists()
        assert not (tmp_path / "idx").exists()


class TestCmdGenCorpus:
    def test_writes_site_and_ground_truth(self, tmp_path, capsys):
        code = main(
            ["gen-corpus", "--seed", "7", "--pages", "20", "--ontologies", "3",
             "--out-dir", str(tmp_path / "site")]
        )
        assert code == 0
        assert (tmp_path / "site" / "site.json").is_file()
        assert (tmp_path / "site" / "ground_truth.json").is_file()
        lines = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["pages"] == "20" and lines["ontologies"] == "3"

    def test_same_seed_identical_dirs(self, tmp_path, capsys):
        for name in ("a", "b"):
            main(["gen-corpus", "--seed", "7", "--pages", "15", "--ontologies", "2",
                  "--out-dir", str(tmp_path / name)])
        capsys.readouterr()
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_invalid_spec_usage_error(self, tmp_path):
        assert main(["gen-corpus", "--pages", "0", "--out-dir", str(tmp_path / "x")]) == 1

    def test_generated_site_crawlable_via_pipeline(self, tmp_path, capsys):
        main(["gen-corpus", "--seed", "7", "--pages", "20", "--ontologies", "3",
              "--out-dir", str(tmp_path / "site")])
        site = json.loads((tmp_path / "site" / "site.json").read_text())
        capsys.readouterr()
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(tmp_path / "site"),
                "--seed-url", site["root_url"],
                "--max-pages", "100",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
            ]
        )
        assert code == 0
        gt = json.loads((tmp_path / "site" / "ground_truth.json").read_text())
        assert sorted((tmp_path / "urls.txt").read_text().splitlines()) == sorted(
            gt["reachable_ontology_urls"]
        )


class TestCmdBench:
    def test_matrix_rows(self, capsys):
        code = main(
            ["bench", "--matrix", "1:500,2:500,4:500", "--pages", "25", "--ontologies", "4",
             "--format", "tsv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "workers\tmax_pages\tontologies_found\telapsed_ms"
        assert len(lines) == 4
        for line in lines[1:]:
            workers, pages, found, elapsed = line.split("\t")
            int(workers), int(pages), int(found), int(elapsed)

    def test_bad_matrix_usage_error(self):
        assert main(["bench", "--matrix", "1-500"]) == 1

    def test_human_table_default(self, capsys):
        code = main(["bench", "--matrix", "1:100", "--pages", "10", "--ontologies", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workers" in out and "ontologies_found" in out
