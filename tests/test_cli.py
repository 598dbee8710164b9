from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LONG_PORT_URL, QuietHandler, build_parts
from onto_seeker import cli
from onto_seeker.cli import main
from onto_seeker.indexer import FIELD_RANK, read_index, write_index
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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_body_bytes_below_one_is_usage_error(self, tmp_path, capsys, value):
        code, out, captured = _crawl_site1(tmp_path, capsys, "--max-body-bytes", value)
        _assert_error_exit(captured, code, 1)
        assert "max_body_bytes must be >= 1" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_live_timeout_is_usage_error(self, tmp_path, capsys, value):
        # Rejected while the transport is built, before any fetch is made.
        out = tmp_path / "urls.txt"
        code = main(
            ["crawl", "--live", "--seed-url", "http://127.0.0.1:9/", "--max-pages", "1",
             "--timeout-s", value, "--out", str(out)]
        )
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert "timeout_s" in captured.err
        assert not out.exists()

    def test_live_redirect_to_a_location_not_in_utf8_is_a_counted_error(
        self, tmp_path, capsys, loopback
    ):
        class _Site(QuietHandler):
            def do_GET(self):
                if self.path == "/":
                    self.send_response(200)
                    self.send_header("Content-Type", "text/html")
                    body = b'<a href="/moved.html">m</a><a href="/o.owl">o</a>'
                else:
                    self.send_response(302)
                    self.send_header("Location", "/caf\xe9.html")  # the byte 0xE9
                    body = b""
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        out = tmp_path / "urls.txt"
        code = main(
            ["crawl", "--live", "--seed-url", loopback(_Site) + "/", "--max-pages", "5",
             "--politeness-ms", "0", "--timeout-s", "5", "--out", str(out), "--format", "tsv"]
        )
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code == 0
        report = dict(line.split("\t", 1) for line in captured.out.splitlines())
        assert (report["pages_fetched"], report["errors"]) == ("2", "1")
        assert out.read_text().endswith("/o.owl\n")

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


# Blocks the import of urllib3 and requests, then runs the offline engine
# from the CLI.
_OFFLINE = """
import sys
sys.modules["urllib3"] = sys.modules["requests"] = None  # their import now raises ImportError
from onto_seeker import cli, crawler, indexer, query
site, work = sys.argv[1], sys.argv[2]
assert cli.main(["gen-corpus", "--seed", "7", "--pages", "20", "--ontologies", "3",
                 "--out-dir", site]) == 0
root = "http://host0.example/"
assert cli.main(["pipeline", "--corpus-dir", site, "--seed-url", root, "--max-pages", "20",
                 "--politeness-ms", "0", "--out", work + "/urls.txt",
                 "--index-dir", work + "/idx", "--created-at", "fixed"]) == 0
print(indexer.read_index(work + "/idx").manifest.doc_count)
"""

# Blocks the import of requests, then makes one live fetch.
_LIVE_WITHOUT_REQUESTS = """
import sys
sys.modules["requests"] = None
from onto_seeker.netfetch import LiveTransport, Url
print(LiveTransport(timeout_s=5.0).fetch(Url.parse(sys.argv[1]), 1024).body.decode())
"""


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )


class TestWithoutRequests:
    def test_offline_engine_runs_without_urllib3(self, tmp_path):
        done = _run_python(_OFFLINE, str(tmp_path / "site"), str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.splitlines()[-1]) > 0

    def test_live_fetch_runs_without_requests(self, loopback):
        class _Hello(QuietHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Length", "5")
                self.end_headers()
                self.wfile.write(b"hello")

        done = _run_python(_LIVE_WITHOUT_REQUESTS, loopback(_Hello) + "/p")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "hello"


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--corpus-dir", str(SITE1), "--max-bytes", "0"], "max_ontology_bytes must be > 0"),
            (["--live", "--timeout-s", "nan"], "timeout_s"),
        ],
        ids=["max-bytes", "timeout"],
    )
    def test_flags_are_checked_before_the_url_list(self, tmp_path, capsys, flags, message):
        code = main(
            ["index", "--urls", str(tmp_path / "nope.txt"), "--index-dir", str(tmp_path / "idx"),
             *flags]
        )
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith(f"error: {message}")


def _index_plain_site1(tmp_path, monkeypatch, lines: list[str]) -> tuple[int, list[str]]:
    """Index ``lines`` over site1 as a plain corpus folder with no --corpus-host;
    returns the exit code and the hosts the folder was served for."""
    hosts = []
    real_corpus_from_dir = cli.corpus_from_dir

    def corpus_from_dir(path, host):
        hosts.append(host)
        return real_corpus_from_dir(path, host)

    monkeypatch.setattr(cli, "corpus_from_dir", corpus_from_dir)
    urls = tmp_path / "urls.txt"
    urls.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code = main(["index", "--urls", str(urls), "--index-dir", str(tmp_path / "idx"),
                 "--corpus-dir", str(SITE1), "--politeness-ms", "0"])
    return code, hosts


class TestIndexDefaultHost:
    def test_host_of_the_first_line_that_parses(self, tmp_path, capsys, monkeypatch):
        code, hosts = _index_plain_site1(
            tmp_path, monkeypatch,
            ["", "null", "ftp://fixture.test/a.owl", "http://[x", "http://fixture.test/x.owl"],
        )
        report = dict(line.split("\t", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert hosts == ["fixture.test"]
        assert (report["doc_count"], report["blank_or_null"], report["fetch_error"]) == (
            "1", "2", "2"
        )

    def test_no_line_that_parses_falls_back_to_localhost(self, tmp_path, capsys, monkeypatch):
        code, hosts = _index_plain_site1(
            tmp_path, monkeypatch, ["", "null", "ftp://fixture.test/a.owl", "http://[x"]
        )
        report = dict(line.split("\t", 1) for line in capsys.readouterr().out.splitlines())
        assert code == 0
        assert hosts == ["localhost"]
        assert report["doc_count"] == "0"


class TestCorpusHostSpelling:
    def _index(self, tmp_path, capsys, host):
        urls = tmp_path / "urls.txt"
        urls.write_text("http://fixture.test/x.owl\n", encoding="utf-8")
        code = main(["index", "--urls", str(urls), "--index-dir", str(tmp_path / "idx"),
                     "--corpus-dir", str(SITE1), "--corpus-host", host, "--politeness-ms", "0"])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("host", ["fixture.test", "FIXTURE.test", "fixture.test:80"])
    def test_any_spelling_of_the_host_serves_the_folder(self, tmp_path, capsys, host):
        code, captured = self._index(tmp_path, capsys, host)
        report = dict(line.split("\t", 1) for line in captured.out.splitlines())
        assert code == 0
        assert (report["doc_count"], report["fetch_error"]) == ("1", "0")

    @pytest.mark.parametrize(
        "host", ["fixture.test:x", "user@fixture.test", "fixture.test/sub", "fixture.test/..",
                 "fix ture.test", "fixture.test?q", "fixture.test#top", "[x"],
    )
    def test_a_host_that_does_not_parse_is_a_usage_error(self, tmp_path, capsys, host):
        code, captured = self._index(tmp_path, capsys, host)
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith("error: bad --corpus-host: ")
        assert not (tmp_path / "idx").exists()


def _with_string_skip_count(manifest_text: str) -> bytes:
    data = json.loads(manifest_text)
    data["skip_counts"]["oversize"] = "0"
    return json.dumps(data).encode()


def _with_nan_class_weight(manifest_text: str) -> bytes:
    data = json.loads(manifest_text)
    data["field_weights"]["class"] = "nan"
    return json.dumps(data).encode()


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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--query", "  "], "unusable query"), (["--query", "x", "--top-k", "0"], "top_k")],
        ids=["blank-query", "zero-top-k"],
    )
    def test_flags_are_checked_before_the_index(self, tmp_path, capsys, flags, message):
        code = main(["query", "--index-dir", str(tmp_path / "noidx"), *flags])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith(f"error: {message}")

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

    @pytest.mark.parametrize(
        "file_name, corrupt",
        [
            ("manifest.json", lambda text: text.encode() + b"\xff"),
            ("docs.tsv", lambda text: text.encode() + b"\xff"),
            ("postings.tsv", lambda text: text.encode() + b"\xff"),
            ("manifest.json", _with_string_skip_count),
            ("manifest.json", _with_nan_class_weight),
        ],
        ids=["manifest-non-utf8", "docs-non-utf8", "postings-non-utf8", "skip-count-string",
             "weight-nan"],
    )
    def test_unreadable_index_is_an_input_error(self, tmp_path, capsys, file_name, corrupt):
        idx = _build_index(tmp_path, capsys)
        path = idx / file_name
        path.write_bytes(corrupt(path.read_text(encoding="utf-8")))
        code = main(["query", "--index-dir", str(idx), "--query", "anchor"])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 2)
        assert file_name in captured.err
        assert "run the index command first" in captured.err

    def test_boolean_format_version_is_an_input_error(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        data = json.loads((idx / "manifest.json").read_text())
        data["format_version"] = True
        (idx / "manifest.json").write_text(json.dumps(data))
        code = main(["query", "--index-dir", str(idx), "--query", "anchor"])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 2)
        assert captured.err.startswith("error: index directory is missing or invalid")
        assert "run the index command first" in captured.err

    def test_a_format_1_folder_asks_for_the_index_command(self, tmp_path, capsys):
        idx = tmp_path / "idx"
        summaries = [
            OntologySummary(f"http://h.test/{name}.owl", frozenset(classes), frozenset(),
                            frozenset(), triple_count=1, byte_size=10)
            for name, classes in (("a", {"Anchor", "Ship"}), ("b", {"Anchor"}))
        ]
        write_index(idx, *build_parts(summaries))
        # The same index in format 1: one postings.tsv row per posting,
        # sorted by token, field rank, doc id.
        lines = (idx / "postings.tsv").read_text(encoding="utf-8").splitlines()
        rows = []
        for line in lines:
            token, field_name, doc_ids, tf = line.split("\t")
            rows += [(token, FIELD_RANK[field_name], int(d), field_name, tf)
                     for d in doc_ids.split(",")]
        (idx / "postings.tsv").write_text(
            "".join(f"{t}\t{f}\t{d}\t{tf}\n" for t, _rank, d, f, tf in sorted(rows)),
            encoding="utf-8",
        )
        data = json.loads((idx / "manifest.json").read_text())
        assert data["posting_count"] == len(rows) > len(lines)
        data["format_version"] = 1
        (idx / "manifest.json").write_text(json.dumps(data))
        code = main(["query", "--index-dir", str(idx), "--query", "anchor"])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 2)
        assert captured.err.startswith("error: index directory is missing or invalid")
        assert "index format 1, reader supports 2" in captured.err
        assert "run the index command first" in captured.err

    def test_explain_url_not_in_the_index_is_a_runtime_error(self, tmp_path, capsys):
        idx = _build_index(tmp_path, capsys)
        code = main(["query", "--index-dir", str(idx), "--query", "anchor",
                     "--explain-url", "http://fixture.test/none.owl"])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 3)
        assert captured.err == (
            "error: --explain-url is not in the index: http://fixture.test/none.owl\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "spelling",
        ["HTTP://Fixture.Test:80/x.owl", "http://fixture.test/d/../x.owl",
         "http://fixture.test/x.owl#top"],
    )
    def test_explain_url_in_any_spelling(self, tmp_path, capsys, spelling):
        idx = _build_index(tmp_path, capsys)
        outs = []
        for url in ("http://fixture.test/x.owl", spelling):
            code = main(["query", "--index-dir", str(idx), "--query", "anchor",
                         "--explain-url", url])
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert "anchor class tf=1" in outs[0]

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


    def test_plain_dir_answers_for_the_seed_host_in_both_stages(self, tmp_path, capsys):
        site = tmp_path / "site"
        (site / "onto").mkdir(parents=True)
        (site / "index.html").write_text(
            '<a href="http://aaa.example/x.owl">x</a><a href="/onto/o.owl">o</a>'
        )
        (site / "onto" / "o.owl").write_bytes((SITE1 / "x.owl").read_bytes())
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(site),
                "--seed-url", "http://zzz.test/",
                "--max-pages", "5",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
                "--format", "tsv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "urls.txt").read_text().splitlines() == [
            "http://aaa.example/x.owl",
            "http://zzz.test/onto/o.owl",
        ]
        lines = dict(line.split("\t", 1) for line in out.splitlines() if "\t" in line)
        assert lines["doc_count"] == "1"
        assert lines["fetch_error"] == "1"

    def test_site_dir_loaded_once(self, tmp_path, capsys, monkeypatch):
        from onto_seeker import cli

        main(["gen-corpus", "--seed", "7", "--pages", "20", "--ontologies", "3",
              "--out-dir", str(tmp_path / "site")])
        root_url = json.loads((tmp_path / "site" / "site.json").read_text())["root_url"]
        loads = []

        def counting_load(site_dir):
            loads.append(site_dir)
            return load_site_dir(site_dir)

        load_site_dir = cli.load_site_dir
        monkeypatch.setattr(cli, "load_site_dir", counting_load)
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(tmp_path / "site"),
                "--seed-url", root_url,
                "--max-pages", "100",
                "--politeness-ms", "0",
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
            ]
        )
        assert code == 0
        assert len(loads) == 1
        assert read_index(tmp_path / "idx").manifest.doc_count == 3

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-bytes", "0"], "error: "),
            (["--max-body-bytes", "0"], "max_body_bytes"),
            (["--query", "Anchor", "--top-k", "0"], "error: "),
            (["--query", " "], "unusable query"),
            # The query-only flags are checked without --query too.
            (["--top-k", "0"], "top_k must be >= 1"),
            (["--explain-url", "http://nowhere.test/x.owl"], "need --query"),
            (["--match-all"], "need --query"),
        ],
        ids=["max-bytes", "max-body-bytes", "top-k", "blank-query",
             "top-k-without-query", "explain-url-without-query", "match-all-without-query"],
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


    def test_politeness_holds_across_the_stage_boundary(self, tmp_path, capsys, monkeypatch):
        politeness_ms = 100
        main(["gen-corpus", "--seed", "3", "--pages", "4", "--ontologies", "2", "--hosts", "1",
              "--out-dir", str(tmp_path / "site")])
        root_url = json.loads((tmp_path / "site" / "site.json").read_text())["root_url"]
        grants = []

        class GrantLoggingTransport(cli.CorpusTransport):
            def fetch(self, url, max_body_bytes, issued_at_ms=None):
                grants.append((url.host, issued_at_ms))
                return super().fetch(url, max_body_bytes, issued_at_ms)

        monkeypatch.setattr(cli, "CorpusTransport", GrantLoggingTransport)
        code = main(
            [
                "pipeline",
                "--corpus-dir", str(tmp_path / "site"),
                "--seed-url", root_url,
                "--max-pages", "10",
                "--politeness-ms", str(politeness_ms),
                "--out", str(tmp_path / "urls.txt"),
                "--index-dir", str(tmp_path / "idx"),
            ]
        )
        assert code == 0
        assert len(grants) == 6  # the crawl's 4 pages, then the index's 2 ontologies
        for host in {host for host, _ in grants}:
            times = sorted(grant for grant_host, grant in grants if grant_host == host)
            assert all(b - a >= politeness_ms for a, b in zip(times, times[1:]))


def _run_cli_strict_stdout(*args: str | bytes) -> subprocess.CompletedProcess:
    """Run the CLI in a child whose stdout is strict UTF-8, as under a UTF-8
    desktop locale; a bytes argument passes a path that is not UTF-8."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "onto_seeker.cli", *args], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8:strict"},
    )


def _strerror(code: int) -> bytes:
    return os.strerror(code).encode()


class TestReportsEchoPaths:
    def _crawl(self, out: bytes) -> subprocess.CompletedProcess:
        return _run_cli_strict_stdout(
            "crawl", "--corpus-dir", str(SITE1), "--seed-url", "http://fixture.test/",
            "--max-pages", "50", "--politeness-ms", "0", "--out", out,
        )

    def test_crawl_out_with_a_tab(self, tmp_path):
        out = os.fsencode(tmp_path) + b"/u\tx.txt"
        done = self._crawl(out)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[-1].split(None, 1) == [b"output_path", out]
        assert Path(os.fsdecode(out)).is_file()

    def test_crawl_out_not_in_utf8(self, tmp_path):
        out = os.fsencode(tmp_path) + b"/\xff.txt"
        done = self._crawl(out)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[-1].split(None, 1) == [b"output_path", out]
        assert Path(os.fsdecode(out)).is_file()

    def test_index_dir_not_in_utf8(self, tmp_path):
        urls = tmp_path / "urls.txt"
        urls.write_text("http://fixture.test/x.owl\n")
        index_dir = os.fsencode(tmp_path) + b"/i\xff"
        done = _run_cli_strict_stdout(
            "index", "--urls", str(urls), "--corpus-dir", str(SITE1), "--politeness-ms", "0",
            "--index-dir", index_dir,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[-1] == b"index_dir\t" + index_dir
        assert read_index(os.fsdecode(index_dir)).manifest.doc_count == 1

    def test_crawl_seed_not_in_utf8(self, tmp_path):
        out = tmp_path / "urls.txt"
        done = _run_cli_strict_stdout(
            "crawl", "--corpus-dir", str(SITE1), "--seed-url", b"http://fixture.test/\xff.owl",
            "--max-pages", "5", "--politeness-ms", "0", "--out", str(out),
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert out.read_bytes() == b"http://fixture.test/%FF.owl\n"

    # A path that cannot be read or written is named once, as its bytes, and
    # the OSError by its strerror, as the error's own text repeats the path.
    def test_unwritable_url_list_not_in_utf8(self, tmp_path):
        out = os.fsencode(tmp_path) + b"/\xff"
        os.mkdir(out)
        done = self._crawl(out)
        assert (done.returncode, done.stderr) == (
            2, b"error: cannot write URL list: " + out + b": " + _strerror(errno.EISDIR) + b"\n"
        )

    def test_unreadable_url_list_not_in_utf8(self, tmp_path):
        urls = os.fsencode(tmp_path) + b"/\xff"
        done = _run_cli_strict_stdout(
            "index", "--urls", urls, "--corpus-dir", str(SITE1), "--index-dir", str(tmp_path / "i")
        )
        assert (done.returncode, done.stderr) == (
            2, b"error: cannot read URL list: " + urls + b": " + _strerror(errno.ENOENT)
            + b"; run the crawl command first (onto-seeker crawl writes it)\n"
        )

    def test_unwritable_index_dir_not_in_utf8(self, tmp_path):
        urls = tmp_path / "urls.txt"
        urls.write_text("http://fixture.test/x.owl\n")
        index_dir = os.fsencode(tmp_path) + b"/i\xff"
        Path(os.fsdecode(index_dir)).touch()
        done = _run_cli_strict_stdout(
            "index", "--urls", str(urls), "--corpus-dir", str(SITE1), "--politeness-ms", "0",
            "--index-dir", index_dir,
        )
        assert (done.returncode, done.stderr) == (
            2, b"error: cannot write index: " + index_dir + b": " + _strerror(errno.EEXIST) + b"\n"
        )

    def test_gen_corpus_out_dir_not_in_utf8(self, tmp_path):
        out_dir = os.fsencode(tmp_path) + b"/s\xff"
        done = _run_cli_strict_stdout(
            "gen-corpus", "--pages", "10", "--ontologies", "2", "--out-dir", out_dir
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.splitlines()[-1] == b"out_dir\t" + out_dir
        assert Path(os.fsdecode(out_dir), "site.json").is_file()


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

    def test_out_dir_under_a_regular_file_is_input_error(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        out_dir = tmp_path / "plain" / "sub"
        code = main(["gen-corpus", "--pages", "10", "--ontologies", "2", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 2)
        assert captured.err.startswith(f"error: cannot write site folder: {out_dir}: ")

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

    @pytest.mark.parametrize("cell", ["x:1", "1:y"])
    def test_cell_that_is_no_integer_is_usage_error(self, capsys, cell):
        code = main(["bench", "--matrix", cell])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith(f"error: bad matrix cell {cell!r}")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--matrix", "0:10"], "worker_count must be >= 1"),
            (["--matrix", "1:0"], "max_pages must be >= 1"),
            (["--matrix", "1:10", "--politeness-ms", "-1"], "politeness_ms must be >= 0"),
            (["--matrix", "1:10", "--max-depth", "-2"], "max_depth must be >= -1"),
        ],
        ids=["workers", "pages", "politeness", "depth"],
    )
    def test_bad_cell_is_usage_error(self, capsys, flags, message):
        code = main(["bench", "--pages", "10", "--ontologies", "2", *flags])
        captured = capsys.readouterr()
        _assert_error_exit(captured, code, 1)
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_human_table_default(self, capsys):
        code = main(["bench", "--matrix", "1:100", "--pages", "10", "--ontologies", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workers" in out and "ontologies_found" in out


_INTS_BELOW_1 = st.integers(-3, 0).map(str)
_NEGATIVE_INTS = st.integers(-3, -1).map(str)
_DEPTHS_BELOW_MINUS_1 = st.integers(-5, -2).map(str)
_BAD_TIMEOUTS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5"])
_BLANK_QUERIES = st.sampled_from(["", " ", "  _ ", "-", "_-_"])
_LONG_PORT_HOST = LONG_PORT_URL.split("/")[2]
_BAD_SEEDS = st.sampled_from(["not a url", "ftp://x/", "http://", "http://[x/", LONG_PORT_URL])
_BAD_HOSTS = st.sampled_from(
    ["h.test:x", "u@h.test", "h.test/x", "h test", "h.test?q", "[x", _LONG_PORT_HOST]
)
_BAD_CELLS = st.one_of(
    st.builds("{}:{}".format, st.integers(-2, 0), st.integers(1, 50)),
    st.builds("{}:{}".format, st.integers(1, 4), st.integers(-2, 0)),
    st.sampled_from(["1-5", "x:1", "1:y", "", "1:", ":1", "1:2:3"]),
)
# One bad cell, alone or before or after a good one.
_MATRICES = st.builds(
    lambda bad, cells: ",".join(bad if cell is None else cell for cell in cells),
    _BAD_CELLS,
    st.sampled_from([(None,), ("1:10", None), (None, "2:5")]),
)

# Valid invocations; {work} is a fresh folder holding list.txt (a URL list of
# the site1 fixture) and plain (a regular file), {index} a valid index.
_BASES = {
    "crawl": ["crawl", "--corpus-dir", str(SITE1), "--seed-url", "http://fixture.test/",
              "--max-pages", "5", "--politeness-ms", "0", "--out", "{work}/urls.txt"],
    "crawl-live": ["crawl", "--live", "--seed-url", "http://127.0.0.1:9/", "--max-pages", "1",
                   "--out", "{work}/urls.txt"],
    "index": ["index", "--urls", "{work}/list.txt", "--index-dir", "{work}/idx",
              "--corpus-dir", str(SITE1), "--politeness-ms", "0"],
    "query": ["query", "--index-dir", "{index}", "--query", "anchor"],
    "pipeline": ["pipeline", "--corpus-dir", str(SITE1), "--seed-url", "http://fixture.test/",
                 "--max-pages", "5", "--politeness-ms", "0", "--out", "{work}/urls.txt",
                 "--index-dir", "{work}/idx", "--query", "anchor"],
    "gen-corpus": ["gen-corpus", "--pages", "10", "--ontologies", "2", "--out-dir",
                   "{work}/site"],
    "bench": ["bench", "--matrix", "1:10", "--pages", "10", "--ontologies", "2"],
}

# (command, flag, bad values, documented exit code); the flag's value replaces
# the base's, so each invocation has exactly one bad value.
_BAD_FLAGS = [
    ("crawl", "--max-pages", _INTS_BELOW_1, 1),
    ("crawl", "--workers", _INTS_BELOW_1, 1),
    ("crawl", "--max-depth", _DEPTHS_BELOW_MINUS_1, 1),
    ("crawl", "--politeness-ms", _NEGATIVE_INTS, 1),
    ("crawl", "--max-body-bytes", _INTS_BELOW_1, 1),
    ("crawl", "--seed-url", _BAD_SEEDS, 1),
    ("crawl", "--corpus-host", _BAD_HOSTS, 1),
    ("crawl", "--out", st.sampled_from(["{work}/plain/urls.txt", "{work}/no/urls.txt"]), 2),
    ("crawl-live", "--timeout-s", _BAD_TIMEOUTS, 1),
    ("index", "--max-bytes", _INTS_BELOW_1, 1),
    ("index", "--politeness-ms", _NEGATIVE_INTS, 1),
    ("index", "--urls", st.sampled_from(["{work}/missing.txt", "{work}"]), 2),
    ("index", "--index-dir", st.just("{work}/plain/idx"), 2),
    ("index", "--corpus-dir", st.just("{work}/no-site"), 2),
    ("index", "--corpus-host", _BAD_HOSTS, 1),
    ("query", "--top-k", _INTS_BELOW_1, 1),
    ("query", "--query", _BLANK_QUERIES, 1),
    ("query", "--index-dir", st.sampled_from(["{work}/noidx", "{work}"]), 2),
    ("query", "--explain-url", st.sampled_from(["http://h.test/none.owl", LONG_PORT_URL]), 3),
    ("pipeline", "--max-pages", _INTS_BELOW_1, 1),
    ("pipeline", "--workers", _INTS_BELOW_1, 1),
    ("pipeline", "--max-bytes", _INTS_BELOW_1, 1),
    ("pipeline", "--top-k", _INTS_BELOW_1, 1),
    ("pipeline", "--query", _BLANK_QUERIES, 1),
    ("pipeline", "--out", st.just("{work}/plain/urls.txt"), 2),
    ("gen-corpus", "--pages", _INTS_BELOW_1, 1),
    ("gen-corpus", "--ontologies", st.sampled_from(["-1", "11"]), 1),
    ("gen-corpus", "--max-link-depth", _INTS_BELOW_1, 1),
    ("gen-corpus", "--branching", _INTS_BELOW_1, 1),
    ("gen-corpus", "--hosts", _INTS_BELOW_1, 1),
    ("gen-corpus", "--latency-ms", _NEGATIVE_INTS, 1),
    ("gen-corpus", "--out-dir", st.just("{work}/plain/site"), 2),
    ("bench", "--matrix", _MATRICES, 1),
    ("bench", "--politeness-ms", _NEGATIVE_INTS, 1),
    ("bench", "--max-depth", _DEPTHS_BELOW_MINUS_1, 1),
    ("bench", "--pages", _INTS_BELOW_1, 1),
]


@pytest.fixture(scope="module")
def query_index(tmp_path_factory):
    idx = tmp_path_factory.mktemp("contract") / "idx"
    summary = OntologySummary("http://h.test/a.owl", frozenset({"Anchor"}), frozenset(),
                              frozenset(), triple_count=1, byte_size=10)
    write_index(idx, *build_parts([summary]))
    return idx


def _assert_bad_value_exit(query_index, tmp_path_factory, command, flag, value, expected):
    """``command`` with ``flag=value`` exits with ``expected``, one error line
    and no traceback, and writes nothing."""
    argv = [*_BASES[command], f"{flag}={value}"]
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    try:
        (work / "list.txt").write_text("http://fixture.test/x.owl\n")
        (work / "plain").write_text("")
        argv = [arg.replace("{work}", str(work)).replace("{index}", str(query_index))
                for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == expected, err.getvalue()
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
        assert sorted(p.name for p in work.iterdir()) == ["list.txt", "plain"]
        assert (work / "plain").read_text() == ""
    finally:
        shutil.rmtree(work)


class TestFailureContract:
    @pytest.mark.parametrize(
        "command, flag, values, expected", _BAD_FLAGS,
        ids=[f"{command}{flag}" for command, flag, _values, _code in _BAD_FLAGS],
    )
    @settings(max_examples=10)
    @given(data=st.data())
    def test_one_bad_value_exits_with_its_code_and_writes_nothing(
        self, query_index, tmp_path_factory, command, flag, values, expected, data
    ):
        _assert_bad_value_exit(
            query_index, tmp_path_factory, command, flag, data.draw(values), expected
        )

    # A port past int()'s 4,300-digit limit, in every flag that takes a URL
    # or host, whichever values the draws above reach.
    @pytest.mark.parametrize(
        "command, flag, value, expected",
        [("crawl", "--seed-url", LONG_PORT_URL, 1),
         ("crawl", "--corpus-host", _LONG_PORT_HOST, 1),
         ("index", "--corpus-host", _LONG_PORT_HOST, 1),
         ("query", "--explain-url", LONG_PORT_URL, 3)],
        ids=["crawl--seed-url", "crawl--corpus-host", "index--corpus-host", "query--explain-url"],
    )
    def test_a_long_port_exits_with_its_code(
        self, query_index, tmp_path_factory, command, flag, value, expected
    ):
        _assert_bad_value_exit(query_index, tmp_path_factory, command, flag, value, expected)


class TestDemoScript:
    def test_demo_pipeline_answers_every_query(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "demo_pipeline.py"), str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        sections = done.stdout.split("\n== query ")[1:]
        assert len(sections) == 3
        for section in sections:
            header, *lines = section.strip().splitlines()
            hits = [line.split("\t") for line in lines]
            assert hits, header
            for rank, (position, score, url, *_detail) in enumerate(hits, start=1):
                assert int(position) == rank
                assert float(score) > 0
                assert url.startswith("http://")
