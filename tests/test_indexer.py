from __future__ import annotations

import builtins
import dataclasses
import errno
import os
import random
import stat
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    EXPECTED_SIXTEEN_SKIPS,
    GOOD_FIXTURE_SUMMARIES,
    INDEX_FILES,
    LONG_PORT_URL,
    build_parts,
    edit_manifest,
    group_postings,
    make_index,
    make_summary,
    mutants,
    nested_rdf_xml,
    posting_rows,
    sixteen_line_fixture,
)
from onto_seeker import indexer
from onto_seeker.errors import OntoSeekerError
from onto_seeker.harness import Corpus, CorpusEntry, CorpusTransport, scan_oracle
from onto_seeker.indexer import (
    CorruptIndex,
    DocRecord,
    FIELD_RANK,
    FIELDS,
    FIELD_WEIGHTS,
    Index,
    IndexDirUnwritable,
    IndexLimits,
    InputUnreadable,
    MissingFile,
    PostingList,
    SKIP_REASONS,
    VersionMismatch,
    build_index,
    index_summaries,
    read_index,
    read_url_list,
    render_skip_report,
    write_index,
)
from onto_seeker.netfetch import Url
from onto_seeker.query import EmptyQuery, parse_query, search
from onto_seeker.rdf import OWL_NS, RDF_NS, tokenize


def _write_lines(tmp_path, lines):
    path = tmp_path / "urls.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _assert_only_index_files(index_dir):
    assert sorted(p.name for p in index_dir.iterdir()) == list(INDEX_FILES)


class TestBuildIndex:
    def test_sixteen_line_accounting(self, tmp_path):
        lines, corpus = sixteen_line_fixture()
        path = _write_lines(tmp_path, lines)
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.doc_count == 5
        assert manifest.skip_counts == EXPECTED_SIXTEEN_SKIPS
        assert manifest.input_line_count == 16
        assert manifest.doc_count + sum(manifest.skip_counts.values()) == 16

    def test_sixteen_line_doc_order_and_terms(self, tmp_path):
        lines, corpus = sixteen_line_fixture()
        path = _write_lines(tmp_path, lines)
        build_index(path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx")
        index = read_index(tmp_path / "idx")
        urls = [doc.url for doc in index.docs]
        good = [line for line in lines if line in GOOD_FIXTURE_SUMMARIES]
        deduped = list(dict.fromkeys(good))
        assert urls == deduped  # doc ids follow input order among indexed docs
        for doc in index.docs:
            classes, properties, relations = GOOD_FIXTURE_SUMMARIES[doc.url]
            assert doc.class_count == len(classes)
            assert doc.property_count == len(properties)
            assert doc.relation_count == len(relations)

    def test_oversize_is_three_mib_plus_one(self, tmp_path):
        url = "http://h.test/big.owl"
        corpus = Corpus()
        corpus.add(url, CorpusEntry(200, "application/rdf+xml", b"x" * (3 * 1024 * 1024 + 1)))
        path = _write_lines(tmp_path, [url])
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["oversize"] == 1

    def test_exactly_limit_bytes_not_oversize(self, tmp_path):
        url = "http://h.test/fits.owl"
        body = b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<#C> a owl:Class ."
        corpus = Corpus()
        corpus.add(url, CorpusEntry(200, "text/turtle", body))
        path = _write_lines(tmp_path, [url])
        limits = IndexLimits(max_ontology_bytes=len(body), politeness_ms=0)
        manifest = build_index(path, CorpusTransport(corpus), limits, tmp_path / "idx")
        assert manifest.doc_count == 1

    def test_empty_input_file(self, tmp_path):
        path = tmp_path / "urls.txt"
        path.write_text("")
        manifest = build_index(
            path, CorpusTransport(Corpus()), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.doc_count == 0
        assert manifest.input_line_count == 0
        index = read_index(tmp_path / "idx")
        assert index.docs == [] and index.posting_lists == {}

    def test_unparseable_line_counts_as_fetch_error(self, tmp_path):
        path = _write_lines(
            tmp_path, ["not a url at all", "ftp://old.example/x.owl", LONG_PORT_URL]
        )
        manifest = build_index(
            path, CorpusTransport(Corpus()), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["fetch_error"] == 3

    def test_duplicate_of_skipped_line_still_duplicate(self, tmp_path):
        url = "http://h.test/gone.owl"
        corpus = Corpus()
        corpus.add(url, CorpusEntry(404, None, b""))
        path = _write_lines(tmp_path, [url, url])
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["fetch_error"] == 1
        assert manifest.skip_counts["duplicate"] == 1

    def test_unsupported_construct_counts_as_parse_error(self, tmp_path):
        url = "http://h.test/fancy.owl"
        corpus = Corpus()
        corpus.add(
            url,
            CorpusEntry(200, "text/turtle", b"@prefix ex: <http://x/> .\nex:A ex:p ( ex:B ) ."),
        )
        path = _write_lines(tmp_path, [url])
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["parse_error"] == 1

    def test_an_escape_past_u10ffff_counts_as_parse_error(self, tmp_path):
        corpus = Corpus()
        for name, value in (("good", "ok"), ("bad", "\\UFFFFFFFF")):
            body = f'@prefix owl: <{OWL_NS}> .\n<#C> a owl:Class ; <#p> "{value}" .'
            corpus.add(f"http://h.test/{name}.ttl", CorpusEntry(200, "text/turtle", body.encode()))
        path = _write_lines(tmp_path, ["http://h.test/good.ttl", "http://h.test/bad.ttl"])
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert (manifest.doc_count, manifest.skip_counts["parse_error"]) == (1, 1)
        assert [doc.url for doc in read_index(tmp_path / "idx").docs] == ["http://h.test/good.ttl"]

    def test_deeply_nested_rdf_xml_counts_as_parse_error(self, tmp_path):
        corpus = Corpus()
        for name, depth in (("deep", 1500), ("flat", 2)):
            corpus.add(
                f"http://h.test/{name}.owl",
                CorpusEntry(200, "application/rdf+xml", nested_rdf_xml(depth)),
            )
        path = _write_lines(tmp_path, ["http://h.test/deep.owl", "http://h.test/flat.owl"])
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["parse_error"] == 1
        assert manifest.doc_count == 1
        assert [doc.url for doc in read_index(tmp_path / "idx").docs] == ["http://h.test/flat.owl"]

    @pytest.mark.parametrize(
        "content_type, body",
        [
            ("text/turtle", b"<http://h/a> <http://h/p> <http://[x> ."),
            (
                "application/rdf+xml",
                f'<rdf:RDF xmlns:rdf="{RDF_NS}"><rdf:Description rdf:about="http://[x"/>'
                "</rdf:RDF>".encode(),
            ),
            (
                "application/rdf+xml",
                f'<?xml version="1.0" encoding="shift_jis"?><rdf:RDF xmlns:rdf="{RDF_NS}"/>'.encode(),
            ),
            ("text/turtle", f"<http://h/a\\uD800> a <{OWL_NS}Class> .".encode()),
        ],
        ids=["turtle-unjoinable-iri", "rdfxml-unjoinable-iri", "xml-multibyte-encoding",
             "turtle-surrogate-escape"],
    )
    def test_bad_document_counts_as_parse_error_and_the_build_goes_on(
        self, tmp_path, content_type, body
    ):
        good = f"<http://h.test/o#Person> a <{OWL_NS}Class> .".encode()
        corpus = Corpus()
        corpus.add("http://h.test/bad.owl", CorpusEntry(200, content_type, body))
        corpus.add("http://h.test/good.ttl", CorpusEntry(200, "text/turtle", good))
        path = _write_lines(tmp_path, ["http://h.test/bad.owl", "http://h.test/good.ttl"])
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["parse_error"] == 1
        assert manifest.doc_count == 1

    def test_terms_with_line_breaks_or_no_tokens_keep_the_index_readable(self, tmp_path):
        docs = {
            # U+2028 is a line break to str.splitlines, which reads the TSV files
            "http://h.test/sep.ttl": f"<http://h.test/o#Line\\u2028Break> a <{OWL_NS}Class> .",
            "http://h.test/none.ttl": f"<http://h.test/o#_> a <{OWL_NS}Class> .",
        }
        corpus = Corpus()
        for url, text in docs.items():
            corpus.add(url, CorpusEntry(200, "text/turtle", text.encode()))
        path = _write_lines(tmp_path, list(docs))
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.doc_count == 1
        assert manifest.skip_counts["empty_ontology"] == 1
        index = read_index(tmp_path / "idx")
        rows = posting_rows(index)
        assert [(token, doc_id) for token, _, doc_id, _ in rows] == [("break", 0), ("line", 0)]

    def test_missing_input(self, tmp_path):
        with pytest.raises(InputUnreadable):
            build_index(
                tmp_path / "absent.txt",
                CorpusTransport(Corpus()),
                IndexLimits(politeness_ms=0),
                tmp_path / "idx",
            )

    def test_deterministic_rebuild_byte_identical(self, tmp_path):
        lines, corpus = sixteen_line_fixture()
        path = _write_lines(tmp_path, lines)
        digests = []
        for run in range(2):
            idx_dir = tmp_path / f"idx{run}"
            build_index(
                path,
                CorpusTransport(corpus),
                IndexLimits(politeness_ms=0),
                idx_dir,
                created_at="2026-01-01T00:00:00Z",
            )
            digests.append(
                tuple((f.name, f.read_bytes()) for f in sorted(idx_dir.iterdir()))
            )
        assert digests[0] == digests[1]


class TestFetchOrder:
    def test_hosts_are_fetched_in_turn_and_docs_keep_file_order(self, tmp_path):
        good = f"<http://h.test/o#Person> a <{OWL_NS}Class> .".encode()
        corpus = Corpus()
        for url in ("http://a.test/1.ttl", "http://b.test/1.ttl",
                    "http://b.test/2.ttl", "http://a.test/2.ttl"):
            corpus.add(url, CorpusEntry(200, "text/turtle", good))
        corpus.add("http://a.test/404.ttl", CorpusEntry(404, None, b""))
        corpus.add("http://c.test/bad.ttl", CorpusEntry(200, "text/turtle", b"<#C> a "))
        lines = [
            "http://a.test/1.ttl",
            "http://b.test/1.ttl",
            "",
            "http://a.test/404.ttl",
            "http://c.test/bad.ttl",
            "http://a.test/1.ttl",  # duplicate
            "http://[x/",  # unparseable
            "http://b.test/2.ttl",
            "http://a.test/2.ttl",
        ]
        manifest = build_index(
            _write_lines(tmp_path, lines), CorpusTransport(corpus),
            IndexLimits(politeness_ms=0), tmp_path / "idx",
        )
        hosts = [url.split("/")[2] for url, _ in corpus.request_log]
        assert hosts == ["a.test", "b.test", "c.test", "a.test", "b.test", "a.test"]
        assert [doc.url for doc in read_index(tmp_path / "idx").docs] == [
            "http://a.test/1.ttl", "http://b.test/1.ttl",
            "http://b.test/2.ttl", "http://a.test/2.ttl",
        ]
        assert manifest.skip_counts == {
            **dict.fromkeys(SKIP_REASONS, 0),
            "blank_or_null": 1, "duplicate": 1, "fetch_error": 2, "parse_error": 1,
        }

    def test_same_host_gaps_hold_while_hosts_overlap(self, tmp_path):
        politeness_ms = 50
        good = f"<http://h.test/o#Person> a <{OWL_NS}Class> .".encode()
        corpus = Corpus()
        urls = [f"http://{host}.test/{i}.ttl" for host in ("a", "b") for i in range(6)]
        for url in urls:
            corpus.add(url, CorpusEntry(200, "text/turtle", good))
        manifest = build_index(
            _write_lines(tmp_path, urls), CorpusTransport(corpus),
            IndexLimits(politeness_ms=politeness_ms), tmp_path / "idx",
        )
        assert manifest.doc_count == 12
        by_host = corpus.per_host_issue_times()
        assert sorted(by_host) == ["a.test", "b.test"]
        for times in by_host.values():
            assert len(times) == 6
            assert all(b - a >= politeness_ms for a, b in zip(times, times[1:]))
        issued = [t for times in by_host.values() for t in times]
        # Fetched in file order, host b would start only after host a's five
        # gaps: a span of at least 10 gaps. Taken in turn, the hosts overlap.
        assert max(issued) - min(issued) <= 5 * politeness_ms + 2 * politeness_ms


# One page on each of three hosts in several spellings, lines no URL list
# should hold, and lines that do not parse as an http(s) URL.
_URL_LIST_LINES = st.sampled_from(
    ["", "   ", " null ", "null"]
    + [
        spelling.format(host=host, page=page)
        for host in ("a.test", "b.test", "c.test")
        for page in ("p", "q")
        for spelling in (
            "http://{host}/{page}", " HTTP://{host}/{page}", "http://{host}:80/{page}",
            "http://{host}/{page}#frag", "http://{host}/a/../{page}",
        )
    ]
    + ["http://A.TEST/p", "ftp://x", "http://[x", "u@h.test", " ftp://x "]
)


class TestReadUrlList:
    @given(st.lists(_URL_LIST_LINES, max_size=30))
    def test_one_reason_per_line_and_the_queue_in_host_turns(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("urls") / "urls.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        reasons, queue = read_url_list(path)
        assert len(reasons) == len(lines)
        for line, reason in zip(lines, reasons):
            blank = line.strip() in ("", "null")
            assert (reason == "blank_or_null") == blank
            assert reason in (None, "blank_or_null", "duplicate", "fetch_error")
            if reason == "fetch_error":
                with pytest.raises(OntoSeekerError):
                    Url.parse(line.strip())
        fetched = [lineno for lineno, reason in enumerate(reasons) if reason is None]
        assert sorted(lineno for _url, lineno in queue) == fetched
        for url, lineno in queue:
            assert url == Url.parse(lines[lineno].strip())
        assert len({str(url) for url, _lineno in queue}) == len(queue)
        by_host: dict[str, list[int]] = {}
        for lineno in fetched:
            by_host.setdefault(Url.parse(lines[lineno].strip()).host, []).append(lineno)
        turns = [lines_of[turn] for turn in range(len(fetched))
                 for lines_of in by_host.values() if turn < len(lines_of)]
        assert [lineno for _url, lineno in queue] == turns

    def test_a_leading_byte_order_mark_is_not_part_of_the_first_url(self, tmp_path):
        path = tmp_path / "urls.txt"
        path.write_bytes(b"\xef\xbb\xbfhttp://h.test/a.owl\nhttp://h.test/b.owl\n")
        reasons, queue = read_url_list(path)
        assert reasons == [None, None]
        assert [str(url) for url, _lineno in queue] == ["http://h.test/a.owl", "http://h.test/b.owl"]

    def test_build_index_parses_each_fetchable_line_once(self, tmp_path, monkeypatch):
        lines = [f"http://h{i % 3}.test/{i}.owl" for i in range(7)] + ["", "ftp://x"]
        parse = Url.parse
        parsed = []

        def counting_parse(raw):
            parsed.append(raw)
            return parse(raw)

        monkeypatch.setattr(Url, "parse", counting_parse)
        manifest = build_index(
            _write_lines(tmp_path, lines), CorpusTransport(Corpus()),
            IndexLimits(politeness_ms=0), tmp_path / "idx",
        )
        assert manifest.skip_counts["fetch_error"] == 8
        assert sorted(parsed) == sorted(lines[:7] + ["ftp://x"])


class TestIndexSummaries:
    def test_single_class_single_posting(self):
        docs, postings = index_summaries([make_summary("http://h.test/a.owl", classes={"Person"})])
        assert postings == [("person", "class", 0, 1)]
        assert docs[0].class_count == 1

    def test_tf_counts_terms_not_token_repeats(self):
        summary = make_summary(
            "http://h.test/a.owl", classes={"PartOfPart", "SparePart", "Wheel"}
        )
        _docs, postings = index_summaries([summary])
        part = [row for row in postings if row[0] == "part"]
        assert part == [("part", "class", 0, 2)]  # per-term containment, not occurrences

    def test_posting_sort_order(self):
        summaries = [
            make_summary("http://h.test/a.owl", classes={"Part"}, relations={"part"}),
            make_summary("http://h.test/b.owl", properties={"hasPart"}),
        ]
        _docs, postings = index_summaries(summaries)
        keys = [(token, FIELD_RANK[field], doc_id) for token, field, doc_id, _ in postings]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_tf_matches_brute_force(self):
        summaries = [
            make_summary(
                f"http://h.test/o{i}.owl",
                classes={"AgentOfOrganization", "Agent"},
                properties={"hasAgent", "hasPart"},
                relations={"partOf"},
            )
            for i in range(3)
        ]
        _docs, postings = index_summaries(summaries)
        field_terms = {"class": summaries[0].classes, "property": summaries[0].properties,
                       "relation": summaries[0].relations}
        for token, field, _doc_id, tf in postings:
            expected = sum(1 for term in field_terms[field] if token in tokenize(term))
            assert tf == expected


    def test_repeated_terms_match_brute_force(self, monkeypatch):
        """A term repeated across docs and fields, and a term whose tokens
        repeat, give the brute-force tf; each distinct term is tokenized once,
        through the module's ``tokenize``."""
        summaries = [
            make_summary("http://h.test/a.owl", classes={"hasPart", "fooFoo"}, relations={"hasPart"}),
            make_summary("http://h.test/b.owl", properties={"hasPart", "foo"}, relations={"fooFoo"}),
            make_summary("http://h.test/c.owl", classes={"fooFoo", "Part"}, relations={"hasPart"}),
        ]
        calls: list[str] = []

        def counting_tokenize(term):
            calls.append(term)
            return tokenize(term)

        monkeypatch.setattr(indexer, "tokenize", counting_tokenize)
        _docs, postings = index_summaries(summaries)
        assert sorted(calls) == ["Part", "foo", "fooFoo", "hasPart"]
        expected = {}
        for doc_id, summary in enumerate(summaries):
            fields = {"class": summary.classes, "property": summary.properties,
                      "relation": summary.relations}
            for field, terms in fields.items():
                for term in terms:
                    for token in tokenize(term):
                        key = (token, field, doc_id)
                        expected[key] = sum(1 for t in terms if token in tokenize(t))
        assert {(token, field, doc_id): tf for token, field, doc_id, tf in postings} == expected
        assert ("foo", "class", 0, 1) in postings  # "fooFoo" counts once for "foo"
        assert ("foo", "property", 1, 1) in postings


class TestWriteReadRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        summaries = [
            make_summary("http://h.test/a.owl", classes={"Person"}, relations={"knows"}),
            make_summary("http://h.test/b.owl", properties={"hasPart"}),
        ]
        docs, postings, manifest = build_parts(summaries)
        write_index(tmp_path / "idx", docs, postings, manifest)
        loaded = read_index(tmp_path / "idx")
        assert loaded.docs == docs
        assert posting_rows(loaded) == postings
        assert loaded.manifest == manifest

    def test_zero_docs_files_exist_empty(self, tmp_path):
        write_index(tmp_path / "idx", *build_parts([]))
        assert (tmp_path / "idx" / "docs.tsv").read_bytes() == b""
        assert (tmp_path / "idx" / "postings.tsv").read_bytes() == b""
        assert read_index(tmp_path / "idx").manifest.doc_count == 0

    def test_single_class_posting_file_line(self, tmp_path):
        summaries = [make_summary("http://h.test/a.owl", classes={"Person"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        assert (tmp_path / "idx" / "postings.tsv").read_bytes() == b"person\tclass\t0\t1\n"
        docs_line = (tmp_path / "idx" / "docs.tsv").read_text()
        assert docs_line == "0\thttp://h.test/a.owl\t10\t1\t0\t0\n"

    def test_exactly_three_files(self, tmp_path):
        summaries = [make_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        _assert_only_index_files(tmp_path / "idx")

    def test_failed_rewrite_keeps_previous_index(self, tmp_path, monkeypatch):
        first = build_parts([make_summary("http://h.test/a.owl", classes={"Person"})])
        write_index(tmp_path / "idx", *first)

        class _DiskFullAfterOneWrite:
            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                if self.writes:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.writes += 1
                return self.fh.write(text)

        def open_failing_in_postings(path, *args, **kwargs):
            fh = builtins.open(path, *args, **kwargs)
            return _DiskFullAfterOneWrite(fh) if "postings" in str(path) else fh

        monkeypatch.setattr(indexer, "open", open_failing_in_postings, raising=False)
        second = build_parts(
            [make_summary("http://h.test/b.owl", classes={"Vessel", "Cargo"}, relations={"carries"})]
        )
        with pytest.raises(IndexDirUnwritable):
            write_index(tmp_path / "idx", *second)
        monkeypatch.undo()
        loaded = read_index(tmp_path / "idx")
        assert (loaded.docs, posting_rows(loaded), loaded.manifest) == first
        _assert_only_index_files(tmp_path / "idx")

    def test_files_fsynced_before_replace_and_folder_after(self, tmp_path, monkeypatch):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/o.owl", {"Old"})]))
        calls = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

        def fsync(fd):
            info = os.fstat(fd)
            kind = "folder" if stat.S_ISDIR(info.st_mode) else "file"
            calls.append(("fsync", kind, info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(dst), os.stat(src).st_ino))
            real_replace(src, dst)

        def unlink(path, *args, **kwargs):
            calls.append(("unlink", os.path.basename(path), os.stat(path).st_ino))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)
        summaries = [make_summary("http://h.test/a.owl", classes={"Person"}, relations={"knows"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        monkeypatch.undo()

        # The old manifest goes first and the new one comes last, so no reader
        # pairs a manifest with data files from another build.
        assert [call[:2] for call in calls] == [
            ("fsync", "file"),
            ("fsync", "file"),
            ("fsync", "file"),
            ("unlink", "manifest.json"),
            ("fsync", "folder"),
            ("replace", "docs.tsv"),
            ("replace", "postings.tsv"),
            ("fsync", "folder"),
            ("replace", "manifest.json"),
            ("fsync", "folder"),
        ]
        # The three files fsynced are the three renamed into place.
        assert [call[2] for call in calls[:3]] == [calls[i][2] for i in (5, 6, 8)]
        folder = os.stat(tmp_path / "idx").st_ino
        assert [calls[i][2] for i in (4, 7, 9)] == [folder] * 3

    @pytest.mark.parametrize("fault", [OSError, KeyboardInterrupt], ids=["error", "crash"])
    def test_rebuild_stopped_at_any_step_leaves_the_old_or_the_new_index(
        self, tmp_path, monkeypatch, fault
    ):
        # KeyboardInterrupt stands for the process dying: write_index's OSError
        # clean-up does not run, so the temporaries stay where they are.
        old = build_parts([make_summary("http://h.test/a.owl", classes={"Person"})])
        new = build_parts([make_summary("http://h.test/b.owl", classes={"Vessel"})])
        steps = []  # one entry per write, fsync, unlink or replace done
        stop_after = [0]  # the step after which the fault strikes; 0 for none

        def after(real):
            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                steps.append(real)
                if len(steps) == stop_after[0]:
                    raise fault(errno.EIO, "injected fault") if fault is OSError else fault()
                return result
            return call

        class _StepFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, text):
                return after(self.fh.write)(text)

        def open_stepping(path, *args, **kwargs):
            return _StepFile(builtins.open(path, *args, **kwargs))

        for name in ("fsync", "replace", "unlink"):
            monkeypatch.setattr(os, name, after(getattr(os, name)))
        monkeypatch.setattr(indexer, "open", open_stepping, raising=False)
        write_index(tmp_path / "count", *old)
        steps.clear()
        write_index(tmp_path / "count", *new)
        step_count = len(steps)

        outcomes = set()
        for stop in range(1, step_count + 1):
            idx = tmp_path / f"idx{stop}"
            write_index(idx, *old)
            steps.clear()
            stop_after[0] = stop
            with pytest.raises((fault, IndexDirUnwritable)):
                write_index(idx, *new)
            stop_after[0] = 0
            try:
                loaded = read_index(idx)
            except OntoSeekerError:
                outcomes.add("none")
                continue
            parts = (loaded.docs, posting_rows(loaded), loaded.manifest)
            assert parts in (old, new), f"a mixed index loads after step {stop} of {step_count}"
            outcomes.add("old" if parts == old else "new")
        assert outcomes == {"old", "none", "new"}

    def test_failed_fsync_keeps_previous_index_and_removes_temps(self, tmp_path, monkeypatch):
        first = build_parts([make_summary("http://h.test/a.owl", classes={"Person"})])
        write_index(tmp_path / "idx", *first)
        synced = []
        real_fsync = os.fsync

        def fsync_failing_on_second_file(fd):
            synced.append(fd)
            if len(synced) == 2:
                raise OSError(errno.EIO, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_failing_on_second_file)
        second = build_parts([make_summary("http://h.test/b.owl", classes={"Vessel"})])
        with pytest.raises(IndexDirUnwritable):
            write_index(tmp_path / "idx", *second)
        monkeypatch.undo()
        loaded = read_index(tmp_path / "idx")
        assert (loaded.docs, posting_rows(loaded), loaded.manifest) == first
        _assert_only_index_files(tmp_path / "idx")

    def test_shuffled_postings_corrupt(self, tmp_path):
        summaries = [
            make_summary("http://h.test/a.owl", classes={"Beta", "Alpha"}, relations={"gamma"})
        ]
        write_index(tmp_path / "idx", *build_parts(summaries))
        postings_path = tmp_path / "idx" / "postings.tsv"
        lines = postings_path.read_text().splitlines()
        postings_path.write_text("\n".join(reversed(lines)) + "\n")
        with pytest.raises(CorruptIndex):
            read_index(tmp_path / "idx")

    @pytest.mark.parametrize("version", [True, 2.0, "2", 1, 99])
    def test_version_must_be_the_int_format_version(self, tmp_path, version):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/a.owl", {"A"})]))
        edit_manifest(tmp_path / "idx", lambda m: m.update(format_version=version))
        with pytest.raises(VersionMismatch):
            read_index(tmp_path / "idx")

    def test_non_object_manifest_rejected(self, tmp_path):
        summaries = [make_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        (tmp_path / "idx" / "manifest.json").write_text("[1, 2]")
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        assert "not a JSON object" in str(err.value)

    def test_skip_counts_not_an_object_rejected(self, tmp_path):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/a.owl", {"A"})]))
        edit_manifest(
            tmp_path / "idx", lambda m: m.update(skip_counts=list(m["skip_counts"].values()))
        )
        with pytest.raises(CorruptIndex, match="manifest.json missing or malformed field"):
            read_index(tmp_path / "idx")

    def test_missing_file(self, tmp_path):
        summaries = [make_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        (tmp_path / "idx" / "postings.tsv").unlink()
        with pytest.raises(MissingFile):
            read_index(tmp_path / "idx")

    def test_accounting_mismatch_corrupt(self, tmp_path):
        summaries = [make_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        edit_manifest(tmp_path / "idx", lambda m: m.update(input_line_count=40))
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        assert "accounting" in str(err.value)

    def test_dangling_doc_id_corrupt(self, tmp_path):
        summaries = [make_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        postings_path = tmp_path / "idx" / "postings.tsv"
        postings_path.write_text("a\tclass\t7\t1\n")
        with pytest.raises(CorruptIndex):
            read_index(tmp_path / "idx")

    def test_skip_report_fixed_order(self):
        index = make_index([])
        report_lines = render_skip_report(index.manifest).splitlines()
        assert [line.split("\t")[0] for line in report_lines] == list(SKIP_REASONS)


def _edit_line_2(lines: list[str], column: int, value: str | None) -> list[str]:
    """``lines`` with one column of line 2 replaced, or dropped when value is None."""
    row = lines[1].split("\t")
    if value is None:
        del row[column]
    else:
        row[column] = value
    return [lines[0], "\t".join(row), *lines[2:]]


def _line_2(lines: list[str], row: str) -> list[str]:
    """``lines`` with line 2 replaced by ``row``."""
    return [lines[0], row, *lines[2:]]


# A four-doc index whose postings.tsv has a key of two tf rows, rows of
# several doc ids, and keys of one posting. Its first two lines are
# "agent<TAB>property<TAB>2,3<TAB>1" and "agent<TAB>property<TAB>0,1<TAB>2";
# line 2 of its docs.tsv is "1<TAB>http://h.test/b.owl<TAB>10<TAB>0<TAB>2<TAB>0".
_ROW_CHECK_SUMMARIES = [
    make_summary("http://h.test/a.owl", properties={"hasAgent", "agentOf"}),
    make_summary("http://h.test/b.owl", properties={"hasAgent", "agentOf"}),
    make_summary("http://h.test/c.owl", classes={"Person"}, properties={"hasAgent"}),
    make_summary("http://h.test/d.owl", properties={"agentOf"}, relations={"knows"}),
]


# Each case corrupts line 2 of one file of the index above; the reader must
# name the file, that line and the invariant the row breaks.
_ROW_CORRUPTIONS = [
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, None), "expected 4 columns",
        id="postings-3-columns",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 1, "label"), "is not a known field",
        id="postings-unknown-field",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "x"),
        "doc_ids 'x' is not a non-empty comma list of ASCII digits",
        id="postings-non-integer-doc-id",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, ""),
        "doc_ids '' is not a non-empty comma list of ASCII digits",
        id="postings-empty-doc-id-list",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "0,,1"),
        "is not a non-empty comma list of ASCII digits",
        id="postings-empty-doc-id-in-list",
    ),
    # Spellings int() takes as 0,1 or 2: a leading space, an underscore, a
    # full-width digit.
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, " 0,1"),
        "doc_ids ' 0,1' is not a non-empty comma list of ASCII digits",
        id="postings-doc-id-with-space",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "0,0_1"),
        "doc_ids '0,0_1' is not a non-empty comma list of ASCII digits",
        id="postings-doc-id-with-underscore",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, "\uff12"),
        "tf '\uff12' is not ASCII digits",
        id="postings-full-width-tf",
    ),
    # A leading zero, which int() takes and json.loads refuses; each spells
    # the row's own number, so only the number rule can catch it.
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "0,01"),
        "doc_ids '0,01' is not a non-empty comma list of ASCII digits without a leading zero",
        id="postings-doc-id-with-leading-zero",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, "02"),
        "tf '02' is not ASCII digits without a leading zero",
        id="postings-tf-with-leading-zero",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "0," + "1" * 5000),
        "integer string conversion", id="postings-doc-id-past-the-int-digit-limit",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, "0"), "tf must be >= 1",
        id="postings-tf-zero",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "0,7"), "doc_id 7 not in docs.tsv",
        id="postings-doc-id-out-of-range",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "1,0"), "doc ids not strictly ascending",
        id="postings-doc-ids-down-within-row",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "1,1"), "doc ids not strictly ascending",
        id="postings-doc-id-repeated-within-row",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "0,2"),
        "a doc id is in two tf rows of one key",
        id="postings-doc-id-in-two-tf-rows",
    ),
    pytest.param(
        "postings.tsv", lambda ls: [ls[0], ls[0], *ls[2:]], "not strictly sorted",
        id="postings-duplicate-row",
    ),
    pytest.param(
        "postings.tsv", lambda ls: [ls[1], ls[0], *ls[2:]], "not strictly sorted",
        id="postings-tf-rows-down-within-key",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, "1"), "not strictly sorted",
        id="postings-tf-repeated-within-key",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _line_2(ls, "agent\tclass\t0,1\t2"), "not strictly sorted",
        id="postings-field-rank-back-within-token",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _line_2(ls, "a\trelation\t0\t1"), "not strictly sorted",
        id="postings-token-back-at-key-change",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 5, None), "expected 6 columns",
        id="docs-5-columns",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 2, "big"), "byte_size 'big' is not ASCII digits",
        id="docs-non-integer-byte-size",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 0, " 1"), "doc_id ' 1' is not ASCII digits",
        id="docs-doc-id-with-space",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 2, "1_0"), "byte_size '1_0' is not ASCII digits",
        id="docs-byte-size-with-underscore",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 4, "\uff12"),
        "property_count '\uff12' is not ASCII digits",
        id="docs-full-width-count",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 4, "02"),
        "property_count '02' is not ASCII digits without a leading zero",
        id="docs-count-with-leading-zero",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 2, "9" * 5000), "integer string conversion",
        id="docs-byte-size-past-the-int-digit-limit",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 0, "5"), "dense and ascending from 0",
        id="docs-non-dense-id",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 3, "-1"), "class_count '-1' is not ASCII digits",
        id="docs-negative-count",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 4, "0"), "document with no terms",
        id="docs-all-zero-counts",
    ),
]


class TestReadIndexRowChecks:
    @pytest.mark.parametrize("file_name, corrupt, invariant", _ROW_CORRUPTIONS)
    def test_corrupt_row_names_file_line_and_invariant(
        self, tmp_path, file_name, corrupt, invariant
    ):
        write_index(tmp_path / "idx", *build_parts(_ROW_CHECK_SUMMARIES))
        path = tmp_path / "idx" / file_name
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2
        path.write_text("".join(line + "\n" for line in corrupt(lines)), encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        message = str(err.value)
        assert f"{file_name} line 2:" in message
        assert invariant in message

    def test_rows_group_each_keys_doc_ids_by_tf(self, tmp_path):
        write_index(tmp_path / "idx", *build_parts(_ROW_CHECK_SUMMARIES))
        assert (tmp_path / "idx" / "postings.tsv").read_text(encoding="utf-8") == (
            "agent\tproperty\t2,3\t1\n"
            "agent\tproperty\t0,1\t2\n"
            "has\tproperty\t0,1,2\t1\n"
            "knows\trelation\t3\t1\n"
            "of\tproperty\t0,1,3\t1\n"
            "person\tclass\t2\t1\n"
        )
        loaded = read_index(tmp_path / "idx")
        assert loaded.posting_lists["agent", "property"] == PostingList([(1, [2, 3]), (2, [0, 1])])
        assert loaded.manifest.posting_count == 12

    def test_a_list_yields_each_posting_once_by_tf_row(self, tmp_path):
        # The tracer counts postings and scored docs through len() and iteration.
        write_index(tmp_path / "idx", *build_parts(_ROW_CHECK_SUMMARIES))
        posting_list = read_index(tmp_path / "idx").posting_lists["agent", "property"]
        assert list(posting_list) == [(2, 1), (3, 1), (0, 2), (1, 2)]
        assert [(p.doc_id, p.tf) for p in posting_list] == list(posting_list)
        assert len(posting_list) == 4

    def test_tf_of_finds_the_docs_row_or_gives_0(self):
        # Ids in the first, middle and last tf row (first, middle and last of
        # each); ids below, between and above them; then a key of one row.
        three_rows = PostingList([(1, [3, 6, 10]), (2, [4, 8]), (5, [5, 12])])
        tfs = [three_rows.tf_of(doc_id) for doc_id in range(14)]
        assert tfs == [0, 0, 0, 1, 2, 5, 1, 0, 2, 0, 1, 0, 5, 0]
        assert tfs == [dict(three_rows).get(doc_id, 0) for doc_id in range(14)]
        assert three_rows.tf_of(100) == 0
        one_row = PostingList([(3, [1, 4])])
        assert [one_row.tf_of(doc_id) for doc_id in range(6)] == [0, 3, 0, 0, 3, 0]

    def test_row_bitmaps_are_built_on_first_use_and_kept(self, tmp_path):
        write_index(tmp_path / "idx", *build_parts(_ROW_CHECK_SUMMARIES))
        posting_list = read_index(tmp_path / "idx").posting_lists["agent", "property"]
        assert posting_list.bitmaps is None
        bitmaps = posting_list.row_bitmaps()
        assert bitmaps == [0b1100, 0b0011]
        assert posting_list.row_bitmaps() is bitmaps
        # Derived, so two lists of the same rows are equal however far each got.
        assert posting_list == PostingList([(1, [2, 3]), (2, [0, 1])])

    @given(st.lists(st.sets(st.integers(0, 300), min_size=1), min_size=1, max_size=4))
    def test_each_row_bitmap_sets_bit_d_for_each_doc_d_of_the_row(self, id_sets):
        rows = [(tf, sorted(ids)) for tf, ids in enumerate(id_sets, 1)]
        assert PostingList(rows).row_bitmaps() == [sum(1 << d for d in ids) for _tf, ids in rows]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_posting_count_must_count_the_doc_ids(self, tmp_path, delta):
        write_index(tmp_path / "idx", *build_parts(_ROW_CHECK_SUMMARIES))
        edit_manifest(
            tmp_path / "idx", lambda m: m.update(posting_count=m["posting_count"] + delta)
        )
        with pytest.raises(CorruptIndex, match="posting_count does not match the doc ids"):
            read_index(tmp_path / "idx")


@st.composite
def _posting_tables(draw):
    """A doc count and a flat posting table over it, sorted as index_summaries
    gives it: keys of one to three tf values, every doc with a posting."""
    doc_count = draw(st.integers(1, 8))
    keys = draw(st.lists(st.tuples(st.sampled_from(["a", "ab", "b", "\u00e9"]),
                                   st.sampled_from(FIELDS)),
                         min_size=1, max_size=6, unique=True))
    table = {
        key: draw(st.dictionaries(st.integers(0, doc_count - 1), st.integers(1, 3),
                                  min_size=1))
        for key in keys
    }
    for doc_id in range(doc_count):
        if not any(doc_id in tfs for tfs in table.values()):
            table[keys[0]][doc_id] = draw(st.integers(1, 3))
    postings = [
        (token, field_name, doc_id, table[token, field_name][doc_id])
        for token, field_name in sorted(table, key=lambda k: (k[0], FIELD_RANK[k[1]]))
        for doc_id in sorted(table[token, field_name])
    ]
    return doc_count, postings


class TestPostingsRoundTrip:
    @given(_posting_tables())
    def test_read_gives_back_the_lists_and_key_order_written(self, tmp_path_factory, drawn):
        doc_count, postings = drawn
        docs = [DocRecord(i, f"http://h.test/o{i}.owl", 10, 1, 0, 0) for i in range(doc_count)]
        manifest = dataclasses.replace(
            build_parts([])[2], doc_count=doc_count, posting_count=len(postings),
            input_line_count=doc_count,
        )
        idx_dir = tmp_path_factory.mktemp("table") / "idx"
        write_index(idx_dir, docs, postings, manifest)
        rows = (idx_dir / "postings.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == len({(token, field, tf) for token, field, _doc, tf in postings})
        loaded = read_index(idx_dir)
        assert list(loaded.posting_lists.items()) == list(group_postings(postings).items())
        assert posting_rows(loaded) == postings
        assert (loaded.docs, loaded.manifest) == (docs, manifest)


# Each case makes one manifest count something other than an integer >= 0.
# The index holds 1 doc and 1 posting, so the bool and float counts still
# equal the files' counts.
_BAD_MANIFEST_COUNTS = [
    pytest.param(
        lambda m: m["skip_counts"].update(fetch_error="0"), "skip_counts.fetch_error",
        id="skip-count-string",
    ),
    pytest.param(
        lambda m: m["skip_counts"].update(duplicate=-1, blank_or_null=1), "skip_counts.duplicate",
        id="skip-count-negative-identity-kept",
    ),
    pytest.param(lambda m: m.update(doc_count=True), "doc_count", id="doc-count-bool"),
    pytest.param(lambda m: m.update(posting_count=1.0), "posting_count", id="posting-count-float"),
    pytest.param(
        lambda m: m.update(input_line_count=None), "input_line_count", id="input-line-count-null"
    ),
]


# Each case records a scoring weight other than the FIELD_WEIGHTS that search,
# explain and the scan oracle score with.
_BAD_MANIFEST_WEIGHTS = [
    pytest.param(lambda w: w.update({"class": "nan"}), id="nan-string"),
    pytest.param(lambda w: w.update({"class": float("nan")}), id="nan"),
    pytest.param(lambda w: w.update({"class": "3"}), id="number-string"),
    pytest.param(lambda w: w.update({"class": 2.0}), id="class-two"),
    pytest.param(lambda w: w.update(relation=True), id="relation-bool"),
    pytest.param(lambda w: w.pop("property"), id="missing-field"),
]


class TestReadIndexRaisesOnlyCorruptIndex:
    @pytest.mark.parametrize("file_name", ["manifest.json", "docs.tsv", "postings.tsv"])
    def test_non_utf8_file_is_corrupt(self, tmp_path, file_name):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/a.owl", {"A"})]))
        path = tmp_path / "idx" / file_name
        path.write_bytes(path.read_bytes() + b"\xff")
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        assert f"{file_name} unreadable" in str(err.value)

    @pytest.mark.parametrize("edit, field_name", _BAD_MANIFEST_COUNTS)
    def test_count_that_is_not_a_non_negative_int_is_corrupt(self, tmp_path, edit, field_name):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/a.owl", {"A"})]))
        edit_manifest(tmp_path / "idx", edit)
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        assert f"manifest.json {field_name} must be an integer >= 0" in str(err.value)

    @pytest.mark.parametrize("edit", _BAD_MANIFEST_WEIGHTS)
    def test_weight_other_than_the_scoring_weight_is_corrupt(self, tmp_path, edit):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/a.owl", {"A"})]))
        edit_manifest(tmp_path / "idx", lambda m: edit(m["field_weights"]))
        with pytest.raises(CorruptIndex, match="manifest.json field_weights must be"):
            read_index(tmp_path / "idx")

    def test_integer_weights_equal_to_the_scoring_weights_load(self, tmp_path):
        write_index(tmp_path / "idx", *build_parts([make_summary("http://h.test/a.owl", {"A"})]))
        weights = {"class": 3, "property": 2, "relation": 1}
        edit_manifest(tmp_path / "idx", lambda m: m.update(field_weights=weights))
        assert read_index(tmp_path / "idx").manifest.field_weights == FIELD_WEIGHTS


_CONTRACT_SUMMARIES = [
    make_summary("http://h.test/a.owl", classes={"Person"}, relations={"knows"}),
    make_summary("http://h.test/b.owl", properties={"hasPart"}),
]


class TestReadIndexContract:
    @given(st.sampled_from(["manifest.json", "docs.tsv", "postings.tsv"]), st.data())
    def test_mutated_file_loads_or_raises_an_onto_seeker_error(
        self, tmp_path_factory, file_name, data
    ):
        idx_dir = tmp_path_factory.mktemp("mutant") / "idx"
        write_index(idx_dir, *build_parts(_CONTRACT_SUMMARIES))
        path = idx_dir / file_name
        path.write_bytes(data.draw(mutants(path.read_bytes())))
        try:
            index = read_index(idx_dir)
        except OntoSeekerError:
            return
        assert isinstance(index, Index)


class TestManyKeys:
    def test_thousands_of_keys_round_trip_and_search_equal_the_oracle(self, tmp_path):
        # The synthetic site's vocabulary yields under 200 (token, field) keys;
        # this index has thousands, so per-key work in the reader is exercised.
        rng = random.Random(7)
        vocab = sorted(
            {"".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 8))) for _ in range(3000)}
        )

        def terms(count):  # camelCase pairs, so tokens repeat and some tf > 1
            return {a + b.capitalize() for a, b in (rng.sample(vocab, 2) for _ in range(count))}

        summaries = [
            make_summary(f"http://h.test/o{i}.owl", terms(20), terms(10), terms(5))
            for i in range(150)
        ]
        docs, postings, manifest = build_parts(summaries)
        write_index(tmp_path / "idx", docs, postings, manifest)
        loaded = read_index(tmp_path / "idx")
        expected = group_postings(postings)
        assert len(expected) > 2000
        assert any(len(posting_list.rows) > 1 for posting_list in expected.values())
        assert list(loaded.posting_lists.items()) == list(expected.items())

        for _ in range(40):
            query = parse_query(" ".join(rng.sample(vocab, rng.randint(1, 3))))
            for match_all in (False, True):
                assert search(loaded, query, top_k=10, match_all=match_all) == scan_oracle(
                    summaries, query, top_k=10, match_all=match_all
                )


class TestRecordContracts:
    def test_records_frozen_and_slotted(self):
        doc = DocRecord(
            doc_id=0,
            url="http://h.test/a.owl",
            byte_size=10,
            class_count=1,
            property_count=0,
            relation_count=0,
        )
        with pytest.raises(AttributeError):
            doc.byte_size = 2
        assert not hasattr(doc, "__dict__")


# Terms mixing separators, whitespace that str.split or str.splitlines
# reads as a break (TAB, LF, CR, VT, FF, FS, NEL, LINE SEPARATOR), and
# non-BMP characters, with any other character now and then. No surrogates:
# neither parser yields one (the index files are UTF-8).
_UNICODE_TERMS = st.text(
    alphabet=st.sampled_from("aZ9_-. \t\n\r\x0b\x0c\x1c\x85\u2028\u00e9\U0001F600\U00010400")
    | st.characters(codec="utf-8"),
    min_size=1,
    max_size=12,
)


class TestUnicodeTermsContract:
    @given(st.lists(st.tuples(*[st.frozensets(_UNICODE_TERMS, max_size=4)] * 3), max_size=6),
           st.data())
    def test_round_trip_and_search_equal_the_oracle(self, tmp_path_factory, fields, data):
        summaries = [
            make_summary(f"http://h.test/o{i}.owl", *terms)
            for i, terms in enumerate(fields)
        ]
        # build_index skips these as empty_ontology before they reach the index
        summaries = [summary for summary in summaries if not summary.is_empty()]
        docs, postings, manifest = build_parts(summaries)
        idx_dir = tmp_path_factory.mktemp("unicode") / "idx"
        write_index(idx_dir, docs, postings, manifest)
        loaded = read_index(idx_dir)
        assert loaded.docs == docs
        assert posting_rows(loaded) == postings

        known = sorted({term for terms in fields for field in terms for term in field})
        words = data.draw(st.lists(st.sampled_from(known) if known else _UNICODE_TERMS,
                                   min_size=1, max_size=3))
        try:
            query = parse_query(" ".join(words))
        except EmptyQuery:
            return
        for match_all in (False, True):
            assert search(loaded, query, top_k=5, match_all=match_all) == scan_oracle(
                summaries, query, top_k=5, match_all=match_all
            )


@st.composite
def _line_plans(draw):
    """Random URL lists with known per-line fates, spread over one to four hosts."""
    host_count = draw(st.integers(min_value=1, max_value=4))
    fates = st.sampled_from([
        "good", "blank", "null", "missing", "error404", "empty", "repeat", "oversize",
        "plain_text", "bad_turtle", "ftp", "bad_ipv6", "repeat_unparseable",
    ])
    return draw(st.lists(st.tuples(fates, st.integers(0, host_count - 1)), max_size=24))


class TestManifestIdentityFuzz:
    @given(_line_plans())
    def test_identity_holds_for_any_corpus(self, tmp_path_factory, plans):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        corpus = Corpus()
        lines = []
        good_urls = []
        unparseable_lines = []
        skips = dict.fromkeys(SKIP_REASONS, 0)
        turtle = b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<#C> a owl:Class ."
        max_bytes = 200
        for i, (plan, host) in enumerate(plans):
            url = f"http://h{host}.test/{plan}{i}.owl"
            if plan == "good":
                corpus.add(url, CorpusEntry(200, "text/turtle", turtle))
                lines.append(url)
                good_urls.append(url)
            elif plan == "blank":
                lines.append("   ")
                skips["blank_or_null"] += 1
            elif plan == "null":
                lines.append("null")
                skips["blank_or_null"] += 1
            elif plan == "missing":
                lines.append(url)
                skips["fetch_error"] += 1
            elif plan == "error404":
                corpus.add(url, CorpusEntry(404, None, b""))
                lines.append(url)
                skips["fetch_error"] += 1
            elif plan == "empty":
                corpus.add(url, CorpusEntry(200, "application/rdf+xml",
                                            b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'))
                lines.append(url)
                skips["empty_ontology"] += 1
            elif plan == "repeat" and good_urls:
                lines.append(good_urls[-1])
                skips["duplicate"] += 1
            elif plan == "oversize":
                corpus.add(url, CorpusEntry(200, "text/turtle", turtle.ljust(max_bytes + 1)))
                lines.append(url)
                skips["oversize"] += 1
            elif plan == "plain_text":
                corpus.add(url, CorpusEntry(200, "text/plain", b"not an ontology"))
                lines.append(url)
                skips["unsupported_syntax"] += 1
            elif plan == "bad_turtle":
                corpus.add(url, CorpusEntry(200, "text/turtle", b"<#C> a owl:Class ."))
                lines.append(url)
                skips["parse_error"] += 1
            elif plan in ("ftp", "bad_ipv6"):
                line = f"ftp://h{host}.test/{i}.owl" if plan == "ftp" else f"http://[x{i}"
                lines.append(line)
                unparseable_lines.append(line)
                skips["fetch_error"] += 1
            elif plan == "repeat_unparseable" and unparseable_lines:
                lines.append(unparseable_lines[-1])
                skips["duplicate"] += 1
            else:
                lines.append("null")
                skips["blank_or_null"] += 1
        path = tmp_path / "urls.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        limits = IndexLimits(max_ontology_bytes=max_bytes, politeness_ms=0)
        manifest = build_index(path, CorpusTransport(corpus), limits, tmp_path / "idx")
        assert manifest.input_line_count == len(lines)
        assert manifest.doc_count + sum(manifest.skip_counts.values()) == len(lines)
        assert manifest.skip_counts == skips
        index = read_index(tmp_path / "idx")
        assert [doc.url for doc in index.docs] == good_urls
        assert {doc_id for _, _, doc_id, _ in posting_rows(index)} == {d.doc_id for d in index.docs}
