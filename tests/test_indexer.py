from __future__ import annotations

import builtins
import dataclasses
import errno
import json
import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    EXPECTED_SIXTEEN_SKIPS,
    GOOD_FIXTURE_SUMMARIES,
    build_parts,
    group_postings,
    make_index,
    nested_rdf_xml,
    posting_rows,
    sixteen_line_fixture,
)
from onto_seeker import indexer
from onto_seeker.harness import Corpus, CorpusEntry, CorpusTransport, scan_oracle
from onto_seeker.indexer import (
    CorruptIndex,
    DocRecord,
    FIELD_RANK,
    IndexDirUnwritable,
    IndexLimits,
    InputUnreadable,
    MissingFile,
    Posting,
    SKIP_REASONS,
    VersionMismatch,
    build_index,
    index_summaries,
    read_index,
    render_skip_report,
    write_index,
)
from onto_seeker.query import EmptyQuery, parse_query, search
from onto_seeker.rdf import OWL_NS, RDF_NS, OntologySummary, tokenize


def _write_lines(tmp_path, lines):
    path = tmp_path / "urls.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _summary(url: str, classes=(), properties=(), relations=(), byte_size=10) -> OntologySummary:
    return OntologySummary(
        url=url,
        classes=frozenset(classes),
        properties=frozenset(properties),
        relations=frozenset(relations),
        triple_count=len(classes) + len(properties) + len(relations),
        byte_size=byte_size,
    )


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
        path = _write_lines(tmp_path, ["not a url at all", "ftp://old.example/x.owl"])
        manifest = build_index(
            path, CorpusTransport(Corpus()), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.skip_counts["fetch_error"] == 2

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
        assert [(p.token, p.doc_id) for p in posting_rows(index)] == [("break", 0), ("line", 0)]

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


class TestIndexSummaries:
    def test_single_class_single_posting(self):
        docs, postings = index_summaries([_summary("http://h.test/a.owl", classes={"Person"})])
        assert postings == [Posting("person", "class", 0, 1)]
        assert docs[0].class_count == 1

    def test_tf_counts_terms_not_token_repeats(self):
        summary = _summary(
            "http://h.test/a.owl", classes={"PartOfPart", "SparePart", "Wheel"}
        )
        _docs, postings = index_summaries([summary])
        part = [p for p in postings if p.token == "part"]
        assert part == [Posting("part", "class", 0, 2)]  # per-term containment, not occurrences

    def test_posting_sort_order(self):
        summaries = [
            _summary("http://h.test/a.owl", classes={"Part"}, relations={"part"}),
            _summary("http://h.test/b.owl", properties={"hasPart"}),
        ]
        _docs, postings = index_summaries(summaries)
        keys = [(p.token, FIELD_RANK[p.field], p.doc_id) for p in postings]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_tf_matches_brute_force(self):
        summaries = [
            _summary(
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
        for posting in postings:
            expected = sum(
                1 for term in field_terms[posting.field] if posting.token in tokenize(term)
            )
            assert posting.tf == expected


class TestWriteReadRoundTrip:
    def test_round_trip_equality(self, tmp_path):
        summaries = [
            _summary("http://h.test/a.owl", classes={"Person"}, relations={"knows"}),
            _summary("http://h.test/b.owl", properties={"hasPart"}),
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
        summaries = [_summary("http://h.test/a.owl", classes={"Person"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        assert (tmp_path / "idx" / "postings.tsv").read_bytes() == b"person\tclass\t0\t1\n"
        docs_line = (tmp_path / "idx" / "docs.tsv").read_text()
        assert docs_line == "0\thttp://h.test/a.owl\t10\t1\t0\t0\n"

    def test_exactly_three_files(self, tmp_path):
        summaries = [_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == [
            "docs.tsv",
            "manifest.json",
            "postings.tsv",
        ]

    def test_failed_rewrite_keeps_previous_index(self, tmp_path, monkeypatch):
        first = build_parts([_summary("http://h.test/a.owl", classes={"Person"})])
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
            [_summary("http://h.test/b.owl", classes={"Vessel", "Cargo"}, relations={"carries"})]
        )
        with pytest.raises(IndexDirUnwritable):
            write_index(tmp_path / "idx", *second)
        monkeypatch.undo()
        loaded = read_index(tmp_path / "idx")
        assert (loaded.docs, posting_rows(loaded), loaded.manifest) == first
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == [
            "docs.tsv",
            "manifest.json",
            "postings.tsv",
        ]

    def test_shuffled_postings_corrupt(self, tmp_path):
        summaries = [
            _summary("http://h.test/a.owl", classes={"Beta", "Alpha"}, relations={"gamma"})
        ]
        write_index(tmp_path / "idx", *build_parts(summaries))
        postings_path = tmp_path / "idx" / "postings.tsv"
        lines = postings_path.read_text().splitlines()
        postings_path.write_text("\n".join(reversed(lines)) + "\n")
        with pytest.raises(CorruptIndex):
            read_index(tmp_path / "idx")

    def test_version_bump_rejected(self, tmp_path):
        summaries = [_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        manifest_path = tmp_path / "idx" / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["format_version"] = 99
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(VersionMismatch):
            read_index(tmp_path / "idx")

    def test_non_object_manifest_rejected(self, tmp_path):
        summaries = [_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        (tmp_path / "idx" / "manifest.json").write_text("[1, 2]")
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        assert "not a JSON object" in str(err.value)

    def test_missing_file(self, tmp_path):
        summaries = [_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        (tmp_path / "idx" / "postings.tsv").unlink()
        with pytest.raises(MissingFile):
            read_index(tmp_path / "idx")

    def test_accounting_mismatch_corrupt(self, tmp_path):
        summaries = [_summary("http://h.test/a.owl", classes={"A"})]
        write_index(tmp_path / "idx", *build_parts(summaries))
        manifest_path = tmp_path / "idx" / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["input_line_count"] = 40
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        assert "accounting" in str(err.value)

    def test_dangling_doc_id_corrupt(self, tmp_path):
        summaries = [_summary("http://h.test/a.owl", classes={"A"})]
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


# Each case corrupts line 2 of one file of a valid two-doc index; the reader
# must name the file, that line and the invariant the row breaks. Line 1 of
# its postings.tsv is "has<TAB>property<TAB>1<TAB>1".
_ROW_CORRUPTIONS = [
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, None), "expected 4 columns",
        id="postings-3-columns",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 1, "label"), "unknown field",
        id="postings-unknown-field",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "x"), "invalid literal for int()",
        id="postings-non-integer-doc-id",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 3, "0"), "tf must be >= 1",
        id="postings-tf-zero",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _edit_line_2(ls, 2, "7"), "doc_id 7 not in docs.tsv",
        id="postings-doc-id-out-of-range",
    ),
    pytest.param(
        "postings.tsv", lambda ls: [ls[0], ls[0], *ls[2:]], "not strictly sorted",
        id="postings-duplicate-row",
    ),
    pytest.param(
        "postings.tsv", lambda ls: [ls[1], ls[0], *ls[2:]], "not strictly sorted",
        id="postings-reversed-rows",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _line_2(ls, "has\tproperty\t1\t2"), "not strictly sorted",
        id="postings-doc-id-repeated-within-key",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _line_2(ls, "has\tproperty\t0\t1"), "not strictly sorted",
        id="postings-doc-id-down-within-key",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _line_2(ls, "has\tclass\t1\t1"), "not strictly sorted",
        id="postings-field-rank-back-within-token",
    ),
    pytest.param(
        "postings.tsv", lambda ls: _line_2(ls, "ha\trelation\t0\t1"), "not strictly sorted",
        id="postings-token-back-at-key-change",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 5, None), "expected 6 columns",
        id="docs-5-columns",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 2, "big"), "invalid literal for int()",
        id="docs-non-integer-byte-size",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 0, "5"), "dense and ascending from 0",
        id="docs-non-dense-id",
    ),
    pytest.param(
        "docs.tsv", lambda ls: _edit_line_2(ls, 3, "-1"), "negative count",
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
        summaries = [
            _summary("http://h.test/a.owl", classes={"Person"}, relations={"knows"}),
            _summary("http://h.test/b.owl", properties={"hasPart"}),
        ]
        write_index(tmp_path / "idx", *build_parts(summaries))
        path = tmp_path / "idx" / file_name
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) >= 2
        path.write_text("".join(line + "\n" for line in corrupt(lines)), encoding="utf-8")
        with pytest.raises(CorruptIndex) as err:
            read_index(tmp_path / "idx")
        message = str(err.value)
        assert f"{file_name} line 2:" in message
        assert invariant in message


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
            _summary(f"http://h.test/o{i}.owl", terms(20), terms(10), terms(5))
            for i in range(150)
        ]
        docs, postings, manifest = build_parts(summaries)
        write_index(tmp_path / "idx", docs, postings, manifest)
        loaded = read_index(tmp_path / "idx")
        expected = group_postings(postings)
        assert len(expected) > 2000
        assert any(tf > 1 for posting_list in expected.values() for tf in posting_list.tfs)
        assert list(loaded.posting_lists.items()) == list(expected.items())

        for _ in range(40):
            query = parse_query(" ".join(rng.sample(vocab, rng.randint(1, 3))))
            for match_all in (False, True):
                assert search(loaded, query, top_k=10, match_all=match_all) == scan_oracle(
                    summaries, query, top_k=10, match_all=match_all
                )


class TestRecordContracts:
    def test_records_frozen_and_slotted(self):
        posting = Posting(token="person", field="class", doc_id=0, tf=1)
        doc = DocRecord(
            doc_id=0,
            url="http://h.test/a.owl",
            byte_size=10,
            class_count=1,
            property_count=0,
            relation_count=0,
        )
        for record, name in ((posting, "tf"), (doc, "byte_size")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, 2)
            assert not hasattr(record, "__dict__")

    def test_posting_hashable_and_equal_by_value(self):
        a = Posting(token="person", field="class", doc_id=0, tf=1)
        b = Posting("person", "class", 0, 1)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Posting("person", "class", 0, 2)


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
            OntologySummary(f"http://h.test/o{i}.owl", *terms, triple_count=1, byte_size=10)
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
    """Random URL lists with known per-line fates."""
    plans = draw(
        st.lists(
            st.sampled_from(["good", "blank", "null", "missing", "error404", "empty", "repeat"]),
            max_size=24,
        )
    )
    return plans


class TestManifestIdentityFuzz:
    @given(_line_plans())
    def test_identity_holds_for_any_corpus(self, tmp_path_factory, plans):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        corpus = Corpus()
        lines = []
        good_urls = []
        turtle = b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<#C> a owl:Class ."
        for i, plan in enumerate(plans):
            url = f"http://h.test/{plan}{i}.owl"
            if plan == "good":
                corpus.add(url, CorpusEntry(200, "text/turtle", turtle))
                lines.append(url)
                good_urls.append(url)
            elif plan == "blank":
                lines.append("   ")
            elif plan == "null":
                lines.append("null")
            elif plan == "missing":
                lines.append(url)
            elif plan == "error404":
                corpus.add(url, CorpusEntry(404, None, b""))
                lines.append(url)
            elif plan == "empty":
                corpus.add(url, CorpusEntry(200, "application/rdf+xml",
                                            b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'))
                lines.append(url)
            elif plan == "repeat" and good_urls:
                lines.append(good_urls[-1])
            else:
                lines.append("null")
        path = tmp_path / "urls.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        manifest = build_index(
            path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert manifest.input_line_count == len(lines)
        assert manifest.doc_count + sum(manifest.skip_counts.values()) == len(lines)
        index = read_index(tmp_path / "idx")
        assert {p.doc_id for p in posting_rows(index)} == {d.doc_id for d in index.docs}
