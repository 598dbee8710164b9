from __future__ import annotations

import hashlib
import importlib
import json
import re
from pathlib import Path
from urllib.parse import urljoin

import pytest

from conftest import build_parts, make_index
from onto_seeker import crawler, indexer, query
from onto_seeker.crawler import CrawlConfig, crawl
from onto_seeker.harness import (
    Corpus,
    CorpusEntry,
    CorpusTransport,
    PathUnreadable,
    SiteSpec,
    corpus_from_dir,
    load_ground_truth,
    load_site_dir,
    make_synthetic_site,
    render_bench_tsv,
    run_bench,
    scan_oracle,
    serialize_rdf_xml,
    serialize_turtle,
)
from onto_seeker.indexer import FIELDS
from onto_seeker.netfetch import Url
from onto_seeker.query import EmptyQuery, Query, parse_query, search
from onto_seeker.rdf import (
    OWL_NS,
    RDF_NS,
    OntologySummary,
    Triple,
    parse_rdf_xml,
    parse_turtle,
)


def independent_reachable_ontologies(corpus: Corpus, root: str) -> dict[str, int]:
    """Regex-based BFS over the corpus HTML, sharing no code with the crawler.

    Returns ontology URL -> minimum depth of a page linking it.
    """
    href_re = re.compile(r'(?:href|src)="([^"]+)"')
    depths = {root: 0}
    queue = [root]
    found: dict[str, int] = {}
    while queue:
        page = queue.pop(0)
        entry = corpus.entries.get(page)
        if entry is None or entry.content_type != "text/html":
            continue
        for href in href_re.findall(entry.body.decode("utf-8")):
            target = urljoin(page, href).split("#", 1)[0]
            if not target.startswith("http"):
                continue
            if target.lower().endswith((".owl", ".rdf")):
                depth = depths[page]
                found[target] = min(found.get(target, depth), depth)
            elif target not in depths and not target.lower().endswith(".csv"):
                depths[target] = depths[page] + 1
                queue.append(target)
    return found


def _summary(url, classes=(), properties=(), relations=()):
    return OntologySummary(
        url=url,
        classes=frozenset(classes),
        properties=frozenset(properties),
        relations=frozenset(relations),
        triple_count=1,
        byte_size=1,
    )


class TestMakeSyntheticSite:
    def test_same_spec_same_bytes(self):
        spec = SiteSpec(seed=9, page_count=40, ontology_count=6, host_count=2)
        corpus_a, gt_a = make_synthetic_site(spec)
        corpus_b, gt_b = make_synthetic_site(spec)
        assert sorted(corpus_a.entries) == sorted(corpus_b.entries)
        for key, entry in corpus_a.entries.items():
            assert corpus_b.entries[key].body == entry.body
            assert corpus_b.entries[key].content_type == entry.content_type
        assert gt_a.reachable_ontology_urls == gt_b.reachable_ontology_urls

    @pytest.mark.parametrize(
        "spec, digest",
        [
            # branching runs out: 15 pages fit above depth 3 at branching 2
            (SiteSpec(seed=7, page_count=600, ontology_count=60, max_link_depth=3, branching=2),
             "3ffa516e4e1fff43378769167b7027de30b02b17007ee1a3e3f54945005939e9"),
            (SiteSpec(seed=9, page_count=50, ontology_count=10, max_link_depth=1, branching=1),
             "221d6459ced8eaa531e089021085cdd964622de7ee7112dd4bac12fee474fa57"),
            (SiteSpec(seed=42, page_count=120, ontology_count=15, host_count=2),
             "ee542f9a47a2f1de863b082130a168450ed9921ad97c09522f1aa518d45b599d"),
            (SiteSpec(seed=3, page_count=400, ontology_count=80, max_link_depth=6, branching=4,
                      host_count=3, latency_ms=2),
             "b61a1ff7dbffb41c809879da7f4577c47557ecf1c1d1ebd599d86f7411933303"),
        ],
    )
    def test_generated_site_is_pinned(self, spec, digest):
        corpus, truth = make_synthetic_site(spec)
        h = hashlib.sha256(repr(sorted(corpus.entries.items())).encode())
        h.update(json.dumps([truth.page_depths, truth.ontology_depths], sort_keys=True).encode())
        assert h.hexdigest() == digest

    def test_different_seed_differs(self):
        a, _ = make_synthetic_site(SiteSpec(seed=1, page_count=30, ontology_count=5))
        b, _ = make_synthetic_site(SiteSpec(seed=2, page_count=30, ontology_count=5))
        assert sorted(a.entries) != sorted(b.entries)

    def test_single_page_no_ontologies(self):
        corpus, gt = make_synthetic_site(SiteSpec(seed=3, page_count=1, ontology_count=0))
        assert len(gt.reachable_ontology_urls) == 0
        assert len([k for k in corpus.entries]) == 1
        assert gt.page_depths == {gt.root_url: 0}

    def test_seed42_ground_truth_verified_by_independent_walk(self, site42):
        _spec, (corpus, gt) = site42
        walked = independent_reachable_ontologies(corpus, gt.root_url)
        assert set(walked) == set(gt.reachable_ontology_urls)
        assert walked == gt.ontology_depths
        assert len(walked) == 25

    def test_depths_respect_spec_bound(self, site42):
        spec, (_corpus, gt) = site42
        assert max(gt.page_depths.values()) <= spec.max_link_depth

    def test_summaries_match_parsed_documents(self, site42):
        _spec, (corpus, gt) = site42
        for url, expected in gt.summaries.items():
            entry = corpus.entries[url]
            if entry.body.lstrip().startswith(b"<?xml"):
                triples = parse_rdf_xml(entry.body, url)
            else:
                triples = parse_turtle(entry.body, url)
            from onto_seeker.rdf import extract_summary

            got = extract_summary(triples, url, len(entry.body))
            assert got == expected

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"page_count": 0, "ontology_count": 0}, "page_count must be >= 1"),
            ({"page_count": 2, "ontology_count": 5},
             "ontology_count must be between 0 and page_count"),
            ({"page_count": 5, "ontology_count": -1},
             "ontology_count must be between 0 and page_count"),
            ({"page_count": 5, "ontology_count": 0, "max_link_depth": -1},
             "max_link_depth must be >= 0"),
            ({"page_count": 5, "ontology_count": 0, "max_link_depth": 0},
             "page_count > 1 needs max_link_depth >= 1"),
            ({"page_count": 5, "ontology_count": 0, "branching": 0}, "branching must be >= 1"),
            ({"page_count": 5, "ontology_count": 0, "host_count": 0}, "host_count must be >= 1"),
            ({"page_count": 5, "ontology_count": 0, "latency_ms": -1}, "latency_ms must be >= 0"),
        ],
    )
    def test_spec_validation(self, fields, message):
        with pytest.raises(ValueError) as err:
            SiteSpec(seed=1, **fields)
        assert str(err.value) == message


class TestCorpusFromDir:
    def test_extension_media_types(self, tmp_path):
        (tmp_path / "a.html").write_text("<html></html>")
        (tmp_path / "b.owl").write_text("<?xml?>")
        corpus = corpus_from_dir(tmp_path, "h.test")
        assert corpus.entries["http://h.test/a.html"].content_type == "text/html"
        assert corpus.entries["http://h.test/b.owl"].content_type == "application/rdf+xml"

    def test_nested_turtle(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "x" / "y.ttl").write_text("@prefix a: <http://x/> .")
        corpus = corpus_from_dir(tmp_path, "h.test")
        assert corpus.entries["http://h.test/x/y.ttl"].content_type == "text/turtle"

    def test_empty_dir(self, tmp_path):
        assert corpus_from_dir(tmp_path, "h.test").entries == {}

    def test_index_html_answers_directory_url(self, tmp_path):
        (tmp_path / "index.html").write_text("<html>root</html>")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "index.html").write_text("<html>sub</html>")
        corpus = corpus_from_dir(tmp_path, "h.test")
        assert "http://h.test/" in corpus.entries
        assert "http://h.test/sub/" in corpus.entries

    def test_missing_dir(self, tmp_path):
        with pytest.raises(PathUnreadable):
            corpus_from_dir(tmp_path / "absent", "h.test")


class TestSiteDirRoundTrip:
    def test_write_then_load_preserves_corpus(self, tmp_path):
        from onto_seeker.harness import write_site_dir

        spec = SiteSpec(seed=5, page_count=25, ontology_count=4, host_count=2)
        corpus, gt = make_synthetic_site(spec)
        write_site_dir(corpus, gt, spec, tmp_path / "site")
        loaded, root = load_site_dir(tmp_path / "site")
        assert root == gt.root_url
        assert sorted(loaded.entries) == sorted(corpus.entries)
        for key, entry in corpus.entries.items():
            assert loaded.entries[key].body == entry.body
            assert loaded.entries[key].content_type == entry.content_type
        gt_loaded = load_ground_truth(tmp_path / "site")
        assert gt_loaded.reachable_ontology_urls == gt.reachable_ontology_urls
        assert gt_loaded.summaries == gt.summaries
        assert gt_loaded.ontology_depths == gt.ontology_depths

    def test_folder_without_site_json_is_unreadable(self, tmp_path):
        with pytest.raises(PathUnreadable, match="site.json"):
            load_site_dir(tmp_path)


class TestSerializers:
    def test_rdf_xml_round_trip(self):
        ns = "http://x/o.owl#"
        triples = [
            Triple(ns + "A", RDF_NS + "type", OWL_NS + "Class"),
            Triple("_:b0", ns + "sees", ns + "A"),
        ]
        body = serialize_rdf_xml(triples, {"o": ns, "owl": OWL_NS})
        assert set(parse_rdf_xml(body, "http://x/o.owl")) == set(triples)

    def test_turtle_round_trip(self):
        ns = "http://x/o.owl#"
        triples = [
            Triple(ns + "A", RDF_NS + "type", OWL_NS + "Class"),
            Triple("_:b0", ns + "sees", ns + "A"),
        ]
        body = serialize_turtle(triples, {"o": ns, "owl": OWL_NS})
        assert body.startswith(b"@prefix")
        assert set(parse_turtle(body, "http://x/o.owl")) == set(triples)


class TestScanOracle:
    def test_single_class_scores_three(self):
        results = scan_oracle([_summary("http://h.test/a.owl", classes={"Person"})],
                              parse_query("person"), top_k=10)
        assert len(results) == 1
        assert results[0].score == pytest.approx(3.0)

    def test_empty_summaries(self):
        assert scan_oracle([], parse_query("person"), top_k=5) == []

    def test_empty_query_rejected(self):
        with pytest.raises(EmptyQuery):
            scan_oracle([], Query(tokens=()), top_k=5)

    def test_agrees_with_search_on_generated_corpus(self, site42):
        _spec, (_corpus, gt) = site42
        summaries = [gt.summaries[url] for url in sorted(gt.summaries)]
        index = make_index(summaries)
        for raw in ("sensor", "device network", "hasMarket", "agent of organization"):
            query = parse_query(raw)
            via_index = search(index, query, top_k=40)
            via_scan = scan_oracle(summaries, query, top_k=40)
            assert [(r.url, r.score, r.matched) for r in via_index] == [
                (r.url, r.score, r.matched) for r in via_scan
            ]


class TestPolitenessEndToEnd:
    def test_request_log_gaps_respect_gate(self, tmp_path):
        corpus = Corpus()
        links = "".join(f'<a href="/p{i}.html">{i}</a>' for i in range(1, 10))
        corpus.add("http://h.test/", CorpusEntry(200, "text/html", f"<html>{links}</html>".encode()))
        for i in range(1, 10):
            corpus.add(f"http://h.test/p{i}.html", CorpusEntry(200, "text/html", b"<html></html>"))
        config = CrawlConfig(
            seed_urls=(Url.parse("http://h.test/"),),
            max_pages=20,
            worker_count=3,
            politeness_ms=20,
            output_path=str(tmp_path / "urls.txt"),
        )
        crawl(config, CorpusTransport(corpus))
        times = corpus.per_host_issue_times()["h.test"]
        assert len(times) == 10
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 20 for gap in gaps)


class TestRunBench:
    def test_rows_mirror_matrix(self):
        spec = SiteSpec(seed=11, page_count=30, ontology_count=5)
        rows = run_bench([(1, 500), (2, 500)], spec)
        cells = [(r.config_echo.worker_count, r.config_echo.max_pages) for r in rows]
        assert cells == [(1, 500), (2, 500)]
        assert rows[0].ontologies_found == rows[1].ontologies_found == 5

    def test_site_generated_once_per_call(self, monkeypatch):
        from onto_seeker.harness import bench

        calls = []

        def counting_make(spec):
            calls.append(spec)
            return make_synthetic_site(spec)

        monkeypatch.setattr(bench, "make_synthetic_site", counting_make)
        spec = SiteSpec(seed=11, page_count=20, ontology_count=3)
        reports = run_bench([(1, 100), (2, 100), (1, 5)], spec)
        assert calls == [spec]
        assert [r.ontologies_found for r in reports[:2]] == [3, 3]
        assert reports[2].pages_fetched == 5

    @pytest.mark.parametrize("bad_cell", [(0, 10), (1, 0)])
    def test_bad_cell_rejected_before_any_crawl(self, monkeypatch, bad_cell):
        from onto_seeker.harness import bench

        crawled = []
        monkeypatch.setattr(bench, "crawl", lambda config, transport: crawled.append(config))
        with pytest.raises(ValueError):
            run_bench([(1, 10), bad_cell], SiteSpec(seed=1, page_count=5, ontology_count=1))
        assert crawled == []

    def test_tsv_shape(self):
        spec = SiteSpec(seed=11, page_count=20, ontology_count=3)
        rows = run_bench([(1, 100)], spec)
        lines = render_bench_tsv(rows).splitlines()
        assert lines[0] == "workers\tmax_pages\tontologies_found\telapsed_ms"
        workers, max_pages, found, elapsed = lines[1].split("\t")
        assert (int(workers), int(max_pages), int(found)) == (1, 100, 3)
        assert int(elapsed) >= 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            run_bench([], SiteSpec(seed=1, page_count=5, ontology_count=1))


class TestPolitenessModes:
    def test_global_politeness_serializes_across_hosts(self, tmp_path):
        corpus = Corpus()
        corpus.add(
            "http://a.test/",
            CorpusEntry(200, "text/html", b'<a href="http://b.test/p.html">x</a>'),
        )
        corpus.add("http://b.test/p.html", CorpusEntry(200, "text/html", b"<html></html>"))
        config = CrawlConfig(
            seed_urls=(Url.parse("http://a.test/"),),
            max_pages=5,
            worker_count=2,
            politeness_ms=30,
            output_path=str(tmp_path / "urls.txt"),
            per_host_politeness=False,
        )
        crawl(config, CorpusTransport(corpus))
        times = sorted(ms for _url, ms in corpus.request_log)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 30 for gap in gaps)

    def test_indexer_fetches_honor_politeness(self, tmp_path):
        corpus = Corpus()
        body = b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<#C> a owl:Class ."
        urls = [f"http://h.test/o{i}.owl" for i in range(3)]
        for url in urls:
            corpus.add(url, CorpusEntry(200, "text/turtle", body))
        path = tmp_path / "urls.txt"
        path.write_text("".join(u + "\n" for u in urls))
        from onto_seeker.indexer import IndexLimits, build_index

        build_index(path, CorpusTransport(corpus), IndexLimits(politeness_ms=25), tmp_path / "idx")
        times = corpus.per_host_issue_times()["h.test"]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(times) == 3
        assert all(gap >= 25 for gap in gaps)


class TestPerfbenchTracer:
    def test_installs_on_every_call_site_and_restores_them(self, monkeypatch):
        # perfbench/tracing.py patches src/ call sites by name; a refactor that
        # drops one would otherwise break `perfbench/run.py --trace 1` unseen.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        sites = [(crawler, "extract_links"), (indexer, "parse_turtle"), (query, "search")]
        before = [getattr(owner, name) for owner, name in sites]
        with tracing.Tracer("t").installed():
            assert all(getattr(o, n) is not f for (o, n), f in zip(sites, before))
        assert all(getattr(o, n) is f for (o, n), f in zip(sites, before))

    def test_search_counters_equal_the_per_key_lists(self, monkeypatch, tmp_path):
        # The traced search counts through Index.postings_by_token_field: a
        # change to the loaded index must keep these counters right.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        tracing = importlib.import_module("tracing")
        summaries = [
            _summary("http://h.test/a.owl", {"Person", "PartOfPerson"}, {"hasPart"}),
            _summary("http://h.test/b.owl", {"Vessel"}, {"hasPerson"}, {"part"}),
        ]
        indexer.write_index(tmp_path / "idx", *build_parts(summaries))
        tracer = tracing.Tracer("t")
        with tracer.installed():
            index = indexer.read_index(tmp_path / "idx")
            q = query.parse_query("person part")
            query.search(index, q, top_k=5)
        lists = [
            index.posting_lists[token, field_name]
            for token in q.tokens
            for field_name in FIELDS
            if (token, field_name) in index.posting_lists
        ]
        rows = [doc_ids for posting_list in lists for _tf, doc_ids in posting_list.rows]
        scanned = sum(len(doc_ids) for doc_ids in rows)
        scored = len({doc_id for doc_ids in rows for doc_id in doc_ids})
        assert (scanned, scored) == (5, 2)
        assert tracer.counters["query.postings_scanned"] == scanned
        assert tracer.counters["query.docs_scored"] == scored
