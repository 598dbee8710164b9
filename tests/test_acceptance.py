"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything runs offline against the deterministic harness.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from conftest import (
    EXPECTED_SIXTEEN_SKIPS,
    canonical_triples,
    crawl_config,
    make_index,
    sixteen_line_fixture,
)
from test_harness import independent_reachable_ontologies
from onto_seeker.cli import main
from onto_seeker.crawler import crawl, write_url_list
from onto_seeker.harness import (
    Corpus,
    CorpusEntry,
    CorpusTransport,
    SiteSpec,
    run_bench,
    scan_oracle,
)
from onto_seeker.indexer import IndexLimits, build_index, read_index
from onto_seeker.netfetch import Url
from onto_seeker.query import parse_query, search
from onto_seeker.rdf import (
    OntologySummary,
    extract_summary,
    parse_rdf_xml,
    parse_turtle,
    tokenize,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _crawl_site42(corpus, root_url, out_path, max_depth=-1):
    config = crawl_config(
        out_path.parent, [root_url], max_pages=500, max_depth=max_depth, output_path=str(out_path)
    )
    return crawl(config, CorpusTransport(corpus))


@pytest.fixture(scope="module")
def seed42_index(site42, tmp_path_factory):
    _spec, (corpus, gt) = site42
    tmp = tmp_path_factory.mktemp("seed42-index")
    urls = tmp / "urls.txt"
    write_url_list({Url.parse(u) for u in gt.reachable_ontology_urls}, urls)
    build_index(
        urls,
        CorpusTransport(corpus),
        IndexLimits(politeness_ms=0),
        tmp / "idx",
        created_at="2026-01-01T00:00:00Z",
    )
    return read_index(tmp / "idx")


def test_criterion_01_synthetic_reachability(site42, tmp_path):
    started = time.monotonic()
    _spec, (corpus, gt) = site42
    out = tmp_path / "urls.txt"
    report = _crawl_site42(corpus, gt.root_url, out)
    lines = out.read_text(encoding="utf-8").splitlines()

    walked = independent_reachable_ontologies(corpus, gt.root_url)
    assert set(walked) == set(gt.reachable_ontology_urls)

    assert report.ontologies_found == 25
    assert set(lines) == set(gt.reachable_ontology_urls)
    assert lines == sorted(lines) and len(lines) == len(set(lines))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: reachability 25/25 in {elapsed:.2f}s")


def test_criterion_02_depth_semantics(site42, tmp_path):
    _spec, (corpus, gt) = site42
    walked_depths = independent_reachable_ontologies(corpus, gt.root_url)

    out0 = tmp_path / "d0.txt"
    _crawl_site42(corpus, gt.root_url, out0, max_depth=0)
    found0 = set(out0.read_text().splitlines())
    stratum0 = {u for u, d in walked_depths.items() if d == 0}
    assert found0 == stratum0 == gt.ontologies_at_depth(0)

    out1 = tmp_path / "d1.txt"
    _crawl_site42(corpus, gt.root_url, out1, max_depth=1)
    found1 = set(out1.read_text().splitlines())
    stratum1 = {u for u, d in walked_depths.items() if d == 1}
    assert found1 - found0 == stratum1 == gt.ontologies_at_depth(1)
    assert found1 == gt.ontologies_up_to_depth(1)
    print(f"\nACCEPTANCE 2 PASS: depth strata exact (|d0|={len(found0)}, |d1 adds|={len(stratum1)})")


def test_criterion_03_politeness_gaps(tmp_path):
    started = time.monotonic()
    corpus = Corpus()
    links = "".join(f'<a href="/p{i}.html">{i}</a>' for i in range(1, 40))
    corpus.add("http://polite.test/", CorpusEntry(200, "text/html", f"<html>{links}</html>".encode()))
    for i in range(1, 40):
        corpus.add(f"http://polite.test/p{i}.html", CorpusEntry(200, "text/html", b"<html></html>"))
    config = crawl_config(
        tmp_path, ["http://polite.test/"], max_pages=40, worker_count=4, politeness_ms=50
    )
    crawl(config, CorpusTransport(corpus))
    times = corpus.per_host_issue_times()["polite.test"]
    assert len(times) == 40
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap >= 50 for gap in gaps)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: 39 same-host gaps all >= 50ms (min {min(gaps):.1f}ms) in {elapsed:.2f}s")


def test_criterion_04_worker_scaling():
    started = time.monotonic()
    spec = SiteSpec(seed=7, page_count=100, ontology_count=8, max_link_depth=5, latency_ms=10)
    rows = run_bench([(1, 200), (4, 200)], spec, politeness_ms=0)
    single, pooled = rows
    assert pooled.ontologies_found == single.ontologies_found
    assert pooled.elapsed_ms < 0.6 * single.elapsed_ms
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 4 PASS: W=4 {pooled.elapsed_ms}ms vs W=1 {single.elapsed_ms}ms "
        f"(ratio {pooled.elapsed_ms / single.elapsed_ms:.2f} < 0.6) in {elapsed:.2f}s"
    )


def test_criterion_05_skip_accounting(tmp_path):
    lines, corpus = sixteen_line_fixture()
    path = tmp_path / "urls.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    manifest = build_index(
        path, CorpusTransport(corpus), IndexLimits(politeness_ms=0), tmp_path / "idx"
    )
    assert manifest.doc_count == 5
    assert manifest.skip_counts == EXPECTED_SIXTEEN_SKIPS
    assert manifest.doc_count + sum(manifest.skip_counts.values()) == 16
    print("\nACCEPTANCE 5 PASS: 16-line skip accounting exact (5 docs + 11 skips)")


def test_criterion_06_index_determinism(site42, tmp_path):
    _spec, (corpus, gt) = site42
    urls = tmp_path / "urls.txt"
    write_url_list({Url.parse(u) for u in gt.reachable_ontology_urls}, urls)
    snapshots = []
    for run in range(2):
        idx_dir = tmp_path / f"idx{run}"
        build_index(
            urls,
            CorpusTransport(corpus),
            IndexLimits(politeness_ms=0),
            idx_dir,
            created_at="2026-01-01T00:00:00Z",
        )
        snapshots.append(
            tuple((f.name, f.read_bytes()) for f in sorted(idx_dir.iterdir()))
        )
    assert snapshots[0] == snapshots[1]
    print("\nACCEPTANCE 6 PASS: rebuild with fixed created_at is byte-identical")


def test_criterion_07_exact_match_guarantee(site42, seed42_index):
    started = time.monotonic()
    _spec, (_corpus, gt) = site42
    index = seed42_index
    assert index.manifest.doc_count == 25
    checked = 0
    for doc in index.docs:
        for term in gt.summaries[doc.url].classes:
            for token in tokenize(term):
                results = search(index, parse_query(token), top_k=index.manifest.doc_count)
                assert doc.url in {r.url for r in results}, (doc.url, term, token)
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 7 PASS: {checked} class-token queries all return their doc in {elapsed:.2f}s")


def _random_summary(rng: random.Random, doc_id: int) -> OntologySummary:
    words = ("agent", "part", "organ", "sensor", "wheel", "market", "node", "policy")

    def camel(k):
        return "".join(w.capitalize() for w in rng.sample(words, k))

    classes = {camel(rng.randint(1, 3)) for _ in range(rng.randint(1, 4))}
    properties = {("has" + camel(1)) for _ in range(rng.randint(0, 3))}
    relations = {(rng.choice(("maps", "feeds")) + camel(1)) for _ in range(rng.randint(0, 3))}
    return OntologySummary(
        url=f"http://c{rng.randint(0, 2)}.test/o{doc_id}.owl",
        classes=frozenset(classes),
        properties=frozenset(properties),
        relations=frozenset(relations),
        triple_count=1,
        byte_size=rng.randint(10, 500),
    )


def test_criterion_08_oracle_equivalence():
    started = time.monotonic()
    pool = [
        "agent", "part", "organ", "sensor", "wheel", "market", "node", "policy",
        "hasAgent", "mapsPart", "AgentOrgan", "SensorWheel", "zzz", "Policy",
        "feedsNode", "agent market", "HasSensor",
    ]
    corpora = queries = 0
    for corpus_seed in range(100):
        rng = random.Random(1000 + corpus_seed)
        summaries = [_random_summary(rng, i) for i in range(rng.randint(2, 12))]
        index = make_index(summaries)
        corpora += 1
        for _ in range(50):
            raw = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            query = parse_query(raw)
            top_k = rng.randint(1, 15)
            via_index = search(index, query, top_k=top_k)
            via_scan = scan_oracle(summaries, query, top_k=top_k)
            queries += 1
            assert via_index == via_scan  # same URLs, bitwise-equal scores, same matched
    elapsed = time.monotonic() - started
    assert corpora == 100 and queries == 5000
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: search == oracle on 100 corpora x 50 queries in {elapsed:.2f}s")


def test_criterion_09_cross_syntax_agreement():
    base = "http://example.org/uni"
    from_xml = parse_rdf_xml((FIXTURES / "uni8.rdf").read_bytes(), base)
    from_ttl = parse_turtle((FIXTURES / "uni8.ttl").read_bytes(), base)
    assert len(from_xml) == len(from_ttl) == 8
    assert canonical_triples(from_xml) == canonical_triples(from_ttl)

    expected_classes = frozenset({"Student"})
    expected_properties = frozenset({"hasAdvisor"})
    expected_relations = frozenset({"enrolledIn", "age", "mentorOf", "Person", "Student"})
    for triples in (from_xml, from_ttl):
        summary = extract_summary(triples, base, byte_size=0)
        assert summary.classes == expected_classes
        assert summary.properties == expected_properties
        assert summary.relations == expected_relations
    print("\nACCEPTANCE 9 PASS: 8-triple graph identical across syntaxes; summary matches hand derivation")


def test_criterion_10_bench_shape(capsys):
    code = main(
        ["bench", "--matrix", "1:500,2:1000,4:7000", "--pages", "40", "--ontologies", "6",
         "--format", "tsv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["workers", "max_pages", "ontologies_found", "elapsed_ms"]
    assert len(lines) == 4
    cells = [line.split("\t") for line in lines[1:]]
    assert [(int(c[0]), int(c[1])) for c in cells] == [(1, 500), (2, 1000), (4, 7000)]
    for c in cells:
        assert int(c[2]) >= 0 and int(c[3]) >= 0
    print("\nACCEPTANCE 10 PASS: bench emits the four measured columns as parseable TSV")
