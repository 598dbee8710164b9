"""Relative hrefs and IRIs, end to end: a hand-written site whose page links
by relative hrefs and whose ontologies name their terms by relative IRIs
(RDF/XML ``xml:base``, ``rdf:about="#C"`` and ``rdf:ID``; Turtle ``@base``,
``<#C>``, ``<C>`` and ``@prefix : <#>``), crawled, indexed and queried.
"""

from __future__ import annotations

import pytest

from conftest import run_pipeline
from onto_seeker.harness import Corpus, CorpusEntry, CorpusTransport, scan_oracle
from onto_seeker.indexer import read_index
from onto_seeker.query import parse_query, search
from onto_seeker.rdf import (
    OWL_NS,
    extract_summary,
    local_name,
    parse_rdf_xml,
    parse_turtle,
    tokenize,
)

PAGE = "http://rel.test/a/b/index.html"
X_OWL = "http://rel.test/a/b/x.owl"
Y_OWL = "http://rel.test/a/d/y.owl"

X_BODY = b"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xml:base="../onto/core">
  <owl:Class rdf:about="#RedCedar"/>
  <owl:Class rdf:ID="DouglasFir">
    <rdfs:subClassOf rdf:resource="#RedCedar"/>
  </owl:Class>
  <owl:Class rdf:about="../other/ElmTree"/>
</rdf:RDF>
"""
Y_BODY = b"""@base <../t/vocab> .
@prefix : <#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
<#SilverFir> a owl:Class .
<GinkgoLeaf> a owl:Class .
:HazelNut a owl:Class .
"""
# The page's classes, each as the RFC 3986 resolution of its relative IRI.
CLASS_IRIS = {
    X_OWL: {
        "http://rel.test/a/onto/core#RedCedar",
        "http://rel.test/a/onto/core#DouglasFir",
        "http://rel.test/a/other/ElmTree",
    },
    Y_OWL: {
        "http://rel.test/a/t/vocab#SilverFir",
        "http://rel.test/a/t/GinkgoLeaf",
        "http://rel.test/a/t/vocab#HazelNut",
    },
}


def _corpus() -> Corpus:
    corpus = Corpus()
    page = '<a href="x.owl">x</a> <a href="../d/y.owl">y</a> <a href="./z.ttl#f">z</a>'
    corpus.add(PAGE, CorpusEntry(200, "text/html", page.encode()))
    corpus.add(X_OWL, CorpusEntry(200, "application/rdf+xml", X_BODY))
    corpus.add(Y_OWL, CorpusEntry(200, "text/turtle", Y_BODY))
    # Neither .owl nor .rdf, so the crawl lists it as no ontology.
    corpus.add("http://rel.test/a/b/z.ttl", CorpusEntry(200, "text/turtle", Y_BODY))
    return corpus


def test_class_iris_resolve_by_rfc_3986():
    parsed = {X_OWL: parse_rdf_xml(X_BODY, X_OWL), Y_OWL: parse_turtle(Y_BODY, Y_OWL)}
    found = {
        url: {t.subject for t in triples if t.object == OWL_NS + "Class"}
        for url, triples in parsed.items()
    }
    assert found == CLASS_IRIS


@pytest.mark.parametrize("workers", [1, 4])
def test_crawl_index_query(tmp_path, workers):
    _report, manifest, written = run_pipeline(
        tmp_path, CorpusTransport(_corpus()), PAGE, max_pages=10, worker_count=workers
    )
    assert written["urls.txt"] == f"{X_OWL}\n{Y_OWL}\n".encode()
    assert manifest.doc_count == 2
    index = read_index(tmp_path / "idx")
    summaries = [
        extract_summary(parse_rdf_xml(X_BODY, X_OWL), X_OWL, len(X_BODY)),
        extract_summary(parse_turtle(Y_BODY, Y_OWL), Y_OWL, len(Y_BODY)),
    ]
    queries = ["zzz", "cedar fir", "tree leaf nut"]
    for summary in summaries:
        assert summary.classes == {local_name(iri) for iri in CLASS_IRIS[summary.url]}
        for term in summary.classes:
            for token in tokenize(term):
                urls = {r.url for r in search(index, parse_query(token), top_k=2)}
                assert summary.url in urls, (term, token)
                queries.append(token)
    for raw in queries:
        query = parse_query(raw)
        for match_all in (False, True):
            assert search(index, query, top_k=2, match_all=match_all) == scan_oracle(
                summaries, query, top_k=2, match_all=match_all
            )
