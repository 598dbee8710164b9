from __future__ import annotations

import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from onto_seeker.harness import Corpus, CorpusEntry, SiteSpec, make_synthetic_site
from onto_seeker.indexer import (
    FIELD_WEIGHTS,
    FORMAT_VERSION,
    DocRecord,
    Index,
    IndexManifest,
    PostingList,
    PostingRow,
    SKIP_REASONS,
    index_summaries,
)
from onto_seeker.rdf import Literal, OntologySummary, Triple

settings.register_profile(
    "fast", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("fast")

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_HOST = "fixture.test"

_G1_RDFXML = b"""<?xml version="1.0" encoding="UTF-8"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#"
         xmlns:ex="http://fixture.test/onto/g1.owl#">
  <owl:Class rdf:about="#Person"/>
  <owl:Class rdf:about="#Student"/>
  <rdf:Description rdf:about="#hasAdvisor">
    <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#ObjectProperty"/>
  </rdf:Description>
  <rdf:Description rdf:about="#alice">
    <ex:enrolledIn rdf:resource="#ai101"/>
  </rdf:Description>
</rdf:RDF>
"""

_G2_RDFXML = b"""<?xml version="1.0" encoding="UTF-8"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="#Vehicle"/>
  <owl:DatatypeProperty rdf:about="#wheelCount"/>
</rdf:RDF>
"""

_G3_TURTLE = b"""@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://fixture.test/onto/g3.owl#> .

ex:Course a owl:Class .
ex:taughtBy a owl:ObjectProperty .
ex:c1 ex:partOf ex:c2 .
"""

_G4_TURTLE = b"""@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://fixture.test/onto/g4.owl#> .

ex:Sensor a owl:Class ;
    rdfs:subClassOf ex:Device .
ex:emitsSignal a owl:ObjectProperty .
"""

_G5_RDFXML = b"""<?xml version="1.0" encoding="UTF-8"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
         xmlns:owl="http://www.w3.org/2002/07/owl#">
  <owl:Class rdf:about="#Market"/>
  <rdf:Description rdf:about="#priceOf">
    <rdf:type rdf:resource="http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"/>
    <rdfs:range rdf:resource="#Price"/>
  </rdf:Description>
</rdf:RDF>
"""

_EMPTY_RDFXML = b"""<?xml version="1.0"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>
"""

_EMPTY_TURTLE = b"""@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
<http://fixture.test/onto/empty2.owl#a> rdfs:label "nothing here" .
"""

GOOD_FIXTURE_SUMMARIES = {
    f"http://{FIXTURE_HOST}/onto/g1.owl": (
        {"Person", "Student"}, {"hasAdvisor"}, {"enrolledIn"}
    ),
    f"http://{FIXTURE_HOST}/onto/g2.rdf": ({"Vehicle"}, {"wheelCount"}, set()),
    f"http://{FIXTURE_HOST}/onto/g3.owl": ({"Course"}, {"taughtBy"}, {"partOf"}),
    f"http://{FIXTURE_HOST}/onto/g4.owl": ({"Sensor"}, {"emitsSignal"}, {"Device"}),
    f"http://{FIXTURE_HOST}/onto/g5.rdf": ({"Market"}, {"priceOf"}, {"Price"}),
}


def sixteen_line_fixture() -> tuple[list[str], Corpus]:
    """URL list and corpus where each line's fate is forced by construction:
    5 indexed, 2 duplicates, 2 blank/null, 2 fetch errors, 2 unsupported
    formats, 2 empty ontologies, 1 oversize. 16 lines in total."""
    host = FIXTURE_HOST
    corpus = Corpus()
    corpus.add(f"http://{host}/onto/g1.owl", CorpusEntry(200, "application/rdf+xml", _G1_RDFXML))
    corpus.add(f"http://{host}/onto/g2.rdf", CorpusEntry(200, None, _G2_RDFXML))
    corpus.add(f"http://{host}/onto/g3.owl", CorpusEntry(200, "text/turtle", _G3_TURTLE))
    corpus.add(f"http://{host}/onto/g4.owl", CorpusEntry(200, None, _G4_TURTLE))
    corpus.add(f"http://{host}/onto/g5.rdf", CorpusEntry(200, "application/rdf+xml", _G5_RDFXML))
    corpus.add(f"http://{host}/gone.owl", CorpusEntry(404, "text/html", b"gone"))
    corpus.add(f"http://{host}/data.jsonld", CorpusEntry(200, None, b'{ "@context": {} }'))
    corpus.add(
        f"http://{host}/terms.nt",
        CorpusEntry(200, None, b"<http://x/a> <http://x/b> <http://x/c> .\n"),
    )
    corpus.add(f"http://{host}/empty1.rdf", CorpusEntry(200, "application/rdf+xml", _EMPTY_RDFXML))
    corpus.add(f"http://{host}/empty2.owl", CorpusEntry(200, None, _EMPTY_TURTLE))
    corpus.add(
        f"http://{host}/huge.owl",
        CorpusEntry(200, "application/rdf+xml", b"x" * (3 * 1024 * 1024 + 1)),
    )
    lines = [
        f"http://{host}/onto/g1.owl",
        f"http://{host}/onto/g2.rdf",
        "",
        f"http://{host}/onto/g3.owl",
        f"http://{host}/onto/g1.owl",
        f"http://{host}/missing.owl",
        "null",
        f"http://{host}/onto/g4.owl",
        f"http://{host}/gone.owl",
        f"http://{host}/data.jsonld",
        f"http://{host}/onto/g2.rdf",
        f"http://{host}/empty1.rdf",
        f"http://{host}/terms.nt",
        f"http://{host}/empty2.owl",
        f"http://{host}/huge.owl",
        f"http://{host}/onto/g5.rdf",
    ]
    assert len(lines) == 16
    return lines, corpus


EXPECTED_SIXTEEN_SKIPS = {
    "blank_or_null": 2,
    "duplicate": 2,
    "fetch_error": 2,
    "unsupported_syntax": 2,
    "parse_error": 0,
    "empty_ontology": 2,
    "oversize": 1,
}


def nested_rdf_xml(depth: int) -> bytes:
    """RDF/XML with ``depth`` node elements, each the value of a property of
    the one above; the innermost is owl:Class ``#Leaf``."""
    opening = "<rdf:Description><ex:p>" * (depth - 1)
    closing = "</ex:p></rdf:Description>" * (depth - 1)
    return (
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:owl="http://www.w3.org/2002/07/owl#" xmlns:ex="http://x/o.owl#">'
        f'{opening}<owl:Class rdf:about="#Leaf"/>{closing}</rdf:RDF>'
    ).encode()


# Bytes that carry syntax in Turtle or RDF/XML, so mutants reach the parsers'
# error paths more often than uniformly random bytes do.
_SYNTAX_BYTES = b'<>"\'\\:[]()#.;,@^_=/&! \n\tuU0'


@st.composite
def mutants(draw, seed: bytes) -> bytes:
    """``seed`` after 1-5 single-byte inserts, replacements or deletions."""
    body = bytearray(seed)
    for _ in range(draw(st.integers(1, 5))):
        pos = draw(st.integers(0, len(body) - 1))
        byte = draw(st.sampled_from(_SYNTAX_BYTES) | st.integers(0, 255))
        op = draw(st.sampled_from(("insert", "replace", "delete")))
        if op == "insert":
            body.insert(pos, byte)
        elif op == "replace":
            body[pos] = byte
        else:
            del body[pos]
    return bytes(body)


class ThreadRecorder:
    """Wraps a transport and records the thread of every fetch."""

    def __init__(self, inner):
        self.inner = inner
        self.threads: list[threading.Thread] = []

    def fetch(self, url, max_body_bytes, issued_at_ms=None):
        self.threads.append(threading.current_thread())
        return self.inner.fetch(url, max_body_bytes, issued_at_ms=issued_at_ms)


def build_parts(
    summaries: list[OntologySummary], created_at: str = "fixed"
) -> tuple[list[DocRecord], list[PostingRow], IndexManifest]:
    """What build_index writes for ``summaries`` (no fetch pipeline): the
    arguments of write_index after its folder."""
    docs, postings = index_summaries(summaries)
    manifest = IndexManifest(
        format_version=FORMAT_VERSION,
        created_at=created_at,
        doc_count=len(docs),
        posting_count=len(postings),
        input_line_count=len(summaries),
        skip_counts={reason: 0 for reason in SKIP_REASONS},
        field_weights=dict(FIELD_WEIGHTS),
    )
    return docs, postings, manifest


def group_postings(postings: list[PostingRow]) -> dict[tuple[str, str], PostingList]:
    """Sorted build-side rows grouped per (token, field) key, as read_index
    loads them."""
    table: dict[tuple[str, str], PostingList] = {}
    for token, field_name, doc_id, tf in postings:
        posting_list = table.setdefault((token, field_name), PostingList([], []))
        posting_list.doc_ids.append(doc_id)
        posting_list.tfs.append(tf)
    return table


def posting_rows(index: Index) -> list[PostingRow]:
    """An index's per-key lists flattened back into rows, in key order."""
    return [
        (token, field_name, doc_id, tf)
        for (token, field_name), posting_list in index.posting_lists.items()
        for doc_id, tf in zip(posting_list.doc_ids, posting_list.tfs)
    ]


def make_index(summaries: list[OntologySummary], created_at: str = "fixed") -> Index:
    """In-memory index straight from summaries (no fetch pipeline)."""
    docs, postings, manifest = build_parts(summaries, created_at)
    return Index(docs=docs, posting_lists=group_postings(postings), manifest=manifest)


def canonical_triples(triples: list[Triple]) -> frozenset[Triple]:
    """Rename blank labels deterministically so graphs from different
    serializations compare equal."""

    def node_key(node):
        if isinstance(node, Literal):
            return ("lit", node.lexical, node.datatype or "", node.lang or "")
        if node.startswith("_:"):
            return ("blank", "")
        return ("iri", node)

    ordered = sorted(triples, key=lambda t: (node_key(t.subject), t.predicate, node_key(t.object)))
    mapping: dict[str, str] = {}

    def rename(node):
        if isinstance(node, str) and node.startswith("_:"):
            if node not in mapping:
                mapping[node] = f"_:c{len(mapping)}"
            return mapping[node]
        return node

    return frozenset(Triple(rename(t.subject), t.predicate, rename(t.object)) for t in ordered)


@pytest.fixture(scope="session")
def site42():
    spec = SiteSpec(seed=42, page_count=200, ontology_count=25, max_link_depth=4)
    return spec, make_synthetic_site(spec)
