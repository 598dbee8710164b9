from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onto_seeker.rdf import (
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    RDF_XML,
    TURTLE,
    UNSUPPORTED,
    Literal,
    Triple,
    detect_syntax,
    extract_summary,
    local_name,
    parse_rdf_xml,
    parse_turtle,
    tokenize,
)
from onto_seeker.rdf.model import InvalidIri, resolve_iri


class TestDetectSyntax:
    def test_xml_declaration_and_rdf_root(self):
        body = b'<?xml version="1.0"?><rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'
        assert detect_syntax(body) == RDF_XML

    def test_prefix_directive(self):
        assert detect_syntax(b"@prefix ex: <http://x/> .") == TURTLE

    def test_jsonld_unsupported(self):
        assert detect_syntax(b'{ "@context": {} }') == UNSUPPORTED

    def test_content_type_wins_over_sniffing(self):
        xmlish = b'<?xml version="1.0"?><rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"/>'
        assert detect_syntax(xmlish, content_type="text/turtle") == TURTLE

    def test_rdf_media_type(self):
        assert detect_syntax(b"anything", content_type="application/rdf+xml") == RDF_XML

    def test_x_turtle_media_type(self):
        assert detect_syntax(b"", content_type="application/x-turtle") == TURTLE

    def test_sparql_style_prefix_sniffs_turtle(self):
        assert detect_syntax(b"PREFIX ex: <http://x/>\nex:a ex:b ex:c .") == TURTLE

    def test_leading_comment_then_prefix(self):
        assert detect_syntax(b"# a comment\n@base <http://x/> .") == TURTLE

    def test_doctype_then_rdf_root(self):
        body = (
            b'<?xml version="1.0"?>\n<!-- note -->\n'
            b'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">'
            b"</rdf:RDF>"
        )
        assert detect_syntax(body) == RDF_XML

    def test_plain_xml_not_rdf(self):
        assert detect_syntax(b"<?xml version='1.0'?><html></html>") == UNSUPPORTED

    def test_rdf_named_root_with_wrong_namespace(self):
        assert detect_syntax(b'<rdf:RDF xmlns:rdf="http://other/ns#"/>') == UNSUPPORTED

    def test_html_unsupported(self):
        assert detect_syntax(b"<html><body>hi</body></html>") == UNSUPPORTED

    def test_ntriples_unsupported(self):
        assert detect_syntax(b"<http://x/a> <http://x/b> <http://x/c> .") == UNSUPPORTED


class TestLocalName:
    @pytest.mark.parametrize(
        "iri,expected",
        [
            ("http://x/onto#Person", "Person"),
            ("http://x/onto/hasPart", "hasPart"),
            ("urn:isbn:123", "urn:isbn:123"),
            ("http://x/onto#", "http://x/onto#"),
            ("http://x/", "http://x/"),
            ("http://x/a#b/c", "b/c"),
        ],
    )
    def test_examples(self, iri, expected):
        assert local_name(iri) == expected


class TestTokenize:
    @pytest.mark.parametrize(
        "term,expected",
        [
            ("hasPart", ["has", "part"]),
            ("AgentOfOrganization", ["agent", "of", "organization"]),
            ("ISBN10", ["isbn", "10"]),
            ("HTTPServer", ["http", "server"]),
            ("snake_case_name", ["snake", "case", "name"]),
            ("dash-and.dot", ["dash", "and", "dot"]),
            ("x", ["x"]),
            ("42", ["42"]),
            ("__", []),
            ("Sensor42Grid", ["sensor", "42", "grid"]),
        ],
    )
    def test_examples(self, term, expected):
        assert tokenize(term) == expected

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF), min_size=1, max_size=20))
    def test_tokens_are_lowercase_and_nonempty(self, term):
        for token in tokenize(term):
            assert token
            assert token == token.lower()
            assert not set(token) & set("._-")

    def test_whitespace_and_line_breaks_split(self):
        # no token may carry a TAB or a line break into the index's TSV files
        term = "Line\u2028Break\tTab Space\x85Next\x0cFeed"
        assert tokenize(term) == ["line", "break", "tab", "space", "next", "feed"]

    @given(st.text(alphabet="abcXYZ019._-", max_size=24))
    def test_retokenizing_a_token_is_identity(self, term):
        for token in tokenize(term):
            assert tokenize(token) == [token]


class TestResolveIri:
    def test_keeps_bare_hash(self):
        assert resolve_iri("http://d/x.owl", "http://w3.example/ns#") == "http://w3.example/ns#"

    def test_relative_fragment(self):
        assert resolve_iri("http://d/x.owl", "#A") == "http://d/x.owl#A"

    def test_absolute_passthrough(self):
        assert resolve_iri("http://d/x.owl", "http://other/y#B") == "http://other/y#B"

    # A scheme-like head led by a non-letter is a relative path.
    @pytest.mark.parametrize(
        "ref, expected",
        [
            ("1x:Person", "http://a.example/1x:Person"),
            ("1x:ns#", "http://a.example/1x:ns#"),
            (".http:x", "http://a.example/.http:x"),
            ("+1:y#Z", "http://a.example/+1:y#Z"),
            ("x1:Person", "x1:Person"),
        ],
    )
    def test_non_letter_scheme_is_a_relative_path(self, ref, expected):
        assert resolve_iri("http://a.example/onto.owl", ref) == expected

    @pytest.mark.parametrize("base", ["", "urn:x"])
    def test_non_letter_scheme_against_a_non_hierarchical_base_stays(self, base):
        assert resolve_iri(base, "1x:P") == "1x:P"

    # urlsplit's check of a bracketed host: an IPv6 or IPvFuture literal
    # resolves, any other bracketed host is invalid.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("http://a.example/o.owl", "http://[::1]/C", "http://[::1]/C"),
            ("http://a.example/o.owl", "http://[v1.x]/C", "http://[v1.x]/C"),
            ("http://a.example/o.owl", "C[1]", "http://a.example/C[1]"),
            ("http://[x]/o.owl", "", "http://[x]/o.owl"),  # urljoin splits neither
        ],
    )
    def test_ip_literal_host_resolves(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected

    @pytest.mark.parametrize(
        "base, ref",
        [
            ("http://a.example/o.owl", "http://[x]/C"),
            ("http://a.example/o.owl", "//[x]/C"),
            ("http://a.example/o.owl", "http://[1.2.3.4]/C"),
            ("http://a.example/o.owl", "http://[vz.x]/C"),
            ("http://[x]/o.owl", "C"),
        ],
    )
    def test_other_bracketed_host_is_invalid(self, base, ref):
        with pytest.raises(InvalidIri):
            resolve_iri(base, ref)

    def test_non_letter_scheme_in_both_parsers(self):
        base = "http://a.example/onto.owl"
        turtle = parse_turtle(
            b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            b"@base <1x:base/> .\n<C> a owl:Class .\n",
            base,
        )
        assert [t.subject for t in turtle] == ["http://a.example/1x:base/C"]
        rdfxml = parse_rdf_xml(
            f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns:owl="{OWL_NS}">'
            '<owl:Class rdf:about="1x:Person"/></rdf:RDF>'.encode(),
            base,
        )
        assert [t.subject for t in rdfxml] == ["http://a.example/1x:Person"]


NS = "http://fixture.test/o.owl#"


def _typed(subject: str, type_iri: str) -> Triple:
    return Triple(NS + subject, RDF_NS + "type", type_iri)


class TestExtractSummary:
    def test_class_and_subclass_relation(self):
        triples = [
            _typed("Student", OWL_NS + "Class"),
            Triple(NS + "Student", RDFS_NS + "subClassOf", NS + "Person"),
        ]
        summary = extract_summary(triples, NS[:-1], byte_size=100)
        assert summary.classes == {"Student"}
        assert summary.properties == frozenset()
        assert summary.relations == {"Person"}

    def test_usage_predicate_is_relation(self):
        triples = [Triple(NS + "x", NS + "hasAdvisor", NS + "y")]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.relations == {"hasAdvisor"}
        assert summary.classes == frozenset() and summary.properties == frozenset()

    def test_empty_triples(self):
        summary = extract_summary([], NS[:-1], byte_size=0)
        assert summary.is_empty()
        assert summary.triple_count == 0

    def test_terms_without_tokens_count_as_empty(self):
        triples = [_typed("_", OWL_NS + "Class"), Triple(NS + "x", NS + "-", NS + "y")]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.classes == {"_"}
        assert summary.is_empty()

    def test_property_type_variants(self):
        triples = [
            _typed("p1", OWL_NS + "ObjectProperty"),
            _typed("p2", OWL_NS + "DatatypeProperty"),
            _typed("p3", OWL_NS + "AnnotationProperty"),
            _typed("p4", RDF_NS + "Property"),
        ]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.properties == {"p1", "p2", "p3", "p4"}

    def test_rdfs_class_counts(self):
        summary = extract_summary([_typed("C", RDFS_NS + "Class")], NS[:-1], byte_size=1)
        assert summary.classes == {"C"}

    def test_reserved_predicates_not_relations(self):
        triples = [
            Triple(NS + "a", RDFS_NS + "label", Literal("x")),
            Triple(NS + "a", OWL_NS + "sameAs", NS + "b"),
            _typed("a", OWL_NS + "Thing"),
        ]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.relations == frozenset()

    def test_axiom_objects_only_when_iri(self):
        triples = [
            Triple(NS + "a", RDFS_NS + "domain", Literal("not-an-iri")),
            Triple(NS + "a", RDFS_NS + "range", "_:blank"),
            Triple(NS + "a", RDFS_NS + "subPropertyOf", NS + "b"),
        ]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.relations == {"b"}

    def test_blank_subjects_have_no_name(self):
        triples = [
            Triple("_:b0", RDF_NS + "type", OWL_NS + "Class"),
            Triple("_:b0", NS + "uses", NS + "y"),
        ]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.classes == frozenset()
        assert summary.relations == {"uses"}  # predicate usage still counts

    def test_literals_never_contribute(self):
        triples = [Triple(NS + "x", NS + "note", Literal("CamelCasedWords"))]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        assert summary.relations == {"note"}
        assert "camel" not in {t for term in summary.relations for t in tokenize(term)}

    @given(st.permutations(list(range(6))))
    def test_order_insensitive(self, order):
        triples = [
            _typed("Student", OWL_NS + "Class"),
            Triple(NS + "Student", RDFS_NS + "subClassOf", NS + "Person"),
            _typed("hasAdvisor", OWL_NS + "ObjectProperty"),
            Triple(NS + "alice", NS + "enrolledIn", NS + "ai101"),
            Triple(NS + "alice", NS + "age", Literal("22")),
            Triple("_:b", NS + "mentorOf", NS + "alice"),
        ]
        shuffled = [triples[i] for i in order]
        base = extract_summary(triples, NS[:-1], byte_size=9)
        other = extract_summary(shuffled, NS[:-1], byte_size=9)
        assert (base.classes, base.properties, base.relations) == (
            other.classes,
            other.properties,
            other.relations,
        )

    @given(
        st.sets(
            st.text(alphabet="abcdefgXYZ019", min_size=1, max_size=12).filter(
                lambda s: any(c.isalnum() for c in s)
            ),
            max_size=8,
        )
    )
    def test_every_term_survives_tokenize(self, names):
        triples = [_typed(name, OWL_NS + "Class") for name in names]
        summary = extract_summary(triples, NS[:-1], byte_size=1)
        for term in summary.classes | summary.properties | summary.relations:
            assert len(tokenize(term)) >= 1
