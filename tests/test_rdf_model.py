from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_triples, outcome, rfc_iri, urljoin_departures, urljoin_iri
from onto_seeker.harness import SiteSpec, make_synthetic_site, serialize_rdf_xml, serialize_turtle
from onto_seeker.netfetch import Url
from onto_seeker.rdf import (
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    RDF_XML,
    TURTLE,
    UNSUPPORTED,
    XSD_NS,
    Literal,
    Triple,
    detect_syntax,
    extract_summary,
    local_name,
    parse_rdf_xml,
    parse_turtle,
    tokenize,
)
from onto_seeker.rdf import rdfxml, turtle
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


# Bases as the parsers pass them: str() of a Url, or an xml:base or @base
# reference resolved against one.
URL_BASES = [
    str(Url.parse(raw))
    for raw in ("http://a.example/onto.owl", "https://b.example:8443/d/o.ttl?v=1",
                "http://a.example/d/x;", "http://a.example/d/?")
]
BASE_REFS = ["sub/", "../up.owl#", "#frag", "?q", "http://c.example/ns/", "ftp://f.example/p/",
             "file:///tmp/o.owl", "urn:x:y", "x1+b.c-d://h.example/"]


# Plain absolute IRIs, about half of them with one risky piece added: an
# upper-case scheme, an empty query, params, dot segments, brackets, a port,
# whitespace, a C0 control, non-ASCII or a line break.
IRI_SCHEMES = ["http", "https", "file", "urn", "x1+b.c-d"]
IRI_HOSTS = ["a.example", "h0", "b-c_d~e.f"]
IRI_PIECES = ["a", "Z", "0", "-", ".", "_", "~", "!", "$", "&", "'", "(", ")", "*", "+", ",", ";",
              "=", ":", "@", "%2F", "x.owl"]
IRI_RISKY = [str.upper, "?", ";", "/./", "/..", "[", ":80", " ", "\t", "\n", "\x00", "\u00e9",
             "\u2028", "#", "//", "\\"]


@st.composite
def bases_and_plain_iris(draw) -> tuple[str, str]:
    """A base and a plain absolute IRI, of the base's scheme about half the time."""

    def pieces(lead: str, min_size: int = 0) -> str:
        return lead + "".join(draw(st.lists(st.sampled_from(IRI_PIECES), min_size=min_size,
                                            max_size=3)))

    base = draw(st.sampled_from(URL_BASES))
    if draw(st.booleans()):
        base = resolve_iri(base, draw(st.sampled_from(BASE_REFS)))
    scheme = base.split(":", 1)[0] if draw(st.booleans()) else draw(st.sampled_from(IRI_SCHEMES))
    parts = [scheme, "://" + draw(st.sampled_from(IRI_HOSTS))]
    parts += [pieces("/") for _ in range(draw(st.integers(0, 3)))]
    parts += [pieces("?", 1)] if draw(st.booleans()) else []
    parts += [pieces("#")] if draw(st.booleans()) else []
    if draw(st.booleans()):
        return base, _with_risky(parts, draw(st.sampled_from(IRI_RISKY)),
                                 draw(st.integers(0, len(parts))))
    return base, "".join(parts)


def _with_risky(parts: list[str], risky, at: int) -> str:
    if callable(risky):
        return risky(parts[0]) + "".join(parts[1:])
    return "".join(parts[:at] + [risky] + parts[at:])


# Relative references: pieces of paths, queries and fragments, dot segments
# and the pieces urljoin reads otherwise than RFC 3986 does.
REF_PIECES = ["g", "x.owl", "/", "//", ".", "..", "?", "#", ";", ":", "=", "%2F", "\u00e9", " ",
              "\t", "HTTP:", "http:", "urn:"]


@st.composite
def bases_and_refs(draw) -> tuple[str, str]:
    """A base as the parsers pass one, and a plain absolute IRI (half of
    them with one risky piece) or a relative reference."""
    if draw(st.booleans()):
        return draw(bases_and_plain_iris())
    base = draw(st.sampled_from(URL_BASES))
    if draw(st.booleans()):
        base = resolve_iri(base, draw(st.sampled_from(BASE_REFS)))
    return base, "".join(draw(st.lists(st.sampled_from(REF_PIECES), min_size=1, max_size=6)))


def _agrees_with_the_oracles(base: str, ref: str) -> None:
    """resolve_iri gives the RFC oracle's answer, and urljoin's outside the
    listed classes."""
    got = outcome(resolve_iri, base, ref)
    assert got == rfc_iri(base, ref), (base, ref, got)
    if not urljoin_departures(base, ref):
        assert got == urljoin_iri(base, ref), (base, ref, got)


class TestRecordContracts:
    def test_triple_and_literal_frozen_and_slotted(self):
        literal = Literal("5", datatype=XSD_NS + "int")
        triple = Triple("http://h.test/s", "http://h.test/p", literal)
        for record, field in ((literal, "lexical"), (triple, "object")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, "x")
            assert not hasattr(record, "__dict__")
        again = Triple("http://h.test/s", "http://h.test/p", Literal("5", datatype=XSD_NS + "int"))
        assert triple == again and hash(triple) == hash(again)
        assert Literal("5") != literal and Literal("5", lang="en") != Literal("5")
        assert len({triple, again, Triple("_:b", "http://h.test/p", "http://h.test/o")}) == 2


class TestResolveIri:
    def test_keeps_bare_hash(self):
        assert resolve_iri("http://d/x.owl", "http://w3.example/ns#") == "http://w3.example/ns#"

    def test_relative_fragment(self):
        assert resolve_iri("http://d/x.owl", "#A") == "http://d/x.owl#A"

    # RFC 3986 section 5.2.2 keeps the base's path whole, and an empty query
    # is a query; urljoin drops the ";" (read as empty params) and the "?".
    # No normalisation: the scheme keeps its case.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("http://a.example/x;", "#top", "http://a.example/x;#top"),
            ("http://a.example/x;", "?q", "http://a.example/x;?q"),
            ("http://a.example/x;", "#", "http://a.example/x;#"),
            ("http://a.example/x;?b", "?", "http://a.example/x;?"),
            ("http://a.example/x;?", "#f", "http://a.example/x;?#f"),
            ("http://a.example/d;/x;#g", "?q#h", "http://a.example/d;/x;?q#h"),
            ("HTTP://a.example/x;", "#f", "HTTP://a.example/x;#f"),
            ("http://a.example/x;p", "#f", "http://a.example/x;p#f"),
            ("http://a.example/x;", "y", "http://a.example/y"),
            ("urn:x;", "#f", "urn:x;#f"),
        ],
    )
    def test_fragment_or_query_ref_keeps_a_semicolon_ending_the_path(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected

    # RFC 3986 section 5.2.2 against a base urljoin gives such refs back bare
    # for: its scheme is not in urllib's uses_relative.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("urn:example:o", "#Person", "urn:example:o#Person"),
            ("urn:example:o#Old", "#", "urn:example:o#"),
            ("tag:a.example,2020:o?v=1#x", "?q", "tag:a.example,2020:o?q"),
            ("tag:a.example,2020:o?v=1#x", "?q#f", "tag:a.example,2020:o?q#f"),
            ("tag:a.example,2020:o?v=1#x", "#f", "tag:a.example,2020:o?v=1#f"),
            ("", "#f", "#f"),
        ],
    )
    def test_fragment_or_query_ref_against_a_non_hierarchical_base(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected

    # A path or network-path ref against such a base: merged with the base's
    # path, dot segments removed (RFC 3986 sections 5.2.2 to 5.2.4). A merged
    # path with no "/" in front starts with "../" or "./", or is "." or "..".
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("urn:example:o", "Person", "urn:Person"),
            ("tag:a.example,2020:dir/o", "x/y", "tag:a.example,2020:dir/x/y"),
            ("urn:example:o", "//h/p", "urn://h/p"),
            ("urn:example:o", "../x", "urn:x"),
            ("urn:example:o", "./x/../y", "urn:/y"),
            ("urn:example:o", ".", "urn:"),
            ("urn:example:o", "..", "urn:"),
        ],
    )
    def test_path_ref_against_a_non_hierarchical_base(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected
        assert urljoin_iri(base, ref) == expected

    # RFC 3986 section 5.4: all 42 examples, normal (5.4.1) and abnormal
    # (5.4.2), the last with the strict answer. The algorithm does not depend
    # on the scheme, so a tag: base, which urljoin does not resolve against,
    # gives the same answers with tag: in front.
    @pytest.mark.parametrize("scheme", ["http", "tag"])
    @pytest.mark.parametrize(
        "ref, expected",
        [
            ("g:h", "g:h"), ("g", "http://a/b/c/g"), ("./g", "http://a/b/c/g"),
            ("g/", "http://a/b/c/g/"), ("/g", "http://a/g"), ("//g", "http://g"),
            ("?y", "http://a/b/c/d;p?y"), ("g?y", "http://a/b/c/g?y"),
            ("#s", "http://a/b/c/d;p?q#s"), ("g#s", "http://a/b/c/g#s"),
            ("g?y#s", "http://a/b/c/g?y#s"), (";x", "http://a/b/c/;x"),
            ("g;x", "http://a/b/c/g;x"), ("g;x?y#s", "http://a/b/c/g;x?y#s"),
            ("", "http://a/b/c/d;p?q"), (".", "http://a/b/c/"), ("./", "http://a/b/c/"),
            ("..", "http://a/b/"), ("../", "http://a/b/"), ("../g", "http://a/b/g"),
            ("../..", "http://a/"), ("../../", "http://a/"), ("../../g", "http://a/g"),
            ("../../../g", "http://a/g"), ("../../../../g", "http://a/g"),
            ("/./g", "http://a/g"), ("/../g", "http://a/g"), ("g.", "http://a/b/c/g."),
            (".g", "http://a/b/c/.g"), ("g..", "http://a/b/c/g.."), ("..g", "http://a/b/c/..g"),
            ("./../g", "http://a/b/g"), ("./g/.", "http://a/b/c/g/"),
            ("g/./h", "http://a/b/c/g/h"), ("g/../h", "http://a/b/c/h"),
            ("g;x=1/./y", "http://a/b/c/g;x=1/y"), ("g;x=1/../y", "http://a/b/c/y"),
            ("g?y/./x", "http://a/b/c/g?y/./x"), ("g?y/../x", "http://a/b/c/g?y/../x"),
            ("g#s/./x", "http://a/b/c/g#s/./x"), ("g#s/../x", "http://a/b/c/g#s/../x"),
            ("http:g", "http:g"),
        ],
    )
    def test_rfc_3986_examples(self, scheme, ref, expected):
        base = f"{scheme}://a/b/c/d;p?q"
        if expected.startswith("http://"):
            expected = scheme + expected[4:]
        assert resolve_iri(base, ref) == expected
        if scheme == "tag":
            assert urljoin_iri(base, ref) == expected

    # Section 5.2.2: an empty query is a query (urljoin drops it); the base's
    # fragment never carries over.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("http://a/b/c/d;p?q", "g?", "http://a/b/c/g?"),
            ("http://a/b/c/d;p?q", "?", "http://a/b/c/d;p?"),
            ("http://a/b/c/d;p?q", "?#s", "http://a/b/c/d;p?#s"),
            ("http://a/b/c/d;p?#f", "#s", "http://a/b/c/d;p?#s"),
        ],
    )
    def test_empty_query_is_kept(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected

    # Section 5.2.3: below an authority with an empty path, a merged path
    # starts at the root.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [("http://a.example", "o.owl#C", "http://a.example/o.owl#C"),
         ("http://a.example?q", "../g", "http://a.example/g")],
    )
    def test_merge_below_an_empty_path(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected

    # No normalisation (Turtle section 6.3): a scheme keeps its case, and a
    # ref with a scheme keeps it, its dot segments removed.
    @pytest.mark.parametrize(
        "ref, expected",
        [
            ("HTTP://b.example/ns#C", "HTTP://b.example/ns#C"),
            ("http://b.example/a/../ns#C", "http://b.example/ns#C"),
            ("http://b.example/a;#C", "http://b.example/a;#C"),
            ("//b.example/./x", "http://b.example/x"),
        ],
    )
    def test_absolute_ref_as_written_less_dot_segments(self, ref, expected):
        assert resolve_iri("http://a.example/onto.owl", ref) == expected

    def test_fragment_ref_against_a_urn_base_in_turtle(self):
        triples = parse_turtle(
            b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
            b"@base <urn:example:o> .\n<#Person> a owl:Class .\n",
            "http://a.example/onto.ttl",
        )
        assert [t.subject for t in triples] == ["urn:example:o#Person"]

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

    # Against an empty or non-hierarchical base it is merged as any path is.
    @pytest.mark.parametrize("base, expected", [("", "1x:P"), ("urn:x", "urn:1x:P")])
    def test_non_letter_scheme_is_merged_against_a_non_hierarchical_base(self, base, expected):
        assert resolve_iri(base, "1x:P") == expected

    # The check urlsplit makes of a bracketed host: an IPv6 or IPvFuture
    # literal resolves, any other bracketed host is invalid.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("http://a.example/o.owl", "http://[::1]/C", "http://[::1]/C"),
            ("http://a.example/o.owl", "http://[v1.x]/C", "http://[v1.x]/C"),
            ("http://a.example/o.owl", "C[1]", "http://a.example/C[1]"),
            ("http://[x]/o.owl", "", "http://[x]/o.owl"),  # an empty ref is the base as it is
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

    @settings(max_examples=500)
    @given(bases_and_refs())
    def test_agrees_with_the_oracles(self, base_and_ref):
        _agrees_with_the_oracles(*base_and_ref)

    def test_risky_piece_at_any_boundary_agrees_with_the_oracles(self):
        """Each risky piece, at each boundary of an IRI of the base's own
        scheme (the IRIs urljoin splits and rebuilds), resolves as the RFC
        oracle does, and as urljoin does unless the pair is of a listed class."""
        bases = URL_BASES + [resolve_iri(base, ref) for base in URL_BASES for ref in BASE_REFS]
        for base in bases:
            scheme = base.split(":", 1)[0]
            for parts in ([scheme, "://h0", "/a;b", "/x.owl", "?q=1", "#f"],
                          [scheme, "://h0", "/x", "#"], [scheme, "://h0"]):
                for risky in IRI_RISKY:
                    for at in range(len(parts) + 1):
                        _agrees_with_the_oracles(base, _with_risky(parts, risky, at))

    # One pair of each listed class, where the RFC's answer and urljoin's differ.
    @pytest.mark.parametrize(
        "base, ref, rfc, departure",
        [
            ("http://a/b?q", "g?", "http://a/g?", "an empty query"),
            ("http://a/b", "http:g", "http:g", "a strict same-scheme ref"),
            ("urn:x", "1x:P", "urn:1x:P", "a ':' in the first segment"),
            ("http://a/b", "HTTP://c/d", "HTTP://c/d", "a scheme not in lower case"),
            ("http://a/b", "http://c/d/../e", "http://c/e",
             "dot segments in a URI or network-path ref"),
            ("http://a/b", "///g", "http:///g", "an empty authority"),
            ("http://a/b/", "g//h", "http://a/b/g//h",
             "an empty segment in a merged or rooted path"),
            ("http://a/b", "/..//", "http://a//", "an empty segment in a merged or rooted path"),
            ("http://a/b", "g;", "http://a/g;", "params in the last segment"),
            ("http://a/b", ".;g", "http://a/.;g", "params in the last segment"),
            ("http://a/b", " g", "http://a/ g", "TAB, CR, LF, or a leading C0 control or space"),
            ("http://a/b", "//\uff03/g", "http://\uff03/g", "a non-ASCII authority"),
        ],
    )
    def test_each_listed_class_departs(self, base, ref, rfc, departure):
        assert resolve_iri(base, ref) == rfc == rfc_iri(base, ref) != urljoin_iri(base, ref)
        assert urljoin_departures(base, ref) == [departure]

    def test_every_iri_of_a_generated_site_resolves_as_urljoin(self, monkeypatch):
        """Each ontology of a generated site, parsed as served and again from
        RDF/XML and Turtle serialisations of its triples, resolves every IRI
        as urljoin does: none is of a listed class."""
        corpus, truth = make_synthetic_site(
            SiteSpec(seed=1, page_count=200, ontology_count=200, host_count=4)
        )
        calls = []

        def recorded(base, ref):
            calls.append((base, ref))
            return resolve_iri(base, ref)

        for module in (rdfxml, turtle):
            monkeypatch.setattr(module, "resolve_iri", recorded)
        parsers = {RDF_XML: parse_rdf_xml, TURTLE: parse_turtle}
        served = set()
        for url, summary in truth.summaries.items():
            body = corpus.entries[url].body
            syntax = detect_syntax(body)
            served.add(syntax)
            triples = parsers[syntax](body, url)
            assert extract_summary(triples, url, len(body)) == summary
            namespaces = {"o": url + "#", "rdfs": RDFS_NS, "owl": OWL_NS, "xsd": XSD_NS}
            for other, serialize in ((RDF_XML, serialize_rdf_xml), (TURTLE, serialize_turtle)):
                again = parsers[other](serialize(triples, namespaces), url)
                assert canonical_triples(again) == canonical_triples(triples)
        assert served == {RDF_XML, TURTLE}
        assert len(calls) > 1000
        assert [(b, r) for b, r in calls if resolve_iri(b, r) != urljoin_iri(b, r)] == []


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
