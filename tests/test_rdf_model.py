from __future__ import annotations

import dataclasses
import re
from urllib.parse import urljoin, urlsplit, urlunsplit, uses_relative

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_triples
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
from onto_seeker.rdf import model
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


def _urljoin_keeping_hash(base: str, ref: str):
    """resolve_iri as plain urljoin gives it: InvalidIri for a ValueError, and
    a ref led by "#" or "?" keeps a ";" ending the base's path (urlparse reads
    it as empty params, which urlunparse drops). Against a base of a scheme
    urljoin does not resolve against, a non-empty relative ref (no ":" before
    its first "/", "?" or "#") resolves as RFC 3986 section 5.2 has it."""
    try:
        out = urljoin(base, ref)
    except ValueError:
        return InvalidIri
    relative = ref and ":" not in re.split("[/?#]", ref, maxsplit=1)[0]
    if relative and base and urlsplit(base).scheme not in uses_relative:
        return _rfc3986_join(base, ref)
    if ref[:1] in ("#", "?"):
        path = urlsplit(base).path
        if path.endswith(";") and urlsplit(out).path == path[:-1]:
            out = urlunsplit(urlsplit(out)._replace(path=path))
    return out + "#" if ref.endswith("#") and not out.endswith("#") else out


def _rfc3986_parts(iri: str):
    """(scheme, authority, path, query, fragment) as RFC 3986 appendix B
    splits them, None where the delimiter is absent."""
    rest, has_fragment, fragment = iri.partition("#")
    rest, has_query, query = rest.partition("?")
    scheme, colon, tail = rest.partition(":")
    if not colon or not scheme or "/" in scheme:
        scheme, tail = None, rest
    authority = None
    if tail.startswith("//"):
        authority, slash, path = tail[2:].partition("/")
        tail = slash + path
    return scheme, authority, tail, query if has_query else None, fragment if has_fragment else None


def _rfc3986_join(base: str, ref: str) -> str:
    """RFC 3986 sections 5.2.2, 5.2.3 and 5.3, as the pseudo-code reads."""
    b_scheme, b_authority, b_path, b_query, _ = _rfc3986_parts(base)
    _, r_authority, r_path, r_query, r_fragment = _rfc3986_parts(ref)
    if r_authority is not None:
        authority, path, query = r_authority, _remove_dots(r_path), r_query
    else:
        if r_path == "":
            path, query = b_path, b_query if r_query is None else r_query
        else:
            if r_path.startswith("/"):
                path = _remove_dots(r_path)
            elif b_authority is not None and b_path == "":
                path = _remove_dots("/" + r_path)
            else:
                path = _remove_dots(b_path[: b_path.rfind("/") + 1] + r_path)
            query = r_query
        authority = b_authority
    out = "" if b_scheme is None else b_scheme + ":"
    if authority is not None:
        out += "//" + authority
    out += path
    if query is not None:
        out += "?" + query
    if r_fragment is not None:
        out += "#" + r_fragment
    return out


def _remove_dots(path: str) -> str:
    """RFC 3986 section 5.2.4 on a string output buffer."""
    out = ""
    while path:
        if path.startswith("../") or path.startswith("./"):
            path = re.sub(r"^\.\.?/", "", path)
        elif re.match(r"/\.(/|$)", path):
            path = "/" + path[3:]
        elif re.match(r"/\.\.(/|$)", path):
            path = "/" + path[4:]
            out = out[: max(out.rfind("/"), 0)]
        elif path in (".", ".."):
            path = ""
        else:
            end = path.find("/", 1)
            end = len(path) if end < 0 else end
            out, path = out + path[:end], path[end:]
    return out


def _resolved(base: str, ref: str):
    try:
        return resolve_iri(base, ref)
    except InvalidIri:
        return InvalidIri


def _no_urljoin(base, ref):
    raise AssertionError(f"urljoin({base!r}, {ref!r})")


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

    # RFC 3986 section 5.2.2; urljoin drops the ";", read as empty params.
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("http://a.example/x;", "#top", "http://a.example/x;#top"),
            ("http://a.example/x;", "?q", "http://a.example/x;?q"),
            ("http://a.example/x;", "#", "http://a.example/x;#"),
            ("http://a.example/x;?b", "?", "http://a.example/x;?b"),
            ("http://a.example/x;?", "#f", "http://a.example/x;#f"),
            ("http://a.example/d;/x;#g", "?q#h", "http://a.example/d;/x;?q#h"),
            ("HTTP://a.example/x;", "#f", "http://a.example/x;#f"),
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
    # path, dot segments removed (RFC 3986 sections 5.2.2 to 5.2.4).
    @pytest.mark.parametrize(
        "base, ref, expected",
        [
            ("urn:example:o", "Person", "urn:Person"),
            ("tag:a.example,2020:dir/o", "x/y", "tag:a.example,2020:dir/x/y"),
            ("urn:example:o", "//h/p", "urn://h/p"),
        ],
    )
    def test_path_ref_against_a_non_hierarchical_base(self, base, ref, expected):
        assert resolve_iri(base, ref) == expected
        assert _urljoin_keeping_hash(base, ref) == expected

    # RFC 3986 section 5.4's examples, whose base is http://a/b/c/d;p?q: the
    # algorithm does not depend on the scheme, so a tag: base gives the same
    # answers with tag: in front.
    @pytest.mark.parametrize(
        "ref, expected",
        [
            ("g", "//a/b/c/g"), ("./g", "//a/b/c/g"), ("g/", "//a/b/c/g/"), ("/g", "//a/g"),
            ("//g", "//g"), ("?y", "//a/b/c/d;p?y"), ("g?y", "//a/b/c/g?y"),
            ("#s", "//a/b/c/d;p?q#s"), ("g#s", "//a/b/c/g#s"), ("g?y#s", "//a/b/c/g?y#s"),
            (";x", "//a/b/c/;x"), ("g;x", "//a/b/c/g;x"), ("g;x?y#s", "//a/b/c/g;x?y#s"),
            (".", "//a/b/c/"), ("./", "//a/b/c/"), ("..", "//a/b/"), ("../", "//a/b/"),
            ("../g", "//a/b/g"), ("../..", "//a/"), ("../../", "//a/"), ("../../g", "//a/g"),
            ("../../../g", "//a/g"), ("../../../../g", "//a/g"), ("/./g", "//a/g"),
            ("/../g", "//a/g"), ("g.", "//a/b/c/g."), (".g", "//a/b/c/.g"),
            ("g..", "//a/b/c/g.."), ("..g", "//a/b/c/..g"), ("./../g", "//a/b/g"),
            ("./g/.", "//a/b/c/g/"), ("g/./h", "//a/b/c/g/h"), ("g/../h", "//a/b/c/h"),
            ("g;x=1/./y", "//a/b/c/g;x=1/y"), ("g;x=1/../y", "//a/b/c/y"),
            ("g?y/./x", "//a/b/c/g?y/./x"), ("g?y/../x", "//a/b/c/g?y/../x"),
            ("g#s/./x", "//a/b/c/g#s/./x"), ("g#s/../x", "//a/b/c/g#s/../x"),
        ],
    )
    def test_rfc_3986_examples_against_a_non_hierarchical_base(self, ref, expected):
        assert resolve_iri("tag://a/b/c/d;p?q", ref) == "tag:" + expected
        assert _urljoin_keeping_hash("tag://a/b/c/d;p?q", ref) == "tag:" + expected

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

    @settings(max_examples=500)
    @given(bases_and_plain_iris())
    def test_direct_answer_equals_urljoin(self, base_and_ref):
        base, ref = base_and_ref
        assert _resolved(base, ref) == _urljoin_keeping_hash(base, ref)

    def test_risky_piece_at_any_boundary_equals_urljoin(self):
        """Each risky piece, at each boundary of an IRI of the base's own scheme
        (the IRIs urljoin splits and rebuilds), resolves as urljoin does."""
        bases = URL_BASES + [resolve_iri(base, ref) for base in URL_BASES for ref in BASE_REFS]
        for base in bases:
            scheme = base.split(":", 1)[0]
            for parts in ([scheme, "://h0", "/a;b", "/x.owl", "?q=1", "#f"],
                          [scheme, "://h0", "/x", "#"], [scheme, "://h0"]):
                for risky in IRI_RISKY:
                    for at in range(len(parts) + 1):
                        ref = _with_risky(parts, risky, at)
                        assert _resolved(base, ref) == _urljoin_keeping_hash(base, ref), ref

    @pytest.mark.parametrize("base", URL_BASES)
    @pytest.mark.parametrize(
        "ref",
        ["", "http://host0.example/onto/o100.owl#DeviceProcessChannel", "http://w3.example/ns#",
         "https://h0/a;b/c:d@e?q=1&r=%20#f/g", "urn://h0", "ftp://a.example/x;y"],
    )
    def test_empty_or_plain_ref_skips_urljoin(self, base, ref, monkeypatch):
        expected = _urljoin_keeping_hash(base, ref)
        monkeypatch.setattr(model, "urljoin", _no_urljoin)
        assert resolve_iri(base, ref) == expected

    def test_every_iri_of_a_generated_site_takes_a_direct_path(self, monkeypatch):
        """Each ontology of a generated site, parsed as served and again from
        RDF/XML and Turtle serialisations of its triples, resolves every IRI
        without urljoin."""
        corpus, truth = make_synthetic_site(
            SiteSpec(seed=1, page_count=200, ontology_count=200, host_count=4)
        )
        monkeypatch.setattr(model, "urljoin", _no_urljoin)
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
