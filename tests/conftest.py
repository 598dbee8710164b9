from __future__ import annotations

import ipaddress
import re
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import quote, urljoin, urlsplit, urlunsplit, uses_relative

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
from onto_seeker.netfetch import MalformedUrl, UnsupportedScheme, Url
from onto_seeker.rdf import InvalidIri, Literal, OntologySummary, Triple

settings.register_profile(
    "fast", max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("fast")

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_HOST = "fixture.test"

# A self-signed certificate for 127.0.0.1, valid until 2126.
TLS_CERT = FIXTURES / "tls" / "cert.pem"

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


# Two oracles. The program resolves hrefs and IRIs by RFC 3986 section 5.2
# alone. urljoin_iri and urljoin_url answer as urljoin and urlsplit (Python
# 3.11.4+) do, with the patches the program once put on them, and
# urljoin_departures names the inputs where the two may differ. rfc_iri and
# rfc_url answer as the RFC's pseudo-code reads, for every input.

_RFC3986_SPLIT = re.compile(
    r"(?:([A-Za-z][A-Za-z0-9+.-]*):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.S
)
_C0_OR_SPACE = "".join(map(chr, range(0x21)))
_OLD_HOST = re.compile(r"[a-z0-9._-]+")
_OLD_LINE_BREAKS = re.compile("[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_SCHEME_PORTS = {"http": 80, "https": 443}


def outcome(resolve, *args):
    """What ``resolve(*args)`` gives: its value, or the class of the
    UnsupportedScheme, MalformedUrl or InvalidIri it raises."""
    try:
        return resolve(*args)
    except (UnsupportedScheme, MalformedUrl, InvalidIri) as exc:
        return type(exc)


def urljoin_iri(base: str, ref: str):
    """urljoin(base, ref), or InvalidIri for its ValueError, patched as the
    program patched it: a ref ending in a bare "#" keeps it; a ref led by "#"
    or "?" keeps a ";" ending the base's path (urlparse reads it as empty
    params, which urlunparse drops); and against a base of a scheme urljoin
    does not resolve against (urn:, tag:), a non-empty ref with no ":" before
    its first "/", "?" or "#" resolves as RFC 3986 section 5.2 reads."""
    try:
        out = urljoin(base, ref)
    except ValueError:
        return InvalidIri
    relative = ref and ":" not in re.split("[/?#]", ref, maxsplit=1)[0]
    if relative and base and urlsplit(base).scheme not in uses_relative:
        return rfc3986_join(base, ref)
    if ref[:1] in ("#", "?"):
        path = urlsplit(base).path
        if path.endswith(";") and urlsplit(out).path == path[:-1]:
            out = urlunsplit(urlsplit(out)._replace(path=path))
    return out + "#" if ref.endswith("#") and not out.endswith("#") else out


def urljoin_url(base: Url, href: str):
    """normalize_url(base, href) as urljoin and urlsplit give it: the Url
    that Url.parse's checks, made on urlsplit's parts, give of
    ``urljoin_iri(str(base), href.strip())``, or UnsupportedScheme or
    MalformedUrl. Where urljoin or urlsplit refuses a bad IP literal
    (ValueError) under a scheme other than http(s), the answer is
    UnsupportedScheme, as the program reads the scheme first."""
    joined = urljoin_iri(str(base), href.strip())
    try:
        if joined is InvalidIri:
            raise ValueError(href)
        raw = joined.split("#", 1)[0].strip()
        raw = _OLD_LINE_BREAKS.sub(lambda match: quote(match.group()), raw)
        parts = urlsplit(raw)
    except ValueError:
        scheme = _RFC3986_SPLIT.fullmatch(clean_href(href))[1]
        return MalformedUrl if (scheme or "http").lower() in _SCHEME_PORTS else UnsupportedScheme
    if parts.scheme not in ("http", "https"):
        return UnsupportedScheme
    if "@" in parts.netloc or "[" in parts.netloc:
        return MalformedUrl
    if not _OLD_HOST.fullmatch(parts.hostname or ""):
        return MalformedUrl
    try:
        port = parts.port
    except ValueError:
        return MalformedUrl
    if port is None:
        port = _SCHEME_PORTS[parts.scheme]
    query = parts.query if "?" in raw else None
    return Url(parts.scheme, parts.hostname, port, parts.path or "/", query)


def clean_href(href: str) -> str:
    """``href`` as urlsplit reads it: stripped of whitespace and of leading C0
    controls and spaces, TAB, CR and LF dropped."""
    href = href.strip().lstrip(_C0_OR_SPACE)
    return href.replace("\t", "").replace("\r", "").replace("\n", "")


def urljoin_departures(base: str, ref: str) -> list[str]:
    """The classes of (base, ref) in which RFC 3986 section 5.2, strict, may
    resolve otherwise than ``urljoin_iri``: none where the two must agree."""
    base_scheme, _, base_path, base_query, _ = _RFC3986_SPLIT.fullmatch(base).groups()
    scheme, authority, path, query, _ = _RFC3986_SPLIT.fullmatch(ref).groups()
    relative = scheme is None and authority is None
    if not relative:
        merged = ""
    elif path.startswith("/"):
        merged = path
    else:
        merged = base_path[: base_path.rfind("/") + 1] + path
    head, semicolon, params = path.rsplit("/", 1)[-1].partition(";")
    params = params if semicolon else None
    classes = {
        # urlunsplit drops an empty query, and urljoin gives "?" the base's query.
        "an empty query": (
            query == "" or (relative and not path and query is None and base_query == "")
        ),
        # urljoin reads "http:g" against an http base as the relative "g".
        "a strict same-scheme ref": (
            scheme is not None
            and authority is None
            and scheme.lower() == (base_scheme or "").lower()
        ),
        # urljoin gives such a ref back bare against a urn: or tag: base.
        "a ':' in the first segment": relative and ":" in path.split("/", 1)[0],
        # urlsplit lower-cases a scheme.
        "a scheme not in lower case": any(s and s != s.lower() for s in (scheme, base_scheme)),
        # urljoin removes dot segments only from a path it merges.
        "dot segments in a URI or network-path ref": (
            not relative and any(segment in (".", "..") for segment in path.split("/"))
        ),
        # urljoin takes the base's authority for an empty one.
        "an empty authority": authority == "",
        # urljoin drops empty segments from a path it merges, and a ".." of a
        # rooted path can remove its root.
        "an empty segment in a merged or rooted path": "//" in merged,
        # urlparse splits params off the last segment at its first ";": it
        # drops empty ones, and reads a "." or ".." before them as a dot segment.
        "params in the last segment": params == "" or params is not None and head in (".", ".."),
        # urlsplit drops them; resolve_iri keeps an IRI as written.
        "TAB, CR, LF, or a leading C0 control or space": (
            ref.lstrip(_C0_OR_SPACE) != ref or any(char in ref for char in "\t\r\n")
        ),
        # urlsplit refuses one whose NFKC form holds a delimiter.
        "a non-ASCII authority": authority is not None and not authority.isascii(),
    }
    return [name for name, hit in classes.items() if hit]


def rfc3986_join(base: str, ref: str) -> str:
    """RFC 3986 sections 5.2.2 (strict), 5.2.3 and 5.3, as the pseudo-code
    reads."""
    b_scheme, b_authority, b_path, b_query, _ = _RFC3986_SPLIT.fullmatch(base).groups()
    scheme, authority, path, query, fragment = _RFC3986_SPLIT.fullmatch(ref).groups()
    if scheme is not None:
        path = _remove_dots(path)
    elif authority is not None:
        scheme, path = b_scheme, _remove_dots(path)
    elif path == "":
        scheme, authority, path = b_scheme, b_authority, b_path
        query = b_query if query is None else query
    elif path.startswith("/"):
        scheme, authority, path = b_scheme, b_authority, _remove_dots(path)
    elif b_authority is not None and b_path == "":
        scheme, authority, path = b_scheme, b_authority, _remove_dots("/" + path)
    else:
        merged = b_path[: b_path.rfind("/") + 1] + path
        scheme, authority, path = b_scheme, b_authority, _remove_dots(merged)
    out = "" if scheme is None else scheme + ":"
    if authority is not None:
        out += "//" + authority
    out += path
    if query is not None:
        out += "?" + query
    if fragment is not None:
        out += "#" + fragment
    return out


def rfc_iri(base: str, ref: str):
    """resolve_iri(base, ref) as RFC 3986 reads: rfc3986_join, the base
    itself for an empty ref, or InvalidIri where the result's authority
    breaks urlsplit's bracket rule."""
    if not ref:
        return base
    out = rfc3986_join(base, ref)
    authority = _RFC3986_SPLIT.fullmatch(out)[2]
    return InvalidIri if authority is not None and _bad_brackets(authority) else out


def _bad_brackets(authority: str) -> bool:
    """Whether ``authority`` holds a "[" or "]" but its first "[...]" (if
    any) holds no IPv6 address and no "v", hex digits, "." and more."""
    if "[" not in authority and "]" not in authority:
        return False
    match = re.search(r"\[([^\]]*)\]", authority)
    if match is None:
        return True
    if match[1].startswith("v"):
        return re.fullmatch(r"v[0-9A-Fa-f]+\..+", match[1]) is None
    try:
        return not isinstance(ipaddress.ip_address(match[1]), ipaddress.IPv6Address)
    except ValueError:
        return True


def rfc_url(base: Url, href: str):
    """normalize_url(base, href) as RFC 3986 reads: ``href`` less its
    fragment, cleaned by clean_href, its other line breaks percent-encoded,
    resolved by rfc3986_join against str(base); then an http(s) scheme in
    any case, no userinfo, a host of [a-z0-9._-] in any case and a port of
    at most 65535, or UnsupportedScheme or MalformedUrl."""
    ref = clean_href(href.partition("#")[0])
    ref = _OLD_LINE_BREAKS.sub(lambda match: quote(match.group()), ref)
    joined = rfc3986_join(str(base), ref)
    scheme, authority, path, query, _ = _RFC3986_SPLIT.fullmatch(joined).groups()
    scheme = scheme.lower()
    if scheme not in _SCHEME_PORTS:
        return UnsupportedScheme
    if authority is None or "@" in authority:
        return MalformedUrl
    host, _, port = authority.lower().partition(":")
    if not _OLD_HOST.fullmatch(host) or not re.fullmatch("[0-9]*", port) or int(port or 0) > 65535:
        return MalformedUrl
    return Url(scheme, host, int(port) if port else _SCHEME_PORTS[scheme], path or "/", query)


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
    """Sorted build-side rows grouped per (token, field) key, then by tf, as
    read_index loads them: (tf, ascending doc ids) rows in ascending tf order."""
    by_key: dict[tuple[str, str], dict[int, list[int]]] = {}
    for token, field_name, doc_id, tf in postings:
        by_key.setdefault((token, field_name), {}).setdefault(tf, []).append(doc_id)
    return {
        key: PostingList(sorted(ids_by_tf.items())) for key, ids_by_tf in by_key.items()
    }


def posting_rows(index: Index) -> list[PostingRow]:
    """An index's per-key lists flattened back into build-side rows: in key
    order, each key's postings ascending by doc id."""
    return [
        (token, field_name, doc_id, tf)
        for (token, field_name), posting_list in index.posting_lists.items()
        for doc_id, tf in sorted(
            (doc_id, tf) for tf, doc_ids in posting_list.rows for doc_id in doc_ids
        )
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


class QuietHandler(BaseHTTPRequestHandler):
    """A request handler that logs nothing."""

    def log_message(self, *args):
        pass


class _LoopbackServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A client that hangs up early (a capped body, a timeout) is expected.
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)


# Proxy settings a CI runner may carry; cleared so no test traffic leaves 127.0.0.1.
_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def loopback(monkeypatch):
    """``serve(handler_class)`` runs a ThreadingHTTPServer on 127.0.0.1 and
    returns its base URL; ``tls=True`` serves https with the certificate
    ``TLS_CERT`` for 127.0.0.1. Every server stops when the test ends. Proxy
    variables are cleared, so a LiveTransport made in the test connects
    straight to the server. ``serve.stop`` is set at teardown, before the
    servers shut down, to release handlers that wait on it."""
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    servers = []

    def serve(handler: type[BaseHTTPRequestHandler], tls: bool = False) -> str:
        server = _LoopbackServer(("127.0.0.1", 0), handler)
        if tls:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(TLS_CERT, FIXTURES / "tls" / "key.pem")
            server.socket = context.wrap_socket(server.socket, server_side=True)
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"{'https' if tls else 'http'}://127.0.0.1:{server.server_port}"

    serve.stop = threading.Event()
    yield serve
    serve.stop.set()
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def corpus_proxy_handler(corpus: Corpus, stop: threading.Event) -> type[BaseHTTPRequestHandler]:
    """A forward proxy that answers each request from ``corpus``: it looks the
    request's absolute URL up in ``corpus.entries`` and sends the entry's
    status, Content-Type, Location (as UTF-8), body and latency. A URL not in
    the corpus gets the connection closed with no response; a ``hang`` entry
    gets no response until ``stop`` is set."""

    class CorpusProxy(QuietHandler):
        def do_GET(self):
            entry = corpus.entries.get(self.path)
            if entry is None or entry.hang:
                if entry is not None:
                    stop.wait()
                self.close_connection = True
                return
            if entry.latency_ms > 0:
                time.sleep(entry.latency_ms / 1000.0)
            self.send_response(entry.status)
            if entry.content_type is not None:
                self.send_header("Content-Type", entry.content_type)
            if entry.location is not None:  # send_header writes Latin-1
                self.send_header("Location", entry.location.encode().decode("latin-1"))
            self.send_header("Content-Length", str(len(entry.body)))
            self.end_headers()
            self.wfile.write(entry.body)

    return CorpusProxy


@pytest.fixture
def corpus_proxy(loopback, monkeypatch):
    """``serve(corpus)`` starts a loopback forward proxy for ``corpus`` and
    points ``http_proxy`` at it, so a LiveTransport made afterwards fetches
    every http URL of the corpus from 127.0.0.1, with no DNS."""

    def serve(corpus: Corpus) -> None:
        monkeypatch.setenv("http_proxy", loopback(corpus_proxy_handler(corpus, loopback.stop)))

    return serve
