from __future__ import annotations

import base64
import gzip
import socket
import threading
import time
import tracemalloc
from collections import Counter, deque
from contextlib import closing
from dataclasses import replace
from urllib.parse import quote

import pytest
import urllib3
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LONG_PORT_URL,
    TLS_CERT,
    QuietHandler,
    ThreadRecorder,
    clean_href,
    corpus_proxy_handler,
    crawl_config,
    outcome,
    rfc_url,
    run_pipeline,
    urljoin_departures,
    urljoin_url,
)
from onto_seeker.crawler import crawl
from onto_seeker.harness import (
    Corpus,
    CorpusEntry,
    CorpusTransport,
    SiteSpec,
    make_synthetic_site,
)
from onto_seeker.indexer import IndexLimits
from onto_seeker.netfetch import (
    _LINE_BREAKS,
    ConnectionFailed,
    FetchResponse,
    LiveTransport,
    MalformedUrl,
    PolitenessGate,
    Timeout,
    TooManyRedirects,
    UnsupportedScheme,
    Url,
    fetch_in_order,
    monotonic_ms,
    normalize_url,
)

BASE = Url.parse("http://a.example/dir/p.html")


class TestUrl:
    def test_parse_defaults_port(self):
        url = Url.parse("http://a.example/x")
        assert (url.scheme, url.host, url.port, url.path) == ("http", "a.example", 80, "/x")
        assert Url.parse("https://a.example/").port == 443

    def test_fragment_never_stored(self):
        assert str(Url.parse("http://a.example/p#frag")) == "http://a.example/p"

    def test_host_and_scheme_lowercased(self):
        assert str(Url.parse("HTTP://A.Example/P")) == "http://a.example/P"

    def test_explicit_default_port_round_trips(self):
        url = Url.parse("http://a.example:80/x")
        assert str(url) == "http://a.example/x"
        assert Url.parse(str(url)) == url

    def test_non_default_port_kept(self):
        assert str(Url.parse("http://a.example:8080/x")) == "http://a.example:8080/x"

    def test_empty_path_becomes_root(self):
        assert Url.parse("http://a.example").path == "/"

    def test_query_kept(self):
        url = Url.parse("http://a.example/p?x=1&y=2")
        assert url.query == "x=1&y=2"
        assert str(url) == "http://a.example/p?x=1&y=2"

    @pytest.mark.parametrize("raw", ["http://", "http:///x", "http://user@a.example/",
                                     "http://a.example:notaport/", "http://exa mple.com/"])
    def test_malformed(self, raw):
        with pytest.raises(MalformedUrl):
            Url.parse(raw)

    # Leading zeros do not count, so ":0080" is port 80, and any other run of
    # more than 5 digits is a bad port before int() meets its digit limit.
    def test_a_port_of_any_length_is_read_or_malformed(self):
        assert Url.parse("http://a.example:0080/").port == 80
        assert Url.parse("http://a.example:" + "0" * 5000 + "8080/").port == 8080
        for raw in (LONG_PORT_URL, "http://a.example:0123456/"):
            with pytest.raises(MalformedUrl, match="bad port"):
                Url.parse(raw)

    # An IP literal in brackets is refused, IPv6 and IPvFuture ones included.
    @pytest.mark.parametrize("raw", ["http://[x]/o.owl", "http://[1.2.3.4]/", "http://[v1.x]/o.owl",
                                     "http://[::1]/", "http://[::1]:8080/o.owl"])
    def test_bracketed_host_is_malformed(self, raw):
        with pytest.raises(MalformedUrl, match="bad host|unparseable"):
            Url.parse(raw)
        with pytest.raises(MalformedUrl):
            normalize_url(BASE, raw)

    # A byte surrogateescape decoded (an argument that is not UTF-8) is
    # percent-encoded as that byte, so str() of the Url is UTF-8.
    def test_surrogate_escaped_bytes_percent_encoded(self):
        url = Url.parse("http://a.example/\udcff.owl?q=\udcc3\udca9")
        assert str(url) == "http://a.example/%FF.owl?q=%C3%A9"
        assert Url.parse(str(url)) == url
        assert str(normalize_url(BASE, "\udc80")) == "http://a.example/dir/%80"

    @pytest.mark.parametrize("char", ["\ud800", "\udbff", "\udc00", "\udc7f", "\udfff"], ids=ascii)
    def test_other_lone_surrogates_are_malformed(self, char):
        with pytest.raises(MalformedUrl, match="lone surrogate"):
            Url.parse(f"http://a.example/{char}.owl")

    @pytest.mark.parametrize("raw", ["ftp://a.example/x", "mailto:x@y", "javascript:void(0)",
                                     "data:text/plain,hi", "file:///etc/passwd"])
    def test_unsupported_scheme(self, raw):
        with pytest.raises(UnsupportedScheme):
            Url.parse(raw)


class TestNormalizeUrl:
    def test_dot_segments_collapse(self):
        assert str(normalize_url(BASE, "../x.owl")) == "http://a.example/x.owl"

    def test_absolute_href_with_fragment(self):
        url = normalize_url(Url.parse("http://a.example/"), "http://b.example/o.rdf#Person")
        assert str(url) == "http://b.example/o.rdf"

    @pytest.mark.parametrize("href", ["http://[::1", "//[", "http://[x]/"])
    def test_unjoinable_href_is_malformed(self, href):
        with pytest.raises(MalformedUrl):
            normalize_url(BASE, href)

    def test_mailto_rejected(self):
        with pytest.raises(UnsupportedScheme):
            normalize_url(Url.parse("http://a.example/"), "mailto:x@y")

    def test_relative_path(self):
        assert str(normalize_url(BASE, "q.html")) == "http://a.example/dir/q.html"

    def test_protocol_relative(self):
        assert str(normalize_url(BASE, "//b.example/z")) == "http://b.example/z"

    def test_empty_href_is_base_sans_fragment(self):
        assert str(normalize_url(BASE, "")) == str(BASE)

    def test_whitespace_stripped(self):
        assert str(normalize_url(BASE, "  q.html \n")) == "http://a.example/dir/q.html"

    @pytest.mark.parametrize("href", ["0\x0c#0", "q.html?a=1 #top", "q.html\u3000#x"])
    def test_whitespace_before_fragment_dropped(self, href):
        url = normalize_url(BASE, href)
        assert str(url) == str(url).strip()
        assert normalize_url(BASE, str(url)) == url

    # The characters str.splitlines breaks at, other than CR and LF.
    @pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), ids=ascii)
    def test_line_break_inside_href_percent_encoded(self, char):
        url = normalize_url(BASE, f"a{char}b.owl?q={char}c")
        assert str(url) == f"http://a.example/dir/a{quote(char)}b.owl?q={quote(char)}c"
        assert str(url).splitlines() == [str(url)]
        assert Url.parse(str(url)) == url

    # A scheme-like head that does not start with a letter is a relative path.
    @pytest.mark.parametrize(
        "href,expected",
        [
            (".http:x", "http://a.example/dir/.http:x"),
            ("..\t:80", "http://a.example/dir/..:80"),
            ("1:y", "http://a.example/dir/1:y"),
            ("+a:b?q", "http://a.example/dir/+a:b?q"),
            ("\x01-x:y", "http://a.example/dir/-x:y"),
            ("8\n0:z", "http://a.example/dir/80:z"),
        ],
        ids=ascii,
    )
    def test_non_letter_scheme_is_a_relative_path(self, href, expected):
        assert str(normalize_url(BASE, href)) == expected

    @given(st.text(max_size=40))
    def test_idempotent_on_arbitrary_hrefs(self, href):
        try:
            first = normalize_url(BASE, href)
        except (UnsupportedScheme, MalformedUrl):
            return
        again = normalize_url(BASE, str(first))
        assert again == first

    @given(st.text(alphabet="abc/.#?:%20", max_size=30))
    def test_round_trip_parse_serialize(self, tail):
        try:
            url = normalize_url(BASE, "/" + tail)
        except (UnsupportedScheme, MalformedUrl):
            return
        assert Url.parse(str(url)) == url


JOIN_BASES = [
    Url.parse(raw)
    for raw in (
        "http://a.example/dir/p.html",
        "https://a.example/",
        "http://a.example:8080/d/?q=1",
        "https://b.example:0/x;p",
        "http://a.example/d/x?",
        "http://a.example/d/x;",
    )
]
# Hrefs of common shapes, about half of them with one piece added that makes
# urljoin differ from a plain split or needs Url.parse's checks: dot
# segments, params, an empty query, a fragment, escapes, "//", ports,
# userinfo, brackets, inner whitespace and line breaks.
HREF_PREFIXES = ["/", "http://b.example", "https://b.example", "HTTP://b.example",
                 "http://B.Example", "//b.example", "", "\t/", "#", "mailto:", "Mailto:",
                 "javascript:", "ftp://", "data:"]
HREF_SAFE_PARTS = ["/", "a", "Z", "0", "-", "_", "~", "=", "&", "'", "(", "!", "*", "+", ",", "$",
                   "x.owl", "?q", "#f"]
HREF_RISKY_PARTS = [".", "..", ";", "?", "#", "%", "//", ":80", ":+80", ":0", "user@", "[", "\t",
                    "\n", " ", "\\", "\u00e9", *_LINE_BREAKS.pattern[1:-1]]


@st.composite
def hrefs(draw) -> str:
    parts = [draw(st.sampled_from(HREF_PREFIXES))]
    parts += draw(st.lists(st.sampled_from(HREF_SAFE_PARTS), max_size=8))
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(HREF_RISKY_PARTS)))
    return "".join(parts)


def _agrees_with_the_oracles(base: Url, href: str) -> None:
    """normalize_url gives the RFC oracle's answer, and urljoin's outside
    the listed classes."""
    got = outcome(normalize_url, base, href)
    assert got == rfc_url(base, href), (base, href, got)
    if not urljoin_departures(str(base), clean_href(href)):
        assert got == urljoin_url(base, href), (base, href, got)


class TestHrefResolution:
    """normalize_url resolves by RFC 3986 section 5.2, strict, as resolve_iri
    does: as the RFC oracle on every href, and as urljoin and urlsplit
    outside the listed classes."""

    @settings(max_examples=500)
    @given(st.sampled_from(JOIN_BASES), hrefs())
    def test_agrees_with_the_oracles(self, base, href):
        _agrees_with_the_oracles(base, href)

    @pytest.mark.parametrize("base", JOIN_BASES, ids=str)
    @pytest.mark.parametrize(
        "href",
        ["/", "/a/b.html", "/a//b", "/a?q=1&r=/s?t", "/a#f", "/a?q#f", "http://b.example",
         "http://b.example?q", "https://b.example/a/b.owl#x", "http://b.example/x",
         "mailto:x@y", "Mailto:x@y", "javascript:void(0)", "data:,x", "urn:isbn:1#f", "ftp:x",
         "a.html", "../a.html", "./a/./b.owl", "?q", "1x:y", "/a%2Fb", "/a\u2028b"],
    )
    def test_common_shapes_resolve_as_urljoin(self, base, href):
        assert outcome(normalize_url, base, href) == urljoin_url(base, href)

    @pytest.mark.parametrize("base", JOIN_BASES, ids=str)
    @pytest.mark.parametrize(
        "href",
        ["//b.example/x", "/a/./b", "/a/../b", "/a/.", "/a;p", "/a;", "/a?", "/a?#f", "/a b",
         "/a\tb", "/a\nb", "HTTP://b.example/", "http://B.example/", "http://b.example:80/",
         "http://b.example:+80/", "http://b.example:0/", "http://b.example:65536/",
         "http://u@b.example/", "http://[::1]/", "", "http:x", "HTTPS:x", "ftp://x/y",
         "ftp://[x", "x:/\n/[y", "x:\t//[y", "mail\tto:x", "http://b.example/a/../c",
         "///x", "//", ".;x"],
    )
    def test_odd_shapes_agree_with_the_oracles(self, base, href):
        _agrees_with_the_oracles(base, href)

    # A port run past int()'s 4,300-digit limit, long or only zero-padded.
    @pytest.mark.parametrize("base", JOIN_BASES, ids=str)
    def test_a_long_port_agrees_with_the_oracles(self, base):
        _agrees_with_the_oracles(base, LONG_PORT_URL)
        href = "//b.example:" + "0" * 5000 + "80/"
        assert outcome(normalize_url, base, href) == rfc_url(base, href)
        assert normalize_url(base, href).port == 80

    # A fragment-only href names the base itself, an empty query included.
    @pytest.mark.parametrize("base", JOIN_BASES, ids=str)
    @pytest.mark.parametrize("href", ["#f", "#", "#a b#c"])
    def test_fragment_only_href_is_the_base(self, base, href):
        assert normalize_url(base, href) == base

    # RFC 3986 section 5.2.2: a fragment- or query-only href keeps the whole
    # path of the base, a ";" ending it included, and an empty query is a
    # query.
    @pytest.mark.parametrize(
        "base, href, expected",
        [
            ("http://a.example/x;", "#top", "http://a.example/x;"),
            ("http://a.example/x;", "?q", "http://a.example/x;?q"),
            ("http://a.example/x;?b", "#top", "http://a.example/x;?b"),
            ("http://a.example/x;?", "#top", "http://a.example/x;?"),
            ("http://a.example/d;/x;", "?q#f", "http://a.example/d;/x;?q"),
            ("http://a.example/x;", "y", "http://a.example/y"),
        ],
    )
    def test_semicolon_ending_the_base_path_is_kept(self, base, href, expected):
        assert normalize_url(Url.parse(base), href) == Url.parse(expected)

    # A page's own "#top" is the page: urljoin dropped the empty query, so the
    # crawl took http://a.example/x for another document.
    @pytest.mark.parametrize(
        "base, href, expected",
        [
            ("http://a.example/x?", "#top", "http://a.example/x?"),
            ("http://a.example/x?q", "?", "http://a.example/x?"),
            ("http://a.example/x", "y?#f", "http://a.example/y?"),
            ("http://a.example/x", "http://b.example/y?", "http://b.example/y?"),
        ],
    )
    def test_empty_query_is_kept(self, base, href, expected):
        url = normalize_url(Url.parse(base), href)
        assert str(url) == expected
        assert Url.parse(expected) == url

    # Strict: a ref with a scheme keeps it, so "http:g" has no host.
    @pytest.mark.parametrize("href", ["http:g", "HTTP:g", "https:g", "http:/g"])
    def test_same_scheme_ref_without_authority_is_malformed(self, href):
        with pytest.raises(MalformedUrl):
            normalize_url(BASE, href)

    @pytest.mark.parametrize(
        "href, expected",
        [
            ("http://b.example/a/../c", "http://b.example/c"),
            ("//b.example/./x/..", "http://b.example/"),
            ("/a/./b/../c", "http://a.example/a/c"),
        ],
    )
    def test_dot_segments_removed_from_every_href(self, href, expected):
        assert str(normalize_url(BASE, href)) == expected

    # A seed, a URL-file line or an explain URL names a page as an href does.
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("http://a.example/x/../p.html", "http://a.example/p.html"),
            ("http://a.example/./x/..?q", "http://a.example/?q"),
            ("http://a.example/..", "http://a.example/"),
            ("http://a.example/.a/..b/c.", "http://a.example/.a/..b/c."),
        ],
    )
    def test_url_parse_removes_dot_segments(self, raw, expected):
        assert str(Url.parse(raw)) == expected
        assert Url.parse(raw) == normalize_url(BASE, raw)

    @pytest.mark.parametrize("href", ["//", "///x", "http://", "http://:80/"])
    def test_empty_host_is_malformed(self, href):
        with pytest.raises(MalformedUrl):
            normalize_url(BASE, href)


class TestPolitenessGate:
    def test_first_request_waits_zero(self):
        gate = PolitenessGate(300)
        assert gate.acquire_slot("h", now_ms=1000.0) == 0

    def test_immediate_second_request_waits_politeness(self):
        gate = PolitenessGate(300)
        gate.acquire_slot("h", now_ms=1000.0)
        assert gate.acquire_slot("h", now_ms=1000.0) == 300

    def test_distinct_hosts_independent(self):
        gate = PolitenessGate(300)
        gate.acquire_slot("h", now_ms=1000.0)
        assert gate.acquire_slot("g", now_ms=1000.0) == 0

    def test_global_mode_serializes_all_hosts(self):
        gate = PolitenessGate(300, per_host=False)
        gate.acquire_slot("h", now_ms=1000.0)
        assert gate.acquire_slot("g", now_ms=1000.0) == 300

    def test_wait_elapses_then_zero(self):
        gate = PolitenessGate(300)
        gate.acquire_slot("h", now_ms=1000.0)
        assert gate.acquire_slot("h", now_ms=1500.0) == 0

    def test_zero_politeness_never_waits(self):
        gate = PolitenessGate(0)
        assert [gate.acquire_slot("h", now_ms=5.0) for _ in range(10)] == [0] * 10

    @given(
        st.lists(
            st.tuples(st.sampled_from(["h1", "h2", "h3"]), st.integers(0, 50)),
            min_size=1,
            max_size=40,
        ),
        st.integers(1, 100),
    )
    def test_grant_spacing_invariant(self, calls, politeness):
        gate = PolitenessGate(politeness)
        now = 0.0
        grants: dict[str, list[float]] = {}
        for host, jitter in calls:
            now += jitter
            wait = gate.acquire_slot(host, now_ms=now)
            assert wait >= 0
            grants.setdefault(host, []).append(now + wait)
        for times in grants.values():
            for earlier, later in zip(times, times[1:]):
                assert later - earlier >= politeness

    def test_concurrent_grants_spaced(self):
        gate = PolitenessGate(10)
        grants: list[float] = []
        lock = threading.Lock()

        def hammer():
            for _ in range(20):
                now = 0.0
                wait = gate.acquire_slot("h", now_ms=now)
                with lock:
                    grants.append(now + wait)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        grants.sort()
        assert all(b - a >= 10 for a, b in zip(grants, grants[1:]))


def _numbered_corpus(count: int, latency_ms: int = 0) -> Corpus:
    corpus = Corpus()
    for i in range(count):
        corpus.add(f"http://h{i % 3}.test/{i}", CorpusEntry(200, "text/html", b"%d" % i, latency_ms))
    return corpus


class TestFetchInOrder:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_come_back_in_the_order_taken(self, workers):
        corpus = _numbered_corpus(40)
        pending = deque((Url.parse(f"http://h{i % 3}.test/{i}"), i) for i in range(40) if i % 2)
        pending.append((Url.parse("http://h0.test/absent"), "absent"))
        results = fetch_in_order(CorpusTransport(corpus), PolitenessGate(0), pending, 1024, workers)
        tags = []
        for url, tag, resp in results:
            if tag == "absent":
                assert isinstance(resp, ConnectionFailed)
            else:
                assert isinstance(resp, FetchResponse) and resp.body == b"%d" % tag
                assert str(url) == f"http://h{tag % 3}.test/{tag}"
                if tag % 2 and tag + 1 < 40:  # the caller may keep appending as it reads
                    pending.append((Url.parse(f"http://h{(tag + 1) % 3}.test/{tag + 1}"), tag + 1))
            tags.append(tag)
        odd = list(range(1, 40, 2))
        assert tags[: len(odd) + 1] == [*odd, "absent"]
        assert tags[len(odd) + 1 :] == [tag + 1 for tag in odd if tag + 1 < 40]

    def test_one_worker_fetches_on_the_calling_thread(self):
        transport = ThreadRecorder(CorpusTransport(_numbered_corpus(10)))
        pending = deque((Url.parse(f"http://h{i % 3}.test/{i}"), i) for i in range(10))
        assert len(list(fetch_in_order(transport, PolitenessGate(0), pending, 1024, 1))) == 10
        assert set(transport.threads) == {threading.current_thread()}

    def test_a_consumer_that_raises_leaves_no_pool_thread(self):
        transport = ThreadRecorder(CorpusTransport(_numbered_corpus(200, latency_ms=1)))
        pending = deque((Url.parse(f"http://h{i % 3}.test/{i}"), i) for i in range(200))
        with pytest.raises(RuntimeError) as failure:
            with closing(fetch_in_order(transport, PolitenessGate(0), pending, 1024, 2)) as results:
                for _url, tag, _resp in results:
                    if tag == 5:
                        raise RuntimeError("consumer failed")
        assert failure.traceback  # the generator outlives the raise; closing stops its pool
        assert transport.threads and threading.current_thread() not in transport.threads
        assert not any(thread.is_alive() for thread in transport.threads)
        assert len(transport.threads) < 200  # the fetches not yet started were cancelled


def _corpus_with(url: str, entry: CorpusEntry) -> CorpusTransport:
    corpus = Corpus()
    corpus.add(url, entry)
    return CorpusTransport(corpus)


class TestCorpusFetch:
    def test_echoes_entry(self):
        transport = _corpus_with(
            "http://h.test/p", CorpusEntry(200, "text/html", b"<html></html>")
        )
        resp = transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)
        assert (resp.status, resp.content_type, resp.body) == (200, "text/html", b"<html></html>")

    def test_http_error_status_is_data(self):
        transport = _corpus_with("http://h.test/p", CorpusEntry(404, "text/html", b"nope"))
        resp = transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)
        assert resp.status == 404

    def test_absent_url_is_connection_failed(self):
        transport = CorpusTransport(Corpus())
        with pytest.raises(ConnectionFailed):
            transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)

    def test_timeout_entry(self):
        transport = _corpus_with("http://h.test/p", CorpusEntry(hang=True))
        with pytest.raises(Timeout):
            transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)

    def test_truncates_to_max_body_bytes(self):
        transport = _corpus_with("http://h.test/p", CorpusEntry(200, "text/html", b"x" * 100))
        resp = transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=10)
        assert len(resp.body) == 10

    @given(st.binary(max_size=64), st.integers(1, 32))
    def test_body_never_exceeds_limit(self, body, limit):
        transport = _corpus_with("http://h.test/p", CorpusEntry(200, None, body))
        resp = transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=limit)
        assert len(resp.body) <= limit


# One corpus for the redirect rule: every 3xx the rule follows, relative,
# cross-host and protocol-relative Locations, and the responses it returns.
REDIRECTS = {
    "http://h.test/r301": CorpusEntry(301, None, b"", location="/r302"),
    "http://h.test/r302": CorpusEntry(302, "text/html", b"moved", location="http://g.test/d/r303"),
    "http://g.test/d/r303": CorpusEntry(303, None, b"", location="../r307?x=1"),
    "http://g.test/r307?x=1": CorpusEntry(307, None, b"", location="//h.test/r308"),
    "http://h.test/r308": CorpusEntry(308, None, b"", location="end.html#top"),
    "http://h.test/end.html": CorpusEntry(200, "text/html", b"the end"),
    "http://h.test/no-location": CorpusEntry(302, "text/plain", b"nowhere"),
    "http://h.test/multiple": CorpusEntry(300, "text/html", b"choose", location="/end.html"),
    "http://h.test/not-modified": CorpusEntry(304, None, b"", location="/end.html"),
    "http://h.test/ftp": CorpusEntry(302, None, b"", location="ftp://files.test/o.owl"),
    "http://h.test/bracket": CorpusEntry(302, None, b"", location="http://[::1"),
    "http://h.test/to-missing": CorpusEntry(302, None, b"", location="/missing"),
    "http://h.test/long-port": CorpusEntry(302, None, b"", location=LONG_PORT_URL),
    "http://h.test/404": CorpusEntry(404, "text/html", b"gone"),
    "http://h.test/hang": CorpusEntry(hang=True),
    **{
        f"http://h.test/loop{i}": CorpusEntry(301, None, b"", location=f"/loop{(i + 1) % 6}")
        for i in range(6)
    },
}


@pytest.fixture(params=["corpus", "live"])
def transport_over(request, corpus_proxy):
    """Makes the transport under test for a corpus: CorpusTransport, or a
    LiveTransport fetching it through the loopback proxy."""

    def make(corpus: Corpus, timeout_s: float = 5.0):
        if request.param == "corpus":
            return CorpusTransport(corpus)
        corpus_proxy(corpus)
        return LiveTransport(timeout_s=timeout_s)

    return make


class TestRedirectParity:
    """Both transports follow redirects by netfetch.follow_redirects alone."""

    @pytest.mark.parametrize(
        "start,expected",
        [
            ("http://h.test/r301", ("http://h.test/end.html", 200, "text/html", b"the end")),
            ("http://g.test/r307?x=1", ("http://h.test/end.html", 200, "text/html", b"the end")),
            ("http://h.test/end.html", ("http://h.test/end.html", 200, "text/html", b"the end")),
            ("http://h.test/no-location",
             ("http://h.test/no-location", 302, "text/plain", b"nowhere")),
            ("http://h.test/multiple", ("http://h.test/multiple", 300, "text/html", b"choose")),
            ("http://h.test/not-modified", ("http://h.test/not-modified", 304, None, b"")),
            ("http://h.test/404", ("http://h.test/404", 404, "text/html", b"gone")),
            ("http://h.test/ftp", ConnectionFailed),
            ("http://h.test/bracket", ConnectionFailed),
            ("http://h.test/to-missing", ConnectionFailed),
            ("http://h.test/long-port", ConnectionFailed),
            ("http://h.test/loop0", TooManyRedirects),
        ],
    )
    def test_one_rule_on_both_transports(self, transport_over, start, expected):
        transport = transport_over(Corpus(dict(REDIRECTS)))
        if isinstance(expected, type):
            with pytest.raises(expected):
                transport.fetch(Url.parse(start), max_body_bytes=1024)
            return
        resp = transport.fetch(Url.parse(start), max_body_bytes=1024)
        assert (str(resp.final_url), resp.status, resp.content_type, resp.body) == expected

    def test_five_redirects_are_followed_and_a_sixth_is_not(self, transport_over):
        corpus = Corpus(dict(REDIRECTS))
        corpus.add("http://h.test/loop5", CorpusEntry(301, None, b"", location="/out"))
        corpus.add("http://h.test/out", CorpusEntry(200, "text/html", b"out"))
        transport = transport_over(corpus)
        resp = transport.fetch(Url.parse("http://h.test/loop1"), max_body_bytes=1024)
        assert (str(resp.final_url), resp.body) == ("http://h.test/out", b"out")
        with pytest.raises(TooManyRedirects):
            transport.fetch(Url.parse("http://h.test/loop0"), max_body_bytes=1024)

    def test_hang_is_timeout(self, transport_over):
        transport = transport_over(Corpus(dict(REDIRECTS)), timeout_s=0.2)
        with pytest.raises(Timeout):
            transport.fetch(Url.parse("http://h.test/hang"), max_body_bytes=1024)


@pytest.mark.parametrize(
    "content_type,expected",
    [
        ("text/html", "text/html"),
        ("text/html; charset=utf-8", "text/html"),
        ("Text/Turtle", "text/turtle"),
        ("application/rdf+xml; charset=utf-8", "application/rdf+xml"),
        (" text/plain ;q=1", "text/plain"),
        ("", None),
        (None, None),
    ],
)
def test_one_media_type_rule_on_both_transports(transport_over, content_type, expected):
    """Both transports reduce Content-Type by netfetch.media_type alone."""
    transport = transport_over(Corpus({"http://h.test/p": CorpusEntry(200, content_type, b"x")}))
    resp = transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)
    assert resp.content_type == expected


def _faulted_copy(corpus: Corpus, truth) -> tuple[Corpus, IndexLimits]:
    """A copy of a generated corpus with one of each fixed fault, and index
    limits that the one oversize ontology exceeds. The pages that fail are
    leaves linking no ontology, so a crawl that reads every working page still
    finds every ontology URL."""
    faulted = Corpus(dict(corpus.entries))
    entries = faulted.entries
    charset_page, redirected_page = sorted(u for u, d in truth.page_depths.items() if d == 1)[:2]
    leaves = sorted(
        url for url, depth in truth.page_depths.items()
        if depth == max(truth.page_depths.values()) and b"/onto/" not in corpus.entries[url].body
    )
    entries[charset_page] = replace(entries[charset_page], content_type="text/html; charset=UTF-8")
    entries[leaves[0]] = replace(entries[leaves[0]], status=404)
    del entries[leaves[1]]  # a connection error
    host_root = redirected_page[: redirected_page.index("/", len("http://"))]
    entries[host_root + "/moved/b.html"] = entries[redirected_page]
    entries[redirected_page] = CorpusEntry(301, None, b"", location="/moved/a")
    entries[host_root + "/moved/a"] = CorpusEntry(302, None, b"", location="b.html")

    ontologies = sorted(truth.reachable_ontology_urls)
    rdf_xml = next(url for url in ontologies if corpus.entries[url].body.startswith(b"<?xml"))
    failing, oversize = [url for url in ontologies if url != rdf_xml][:2]
    # A stylesheet instruction defeats the RDF/XML sniff, so only the declared
    # media type, once its parameter is dropped, lets the document parse.
    entries[rdf_xml] = CorpusEntry(
        200,
        "application/rdf+xml; charset=utf-8",
        corpus.entries[rdf_xml].body.replace(
            b"?>\n", b'?>\n<?xml-stylesheet type="text/xsl" href="/o.xsl"?>\n', 1
        ),
    )
    entries[failing] = replace(entries[failing], status=500)
    entries[oversize] = replace(entries[oversize], body=entries[oversize].body + b" " * 4096)
    return faulted, IndexLimits(max_ontology_bytes=4096, politeness_ms=0)


def _pipeline_through_both_transports(tmp_path, corpus_proxy, corpus, truth, workers, limits):
    """Crawl and index ``corpus`` through CorpusTransport and through a
    LiveTransport over the loopback proxy; for each, the bytes written, the
    crawl report's counts and the manifest's skip counts."""
    corpus_proxy(corpus)
    runs = []
    for name, transport in [("corpus", CorpusTransport(corpus)), ("live", LiveTransport(5.0))]:
        report, manifest, written = run_pipeline(
            tmp_path / name, transport, truth.root_url, limits,
            max_pages=len(truth.page_depths), worker_count=workers,
        )
        runs.append({
            "bytes": written,
            "crawl": (report.pages_fetched, report.ontologies_found, report.errors,
                      report.status_histogram),
            "skips": manifest.skip_counts,
        })
    return runs


SEED_7 = SiteSpec(seed=7, page_count=120, ontology_count=30, host_count=3)


@pytest.mark.parametrize("workers", [1, 4])
def test_pipeline_output_equal_through_the_live_transport(tmp_path, corpus_proxy, workers):
    corpus, truth = make_synthetic_site(SEED_7)
    runs = _pipeline_through_both_transports(
        tmp_path, corpus_proxy, corpus, truth, workers, IndexLimits(politeness_ms=0)
    )
    assert runs[0] == runs[1]
    assert set(runs[0]["bytes"]["urls.txt"].decode().split()) == truth.reachable_ontology_urls


@pytest.mark.parametrize("workers", [1, 4])
def test_faulted_pipeline_output_equal_through_the_live_transport(
    tmp_path, corpus_proxy, workers
):
    corpus, truth = make_synthetic_site(SEED_7)
    faulted, limits = _faulted_copy(corpus, truth)
    runs = _pipeline_through_both_transports(
        tmp_path, corpus_proxy, faulted, truth, workers, limits
    )
    assert runs[0] == runs[1]
    assert set(runs[0]["bytes"]["urls.txt"].decode().split()) == truth.reachable_ontology_urls
    pages, ontologies = len(truth.page_depths), len(truth.reachable_ontology_urls)
    # Redirects are followed, never counted; the missing page is an error.
    assert runs[0]["crawl"] == (pages, ontologies, 1, {200: pages - 2, 404: 1})
    skips = runs[0]["skips"]
    assert (skips["fetch_error"], skips["oversize"], skips["unsupported_syntax"]) == (1, 1, 0)


def test_live_crawl_politeness_gaps_seen_at_the_server(tmp_path, loopback, monkeypatch):
    """A server sees each request at least 100 ms after the gate granted the
    same host's previous request. The proxy stamps arrivals on this process's
    monotonic clock, the one the gate reads, and a late thread only makes an
    arrival later."""
    corpus, truth = make_synthetic_site(
        SiteSpec(seed=7, page_count=11, ontology_count=3, host_count=2)
    )
    arrivals, grants = {}, []

    class ArrivalLoggingProxy(corpus_proxy_handler(corpus, loopback.stop)):
        def do_GET(self):
            arrivals[self.path] = monotonic_ms()
            super().do_GET()

    class GrantLoggingTransport(LiveTransport):
        def fetch(self, url, max_body_bytes, issued_at_ms=None):
            grants.append((url.host, issued_at_ms, str(url)))
            return super().fetch(url, max_body_bytes, issued_at_ms)

    monkeypatch.setenv("http_proxy", loopback(ArrivalLoggingProxy))
    config = crawl_config(
        tmp_path, [truth.root_url], max_pages=11, worker_count=4, politeness_ms=100
    )
    crawl(config, GrantLoggingTransport(5.0))
    pages_per_host = Counter(Url.parse(page).host for page in truth.page_depths)
    assert Counter(host for host, _, _ in grants) == pages_per_host
    assert min(pages_per_host.values()) >= 2
    assert arrivals.keys() == truth.page_depths.keys()
    for host in pages_per_host:
        granted = sorted((grant, url) for grant_host, grant, url in grants if grant_host == host)
        for (previous_grant, _), (_, url) in zip(granted, granted[1:]):
            assert arrivals[url] - previous_grant >= 100.0


def _handler(respond):
    """A one-off handler class whose GET calls ``respond(handler)``."""
    return type("OneOff", (QuietHandler,), {"do_GET": respond})


def _send(handler, status=200, body=b"ok", **headers):
    handler.send_response(status)
    for name, value in headers.items():
        handler.send_header(name.replace("_", "-"), value)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


class TestLiveTransport:
    def test_server_sees_user_agent(self, loopback):
        from onto_seeker import __version__

        seen = []
        base = loopback(_handler(lambda h: seen.append(h.headers["User-Agent"]) or _send(h)))
        LiveTransport().fetch(Url.parse(base + "/p"), max_body_bytes=1024)
        assert seen == [f"onto-seeker/{__version__}"]

    def test_env_var_overrides_user_agent(self, loopback, monkeypatch):
        monkeypatch.setenv("ONTO_SEEKER_UA", "research-bot/9")
        seen = []
        base = loopback(_handler(lambda h: seen.append(h.headers["User-Agent"]) or _send(h)))
        LiveTransport().fetch(Url.parse(base + "/p"), max_body_bytes=1024)
        assert seen == ["research-bot/9"]

    def test_media_type_params_stripped_and_body_capped(self, loopback):
        base = loopback(
            _handler(lambda h: _send(h, body=b"x" * 100, Content_Type="Text/HTML; charset=utf-8"))
        )
        resp = LiveTransport().fetch(Url.parse(base + "/p"), max_body_bytes=10)
        assert (resp.content_type, resp.body) == ("text/html", b"x" * 10)
        assert str(resp.final_url) == base + "/p"

    def test_connection_closed_mid_body_is_connection_failed(self, loopback):
        def respond(handler):
            handler.send_response(200)
            handler.send_header("Content-Length", "100")
            handler.end_headers()
            handler.wfile.write(b"x" * 10)  # then the handler returns and closes

        base = loopback(_handler(respond))
        with pytest.raises(ConnectionFailed) as err:
            LiveTransport().fetch(Url.parse(base + "/p"), max_body_bytes=1024)
        assert isinstance(err.value.__cause__, urllib3.exceptions.HTTPError)

    def test_refused_port_is_connection_failed(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]  # nothing listens once it closes
        with pytest.raises(ConnectionFailed):
            LiveTransport().fetch(Url.parse(f"http://127.0.0.1:{port}/p"), max_body_bytes=1024)

    def test_path_is_sent_percent_encoded(self, loopback):
        seen = []
        base = loopback(_handler(lambda h: seen.append(h.path) or _send(h)))
        resp = LiveTransport().fetch(Url.parse(base + "/a b/é.owl?q=é 1"), 1024)
        assert seen == ["/a%20b/%C3%A9.owl?q=%C3%A9%201"]
        assert resp.final_url.path == "/a b/é.owl"

    def test_proxy_credentials_are_sent_to_the_proxy(self, loopback, monkeypatch):
        seen = []
        proxy = loopback(
            _handler(lambda h: seen.append(h.headers["Proxy-Authorization"]) or _send(h))
        )
        monkeypatch.setenv("http_proxy", proxy.replace("http://", "http://bot:p%40ss@"))
        LiveTransport().fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)
        assert seen == ["Basic " + base64.b64encode(b"bot:p@ss").decode()]

    def test_no_proxy_host_is_fetched_directly(self, loopback, monkeypatch):
        direct = loopback(_handler(lambda h: _send(h, body=b"direct")))
        proxy = loopback(_handler(lambda h: _send(h, body=b"proxied")))
        monkeypatch.setenv("http_proxy", proxy.removeprefix("http://"))
        monkeypatch.setenv("no_proxy", "example.org,127.0.0.1")
        assert LiveTransport().fetch(Url.parse(direct + "/p"), 1024).body == b"direct"
        monkeypatch.setenv("no_proxy", "example.org")
        assert LiveTransport().fetch(Url.parse(direct + "/p"), 1024).body == b"proxied"

    def test_tls_is_verified_against_the_trust_store(self, loopback, monkeypatch):
        url = Url.parse(loopback(_handler(lambda h: _send(h, body=b"secure")), tls=True) + "/p")
        with pytest.raises(ConnectionFailed, match="CERTIFICATE_VERIFY_FAILED"):
            LiveTransport().fetch(url, max_body_bytes=1024)
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        assert LiveTransport().fetch(url, max_body_bytes=1024).body == b"secure"

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s"):
            LiveTransport(timeout_s=timeout_s)

    @pytest.mark.parametrize("framing", ["Content-Length", "chunked"])
    def test_dripped_body_times_out_soon_after_the_deadline(self, loopback, framing):
        class _Drips(QuietHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                if framing == "chunked":
                    self.send_header("Transfer-Encoding", "chunked")
                else:
                    self.send_header("Content-Length", "40")
                self.end_headers()
                for _ in range(40):  # one byte every 0.1 s: 4 s in all
                    self.wfile.write(b"1\r\nx\r\n" if framing == "chunked" else b"x")
                    self.wfile.flush()
                    time.sleep(0.1)

        url = Url.parse(loopback(_Drips) + "/p")
        started = time.monotonic()
        with pytest.raises(Timeout):
            LiveTransport(timeout_s=0.5).fetch(url, max_body_bytes=1024)
        # The deadline plus at most one socket wait (here a 0.1 s drip).
        assert 0.5 <= time.monotonic() - started < 1.5

    def test_gzip_body_is_decoded_and_capped_in_decoded_bytes(self, loopback):
        page = b"<p>hello</p>" * 1000
        encoded = gzip.compress(page)
        base = loopback(
            _handler(lambda h: _send(h, body=encoded, Content_Type="text/html",
                                     Content_Encoding="gzip"))
        )
        transport = LiveTransport(timeout_s=5.0)
        url = Url.parse(base + "/p")
        assert transport.fetch(url, max_body_bytes=len(page) + 1).body == page
        assert transport.fetch(url, max_body_bytes=len(encoded)).body == page[: len(encoded)]

    def test_cookies_neither_stored_nor_sent(self, loopback):
        sent_cookies = []

        class _SetsCookies(QuietHandler):
            def do_GET(self):
                sent_cookies.append(self.headers.get("Cookie"))
                self.send_response(200)
                self.send_header("Set-Cookie", "session=abc; Path=/")
                self.send_header("Set-Cookie", "track=1; Path=/; Max-Age=3600")
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"ok")

        transport = LiveTransport(timeout_s=5.0)
        url = Url.parse(loopback(_SetsCookies) + "/p")
        for _ in range(2):
            assert transport.fetch(url, max_body_bytes=1024).body == b"ok"
        assert sent_cookies == [None, None]


class TestLiveRedirects:
    """What the live transport does with a redirect before the shared rule
    sees it: its body is never read, and the fetch's one deadline spans all
    hops."""

    def test_location_not_utf8_is_an_unusable_target(self, loopback):
        base = loopback(_handler(lambda h: _send(h, 302, b"", Location="/caf\xe9")))
        with pytest.raises(ConnectionFailed, match="utf-8"):
            LiveTransport().fetch(Url.parse(base + "/p"), max_body_bytes=1024)

    def test_location_in_utf8_is_followed(self, loopback):
        def respond(handler):
            if handler.path == "/p":
                _send(handler, 302, b"", Location="/café".encode().decode("latin-1"))
            else:
                _send(handler, body=handler.path.encode())

        base = loopback(_handler(respond))
        resp = LiveTransport().fetch(Url.parse(base + "/p"), max_body_bytes=1024)
        assert (resp.final_url.path, resp.body) == ("/café", b"/caf%C3%A9")

    def test_dripped_redirect_body_is_not_read(self, loopback):
        def respond(handler):
            if handler.path != "/p":
                return _send(handler, body=b"target")
            handler.send_response(302)
            handler.send_header("Location", "/target")
            handler.send_header("Content-Length", "40")
            handler.end_headers()
            for _ in range(40):  # one byte every 0.1 s: 4 s in all
                handler.wfile.write(b"x")
                handler.wfile.flush()
                time.sleep(0.1)

        base = loopback(_handler(respond))
        started = time.monotonic()
        resp = LiveTransport(timeout_s=0.5).fetch(Url.parse(base + "/p"), max_body_bytes=1024)
        assert resp.body == b"target"
        assert time.monotonic() - started < 0.4

    def test_large_redirect_body_is_not_read(self, loopback):
        chunk = b"x" * (1 << 20)

        def respond(handler):
            if handler.path != "/p":
                return _send(handler, body=b"target")
            handler.send_response(302)
            handler.send_header("Location", "/target")
            handler.send_header("Content-Length", str(64 * len(chunk)))
            handler.end_headers()
            for _ in range(64):
                handler.wfile.write(chunk)

        base = loopback(_handler(respond))
        transport = LiveTransport(timeout_s=5.0)
        tracemalloc.start()
        try:
            resp = transport.fetch(Url.parse(base + "/p"), max_body_bytes=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resp.body == b"target"
        assert peak < 1 << 20

    def test_one_deadline_spans_every_hop(self, loopback):
        def respond(handler):
            hop = int(handler.path.strip("/"))
            time.sleep(0.2)  # before the headers: each socket wait is short
            if hop < 4:
                _send(handler, 302, b"", Location=f"/{hop + 1}")
            else:
                _send(handler, body=b"arrived")

        base = loopback(_handler(respond))
        started = time.monotonic()
        with pytest.raises(Timeout):
            LiveTransport(timeout_s=0.5).fetch(Url.parse(base + "/0"), max_body_bytes=1024)
        assert time.monotonic() - started < 0.9
