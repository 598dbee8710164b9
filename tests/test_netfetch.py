from __future__ import annotations

import gzip
import threading
import time
from collections import deque
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import quote

import pytest
import urllib3
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ThreadRecorder
from onto_seeker.harness import Corpus, CorpusEntry, CorpusTransport
from onto_seeker.netfetch import (
    _LINE_BREAKS,
    ConnectionFailed,
    FetchResponse,
    MalformedUrl,
    PolitenessGate,
    Timeout,
    TooManyRedirects,
    UnsupportedScheme,
    Url,
    _join_simple,
    _join_stdlib,
    fetch_in_order,
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

    # An IP literal in brackets is refused on every Python, though 3.10's
    # urlsplit reads "[x]" as the host "x" and 3.11+'s takes "[v1.x]".
    @pytest.mark.parametrize("raw", ["http://[x]/o.owl", "http://[1.2.3.4]/", "http://[v1.x]/o.owl",
                                     "http://[::1]/", "http://[::1]:8080/o.owl"])
    def test_bracketed_host_is_malformed(self, raw):
        with pytest.raises(MalformedUrl, match="bad host|unparseable"):
            Url.parse(raw)
        with pytest.raises(MalformedUrl):
            normalize_url(BASE, raw)

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

    # The characters str.splitlines breaks at that urlsplit keeps.
    @pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"), ids=ascii)
    def test_line_break_inside_href_percent_encoded(self, char):
        url = normalize_url(BASE, f"a{char}b.owl?q={char}c")
        assert str(url) == f"http://a.example/dir/a{quote(char)}b.owl?q={quote(char)}c"
        assert str(url).splitlines() == [str(url)]
        assert Url.parse(str(url)) == url

    # A scheme-like head that does not start with a letter is a relative path
    # on every Python (3.10's urlsplit alone took it for a scheme).
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


def _outcome(join, base: Url, href: str):
    try:
        return join(base, href)
    except (UnsupportedScheme, MalformedUrl) as exc:
        return type(exc)


JOIN_BASES = [
    Url.parse(raw)
    for raw in (
        "http://a.example/dir/p.html",
        "https://a.example/",
        "http://a.example:8080/d/?q=1",
        "https://b.example:0/x;p",
    )
]
# Hrefs of the two fast shapes, about half of them with one piece added that
# makes urljoin differ from a plain split, needs its checks or leaves the
# shape: dot segments, params, an empty query, a fragment, escapes, "//",
# ports, userinfo, brackets, inner whitespace and line breaks.
HREF_PREFIXES = ["/", "http://b.example", "https://b.example", "HTTP://b.example",
                 "http://B.Example", "//b.example", "", "\t/"]
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


class TestSimpleHrefJoin:
    """Hrefs built without urljoin give what urljoin + Url.parse give."""

    @settings(max_examples=500)
    @given(st.sampled_from(JOIN_BASES), hrefs())
    def test_equals_urljoin_or_declines(self, base, href):
        assert _outcome(normalize_url, base, href) == _outcome(_join_stdlib, base, href.strip())

    @pytest.mark.parametrize("base", JOIN_BASES, ids=str)
    @pytest.mark.parametrize(
        "href",
        ["/", "/a/b.html", "/a//b", "/a?q=1&r=/s?t", "/a#f", "/a?q#f", "http://b.example",
         "http://b.example?q", "https://b.example/a/b.owl#x", "http://b.example/x"],
    )
    def test_common_shapes_skip_urljoin(self, base, href):
        assert _join_simple(base, href) == _join_stdlib(base, href)

    @pytest.mark.parametrize("base", JOIN_BASES, ids=str)
    @pytest.mark.parametrize(
        "href",
        ["//b.example/x", "/a/./b", "/a/../b", "/a/.", "/a;p", "/a;", "/a?", "/a?#f", "/a%2Fb",
         "/a b", "/a\tb", "/a\nb", "/a\u2028b", "HTTP://b.example/", "http://B.example/",
         "http://b.example:80/", "http://b.example:+80/", "http://b.example:0/",
         "http://u@b.example/", "http://[::1]/", "a.html", "?q", "#f", "", "mailto:x@y"],
    )
    def test_other_shapes_go_to_urljoin(self, base, href):
        assert _join_simple(base, href) is None
        assert _outcome(normalize_url, base, href) == _outcome(_join_stdlib, base, href)


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

    def test_redirect_chain_records_final_url(self):
        corpus = Corpus()
        corpus.add("http://h.test/a", CorpusEntry(301, None, b"", location="/b"))
        corpus.add("http://h.test/b", CorpusEntry(302, None, b"", location="http://g.test/c"))
        corpus.add("http://g.test/c", CorpusEntry(200, "text/html", b"end"))
        transport = CorpusTransport(corpus)
        resp = transport.fetch(Url.parse("http://h.test/a"), max_body_bytes=1024)
        assert str(resp.final_url) == "http://g.test/c"
        assert resp.body == b"end"

    @pytest.mark.parametrize("location", ["ftp://files.test/o.owl", "http://[::1"])
    def test_unusable_redirect_target_is_connection_failed(self, location):
        corpus = Corpus()
        corpus.add("http://h.test/a", CorpusEntry(301, None, b"", location=location))
        transport = CorpusTransport(corpus)
        with pytest.raises(ConnectionFailed):
            transport.fetch(Url.parse("http://h.test/a"), max_body_bytes=1024)

    def test_redirect_loop_raises_after_five(self):
        corpus = Corpus()
        corpus.add("http://h.test/a", CorpusEntry(301, None, b"", location="/b"))
        corpus.add("http://h.test/b", CorpusEntry(301, None, b"", location="/a"))
        transport = CorpusTransport(corpus)
        with pytest.raises(TooManyRedirects):
            transport.fetch(Url.parse("http://h.test/a"), max_body_bytes=1024)


class _FakeResponse:
    def __init__(self, url: str, body: bytes, content_type: str):
        self.status_code = 200
        self.url = url
        self.headers = {"Content-Type": content_type}
        self._body = body
        self.raw = self

    def read1(self, amt, decode_content):
        chunk, self._body = self._body[:amt], self._body[amt:]
        return chunk

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _BrokenBodyResponse(_FakeResponse):
    """Sends one chunk, then the connection drops mid-body."""

    def read1(self, amt, decode_content):
        if self._body:
            return super().read1(amt, decode_content)
        raise urllib3.exceptions.ProtocolError("connection broken mid-chunk")


class _FakeSession:
    def __init__(self, response: _FakeResponse):
        self.headers: dict[str, str] = {}
        self.max_redirects = None
        self.response = response
        self.calls: list[tuple] = []

    def get(self, url, timeout, stream, allow_redirects):
        self.calls.append((url, timeout, stream, allow_redirects))
        return self.response


class TestLiveTransport:
    def test_user_agent_and_redirect_cap_configured(self):
        from onto_seeker import __version__
        from onto_seeker.netfetch import LiveTransport

        session = _FakeSession(_FakeResponse("http://h.test/p", b"ok", "text/html"))
        transport = LiveTransport(session=session)
        assert session.headers["User-Agent"] == f"onto-seeker/{__version__}"
        assert session.max_redirects == 5

    def test_env_var_overrides_user_agent(self, monkeypatch):
        from onto_seeker.netfetch import LiveTransport

        monkeypatch.setenv("ONTO_SEEKER_UA", "research-bot/9")
        session = _FakeSession(_FakeResponse("http://h.test/p", b"", "text/html"))
        LiveTransport(session=session)
        assert session.headers["User-Agent"] == "research-bot/9"

    def test_media_type_params_stripped_and_body_capped(self):
        from onto_seeker.netfetch import LiveTransport

        session = _FakeSession(
            _FakeResponse("http://h.test/p", b"x" * 100, "Text/HTML; charset=utf-8")
        )
        transport = LiveTransport(session=session)
        resp = transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=10)
        assert resp.content_type == "text/html"
        assert len(resp.body) == 10
        assert str(resp.final_url) == "http://h.test/p"

    def test_failed_body_read_is_connection_failed(self):
        from onto_seeker.netfetch import LiveTransport

        session = _FakeSession(_BrokenBodyResponse("http://h.test/p", b"x" * 100, "text/html"))
        transport = LiveTransport(session=session)
        with pytest.raises(ConnectionFailed) as err:
            transport.fetch(Url.parse("http://h.test/p"), max_body_bytes=1024)
        assert isinstance(err.value.__cause__, urllib3.exceptions.ProtocolError)

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout_s):
        from onto_seeker.netfetch import LiveTransport

        with pytest.raises(ValueError, match="timeout_s"):
            LiveTransport(timeout_s=timeout_s)

    @pytest.mark.parametrize("framing", ["Content-Length", "chunked"])
    def test_dripped_body_times_out_soon_after_the_deadline(self, framing):
        from onto_seeker.netfetch import LiveTransport

        class _Drips(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                if framing == "chunked":
                    self.send_header("Transfer-Encoding", "chunked")
                else:
                    self.send_header("Content-Length", "40")
                self.end_headers()
                try:
                    for _ in range(40):  # one byte every 0.1 s: 4 s in all
                        self.wfile.write(b"1\r\nx\r\n" if framing == "chunked" else b"x")
                        self.wfile.flush()
                        time.sleep(0.1)
                except OSError:
                    pass

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), _Drips)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = LiveTransport(timeout_s=0.5)
            url = Url.parse(f"http://127.0.0.1:{server.server_port}/p")
            started = time.monotonic()
            with pytest.raises(Timeout):
                transport.fetch(url, max_body_bytes=1024)
            took = time.monotonic() - started
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        # The deadline plus at most one socket wait (here a 0.1 s drip).
        assert 0.5 <= took < 1.5

    def test_gzip_body_is_decoded_and_capped_in_decoded_bytes(self):
        from onto_seeker.netfetch import LiveTransport

        page = b"<p>hello</p>" * 1000
        encoded = gzip.compress(page)

        class _Gzips(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Encoding", "gzip")
                self.send_header("Content-Length", str(len(encoded)))
                self.end_headers()
                self.wfile.write(encoded)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), _Gzips)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = LiveTransport(timeout_s=5.0)
            url = Url.parse(f"http://127.0.0.1:{server.server_port}/p")
            assert transport.fetch(url, max_body_bytes=len(page) + 1).body == page
            assert transport.fetch(url, max_body_bytes=len(encoded)).body == page[: len(encoded)]
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_cookies_neither_stored_nor_sent(self):
        from onto_seeker.netfetch import LiveTransport

        sent_cookies = []

        class _SetsCookies(BaseHTTPRequestHandler):
            def do_GET(self):
                sent_cookies.append(self.headers.get("Cookie"))
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Set-Cookie", "session=abc; Path=/")
                self.send_header("Set-Cookie", "track=1; Path=/; Max-Age=3600")
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"ok")

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), _SetsCookies)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = LiveTransport(timeout_s=5.0)
            url = Url.parse(f"http://127.0.0.1:{server.server_port}/p")
            for _ in range(2):
                assert transport.fetch(url, max_body_bytes=1024).body == b"ok"
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert len(transport._session.cookies) == 0
        assert sent_cookies == [None, None]
