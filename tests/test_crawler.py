from __future__ import annotations

import tempfile
import threading
import tracemalloc
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ThreadRecorder, join_outcome, mutants
from onto_seeker import crawler, netfetch
from onto_seeker.crawler import (
    HTML_PAGE,
    ONTOLOGY_CANDIDATE,
    OTHER,
    AllSeedsInvalid,
    CrawlConfig,
    CrawlReport,
    OutputUnwritable,
    _link_refs,
    classify_url,
    crawl,
    extract_links,
    write_url_list,
)
from onto_seeker.harness import (
    Corpus,
    CorpusEntry,
    CorpusTransport,
    SiteSpec,
    make_synthetic_site,
)
from onto_seeker.indexer import IndexLimits, build_index
from onto_seeker.netfetch import (
    LOOKAHEAD_PER_WORKER,
    ConnectionFailed,
    Url,
    _join_stdlib,
    normalize_url,
)
from onto_seeker.rdf import UNSUPPORTED, detect_syntax
from onto_seeker.rdf.model import RDF_XML_MEDIA_TYPES, TURTLE_MEDIA_TYPES

BASE = Url.parse("http://a.example/")

MARKUP_FRAGMENTS = st.lists(
    st.sampled_from(
        ["<![", "CDATA[", "CDAT[", "if", "]]>", "]>", "<!", "<!--", "-->", "<!-->", "--!>",
         "<a href=", '"/x.owl"', "'", ">", "<", "/", "&amp;", "&#", " ", "\n", "<script / >",
         "<a / >", "/>", "x='abc", '</a "x>', "<title>", "<script>", "</script>"]
    )
    | st.text(max_size=4),
    max_size=30,
).map(lambda parts: "".join(parts).encode())

# Simple pages (mixed-case tags and attributes, valueless and repeated
# attributes, charrefs, raw-text elements with their end tags), some with one
# piece added that html.parser reads alike on every supported Python.
_TAGS = ["a", "A", "link", "IFrame", "frame", "title", "script", "div", "my-el"]
_ATTR_NAMES = ["href", "HREF", "src", "Src", "rel", "a:b"]
_VALUES = ["", "/x.html", "y.owl", "/p?a=1&amp;b=2", "&#38;&#x26;&copy;", "a<b>c", "x/"]
_RISKY = ["<", "&", "&ampx", "&notit;", "\xa0", "'", '"', "=", "<!-- -->", "\x0b"]


@st.composite
def simple_markup(draw) -> bytes:
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        tag = draw(st.sampled_from(_TAGS))
        attrs = ""
        for _ in range(draw(st.integers(0, 3))):
            form = draw(st.sampled_from(["{}", '{}="{}"', "{} = '{}'", "{}={}"]))
            name, value = draw(st.sampled_from(_ATTR_NAMES)), draw(st.sampled_from(_VALUES))
            attrs += " " + form.format(name, value)
        parts += [f"<{tag}{attrs}{draw(st.sampled_from(['>', '/>', ' />']))}", "text", f"</{tag}>"]
    if draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(_RISKY)))
    return "".join(parts).encode()


SCAN_SITE = make_synthetic_site(SiteSpec(seed=7, page_count=30, ontology_count=10, host_count=2))[0]
SCAN_PAGES = sorted(
    entry.body for entry in SCAN_SITE.entries.values() if entry.content_type == "text/html"
)


def _no_join_stdlib(base, ref):
    raise AssertionError(f"_join_stdlib({str(base)!r}, {ref!r})")


def _page(body: str) -> CorpusEntry:
    return CorpusEntry(200, "text/html", body.encode())


def _config(tmp_path, seeds, **kw) -> CrawlConfig:
    defaults = dict(
        seed_urls=tuple(Url.parse(s) for s in seeds),
        max_pages=100,
        max_depth=-1,
        worker_count=1,
        politeness_ms=0,
        output_path=str(tmp_path / "urls.txt"),
    )
    defaults.update(kw)
    return CrawlConfig(**defaults)


class TestClassifyUrl:
    @pytest.mark.parametrize(
        "url,content_type,expected",
        [
            ("http://a.example/sumo.owl", None, ONTOLOGY_CANDIDATE),
            ("http://a.example/O.RDF", None, ONTOLOGY_CANDIDATE),
            ("http://a.example/data.csv", "text/csv", OTHER),
            ("http://a.example/x", "application/rdf+xml", ONTOLOGY_CANDIDATE),
            ("http://a.example/x", "text/turtle", ONTOLOGY_CANDIDATE),
            ("http://a.example/x", "application/x-turtle", ONTOLOGY_CANDIDATE),
            ("http://a.example/page.html", None, HTML_PAGE),
            ("http://a.example/page.htm", None, HTML_PAGE),
            ("http://a.example/dir/noext", None, HTML_PAGE),
            ("http://a.example/x.php", "text/html", HTML_PAGE),
            ("http://a.example/x", "application/xhtml+xml", HTML_PAGE),
            ("http://a.example/archive.zip", None, OTHER),
            ("http://a.example/x.owl", "text/html", ONTOLOGY_CANDIDATE),
        ],
    )
    def test_examples(self, url, content_type, expected):
        assert classify_url(Url.parse(url), content_type) == expected

    def test_extension_of_final_segment_only(self):
        assert classify_url(Url.parse("http://a.example/x.owl/readme.txt")) == OTHER

    @pytest.mark.parametrize("media_type", sorted(RDF_XML_MEDIA_TYPES | TURTLE_MEDIA_TYPES))
    def test_every_parseable_media_type_is_a_candidate(self, media_type):
        # A page served with a type the indexer can parse is recorded, not scanned.
        assert detect_syntax(b"", media_type) != UNSUPPORTED
        assert classify_url(Url.parse("http://a.example/x"), media_type) == ONTOLOGY_CANDIDATE


class TestExtractLinks:
    def test_single_anchor(self):
        assert extract_links(b'<a href="x.owl">x</a>', BASE) == [Url.parse("http://a.example/x.owl")]

    def test_duplicates_collapsed(self):
        html = b'<a href="x.owl">1</a><a href="x.owl">2</a>'
        assert len(extract_links(html, BASE)) == 1

    def test_javascript_dropped(self):
        assert extract_links(b'<a href="javascript:void(0)">x</a>', BASE) == []

    def test_document_order_preserved(self):
        html = b'<a href="/b">b</a><a href="/a">a</a>'
        assert [u.path for u in extract_links(html, BASE)] == ["/b", "/a"]

    def test_link_frame_iframe_sources(self):
        html = (
            b'<link rel="alternate" href="/alt.owl">'
            b'<frame src="/f.html"></frame>'
            b'<iframe src="/i.html"></iframe>'
        )
        assert [u.path for u in extract_links(html, BASE)] == ["/alt.owl", "/f.html", "/i.html"]

    def test_entity_in_href_decoded(self):
        html = b'<a href="/p?a=1&amp;b=2">x</a>'
        assert extract_links(html, BASE)[0].query == "a=1&b=2"

    def test_malformed_html_yields_what_it_can(self):
        html = b'<a href="/ok.html"><td></p><a href="broken'
        assert [u.path for u in extract_links(html, BASE)] == ["/ok.html"]

    def test_unjoinable_href_skipped(self):
        links = extract_links(b'<a href="http://[::1">v6</a><a href="/ok.html">ok</a>', BASE)
        assert [str(u) for u in links] == ["http://a.example/ok.html"]

    def test_href_without_value_skipped(self):
        assert extract_links(b"<a href>x</a>", BASE) == []

    @pytest.mark.parametrize("section", ["<![CDAT[ x ]]>", "<![ x ]]>"])
    def test_malformed_marked_section_reads_as_a_comment(self, section):
        html = f'<a href="/a.html">a</a>{section}<a href="/later.owl">o</a>'.encode()
        assert [u.path for u in extract_links(html, BASE)] == ["/a.html", "/later.owl"]

    @given(
        st.sampled_from(SCAN_PAGES).flatmap(mutants) | MARKUP_FRAGMENTS | st.binary(max_size=300)
    )
    def test_markup_fragments_give_a_list_of_urls(self, html):
        links = extract_links(html, BASE)
        assert isinstance(links, list)
        assert all(isinstance(url, Url) for url in links)

    @given(st.binary(max_size=300))
    def test_never_raises_on_garbage(self, blob):
        result = extract_links(blob, BASE)
        assert isinstance(result, list)


class _ParserLinks(HTMLParser):
    """The link scan of the running Python's html.parser: the reference on
    pages that every supported Python reads alike."""

    TAG_ATTR = {"a": "href", "link": "href", "frame": "src", "iframe": "src"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.refs: list[str] = []

    def handle_starttag(self, tag, attrs):
        wanted = self.TAG_ATTR.get(tag)
        for name, value in attrs:
            if name == wanted and value is not None:
                self.refs.append(value)
                return


def _parser_refs(html: bytes) -> list[str]:
    scanner = _ParserLinks()
    scanner.feed(html.decode("utf-8", errors="replace"))
    scanner.close()
    return scanner.refs


def _scan(html: bytes) -> list[str]:
    return _link_refs(html.decode("utf-8", errors="replace"))


class TestLinkScan:
    """The scan reads every page by the rules of Python 3.13.13's html.parser."""

    @settings(max_examples=500)
    @given(st.sampled_from(SCAN_PAGES) | simple_markup())
    def test_equals_html_parser(self, html):
        assert _scan(html) == _parser_refs(html)

    # Each entry holds the hrefs that the html.parser of Python 3.13.13 finds
    # on the page; that of 3.11 and 3.12, and of 3.13.0, reads 16 differently.
    @pytest.mark.parametrize(
        "html,refs",
        [
            # a valueless href does not count; the first valued one wins
            (b'<a href href="/x.html">', ["/x.html"]),
            (b'<a href="/x.html" href="/y.html">', ["/x.html"]),
            (b'<a href="">', [""]),
            (b'<A HREF="/x.html"><LINK Href=\'/y.owl\'><IFRAME SRC=/z.html></IFRAME>',
             ["/x.html", "/y.owl", "/z.html"]),
            (b"<iframe src=/i.html><a href=/in.html></iframe><a href=/out.html>",
             ["/i.html", "/out.html"]),
            (b'<a href="/&#120;&#X79;&#x7A;.html">', ["/xyz.html"]),
            (b"<a href=/x.html>", ["/x.html"]),
            (b"<a href=x/>", ["x/"]),
            (b"<a href=/x.html />", ["/x.html"]),
            (b'<a title="a<b>c" href="/x.html">', ["/x.html"]),
            (b'<a href="/x.html"title="t">', ["/x.html"]),
            (b'<a href=="/x.html">', ['="/x.html"']),
            (b"<a href=/x.html\xc2\xa0>", ["/x.html\xa0"]),
            (b"<a\x0bhref=/x.html>", []),
            (b'<a href="/\xff.html">', ["/\ufffd.html"]),
            # character references in a value
            (b'<a href="/p?a=1&amp;b=2">', ["/p?a=1&b=2"]),
            (b'<a href="/p?a=1&#38;b=2">', ["/p?a=1&b=2"]),
            (b'<a href="/o.owl?a=1&notify=2&copy=3">', ["/o.owl?a=1&notify=2&copy=3"]),
            (b'<a href="/&notit;.html">', ["/&notit;.html"]),
            (b"<a href=/&ampx.html>", ["/&ampx.html"]),
            (b"<a href=/&copy;&amp>", ["/\xa9&"]),
            # comments, declarations, CDATA and processing instructions
            (b'<!DOCTYPE html><a href="/out.html">', ["/out.html"]),
            (b'<!-- <a href="/in.html"> --><a href="/out.html">', ["/out.html"]),
            (b'<!-- <a href="/in.html"> --!><a href="/out.html">', ["/out.html"]),
            (b'<!--><a href="/out.html">', ["/out.html"]),
            (b'<!--><a href="/in.html">--><a href="/out.html">', ["/out.html"]),
            (b'<![CDATA[ <a href="/in.html"> ]]><a href="/out.html">', ["/out.html"]),
            (b'<![CDAT[ x ]]><a href="/out.html">', ["/out.html"]),
            (b'<?xml version="1.0"?><a href="/out.html">', ["/out.html"]),
            (b'</><a href="/out.html">', ["/out.html"]),
            (b'</ x><a href="/out.html">', ["/out.html"]),
            (b'</a "x><a href="/out.html">', ["/out.html"]),
            # tag and attribute delimiting
            (b'<a href="q"<b>', ["q"]),
            (b"<a/href=/x.html>", ["/x.html"]),
            (b"<a x='abc href=/x.html>", []),
            (b"<a x='abc href=/x.html>'>", []),
            (b'<a href="/out.html">1 < 2', ["/out.html"]),
            # raw-text and RCDATA elements read to their end tag, unless self-closed
            (b"<title>Page</title><script>var x = 1;</script><a href=/x.html>", ["/x.html"]),
            (b'<script>if (a<b) s = "<a href=/in.html>";</script><a href=/out.html>',
             ["/out.html"]),
            (b'<script / ><a href="/in.html"></script><a href="/out.html">', ["/out.html"]),
            (b'<script/><a href="/x.html"></script>', ["/x.html"]),
            (b'<SCRIPT><a href="/in.html"></Script ><a href="/out.html">', ["/out.html"]),
            (b'<script><a href="/in.html"></scripts><a href="/in2.html">', []),
            *[
                (f'<{tag}><a href="/in.html"></{tag}><a href="/out.html">'.encode(),
                 ["/out.html"])
                for tag in "script style xmp iframe noembed noframes title textarea".split()
            ],
            (b'<noscript><a href="/x.html"></noscript>', ["/x.html"]),
            (b'<a href="/out.html"><plaintext><a href="/in.html">', ["/out.html"]),
            (b'<plaintext/><a href="/x.html">', ["/x.html"]),
            # a construct left open at the end of the page drops the rest
            (b'<a href="/out.html">x<a href="/open.html"', ["/out.html"]),
            (b'<a href="/out.html"><!-- <a href="/in.html">', ["/out.html"]),
            (b'<a href="/out.html"><![CDATA[ <a href="/in.html">', ["/out.html"]),
            (b'<a href="/out.html"></a x=\'y><a href="/in.html">', ["/out.html"]),
            (b'<a href="/out.html"><title><a href="/in.html">', ["/out.html"]),
        ],
    )
    def test_reads_each_construct_as_html_parser_3_13_13(self, html, refs):
        assert _scan(html) == refs

    @pytest.mark.parametrize(
        "page",
        ["<a " + "x " * (1 << 17) + ">", "<a" + " " * (1 << 18) + ">",
         "<a x" + " /" * (1 << 17) + ">"],
        ids=["attributes", "spaces", "slashes"],
    )
    def test_a_long_tag_scans_in_bounded_memory(self, page):
        # A regex group repeated per attribute or per space keeps a
        # backtracking entry for each: about 50 MiB for these 256 KiB tags.
        tracemalloc.start()
        try:
            assert _link_refs(page) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSyntheticWebScan:
    """The generated site is read as html.parser reads it, and its hrefs take
    the direct join."""

    @pytest.fixture(scope="class")
    def site(self):
        spec = SiteSpec(
            seed=1, page_count=600, ontology_count=300, max_link_depth=12, branching=4, host_count=4
        )
        return make_synthetic_site(spec)[0]

    def test_every_page_equals_html_parser(self, site):
        pages = [entry.body for entry in site.entries.values() if entry.content_type == "text/html"]
        assert len(pages) == 600
        for page in pages:
            assert _scan(page) == _parser_refs(page)

    def test_every_href_takes_a_direct_join(self, site, monkeypatch):
        joins = [
            (Url.parse(key), ref.strip())
            for key, entry in site.entries.items()
            if entry.content_type == "text/html"
            for ref in _scan(entry.body)
        ]
        expected = [join_outcome(_join_stdlib, base, ref) for base, ref in joins]
        monkeypatch.setattr(netfetch, "_join_stdlib", _no_join_stdlib)
        assert [join_outcome(normalize_url, base, ref) for base, ref in joins] == expected
        # Each page links at least its /files/data<n>.csv, #top, mailto: and javascript:.
        assert len(joins) >= 4 * 600


class TestWriteUrlList:
    def test_sorted_output(self, tmp_path):
        path = tmp_path / "urls.txt"
        urls = {Url.parse("http://a.example/b.owl"), Url.parse("http://a.example/a.owl")}
        assert write_url_list(urls, path) == 2
        assert path.read_bytes() == b"http://a.example/a.owl\nhttp://a.example/b.owl\n"

    def test_empty_set(self, tmp_path):
        path = tmp_path / "urls.txt"
        assert write_url_list(set(), path) == 0
        assert path.read_bytes() == b""

    def test_rerun_byte_identical(self, tmp_path):
        path = tmp_path / "urls.txt"
        urls = {Url.parse(f"http://a.example/{n}.owl") for n in "xyz"}
        write_url_list(urls, path)
        first = path.read_bytes()
        write_url_list(urls, path)
        assert path.read_bytes() == first

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OutputUnwritable):
            write_url_list(set(), tmp_path / "nope" / "urls.txt")


def _two_level_corpus() -> Corpus:
    corpus = Corpus()
    corpus.add(
        "http://h.test/",
        _page('<a href="/p1.html">1</a><a href="/top.owl">o</a>'),
    )
    corpus.add(
        "http://h.test/p1.html",
        _page('<a href="/p2.html">2</a><a href="/deep.owl">o</a>'),
    )
    corpus.add("http://h.test/p2.html", _page('<a href="/deepest.rdf">o</a>'))
    return corpus


class TestCrawl:
    def test_depth_zero_fetches_only_seeds(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/"], max_depth=0)
        report = crawl(config, CorpusTransport(_two_level_corpus()))
        assert report.pages_fetched == 1
        assert report.ontologies_found == 1  # the .owl link on the seed page
        assert (tmp_path / "urls.txt").read_text() == "http://h.test/top.owl\n"

    def test_depth_one_adds_next_stratum(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/"], max_depth=1)
        report = crawl(config, CorpusTransport(_two_level_corpus()))
        assert report.pages_fetched == 2
        assert report.ontologies_found == 2

    def test_unlimited_depth_finds_all(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/"])
        report = crawl(config, CorpusTransport(_two_level_corpus()))
        assert report.pages_fetched == 3
        assert report.ontologies_found == 3

    def test_budget_counts_issued_fetches(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/"], max_pages=2)
        report = crawl(config, CorpusTransport(_two_level_corpus()))
        assert report.pages_fetched == 2

    def test_budget_counts_error_fetches_too(self, tmp_path):
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/gone1.html">1</a><a href="/gone2.html">2</a>'))
        config = _config(tmp_path, ["http://h.test/"], max_pages=2)
        report = crawl(config, CorpusTransport(corpus))
        assert report.pages_fetched == 2
        assert report.errors == 1  # second child never issued

    def test_cycle_fetched_once(self, tmp_path):
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/b.html">b</a>'))
        corpus.add("http://h.test/b.html", _page('<a href="/">home</a>'))
        config = _config(tmp_path, ["http://h.test/"])
        report = crawl(config, CorpusTransport(corpus))
        assert report.pages_fetched == 2

    def test_non_200_pages_not_parsed(self, tmp_path):
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/gone.html">x</a>'))
        corpus.add("http://h.test/gone.html", CorpusEntry(404, "text/html", b'<a href="/o.owl">x</a>'))
        config = _config(tmp_path, ["http://h.test/"])
        report = crawl(config, CorpusTransport(corpus))
        assert report.ontologies_found == 0
        assert report.status_histogram == {200: 1, 404: 1}

    def test_content_type_discovery_records_fetched_rdf(self, tmp_path):
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/api/onto">x</a>'))
        corpus.add("http://h.test/api/onto", CorpusEntry(200, "text/turtle", b"@prefix a: <http://x/> ."))
        config = _config(tmp_path, ["http://h.test/"])
        report = crawl(config, CorpusTransport(corpus))
        assert report.ontologies_found == 1
        assert (tmp_path / "urls.txt").read_text() == "http://h.test/api/onto\n"

    def test_seed_that_is_an_ontology_is_recorded_without_fetch(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/direct.owl"])
        report = crawl(config, CorpusTransport(Corpus()))
        assert report.pages_fetched == 0
        assert report.ontologies_found == 1

    def test_all_seeds_invalid_on_dead_transport(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/", "http://g.test/x.html"])
        with pytest.raises(AllSeedsInvalid):
            crawl(config, CorpusTransport(Corpus()))

    def test_lone_seed_that_is_no_page_or_ontology_is_invalid(self, tmp_path):
        corpus = Corpus()
        corpus.add("http://h.test/data.csv", CorpusEntry(200, "text/csv", b"a,b"))
        with pytest.raises(AllSeedsInvalid):
            crawl(_config(tmp_path, ["http://h.test/data.csv"]), CorpusTransport(corpus))
        assert corpus.request_log == []

    def test_one_live_seed_is_enough(self, tmp_path):
        corpus = Corpus()
        corpus.add("http://h.test/", _page("<p>empty</p>"))
        config = _config(tmp_path, ["http://h.test/", "http://dead.test/"])
        report = crawl(config, CorpusTransport(corpus))
        assert report.pages_fetched == 2
        assert report.errors == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_marked_section_page_is_fetched_and_scanned(self, tmp_path, workers):
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/p1.html">1</a><a href="/p2.html">2</a>'))
        corpus.add("http://h.test/p1.html", _page('<![CDAT[ x ]]><a href="/later.owl">o</a>'))
        corpus.add("http://h.test/p2.html", _page("<p>end</p>"))
        config = _config(tmp_path, ["http://h.test/"], worker_count=workers)
        report = crawl(config, CorpusTransport(corpus))
        assert report.pages_fetched == 3
        assert report.errors == 0
        assert report.status_histogram == {200: 3}
        assert (tmp_path / "urls.txt").read_text() == "http://h.test/later.owl\n"

    @pytest.mark.parametrize("workers", [1, 4])
    def test_url_file_holds_only_the_real_links(self, tmp_path, workers):
        # "<a" inside a comment, title, script or textarea is no link, and
        # "&notify=" or "&copy=" in a query is no character reference.
        corpus = Corpus()
        corpus.add(
            "http://h.test/",
            _page(
                '<!DOCTYPE html><!-- <a href="/c.owl"> --><html><head>'
                '<title><a href="/in.owl"></title>'
                '<script>if (a<b) { s = "<a href=/no.owl>"; }</script></head><body>'
                '<textarea><a href="/t.owl"></textarea>'
                '<a href="/o.owl?a=1&notify=2&copy=3">o</a><a href="/p.html">p</a></body></html>'
            ),
        )
        corpus.add("http://h.test/p.html", _page('<a href="/deep.owl">d</a>'))
        config = _config(tmp_path, ["http://h.test/"], worker_count=workers)
        report = crawl(config, CorpusTransport(corpus))
        assert (report.pages_fetched, report.errors) == (2, 0)
        assert (tmp_path / "urls.txt").read_text() == (
            "http://h.test/deep.owl\nhttp://h.test/o.owl?a=1&notify=2&copy=3\n"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_redirect_off_the_web_is_a_counted_error(self, tmp_path, workers):
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/moved.html">m</a><a href="/p1.html">1</a>'))
        corpus.add(
            "http://h.test/moved.html",
            CorpusEntry(301, None, b"", location="ftp://files.test/o.owl"),
        )
        corpus.add("http://h.test/p1.html", _page('<a href="/deep.owl">o</a>'))
        config = _config(tmp_path, ["http://h.test/"], worker_count=workers)
        report = crawl(config, CorpusTransport(corpus))
        assert report.errors == 1
        assert report.pages_fetched == 3
        assert (tmp_path / "urls.txt").read_text() == "http://h.test/deep.owl\n"

    def test_output_dir_missing(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/"], output_path=str(tmp_path / "no" / "urls.txt"))
        with pytest.raises(OutputUnwritable):
            crawl(config, CorpusTransport(_two_level_corpus()))

    def test_single_worker_runs_are_identical(self, tmp_path):
        reports: list[CrawlReport] = []
        files: list[bytes] = []
        for run in range(2):
            out = tmp_path / f"urls{run}.txt"
            config = _config(tmp_path, ["http://h.test/"], output_path=str(out))
            reports.append(crawl(config, CorpusTransport(_two_level_corpus())))
            files.append(out.read_bytes())
        assert files[0] == files[1]
        a, b = reports
        assert (a.pages_fetched, a.ontologies_found, a.status_histogram, a.errors) == (
            b.pages_fetched,
            b.ontologies_found,
            b.status_histogram,
            b.errors,
        )

    def test_worker_pool_finds_same_set_as_single(self, tmp_path, site42):
        _spec, (corpus, _gt) = site42
        outs = []
        for workers in (1, 4):
            out = tmp_path / f"urls-w{workers}.txt"
            config = _config(
                tmp_path,
                ["http://host0.example/"],
                worker_count=workers,
                max_pages=500,
                output_path=str(out),
            )
            crawl(config, CorpusTransport(corpus))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_what_a_budget_finds(self, tmp_path):
        # The slow branch is issued first, so its links must be admitted first even
        # when the fast branch's child could be fetched sooner.
        corpus = Corpus()
        corpus.add("http://h.test/", _page('<a href="/a.html">a</a><a href="/b.html">b</a>'))
        corpus.add(
            "http://h.test/a.html",
            CorpusEntry(200, "text/html", b'<a href="/a1.html">a1</a>', latency_ms=60),
        )
        corpus.add("http://h.test/b.html", _page('<a href="/b1.html">b1</a>'))
        corpus.add("http://h.test/a1.html", _page('<a href="/a1.owl">o</a>'))
        corpus.add("http://h.test/b1.html", _page('<a href="/b1.owl">o</a>'))
        runs = []
        for workers in (1, 2, 4):
            corpus.request_log.clear()
            out = tmp_path / f"urls-w{workers}.txt"
            config = _config(
                tmp_path, ["http://h.test/"], max_pages=4, worker_count=workers, output_path=str(out)
            )
            report = crawl(config, CorpusTransport(corpus))
            counts = (report.pages_fetched, report.ontologies_found, report.errors)
            requested = {url for url, _issued_at in corpus.request_log}
            runs.append((out.read_text(), counts, report.status_histogram, requested))
        assert runs[0][0] == "http://h.test/a1.owl\n"
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_slow_page_does_not_hold_back_the_other_workers(self, tmp_path):
        # The slow page is issued first and admitted first, but the pages
        # issued after it are fetched while it is still on the wire.
        fast = [f"/f{i}.html" for i in range(20)]
        corpus = Corpus()
        links = "".join(f'<a href="{path}">x</a>' for path in ["/slow.html", *fast])
        corpus.add("http://h.test/", _page(links))
        corpus.add("http://h.test/slow.html", CorpusEntry(200, "text/html", b"", latency_ms=400))
        for path in fast:
            corpus.add(f"http://h.test{path}", _page(""))
        config = _config(tmp_path, ["http://h.test/"], worker_count=2)
        report = crawl(config, CorpusTransport(corpus))
        assert report.pages_fetched == 22
        issued = dict(corpus.request_log)
        slow_done_ms = issued["http://h.test/slow.html"] + 400
        assert all(issued[f"http://h.test{path}"] < slow_done_ms for path in fast)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_lookahead_bounds_the_pages_issued_behind_a_slow_one(self, tmp_path, workers):
        # Fetches are taken back in issue order, so while the slow page is on
        # the wire the crawl issues only the rest of its lookahead window.
        fast = [f"/f{i}.html" for i in range(200)]
        corpus = Corpus()
        links = "".join(f'<a href="{path}">x</a>' for path in ["/slow.html", *fast])
        corpus.add("http://h.test/", _page(links))
        corpus.add("http://h.test/slow.html", CorpusEntry(200, "text/html", b"", latency_ms=1000))
        for path in fast:
            corpus.add(f"http://h.test{path}", _page(""))
        config = _config(tmp_path, ["http://h.test/"], worker_count=workers, max_pages=1000)
        report = crawl(config, CorpusTransport(corpus))
        assert report.pages_fetched == 202
        issued = dict(corpus.request_log)
        slow_done_ms = issued["http://h.test/slow.html"] + 1000
        ahead = sum(issued[f"http://h.test{path}"] < slow_done_ms for path in fast)
        assert ahead == LOOKAHEAD_PER_WORKER * workers - 1

    def test_every_output_line_classifies_as_candidate(self, tmp_path, site42):
        _spec, (corpus, _gt) = site42
        config = _config(tmp_path, ["http://host0.example/"], max_pages=500)
        crawl(config, CorpusTransport(corpus))
        for line in (tmp_path / "urls.txt").read_text().splitlines():
            assert classify_url(Url.parse(line)) == ONTOLOGY_CANDIDATE

    def test_validation_rejects_bad_config(self, tmp_path):
        with pytest.raises(ValueError):
            _config(tmp_path, ["http://h.test/"], max_depth=-2)
        with pytest.raises(ValueError):
            _config(tmp_path, ["http://h.test/"], max_pages=0)
        with pytest.raises(ValueError):
            _config(tmp_path, ["http://h.test/"], worker_count=0)
        with pytest.raises(ValueError):
            CrawlConfig(seed_urls=(), max_pages=1)

    @pytest.mark.parametrize("max_body_bytes", [0, -1, -50])
    def test_validation_rejects_max_body_bytes_below_one(self, tmp_path, max_body_bytes):
        with pytest.raises(ValueError, match="max_body_bytes must be >= 1"):
            _config(tmp_path, ["http://h.test/"], max_body_bytes=max_body_bytes)


class TestCrawlReport:
    def test_machine_lines_echo_config(self, tmp_path):
        config = _config(
            tmp_path,
            ["http://www.ontologyportal.org"],
            politeness_ms=300,
            max_depth=-1,
        )
        corpus = Corpus()
        corpus.add("http://www.ontologyportal.org/", _page("<p>hi</p>"))
        report = crawl(config, CorpusTransport(corpus))
        lines = report.machine_lines()
        assert "seed_urls\thttp://www.ontologyportal.org/" in lines
        assert "politeness_ms\t300" in lines
        assert "max_depth\t-1" in lines
        assert all(len(line.split("\t")) == 2 for line in lines)

    def test_human_table_mentions_counts(self, tmp_path):
        config = _config(tmp_path, ["http://h.test/"])
        report = crawl(config, CorpusTransport(_two_level_corpus()))
        table = report.human_table()
        assert "pages_fetched" in table and "ontologies_found" in table


class _FlakyTransport:
    """Raises ConnectionFailed for the URLs in ``failing``; serves the rest."""

    def __init__(self, inner, failing: set[str]):
        self.inner = inner
        self.failing = failing

    def fetch(self, url, max_body_bytes, issued_at_ms=None):
        if str(url) in self.failing:
            raise ConnectionFailed(f"{url}: injected failure")
        return self.inner.fetch(url, max_body_bytes, issued_at_ms=issued_at_ms)


@pytest.fixture(scope="module")
def small_site():
    return make_synthetic_site(SiteSpec(seed=5, page_count=40, ontology_count=10, host_count=2))


class TestFetchThreads:
    def test_one_worker_crawl_and_index_fetch_on_the_calling_thread(self, tmp_path, small_site):
        corpus, truth = small_site
        transport = ThreadRecorder(CorpusTransport(corpus, sleep_latency=False))
        config = _config(tmp_path, [truth.root_url], worker_count=1)
        pages = crawl(config, transport).pages_fetched
        build_index(config.output_path, transport, IndexLimits(politeness_ms=0), tmp_path / "idx")
        assert len(transport.threads) > pages > 1
        assert set(transport.threads) == {threading.current_thread()}

    def test_a_crawl_that_fails_mid_loop_leaves_no_pool_thread(self, tmp_path, small_site, monkeypatch):
        corpus, truth = small_site
        transport = ThreadRecorder(CorpusTransport(corpus))

        def scan_then_fail(html, base):
            if len(transport.threads) > 3:
                raise RuntimeError("scan failed")
            return extract_links(html, base)

        monkeypatch.setattr(crawler, "extract_links", scan_then_fail)
        config = _config(tmp_path, [truth.root_url], worker_count=2)
        with pytest.raises(RuntimeError, match="scan failed") as failure:
            crawl(config, transport)
        # The pool is gone while the traceback, and with it the crawl's frame, lives on.
        assert failure.traceback
        assert transport.threads and threading.current_thread() not in transport.threads
        assert not any(thread.is_alive() for thread in transport.threads)


class TestCrawlThenIndex:
    def test_href_holding_a_line_separator_stays_one_line(self, tmp_path):
        turtle = b"@prefix owl: <http://www.w3.org/2002/07/owl#> .\n<#C> a owl:Class ."
        corpus = Corpus()
        corpus.add(BASE, _page('<a href="/a&#x2028;b.owl">x</a><a href="/ok.owl">ok</a>'))
        corpus.add("http://a.example/a%E2%80%A8b.owl", CorpusEntry(200, "text/turtle", turtle))
        corpus.add("http://a.example/ok.owl", CorpusEntry(200, "text/turtle", turtle))
        transport = CorpusTransport(corpus)
        config = _config(tmp_path, [str(BASE)])
        assert crawl(config, transport).ontologies_found == 2
        manifest = build_index(
            config.output_path, transport, IndexLimits(politeness_ms=0), tmp_path / "idx"
        )
        assert (manifest.doc_count, manifest.input_line_count) == (2, 2)


class TestFailureContainment:
    @settings(max_examples=25)
    @given(data=st.data())
    def test_random_fetch_failures_are_counted_not_fatal(self, small_site, data):
        corpus, truth = small_site
        failing = data.draw(
            st.sets(st.sampled_from(sorted(set(corpus.entries) - {truth.root_url})))
        )
        transport = _FlakyTransport(CorpusTransport(corpus, sleep_latency=False), failing)
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for workers in (1, 2):
                config = _config(Path(tmp), [truth.root_url], worker_count=workers)
                report = crawl(config, transport)
                lines = Path(config.output_path).read_text().splitlines()
                counts = (report.pages_fetched, report.ontologies_found, report.errors)
                runs.append((counts, report.status_histogram, lines))
            manifest = build_index(
                config.output_path, transport, IndexLimits(politeness_ms=0), Path(tmp) / "idx"
            )
        assert runs[1] == runs[0]  # the worker count changes nothing
        assert report.errors <= len(failing)
        assert set(lines) <= truth.reachable_ontology_urls
        assert manifest.input_line_count == len(lines)
        assert manifest.doc_count + sum(manifest.skip_counts.values()) == len(lines)
        assert manifest.skip_counts["fetch_error"] >= len(failing & set(lines))
