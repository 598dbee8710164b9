"""Bounded breadth-first crawl that collects ontology URLs into a text file.

Ontology candidates (``.rdf``/``.owl`` links) are recorded without being
fetched; the indexer downloads them later. The fetch budget is therefore
spent on HTML pages only.

Pages are fetched in breadth-first order. Pool threads only fetch; the crawl
thread scans each page as its fetch finishes but admits the links it found in
the order the fetches were issued, so the URL file does not depend on the
worker count. At most ``LOOKAHEAD_PER_WORKER * worker_count`` pages are
issued and not yet admitted.
"""

from __future__ import annotations

import re
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from html import unescape
from html.entities import html5 as _HTML5_ENTITIES
from html.parser import HTMLParser
from pathlib import Path
from queue import SimpleQueue

from .errors import OntoSeekerError
from .netfetch import (
    DEFAULT_POLITENESS_MS,
    FetchError,
    PolitenessGate,
    Transport,
    Url,
    monotonic_ms,
    normalize_url,
    polite_fetch,
)
from .rdf.model import RDF_XML_MEDIA_TYPES, TURTLE_MEDIA_TYPES

ONTOLOGY_CANDIDATE = "ontology-candidate"
HTML_PAGE = "html-page"
OTHER = "other"

ONTOLOGY_EXTENSIONS = (".rdf", ".owl")
RDF_MEDIA_TYPES = RDF_XML_MEDIA_TYPES | TURTLE_MEDIA_TYPES
HTML_MEDIA_TYPES = frozenset({"text/html", "application/xhtml+xml"})
HTML_EXTENSIONS = (".html", ".htm")

DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024

# Pages the crawl may issue per worker beyond the oldest one not yet admitted.
# Links are admitted in issue order, so one slow page holds back admission;
# this much lookahead keeps the other workers fetching meanwhile.
LOOKAHEAD_PER_WORKER = 32


class OutputUnwritable(OntoSeekerError):
    pass


class AllSeedsInvalid(OntoSeekerError):
    pass


@dataclass(frozen=True)
class CrawlConfig:
    seed_urls: tuple[Url, ...]
    max_pages: int
    max_depth: int = -1
    worker_count: int = 1
    politeness_ms: int = DEFAULT_POLITENESS_MS
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    output_path: str = "urls.txt"
    per_host_politeness: bool = True

    def __post_init__(self):
        if not self.seed_urls:
            raise ValueError("seed_urls must be non-empty")
        if self.max_depth < -1:
            raise ValueError("max_depth must be >= -1 (-1 meaning unlimited)")
        if self.max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.politeness_ms < 0:
            raise ValueError("politeness_ms must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")


@dataclass
class CrawlReport:
    pages_fetched: int
    ontologies_found: int
    elapsed_ms: int
    status_histogram: dict[int, int]
    errors: int
    config_echo: CrawlConfig

    def machine_lines(self) -> list[str]:
        cfg = self.config_echo
        lines = [
            f"pages_fetched\t{self.pages_fetched}",
            f"ontologies_found\t{self.ontologies_found}",
            f"elapsed_ms\t{self.elapsed_ms}",
            f"errors\t{self.errors}",
        ]
        for status in sorted(self.status_histogram):
            lines.append(f"status_{status}\t{self.status_histogram[status]}")
        lines += [
            "seed_urls\t" + ",".join(str(u) for u in cfg.seed_urls),
            f"max_depth\t{cfg.max_depth}",
            f"max_pages\t{cfg.max_pages}",
            f"worker_count\t{cfg.worker_count}",
            f"politeness_ms\t{cfg.politeness_ms}",
            f"max_body_bytes\t{cfg.max_body_bytes}",
            f"output_path\t{cfg.output_path}",
        ]
        return lines

    def human_table(self) -> str:
        rows = [line.split("\t") for line in self.machine_lines()]
        width = max(len(key) for key, _ in rows)
        return "\n".join(f"{key:<{width}}  {value}" for key, value in rows)


def _path_extension(path: str) -> str:
    segment = path.rsplit("/", 1)[-1]
    dot = segment.rfind(".")
    return segment[dot:].lower() if dot >= 0 else ""


def classify_url(url: Url, content_type: str | None = None) -> str:
    """Sort a URL into ontology candidate, HTML page, or other."""
    ext = _path_extension(url.path)
    if ext in ONTOLOGY_EXTENSIONS or (content_type in RDF_MEDIA_TYPES):
        return ONTOLOGY_CANDIDATE
    if content_type in HTML_MEDIA_TYPES:
        return HTML_PAGE
    if content_type is None and ext in ("", *HTML_EXTENSIONS):
        return HTML_PAGE
    return OTHER


class _LinkScanner(HTMLParser):
    """Forgiving scan for hrefs: real pages are malformed, so no validation."""

    TAG_ATTR = {"a": "href", "link": "href", "frame": "src", "iframe": "src"}

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.raw_refs: list[str] = []

    def handle_starttag(self, tag, attrs):
        wanted = self.TAG_ATTR.get(tag)
        if wanted is None:
            return
        for name, value in attrs:
            if name == wanted and value is not None:
                self.raw_refs.append(value)
                return

    def parse_marked_section(self, i, report=1):
        # html.parser raises AssertionError on a "<![" with an unknown or
        # missing keyword (e.g. "<![CDAT["); browsers read it as a bogus
        # comment that ends at the next ">", and so does this scan.
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


def _parser_refs(text: str) -> list[str]:
    """The link scan of ``html.parser``: every page's fallback and the fast scan's oracle."""
    scanner = _LinkScanner()
    scanner.feed(text)
    scanner.close()
    return scanner.raw_refs


# The fast link scan reads a page made only of text and simple tags: a start
# tag with a letter-led name and whitespace-separated attributes whose values
# are quoted, unquoted or missing, or an end tag with nothing but its name.
# Whitespace is HTML's [ \t\n\r\f]; names and unquoted values hold no
# character that html.parser splits differently from one Python to the next.
_WS = "[ \t\n\r\f]"
_ATTR_NAME = "[a-zA-Z_:][-.:a-zA-Z0-9_]*"
_ATTR_VALUE = r"""(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+)"""
_ATTRS = re.compile(rf"{_WS}+({_ATTR_NAME})(?:{_WS}*={_WS}*({_ATTR_VALUE}))?")
# One match per "<": a simple start tag (groups 1 and 2), a simple end tag
# (group 3), or the bare "<" of anything else ("<!", "<?", an unterminated
# tag, a "<" in text), which sends the page to html.parser.
_TOKENS = re.compile(
    rf"<(?:([a-zA-Z][-a-zA-Z0-9]*)((?:{_WS}+{_ATTR_NAME}(?:{_WS}*={_WS}*{_ATTR_VALUE})?)*)"
    rf"{_WS}*/?>|/([a-zA-Z][-a-zA-Z0-9]*){_WS}*>|)"
)
# Elements whose content html.parser reads as text on some Python version
# (3.11 has only script and style). The fast scan takes one only when the
# next "<" after its start tag opens its end tag.
_RAW_TEXT = frozenset(
    {"script", "style", "title", "textarea", "xmp", "iframe", "noembed", "noframes", "noscript"}
)
# "&" in an attribute value: html.unescape (3.11) and the attribute rule of
# newer html.parser agree on complete numeric references and on named ones
# that end in ";" and are known; any other "&" sends the page to html.parser.
_CHARREF = re.compile(r"&(?:#[0-9]+;|#[xX][0-9a-fA-F]+;|([a-zA-Z][a-zA-Z0-9]*;))")


def _simple_refs(text: str) -> list[str] | None:
    """The hrefs ``_parser_refs`` gives, or None when ``text`` is not simple markup."""
    refs: list[str] = []
    raw_text = None  # a raw-text element whose end tag must come next
    for token in _TOKENS.finditer(text):
        name, attrs, end = token.groups()
        if raw_text is not None and (end is None or end.lower() != raw_text):
            return None
        raw_text = None
        if name is None:
            if end is None:
                return None
            continue
        tag = name.lower()
        if tag in _RAW_TEXT:
            raw_text = tag
        elif tag == "plaintext":
            return None
        wanted = _LinkScanner.TAG_ATTR.get(tag)
        if wanted is None:
            continue
        for attr in _ATTRS.finditer(attrs):
            value = attr.group(2)
            if value is None or attr.group(1).lower() != wanted:
                continue
            if value[0] in "\"'":
                value = value[1:-1]
            if "&" in value:
                refs_in_value = _CHARREF.findall(value)
                if len(refs_in_value) != value.count("&") or any(
                    named and named not in _HTML5_ENTITIES for named in refs_in_value
                ):
                    return None
                value = unescape(value)
            refs.append(value)
            break
    return refs


def extract_links(html: bytes, base: Url) -> list[Url]:
    """Return normalized link targets in document order, de-duplicated.

    Unsupported schemes and unparseable hrefs are dropped silently. A page of
    simple markup is scanned by regex; any other goes through html.parser.
    Both give the same hrefs.
    """
    text = html.decode("utf-8", errors="replace")
    refs = _simple_refs(text)
    if refs is None:
        refs = _parser_refs(text)
    out: dict[str, Url] = {}
    for ref in refs:
        try:
            url = normalize_url(base, ref)
        except OntoSeekerError:
            continue
        out.setdefault(str(url), url)
    return list(out.values())


def write_url_list(urls: set[Url] | set[str], path: str | Path) -> int:
    """Write one URL per line: UTF-8, LF, sorted, no duplicates. Returns line count."""
    lines = sorted({str(u) for u in urls})
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise OutputUnwritable(f"{path}: {exc}") from exc
    return len(lines)


def _scan(fetched: Future) -> tuple[int | None, Url | None, list[Url]]:
    """(status or None on a transport error, ontology URL, page links); drops the body."""
    try:
        resp = fetched.result()
    except FetchError:
        return None, None, []
    if resp.status == 200:
        kind = classify_url(resp.final_url, resp.content_type)
        if kind == ONTOLOGY_CANDIDATE:
            # Fetched as a presumed page but served with an RDF media type.
            return resp.status, resp.final_url, []
        if kind == HTML_PAGE:
            return resp.status, None, extract_links(resp.body, resp.final_url)
    return resp.status, None, []


def crawl(config: CrawlConfig, transport: Transport) -> CrawlReport:
    """Run the bounded BFS and write the ontology URL file.

    Raises AllSeedsInvalid when every seed either failed classification or
    failed at the transport level, and OutputUnwritable when the URL file
    cannot be written.
    """
    out_parent = Path(config.output_path).resolve().parent
    if not out_parent.is_dir():
        raise OutputUnwritable(f"{config.output_path}: parent directory missing")

    gate = PolitenessGate(config.politeness_ms, per_host=config.per_host_politeness)
    frontier: deque[tuple[Url, int]] = deque()  # (url, depth)
    seen: set[str] = set()
    found: set[str] = set()
    seed_keys = {str(seed) for seed in config.seed_urls}
    seeds_failed: set[str] = set()
    status_histogram: dict[int, int] = {}
    issued = errors = 0

    def admit(url: Url, depth: int) -> None:
        """Route a discovered URL: record candidates, enqueue pages."""
        key = str(url)
        if key in seen:
            return
        seen.add(key)
        kind = classify_url(url)
        if kind == ONTOLOGY_CANDIDATE:
            found.add(key)
        elif kind == HTML_PAGE and (config.max_depth == -1 or depth <= config.max_depth):
            frontier.append((url, depth))
        elif key in seed_keys:
            seeds_failed.add(key)

    started = monotonic_ms()
    for seed in config.seed_urls:
        admit(seed, 0)
    window = LOOKAHEAD_PER_WORKER * config.worker_count
    in_flight: deque[tuple[Url, int, Future]] = deque()  # in issue order
    scanned: dict[Future, tuple[int | None, Url | None, list[Url]]] = {}
    finished: SimpleQueue[Future] = SimpleQueue()
    pool = ThreadPoolExecutor(config.worker_count)
    try:
        while True:
            while frontier and issued < config.max_pages and len(in_flight) < window:
                url, depth = frontier.popleft()
                issued += 1
                future = pool.submit(polite_fetch, transport, gate, url, config.max_body_bytes)
                future.add_done_callback(finished.put)
                in_flight.append((url, depth, future))
            if not in_flight:
                break
            # Scan whichever fetch finished first; admit links in issue order.
            done = finished.get()
            scanned[done] = _scan(done)
            while in_flight and in_flight[0][2] in scanned:
                url, depth, future = in_flight.popleft()
                status, ontology, links = scanned.pop(future)
                key = str(url)
                if status is None:
                    errors += 1
                    if key in seed_keys:
                        seeds_failed.add(key)
                    continue
                status_histogram[status] = status_histogram.get(status, 0) + 1
                if ontology is not None:
                    seen.add(str(ontology))
                    found.add(str(ontology))
                for child in links:
                    admit(child, depth + 1)
    finally:
        pool.shutdown(cancel_futures=True)
    elapsed = int(monotonic_ms() - started)

    if seeds_failed == seed_keys:
        raise AllSeedsInvalid("no seed could be classified or fetched")

    write_url_list(found, config.output_path)
    return CrawlReport(
        pages_fetched=issued,
        ontologies_found=len(found),
        elapsed_ms=elapsed,
        status_histogram=dict(sorted(status_histogram.items())),
        errors=errors,
        config_echo=config,
    )
