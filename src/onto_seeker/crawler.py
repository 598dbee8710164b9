"""Bounded breadth-first crawl that collects ontology URLs into a text file.

Ontology candidates (``.rdf``/``.owl`` links) are recorded without being
fetched; the indexer downloads them later. The fetch budget is therefore
spent on HTML pages only. Links are found by one regex scan that reads every
page as the html.parser of Python 3.13.13 does, on every supported Python.

Pages are fetched in breadth-first order through ``netfetch.fetch_in_order``,
which hands each fetch back in issue order; the crawl thread scans each page
and admits its links to the frontier the loop takes its pages from, so the
URL file does not depend on the worker count.
"""

from __future__ import annotations

import os
import re
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass
from html import unescape
from html.entities import html5 as _HTML5_ENTITIES
from pathlib import Path

from .errors import OntoSeekerError, reason_of
from .netfetch import (
    DEFAULT_POLITENESS_MS,
    FetchError,
    FetchResponse,
    PolitenessGate,
    Transport,
    Url,
    fetch_in_order,
    monotonic_ms,
    normalize_url,
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
        rows = [line.split("\t", 1) for line in self.machine_lines()]
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


# The scan follows html.parser 3.13.13. _MARKUP matches once per "<": an end
# tag with no attributes (nothing to read, and the commonest markup), any
# other tag up to its first attribute, a comment opener, a CDATA section, a
# bogus comment ("<!doctype", "<?", "</" + non-letter) or a "<" in text.
# _ATTR is attrfind_tolerant: one match per attribute walks a tag as
# locatetagend does. A construct left open at the end of the page drops the
# rest of it. The runs of space and "/" between attributes stop lazily before
# a "/>" (html.parser's (?:[ \t\n\r\f]|/(?!>))*): a repeated group would keep
# a backtracking entry per character, hundreds of MiB for a 4 MiB tag.
_MARKUP = re.compile(
    r"""<(?:/[a-zA-Z][^\t\n\r\f />]*[\t\n\r\f /]*>
     |(/?)([a-zA-Z][^\t\n\r\f />]*)[\t\n\r\f /]*?(?=/?>|[^\t\n\r\f /]|\Z)(/?>)?
     |(!--)|!\[CDATA\[(?:.*?\]\]>)?|[!?/][^>]*>?|)""",
    re.VERBOSE | re.DOTALL,
)
_ATTR = re.compile(
    r"""(?<=['"\t\n\r\f /])([^\t\n\r\f />][^\t\n\r\f /=>]*)
    ([\t\n\r\f ]*=[\t\n\r\f ]*('[^']*'|"[^"]*"|(?!['"])[^>\t\n\r\f ]*))?
    [\t\n\r\f /]*?(?=/?>|[^\t\n\r\f /]|\Z)(/?>)?""",
    re.VERBOSE,
)
_ATTR_CHARREF = re.compile(r"&(#([0-9]+)|#[xX][0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*)[;=]?")
_COMMENT_CLOSE = re.compile(r"--!?>")
_COMMENT_ABRUPT_CLOSE = re.compile(r"-?>")
# The start tags the scan reads: each link tag with the attribute that holds
# its target, and each element whose content is text up to where its pattern
# matches (the end of the page for plaintext).
_LINK_ATTR = {"a": "href", "link": "href", "frame": "src", "iframe": "src"}
_RAW_TEXT_END = {
    tag: re.compile(rf"</{tag}(?=[\t\n\r\f />])", re.IGNORECASE | re.ASCII)
    for tag in ("script", "style", "xmp", "iframe", "noembed", "noframes", "title", "textarea")
} | {"plaintext": re.compile(r"\Z")}


def _decode_charref(match: re.Match) -> str:
    """A numeric or known named reference, decoded; "&name=" is kept, as "name=" is no entity.
    Decimal digits reach unescape less leading zeros and cut to 8, so int()'s 4,300-digit
    limit is never met: 8 digits are already above U+10FFFF, which reads as U+FFFD."""
    ref, digits = match.group(), match[2]
    if digits:
        ref = f"&#{digits.lstrip('0')[:8] or 0}{ref[len(digits) + 2 :]}"
    return unescape(ref) if ref[1] == "#" or ref[1:] in _HTML5_ENTITIES else ref


def _link_refs(text: str) -> list[str]:
    """The link targets of ``text`` in document order, as html.parser 3.13.13 reads them."""
    refs: list[str] = []
    pos = 0
    comments_close = True  # false once no "--!?>" is left, so "<!-->" * n scans in linear time
    while (markup := _MARKUP.search(text, pos)) is not None:
        pos = markup.end()
        end_slash, name, closed, comment = markup.groups()
        if name is None:
            if comment:
                close = _COMMENT_CLOSE.search(text, pos) if comments_close else None
                if close is None:
                    comments_close = False
                    close = _COMMENT_ABRUPT_CLOSE.match(text, pos)
                    if close is None:
                        break
                pos = close.end()
            elif text[pos - 1] != ">" and pos - markup.start() > 1:
                break
            continue
        tag = name.lower()
        if not closed:
            # The first attribute named as wanted that has a value wins.
            wanted = None if end_slash else _LINK_ATTR.get(tag)
            ref = None
            while not closed and (attr := _ATTR.match(text, pos)) is not None:
                pos, closed = attr.end(), attr[4]
                if ref is None and wanted and attr[2] and attr[1].lower() == wanted:
                    ref = attr[3]
                    if ref[:1] in ("'", '"'):
                        ref = ref[1:-1]
                    if "&" in ref:
                        ref = _ATTR_CHARREF.sub(_decode_charref, ref)
            if not closed:
                break
            if ref is not None:
                refs.append(ref)
        if end_slash or closed == "/>":
            continue  # an end tag, or a self-closed element: its content is markup
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None:
            close = raw_end.search(text, pos)
            if close is None:
                break
            pos = close.start()
    return refs


def extract_links(html: bytes, base: Url) -> list[Url]:
    """Return normalized link targets in document order, de-duplicated.

    The hrefs are those the link scan of Python 3.13.13's html.parser finds,
    on every Python. Unsupported schemes and unparseable hrefs are dropped
    silently.
    """
    text = html.decode("utf-8", errors="replace")
    out: dict[Url, None] = {}
    for ref in _link_refs(text):
        try:
            url = normalize_url(base, ref)
        except OntoSeekerError:
            continue
        out[url] = None
    return list(out)


def write_url_list(urls: set[Url] | set[str], path: str | Path) -> int:
    """Write one URL per line: UTF-8, LF, sorted, no duplicates. Returns line count.

    The lines go to a ``.tmp`` sibling, fsynced, which then replaces ``path``,
    so a failed write keeps the previous list."""
    lines = sorted({str(u) for u in urls})
    temp = f"{path}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except OSError as exc:
        with suppress(OSError):
            os.unlink(temp)
        raise OutputUnwritable(f"{path}: {reason_of(exc)}") from exc
    return len(lines)


def _scan(resp: FetchResponse) -> tuple[Url | None, list[Url]]:
    """(ontology URL, page links) of a fetched page."""
    if resp.status == 200:
        kind = classify_url(resp.final_url, resp.content_type)
        if kind == ONTOLOGY_CANDIDATE:
            # Fetched as a presumed page but served with an RDF media type.
            return resp.final_url, []
        if kind == HTML_PAGE:
            return None, extract_links(resp.body, resp.final_url)
    return None, []


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
    frontier: deque[tuple[Url, int]] = deque()  # (url, depth), fetched in order
    seen: set[Url] = set()
    found: set[Url] = set()
    seeds = set(config.seed_urls)
    seeds_failed: set[Url] = set()
    status_histogram: dict[int, int] = {}
    admitted = errors = 0

    def admit(url: Url, depth: int) -> None:
        """Route a discovered URL: record candidates, enqueue pages up to max_pages."""
        nonlocal admitted
        if url in seen:
            return
        seen.add(url)
        kind = classify_url(url)
        if kind == ONTOLOGY_CANDIDATE:
            found.add(url)
        elif kind == HTML_PAGE and (config.max_depth == -1 or depth <= config.max_depth):
            if admitted < config.max_pages:
                admitted += 1
                frontier.append((url, depth))
        elif url in seeds:
            seeds_failed.add(url)

    started = monotonic_ms()
    for seed in config.seed_urls:
        admit(seed, 0)
    fetched = fetch_in_order(transport, gate, frontier, config.max_body_bytes, config.worker_count)
    with closing(fetched):  # a scan that raises still stops the pool
        for url, depth, resp in fetched:
            if isinstance(resp, FetchError):
                errors += 1
                if url in seeds:
                    seeds_failed.add(url)
                continue
            status_histogram[resp.status] = status_histogram.get(resp.status, 0) + 1
            ontology, links = _scan(resp)
            if ontology is not None:
                seen.add(ontology)
                found.add(ontology)
            for child in links:
                admit(child, depth + 1)
    elapsed = int(monotonic_ms() - started)

    if seeds_failed == seeds:
        raise AllSeedsInvalid("no seed could be classified or fetched")

    write_url_list(found, config.output_path)
    return CrawlReport(
        pages_fetched=admitted,
        ontologies_found=len(found),
        elapsed_ms=elapsed,
        status_histogram=dict(sorted(status_histogram.items())),
        errors=errors,
        config_echo=config,
    )
