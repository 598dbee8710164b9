"""Bounded breadth-first crawl that collects ontology URLs into a text file.

Ontology candidates (``.rdf``/``.owl`` links) are recorded without being
fetched; the indexer downloads them later. The fetch budget is therefore
spent on HTML pages only.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path

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


@dataclass(frozen=True)
class FrontierEntry:
    url: Url
    depth: int


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


def extract_links(html: bytes, base: Url) -> list[Url]:
    """Return normalized link targets in document order, de-duplicated.

    Unsupported schemes and unparseable hrefs are dropped silently.
    """
    scanner = _LinkScanner()
    scanner.feed(html.decode("utf-8", errors="replace"))
    scanner.close()
    out: dict[str, Url] = {}
    for ref in scanner.raw_refs:
        try:
            url = normalize_url(base, ref)
        except OntoSeekerError:
            continue
        out.setdefault(str(url), url)
    return list(out.values())


def write_url_list(urls: set[Url] | frozenset[Url], path: str | Path) -> int:
    """Write one URL per line: UTF-8, LF, sorted, no duplicates. Returns line count."""
    lines = sorted({str(u) for u in urls})
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise OutputUnwritable(f"{path}: {exc}") from exc
    return len(lines)


@dataclass
class _CrawlState:
    config: CrawlConfig
    transport: Transport
    gate: PolitenessGate
    cond: threading.Condition = field(default_factory=threading.Condition)
    frontier: deque[FrontierEntry] = field(default_factory=deque)
    seen: set[str] = field(default_factory=set)
    found: dict[str, Url] = field(default_factory=dict)
    issued: int = 0
    active: int = 0
    stop: bool = False
    errors: int = 0
    status_histogram: dict[int, int] = field(default_factory=dict)
    seed_keys: set[str] = field(default_factory=set)
    seeds_ok: set[str] = field(default_factory=set)
    seeds_failed: set[str] = field(default_factory=set)

    def admit(self, url: Url, depth: int) -> None:
        """Route a discovered URL: record candidates, enqueue pages. Caller holds cond."""
        key = str(url)
        if key in self.seen:
            return
        self.seen.add(key)
        kind = classify_url(url)
        if kind == ONTOLOGY_CANDIDATE:
            self.found[key] = url
            if key in self.seed_keys:
                self.seeds_ok.add(key)
        elif kind == HTML_PAGE:
            cfg = self.config
            if cfg.max_depth == -1 or depth <= cfg.max_depth:
                self.frontier.append(FrontierEntry(url, depth))
            elif key in self.seed_keys:
                self.seeds_failed.add(key)
        elif key in self.seed_keys:
            self.seeds_failed.add(key)


def _worker(state: _CrawlState) -> None:
    cfg = state.config
    while True:
        with state.cond:
            while not state.frontier and state.active > 0 and not state.stop:
                state.cond.wait()
            if state.stop or not state.frontier:
                state.cond.notify_all()
                return
            if state.issued >= cfg.max_pages:
                state.stop = True
                state.cond.notify_all()
                return
            entry = state.frontier.popleft()
            state.issued += 1
            state.active += 1
        try:
            _process(state, entry)
        finally:
            with state.cond:
                state.active -= 1
                state.cond.notify_all()


def _process(state: _CrawlState, entry: FrontierEntry) -> None:
    key = str(entry.url)
    try:
        resp = polite_fetch(state.transport, state.gate, entry.url, state.config.max_body_bytes)
    except FetchError:
        with state.cond:
            state.errors += 1
            if key in state.seed_keys:
                state.seeds_failed.add(key)
        return
    with state.cond:
        state.status_histogram[resp.status] = state.status_histogram.get(resp.status, 0) + 1
        if key in state.seed_keys:
            state.seeds_ok.add(key)
    if resp.status != 200:
        return
    kind = classify_url(resp.final_url, resp.content_type)
    if kind == ONTOLOGY_CANDIDATE:
        # Fetched as a presumed page but served with an RDF media type.
        with state.cond:
            final_key = str(resp.final_url)
            state.seen.add(final_key)
            state.found[final_key] = resp.final_url
        return
    if kind != HTML_PAGE:
        return
    children = extract_links(resp.body, resp.final_url)
    with state.cond:
        for child in children:
            state.admit(child, entry.depth + 1)
        state.cond.notify_all()


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
    state = _CrawlState(config=config, transport=transport, gate=gate)
    started = monotonic_ms()
    with state.cond:
        for seed in config.seed_urls:
            state.seed_keys.add(str(seed))
        for seed in config.seed_urls:
            state.admit(seed, 0)
    if config.worker_count == 1:
        _worker(state)
    else:
        threads = [
            threading.Thread(target=_worker, args=(state,), name=f"crawl-{i}")
            for i in range(config.worker_count)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    elapsed = int(monotonic_ms() - started)

    if not state.seeds_ok and state.seeds_failed == state.seed_keys:
        raise AllSeedsInvalid("no seed could be classified or fetched")

    found = set(state.found.values())
    write_url_list(found, config.output_path)
    return CrawlReport(
        pages_fetched=state.issued,
        ontologies_found=len(found),
        elapsed_ms=elapsed,
        status_histogram=dict(sorted(state.status_histogram.items())),
        errors=state.errors,
        config_echo=config,
    )
