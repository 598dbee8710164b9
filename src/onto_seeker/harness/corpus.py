"""In-memory corpus transport: the page-repository stand-in for offline tests."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import OntoSeekerError
from ..netfetch import (
    ConnectionFailed,
    FetchResponse,
    HopResult,
    MalformedUrl,
    Timeout,
    Url,
    follow_redirects,
    media_type,
    monotonic_ms,
)

EXTENSION_TYPES = {
    ".html": "text/html",
    ".htm": "text/html",
    ".xhtml": "application/xhtml+xml",
    ".rdf": "application/rdf+xml",
    ".owl": "application/rdf+xml",
    ".ttl": "text/turtle",
    ".txt": "text/plain",
    ".json": "application/json",
    ".csv": "text/csv",
}
DEFAULT_TYPE = "application/octet-stream"


class PathUnreadable(OntoSeekerError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    status: int = 200
    content_type: str | None = None
    body: bytes = b""
    latency_ms: int = 0
    location: str | None = None  # redirect target for 3xx entries
    hang: bool = False  # simulate a transport timeout


@dataclass
class Corpus:
    entries: dict[str, CorpusEntry] = field(default_factory=dict)
    request_log: list[tuple[str, float]] = field(default_factory=list)
    _log_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, url: Url | str, entry: CorpusEntry) -> None:
        self.entries[str(url)] = entry

    def log_request(self, url_key: str, issue_ms: float) -> None:
        with self._log_lock:
            self.request_log.append((url_key, issue_ms))

    def per_host_issue_times(self) -> dict[str, list[float]]:
        """Issue times grouped by host, sorted; for politeness-gap assertions."""
        by_host: dict[str, list[float]] = {}
        with self._log_lock:
            log = list(self.request_log)
        for url_key, issue_ms in log:
            host = Url.parse(url_key).host
            by_host.setdefault(host, []).append(issue_ms)
        for times in by_host.values():
            times.sort()
        return by_host


class CorpusTransport:
    """Replays a Corpus; optionally sleeps per-entry latency so multi-worker
    crawls exhibit real overlap."""

    def __init__(self, corpus: Corpus, sleep_latency: bool = True):
        self.corpus = corpus
        self.sleep_latency = sleep_latency

    def fetch(
        self, url: Url, max_body_bytes: int, issued_at_ms: float | None = None
    ) -> FetchResponse:
        issue_ms = issued_at_ms if issued_at_ms is not None else monotonic_ms()
        return follow_redirects(url, self._hop, max_body_bytes, issue_ms)

    def _hop(self, url: Url, max_body_bytes: int, issue_ms: float) -> HopResult:
        key = str(url)
        self.corpus.log_request(key, issue_ms)
        entry = self.corpus.entries.get(key)
        if entry is None:
            raise ConnectionFailed(f"{key}: not in corpus")
        if entry.hang:
            raise Timeout(key)
        if entry.latency_ms > 0 and self.sleep_latency:
            time.sleep(entry.latency_ms / 1000.0)
        content_type = media_type(entry.content_type)
        response = FetchResponse(url, entry.status, content_type, entry.body[:max_body_bytes])
        return response, entry.location


def corpus_from_dir(path: str | Path, host: str) -> Corpus:
    """Serve a directory of files as http://host/<relative-path>, spelling
    ``host`` ("H.test", "h.test:80") as Url does; MalformedUrl if it is no host[:port].

    Media types come from extensions; an index.html additionally answers for
    its directory URL so a bare seed like http://host/ resolves.
    """
    prefix = str(Url.parse(f"http://{host}/"))
    if prefix.count("/") != 3 or "#" in host:  # a path, a query or a fragment
        raise MalformedUrl(f"not a host[:port]: {host!r}")
    root = Path(path)
    if not root.is_dir():
        raise PathUnreadable(f"{path} is not a readable directory")
    corpus = Corpus()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = file.relative_to(root).as_posix()
        try:
            body = file.read_bytes()
        except OSError as exc:
            raise PathUnreadable(f"{file}: {exc}") from exc
        media_type = EXTENSION_TYPES.get(file.suffix.lower(), DEFAULT_TYPE)
        entry = CorpusEntry(status=200, content_type=media_type, body=body)
        corpus.add(prefix + rel, entry)
        if file.name == "index.html":
            parent = file.parent.relative_to(root).as_posix()
            corpus.add(prefix if parent == "." else f"{prefix}{parent}/", entry)
    return corpus
