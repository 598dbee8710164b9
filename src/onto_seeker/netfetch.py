"""URL values, politeness scheduling, the fetch transport abstraction, and
the one fetch loop that the crawl and the index share.

Two transports implement the same ``fetch`` contract: :class:`LiveTransport`
speaks real HTTP, and the corpus transport in :mod:`onto_seeker.harness`
replays an in-memory corpus for deterministic tests. :func:`fetch_in_order`
fetches a queue of URLs through the politeness gate and hands the results
back in the order the URLs were taken from the queue: on the calling thread
for one worker, on a pool of threads for more.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from collections import deque
from collections.abc import Iterator
from concurrent import futures
from dataclasses import dataclass, field
from http.cookiejar import DefaultCookiePolicy
from typing import TYPE_CHECKING, Protocol, TypeVar
from urllib.parse import quote, urlsplit

from . import __version__
from .errors import OntoSeekerError
from .rdf.model import InvalidIri, resolve_iri

if TYPE_CHECKING:
    import requests

DEFAULT_PORTS = {"http": 80, "https": 443}
SUPPORTED_SCHEMES = frozenset(DEFAULT_PORTS)

_HOST_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789._-")
# Line breaks to str.splitlines that urlsplit keeps; Url.parse percent-encodes them.
_LINE_BREAKS = re.compile("[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")

DEFAULT_POLITENESS_MS = 300
DEFAULT_TIMEOUT_S = 20.0
MAX_REDIRECTS = 5

# URLs fetch_in_order may have taken per worker and not yet handed back.
# Results go back in issue order, so one slow fetch holds back the rest;
# this much lookahead keeps the other workers fetching meanwhile.
LOOKAHEAD_PER_WORKER = 32


class UnsupportedScheme(OntoSeekerError):
    pass


class MalformedUrl(OntoSeekerError):
    pass


class FetchError(OntoSeekerError):
    """Transport-level failure; HTTP error statuses are data, not errors."""


class Timeout(FetchError):
    pass


class ConnectionFailed(FetchError):
    pass


class TooManyRedirects(FetchError):
    pass


@dataclass(frozen=True)
class Url:
    """An absolute http(s) address with the fragment already stripped."""

    scheme: str
    host: str
    port: int
    path: str
    query: str | None = None

    @classmethod
    def parse(cls, raw: str) -> "Url":
        # Strip after dropping the fragment, so no whitespace that stood before
        # a '#' ends the URL and str() of the result parses back to it.
        raw = raw.split("#", 1)[0].strip()
        raw = _LINE_BREAKS.sub(lambda match: quote(match.group()), raw)
        try:
            parts = urlsplit(raw)
        except ValueError as exc:
            raise MalformedUrl(f"unparseable URL {raw!r}: {exc}") from None
        scheme = parts.scheme.lower()
        if scheme not in SUPPORTED_SCHEMES:
            raise UnsupportedScheme(f"scheme {scheme or '(none)'!r} in {raw!r}")
        if parts.username is not None or parts.password is not None:
            raise MalformedUrl(f"userinfo not allowed in {raw!r}")
        host = (parts.hostname or "").lower()
        # A bracketed host is an IP literal, refused on every Python (3.10's
        # urlsplit takes "[x]" and gives the host "x").
        if not host or "[" in parts.netloc or not set(host) <= _HOST_CHARS:
            raise MalformedUrl(f"bad host in {raw!r}")
        try:
            port = parts.port
        except ValueError:
            raise MalformedUrl(f"bad port in {raw!r}") from None
        if port is None:
            port = DEFAULT_PORTS[scheme]
        path = parts.path or "/"
        if not path.startswith("/"):
            raise MalformedUrl(f"non-rooted path in {raw!r}")
        query = parts.query if "?" in raw else None
        return cls(scheme=scheme, host=host, port=port, path=path, query=query)

    def __str__(self) -> str:
        port = "" if self.port == DEFAULT_PORTS[self.scheme] else f":{self.port}"
        query = "" if self.query is None else f"?{self.query}"
        return f"{self.scheme}://{self.host}{port}{self.path}{query}"


# Two href shapes whose Url is built without urljoin: a rooted path
# ("/a/b?q", not "//host"), or an absolute http(s) URL with a lower-case host
# of _HOST_CHARS, no port and no userinfo. Path and query hold unreserved and
# sub-delim characters only: no ";" (urljoin splits it off as params) and no
# segment led by "." (no dot segments). A "?" needs a non-empty query, as
# urljoin drops an empty one. The fragment is dropped. A rooted path keeps the
# base's scheme, host and port, all urljoin keeps of str(base) for it.
_SEGMENT = r"/(?:[-\w~!$&'()*+,=][-.\w~!$&'()*+,=]*)?"
_SIMPLE_HREF = re.compile(
    rf"(?:(https?)://([a-z0-9._-]+)((?:{_SEGMENT})*)|(?!//)((?:{_SEGMENT})+))"
    r"(?:\?([-.\w~!$&'()*+,=/?]+))?(?:#.*)?",
    re.ASCII | re.DOTALL,
)


def _join_simple(base: Url, ref: str) -> Url | None:
    """The Url ``_join_stdlib`` gives for a simple ``ref``; None for any other."""
    match = _SIMPLE_HREF.fullmatch(ref)
    if match is None:
        return None
    scheme, host, path, rooted_path, query = match.groups()
    if scheme is None:
        return Url(base.scheme, base.host, base.port, rooted_path, query)
    return Url(scheme, host, DEFAULT_PORTS[scheme], path or "/", query)


def _join_stdlib(base: Url, ref: str) -> Url:
    """resolve_iri + Url.parse: the fallback for every href and the fast path's oracle."""
    try:
        return Url.parse(resolve_iri(str(base), ref))
    except InvalidIri as exc:
        raise MalformedUrl(f"unjoinable href {ref!r}: {exc}") from None


def normalize_url(base: Url, href: str) -> Url:
    """Resolve ``href`` against ``base`` into an absolute, fragment-free Url.

    Raises UnsupportedScheme for non-http(s) targets (mailto:, javascript:,
    ftp:, data:, ...) and MalformedUrl for anything urlsplit cannot stomach.
    """
    ref = href.strip()
    url = _join_simple(base, ref)
    return url if url is not None else _join_stdlib(base, ref)


@dataclass(frozen=True)
class FetchResponse:
    final_url: Url
    status: int
    content_type: str | None
    body: bytes


class Transport(Protocol):
    """Follows at most MAX_REDIRECTS redirects, returns the first ``max_body_bytes``
    bytes of the body, and raises every transport failure as a FetchError."""

    def fetch(
        self, url: Url, max_body_bytes: int, issued_at_ms: float | None = None
    ) -> FetchResponse: ...


def monotonic_ms() -> float:
    return time.monotonic() * 1000.0


@dataclass
class PolitenessGate:
    """Hands out request slots so same-host requests stay >= politeness_ms apart.

    Each acquire reserves the next free slot for the host, so concurrent
    callers each get a distinct grant time. ``per_host=False`` makes every
    request share one clock (global politeness).
    """

    politeness_ms: int
    per_host: bool = True
    _last_grant: dict[str, float] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def acquire_slot(self, host: str, now_ms: float) -> float:
        """Reserve the next slot for ``host`` at ``now_ms``; returns the wait in ms (0 or more)."""
        key = host if self.per_host else ""
        with self._lock:
            prev = self._last_grant.get(key)
            grant = now_ms if prev is None else max(now_ms, prev + self.politeness_ms)
            self._last_grant[key] = grant
        return grant - now_ms


def polite_fetch(
    transport: Transport,
    gate: PolitenessGate,
    url: Url,
    max_body_bytes: int,
) -> FetchResponse:
    """Acquire a slot for url's host, sleep it off, then fetch.

    The scheduled grant time is forwarded to the transport so corpus request
    logs record scheduler time rather than wall-clock jitter.
    """
    now = monotonic_ms()
    wait = gate.acquire_slot(url.host, now)
    if wait > 0:
        time.sleep(wait / 1000.0)
    return transport.fetch(url, max_body_bytes, issued_at_ms=now + wait)


def _fetch_or_error(
    transport: Transport, gate: PolitenessGate, url: Url, max_body_bytes: int
) -> FetchResponse | FetchError:
    try:
        return polite_fetch(transport, gate, url, max_body_bytes)
    except FetchError as exc:
        return exc


Tag = TypeVar("Tag")


def fetch_in_order(
    transport: Transport,
    gate: PolitenessGate,
    pending: deque[tuple[Url, Tag]],
    max_body_bytes: int,
    workers: int,
) -> Iterator[tuple[Url, Tag, FetchResponse | FetchError]]:
    """Fetch each ``(url, tag)`` taken from the head of ``pending`` and yield
    ``(url, tag, response or FetchError)`` in the order they were taken.

    The caller may append to ``pending`` between results; the loop takes the
    new entries in turn, and ends once ``pending`` is empty and every fetch is
    handed back. One worker fetches on the calling thread, one URL per result.
    More run ``workers`` pool threads that only fetch, with at most
    ``LOOKAHEAD_PER_WORKER * workers`` URLs taken and not yet handed back, so
    at most that many less one finished responses wait behind a slow fetch.
    Close the generator (``contextlib.closing``) to stop the pool early.
    """
    if workers == 1:
        while pending:
            url, tag = pending.popleft()
            yield url, tag, _fetch_or_error(transport, gate, url, max_body_bytes)
        return
    window = LOOKAHEAD_PER_WORKER * workers
    in_flight = deque()  # (url, tag, future), oldest first
    pool = futures.ThreadPoolExecutor(workers)
    try:
        while True:
            while pending and len(in_flight) < window:
                url, tag = pending.popleft()
                fetch = pool.submit(_fetch_or_error, transport, gate, url, max_body_bytes)
                in_flight.append((url, tag, fetch))
            if not in_flight:
                return
            url, tag, fetch = in_flight.popleft()
            yield url, tag, fetch.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _strip_media_type(header: str | None) -> str | None:
    if not header:
        return None
    media = header.split(";", 1)[0].strip().lower()
    return media or None


class LiveTransport:
    """HTTP/1.1 transport with a fixed User-Agent, no cookies, no scripts.

    ``timeout_s`` limits each socket wait and, checked between body reads,
    the whole fetch: a body still arriving ``timeout_s`` after the fetch
    started raises Timeout. Each read returns what one socket wait brings, so
    a body dripped a byte at a time stops at the deadline plus at most one
    socket wait.

    Note: robots.txt is NOT consulted (out of scope for this crawler model);
    be careful pointing this at hosts you do not control.
    """

    def __init__(
        self,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        session: requests.Session | None = None,
    ):
        import requests  # only the live transport needs it

        if not 0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be a finite number > 0, not {timeout_s}")
        self.timeout_s = timeout_s
        if session is None:
            session = requests.Session()
            session.cookies.set_policy(DefaultCookiePolicy(allowed_domains=[]))
        session.max_redirects = MAX_REDIRECTS
        ua = os.environ.get("ONTO_SEEKER_UA") or f"onto-seeker/{__version__}"
        session.headers["User-Agent"] = ua
        self._session = session

    def fetch(
        self, url: Url, max_body_bytes: int, issued_at_ms: float | None = None
    ) -> FetchResponse:
        import requests
        from urllib3.exceptions import HTTPError, ReadTimeoutError

        deadline = time.monotonic() + self.timeout_s
        try:
            resp = self._session.get(
                str(url), timeout=self.timeout_s, stream=True, allow_redirects=True
            )
        except requests.Timeout as exc:
            raise Timeout(str(url)) from exc
        except requests.TooManyRedirects as exc:
            raise TooManyRedirects(str(url)) from exc
        except requests.RequestException as exc:
            raise ConnectionFailed(f"{url}: {exc}") from exc
        with resp:
            body = bytearray()
            try:
                # read1 returns after one socket wait; iter_content would wait
                # for a whole chunk, however slowly it drips in.
                while len(body) < max_body_bytes:
                    if time.monotonic() > deadline:
                        raise Timeout(f"{url}: body not read within {self.timeout_s} s")
                    chunk = resp.raw.read1(65536, decode_content=True)
                    if not chunk:
                        break
                    body += chunk
            except ReadTimeoutError as exc:
                raise Timeout(str(url)) from exc
            except HTTPError as exc:
                raise ConnectionFailed(f"{url}: body read failed: {exc}") from exc
            try:
                final_url = Url.parse(resp.url)
            except OntoSeekerError as exc:
                raise ConnectionFailed(f"{url}: unusable final URL: {exc}") from exc
            return FetchResponse(
                final_url=final_url,
                status=resp.status_code,
                content_type=_strip_media_type(resp.headers.get("Content-Type")),
                body=bytes(body[:max_body_bytes]),
            )
