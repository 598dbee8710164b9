"""URL values, politeness scheduling, the fetch transport abstraction, and
the one fetch loop that the crawl and the index share.

Two transports implement the same ``fetch`` contract: :class:`LiveTransport`
speaks HTTP through urllib3, and the corpus transport in
:mod:`onto_seeker.harness` replays an in-memory corpus for deterministic
tests. Both make one request per hop and leave its Content-Type to one rule,
:func:`media_type`, and redirects to another, :func:`follow_redirects`. A live
fetch never reads a redirect's body, checks its one deadline (start +
``timeout_s``) before each hop and between body reads, sends no cookies or
``.netrc`` credentials, takes proxies as :func:`urllib.request.getproxies` and
``proxy_bypass`` read them (no CIDR ranges), and checks TLS against the system
trust store (``SSL_CERT_FILE``).

:func:`fetch_in_order` fetches a queue of URLs through the politeness gate
and hands the results back in the order the URLs were taken from the queue:
on the calling thread for one worker, on a pool of threads for more.
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
from typing import Callable, NamedTuple, Protocol, TypeVar
from urllib.parse import quote, unquote
from urllib.request import getproxies, proxy_bypass

from . import __version__
from .errors import OntoSeekerError
from .rdf.model import IRI_PARTS, merge_reference, remove_dot_segments

DEFAULT_PORTS = {"http": 80, "https": 443}
SUPPORTED_SCHEMES = frozenset(DEFAULT_PORTS)

_HOST = re.compile("[a-z0-9._-]+")
_C0_OR_SPACE = "".join(map(chr, range(0x21)))
# str.splitlines' line breaks but CR and LF; percent-encoded, so a URL is one line.
_LINE_BREAKS = re.compile("[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# Percent-encoded as the byte surrogateescape read U+DC80..U+DCFF from (a
# command-line argument that is not UTF-8); any other surrogate is refused.
_SURROGATES = re.compile("[\ud800-\udfff]")

DEFAULT_POLITENESS_MS = 300
DEFAULT_TIMEOUT_S = 20.0
MAX_REDIRECTS = 5
REDIRECT_STATUSES = frozenset((301, 302, 303, 307, 308))

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


class Url(NamedTuple):
    """An absolute http(s) address with the fragment already stripped. Its
    host is lower-case with no ":", its path starts with "/", str() leaves
    out the default port and tells a None query from "", so two Urls are
    equal exactly when their str() are."""

    scheme: str
    host: str
    port: int
    path: str
    query: str | None = None

    @classmethod
    def parse(cls, raw: str) -> "Url":
        raw = _clean(raw)
        return _checked_url(raw, *IRI_PARTS.fullmatch(raw).groups()[:4])

    def __str__(self) -> str:
        port = "" if self.port == DEFAULT_PORTS[self.scheme] else f":{self.port}"
        query = "" if self.query is None else f"?{self.query}"
        return f"{self.scheme}://{self.host}{port}{self.path}{query}"


def _clean(raw: str) -> str:
    """``raw`` less its fragment, then less whitespace at either end (so none
    ends str() of its Url), leading C0 controls and spaces, and TAB, CR and
    LF; _LINE_BREAKS and _SURROGATES percent-encoded, so str() of its Url is
    one line of UTF-8. MalformedUrl for a surrogate that is not a byte."""
    raw = raw.partition("#")[0].strip().lstrip(_C0_OR_SPACE)
    if raw.isprintable():  # so no TAB, CR, LF, line break or surrogate
        return raw
    raw = raw.replace("\t", "").replace("\r", "").replace("\n", "")
    raw = _LINE_BREAKS.sub(lambda match: quote(match.group()), raw)
    try:
        return _SURROGATES.sub(lambda match: quote(match.group(), errors="surrogateescape"), raw)
    except UnicodeEncodeError:
        raise MalformedUrl(f"lone surrogate in {raw!r}") from None


def _checked_url(
    raw: str, scheme: str | None, authority: str | None, path: str, query: str | None
) -> Url:
    """The Url of ``raw``'s parts: http(s), a _HOST (so no IP literal), no
    userinfo; its path without dot segments, so each page has one Url."""
    authority = authority or ""
    scheme = (scheme or "").lower()
    if scheme not in SUPPORTED_SCHEMES:
        raise UnsupportedScheme(f"scheme {scheme or '(none)'!r} in {raw!r}")
    if "@" in authority:
        raise MalformedUrl(f"userinfo not allowed in {raw!r}")
    host, _, port = authority.lower().partition(":")
    if not _HOST.fullmatch(host):
        raise MalformedUrl(f"bad host in {raw!r}")
    digits = port.lstrip("0")  # at most 5 digits reach int(), whose limit is 4,300
    if port and not (
        port.isascii() and port.isdigit() and len(digits) <= 5 and int(digits or 0) <= 65535
    ):
        raise MalformedUrl(f"bad port in {raw!r}")
    path = remove_dot_segments(path) or "/"
    return Url(scheme, host, int(digits or 0) if port else DEFAULT_PORTS[scheme], path, query)


def normalize_url(base: Url, href: str) -> Url:
    """``href``, cleaned as Url.parse cleans a URL, resolved by resolve_iri's rule
    against ``base``'s fields. UnsupportedScheme for a non-http(s) target
    (mailto:, javascript:, ...), MalformedUrl for a bad host or port."""
    ref = _clean(href)
    scheme, authority, path, query, _ = IRI_PARTS.fullmatch(ref).groups()
    if scheme is None and authority is None:
        if not path and query is None:  # a fragment, or nothing: the base itself
            return base
        path, query = merge_reference(base.path, base.query, True, path, query)
        return Url(base.scheme, base.host, base.port, path, query)
    return _checked_url(ref, scheme or base.scheme, authority, path, query)


@dataclass(frozen=True)
class FetchResponse:
    final_url: Url
    status: int
    content_type: str | None
    body: bytes


HopResult = tuple[FetchResponse, str | None]  # one request's response and Location


def media_type(content_type: str | None) -> str | None:
    """The media type of a Content-Type value, lower-cased; None if absent or empty."""
    return (content_type or "").split(";", 1)[0].strip().lower() or None


class Transport(Protocol):
    """Follows at most MAX_REDIRECTS redirects, returns the first ``max_body_bytes``
    bytes of the body, and raises every transport failure as a FetchError."""

    def fetch(
        self, url: Url, max_body_bytes: int, issued_at_ms: float | None = None
    ) -> FetchResponse: ...


def follow_redirects(url: Url, hop: Callable[..., HopResult], *args) -> FetchResponse:
    """The one redirect rule: ``hop(url, *args)`` makes one request and returns
    its response and ``Location`` (or None). A 301, 302, 303, 307 or 308 with
    a Location is followed to ``normalize_url(url, location)``; any other
    response is returned. An unusable target raises ConnectionFailed, and a
    redirect after ``MAX_REDIRECTS`` hops raises TooManyRedirects."""
    current = url
    for _ in range(MAX_REDIRECTS + 1):
        resp, location = hop(current, *args)
        if location is None or resp.status not in REDIRECT_STATUSES:
            return resp
        try:
            current = normalize_url(current, location)
        except OntoSeekerError as exc:
            raise ConnectionFailed(f"{current}: unusable redirect target: {exc}") from exc
    raise TooManyRedirects(str(url))


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
    transport: Transport, gate: PolitenessGate, url: Url, max_body_bytes: int
) -> FetchResponse | FetchError:
    """Acquire a slot for url's host, sleep it off, then fetch; a FetchError
    is returned, not raised.

    The scheduled grant time is forwarded to the transport so corpus request
    logs record scheduler time rather than wall-clock jitter.
    """
    now = monotonic_ms()
    wait = gate.acquire_slot(url.host, now)
    if wait > 0:
        time.sleep(wait / 1000.0)
    try:
        return transport.fetch(url, max_body_bytes, issued_at_ms=now + wait)
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
            yield url, tag, polite_fetch(transport, gate, url, max_body_bytes)
        return
    window = LOOKAHEAD_PER_WORKER * workers
    in_flight = deque()  # (url, tag, future), oldest first
    pool = futures.ThreadPoolExecutor(workers)
    try:
        while True:
            while pending and len(in_flight) < window:
                url, tag = pending.popleft()
                fetch = pool.submit(polite_fetch, transport, gate, url, max_body_bytes)
                in_flight.append((url, tag, fetch))
            if not in_flight:
                return
            url, tag, fetch = in_flight.popleft()
            yield url, tag, fetch.result()
    finally:
        pool.shutdown(cancel_futures=True)


class LiveTransport:
    """HTTP/1.1 transport on urllib3 with a fixed User-Agent, no cookies, no scripts.

    Note: robots.txt is NOT consulted (out of scope for this crawler model);
    be careful pointing this at hosts you do not control.
    """

    def __init__(self, timeout_s: float = DEFAULT_TIMEOUT_S):
        import urllib3  # only the live transport needs it

        if not 0 < timeout_s < math.inf:
            raise ValueError(f"timeout_s must be a finite number > 0, not {timeout_s}")
        self.timeout_s = timeout_s
        ua = os.environ.get("ONTO_SEEKER_UA") or f"onto-seeker/{__version__}"
        headers = {"User-Agent": ua, "Accept": "*/*"}
        headers.update(urllib3.util.make_headers(accept_encoding=True))
        # Ten idle connections per pool, not one, so ten workers can share a host or proxy.
        self._direct = urllib3.PoolManager(headers=headers, maxsize=10)
        self._proxied = {}
        proxies = getproxies()
        for scheme in SUPPORTED_SCHEMES:
            proxy = proxies.get(scheme) or proxies.get("all")
            if proxy:
                proxy = proxy if "://" in proxy else f"http://{proxy}"
                auth = urllib3.util.parse_url(proxy).auth
                auth_headers = auth and urllib3.util.make_headers(proxy_basic_auth=unquote(auth))
                self._proxied[scheme] = urllib3.ProxyManager(
                    proxy, headers=headers, proxy_headers=auth_headers, maxsize=10
                )

    def fetch(
        self, url: Url, max_body_bytes: int, issued_at_ms: float | None = None
    ) -> FetchResponse:
        deadline = time.monotonic() + self.timeout_s
        return follow_redirects(url, self._hop, max_body_bytes, deadline)

    def _hop(self, url: Url, max_body_bytes: int, deadline: float) -> HopResult:
        from urllib3 import exceptions as urllib3_errors

        if time.monotonic() > deadline:
            raise Timeout(f"{url}: not fetched within {self.timeout_s} s")
        manager = self._proxied.get(url.scheme)
        if manager is None or proxy_bypass(f"{url.host}:{url.port}"):
            manager = self._direct
        body = bytearray()
        try:
            resp = manager.request(
                "GET", str(url), redirect=False, retries=False, preload_content=False,
                timeout=self.timeout_s,
            )
            try:
                redirect = resp.status in REDIRECT_STATUSES
                location = resp.headers.get("Location") if redirect else None
                if location is not None:  # http.client reads header bytes as Latin-1
                    location = location.encode("latin-1").decode("utf-8")
                # Each read1 is one socket wait; read(amt) would wait for amt
                # bytes, however slowly they drip in.
                while location is None and len(body) < max_body_bytes:
                    if time.monotonic() > deadline:
                        raise Timeout(f"{url}: body not read within {self.timeout_s} s")
                    chunk = resp.read1(min(65536, max_body_bytes - len(body)), decode_content=True)
                    if not chunk:
                        break
                    body += chunk
            finally:  # a body read to its end has handed its connection back to the pool
                resp.close()
                resp.release_conn()
        except urllib3_errors.NewConnectionError as exc:  # urllib3 files it under timeouts
            raise ConnectionFailed(f"{url}: {exc}") from exc
        except urllib3_errors.TimeoutError as exc:
            raise Timeout(str(url)) from exc
        except (urllib3_errors.HTTPError, UnicodeError) as exc:  # a Location not in UTF-8
            raise ConnectionFailed(f"{url}: {exc}") from exc
        content_type = media_type(resp.headers.get("Content-Type"))
        return FetchResponse(url, resp.status, content_type, bytes(body)), location
