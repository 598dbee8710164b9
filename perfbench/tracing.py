"""Spans recorded from outside the program.

While ``Tracer.installed()`` is active, wrappers replace module attributes
at the call sites of each layer (``onto_seeker.crawler.normalize_url``,
``onto_seeker.indexer.parse_turtle``, ``onto_seeker.query.search``, ...), so
nothing in the program changes. A span is (name, start, end, parent,
thread); each thread keeps its own stack, and spans opened by crawl worker
threads hang off the enclosing crawl span. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import onto_seeker.harness as harness
from onto_seeker import crawler, indexer, netfetch, query
from onto_seeker.indexer import FIELDS, Index
from onto_seeker.netfetch import FetchError

# Counters summed at the layer boundaries (besides calls and times).
COUNTERS = (
    "netfetch.fetch.bytes",
    "netfetch.fetch_errors",
    "netfetch.gate_wait.s",
    "netfetch.gate_granted.s",
    "crawler.pages_fetched",
    "crawler.links_out",
    "rdf.parse_rdf_xml.bytes",
    "rdf.parse_turtle.bytes",
    "rdf.triples",
    "indexer.docs",
    "indexer.postings",
    "indexer.input_lines",
    "query.postings_scanned",
    "query.docs_scored",
    "query.returned",
    "query.search.gc_gen2",
    "query.search.gc_pause_s",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # Span columns. Flat arrays hold no objects the garbage collector
        # tracks, so a large trace does not slow the collections that the
        # query path pays for.
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # span index, or -1 for a root span
        self.threads = array("Q")
        self.counters: dict[str, float] = {name: 0 for name in COUNTERS}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_root = -1
        self._open_searches = 0
        self._gc_started = 0.0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else self._thread_root

    def _append(self, name: str, start: float, end: float, parent: int) -> int:
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.starts)
            self.name_ids.append(name_id)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent)
            self.threads.append(threading.get_ident())
        return sid

    def begin(self, name: str) -> int:
        sid = self._append(name, time.perf_counter(), 0.0, self._parent())
        self._stack().append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack().pop()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, func, account=None, thread_root: bool = False):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            if thread_root:
                outer_root, tracer._thread_root = tracer._thread_root, sid
            try:
                result = func(*args, **kwargs)
            finally:
                if thread_root:
                    tracer._thread_root = outer_root
                tracer.end(sid)
            if account is not None:
                account(args, kwargs, result)
            return result

        return wrapper

    def _wrap_acquire(self, func):
        tracer = self

        @functools.wraps(func)
        def acquire_slot(gate, host, now_ms=None):
            # The gate costs a fetch the slot reservation itself (a lock the
            # crawl workers share) plus the wait it grants, which the caller
            # sleeps off before the transport call.
            start = time.perf_counter()
            wait_ms = func(gate, host, now_ms)
            reserve_s = time.perf_counter() - start
            tracer.add("netfetch.gate_granted.s", wait_ms / 1000.0)
            tracer.add("netfetch.gate_wait.s", reserve_s + wait_ms / 1000.0)
            return wait_ms

        return acquire_slot

    def _wrap_search(self, func):
        tracer = self
        inner = self.wrap("query.search", func)

        @functools.wraps(func)
        def search(index, q, top_k, match_all=False):
            with tracer._lock:
                tracer._open_searches += 1
            try:
                results = inner(index, q, top_k, match_all=match_all)
            finally:
                with tracer._lock:
                    tracer._open_searches -= 1
            lists = [
                index.postings_by_token_field.get((token, field), ())
                for token in q.tokens
                for field in FIELDS
            ]
            tracer.add("query.postings_scanned", sum(len(lst) for lst in lists))
            tracer.add("query.docs_scored", len({p.doc_id for lst in lists for p in lst}))
            tracer.add("query.returned", len(results))
            return results

        return search

    def _gc_callback(self, phase: str, info: dict) -> None:
        if self._open_searches == 0:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.add("query.search.gc_pause_s", time.perf_counter() - self._gc_started)
        if info.get("generation") == 2:
            self.add("query.search.gc_gen2", 1)

    def transport(self, inner):
        return TracingTransport(inner, self)

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer call sites; restore them on exit."""
        add = self.add

        def parse_account(kind):
            def account(args, kwargs, result):
                add(f"rdf.{kind}.bytes", len(args[0]))
                add("rdf.triples", len(result))
            return account

        def crawl_account(args, kwargs, report):
            add("crawler.pages_fetched", report.pages_fetched)

        def build_account(args, kwargs, manifest):
            add("indexer.docs", manifest.doc_count)
            add("indexer.postings", manifest.posting_count)
            add("indexer.input_lines", manifest.input_line_count)

        wrap = self.wrap
        patches = [
            (harness, "make_synthetic_site",
             wrap("harness.make_synthetic_site", harness.make_synthetic_site)),
            (crawler, "crawl",
             wrap("crawler.crawl", crawler.crawl, crawl_account, thread_root=True)),
            (crawler, "extract_links", wrap(
                "crawler.extract_links", crawler.extract_links,
                lambda args, kwargs, links: add("crawler.links_out", len(links)))),
            (crawler, "normalize_url", wrap("netfetch.normalize_url", crawler.normalize_url)),
            (netfetch.PolitenessGate, "acquire_slot",
             self._wrap_acquire(netfetch.PolitenessGate.acquire_slot)),
            (indexer, "build_index",
             wrap("indexer.build_index", indexer.build_index, build_account)),
            (indexer, "detect_syntax", wrap("rdf.detect_syntax", indexer.detect_syntax)),
            (indexer, "parse_rdf_xml",
             wrap("rdf.parse_rdf_xml", indexer.parse_rdf_xml, parse_account("parse_rdf_xml"))),
            (indexer, "parse_turtle",
             wrap("rdf.parse_turtle", indexer.parse_turtle, parse_account("parse_turtle"))),
            (indexer, "extract_summary", wrap("rdf.extract_summary", indexer.extract_summary)),
            (indexer, "tokenize", wrap("rdf.tokenize", indexer.tokenize)),
            (indexer, "index_summaries", wrap("indexer.index_summaries", indexer.index_summaries)),
            (indexer, "write_index", wrap("indexer.write_index", indexer.write_index)),
            (indexer, "read_index", wrap("indexer.read_index", indexer.read_index)),
            (query, "tokenize", wrap("rdf.tokenize", query.tokenize)),
            (query, "parse_query", wrap("query.parse_query", query.parse_query)),
            (query, "search", self._wrap_search(query.search)),
        ]
        table = Index.__dict__["postings_by_token_field"]
        lazy_table = functools.cached_property(self.wrap("indexer.postings_table", table.func))
        lazy_table.__set_name__(Index, "postings_by_token_field")
        patches.append((Index, "postings_by_token_field", lazy_table))

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        gc.callbacks.append(self._gc_callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._gc_callback)
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append((self.starts[sid], self.ends[sid]))
        out = []
        for sid, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append((end - start) - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration (s) and summed self time."""
        totals: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for sid, self_s in enumerate(self.self_times()):
            entry = totals[self.names[self.name_ids[sid]]]
            entry["calls"] += 1
            entry["s"] += self.ends[sid] - self.starts[sid]
            entry["self_s"] += self_s
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name_id in enumerate(self.name_ids):
                fh.write(json.dumps({
                    "id": sid, "run": self.run_id, "name": self.names[name_id],
                    "start": self.starts[sid], "end": self.ends[sid],
                    "parent": self.parents[sid], "thread": self.threads[sid],
                }) + "\n")


class TracingTransport:
    """Wraps a transport: one span per fetch, plus bytes and errors."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def fetch(self, url, max_body_bytes, issued_at_ms=None):
        tracer = self.tracer
        sid = tracer.begin("netfetch.fetch")
        try:
            resp = self.inner.fetch(url, max_body_bytes, issued_at_ms=issued_at_ms)
        except FetchError:
            tracer.add("netfetch.fetch_errors", 1)
            raise
        finally:
            tracer.end(sid)
        tracer.add("netfetch.fetch.bytes", len(resp.body))
        return resp
