"""The timed run and the traced run of one workload.

Timed run (``--trace 0``): set-up is repeated ``SETUP_REPS`` times and its
median reported. The measured part then runs crawl+index cycles on the
generated site for ``build_share`` of the run's seconds, frees the corpus
(a real ``query`` process never holds one), and runs the read path:
``load_reps`` cold loads spread through a closed-loop, single-client query
stream that lasts until the seconds are used up. Only the calls themselves
are timed, each between two speed probes, and reported at reference machine
speed (speed.py); every correctness check runs between the timed calls.

Traced run (``--trace 1``): a fixed amount of work, so per-layer counts
repeat exactly for a seed. One untraced and one traced crawl+index cycle,
then one untraced and one traced read pass over the same queries; the
difference between each pair is the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import onto_seeker.harness as harness
from onto_seeker import crawler, indexer, query
from onto_seeker.harness import CorpusTransport, scan_oracle
from onto_seeker.netfetch import Url

from gate import (
    INDEX_FILES,
    GateFailure,
    check_index_bytes,
    check_manifest,
    check_results,
    check_self_times,
    check_url_file,
    reference_index,
)
from speed import SpeedSampler, at_reference, clock, factor, probe, since
from tracing import Tracer
from workloads import (
    BROAD,
    CREATED_AT,
    MISS,
    NARROW,
    SETUP_REPS,
    TOP_K,
    WORKLOADS,
    QuerySpec,
    Workload,
    numeric_tokens,
    oracle_sample,
    query_pool,
    query_stream,
)

__all__ = ["GateFailure", "run_timed", "run_traced"]

BENIGN_SKIPS = ("blank_or_null", "duplicate")
# Queries timed between two speed probes.
PROBE_EVERY = 24
# Fetches between speed probes inside a single-threaded build: about 30
# probes in a site-cpu crawl, 15 in its index build.
SAMPLE_EVERY_FETCHES = 250

Sample = tuple[float, float]  # (wall seconds, seconds at reference speed)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


@dataclass
class Ops:
    """Operations attempted and failed, by kind: the base of ops_failed_frac."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, attempted: int, failed: int = 0) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def line(self) -> str:
        attempted, failed = self.total()
        base = ", ".join(f"{kind} {n}" for kind, n in self.attempted.items())
        return f"ops_failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted}: {base})"


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    lines: list[str]
    ops: Ops


@dataclass
class Build:
    crawl: Sample
    index: Sample
    pages: int
    input_lines: int


class Site:
    """A generated site plus what the gate needs to check builds on it."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        self.w = w
        self.workdir = workdir
        self.url_file = workdir / "urls.txt"
        self.index_dir = workdir / "index"
        self.spec = w.site_spec(seed)
        self.corpus = None
        self.ground_truth = None
        self.reference: dict[str, bytes] | None = None

    def generate(self) -> Sample:
        before = probe()
        start = clock()
        self.corpus, self.ground_truth = harness.make_synthetic_site(self.spec)
        took = since(start)
        return took[0], at_reference(took, factor(before, probe()))

    def build(self, ops: Ops, wrap=None, sample_speed: bool = True) -> Build:
        """One crawl then one index build, each timed between speed probes
        (and, with ``sample_speed`` on one crawl worker, probes inside it),
        then every build check (outside the timed region)."""
        w = self.w
        self.corpus.request_log.clear()  # grows by one entry per fetch
        transport = CorpusTransport(self.corpus, sleep_latency=True)
        if wrap is not None:
            transport = wrap(transport)
        sampler = None
        if sample_speed and w.crawl_workers == 1:
            transport = sampler = SpeedSampler(transport, SAMPLE_EVERY_FETCHES)
        config = crawler.CrawlConfig(
            seed_urls=(Url.parse(self.ground_truth.root_url),),
            max_pages=w.page_count,
            worker_count=w.crawl_workers,
            politeness_ms=w.politeness_ms,
            output_path=str(self.url_file),
        )
        limits = indexer.IndexLimits(politeness_ms=w.politeness_ms)
        gc.collect()
        before = probe()
        start = clock()
        report = crawler.crawl(config, transport)
        crawl_took, crawl_inside = _without_probes(since(start), sampler)
        between = probe()
        start = clock()
        manifest = indexer.build_index(
            self.url_file, transport, limits, self.index_dir, created_at=CREATED_AT
        )
        index_took, index_inside = _without_probes(since(start), sampler)
        after = probe()
        bad_skips = sum(n for r, n in manifest.skip_counts.items() if r not in BENIGN_SKIPS)
        ops.add("crawl_fetches", report.pages_fetched, report.errors)
        ops.add("index_lines", manifest.input_line_count, bad_skips)
        self.check(manifest)
        crawl_at_ref = at_reference(crawl_took, factor(before, between, crawl_inside))
        if w.crawl_workers > 1:
            # CPU work of one thread overlaps the other threads' waits, so
            # it is not all on the critical path: report wall time as is.
            crawl_at_ref = crawl_took[0]
        return Build(
            (crawl_took[0], crawl_at_ref),
            (index_took[0], at_reference(index_took, factor(between, after, index_inside))),
            report.pages_fetched,
            manifest.input_line_count,
        )

    def check(self, manifest) -> None:
        if self.reference is None:
            self.reference = reference_index(self.ground_truth, CREATED_AT, self.workdir / "ref")
        check_url_file(self.w.name, self.url_file, self.ground_truth)
        check_manifest(self.w.name, manifest, self.w.ontology_count)
        check_index_bytes(self.w.name, self.index_dir, self.reference)

    def queries(self, seed: int) -> tuple[list[QuerySpec], dict[tuple[str, bool], list]]:
        """The seeded query pool, and scan_oracle's answers for a fixed
        sample of it (computed now, while the ground truth is in memory)."""
        pool = query_pool(seed, numeric_tokens(self.ground_truth.summaries.values()))
        summaries = list(self.ground_truth.summaries.values())
        expected = {
            (q.text, q.match_all): scan_oracle(
                summaries, query.parse_query(q.text), TOP_K, match_all=q.match_all
            )
            for q in oracle_sample(seed, pool, self.w.oracle_sample)
        }
        return pool, expected

    def free(self) -> None:
        """Drop the corpus and ground truth, so the read path runs on the heap
        a real query process has."""
        self.corpus = self.ground_truth = None
        gc.collect()

    def index_bytes(self) -> int:
        return sum((self.index_dir / name).stat().st_size for name in INDEX_FILES)


def _without_probes(took, sampler: SpeedSampler | None):
    return sampler.take(took) if sampler is not None else (took, [])


@dataclass
class ReadPass:
    load: list[Sample] = field(default_factory=list)
    cold: list[Sample] = field(default_factory=list)
    latency: list[Sample] = field(default_factory=list)
    latency_by_class: dict[str, list[Sample]] = field(default_factory=dict)
    queries: int = 0
    match_all: int = 0
    repeated: int = 0
    results: dict[tuple[str, bool], list] = field(default_factory=dict)
    measured_s: float = 0.0  # wall time inside timed calls


def read_pass(w: Workload, index_dir: Path, pool, stream, done) -> ReadPass:
    """``load_reps`` rounds of: one cold load (read_index, then the first broad
    search on the fresh Index), then the closed-loop stream on that index
    until ``done(pass, share of rounds finished)``. Spreading the loads
    through the stream lets their median sample the whole pass."""
    out = ReadPass()
    first_broad = next(q for q in pool if q.cls == BROAD)
    for i in range(w.load_reps):
        index = None
        gc.collect()
        before = probe()
        start = clock()
        index = indexer.read_index(index_dir)
        loaded = since(start)
        query.search(
            index, query.parse_query(first_broad.text), TOP_K, match_all=first_broad.match_all
        )
        cold = since(start)
        scale = factor(before, probe())
        out.load.append((loaded[0], at_reference(loaded, scale)))
        out.cold.append((cold[0], at_reference(cold, scale)))
        out.measured_s += cold[0]
        gc.collect()
        share = (i + 1) / w.load_reps
        before = probe()
        timed: list[tuple[str, tuple[float, float]]] = []
        while not done(out, share):
            q = next(stream)
            start = clock()
            results = query.search(index, query.parse_query(q.text), TOP_K, match_all=q.match_all)
            took = since(start)
            timed.append((q.cls, took))
            out.queries += 1
            out.measured_s += took[0]
            out.match_all += q.match_all
            key = (q.text, q.match_all)
            if key in out.results:
                out.repeated += 1
                if out.results[key] != results:
                    raise GateFailure(
                        w.name, "repeat_stable", f"query {q.text!r} changed between repeats"
                    )
            else:
                out.results[key] = results
            if len(timed) == PROBE_EVERY:
                before = _flush(out, timed, before)
        if timed:
            _flush(out, timed, before)
    return out


def _flush(out: ReadPass, timed: list, before: float) -> float:
    """Scale the queries timed since the last probe; returns the new probe."""
    after = probe()
    scale = factor(before, after)
    for cls, took in timed:
        sample = (took[0], at_reference(took, scale))
        out.latency.append(sample)
        out.latency_by_class.setdefault(cls, []).append(sample)
    timed.clear()
    return after


def check_read(w: Workload, index_dir: Path, read: ReadPass, expected: dict, pool) -> None:
    """Sampled distinct queries equal scan_oracle; every miss returns nothing."""
    index = None
    for (text, match_all), want in expected.items():
        got = read.results.get((text, match_all))
        if got is None:  # not drawn by this stream: ask the index directly
            index = index or indexer.read_index(index_dir)
            got = query.search(index, query.parse_query(text), TOP_K, match_all=match_all)
        check_results(w.name, text, got, want)
    for q in pool:
        if q.cls == MISS and read.results.get((q.text, q.match_all)):
            raise GateFailure(w.name, "miss_returns_nothing", f"query {q.text!r} matched")


def _ms(samples: list[Sample], q: float = 0.5, raw: bool = False) -> float:
    return percentile([s[0] if raw else s[1] for s in samples], q) * 1000.0


def _rate(counts_and_samples: list[tuple[int, Sample]], raw: bool = False) -> float:
    return statistics.median(n / (s[0] if raw else s[1]) for n, s in counts_and_samples)


def run_timed(name: str, seed: int, seconds: float, workdir: Path) -> Result:
    w = WORKLOADS[name]
    ops = Ops()
    site = Site(w, seed, workdir)

    setups: list[Sample] = []
    gens: list[Sample] = []
    builds: list[Build] = []
    for _ in range(SETUP_REPS):
        site.free()
        generated = site.generate()
        gens.append(generated)
        if w.build_in_setup:
            build = site.build(ops)
            builds.append(build)
            generated = tuple(g + c + i for g, c, i in zip(generated, build.crawl, build.index))
        setups.append(generated)

    spent = 0.0
    while not w.build_in_setup and (not builds or spent < seconds * w.build_share):
        build = site.build(ops)
        builds.append(build)
        spent += build.crawl[0] + build.index[0]
    pool, expected = site.queries(seed)
    site.reference = None
    site.free()

    budget = seconds - spent
    read = read_pass(
        w, site.index_dir, pool, query_stream(seed, pool),
        lambda r, share: r.queries >= w.min_queries * share and r.measured_s >= budget * share,
    )
    check_read(w, site.index_dir, read, expected, pool)
    ops.add("index_loads", len(read.load))
    ops.add("queries", read.queries)

    n = len(read.latency)
    broad = read.latency_by_class.get(BROAD, [])
    narrow = read.latency_by_class.get(NARROW, [])
    pages = [(b.pages, b.crawl) for b in builds]
    lines_in = [(b.input_lines, b.index) for b in builds]
    metrics = {
        "setup_s": (_ms(setups) / 1000.0, "s"),
        "crawl_pages_per_s": (_rate(pages), "pages/s"),
        "index_docs_per_s": (_rate(lines_in), "urls/s"),
        "index_bytes": (site.index_bytes(), "bytes"),
        "index_load_ms": (_ms(read.load), "ms"),
        "cold_query_ms": (_ms(read.cold), "ms"),
        "query_p50_ms": (_ms(read.latency), "ms"),
        "query_p95_ms": (_ms(read.latency, 0.95), "ms"),
        "broad_query_p50_ms": (_ms(broad), "ms"),
        "broad_query_p95_ms": (_ms(broad, 0.95), "ms"),
        "narrow_query_p50_ms": (_ms(narrow), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    raw = {
        "setup_s": _ms(setups, raw=True) / 1000.0,
        "make_synthetic_site_s": _ms(gens, raw=True) / 1000.0,
        "crawl_pages_per_s": _rate(pages, raw=True),
        "index_docs_per_s": _rate(lines_in, raw=True),
        "index_load_ms": _ms(read.load, raw=True),
        "cold_query_ms": _ms(read.cold, raw=True),
        "query_p50_ms": _ms(read.latency, raw=True),
        "query_p95_ms": _ms(read.latency, 0.95, raw=True),
        "broad_query_p50_ms": _ms(broad, raw=True),
        "broad_query_p95_ms": _ms(broad, 0.95, raw=True),
        "narrow_query_p50_ms": _ms(narrow, raw=True),
    }
    lines = [f"{name} {metric} {value:.6g} {unit}" for metric, (value, unit) in metrics.items()]
    lines += [
        name + " " + ops.line(),
        f"{name} samples setup={len(setups)} builds={len(builds)} loads={len(read.load)} "
        f"queries={n} (p95 has {n - math.ceil(0.95 * n)} beyond) broad={len(broad)} "
        f"(p95 has {len(broad) - math.ceil(0.95 * len(broad))} beyond) narrow={len(narrow)}",
        f"{name} raw wall-clock medians: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"{name} setup: harness.make_synthetic_site {_ms(gens) / 1000.0:.4f} s "
        f"of setup_s {metrics['setup_s'][0]:.4f} s",
        f"{name} query mix: " + ", ".join(
            f"{label} {count / n:.3f}" for label, count in (
                ("broad", len(broad)),
                ("narrow", len(narrow)),
                ("miss", len(read.latency_by_class.get(MISS, []))),
                ("match_all", read.match_all),
                ("repeated", read.repeated),
            )
        ) + f" of {n}; oracle-checked distinct queries {len(expected)}",
        f"{name} latency by class: " + ", ".join(
            f"{cls} p50 {_ms(samples):.4g} ms p95 {_ms(samples, 0.95):.4g} ms"
            for cls, samples in sorted(read.latency_by_class.items())
        ),
    ]
    return Result(metrics, lines, ops)


# Per-layer metrics: (name, span total or counter, field, unit).
LAYER_METRICS = (
    ("netfetch.fetch.calls", "netfetch.fetch", "calls", "count"),
    ("netfetch.fetch.s", "netfetch.fetch", "s", "s"),
    ("netfetch.fetch.bytes", "netfetch.fetch.bytes", None, "bytes"),
    ("netfetch.gate_wait.s", "netfetch.gate_wait.s", None, "s"),
    ("netfetch.fetch_errors", "netfetch.fetch_errors", None, "count"),
    ("netfetch.normalize_url.calls", "netfetch.normalize_url", "calls", "count"),
    ("netfetch.normalize_url.s", "netfetch.normalize_url", "s", "s"),
    ("crawler.pages_fetched", "crawler.pages_fetched", None, "count"),
    ("crawler.extract_links.calls", "crawler.extract_links", "calls", "count"),
    ("crawler.extract_links.self_s", "crawler.extract_links", "self_s", "s"),
    ("crawler.links_out", "crawler.links_out", None, "count"),
    ("rdf.detect_syntax.s", "rdf.detect_syntax", "s", "s"),
    ("rdf.extract_summary.s", "rdf.extract_summary", "s", "s"),
    ("rdf.parse_rdf_xml.calls", "rdf.parse_rdf_xml", "calls", "count"),
    ("rdf.parse_rdf_xml.s", "rdf.parse_rdf_xml", "s", "s"),
    ("rdf.parse_rdf_xml.bytes", "rdf.parse_rdf_xml.bytes", None, "bytes"),
    ("rdf.parse_turtle.calls", "rdf.parse_turtle", "calls", "count"),
    ("rdf.parse_turtle.s", "rdf.parse_turtle", "s", "s"),
    ("rdf.parse_turtle.bytes", "rdf.parse_turtle.bytes", None, "bytes"),
    ("rdf.triples", "rdf.triples", None, "count"),
    ("rdf.tokenize.calls", "rdf.tokenize", "calls", "count"),
    ("rdf.tokenize.s", "rdf.tokenize", "s", "s"),
    ("indexer.build_index.self_s", "indexer.build_index", "self_s", "s"),
    ("indexer.index_summaries.self_s", "indexer.index_summaries", "self_s", "s"),
    ("indexer.write_index.s", "indexer.write_index", "s", "s"),
    ("indexer.docs", "indexer.docs", None, "count"),
    ("indexer.postings", "indexer.postings", None, "count"),
    ("indexer.read_index.s", "indexer.read_index", "s", "s"),
    ("indexer.postings_table.s", "indexer.postings_table", "s", "s"),
    ("query.parse_query.s", "query.parse_query", "s", "s"),
    ("query.search.calls", "query.search", "calls", "count"),
    ("query.search.s", "query.search", "s", "s"),
    ("query.postings_scanned", "query.postings_scanned", None, "count"),
    ("query.docs_scored", "query.docs_scored", None, "count"),
    ("query.search.gc_gen2", "query.search.gc_gen2", None, "count"),
    ("query.search.gc_pause_s", "query.search.gc_pause_s", None, "s"),
    ("harness.make_synthetic_site.s", "harness.make_synthetic_site", "s", "s"),
)

def _read_metrics(read: ReadPass) -> dict[str, float]:
    return {
        "index_load_ms": _ms(read.load),
        "cold_query_ms": _ms(read.cold),
        "query_p50_ms": _ms(read.latency),
    }


def run_traced(name: str, seed: int, workdir: Path, spans_dir: Path) -> Result:
    w = WORKLOADS[name]
    ops = Ops()
    site = Site(w, seed, workdir)
    tracer = Tracer(run_id=f"{name}-seed{seed}")

    with tracer.installed():
        site.generate()
    # No probes inside these builds: they would land inside the spans.
    plain = site.build(ops, sample_speed=False)
    with tracer.installed():
        traced = site.build(ops, wrap=tracer.transport, sample_speed=False)
    pool, expected = site.queries(seed)
    site.reference = None
    site.free()

    def fixed_count(r: ReadPass, share: float) -> bool:
        return r.queries >= round(w.trace_queries * share)

    plain_read = read_pass(w, site.index_dir, pool, query_stream(seed, pool), fixed_count)
    with tracer.installed():
        traced_read = read_pass(w, site.index_dir, pool, query_stream(seed, pool), fixed_count)
    for read in (plain_read, traced_read):
        check_read(w, site.index_dir, read, expected, pool)
    ops.add("index_loads", 2 * w.load_reps)
    ops.add("queries", 2 * w.trace_queries)

    totals = tracer.totals()
    counters = tracer.counters
    metrics: dict[str, tuple[float, str]] = {}
    for metric, source, part, unit in LAYER_METRICS:
        if part is None:
            value = counters[source]
        else:
            value = totals.get(source, {}).get(part, 0)
        metrics[metric] = (value, unit)
    metrics["indexer.doc_yield"] = (
        counters["indexer.docs"] / counters["indexer.input_lines"], "ratio"
    )
    metrics["query.returned_per_scored"] = (
        counters["query.returned"] / max(counters["query.docs_scored"], 1), "ratio"
    )
    overhead = {
        "crawl_pages_per_s": (
            traced.pages / traced.crawl[1] - plain.pages / plain.crawl[1], "pages/s"
        ),
        "index_docs_per_s": (
            traced.input_lines / traced.index[1] - plain.input_lines / plain.index[1], "urls/s"
        ),
    }
    plain_m, traced_m = _read_metrics(plain_read), _read_metrics(traced_read)
    for metric in plain_m:
        overhead[metric] = (traced_m[metric] - plain_m[metric], "ms")
    for metric, (value, unit) in overhead.items():
        metrics[f"trace.overhead.{metric}"] = (value, unit)

    check_self_times(name, totals, {"crawl": traced.crawl[0], "index": traced.index[0]})

    spans_file = spans_dir / f"{name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    lines = [f"{name} span {'name':<28} {'calls':>8} {'s':>10} {'self_s':>10}"]
    for span_name, entry in sorted(totals.items()):
        lines.append(
            f"{name} span {span_name:<28} {entry['calls']:>8} "
            f"{entry['s']:>10.4f} {entry['self_s']:>10.4f}"
        )
    granted = counters["netfetch.gate_granted.s"]
    lines.append(
        f"{name} netfetch.gate_wait.s = granted waits {granted:.4f} s "
        f"+ slot reservation {counters['netfetch.gate_wait.s'] - granted:.4f} s"
    )
    lines += [f"{name} {metric} {value:.6g} {unit}" for metric, (value, unit) in metrics.items()]
    lines.append(
        f"{name} wall clock: untraced crawl {plain.crawl[0]:.4f} s, index {plain.index[0]:.4f} s; "
        f"traced crawl {traced.crawl[0]:.4f} s, index {traced.index[0]:.4f} s"
    )
    lines.append(f"{name} {len(tracer.starts)} spans written to {spans_file}")
    return Result(metrics, lines, ops)
