"""perfbench's tracer still sees every layer of the program.

``perfbench/tracing.py`` times each layer by swapping module and class
attributes (``indexer.parse_turtle``, ``crawler.extract_links``,
``PolitenessGate.acquire_slot``, ...). A layer the program binds at import
time instead, say through a module-level dispatch table, reads as zero calls
in a ``--trace 1`` run while every other test passes. This test runs a small
generated site through each stage under the tracer, calling each stage
through its module attribute as perfbench does, and requires every span.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402  (perfbench is not a package)

from onto_seeker import crawler, indexer, query  # noqa: E402
from onto_seeker.harness import CorpusTransport, SiteSpec, make_synthetic_site  # noqa: E402
from onto_seeker.netfetch import Url  # noqa: E402

SPANS = (
    "crawler.crawl",
    "crawler.extract_links",
    "netfetch.normalize_url",
    "netfetch.fetch",
    "indexer.build_index",
    "rdf.detect_syntax",
    "rdf.parse_rdf_xml",
    "rdf.parse_turtle",
    "rdf.extract_summary",
    "rdf.tokenize",
    "indexer.index_summaries",
    "indexer.write_index",
    "indexer.read_index",
    "indexer.postings_table",
    "query.parse_query",
    "query.search",
)

COUNTERS = ("rdf.triples", "indexer.docs", "crawler.links_out", "netfetch.gate_granted.s")


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("surface")
    spec = SiteSpec(seed=3, page_count=30, ontology_count=12, host_count=2)
    corpus, ground_truth = make_synthetic_site(spec)
    tracer = Tracer(run_id="surface")
    with tracer.installed():
        transport = tracer.transport(CorpusTransport(corpus))
        config = crawler.CrawlConfig(
            seed_urls=(Url.parse(ground_truth.root_url),),
            max_pages=spec.page_count,
            politeness_ms=1,
            output_path=str(workdir / "urls.txt"),
        )
        crawler.crawl(config, transport)
        indexer.build_index(
            workdir / "urls.txt", transport, indexer.IndexLimits(politeness_ms=1), workdir / "idx"
        )
        index = indexer.read_index(workdir / "idx")
        token, _field = next(iter(index.posting_lists))
        query.search(index, query.parse_query(token), top_k=10)
    return tracer


@pytest.mark.parametrize("name", SPANS)
def test_every_layer_is_called_through_its_traced_attribute(traced_run, name):
    assert traced_run.totals().get(name, {}).get("calls", 0) >= 1


@pytest.mark.parametrize("name", COUNTERS)
def test_layer_counters_are_nonzero(traced_run, name):
    assert traced_run.counters[name] > 0
