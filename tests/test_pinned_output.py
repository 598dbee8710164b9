"""The generated sites and the bytes a crawl and an index build write,
pinned by SHA-256.

A change that means to keep the output (a faster scan, a new fetch loop)
must leave these digests alone, at every worker count and on every
supported Python. A change that means to alter the output updates them and
says why. The sites are the CLI's ``gen-corpus`` default, the seed-42 site of
the test suite, and perfbench's site-io spec. A site's digest covers every
corpus entry, so a page body written differently shows even where the crawl
would find the same URLs.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from onto_seeker.crawler import CrawlConfig, crawl
from onto_seeker.harness import CorpusTransport, SiteSpec, make_synthetic_site
from onto_seeker.indexer import IndexLimits, build_index
from onto_seeker.netfetch import Url

CREATED_AT = "2020-01-01T00:00:00Z"

SPECS = {
    "cli-default": SiteSpec(seed=42, page_count=120, ontology_count=15, host_count=2),
    "seed-42": SiteSpec(seed=42, page_count=200, ontology_count=25),
    "site-io": SiteSpec(
        seed=1, page_count=600, ontology_count=300, max_link_depth=12, branching=4,
        host_count=4, latency_ms=5,
    ),
}

CORPUS_DIGESTS = {
    "cli-default": "201bf8e1cc4116b6de27c2aafb61a70879ba2bcc177935bdfcf1d7f2b188e6ef",
    "seed-42": "401c273c8eded4cf1a6a519180b37597fe56eafa555fdd4b7172852f041f255c",
    "site-io": "d5e4ea8bc20e09dbac807cfbca322a00d424217dde2b66d513fab321ca0e412f",
}

DIGESTS = {
    "cli-default": {
        "urls.txt": "323367bdd8b4c116c1b53d751d8e7fb8fd7673e8ff4467e38a6e1a120864b2a8",
        "docs.tsv": "88b368a90f317d1d4919155fb517eac54ae0564dd67bb40b2ad22cf85470574a",
        "postings.tsv": "122fe5fee7400edef90202bc851e3fdbdca2dc87e1fed9b8c81a3864bc7ce5ed",
        "manifest.json": "a2a38508eb5622acc568fd64db0a831580bcb0e8a97f69eb91a973078af2ec14",
    },
    "seed-42": {
        "urls.txt": "2c3938b014f361fe8c4a20a8b949981675c7066ff74d04313de23be5f22c33bc",
        "docs.tsv": "0ecc38e784984cee77815110e187e7824b1fa1087386b749f9bc69024f33c770",
        "postings.tsv": "b8f6ee8160761bb5bd50d00a9d38afde8bba688f1fdbf8b5dc924d3d33d66ebb",
        "manifest.json": "a491a654a121d41a3d5a338149ea7a2bee2e91ef92edf7ff519205123b47a8e6",
    },
    "site-io": {
        "urls.txt": "8e3bac8e61243711d9488753335694b3fd557e2168b5f5b1066ba0f185b8c2e8",
        "docs.tsv": "9e7868c22f3ca49d9a6fbc50401a8e7109540ae85964c9449c591bc1532dff07",
        "postings.tsv": "980070f9e61dd05146c74efee937c7d75e6c73d9d616807121710b57602a4a80",
        "manifest.json": "5b1fe6d7613894783a27ed20a72b9d225f487331a9de9d4492ab9d27ac3754a4",
    },
}


@pytest.fixture(scope="module", params=sorted(SPECS))
def site(request):
    return request.param, make_synthetic_site(SPECS[request.param])


def test_generated_site_is_pinned(site):
    name, (corpus, _) = site
    digest = hashlib.sha256()
    for url, entry in sorted(corpus.entries.items()):
        head = [url, entry.status, entry.content_type, entry.location, entry.latency_ms]
        digest.update(json.dumps([*head, len(entry.body)]).encode() + b"\n" + entry.body)
    assert digest.hexdigest() == CORPUS_DIGESTS[name]


@pytest.mark.parametrize("workers", [1, 4])
def test_crawl_and_index_bytes_are_pinned(tmp_path, site, workers):
    name, (corpus, truth) = site
    transport = CorpusTransport(corpus, sleep_latency=False)
    config = CrawlConfig(
        seed_urls=(Url.parse(truth.root_url),),
        max_pages=SPECS[name].page_count,
        worker_count=workers,
        politeness_ms=0,
        output_path=str(tmp_path / "urls.txt"),
    )
    crawl(config, transport)
    build_index(
        tmp_path / "urls.txt", transport, IndexLimits(politeness_ms=0), tmp_path / "idx",
        created_at=CREATED_AT,
    )
    paths = {"urls.txt": tmp_path / "urls.txt"}
    paths |= {f: tmp_path / "idx" / f for f in ("docs.tsv", "postings.tsv", "manifest.json")}
    digests = {f: hashlib.sha256(path.read_bytes()).hexdigest() for f, path in paths.items()}
    assert digests == DIGESTS[name]
