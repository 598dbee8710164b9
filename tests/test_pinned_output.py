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

from conftest import run_pipeline
from onto_seeker.harness import CorpusTransport, SiteSpec, make_synthetic_site

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
        "postings.tsv": "b4179bf4acff05de7be92daf3aef35a72fa6b34e234ee81dd19c5e421a300ae6",
        "manifest.json": "474dc4404b17c4504aab1c97b3f2bd8960923dae3672efcbb5903096115dea18",
    },
    "seed-42": {
        "urls.txt": "2c3938b014f361fe8c4a20a8b949981675c7066ff74d04313de23be5f22c33bc",
        "docs.tsv": "0ecc38e784984cee77815110e187e7824b1fa1087386b749f9bc69024f33c770",
        "postings.tsv": "a16c129ec6e4aa474035f13e255d0ecad5e40e641808ea39e146e8116a68792d",
        "manifest.json": "6cf6e68544d2278cd4cd3231c14c2ae1f0ce90778117a9a0e3b92d678ee09b43",
    },
    "site-io": {
        "urls.txt": "8e3bac8e61243711d9488753335694b3fd557e2168b5f5b1066ba0f185b8c2e8",
        "docs.tsv": "9e7868c22f3ca49d9a6fbc50401a8e7109540ae85964c9449c591bc1532dff07",
        "postings.tsv": "b8207b3dd1afab5bc0c203653ef5a8655f49d54a62ed3d0b81fb50206e6d32b4",
        "manifest.json": "9fa7c0f42da9ed8822d111d4d618d623b41643fe0612129880232bd0aa297c93",
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
    _report, _manifest, written = run_pipeline(
        tmp_path, CorpusTransport(corpus, sleep_latency=False), truth.root_url,
        created_at=CREATED_AT, max_pages=SPECS[name].page_count, worker_count=workers,
    )
    digests = {f: hashlib.sha256(data).hexdigest() for f, data in written.items()}
    assert digests == DIGESTS[name]
