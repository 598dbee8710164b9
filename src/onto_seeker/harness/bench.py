"""Crawler bench runner: one crawl per (workers, max_pages) cell of one
generated site, reporting how many ontologies were found and how long the
crawl took."""

from __future__ import annotations

import tempfile
from pathlib import Path

from ..crawler import CrawlConfig, CrawlReport, crawl
from ..netfetch import Url
from .corpus import CorpusTransport
from .synth import SiteSpec, make_synthetic_site

BENCH_HEADER = ("workers", "max_pages", "ontologies_found", "elapsed_ms")


def run_bench(
    matrix: list[tuple[int, int]],
    spec: SiteSpec,
    politeness_ms: int = 0,
    max_depth: int = -1,
) -> list[CrawlReport]:
    """Generate the site once, then crawl it once per cell.

    Every cell's config is checked before the first crawl. Cells run
    sequentially for stable timing, each with a fresh transport and an empty
    request log. Politeness defaults to 0 so the bench measures traversal and
    latency overlap rather than the gate.
    """
    if not matrix:
        raise ValueError("bench matrix must be non-empty")
    corpus, ground_truth = make_synthetic_site(spec)
    seed_urls = (Url.parse(ground_truth.root_url),)
    with tempfile.TemporaryDirectory(prefix="onto-seeker-bench-") as tmp:
        configs = [
            CrawlConfig(
                seed_urls=seed_urls,
                max_pages=max_pages,
                max_depth=max_depth,
                worker_count=workers,
                politeness_ms=politeness_ms,
                output_path=str(Path(tmp) / "urls.txt"),
            )
            for workers, max_pages in matrix
        ]
        reports = []
        for config in configs:
            corpus.request_log.clear()
            reports.append(crawl(config, CorpusTransport(corpus)))
    return reports


def _bench_cells(reports: list[CrawlReport]) -> list[tuple[str, ...]]:
    """One row of strings per report, in BENCH_HEADER order."""
    return [
        (str(r.config_echo.worker_count), str(r.config_echo.max_pages),
         str(r.ontologies_found), str(r.elapsed_ms))
        for r in reports
    ]


def render_bench_tsv(reports: list[CrawlReport]) -> str:
    return "\n".join("\t".join(row) for row in [BENCH_HEADER, *_bench_cells(reports)])


def render_bench_table(reports: list[CrawlReport]) -> str:
    cells = [BENCH_HEADER, *_bench_cells(reports)]
    widths = [max(len(row[col]) for row in cells) for col in range(len(BENCH_HEADER))]
    return "\n".join(
        "  ".join(value.rjust(width) for value, width in zip(row, widths)) for row in cells
    )
