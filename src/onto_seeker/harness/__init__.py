from .corpus import (
    Corpus,
    CorpusEntry,
    CorpusTransport,
    PathUnreadable,
    corpus_from_dir,
)
from .synth import (
    GroundTruth,
    SiteDirUnwritable,
    SiteSpec,
    load_ground_truth,
    load_site_dir,
    make_synthetic_site,
    serialize_rdf_xml,
    serialize_turtle,
    write_site_dir,
)
from .oracle import scan_oracle
from .bench import render_bench_table, render_bench_tsv, run_bench

__all__ = [
    "Corpus",
    "CorpusEntry",
    "CorpusTransport",
    "GroundTruth",
    "PathUnreadable",
    "SiteDirUnwritable",
    "SiteSpec",
    "corpus_from_dir",
    "load_ground_truth",
    "load_site_dir",
    "make_synthetic_site",
    "render_bench_table",
    "render_bench_tsv",
    "run_bench",
    "scan_oracle",
    "serialize_rdf_xml",
    "serialize_turtle",
    "write_site_dir",
]
