"""Correctness gate. Every check runs outside the timed region; a mismatch
raises GateFailure naming the workload and the check."""

from __future__ import annotations

from pathlib import Path

from onto_seeker.harness import GroundTruth
from onto_seeker.indexer import (
    DOCS_FILE,
    FIELD_WEIGHTS,
    FORMAT_VERSION,
    MANIFEST_FILE,
    POSTINGS_FILE,
    SKIP_REASONS,
    IndexManifest,
    index_summaries,
    write_index,
)
from onto_seeker.query import QueryResult

INDEX_FILES = (MANIFEST_FILE, DOCS_FILE, POSTINGS_FILE)


class GateFailure(Exception):
    def __init__(self, workload: str, check: str, detail: str):
        super().__init__(f"[{workload}] correctness gate '{check}' failed: {detail}")
        self.workload = workload
        self.check = check


def check_url_file(workload: str, url_file: Path, ground_truth: GroundTruth) -> None:
    got = url_file.read_text(encoding="utf-8").splitlines()
    want = sorted(ground_truth.reachable_ontology_urls)
    if got != want:
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        raise GateFailure(
            workload, "url_file",
            f"{len(got)} lines, want {len(want)} ({missing} missing, {extra} unexpected)",
        )


def check_manifest(workload: str, manifest: IndexManifest, ontology_count: int) -> None:
    skipped = sum(manifest.skip_counts.values())
    if manifest.doc_count + skipped != manifest.input_line_count:
        raise GateFailure(
            workload, "accounting_identity",
            f"doc_count {manifest.doc_count} + skips {skipped} != "
            f"input lines {manifest.input_line_count}",
        )
    if manifest.doc_count != ontology_count:
        raise GateFailure(
            workload, "doc_count",
            f"{manifest.doc_count} docs, want {ontology_count}; skips {manifest.skip_counts}",
        )


def reference_index(
    ground_truth: GroundTruth, created_at: str, out_dir: Path
) -> dict[str, bytes]:
    """The index bytes a correct crawl+index must produce: ground-truth
    summaries in URL-file order through index_summaries + write_index."""
    urls = sorted(ground_truth.reachable_ontology_urls)
    docs, postings = index_summaries([ground_truth.summaries[u] for u in urls])
    manifest = IndexManifest(
        format_version=FORMAT_VERSION,
        created_at=created_at,
        doc_count=len(docs),
        posting_count=len(postings),
        input_line_count=len(urls),
        skip_counts={reason: 0 for reason in SKIP_REASONS},
        field_weights=dict(FIELD_WEIGHTS),
    )
    write_index(out_dir, docs, postings, manifest)
    return read_index_bytes(out_dir)


def read_index_bytes(index_dir: Path) -> dict[str, bytes]:
    return {name: (index_dir / name).read_bytes() for name in INDEX_FILES}


def check_index_bytes(workload: str, index_dir: Path, reference: dict[str, bytes]) -> None:
    got = read_index_bytes(index_dir)
    for name in INDEX_FILES:
        if got[name] != reference[name]:
            raise GateFailure(
                workload, "index_bytes",
                f"{name} differs from the ground-truth rebuild "
                f"({len(got[name])} bytes, want {len(reference[name])})",
            )


def check_results(
    workload: str, query_text: str, got: list[QueryResult], want: list[QueryResult]
) -> None:
    if got != want:
        raise GateFailure(
            workload, "search_vs_oracle",
            f"query {query_text!r}: search returned {[r.url for r in got]}, "
            f"scan_oracle {[r.url for r in want]}",
        )


# The pipeline stage each per-layer self time is checked against. A stage's
# wall time is the benchmark's own clock around the call that runs it, so a
# self time summed over crawl worker threads, or one the span arithmetic got
# wrong, cannot pass unnoticed.
STAGE_OF_SELF_TIME = {
    "crawler.extract_links": "crawl",
    "indexer.build_index": "index",
    "indexer.index_summaries": "index",
}


def check_self_times(
    workload: str, totals: dict[str, dict[str, float]], stage_wall_s: dict[str, float]
) -> None:
    for span, stage in STAGE_OF_SELF_TIME.items():
        self_s = totals[span]["self_s"]
        if not 0.0 <= self_s <= stage_wall_s[stage]:
            raise GateFailure(
                workload, "self_time_within_stage",
                f"{span} self {self_s:.4f} s outside 0..{stage} stage "
                f"{stage_wall_s[stage]:.4f} s",
            )
