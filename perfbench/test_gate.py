"""Tests of the benchmark's own correctness gate and span arithmetic.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from onto_seeker.harness import scan_oracle  # noqa: E402
from onto_seeker.query import QueryResult, parse_query  # noqa: E402

import bench  # noqa: E402
from gate import (  # noqa: E402
    GateFailure,
    check_index_bytes,
    check_manifest,
    check_results,
    check_self_times,
    check_url_file,
)
from speed import NOMINAL_PROBE_S, SpeedSampler, at_reference, factor, probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TOP_K, WORKLOADS  # noqa: E402

TINY = replace(
    WORKLOADS["site-cpu"], name="tiny", page_count=60, ontology_count=30,
    max_link_depth=4, branching=3, host_count=2,
)


@pytest.fixture()
def built_site(tmp_path):
    site = bench.Site(TINY, seed=5, workdir=tmp_path)
    site.generate()
    site.build(bench.Ops())
    return site


def test_clean_build_passes_every_check(built_site):
    ops = bench.Ops()
    built_site.build(ops)  # runs every build check; raises on a mismatch
    attempted, failed = ops.total()
    assert attempted == TINY.page_count + TINY.ontology_count and failed == 0


def test_gate_rejects_corrupted_index(built_site):
    postings = built_site.index_dir / "postings.tsv"
    rows = postings.read_text(encoding="utf-8").splitlines()
    token, field, doc_id, tf = rows[0].split("\t")
    rows[0] = "\t".join((token, field, doc_id, str(int(tf) + 1)))
    postings.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(GateFailure) as info:
        check_index_bytes(TINY.name, built_site.index_dir, built_site.reference)
    assert info.value.workload == "tiny" and info.value.check == "index_bytes"
    assert "[tiny]" in str(info.value)


def test_gate_rejects_wrong_result_list(built_site):
    pool, _ = built_site.queries(5)
    broad = next(q for q in pool if q.cls == "broad" and not q.match_all)
    summaries = list(built_site.ground_truth.summaries.values())
    want = scan_oracle(summaries, parse_query(broad.text), TOP_K)
    assert len(want) >= 2
    check_results(TINY.name, broad.text, list(want), want)
    swapped = [want[1], want[0], *want[2:]]
    rescored = [replace(want[0], score=want[0].score + 1e-9), *want[1:]]
    for wrong in (swapped, want[:-1], rescored, [*want, QueryResult("http://x/", 0.1, {})]):
        with pytest.raises(GateFailure, match="search_vs_oracle"):
            check_results(TINY.name, broad.text, wrong, want)


def test_gate_rejects_wrong_url_file_and_manifest(built_site):
    lines = built_site.url_file.read_text(encoding="utf-8").splitlines()
    built_site.url_file.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(GateFailure, match="url_file"):
        check_url_file(TINY.name, built_site.url_file, built_site.ground_truth)

    from onto_seeker.indexer import read_index

    manifest = read_index(built_site.index_dir).manifest
    check_manifest(TINY.name, manifest, TINY.ontology_count)
    skips = dict(manifest.skip_counts, parse_error=1)
    with pytest.raises(GateFailure, match="accounting_identity"):
        check_manifest(TINY.name, replace(manifest, skip_counts=skips), TINY.ontology_count)
    with pytest.raises(GateFailure, match="doc_count"):
        check_manifest(TINY.name, manifest, TINY.ontology_count + 1)


def test_self_time_subtracts_union_of_children():
    tracer = Tracer("t")
    outer = tracer.begin("outer")
    time.sleep(0.01)
    child_sid = tracer.begin("child")
    time.sleep(0.02)
    tracer.end(child_sid)
    tracer.end(outer)
    # Two overlapping intervals (as from two crawl threads) count once.
    start, end = tracer.starts[outer], tracer.ends[outer]
    tracer._append("other", start, start + 0.004, outer)
    tracer._append("other", start + 0.002, start + 0.006, outer)
    totals = tracer.totals()
    child = totals["child"]["s"]
    union = child + 0.006
    assert totals["outer"]["self_s"] == pytest.approx((end - start) - union, abs=1e-9)
    assert totals["child"]["self_s"] == pytest.approx(child)


def test_workloads_json_matches_workload_specs():
    described = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    assert set(described) == set(WORKLOADS)
    for name, w in WORKLOADS.items():
        spec = described[name]["spec"]
        for key in ("page_count", "ontology_count", "max_link_depth", "branching",
                    "host_count", "latency_ms", "politeness_ms", "crawl_workers"):
            assert spec[key] == getattr(w, key), (name, key)


def test_speed_scales_only_cpu_time():
    scale = factor(NOMINAL_PROBE_S * 2, NOMINAL_PROBE_S * 2)  # machine at half speed
    assert scale == pytest.approx(0.5)
    assert at_reference((3.0, 1.0), scale) == pytest.approx(2.0 + 0.5)  # sleep kept, CPU halved
    assert at_reference((1.0, 1.2), scale) == pytest.approx(0.6)  # CPU of two threads > wall
    # Probes taken during the call count as much as the two at its ends.
    assert factor(NOMINAL_PROBE_S, NOMINAL_PROBE_S, [NOMINAL_PROBE_S * 4]) == pytest.approx(0.5)


def test_speed_sampler_probes_every_n_fetches_and_returns_their_time():
    class Inner:
        def fetch(self, url, max_body_bytes, issued_at_ms=None):
            return url

    sampler = SpeedSampler(Inner(), every=3)
    assert [sampler.fetch(i, 0) for i in range(7)] == list(range(7))
    took, samples = sampler.take((10.0, 8.0))
    assert len(samples) == 2
    assert took[0] < 10.0
    assert 8.0 - took[1] == pytest.approx(sum(samples), rel=0.2)  # the probes' CPU time
    assert sampler.take((1.0, 1.0)) == ((1.0, 1.0), [])


def test_self_time_check_rejects_time_beyond_its_stage():
    tracer = Tracer("t")
    crawl_start = time.perf_counter()
    # extract_links on two crawl threads at once: 2 x 0.6 s of self time
    # inside a 1 s crawl stage.
    for _ in range(2):
        tracer._append("crawler.extract_links", crawl_start, crawl_start + 0.6, -1)
    tracer._append("indexer.build_index", crawl_start, crawl_start + 0.5, -1)
    tracer._append("indexer.index_summaries", crawl_start + 0.1, crawl_start + 0.2, 2)
    totals = tracer.totals()
    check_self_times("tiny", totals, {"crawl": 1.5, "index": 0.5})
    with pytest.raises(GateFailure, match="self_time_within_stage") as info:
        check_self_times("tiny", totals, {"crawl": 1.0, "index": 0.5})
    assert "crawler.extract_links" in str(info.value)
    with pytest.raises(GateFailure, match="indexer.build_index"):
        check_self_times("tiny", totals, {"crawl": 1.5, "index": 0.3})


def test_probe_leaves_collector_state_alone():
    gc.collect()
    collections = [s["collections"] for s in gc.get_stats()]
    young = gc.get_count()[0]
    probe()
    left_over = gc.get_count()[0] - young  # read before anything else allocates
    assert gc.isenabled()
    assert [s["collections"] for s in gc.get_stats()] == collections
    # Far below the young-generation threshold, so no collection is brought
    # forward into the next timed call.
    assert left_over < gc.get_threshold()[0] // 4
