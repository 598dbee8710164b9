"""Command-line front end: crawl, index, query, pipeline, gen-corpus, bench.

Exit codes: 0 success, 1 usage error, 2 input/ordering error, 3 runtime
failure. Results go to stdout, diagnostics to stderr. The stage ordering the
pipeline enforces (crawl, then index, then query) is checked through artifact
presence: index refuses to run without the URL file, query without a valid
index directory. Commands raise; ``main`` alone maps a failure to its exit
code and one ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path

from .crawler import DEFAULT_MAX_BODY_BYTES, AllSeedsInvalid, CrawlConfig, OutputUnwritable, crawl
from .errors import OntoSeekerError
from .harness import (
    CorpusTransport,
    PathUnreadable,
    SiteDirUnwritable,
    SiteSpec,
    corpus_from_dir,
    load_site_dir,
    make_synthetic_site,
    render_bench_table,
    render_bench_tsv,
    run_bench,
    write_site_dir,
)
from .indexer import (
    CorruptIndex,
    IndexDirUnwritable,
    IndexLimits,
    InputUnreadable,
    MissingFile,
    VersionMismatch,
    build_index,
    read_index,
    read_url_list,
    render_skip_report,
)
from .netfetch import DEFAULT_POLITENESS_MS, DEFAULT_TIMEOUT_S, LiveTransport, MalformedUrl, Url
from .query import EmptyQuery, UnknownUrl, check_top_k, explain, format_explain
from .query import format_results, parse_query, search

DEFAULT_SEED_URL = "http://www.ontologyportal.org"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process ended by SIGPIPE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


# Failure -> (exit code, stderr line after "error: "); the first class that
# matches wins, so a subclass comes before its base.
_FAILURES = (
    (_UsageError, EXIT_USAGE, "{}"),
    (EmptyQuery, EXIT_USAGE, "unusable query: {}"),
    (SiteDirUnwritable, EXIT_INPUT, "cannot write site folder: {}"),
    (OutputUnwritable, EXIT_INPUT, "cannot write URL list: {}"),
    (InputUnreadable, EXIT_INPUT,
     "cannot read URL list: {}; run the crawl command first (onto-seeker crawl writes it)"),
    (IndexDirUnwritable, EXIT_INPUT, "cannot write index: {}"),
    (PathUnreadable, EXIT_INPUT, "{}"),
    ((MissingFile, CorruptIndex, VersionMismatch), EXIT_INPUT,
     "index directory is missing or invalid ({}); run the index command first (onto-seeker index)"),
    (AllSeedsInvalid, EXIT_RUNTIME, "crawl failed: {}"),
    (UnknownUrl, EXIT_RUNTIME, "--explain-url is not in the index: {}"),
    (OntoSeekerError, EXIT_RUNTIME, "{}"),
)


def _checked(make, *args, **kwargs):
    """Call ``make``; the ValueError it raises for a bad flag value is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _add_transport_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--live", action="store_true", help="fetch from the real web")
    group.add_argument("--corpus-dir", help="serve fetches from a directory corpus")
    parser.add_argument(
        "--corpus-host",
        help="host the plain corpus directory answers for (default: first seed's host)",
    )
    parser.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S,
                        help="live fetch timeout")


def _make_transport(args, default_host: Callable[[], str]):
    """The transport the flags select; ``default_host()`` is called only for a
    plain corpus folder given no --corpus-host."""
    if args.live:
        return _checked(LiveTransport, timeout_s=args.timeout_s)
    if not args.corpus_dir:
        raise _UsageError("exactly one of --live or --corpus-dir is required")
    corpus_dir = Path(args.corpus_dir)
    if (corpus_dir / "site.json").is_file():
        corpus, _root = load_site_dir(corpus_dir)
    else:
        try:
            corpus = corpus_from_dir(corpus_dir, args.corpus_host or default_host())
        except MalformedUrl as exc:
            raise _UsageError(f"bad --corpus-host: {exc}") from exc
    return CorpusTransport(corpus)


def _add_crawl_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed-url",
        action="append",
        dest="seed_urls",
        metavar="URL",
        help=f"starting URL, repeatable (default {DEFAULT_SEED_URL})",
    )
    parser.add_argument("--max-depth", type=int, default=-1, help="-1 means unlimited")
    parser.add_argument("--max-pages", type=int, required=True, help="fetch budget")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--politeness-ms", type=int, default=DEFAULT_POLITENESS_MS)
    parser.add_argument("--global-politeness", action="store_true",
                        help="apply the politeness gap across all hosts, not per host")
    parser.add_argument("--max-body-bytes", type=int, default=DEFAULT_MAX_BODY_BYTES)
    parser.add_argument("--out", default="urls.txt", help="ontology URL list file")


def _add_index_flags(parser: argparse.ArgumentParser, urls: bool = True) -> None:
    if urls:
        parser.add_argument("--urls", default="urls.txt", help="URL list from the crawl stage")
    parser.add_argument("--index-dir", required=True)
    parser.add_argument("--max-bytes", type=int, default=IndexLimits.max_ontology_bytes,
                        help="skip ontologies larger than this")
    parser.add_argument("--created-at", help="fixed manifest timestamp (for reproducible builds)")


def _add_site_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pages", type=int, default=120)
    parser.add_argument("--ontologies", type=int, default=15)
    parser.add_argument("--max-link-depth", type=int, default=4)
    parser.add_argument("--branching", type=int, default=3)
    parser.add_argument("--hosts", type=int, default=2)
    parser.add_argument("--latency-ms", type=int, default=0)


def _site_spec(args) -> SiteSpec:
    return _checked(
        SiteSpec,
        seed=args.seed,
        page_count=args.pages,
        ontology_count=args.ontologies,
        max_link_depth=args.max_link_depth,
        branching=args.branching,
        host_count=args.hosts,
        latency_ms=args.latency_ms,
    )


def _parse_seeds(args) -> list[Url]:
    try:
        return [Url.parse(raw) for raw in args.seed_urls or [DEFAULT_SEED_URL]]
    except OntoSeekerError as exc:
        raise _UsageError(f"bad --seed-url: {exc}") from exc


def _parse_matrix(raw: str) -> list[tuple[int, int]]:
    cells = []
    for chunk in raw.split(","):
        workers, sep, pages = chunk.partition(":")
        if not sep:
            raise _UsageError(f"bad matrix cell {chunk!r} (expected WORKERS:PAGES)")
        try:
            cells.append((int(workers), int(pages)))
        except ValueError as exc:
            raise _UsageError(f"bad matrix cell {chunk!r}: {exc}") from exc
    return cells


def _index_limits(args) -> IndexLimits:
    return _checked(
        IndexLimits, max_ontology_bytes=args.max_bytes, politeness_ms=args.politeness_ms
    )


def _crawl_config(args) -> CrawlConfig:
    return _checked(
        CrawlConfig,
        seed_urls=tuple(_parse_seeds(args)),
        max_pages=args.max_pages,
        max_depth=args.max_depth,
        worker_count=args.workers,
        politeness_ms=args.politeness_ms,
        max_body_bytes=args.max_body_bytes,
        output_path=args.out,
        per_host_politeness=not args.global_politeness,
    )


def cmd_crawl(args, transport=None) -> None:
    config = _crawl_config(args)
    if transport is None:
        transport = _make_transport(args, lambda: config.seed_urls[0].host)
    report = crawl(config, transport)
    if args.format == "tsv":
        print("\n".join(report.machine_lines()))
    else:
        print(report.human_table())


def cmd_index(args, transport=None) -> None:
    limits = _index_limits(args)
    if transport is None:
        # A plain corpus folder answers for the host of the first line to fetch.
        transport = _make_transport(
            args, lambda: next((url.host for url, _ in read_url_list(args.urls)[1]), "localhost")
        )
    manifest = build_index(args.urls, transport, limits, args.index_dir, created_at=args.created_at)
    print(render_skip_report(manifest))
    print(f"doc_count\t{manifest.doc_count}")
    print(f"posting_count\t{manifest.posting_count}")
    print(f"input_line_count\t{manifest.input_line_count}")
    print(f"index_dir\t{args.index_dir}")


def cmd_query(args) -> None:
    # Flags before the index, as index checks them before the URL list, and
    # every input before the first line is printed.
    _checked(check_top_k, args.top_k)
    query = parse_query(args.query)
    index = read_index(args.index_dir)
    explained = format_explain(explain(index, query, args.explain_url)) if args.explain_url else []
    results = search(index, query, top_k=args.top_k, match_all=args.match_all)
    lines = format_results(results, machine=args.format == "tsv") + explained
    if lines:
        print("\n".join(lines))


def cmd_pipeline(args) -> None:
    # A bad flag of any stage is rejected before the corpus loads.
    seed_host = _crawl_config(args).seed_urls[0].host
    _index_limits(args)
    _checked(check_top_k, args.top_k)
    if args.query is not None:
        parse_query(args.query)
    elif args.explain_url is not None or args.match_all:
        raise _UsageError("--explain-url and --match-all need --query")
    # Both stages share one transport, so a corpus directory loads once and a
    # plain one answers for the first seed's host in the index stage too.
    transport = _make_transport(args, lambda: seed_host)
    cmd_crawl(args, transport)
    # Every crawl grant is past; the index stage's own gate starts one gap on.
    time.sleep(args.politeness_ms / 1000)
    args.urls = args.out
    cmd_index(args, transport)
    if args.query is not None:
        cmd_query(args)


def cmd_gen_corpus(args) -> None:
    spec = _site_spec(args)
    corpus, ground_truth = make_synthetic_site(spec)
    write_site_dir(corpus, ground_truth, spec, args.out_dir)
    print(f"root_url\t{ground_truth.root_url}")
    print(f"pages\t{len(ground_truth.page_depths)}")
    print(f"ontologies\t{len(ground_truth.reachable_ontology_urls)}")
    print(f"out_dir\t{args.out_dir}")


def cmd_bench(args) -> None:
    reports = _checked(
        run_bench, _parse_matrix(args.matrix), _site_spec(args),
        politeness_ms=args.politeness_ms, max_depth=args.max_depth,
    )
    if args.format == "tsv":
        print(render_bench_tsv(reports))
    else:
        print(render_bench_table(reports))


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("human", "tsv"), default="human",
                        help="tsv selects machine-readable output")


def build_parser() -> _Parser:
    parser = _Parser(prog="onto-seeker", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_crawl = sub.add_parser("crawl", help="collect ontology URLs into a text file")
    _add_crawl_flags(p_crawl)
    _add_transport_flags(p_crawl)
    _add_format_flag(p_crawl)
    p_crawl.set_defaults(func=cmd_crawl)

    p_index = sub.add_parser("index", help="fetch listed ontologies and build the index")
    _add_index_flags(p_index)
    p_index.add_argument("--politeness-ms", type=int, default=DEFAULT_POLITENESS_MS)
    _add_transport_flags(p_index)
    p_index.set_defaults(func=cmd_index)

    p_query = sub.add_parser("query", help="search the index for keywords")
    p_query.add_argument("--index-dir", required=True)
    p_query.add_argument("--query", required=True)
    p_query.add_argument("--top-k", type=int, default=10)
    p_query.add_argument("--match-all", action="store_true",
                         help="require every query token to match (default: any)")
    p_query.add_argument("--explain-url", help="also print the score breakdown for this URL")
    _add_format_flag(p_query)
    p_query.set_defaults(func=cmd_query)

    p_pipe = sub.add_parser("pipeline", help="crawl, then index, then optionally query")
    _add_crawl_flags(p_pipe)
    _add_index_flags(p_pipe, urls=False)
    p_pipe.add_argument("--query", help="run this query after indexing")
    p_pipe.add_argument("--top-k", type=int, default=10)
    p_pipe.add_argument("--match-all", action="store_true")
    p_pipe.add_argument("--explain-url")
    _add_transport_flags(p_pipe)
    _add_format_flag(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_gen = sub.add_parser("gen-corpus", help="write a synthetic site corpus to disk")
    _add_site_spec_flags(p_gen)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_gen_corpus)

    p_bench = sub.add_parser("bench", help="run the crawl bench matrix on a synthetic site")
    p_bench.add_argument("--matrix", required=True, help='cells as "WORKERS:PAGES,WORKERS:PAGES,..."')
    p_bench.add_argument("--politeness-ms", type=int, default=0)
    p_bench.add_argument("--max-depth", type=int, default=-1)
    _add_site_spec_flags(p_bench)
    _add_format_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):  # echo a path that is not UTF-8 as its bytes
            stream.reconfigure(errors="surrogateescape")
    try:
        args = parser.parse_args(argv)
        args.func(args)
        sys.stdout.flush()  # meet a closed stdout here, not in the exit flush
        return EXIT_OK
    except (_UsageError, OntoSeekerError) as exc:
        code, message = next(
            (code, message) for kinds, code, message in _FAILURES if isinstance(exc, kinds)
        )
        print("error: " + message.format(exc), file=sys.stderr)
        return code
    except BrokenPipeError:
        # stdout's reader left early (`| head -1`): the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
