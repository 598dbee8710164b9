"""Build, persist, and reload the inverted index.

The index directory holds exactly three files: ``manifest.json`` (counts,
skip accounting and the fixed scoring weights, checked on load), ``docs.tsv``
(one row per indexed document), and ``postings.tsv`` (token, field, doc id
and tf per line, sorted). A build gives each URL-list line one outcome, its
summary or its skip reason, and fetches through ``netfetch.fetch_in_order``
with one worker, one URL at a time on the calling thread, taking the list's
hosts in turn. Doc ids follow input order, so doc ids and the on-disk bytes
are reproducible and do not depend on the fetch order. The reader loads the
rows into one ``PostingList`` (doc ids, tfs) per (token, field).
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import Counter, defaultdict, deque, namedtuple
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, zip_longest
from pathlib import Path

from .errors import OntoSeekerError
from .netfetch import (
    DEFAULT_POLITENESS_MS,
    FetchError,
    FetchResponse,
    PolitenessGate,
    Transport,
    Url,
    fetch_in_order,
)
from .rdf import (
    RDF_XML,
    TURTLE,
    OntologySummary,
    RdfParseError,
    detect_syntax,
    extract_summary,
    parse_rdf_xml,
    parse_turtle,
    tokenize,
)

FORMAT_VERSION = 1

FIELDS = ("class", "property", "relation")
FIELD_RANK = {name: rank for rank, name in enumerate(FIELDS)}
FIELD_WEIGHTS = {"class": 3.0, "property": 2.0, "relation": 1.0}

SKIP_REASONS = (
    "blank_or_null",
    "duplicate",
    "fetch_error",
    "unsupported_syntax",
    "parse_error",
    "empty_ontology",
    "oversize",
)

MANIFEST_FILE = "manifest.json"
DOCS_FILE = "docs.tsv"
POSTINGS_FILE = "postings.tsv"


class InputUnreadable(OntoSeekerError):
    pass


class IndexDirUnwritable(OntoSeekerError):
    pass


class MissingFile(OntoSeekerError):
    pass


class CorruptIndex(OntoSeekerError):
    pass


class VersionMismatch(OntoSeekerError):
    pass


@dataclass(frozen=True)
class IndexLimits:
    max_ontology_bytes: int = 3 * 1024 * 1024  # the "more than 3 Mb" cutoff, as MiB
    politeness_ms: int = DEFAULT_POLITENESS_MS

    def __post_init__(self):
        if self.max_ontology_bytes <= 0:
            raise ValueError("max_ontology_bytes must be > 0")
        if self.politeness_ms < 0:
            raise ValueError("politeness_ms must be >= 0")


@dataclass(frozen=True, slots=True)
class DocRecord:
    doc_id: int
    url: str
    byte_size: int
    class_count: int
    property_count: int
    relation_count: int


PostingRow = tuple[str, str, int, int]  # (token, field, doc id, tf): one postings.tsv line


@dataclass(frozen=True)
class IndexManifest:
    format_version: int
    created_at: str
    doc_count: int
    posting_count: int
    input_line_count: int
    skip_counts: dict[str, int]
    field_weights: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


DocTf = namedtuple("DocTf", "doc_id tf")


@dataclass(slots=True)
class PostingList:
    """The postings of one (token, field) key: ascending doc ids and their tfs."""

    doc_ids: list[int]
    tfs: list[int]

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __iter__(self):  # (doc_id, tf) items, as perfbench/tracing.py reads them
        return map(DocTf, self.doc_ids, self.tfs)


@dataclass
class Index:
    docs: list[DocRecord]
    posting_lists: dict[tuple[str, str], PostingList]
    manifest: IndexManifest

    # Kept for perfbench/tracing.py, which wraps this property's .func by name
    # and counts through len() and .doc_id; ROADMAP item 3 retires the patching.
    @cached_property
    def postings_by_token_field(self) -> dict[tuple[str, str], PostingList]:
        return self.posting_lists


def now_utc_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def index_summaries(summaries: list[OntologySummary]) -> tuple[list[DocRecord], list[PostingRow]]:
    """Turn per-document term sets into doc records and sorted posting rows.

    tf counts how many source terms in that field tokenize to contain the
    token, so one multi-word term contributes at most 1 per token. Docs are
    visited in id order, so only the (token, field rank) keys need sorting.
    Each distinct term is tokenized once: vocabularies repeat across documents.
    """
    docs: list[DocRecord] = []
    # (token, field rank) -> {doc id: tf}; each key's doc ids come out ascending
    tf_table: defaultdict[tuple[str, int], Counter[int]] = defaultdict(Counter)
    term_tokens: dict[str, tuple[str, ...]] = {}  # term -> its distinct tokens
    for doc_id, summary in enumerate(summaries):
        field_terms = (summary.classes, summary.properties, summary.relations)
        docs.append(
            DocRecord(doc_id, str(summary.url), summary.byte_size, *map(len, field_terms))
        )
        for rank, terms in enumerate(field_terms):
            for term in terms:
                tokens = term_tokens.get(term)
                if tokens is None:
                    tokens = term_tokens[term] = tuple(set(tokenize(term)))
                for token in tokens:
                    tf_table[token, rank][doc_id] += 1
    postings = [
        (token, FIELDS[rank], doc_id, tf)
        for token, rank in sorted(tf_table)
        for doc_id, tf in tf_table[token, rank].items()
    ]
    return docs, postings


def read_url_lines(url_list_path: str | Path) -> list[str]:
    """The URL list's lines; InputUnreadable if it is not readable UTF-8 text."""
    try:
        return Path(url_list_path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputUnreadable(f"{url_list_path}: {exc}") from exc


def _summarise(
    key: str, resp: FetchResponse | FetchError, limits: IndexLimits
) -> OntologySummary | str:
    """The summary of the document fetched for ``key``, or the reason it is skipped."""
    if isinstance(resp, FetchError) or resp.status != 200:
        return "fetch_error"
    if len(resp.body) > limits.max_ontology_bytes:
        return "oversize"
    syntax = detect_syntax(resp.body, resp.content_type)
    if syntax == RDF_XML:
        parse = parse_rdf_xml
    elif syntax == TURTLE:
        parse = parse_turtle
    else:
        return "unsupported_syntax"
    try:
        triples = parse(resp.body, key)
    except RdfParseError:
        return "parse_error"
    summary = extract_summary(triples, key, len(resp.body))
    return "empty_ontology" if summary.is_empty() else summary


def triage_url_lines(lines: list[str]) -> tuple[list[str | None], dict[str, list[int]]]:
    """Each line's blank/null, duplicate or unparseable-line skip reason (None
    for a line to fetch), and the lines to fetch by host, all in file order."""
    reasons: list[str | None] = [None] * len(lines)
    seen: set[str] = set()
    # Line numbers only: building a Url per pending line slowed the site-cpu
    # build, so each line is parsed again when it is fetched.
    host_lines: dict[str, list[int]] = {}
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line or line == "null":
            reasons[lineno] = "blank_or_null"
            continue
        try:
            url = Url.parse(line)
            key = str(url)
        except OntoSeekerError:
            url = None
            key = line
        if key in seen:
            reasons[lineno] = "duplicate"
            continue
        seen.add(key)
        if url is None:
            reasons[lineno] = "fetch_error"
            continue
        host_lines.setdefault(url.host, []).append(lineno)
    return reasons, host_lines


def build_index(
    url_list_path: str | Path,
    transport: Transport,
    limits: IndexLimits,
    index_dir: str | Path,
    created_at: str | None = None,
) -> IndexManifest:
    """Fetch every URL in the crawler's list, apply the skip rules, and
    persist the index directory.

    Each line gets one outcome, its summary or its skip reason; the docs, the
    skip counts and the input line count are read off that list, so doc_count
    + skips == input lines by construction. The lines ``triage_url_lines``
    keeps are fetched taking hosts in turn (one line from each host, hosts in
    the order of their first line, each host's lines in file order), so one
    host's politeness wait overlaps the other hosts' fetches. Doc ids and the
    bytes written follow file order, whatever the fetch order.
    """
    lines = read_url_lines(url_list_path)
    outcomes, host_lines = triage_url_lines(lines)
    pending = deque(
        (Url.parse(lines[lineno].strip()), lineno)
        for lineno in chain.from_iterable(zip_longest(*host_lines.values()))
        if lineno is not None
    )
    gate = PolitenessGate(limits.politeness_ms)
    fetched = fetch_in_order(transport, gate, pending, limits.max_ontology_bytes + 1, 1)
    for url, lineno, resp in fetched:
        outcomes[lineno] = _summarise(str(url), resp, limits)

    reason_counts = Counter(outcome for outcome in outcomes if isinstance(outcome, str))
    docs, postings = index_summaries([o for o in outcomes if isinstance(o, OntologySummary)])
    manifest = IndexManifest(
        format_version=FORMAT_VERSION,
        created_at=created_at if created_at is not None else now_utc_iso(),
        doc_count=len(docs),
        posting_count=len(postings),
        input_line_count=len(outcomes),
        skip_counts={reason: reason_counts[reason] for reason in SKIP_REASONS},
        field_weights=dict(FIELD_WEIGHTS),
    )
    write_index(index_dir, docs, postings, manifest)
    return manifest


def write_index(
    index_dir: str | Path,
    docs: list[DocRecord],
    postings: list[PostingRow],
    manifest: IndexManifest,
) -> None:
    """Write manifest.json, docs.tsv, and postings.tsv (UTF-8, LF, TAB-separated).

    All three go to temporary siblings and are fsynced first, so a failed write
    of the files keeps the old index. Then, each step fsyncing the folder: the
    old manifest is unlinked, the two data files are replaced, and the new
    manifest is replaced last. A reader never pairs a manifest with data files
    it was not written with: whatever stops the swap, it finds the old index,
    no manifest (MissingFile), or the new index.
    """
    directory = Path(index_dir)
    rows = {
        DOCS_FILE: (
            f"{doc.doc_id}\t{doc.url}\t{doc.byte_size}\t"
            f"{doc.class_count}\t{doc.property_count}\t{doc.relation_count}\n"
            for doc in docs
        ),
        POSTINGS_FILE: (
            f"{token}\t{field_name}\t{doc_id}\t{tf}\n"
            for token, field_name, doc_id, tf in postings
        ),
        MANIFEST_FILE: (manifest.to_json(),),
    }
    temps = {name: directory / f"{name}.tmp" for name in rows}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, lines in rows.items():
            with open(temps[name], "w", encoding="utf-8", newline="\n") as fh:
                for line in lines:
                    fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
        with contextlib.suppress(FileNotFoundError):
            os.unlink(directory / MANIFEST_FILE)
        _fsync_folder(directory)
        for name in (DOCS_FILE, POSTINGS_FILE):
            os.replace(temps[name], directory / name)
        _fsync_folder(directory)
        os.replace(temps[MANIFEST_FILE], directory / MANIFEST_FILE)
        _fsync_folder(directory)
    except OSError as exc:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                temp.unlink()
        raise IndexDirUnwritable(f"{index_dir}: {exc}") from exc


def _fsync_folder(directory: Path) -> None:
    folder = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(folder)
    finally:
        os.close(folder)


def _corrupt(check: bool, message: str) -> None:
    if not check:
        raise CorruptIndex(message)


def read_index(index_dir: str | Path) -> Index:
    """Load and validate an index directory, one ``PostingList`` per key.

    Raises MissingFile when one of the three files is absent, VersionMismatch
    when ``format_version`` is not the int FORMAT_VERSION, and CorruptIndex naming the
    file, the 1-based line or field where there is one, and the invariant:

    - each file is UTF-8, manifest.json is a JSON object with every field
      and skip reason, each of its counts is an integer >= 0, and its
      field_weights equal FIELD_WEIGHTS, the weights scoring uses;
    - docs.tsv rows have 6 columns and integer numbers, doc ids are dense and
      ascending from 0, no count is negative and every doc has a term;
    - postings.tsv rows have 4 columns, integer doc_id and tf, tf >= 1 and a
      doc_id that names a row of docs.tsv; within a key each doc id is above
      the one before it, and a row starting a new key has a known field and
      sorts after the previous key by token, field rank;
    - the manifest's doc and posting counts match the files, the accounting
      identity doc_count + skips == input lines holds, and every doc has at
      least one posting.
    """
    directory = Path(index_dir)
    for name in (MANIFEST_FILE, DOCS_FILE, POSTINGS_FILE):
        if not (directory / name).is_file():
            raise MissingFile(str(directory / name))

    try:
        data = json.loads((directory / MANIFEST_FILE).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptIndex(f"manifest.json unreadable: {exc}") from exc
    if not isinstance(data, dict):
        raise CorruptIndex(f"manifest.json is not a JSON object: {type(data).__name__}")
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not True, which == 1
        raise VersionMismatch(f"index format {version!r}, reader supports {FORMAT_VERSION}")
    # Scoring uses FIELD_WEIGHTS whatever is written here; True == 1.0, so no bool.
    weights = data.get("field_weights")
    if weights != FIELD_WEIGHTS or any(type(w) not in (int, float) for w in weights.values()):
        raise CorruptIndex(f"manifest.json field_weights must be {FIELD_WEIGHTS}, not {weights!r}")
    try:
        manifest = IndexManifest(
            format_version=data["format_version"],
            created_at=data["created_at"],
            doc_count=data["doc_count"],
            posting_count=data["posting_count"],
            input_line_count=data["input_line_count"],
            skip_counts={r: data["skip_counts"][r] for r in SKIP_REASONS},
            field_weights=dict(FIELD_WEIGHTS),
        )
    except (KeyError, TypeError) as exc:
        raise CorruptIndex(f"manifest.json missing or malformed field: {exc}") from exc
    counts = {f"skip_counts.{reason}": n for reason, n in manifest.skip_counts.items()}
    for name in ("doc_count", "posting_count", "input_line_count"):
        counts[name] = getattr(manifest, name)
    for name, count in counts.items():
        if type(count) is not int or count < 0:
            raise CorruptIndex(f"manifest.json {name} must be an integer >= 0, not {count!r}")

    # The row loops below run once per line of a large file, so each check is
    # inlined and formats its message only when it fails.
    docs: list[DocRecord] = []
    for lineno, line in enumerate(_read_tsv_lines(directory / DOCS_FILE), 1):
        parts = line.split("\t")
        if len(parts) != 6:
            raise CorruptIndex(f"docs.tsv line {lineno}: expected 6 columns")
        doc_text, url, *count_texts = parts
        try:
            doc_id, byte_size, class_count, property_count, relation_count = map(
                int, (doc_text, *count_texts)
            )
        except ValueError as exc:
            raise CorruptIndex(f"docs.tsv line {lineno}: {exc}") from exc
        if doc_id != lineno - 1:
            raise CorruptIndex(
                f"docs.tsv line {lineno}: doc ids must be dense and ascending from 0"
            )
        if class_count < 0 or property_count < 0 or relation_count < 0:
            raise CorruptIndex(f"docs.tsv line {lineno}: negative count")
        if class_count + property_count + relation_count <= 0:
            raise CorruptIndex(f"docs.tsv line {lineno}: document with no terms")
        docs.append(
            DocRecord(doc_id, url, byte_size, class_count, property_count, relation_count)
        )

    doc_total = len(docs)
    posting_lists: dict[tuple[str, str], PostingList] = {}
    has_posting = bytearray(doc_total)
    # The current key; no row's field equals None, so the first row opens a key
    # and is checked against ("", -1), below every real key.
    key_token, key_field, key_rank, prev_doc = "", None, -1, -1
    rows = _read_tsv_lines(directory / POSTINGS_FILE)
    for lineno, line in enumerate(rows, 1):
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorruptIndex(f"postings.tsv line {lineno}: expected 4 columns")
        token, field_name, doc_text, tf_text = parts
        try:
            doc_id = int(doc_text)
            tf = int(tf_text)
        except ValueError as exc:
            raise CorruptIndex(f"postings.tsv line {lineno}: {exc}") from exc
        if tf < 1:
            raise CorruptIndex(f"postings.tsv line {lineno}: tf must be >= 1")
        if not 0 <= doc_id < doc_total:
            raise CorruptIndex(
                f"postings.tsv line {lineno}: doc_id {doc_id} not in docs.tsv"
            )
        if token == key_token and field_name == key_field:
            in_order = doc_id > prev_doc
        else:
            rank = FIELD_RANK.get(field_name)
            if rank is None:
                raise CorruptIndex(f"postings.tsv line {lineno}: unknown field")
            in_order = (key_token, key_rank) < (token, rank)
            key_token, key_field, key_rank = token, field_name, rank
            posting_list = posting_lists[token, field_name] = PostingList([], [])
            add_doc = posting_list.doc_ids.append
            add_tf = posting_list.tfs.append
        if not in_order:
            raise CorruptIndex(
                f"postings.tsv line {lineno}: rows not strictly sorted by token/field/doc"
            )
        prev_doc = doc_id
        has_posting[doc_id] = 1
        add_doc(doc_id)
        add_tf(tf)

    _corrupt(manifest.doc_count == len(docs), "manifest doc_count does not match docs.tsv")
    _corrupt(
        manifest.posting_count == len(rows),
        "manifest posting_count does not match postings.tsv",
    )
    _corrupt(
        manifest.doc_count + sum(manifest.skip_counts.values()) == manifest.input_line_count,
        "manifest accounting identity doc_count + skips == input lines violated",
    )
    _corrupt(0 not in has_posting, "every indexed document must have at least one posting")
    return Index(docs=docs, posting_lists=posting_lists, manifest=manifest)


def _read_tsv_lines(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptIndex(f"{path.name} unreadable: {exc}") from exc
    return text.splitlines()


def render_skip_report(manifest: IndexManifest) -> str:
    """Skip accounting as "reason<TAB>count" lines in fixed reason order."""
    return "\n".join(f"{reason}\t{manifest.skip_counts[reason]}" for reason in SKIP_REASONS)
