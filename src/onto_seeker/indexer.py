"""Build, persist, and reload the inverted index.

The index directory holds exactly three files: ``manifest.json`` (counts and
skip accounting), ``docs.tsv`` (one row per indexed document), and
``postings.tsv`` (one ``Posting`` row per line, sorted). Builds are sequential
in input order so doc ids and the on-disk bytes are reproducible. The reader
loads the rows into one ``PostingList`` (doc ids, tfs) per (token, field).
"""

from __future__ import annotations

import contextlib
import json
import os
from collections import namedtuple
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

from .errors import OntoSeekerError
from .netfetch import (
    DEFAULT_POLITENESS_MS,
    FetchError,
    PolitenessGate,
    Transport,
    Url,
    polite_fetch,
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


@dataclass(frozen=True, slots=True)
class Posting:
    token: str
    field: str
    doc_id: int
    tf: int


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
    # and counts through len() and .doc_id; ROADMAP item 5 retires the patching.
    @cached_property
    def postings_by_token_field(self) -> dict[tuple[str, str], PostingList]:
        return self.posting_lists


def now_utc_iso() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def index_summaries(summaries: list[OntologySummary]) -> tuple[list[DocRecord], list[Posting]]:
    """Turn per-document term sets into doc records and sorted postings.

    tf counts how many source terms in that field tokenize to contain the
    token, so one multi-word term contributes at most 1 per token.
    """
    docs: list[DocRecord] = []
    tf_table: dict[tuple[str, str, int], int] = {}
    for doc_id, summary in enumerate(summaries):
        field_terms = (summary.classes, summary.properties, summary.relations)
        docs.append(
            DocRecord(doc_id, str(summary.url), summary.byte_size, *map(len, field_terms))
        )
        for field_name, terms in zip(FIELDS, field_terms):
            for term in terms:
                for token in set(tokenize(term)):
                    key = (token, field_name, doc_id)
                    tf_table[key] = tf_table.get(key, 0) + 1
    postings = [
        Posting(token=token, field=field_name, doc_id=doc_id, tf=tf)
        for (token, field_name, doc_id), tf in sorted(
            tf_table.items(), key=lambda item: (item[0][0], FIELD_RANK[item[0][1]], item[0][2])
        )
    ]
    return docs, postings


def read_url_lines(url_list_path: str | Path) -> list[str]:
    """The URL list's lines; InputUnreadable if it is not readable UTF-8 text."""
    try:
        return Path(url_list_path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputUnreadable(f"{url_list_path}: {exc}") from exc


def build_index(
    url_list_path: str | Path,
    transport: Transport,
    limits: IndexLimits,
    index_dir: str | Path,
    created_at: str | None = None,
) -> IndexManifest:
    """Fetch every URL in the crawler's list, apply the skip rules, and
    persist the index directory. Lines are processed in file order."""
    lines = read_url_lines(url_list_path)

    gate = PolitenessGate(limits.politeness_ms)
    skip_counts = {reason: 0 for reason in SKIP_REASONS}
    seen: set[str] = set()
    summaries: list[OntologySummary] = []

    for line in lines:
        line = line.strip()
        if not line or line == "null":
            skip_counts["blank_or_null"] += 1
            continue
        try:
            url = Url.parse(line)
            key = str(url)
        except OntoSeekerError:
            url = None
            key = line
        if key in seen:
            skip_counts["duplicate"] += 1
            continue
        seen.add(key)
        if url is None:
            skip_counts["fetch_error"] += 1
            continue
        try:
            resp = polite_fetch(transport, gate, url, limits.max_ontology_bytes + 1)
        except FetchError:
            skip_counts["fetch_error"] += 1
            continue
        if resp.status != 200:
            skip_counts["fetch_error"] += 1
            continue
        if len(resp.body) > limits.max_ontology_bytes:
            skip_counts["oversize"] += 1
            continue
        syntax = detect_syntax(resp.body, resp.content_type, key)
        if syntax == RDF_XML:
            parse = parse_rdf_xml
        elif syntax == TURTLE:
            parse = parse_turtle
        else:
            skip_counts["unsupported_syntax"] += 1
            continue
        try:
            triples = parse(resp.body, key)
        except RdfParseError:
            skip_counts["parse_error"] += 1
            continue
        summary = extract_summary(triples, key, len(resp.body))
        if summary.is_empty():
            skip_counts["empty_ontology"] += 1
            continue
        summaries.append(summary)

    docs, postings = index_summaries(summaries)
    manifest = IndexManifest(
        format_version=FORMAT_VERSION,
        created_at=created_at if created_at is not None else now_utc_iso(),
        doc_count=len(docs),
        posting_count=len(postings),
        input_line_count=len(lines),
        skip_counts=skip_counts,
        field_weights=dict(FIELD_WEIGHTS),
    )
    write_index(index_dir, docs, postings, manifest)
    return manifest


def write_index(
    index_dir: str | Path,
    docs: list[DocRecord],
    postings: list[Posting],
    manifest: IndexManifest,
) -> None:
    """Write manifest.json, docs.tsv, and postings.tsv (UTF-8, LF, TAB-separated).

    All three go to temporary siblings first, so a failed write of the files keeps
    the old index; the manifest is replaced last.
    """
    directory = Path(index_dir)
    temps = {name: directory / f"{name}.tmp" for name in (DOCS_FILE, POSTINGS_FILE, MANIFEST_FILE)}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(temps[DOCS_FILE], "w", encoding="utf-8", newline="\n") as fh:
            for doc in docs:
                fh.write(
                    f"{doc.doc_id}\t{doc.url}\t{doc.byte_size}\t"
                    f"{doc.class_count}\t{doc.property_count}\t{doc.relation_count}\n"
                )
        with open(temps[POSTINGS_FILE], "w", encoding="utf-8", newline="\n") as fh:
            for posting in postings:
                fh.write(f"{posting.token}\t{posting.field}\t{posting.doc_id}\t{posting.tf}\n")
        with open(temps[MANIFEST_FILE], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(manifest.to_json())
        for name, temp in temps.items():
            os.replace(temp, directory / name)
    except OSError as exc:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                temp.unlink()
        raise IndexDirUnwritable(f"{index_dir}: {exc}") from exc


def _corrupt(check: bool, message: str) -> None:
    if not check:
        raise CorruptIndex(message)


def read_index(index_dir: str | Path) -> Index:
    """Load and validate an index directory, one ``PostingList`` per key.

    Raises MissingFile when one of the three files is absent, VersionMismatch
    when ``format_version`` is not FORMAT_VERSION, and CorruptIndex naming the
    file, the 1-based line where there is one, and the violated invariant:

    - manifest.json is a JSON object with every field, skip reason and weight;
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
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptIndex(f"manifest.json unreadable: {exc}") from exc
    if not isinstance(data, dict):
        raise CorruptIndex(f"manifest.json is not a JSON object: {type(data).__name__}")
    if data.get("format_version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"index format {data.get('format_version')!r}, reader supports {FORMAT_VERSION}"
        )
    try:
        manifest = IndexManifest(
            format_version=data["format_version"],
            created_at=data["created_at"],
            doc_count=data["doc_count"],
            posting_count=data["posting_count"],
            input_line_count=data["input_line_count"],
            skip_counts={r: data["skip_counts"][r] for r in SKIP_REASONS},
            field_weights={f: float(data["field_weights"][f]) for f in FIELDS},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptIndex(f"manifest.json missing or malformed field: {exc}") from exc

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
    except OSError as exc:
        raise CorruptIndex(f"{path.name} unreadable: {exc}") from exc
    return text.splitlines()


def render_skip_report(manifest: IndexManifest) -> str:
    """Skip accounting as "reason<TAB>count" lines in fixed reason order."""
    return "\n".join(f"{reason}\t{manifest.skip_counts[reason]}" for reason in SKIP_REASONS)
