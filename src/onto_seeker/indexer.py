"""Build, persist, and reload the inverted index.

The index directory holds exactly three files: ``manifest.json`` (counts,
skip accounting and the fixed scoring weights, checked on load), ``docs.tsv``
(one row per indexed document), and ``postings.tsv`` (format 2: one row per
(token, field, tf), holding the ascending comma list of the doc ids with
that tf; rows sorted by token, field rank, tf). A build gives each URL-list
line one outcome, its summary or its skip reason, and fetches through
``netfetch.fetch_in_order`` with one worker per host of the list (at most
``MAX_FETCH_WORKERS``), taking the list's hosts in turn, while the calling
thread parses each response in the order taken. Doc ids follow input order,
so doc ids and the on-disk bytes are reproducible and do not depend on the
fetch order or the worker count. The build hands ``write_index`` one flat
row per posting, which it groups by tf; the reader keeps those rows as
stored, one ``PostingList`` of (tf, ascending doc ids) rows per (token,
field).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from bisect import bisect_left
from collections import Counter, defaultdict, deque, namedtuple
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, groupby, zip_longest
from operator import itemgetter, lt
from pathlib import Path
from typing import NamedTuple

from .errors import OntoSeekerError, reason_of
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

FORMAT_VERSION = 2

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

# A build fetches with one worker per host of its list, at most this many.
# Each worker lets up to LOOKAHEAD_PER_WORKER finished bodies wait behind a
# slow one, so at most 4 × 32 − 1 = 127 bodies are held, as in a 4-worker crawl.
MAX_FETCH_WORKERS = 4

# Each column of a data file as (name, the pattern its text must fully match,
# what that pattern stands for). Numbers are ASCII digits with no leading
# zero: int() alone also takes " 1", "1_0", "01" and full-width digits, and
# json.loads, which decodes a doc-id list, refuses "01". The possessive
# quantifiers keep the long doc-id lists from backtracking.
_NUMBER = "(?:0|[1-9][0-9]*+)"
_NUMBER_MEANING = "ASCII digits without a leading zero"
_DOCS_COLUMNS = (
    ("doc_id", _NUMBER, _NUMBER_MEANING),
    ("url", "[^\t]*", ""),
    ("byte_size", _NUMBER, _NUMBER_MEANING),
    ("class_count", _NUMBER, _NUMBER_MEANING),
    ("property_count", _NUMBER, _NUMBER_MEANING),
    ("relation_count", _NUMBER, _NUMBER_MEANING),
)
_POSTINGS_COLUMNS = (
    ("token", "[^\t]*", ""),
    ("field", "|".join(FIELDS), "a known field"),
    ("doc_ids", f"{_NUMBER}(?:,{_NUMBER})*+", f"a non-empty comma list of {_NUMBER_MEANING}"),
    ("tf", _NUMBER, _NUMBER_MEANING),
)


def _row_pattern(columns: tuple[tuple[str, str, str], ...]) -> re.Pattern[str]:
    return re.compile("\t".join(f"({pattern})" for _name, pattern, _meaning in columns))


_DOCS_ROW = _row_pattern(_DOCS_COLUMNS)
_POSTINGS_ROW = _row_pattern(_POSTINGS_COLUMNS)


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


class DocRecord(NamedTuple):
    doc_id: int
    url: str
    byte_size: int
    class_count: int
    property_count: int
    relation_count: int


PostingRow = tuple[str, str, int, int]  # (token, field, doc id, tf): one posting


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
    """The postings of one (token, field) key as postings.tsv stores them:
    (tf, ascending doc ids) rows, ascending by tf, no doc id in two rows."""

    rows: list[tuple[int, list[int]]]
    # Derived from rows by row_bitmaps on first use, never read from disk.
    bitmaps: list[int] | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return sum(len(doc_ids) for _tf, doc_ids in self.rows)

    def __iter__(self):  # (doc_id, tf) items, as perfbench/tracing.py reads them
        return (DocTf(doc_id, tf) for tf, doc_ids in self.rows for doc_id in doc_ids)

    def tf_of(self, doc_id: int) -> int:
        """The doc's tf in this key, or 0 if it has no posting here."""
        for tf, doc_ids in self.rows:
            at = bisect_left(doc_ids, doc_id)
            if at < len(doc_ids) and doc_ids[at] == doc_id:
                return tf
        return 0

    def row_bitmaps(self) -> list[int]:
        """One int per row, bit d set iff doc d is in that row. Built on the
        first call and kept; two threads racing here build equal ints."""
        if self.bitmaps is None:
            self.bitmaps = [_bitmap(doc_ids) for _tf, doc_ids in self.rows]
        return self.bitmaps


def _bitmap(doc_ids: list[int]) -> int:
    digits = bytearray(b"0") * (doc_ids[-1] + 1)  # digit d is bit d: reversed below
    for doc_id in doc_ids:
        digits[doc_id] = 49  # ord("1")
    return int(digits[::-1], 2)


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


def read_url_list(url_list_path: str | Path) -> tuple[list[str | None], deque[tuple[Url, int]]]:
    """Each line's blank/null, duplicate or unparseable skip reason (None to
    fetch it), and the lines to fetch as (Url, line number) in host turns: one
    line from each host, hosts in the order of their first line, each host's
    lines in file order. InputUnreadable if the list is not readable UTF-8; a
    leading byte order mark is dropped."""
    try:
        lines = Path(url_list_path).read_text(encoding="utf-8-sig").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputUnreadable(f"{url_list_path}: {reason_of(exc)}") from exc
    reasons: list[str | None] = [None] * len(lines)
    seen: set[str] = set()
    host_lines: dict[str, list[tuple[Url, int]]] = {}
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line or line == "null":
            reasons[lineno] = "blank_or_null"
            continue
        try:
            url = Url.parse(line)
        except OntoSeekerError:
            url = None
        key = line if url is None else str(url)
        if key in seen:
            reasons[lineno] = "duplicate"
        elif url is None:
            reasons[lineno] = "fetch_error"
        else:
            host_lines.setdefault(url.host, []).append((url, lineno))
        seen.add(key)
    turns = chain.from_iterable(zip_longest(*host_lines.values()))
    return reasons, deque(entry for entry in turns if entry is not None)


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
    + skips == input lines by construction. The lines ``read_url_list``
    queues are fetched in its host turns by one worker per host, at most
    ``MAX_FETCH_WORKERS``, so one host's politeness wait and fetch overlap
    the other hosts' fetches; a one-host list is fetched on the calling
    thread. Each response is parsed on the calling thread, in the order
    taken. Doc ids and the bytes written follow file order, whatever the
    fetch order.
    """
    outcomes, pending = read_url_list(url_list_path)
    gate = PolitenessGate(limits.politeness_ms)
    workers = min(len({url.host for url, _lineno in pending}), MAX_FETCH_WORKERS) or 1
    fetched = fetch_in_order(transport, gate, pending, limits.max_ontology_bytes + 1, workers)
    with contextlib.closing(fetched):  # a parse that raises still stops the pool
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

    ``postings`` is one row per posting, sorted by token, field rank, doc id,
    as ``index_summaries`` gives it; postings.tsv groups each key's rows by
    tf, one line per (token, field, tf).

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
        POSTINGS_FILE: _postings_lines(postings),
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
        raise IndexDirUnwritable(f"{index_dir}: {reason_of(exc)}") from exc


def _postings_lines(postings: list[PostingRow]):
    """One postings.tsv line per (token, field, tf), its doc ids ascending."""
    for (token, field_name), key_rows in groupby(postings, itemgetter(0, 1)):
        ids_by_tf: dict[int, list[str]] = {}
        for _token, _field, doc_id, tf in key_rows:
            ids_by_tf.setdefault(tf, []).append(str(doc_id))
        for tf in sorted(ids_by_tf):
            yield f"{token}\t{field_name}\t{','.join(ids_by_tf[tf])}\t{tf}\n"


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
    """Load and validate an index directory, one ``PostingList`` per key
    holding that key's (tf, doc ids) rows as postings.tsv stores them.

    Raises MissingFile when one of the three files is absent, VersionMismatch
    when ``format_version`` is not the int FORMAT_VERSION, and CorruptIndex naming the
    file, the 1-based line or field where there is one, and the invariant:

    - each file is UTF-8, manifest.json is a JSON object with every field
      and skip reason, each of its counts is an integer >= 0, and its
      field_weights equal FIELD_WEIGHTS, the weights scoring uses;
    - every number in docs.tsv and postings.tsv is ASCII digits without a
      leading zero;
    - docs.tsv rows have 6 columns, doc ids are dense and ascending from 0,
      and every doc has a term;
    - postings.tsv rows have 4 columns: a token, a known field, a non-empty
      comma list of doc ids, strictly ascending, the last naming a row of
      docs.tsv, and a tf >= 1; (token, field rank, tf) rises strictly from
      row to row, and no doc id is in two tf rows of a key;
    - the manifest's doc count matches docs.tsv and its posting count the doc
      ids of postings.tsv, the accounting identity doc_count + skips == input
      lines holds, and every doc has at least one posting.
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

    # The loops run once per line of a large file, so each check is inlined
    # and formats its message only when it fails.
    docs: list[DocRecord] = []
    for lineno, line in enumerate(_read_tsv_lines(directory / DOCS_FILE), 1):
        row = _DOCS_ROW.fullmatch(line)
        if row is None:
            raise CorruptIndex(f"docs.tsv line {lineno}: {_row_fault(line, _DOCS_COLUMNS)}")
        doc_text, url, size_text, class_text, property_text, relation_text = row.groups()
        try:
            doc = DocRecord(
                int(doc_text), url, int(size_text),
                int(class_text), int(property_text), int(relation_text),
            )
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise CorruptIndex(f"docs.tsv line {lineno}: {exc}") from exc
        if doc.doc_id != lineno - 1:
            raise CorruptIndex(
                f"docs.tsv line {lineno}: doc ids must be dense and ascending from 0"
            )
        if doc.class_count + doc.property_count + doc.relation_count == 0:
            raise CorruptIndex(f"docs.tsv line {lineno}: document with no terms")
        docs.append(doc)

    doc_total = len(docs)
    posting_lists: dict[tuple[str, str], PostingList] = {}
    key_rows: list[tuple[int, list[int]]] = []  # the rows of the key being read
    key_ids: set[int] | None = None  # their doc ids, from the key's second row on
    docs_seen: set[int] = set()
    id_total = 0
    last = ("", -1, 0)  # the previous row's (token, field rank, tf); below every real row
    for lineno, line in enumerate(_read_tsv_lines(directory / POSTINGS_FILE), 1):
        row = _POSTINGS_ROW.fullmatch(line)
        if row is None:
            raise CorruptIndex(
                f"postings.tsv line {lineno}: {_row_fault(line, _POSTINGS_COLUMNS)}"
            )
        token, field_name, ids_text, tf_text = row.groups()
        try:
            tf = int(tf_text)
            ids = json.loads(f"[{ids_text}]")  # the list matched above: a JSON array
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise CorruptIndex(f"postings.tsv line {lineno}: {exc}") from exc
        if tf < 1:
            raise CorruptIndex(f"postings.tsv line {lineno}: tf must be >= 1")
        this = (token, FIELD_RANK[field_name], tf)
        if not last < this:
            raise CorruptIndex(
                f"postings.tsv line {lineno}: rows not strictly sorted by token/field/tf"
            )
        if not all(map(lt, ids, ids[1:])):
            raise CorruptIndex(f"postings.tsv line {lineno}: doc ids not strictly ascending")
        if ids[-1] >= doc_total:
            raise CorruptIndex(f"postings.tsv line {lineno}: doc_id {ids[-1]} not in docs.tsv")
        if this[:2] != last[:2]:  # a new key: sorted rows keep each key's rows together
            key_rows = [(tf, ids)]
            key_ids = None
            posting_lists[token, field_name] = PostingList(key_rows)
        else:
            if key_ids is None:
                key_ids = set(key_rows[0][1])
            if not key_ids.isdisjoint(ids):
                raise CorruptIndex(
                    f"postings.tsv line {lineno}: a doc id is in two tf rows of one key"
                )
            key_ids.update(ids)
            key_rows.append((tf, ids))
        docs_seen.update(ids)
        id_total += len(ids)
        last = this

    _corrupt(manifest.doc_count == len(docs), "manifest doc_count does not match docs.tsv")
    _corrupt(
        manifest.posting_count == id_total,
        "manifest posting_count does not match the doc ids of postings.tsv",
    )
    _corrupt(
        manifest.doc_count + sum(manifest.skip_counts.values()) == manifest.input_line_count,
        "manifest accounting identity doc_count + skips == input lines violated",
    )
    _corrupt(
        len(docs_seen) == doc_total, "every indexed document must have at least one posting"
    )
    return Index(docs=docs, posting_lists=posting_lists, manifest=manifest)


def _row_fault(line: str, columns: tuple[tuple[str, str, str], ...]) -> str:
    """Why ``line``, which does not match the row pattern of ``columns``, fails."""
    parts = line.split("\t")
    if len(parts) != len(columns):
        return f"expected {len(columns)} columns"
    return next(
        f"{name} {text!r} is not {meaning}"
        for (name, pattern, meaning), text in zip(columns, parts)
        if not re.fullmatch(pattern, text)
    )


def _read_tsv_lines(path: Path) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptIndex(f"{path.name} unreadable: {exc}") from exc
    return text.splitlines()


def render_skip_report(manifest: IndexManifest) -> str:
    """Skip accounting as "reason<TAB>count" lines in fixed reason order."""
    return "\n".join(f"{reason}\t{manifest.skip_counts[reason]}" for reason in SKIP_REASONS)
