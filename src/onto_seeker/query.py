"""Keyword search over a loaded index.

Scoring: sum over matched (token, field) postings of w(field) * (1 + ln tf),
with weights class=3, property=2, relation=1. Matching is exact on tokens, so
a keyword equal to any class/property/relation name always hits the documents
that declare it. Ties are broken by URL so output is totally ordered.

Every matching document is scored, each posting list's contribution computed
once per tf row. A query whose rows average at least CLASS_PATH_MIN_ROW_LENGTH
doc ids is scored a score class at a time: the docs that share a running
score are one Python-int bitmap, built per row on first use
(PostingList.row_bitmaps), and a row splits and merges classes by bitmap
operations instead of adding to each of its docs. Shorter rows are scored a
posting at a time. Both paths give each doc the same additions in the same
order, so scores are bitwise those of the brute-force oracle. The top_k are
cut at the k-th best score, every tie at the cut kept for the (score desc,
URL asc) sort. Only the top_k returned get results; PostingList.tf_of gives
their matched tokens and explain's postings.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import OntoSeekerError
from .indexer import FIELDS, FIELD_WEIGHTS, Index, PostingList
from .netfetch import Url
from .rdf import tokenize


class EmptyQuery(OntoSeekerError):
    pass


class UnknownUrl(OntoSeekerError):
    pass


@dataclass(frozen=True)
class Query:
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class QueryResult:
    url: str
    score: float
    matched: dict[str, frozenset[str]]

    def matched_detail(self) -> str:
        parts = []
        for field_name in FIELDS:
            tokens = self.matched.get(field_name)
            if tokens:
                parts.append(f"{field_name}:{','.join(sorted(tokens))}")
        return ";".join(parts)


def parse_query(raw: str) -> Query:
    """The tokens of ``raw``, deduplicated keeping first occurrence; whitespace
    separates keywords as it separates tokens."""
    tokens = tuple(dict.fromkeys(tokenize(raw)))
    if not tokens:
        raise EmptyQuery(f"no searchable tokens in {raw!r}")
    return Query(tokens)


def contribution(field_name: str, tf: int) -> float:
    """One (token, field) posting's share of a score: w(field) * (1 + ln tf)."""
    return FIELD_WEIGHTS[field_name] * (1.0 + math.log(tf))


def check_top_k(top_k: int) -> None:
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


# A query whose posting rows hold at least this many doc ids on average is
# scored a score class at a time; below it, a posting at a time. Each side
# was measured with both paths forced: broad queries on the 4,000-doc bench
# indexes (212-304 ids per row) took 0.36 of the time by class; broad
# queries on the 300-doc site-io index (20-33) took 1.06 of it and narrow
# queries (<= 32 on every bench index) 1.4-1.5.
CLASS_PATH_MIN_ROW_LENGTH = 64

_Lists = list[tuple[str, list[tuple[str, PostingList]]]]  # (token, its (field, list) pairs)


def _token_lists(index: Index, query: Query) -> tuple[_Lists, bool]:
    """Each query token with the posting lists it has, in field order, and
    whether their rows average at least CLASS_PATH_MIN_ROW_LENGTH doc ids."""
    table = index.posting_lists
    token_lists: _Lists = []
    row_count = row_length = 0
    for token in query.tokens:
        lists = []
        for field_name in FIELDS:
            if (posting_list := table.get((token, field_name))) is not None:
                lists.append((field_name, posting_list))
                for _tf, doc_ids in posting_list.rows:
                    row_count += 1
                    row_length += len(doc_ids)
        token_lists.append((token, lists))
    return token_lists, row_length >= CLASS_PATH_MIN_ROW_LENGTH * row_count > 0


def _postings(token_lists: _Lists, doc_ids: list[int]) -> Iterator[tuple[str, str, int, int]]:
    """(token, field, tf, doc_id) per posting of doc_ids, in search's scoring order."""
    for token, lists in token_lists:
        for field_name, posting_list in lists:
            for doc_id in doc_ids:
                if tf := posting_list.tf_of(doc_id):
                    yield token, field_name, tf, doc_id


def search(index: Index, query: Query, top_k: int, match_all: bool = False) -> list[QueryResult]:
    """Rank documents matching any query token (all tokens with match_all).

    Results are sorted by score descending, then URL ascending, and capped at
    top_k. Every matching document is scored by folding in its rows'
    contributions w(field) * (1 + ln tf), token-major, then field-major, then
    by tf, each contribution computed once per row. When the query's rows
    average at least CLASS_PATH_MIN_ROW_LENGTH doc ids, ``_scores_by_class``
    folds them a score class at a time over row bitmaps and expands to doc
    ids only the best classes that hold top_k docs; otherwise
    ``_scores_by_posting`` adds each row's contribution to each of its docs.
    Either way each doc gets the same additions in the same order, so scores
    are bit-identical with each other and with the brute-force scan oracle.
    Every candidate at or above the k-th best score is kept, so ties at the
    cut all reach the (score, URL) sort that picks the top_k, whose matched
    tokens tf_of looks up.
    """
    if not query.tokens:
        raise EmptyQuery("query has no tokens")
    check_top_k(top_k)
    token_lists, long_rows = _token_lists(index, query)
    score = _scores_by_class if long_rows else _scores_by_posting
    candidates = score(token_lists, top_k, match_all)
    if not candidates:
        return []
    docs = index.docs
    winners = sorted(candidates, key=lambda d: (-candidates[d], docs[d].url))[:top_k]
    matched: dict[int, dict[str, set[str]]] = {doc_id: {} for doc_id in winners}
    for token, field_name, _tf, doc_id in _postings(token_lists, winners):
        matched[doc_id].setdefault(field_name, set()).add(token)
    return [
        QueryResult(
            url=docs[doc_id].url,
            score=candidates[doc_id],
            matched={f: frozenset(toks) for f, toks in matched[doc_id].items()},
        )
        for doc_id in winners
    ]


def _scores_by_posting(token_lists: _Lists, top_k: int, match_all: bool) -> dict[int, float]:
    """{doc id: score} of every candidate at or above the k-th best score,
    each row's contribution added to its docs one posting at a time."""
    scores: dict[int, float] = {}
    get = scores.get
    with_all_tokens: set[int] | None = None
    for _token, lists in token_lists:
        token_docs: set[int] = set()
        for field_name, posting_list in lists:
            for tf, doc_ids in posting_list.rows:
                c = contribution(field_name, tf)
                for doc_id in doc_ids:
                    scores[doc_id] = get(doc_id, 0.0) + c
                if match_all:
                    token_docs.update(doc_ids)
        if match_all:
            with_all_tokens = token_docs if with_all_tokens is None else with_all_tokens & token_docs
    candidates = scores if with_all_tokens is None else {d: scores[d] for d in with_all_tokens}
    if len(candidates) > top_k:
        ranked = sorted(candidates.values(), reverse=True)
        cut = ranked[top_k - 1]
        if ranked[-1] < cut:  # else all tie at or above the cut: nothing to drop
            candidates = {d: score for d, score in candidates.items() if score >= cut}
    return candidates


def _scores_by_class(token_lists: _Lists, top_k: int, match_all: bool) -> dict[int, float]:
    """What ``_scores_by_posting`` gives, from score classes: the docs with
    one running score, kept as one bitmap (bit d for doc d) per score.

    A row with contribution c splits each class (v, B) it meets into
    (v, B & ~row) and (v + c, B & row); its docs not scored yet join class c,
    as 0.0 + c == c; classes that reach one value merge. So each doc's score
    is the float fold of its rows in row order, as posting by posting.
    """
    classes: dict[float, int] = {}
    scored = 0  # the docs of every class
    mask = -1  # with match_all, the docs that have every token so far
    for _token, lists in token_lists:
        token_docs = 0
        for field_name, posting_list in lists:
            for (tf, _ids), row in zip(posting_list.rows, posting_list.row_bitmaps()):
                c = contribution(field_name, tf)
                if left := row & scored:
                    moved = []  # (score, the docs of its class in this row)
                    for v, docs in classes.items():
                        if hit := docs & left:
                            moved.append((v, hit))
                            left ^= hit
                            if not left:
                                break
                    for v, hit in moved:  # every split before any merge
                        if rest := classes[v] ^ hit:
                            classes[v] = rest
                        else:
                            del classes[v]
                    for v, hit in moved:
                        v += c
                        classes[v] = classes.get(v, 0) | hit
                if fresh := row ^ (row & scored):
                    classes[c] = classes.get(c, 0) | fresh
                scored |= row
                token_docs |= row
        if match_all:
            mask &= token_docs

    # The cut: classes by descending score until they hold top_k docs.
    candidates: dict[int, float] = {}
    for v in sorted(classes, reverse=True):
        if docs := classes[v] & mask:
            candidates.update(dict.fromkeys(_doc_ids(docs), v))
            if len(candidates) >= top_k:
                break
    return candidates


def _doc_ids(docs: int) -> list[int]:
    """The doc ids of a bitmap, descending: the top set bit, cleared in turn."""
    ids = []
    while docs:
        top = docs.bit_length() - 1
        ids.append(top)
        docs ^= 1 << top
    return ids


@dataclass(frozen=True)
class ScoreContribution:
    token: str
    field: str
    tf: int
    contribution: float


def explain(index: Index, query: Query, url: str) -> list[ScoreContribution]:
    """Per-(token, field) contributions for one document; they sum to the
    exact score search() assigns it. ``url`` may be in any spelling Url.parse reads."""
    try:
        key = str(Url.parse(url))
        doc = next(doc for doc in index.docs if doc.url == key)
    except (OntoSeekerError, StopIteration):
        raise UnknownUrl(url) from None
    return [
        ScoreContribution(token, field_name, tf, contribution(field_name, tf))
        for token, field_name, tf, _doc_id in _postings(_token_lists(index, query)[0], [doc.doc_id])
    ]


def format_results(results: list[QueryResult], machine: bool = False) -> list[str]:
    """One line per hit: rank<TAB>score(6dp)<TAB>url, plus matched detail in
    machine mode."""
    lines = []
    for rank, result in enumerate(results, start=1):
        line = f"{rank}\t{result.score:.6f}\t{result.url}"
        if machine:
            line += f"\t{result.matched_detail()}"
        lines.append(line)
    return lines


def format_explain(contributions: list[ScoreContribution]) -> list[str]:
    lines = [
        f"{c.token} {c.field} tf={c.tf} contrib={c.contribution:.6f}" for c in contributions
    ]
    total = 0.0
    for c in contributions:  # same accumulation order as search, so totals agree exactly
        total += c.contribution
    lines.append(f"total {total:.6f}")
    return lines
