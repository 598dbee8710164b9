"""Keyword search over a loaded index.

Scoring: sum over matched (token, field) postings of w(field) * (1 + ln tf),
with weights class=3, property=2, relation=1. Matching is exact on tokens, so
a keyword equal to any class/property/relation name always hits the documents
that declare it. Ties are broken by URL so output is totally ordered.

Every matching document is scored, with each posting list's contribution
computed once per tf row. The top_k are cut at the k-th best score, every
tie at the cut kept for the (score desc, URL asc) sort. Only the top_k returned
get results; PostingList.tf_of gives their matched tokens and explain's postings.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import OntoSeekerError
from .indexer import FIELDS, FIELD_WEIGHTS, Index
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
    """Whitespace-split keywords, tokenize each, dedup keeping first occurrence."""
    stream: list[str] = []
    for keyword in raw.split():
        stream += tokenize(keyword)
    tokens = tuple(dict.fromkeys(stream))
    if not tokens:
        raise EmptyQuery(f"no searchable tokens in {raw!r}")
    return Query(tokens)


def contribution(field_name: str, tf: int) -> float:
    """One (token, field) posting's share of a score: w(field) * (1 + ln tf)."""
    return FIELD_WEIGHTS[field_name] * (1.0 + math.log(tf))


def check_top_k(top_k: int) -> None:
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


def _postings(index: Index, query: Query, doc_ids: list[int]) -> Iterator[tuple[str, str, int, int]]:
    """(token, field, tf, doc_id) per posting of doc_ids, in search's scoring order."""
    for token in query.tokens:
        for field_name in FIELDS:
            if (posting_list := index.posting_lists.get((token, field_name))) is not None:
                for doc_id in doc_ids:
                    if tf := posting_list.tf_of(doc_id):
                        yield token, field_name, tf, doc_id


def search(index: Index, query: Query, top_k: int, match_all: bool = False) -> list[QueryResult]:
    """Rank documents matching any query token (all tokens with match_all).

    Results are sorted by score descending, then URL ascending, and capped at
    top_k. Every matching document is scored: each (tf, doc ids) row of a
    posting list computes its contribution once and adds it to each of the
    row's docs. A doc is in at most one row of a list, and accumulation order
    is token-major then field-major, which keeps scores bit-identical with
    the brute-force scan oracle. The k-th best score is the cut: every
    candidate at or above it is kept, so ties at the cut all reach the
    (score, URL) sort that picks the top_k, whose matched tokens tf_of looks up.
    """
    if not query.tokens:
        raise EmptyQuery("query has no tokens")
    check_top_k(top_k)
    table = index.posting_lists
    scores: dict[int, float] = {}
    get = scores.get
    with_all_tokens: set[int] | None = None
    for token in query.tokens:
        token_docs: set[int] = set()
        for field_name in FIELDS:
            posting_list = table.get((token, field_name))
            if posting_list is None:
                continue
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
    docs = index.docs
    winners = sorted(candidates, key=lambda d: (-candidates[d], docs[d].url))[:top_k]
    matched: dict[int, dict[str, set[str]]] = {doc_id: {} for doc_id in winners}
    for token, field_name, _tf, doc_id in _postings(index, query, winners):
        matched[doc_id].setdefault(field_name, set()).add(token)
    return [
        QueryResult(
            url=docs[doc_id].url,
            score=scores[doc_id],
            matched={f: frozenset(toks) for f, toks in matched[doc_id].items()},
        )
        for doc_id in winners
    ]


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
        for token, field_name, tf, _doc_id in _postings(index, query, [doc.doc_id])
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
