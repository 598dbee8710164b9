"""Keyword search over a loaded index.

Scoring: sum over matched (token, field) postings of w(field) * (1 + ln tf),
with weights class=3, property=2, relation=1. Matching is exact on tokens, so
a keyword equal to any class/property/relation name always hits the documents
that declare it. Ties are broken by URL so output is totally ordered.

Every matching document is scored, but results (with their matched-token
sets) are built only for the top_k documents that are returned.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import OntoSeekerError
from .indexer import FIELDS, FIELD_WEIGHTS, Index, PostingList
from .netfetch import Url
from .rdf import tokenize

_NO_POSTINGS = PostingList([], [])


class EmptyQuery(OntoSeekerError):
    pass


class UnknownUrl(OntoSeekerError):
    pass


@dataclass(frozen=True)
class Query:
    raw: str
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
    tokens: list[str] = []
    for keyword in raw.split():
        for token in tokenize(keyword):
            if token not in tokens:
                tokens.append(token)
    if not tokens:
        raise EmptyQuery(f"no searchable tokens in {raw!r}")
    return Query(raw=raw, tokens=tuple(tokens))


def check_top_k(top_k: int) -> None:
    if top_k < 1:
        raise ValueError("top_k must be >= 1")


def search(index: Index, query: Query, top_k: int, match_all: bool = False) -> list[QueryResult]:
    """Rank documents matching any query token (all tokens with match_all).

    Results are sorted by score descending, then URL ascending, and capped at
    top_k. Every matching document is scored; the top_k winners are picked
    from the scores alone, and a second pass over the same posting lists
    collects matched tokens for those winners only. Accumulation order is
    token-major then field-major, which keeps scores bit-identical with the
    brute-force scan oracle.
    """
    if not query.tokens:
        raise EmptyQuery("query has no tokens")
    check_top_k(top_k)
    table = index.posting_lists
    scores: dict[int, float] = {}
    with_all_tokens: set[int] | None = None
    for token in query.tokens:
        token_docs: set[int] = set()
        for field_name in FIELDS:
            posting_list = table.get((token, field_name), _NO_POSTINGS)
            w = FIELD_WEIGHTS[field_name]
            for doc_id, tf in zip(posting_list.doc_ids, posting_list.tfs):
                scores[doc_id] = scores.get(doc_id, 0.0) + w * (1.0 + math.log(tf))
            if match_all:
                token_docs.update(posting_list.doc_ids)
        if match_all:
            with_all_tokens = token_docs if with_all_tokens is None else with_all_tokens & token_docs

    docs = index.docs
    winners = heapq.nsmallest(
        top_k,
        scores if with_all_tokens is None else with_all_tokens,
        key=lambda doc_id: (-scores[doc_id], docs[doc_id].url),
    )
    matched: dict[int, dict[str, set[str]]] = {doc_id: {} for doc_id in winners}
    for token in query.tokens:
        for field_name in FIELDS:
            for doc_id in table.get((token, field_name), _NO_POSTINGS).doc_ids:
                if doc_id in matched:
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
    contributions = []
    for token in query.tokens:
        for field_name in FIELDS:
            posting_list = index.posting_lists.get((token, field_name), _NO_POSTINGS)
            at = bisect_left(posting_list.doc_ids, doc.doc_id)
            if at < len(posting_list) and posting_list.doc_ids[at] == doc.doc_id:
                tf = posting_list.tfs[at]
                contribution = FIELD_WEIGHTS[field_name] * (1.0 + math.log(tf))
                contributions.append(ScoreContribution(token, field_name, tf, contribution))
    return contributions


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
