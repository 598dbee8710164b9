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
from dataclasses import dataclass

from .errors import OntoSeekerError
from .indexer import FIELDS, FIELD_WEIGHTS, Index
from .rdf import tokenize


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


def _contribution(field_name: str, tf: int) -> float:
    return FIELD_WEIGHTS[field_name] * (1.0 + math.log(tf))


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
    table = index.postings_by_token_field
    scores: dict[int, float] = {}
    with_all_tokens: set[int] | None = None
    for token in query.tokens:
        token_docs: set[int] = set()
        for field_name in FIELDS:
            postings = table.get((token, field_name), ())
            for posting in postings:
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + _contribution(
                    field_name, posting.tf
                )
            if match_all:
                token_docs.update(posting.doc_id for posting in postings)
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
            for posting in table.get((token, field_name), ()):
                if posting.doc_id in matched:
                    matched[posting.doc_id].setdefault(field_name, set()).add(token)
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
    exact score search() assigns it."""
    doc = index.doc_by_url.get(url)
    if doc is None:
        raise UnknownUrl(url)
    contributions = []
    for token in query.tokens:
        for field_name in FIELDS:
            for posting in index.postings_by_token_field.get((token, field_name), ()):
                if posting.doc_id == doc.doc_id:
                    contributions.append(
                        ScoreContribution(
                            token=token,
                            field=field_name,
                            tf=posting.tf,
                            contribution=_contribution(field_name, posting.tf),
                        )
                    )
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
