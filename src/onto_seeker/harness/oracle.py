"""Brute-force query scorer used as the independent check on the search path.

Scores are recomputed from the summaries themselves (never from postings), so
an indexer bug and a query-engine bug cannot cancel each other out. The
accumulation order mirrors search() exactly, which makes agreement bitwise,
not just within tolerance.
"""

from __future__ import annotations

import math

from ..indexer import FIELD_WEIGHTS
from ..query import EmptyQuery, Query, QueryResult, check_top_k
from ..rdf import OntologySummary, tokenize


def scan_oracle(
    summaries: list[OntologySummary], query: Query, top_k: int, match_all: bool = False
) -> list[QueryResult]:
    if not query.tokens:
        raise EmptyQuery("query has no tokens")
    check_top_k(top_k)
    results: list[QueryResult] = []
    for summary in summaries:
        score = 0.0
        matched: dict[str, set[str]] = {}
        hit_tokens: set[str] = set()
        for token in query.tokens:
            for field_name, terms in (
                ("class", summary.classes),
                ("property", summary.properties),
                ("relation", summary.relations),
            ):
                tf = sum(1 for term in terms if token in tokenize(term))
                if tf:
                    score += FIELD_WEIGHTS[field_name] * (1.0 + math.log(tf))
                    matched.setdefault(field_name, set()).add(token)
                    hit_tokens.add(token)
        if not hit_tokens:
            continue
        if match_all and hit_tokens != set(query.tokens):
            continue
        results.append(
            QueryResult(
                url=str(summary.url),
                score=score,
                matched={f: frozenset(toks) for f, toks in matched.items()},
            )
        )
    results.sort(key=lambda r: (-r.score, r.url))
    return results[:top_k]
