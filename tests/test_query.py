from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_index, make_summary
from onto_seeker.harness import scan_oracle
from onto_seeker.query import (
    CLASS_PATH_MIN_ROW_LENGTH,
    EmptyQuery,
    Query,
    UnknownUrl,
    _scores_by_class,
    _scores_by_posting,
    _token_lists,
    explain,
    format_explain,
    format_results,
    parse_query,
    search,
)
from onto_seeker.rdf import tokenize


class TestParseQuery:
    def test_keywords_tokenized_and_concatenated(self):
        assert parse_query("hasPart person").tokens == ("has", "part", "person")

    def test_whitespace_only_is_empty(self):
        with pytest.raises(EmptyQuery):
            parse_query("   ")

    @given(
        st.lists(
            st.sampled_from(["hasPart", "part", "PartOf", "Person", "personHas", "Robot7", "7"]),
            min_size=1,
            max_size=12,
        )
    )
    def test_dedup_keeps_first_occurrence(self, keywords):
        assert parse_query("Person person").tokens == ("person",)
        stream = [token for keyword in keywords for token in tokenize(keyword)]
        expected = tuple(sorted(set(stream), key=stream.index))
        assert parse_query(" ".join(keywords)).tokens == expected

    # Whitespace separates tokens as str.split() separates keywords.
    @given(st.text(alphabet=st.sampled_from("aB9._- \t\n\x85\u2028\u3000") | st.characters()))
    def test_equals_tokenizing_each_keyword(self, raw):
        stream = [token for keyword in raw.split() for token in tokenize(keyword)]
        if not stream:
            with pytest.raises(EmptyQuery):
                parse_query(raw)
        else:
            assert parse_query(raw).tokens == tuple(dict.fromkeys(stream))

    def test_separator_only_keyword_is_empty(self):
        with pytest.raises(EmptyQuery):
            parse_query("___ ---")


class TestSearch:
    def test_class_name_match(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        results = search(index, parse_query("Person"), top_k=10)
        assert len(results) == 1
        assert results[0].url == "http://h.test/a.owl"
        assert results[0].matched == {"class": frozenset({"person"})}
        assert results[0].score == pytest.approx(3.0)

    def test_hand_built_empty_query_raises(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        with pytest.raises(EmptyQuery):
            search(index, Query(()), top_k=10)

    def test_unmatched_token_returns_nothing(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        assert search(index, parse_query("zzzz"), top_k=10) == []

    def test_tie_broken_by_url(self):
        index = make_index(
            [
                make_summary("http://h.test/b.owl", classes={"Person"}),
                make_summary("http://h.test/a.owl", classes={"Person"}),
            ]
        )
        results = search(index, parse_query("person"), top_k=10)
        assert [r.url for r in results] == ["http://h.test/a.owl", "http://h.test/b.owl"]

    def test_field_weights_order_results(self):
        index = make_index(
            [
                make_summary("http://h.test/rel.owl", relations={"part"}),
                make_summary("http://h.test/cls.owl", classes={"Part"}),
                make_summary("http://h.test/prop.owl", properties={"part"}),
            ]
        )
        results = search(index, parse_query("part"), top_k=10)
        assert [r.url for r in results] == [
            "http://h.test/cls.owl",
            "http://h.test/prop.owl",
            "http://h.test/rel.owl",
        ]
        assert [r.score for r in results] == [pytest.approx(3.0), pytest.approx(2.0), pytest.approx(1.0)]

    def test_tf_increases_score_logarithmically(self):
        index = make_index(
            [make_summary("http://h.test/a.owl", classes={"PartOne", "PartTwo", "PartThree"})]
        )
        results = search(index, parse_query("part"), top_k=10)
        assert results[0].score == pytest.approx(3.0 * (1.0 + math.log(3)))

    def test_top_k_caps_results(self):
        index = make_index(
            [make_summary(f"http://h.test/{i}.owl", classes={"Person"}) for i in range(5)]
        )
        assert len(search(index, parse_query("person"), top_k=2)) == 2

    def test_scores_strictly_positive(self):
        index = make_index(
            [make_summary(f"http://h.test/{i}.owl", classes={"Person"}, relations={"knows"})
             for i in range(4)]
        )
        for result in search(index, parse_query("person knows"), top_k=10):
            assert result.score > 0

    def test_or_semantics_by_default(self):
        index = make_index(
            [
                make_summary("http://h.test/a.owl", classes={"Person"}),
                make_summary("http://h.test/b.owl", classes={"Robot"}),
            ]
        )
        assert len(search(index, parse_query("person robot"), top_k=10)) == 2

    def test_match_all_requires_every_token(self):
        index = make_index(
            [
                make_summary("http://h.test/a.owl", classes={"Person"}, relations={"robot"}),
                make_summary("http://h.test/b.owl", classes={"Robot"}),
            ]
        )
        results = search(index, parse_query("person robot"), top_k=10, match_all=True)
        assert [r.url for r in results] == ["http://h.test/a.owl"]

    def test_monotonic_under_unrelated_addition(self):
        base = [make_summary("http://h.test/a.owl", classes={"Person"})]
        added = base + [make_summary("http://h.test/z.owl", classes={"Unrelated"})]
        query = parse_query("person")
        before = search(make_index(base), query, top_k=10)
        after = search(make_index(added), query, top_k=10)
        assert [(r.url, r.score) for r in before] == [(r.url, r.score) for r in after]

    def test_exact_match_guarantee_small(self):
        summaries = [
            make_summary(
                f"http://h.test/o{i}.owl",
                classes={"AgentOfOrganization"},
                properties={"hasPart"},
                relations={"mentorOf"},
            )
            for i in range(3)
        ]
        index = make_index(summaries)
        for summary in summaries:
            for terms in (summary.classes, summary.properties, summary.relations):
                for term in terms:
                    for token in tokenize(term):
                        hits = search(index, parse_query(token), top_k=10)
                        assert str(summary.url) in {r.url for r in hits}


class TestExplain:
    def test_single_hit_breakdown(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        contributions = explain(index, parse_query("person"), "http://h.test/a.owl")
        assert len(contributions) == 1
        c = contributions[0]
        assert (c.token, c.field, c.tf) == ("person", "class", 1)
        assert c.contribution == pytest.approx(3.0)

    def test_contributions_sum_to_search_score(self):
        summaries = [
            make_summary(
                "http://h.test/a.owl",
                classes={"PartOfOrganization", "Part"},
                properties={"hasPart"},
                relations={"partner"},
            )
        ]
        index = make_index(summaries)
        query = parse_query("part organization has")
        [result] = search(index, query, top_k=10)
        contributions = explain(index, query, result.url)
        total = 0.0
        for c in contributions:
            total += c.contribution
        assert total == result.score

    def test_contributions_sum_to_search_score_in_a_key_of_several_tf_rows(self):
        summaries = [
            make_summary("http://h.test/a.owl", classes={"Part", "SparePart", "PartOfOrganization"}),
            make_summary("http://h.test/b.owl", classes={"Part"}, properties={"hasPart"}),
            make_summary("http://h.test/c.owl", classes={"Part", "BodyPart"}, relations={"partOf"}),
        ]
        index = make_index(summaries)
        assert index.posting_lists["part", "class"].rows == [(1, [1]), (2, [2]), (3, [0])]
        query = parse_query("part organization")
        results = search(index, query, top_k=10)
        assert len(results) == 3
        for result in results:
            contributions = explain(index, query, result.url)
            total = 0.0
            for c in contributions:
                total += c.contribution
            assert total == result.score
        explained = explain(index, query, "http://h.test/a.owl")
        assert [(c.token, c.field, c.tf) for c in explained] == [
            ("part", "class", 3), ("organization", "class", 1)
        ]

    @pytest.mark.parametrize(
        "url", ["HTTP://H.Test:80/a.owl", "http://h.test/a.owl#top", " http://h.test/a.owl"]
    )
    def test_url_in_any_spelling(self, url):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        query = parse_query("person")
        assert explain(index, query, url) == explain(index, query, "http://h.test/a.owl")

    def test_unknown_url(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        with pytest.raises(UnknownUrl):
            explain(index, parse_query("person"), "http://h.test/other.owl")

    @pytest.mark.parametrize("url", ["https://h.test/a.owl", "http://[x", "h.test/a.owl"])
    def test_url_that_does_not_parse_or_differs_is_unknown(self, url):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        with pytest.raises(UnknownUrl):
            explain(index, parse_query("person"), url)

    def test_format_explain_lines(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        lines = format_explain(explain(index, parse_query("person"), "http://h.test/a.owl"))
        assert lines[0] == "person class tf=1 contrib=3.000000"
        assert lines[-1] == "total 3.000000"


class TestFormatResults:
    def test_line_shape(self):
        index = make_index([make_summary("http://h.test/a.owl", classes={"Person"})])
        [line] = format_results(search(index, parse_query("person"), top_k=1))
        assert line == "1\t3.000000\thttp://h.test/a.owl"

    def test_machine_mode_appends_matched_detail(self):
        index = make_index(
            [make_summary("http://h.test/a.owl", classes={"Person"}, relations={"person"})]
        )
        [line] = format_results(search(index, parse_query("person"), top_k=1), machine=True)
        rank, score, url, detail = line.split("\t")
        assert detail == "class:person;relation:person"


# Class names that share the token "part", so one posting list holds
# several distinct tfs; documents are drawn from a few term profiles, so
# scores tie often and ties straddle the k-th place.
_PROFILES = st.fixed_dictionaries(
    {
        "classes": st.frozensets(
            st.sampled_from(["Part", "PartOne", "HasPart", "WheelPart", "Wheel", "RobotArm"]),
            max_size=4,
        ),
        "properties": st.frozensets(st.sampled_from(["hasPart", "hasWheel", "name"]), max_size=2),
        "relations": st.frozensets(st.sampled_from(["partOf", "robot", "knows"]), max_size=2),
    }
)


@st.composite
def _single_class_corpora(draw):
    # One class per document and URLs in doc-id order: every score ties, so
    # the URL tie-break alone decides which documents make the top k.
    words = draw(
        st.lists(
            st.sampled_from(["Person", "hasPart", "AgentOf", "Robot", "partner", "Wheel"]),
            min_size=1,
            max_size=4,
        )
    )
    summaries = [make_summary(f"http://h.test/o{i}.owl", classes={w}) for i, w in enumerate(words)]
    return summaries, words


@st.composite
def _tied_corpora(draw):
    profiles = draw(st.lists(_PROFILES, min_size=1, max_size=3))
    n = draw(st.integers(min_value=1, max_value=8))
    picks = draw(st.lists(st.sampled_from(profiles), min_size=n, max_size=n))
    # URL names are a permutation of the doc ids, so URL order is not id order.
    names = draw(st.permutations(range(n)))
    summaries = [make_summary(f"http://h.test/o{name}.owl", **p) for name, p in zip(names, picks)]
    words = draw(
        st.lists(
            st.sampled_from(["part", "wheel", "has", "robot", "arm", "one", "knows", "zzz"]),
            min_size=1,
            max_size=3,
        )
    )
    return summaries, words


@given(st.one_of(_single_class_corpora(), _tied_corpora()), st.booleans())
def test_search_never_exceeds_top_k(corpus, match_all):
    summaries, words = corpus
    index = make_index(summaries)
    query = parse_query(" ".join(words))
    n = len(summaries)
    everything = search(index, query, top_k=n, match_all=match_all)
    for top_k in range(1, n + 2):
        results = search(index, query, top_k=top_k, match_all=match_all)
        assert len(results) <= top_k
        assert results == everything[:top_k]
        # QueryResult equality compares the float scores exactly.
        assert results == scan_oracle(summaries, query, top_k=top_k, match_all=match_all)
    for result in everything:
        total = 0.0
        explained: dict[str, set[str]] = {}
        for c in explain(index, query, result.url):
            total += c.contribution
            explained.setdefault(c.field, set()).add(c.token)
        assert total == result.score
        assert explained == result.matched


def _scored(index, scorer, query, top_k, match_all):
    """A scorer's candidates as {url: score bits}."""
    token_lists, _long_rows = _token_lists(index, query)
    candidates = scorer(token_lists, top_k, match_all)
    return {index.docs[d].url: score.hex() for d, score in candidates.items()}


def _oracle_at_the_cut(summaries, query, top_k, match_all):
    """scan_oracle's matches scoring at or above the k-th best, as {url: score bits}."""
    every = scan_oracle(summaries, query, top_k=max(len(summaries), 1), match_all=match_all)
    if len(every) > top_k:
        every = [r for r in every if r.score >= every[top_k - 1].score]
    return {r.url: r.score.hex() for r in every}


@given(st.one_of(_single_class_corpora(), _tied_corpora()), st.booleans())
@example(  # match_all with a token no document has
    ([make_summary("http://h.test/o0.owl", classes={"PartOne"})], ["part", "zzz"]), True
)
@example(  # every candidate tied at the cut
    ([make_summary(f"http://h.test/o{i}.owl", classes={"Wheel"}) for i in (2, 0, 1)], ["wheel"]),
    False,
)
def test_both_scorers_keep_the_oracles_candidates_bitwise(corpus, match_all):
    # Small indexes never reach the class path through search, so each
    # scorer is called directly; top_k runs from 1 past the match count.
    summaries, words = corpus
    index = make_index(summaries)
    query = parse_query(" ".join(words))
    for top_k in range(1, len(summaries) + 2):
        want = _oracle_at_the_cut(summaries, query, top_k, match_all)
        for scorer in (_scores_by_class, _scores_by_posting):
            assert _scored(index, scorer, query, top_k, match_all) == want


def test_class_path_merges_two_folds_that_reach_one_score():
    # Token-major, field-major: a folds 3.0 (class) + 1.0 (relation) and b
    # folds 2.0 (property) + 2.0 (property); both reach 4.0, and the merged
    # class then takes one shared row: both must reach 7.0.
    summaries = [
        make_summary("http://h.test/a.owl", classes={"Alpha", "Gamma"}, relations={"beta"}),
        make_summary("http://h.test/b.owl", classes={"Gamma"}, properties={"alpha", "beta"}),
    ]
    index = make_index(summaries)
    query = parse_query("alpha beta gamma")
    for top_k in (1, 2):
        assert _scored(index, _scores_by_class, query, top_k, False) == {
            "http://h.test/a.owl": (7.0).hex(),
            "http://h.test/b.owl": (7.0).hex(),
        }


def test_search_scores_long_rows_by_class_and_short_rows_by_posting():
    # 200 docs: the "part" and "wheel" rows hold 40-133 doc ids, "rare" one.
    summaries = [
        make_summary(
            f"http://h.test/o{(i * 7) % 200}.owl",
            classes={"Part", "SparePart" if i % 3 == 0 else "Part", "Rare" if i == 5 else "Part"},
            properties={"hasWheel"} if i % 2 else (),
            relations={"partOf"} if i % 5 == 0 else (),
        )
        for i in range(200)
    ]
    index = make_index(summaries)
    wide = parse_query("part wheel")
    token_lists, long_rows = _token_lists(index, wide)
    rows = [ids for _t, lists in token_lists for _f, pl in lists for _tf, ids in pl.rows]
    assert sum(map(len, rows)) >= CLASS_PATH_MIN_ROW_LENGTH * len(rows) and long_rows
    for match_all in (False, True):
        for top_k in (1, 10, 200):
            want = scan_oracle(summaries, wide, top_k=top_k, match_all=match_all)
            assert search(index, wide, top_k=top_k, match_all=match_all) == want
    assert index.posting_lists["part", "class"].bitmaps is not None
    narrow = parse_query("rare")
    assert search(index, narrow, top_k=10) == scan_oracle(summaries, narrow, top_k=10)
    assert index.posting_lists["rare", "class"].bitmaps is None


# README's threshold written out, not imported, so a change to the constant shows.
@pytest.mark.parametrize("doc_count, by_class", [(64, True), (63, False)])
def test_a_row_of_64_doc_ids_is_scored_by_class_and_63_by_posting(doc_count, by_class):
    summaries = [make_summary(f"http://h.test/o{i}.owl", {"Part"}) for i in range(doc_count)]
    index = make_index(summaries)
    assert [len(ids) for _tf, ids in index.posting_lists["part", "class"].rows] == [doc_count]
    query = parse_query("part")
    assert search(index, query, top_k=10) == scan_oracle(summaries, query, top_k=10)
    assert (index.posting_lists["part", "class"].bitmaps is not None) == by_class
