from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, mutants
from onto_seeker.rdf import (
    RDF_NS,
    InvalidIri,
    Literal,
    RdfParseError,
    Triple,
    TurtleSyntaxError,
    UndefinedPrefix,
    UnsupportedConstruct,
    parse_turtle,
)

BASE = "http://x/o.ttl"


def _parse(text: str) -> list[Triple]:
    return parse_turtle(text.encode(), BASE)


class TestParseTurtle:
    def test_a_keyword(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:A a ex:B .")
        assert triples == [Triple("http://x/A", RDF_NS + "type", "http://x/B")]

    def test_object_list(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:A ex:p ex:B , ex:C .")
        assert [t.object for t in triples] == ["http://x/B", "http://x/C"]
        assert len({(t.subject, t.predicate) for t in triples}) == 1

    def test_predicate_list(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:A ex:p ex:B ; ex:q ex:C .")
        assert [t.predicate for t in triples] == ["http://x/p", "http://x/q"]

    def test_trailing_semicolon_allowed(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:A ex:p ex:B ; .")
        assert len(triples) == 1

    def test_consecutive_semicolons_allowed(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:A ex:p ex:B ;; ex:q ex:C .")
        assert len(triples) == 2

    def test_sparql_style_prefix_and_base(self):
        text = "PREFIX ex: <http://x/>\nBASE <http://base.example/>\nex:A ex:p <rel> ."
        triples = _parse(text)
        assert triples[0].object == "http://base.example/rel"

    def test_at_base_directive(self):
        triples = _parse("@base <http://b.example/> .\n<s> <p> <o> .")
        assert triples == [
            Triple("http://b.example/s", "http://b.example/p", "http://b.example/o")
        ]

    def test_relative_iris_resolve_against_document(self):
        assert _parse("<#A> <#p> <#B> .") == [
            Triple("http://x/o.ttl#A", "http://x/o.ttl#p", "http://x/o.ttl#B")
        ]

    def test_blank_node_labels(self):
        triples = _parse("@prefix ex: <http://x/> .\n_:a ex:p _:b .")
        assert triples[0].subject == "_:a" and triples[0].object == "_:b"

    def test_string_literal_short_forms(self):
        triples = _parse('@prefix ex: <http://x/> .\nex:A ex:p "hi" ; ex:q \'there\' .')
        assert [t.object for t in triples] == [Literal("hi"), Literal("there")]

    def test_lang_tag(self):
        assert _parse('<a> <p> "bonjour"@fr-CA .')[0].object == Literal("bonjour", lang="fr-CA")

    def test_datatype(self):
        triples = _parse('@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n<a> <p> "5"^^xsd:int .')
        assert triples[0].object == Literal("5", datatype="http://www.w3.org/2001/XMLSchema#int")

    def test_escapes(self):
        obj = _parse(r'<a> <p> "tab\there\n\"q\" A \U00000042 \\" .')[0].object
        assert obj == Literal('tab\there\n"q" A B \\')

    def test_numbers_are_plain_literals(self):
        triples = _parse("<a> <p> 42 , 3.14 , -7 , +0.5 .")
        assert [t.object for t in triples] == [
            Literal("42"),
            Literal("3.14"),
            Literal("-7"),
            Literal("+0.5"),
        ]

    def test_local_name_with_digits_and_dots(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:i0 ex:v1.2 ex:b .")
        assert triples[0].predicate == "http://x/v1.2"

    def test_statement_dot_not_eaten_by_local_name(self):
        triples = _parse("@prefix ex: <http://x/> .\nex:A ex:p ex:B.\nex:C ex:q ex:D.")
        assert len(triples) == 2
        assert triples[0].object == "http://x/B"

    def test_comments_ignored(self):
        triples = _parse("# leading\n@prefix ex: <http://x/> . # trailing\nex:A ex:p ex:B .")
        assert len(triples) == 1

    def test_empty_document(self):
        assert _parse("") == []
        assert _parse("@prefix ex: <http://x/> .") == []

    def test_undefined_prefix(self):
        with pytest.raises(UndefinedPrefix):
            _parse("ex:A ex:p ex:B .")

    def test_syntax_error_carries_position(self):
        with pytest.raises(TurtleSyntaxError) as err:
            _parse("@prefix ex: <http://x/> .\nex:A ex:p .")
        assert err.value.line == 2
        assert err.value.col > 0

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("<a> <p> <o> .\n  ex:A <p> <o> .", UndefinedPrefix,
             "line 2, column 3: undefined prefix 'ex:'"),
            ("<a> <p>\n\t@ .", TurtleSyntaxError,
             "line 2, column 3: expected directive or language tag after '@'"),
            ('<a> <p> <o> .\r\n<b> <p> "x\n" .', TurtleSyntaxError,
             "line 2, column 9: newline inside string literal"),
            ("# c\n\n<a> <p> <o>", TurtleSyntaxError,
             "line 3, column 12: expected ';', ',' or '.', found 'EOF'"),
            ("<a> <p>\n  ( ) .", UnsupportedConstruct,
             "unsupported construct: collection (line 2, column 3)"),
            ("<a>\n<p> '''x''' .", UnsupportedConstruct,
             "unsupported construct: multi-line string (line 2)"),
            ("<a", TurtleSyntaxError, "line 1, column 1: unterminated IRI"),
            ("<a\nb>", TurtleSyntaxError, "line 1, column 1: newline inside IRI"),
            ('<a> <p> "x"^<b> .', TurtleSyntaxError,
             "line 1, column 12: lone '^' (expected '^^')"),
            ("_: <p> <o> .", TurtleSyntaxError, "line 1, column 1: blank node label missing"),
            ("<a\\>", TurtleSyntaxError, "line 1, column 1: dangling backslash"),
            ("<a\\n> <p> <o> .", TurtleSyntaxError, "line 1, column 1: unknown escape \\n"),
            ("<a> <p>\n  <o b> .", TurtleSyntaxError,
             "line 2, column 3: illegal character in IRI <o b>"),
            ('<a> <p>\n  "x', TurtleSyntaxError, "line 2, column 3: unterminated string literal"),
            ('<a> <p> "x\\', TurtleSyntaxError, "line 1, column 9: unterminated string literal"),
            ("<a> <p> ) .", TurtleSyntaxError, "line 1, column 9: unbalanced ')'"),
            ("<a>\n <p> ] .", TurtleSyntaxError, "line 2, column 6: unbalanced ']'"),
            ("<a> <p> <o b\n> .", TurtleSyntaxError, "line 1, column 9: newline inside IRI"),
            ('<a> <p> "a\\\nb', TurtleSyntaxError, "line 1, column 9: unterminated string literal"),
            ("<a> <p> -x .", TurtleSyntaxError, "line 1, column 9: unexpected character '-'"),
            ("# c\n<a> <p> <o> . # x\n~", TurtleSyntaxError,
             "line 3, column 1: unexpected character '~'"),
            ("<a> <p>\n  [ ] .", UnsupportedConstruct,
             "unsupported construct: anonymous blank node (line 2, column 3)"),
            ("_:b0 <p> _:.", TurtleSyntaxError, "line 1, column 10: blank node label missing"),
            ("@prefix <x> .", TurtleSyntaxError,
             "line 1, column 9: expected 'prefix:' in prefix declaration"),
            ("@prefix ex: ex:b .", TurtleSyntaxError,
             "line 1, column 13: expected IRI in prefix declaration"),
            ("@base ex:a .", TurtleSyntaxError, "line 1, column 7: expected IRI in base declaration"),
            ("@prefix ex: <x> ;", TurtleSyntaxError, "line 1, column 17: expected '.', found ';'"),
        ],
    )
    def test_error_names_line_and_column(self, text, error, message):
        with pytest.raises(error) as err:
            _parse(text)
        assert str(err.value) == message

    def test_unjoinable_iri_is_a_parse_error(self):
        with pytest.raises(InvalidIri):
            _parse("<http://h/a> <http://h/p> <http://[x> .")

    # A lone surrogate cannot be written to the UTF-8 index files; the
    # digits of a \u or \U escape are ASCII hex only (Turtle's UCHAR).
    @pytest.mark.parametrize(
        "text",
        [
            r"<http://h/a\uD800> <http://h/p> <http://h/o> .",
            r'<http://h/a> <http://h/p> "x\u+041" .',
            r'<http://h/a> <http://h/p> "x\u0_41" .',
            '<http://h/a> <http://h/p> "x\\u00\uff141" .',
            r'<http://h/a> <http://h/p> "x\u 0041" .',
            r"<http://h/x\u+041> <http://h/p> <http://h/o> .",
            r"<http://h/x\u0_41> <http://h/p> <http://h/o> .",
            "<http://h/x\\u00\uff141> <http://h/p> <http://h/o> .",
            r'<http://h/a> <http://h/p> "x\U0000_041" .',
        ],
        ids=ascii,
    )
    def test_surrogate_escape_rejected(self, text):
        with pytest.raises(TurtleSyntaxError, match=r"bad \\[uU] escape"):
            _parse(text)

    def test_unterminated_string(self):
        with pytest.raises(TurtleSyntaxError):
            _parse('<a> <p> "oops .')

    def test_newline_in_string_rejected(self):
        with pytest.raises(TurtleSyntaxError):
            _parse('<a> <p> "two\nlines" .')

    def test_missing_dot(self):
        with pytest.raises(TurtleSyntaxError):
            _parse("@prefix ex: <http://x/> .\nex:A ex:p ex:B")

    def test_collection_unsupported(self):
        with pytest.raises(UnsupportedConstruct) as err:
            _parse("@prefix ex: <http://x/> .\nex:A ex:p ( ex:B ) .")
        assert "collection" in str(err.value)

    def test_anonymous_blank_unsupported(self):
        with pytest.raises(UnsupportedConstruct) as err:
            _parse("@prefix ex: <http://x/> .\nex:A ex:p [ ] .")
        assert "anonymous blank node" in str(err.value)

    def test_multiline_string_unsupported(self):
        with pytest.raises(UnsupportedConstruct) as err:
            _parse('<a> <p> """long""" .')
        assert "multi-line" in str(err.value)

    def test_not_utf8(self):
        with pytest.raises(TurtleSyntaxError):
            parse_turtle(b"\xff\xfe<a> <p> <o> .", BASE)

    def test_default_prefix(self):
        triples = _parse("@prefix : <http://d/> .\n:A :p :B .")
        assert triples[0].subject == "http://d/A"

    def test_prefix_redeclaration_wins(self):
        text = "@prefix ex: <http://one/> .\n@prefix ex: <http://two/> .\nex:A ex:p ex:B ."
        assert _parse(text)[0].subject == "http://two/A"

    def test_keyword_a_invalid_as_subject(self):
        with pytest.raises(TurtleSyntaxError):
            _parse("a <p> <o> .")


X = "http://x/"
XSD_INT = "http://www.w3.org/2001/XMLSchema#int"

# Where one token ends and the next begins, with every triple written out.
# Each document is parsed after "@prefix ex: <http://x/> .\n".
TOKEN_BOUNDARIES = [
    # Dots end a local name only at its end: one trailing dot ends the statement.
    ("ex:s ex:p ex:a.b.", [Triple(X + "s", X + "p", X + "a.b")]),
    ("ex:s ex:p ex:a.b..c.", [Triple(X + "s", X + "p", X + "a.b..c")]),
    ("ex:s ex:p ex:a.\nex:t ex:p ex:b.", [Triple(X + "s", X + "p", X + "a"),
                                          Triple(X + "t", X + "p", X + "b")]),
    ("ex:s ex:p _:b1.\n_:b1 ex:p ex:o .", [Triple(X + "s", X + "p", "_:b1"),
                                           Triple("_:b1", X + "p", X + "o")]),
    ("_:b.1 ex:p _:b-2.", [Triple("_:b.1", X + "p", "_:b-2")]),
    ("ex:s ex:p +1, -2.5, .5, 7.", [Triple(X + "s", X + "p", Literal(n))
                                    for n in ("+1", "-2.5", ".5", "7")]),
    ("ex:s ex:p 1.5.", [Triple(X + "s", X + "p", Literal("1.5"))]),
    ("@prefix a: <http://a/> .\na:x a a:y .", [Triple("http://a/x", RDF_NS + "type", "http://a/y")]),
    ("@prefix a: <http://a/> .\na:a a a:a.", [Triple("http://a/a", RDF_NS + "type", "http://a/a")]),
    ("PrEfIx e: <http://e/>\nbAsE <http://b/>\ne:s e:p <o> .",
     [Triple("http://e/s", "http://e/p", "http://b/o")]),
    ("ex:s ex:p ex:o . # no newline after this comment", [Triple(X + "s", X + "p", X + "o")]),
    ("ex:s ex:p ex:o .#", [Triple(X + "s", X + "p", X + "o")]),
    ('ex:s ex:p "hi"@en-US, "1"^^<http://www.w3.org/2001/XMLSchema#int>, "2"^^ex:t.',
     [Triple(X + "s", X + "p", Literal("hi", lang="en-US")),
      Triple(X + "s", X + "p", Literal("1", datatype=XSD_INT)),
      Triple(X + "s", X + "p", Literal("2", datatype=X + "t"))]),
    ('<http://x/caf\\u00E9> ex:p "a\\"b\\\\c\\td", \'it\\\'s\'.',
     [Triple(X + "café", X + "p", Literal('a"b\\c\td')),
      Triple(X + "café", X + "p", Literal("it's"))]),
    ("@prefix été: <http://e/> .\nété:naïve été:p ex:Straße .",
     [Triple("http://e/naïve", "http://e/p", X + "Straße")]),
    ('ex:s ex:p ex:o;ex:q"x",<y>;;ex:r ex:z.', [Triple(X + "s", X + "p", X + "o"),
                                               Triple(X + "s", X + "q", Literal("x")),
                                               Triple(X + "s", X + "q", "http://x/y"),
                                               Triple(X + "s", X + "r", X + "z")]),
]


@pytest.mark.parametrize("text, expected", TOKEN_BOUNDARIES, ids=[ascii(r[0]) for r in TOKEN_BOUNDARIES])
def test_token_boundaries(text, expected):
    assert _parse("@prefix ex: <http://x/> .\n" + text) == expected


# Trailing dots that a local name does not take are tokens of their own.
@pytest.mark.parametrize(
    "text, message",
    [
        ("ex:s ex:p ex:a..", "line 2, column 16: expected subject, found '.'"),
        ("ex:s ex:p ex:a. .", "line 2, column 17: expected subject, found '.'"),
        # A number ends at the first letter after its digits.
        ("ex:s ex:p 3abc:x.", "line 2, column 12: expected ';', ',' or '.', found 'abc'"),
    ],
)
def test_token_boundary_errors(text, message):
    with pytest.raises(TurtleSyntaxError) as err:
        _parse("@prefix ex: <http://x/> .\n" + text)
    assert str(err.value) == message


def _assert_triples_or_parse_error(body: bytes) -> None:
    try:
        triples = parse_turtle(body, BASE)
    except RdfParseError:
        return
    assert all(isinstance(t, Triple) for t in triples)


class TestParseContract:
    @given(st.binary(max_size=300) | st.text(max_size=300).map(str.encode))
    def test_arbitrary_bytes(self, body):
        _assert_triples_or_parse_error(body)

    @given(mutants((FIXTURES / "uni8.ttl").read_bytes()))
    def test_mutants_of_a_valid_document(self, body):
        _assert_triples_or_parse_error(body)
