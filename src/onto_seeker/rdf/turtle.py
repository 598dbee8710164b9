"""Subset Turtle parser.

Supported: @prefix/@base and SPARQL-style PREFIX/BASE, IRIs and prefixed
names, the "a" keyword, ";" predicate lists, "," object lists, labelled
blank nodes, single-line string literals with @lang or ^^datatype, and bare
integers/decimals. Collections ``( )``, anonymous blank nodes ``[ ]`` and
multi-line strings are out of the subset and raise UnsupportedConstruct.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .model import Literal, RDF_TYPE, RdfParseError, Triple, UnsupportedConstruct, resolve_iri


class TurtleSyntaxError(RdfParseError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class UndefinedPrefix(RdfParseError):
    def __init__(self, prefix: str, line: int, col: int):
        self.prefix = prefix
        super().__init__(f"line {line}, column {col}: undefined prefix {prefix + ':'!r}")


# A token is a (kind, value, pos, extra) tuple: pos is the offset of its first
# character, and extra is a prefixed name's local part ("" for other kinds).
# Kinds: IRIREF PNAME BLANK STRING NUMBER WORD DIRECTIVE LANGTAG DTYPE PUNCT EOF.
_Token = tuple[str, str, int, str]

# One match reads the whitespace and comments before a token, then the token:
# the first alternative that matches names its kind in ``lastgroup``. Only
# well-formed tokens match. Anywhere else the empty BAD alternative does, and
# _Parser.bad_token raises the error for that spot. A local name or blank node
# label takes no trailing ".", which is left to end the statement.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r'(?:(?P<IRIREF><(?P<iri>[^>\x00-\x20"{}|^`]*)>)'
    r'|(?P<STRING>"(?!"")[^"\\\n\r]*(?:\\[\s\S][^"\\\n\r]*)*"'
    r"|'(?!'')[^'\\\n\r]*(?:\\[\s\S][^'\\\n\r]*)*')"
    r"|(?P<LANG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)"
    r"|(?P<DTYPE>\^\^)"
    r"|(?P<BLANK>_:[\w.\-]*[\w\-])"
    r"|(?P<NUMBER>[+-]?(?:\d+\.\d+|\.\d+|\d+))"
    r"|(?P<PUNCT>[.;,])"
    r"|(?!_:)(?:(?P<PNAME>(?P<prefix>(?:[^\W\d][\w.\-]*+)?):(?P<local>(?:[\w.\-%]*[\w\-%])?))"
    r"|(?P<WORD>[^\W\d][\w\-]*))"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>))"
)
# bad_token's scans of an IRI or string that _TOKEN did not match: each stops
# at the first character that cannot continue it, and the character after
# the match (closing delimiter, line break or none) decides the error.
_IRI_HEAD = re.compile(r"<[^>\n\r]*")
_STRING_HEAD = re.compile(
    r'"[^"\\\n\r]*(?:\\[\s\S][^"\\\n\r]*)*' r"|'[^'\\\n\r]*(?:\\[\s\S][^'\\\n\r]*)*"
)
# A \u or \U escape takes ASCII hex only; int(x, 16) also takes "+", "_",
# spaces and non-ASCII digits.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _is_punct(tok: _Token, symbol: str) -> bool:
    return tok[0] == "PUNCT" and tok[1] == symbol


class _Parser:
    def __init__(self, text: str, base: str):
        self.text = text
        self.pos = 0
        self.base = base
        self.prefixes: dict[str, str] = {}
        self.triples: list[Triple] = []
        self._peeked: _Token | None = None

    def where(self, pos: int) -> tuple[int, int]:
        """1-based line and column of offset ``pos``; only built for errors."""
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def error(self, message: str, pos: int) -> TurtleSyntaxError:
        return TurtleSyntaxError(message, *self.where(pos))

    def next_token(self) -> _Token:
        m = _TOKEN.match(self.text, self.pos)
        kind = m.lastgroup
        start = m.start(kind)
        self.pos = m.end()
        if kind == "PNAME":
            return kind, m["prefix"], start, m["local"]
        if kind == "IRIREF":
            raw = m["iri"]
            return kind, self._unescape(raw, start, iri=True) if "\\" in raw else raw, start, ""
        if kind == "STRING":
            raw = m[kind][1:-1]
            return kind, self._unescape(raw, start) if "\\" in raw else raw, start, ""
        if kind == "LANG":
            word = m[kind]
            if word == "@prefix" or word == "@base":
                return "DIRECTIVE", word, start, ""
            return "LANGTAG", word[1:], start, ""
        if kind == "BAD":
            self.bad_token(start)
        return kind, m[kind], start, ""

    def bad_token(self, start: int) -> NoReturn:
        """Raise the error for ``start``, where no well-formed token begins."""
        text = self.text
        ch = text[start]
        if ch == "<":
            end = _IRI_HEAD.match(text, start).end()
            if end >= len(text):
                raise self.error("unterminated IRI", start)
            if text[end] != ">":
                raise self.error("newline inside IRI", start)
            raise self.error(f"illegal character in IRI <{text[start + 1 : end]}>", start)
        if ch in "\"'":
            if text[start : start + 3] in ('"""', "'''"):
                raise UnsupportedConstruct("multi-line string", f"line {self.where(start)[0]}")
            end = _STRING_HEAD.match(text, start).end()
            if end < len(text) and text[end] in "\n\r":
                raise self.error("newline inside string literal", start)
            raise self.error("unterminated string literal", start)
        if ch == "@":
            raise self.error("expected directive or language tag after '@'", start + 1)
        if ch == "^":
            raise self.error("lone '^' (expected '^^')", start)
        if ch in "([":
            construct = "collection" if ch == "(" else "anonymous blank node"
            line, col = self.where(start)
            raise UnsupportedConstruct(construct, f"line {line}, column {col}")
        if ch in ")]":
            raise self.error(f"unbalanced {ch!r}", start)
        if text.startswith("_:", start):
            raise self.error("blank node label missing", start)
        raise self.error(f"unexpected character {ch!r}", start)

    def _unescape(self, raw: str, pos: int, iri: bool = False) -> str:
        out: list[str] = []
        i = 0
        while i < len(raw):
            c = raw[i]
            if c != "\\":
                out.append(c)
                i += 1
                continue
            if i + 1 >= len(raw):
                raise self.error("dangling backslash", pos)
            esc = raw[i + 1]
            if esc in ("u", "U"):
                width = 4 if esc == "u" else 8
                digits = raw[i + 2 : i + 2 + width]
                if len(digits) != width or not _HEX_DIGITS.issuperset(digits):
                    raise self.error(f"bad \\{esc} escape", pos)
                try:
                    char = chr(int(digits, 16))
                    char.encode("utf-8")  # a surrogate has no UTF-8 form to index
                except ValueError:
                    raise self.error(f"bad \\{esc} escape", pos) from None
                out.append(char)
                i += 2 + width
            elif not iri and esc in _STRING_ESCAPES:
                out.append(_STRING_ESCAPES[esc])
                i += 2
            else:
                raise self.error(f"unknown escape \\{esc}", pos)
        return "".join(out)

    def peek(self) -> _Token:
        if self._peeked is None:
            self._peeked = self.next_token()
        return self._peeked

    def take(self) -> _Token:
        tok = self._peeked
        if tok is None:
            return self.next_token()
        self._peeked = None
        return tok

    def found(self, message: str, tok: _Token) -> TurtleSyntaxError:
        """``message``, then the token found instead, at that token."""
        kind, value, pos, _ = tok
        return self.error(f"{message}, found {value or kind!r}", pos)

    def expect_punct(self, symbol: str) -> None:
        tok = self.take()
        if not _is_punct(tok, symbol):
            raise self.found(f"expected {symbol!r}", tok)

    def parse(self) -> list[Triple]:
        while True:
            kind, value, _, _ = self.peek()
            if kind == "EOF":
                return self.triples
            if kind == "DIRECTIVE":
                self.take()
                self.directive(value, trailing_dot=True)
            elif kind == "WORD" and value.lower() in ("prefix", "base"):
                self.take()
                self.directive("@" + value.lower(), trailing_dot=False)
            else:
                self.triples_statement()

    def directive(self, which: str, trailing_dot: bool) -> None:
        if which == "@prefix":
            kind, prefix, pos, local = self.take()
            if kind != "PNAME" or local:
                raise self.error("expected 'prefix:' in prefix declaration", pos)
            kind, iri, pos, _ = self.take()
            if kind != "IRIREF":
                raise self.error("expected IRI in prefix declaration", pos)
            self.prefixes[prefix] = resolve_iri(self.base, iri)
        else:
            kind, iri, pos, _ = self.take()
            if kind != "IRIREF":
                raise self.error("expected IRI in base declaration", pos)
            self.base = resolve_iri(self.base, iri)
        if trailing_dot:
            self.expect_punct(".")

    def triples_statement(self) -> None:
        append = self.triples.append
        subject = self.term("subject")
        while True:
            predicate = self.verb()
            while True:
                append(Triple(subject, predicate, self.term("object")))
                tok = self.take()
                if not _is_punct(tok, ","):
                    break
            if _is_punct(tok, ";"):
                while _is_punct(self.peek(), ";"):
                    self.take()
                if _is_punct(self.peek(), "."):
                    self.take()
                    return
                continue
            if _is_punct(tok, "."):
                return
            raise self.found("expected ';', ',' or '.'", tok)

    def verb(self) -> str:
        kind, value, _, _ = self.peek()
        if kind == "WORD" and value == "a":
            self.take()
            return RDF_TYPE
        return self.iri("predicate")

    def iri(self, position: str) -> str:
        tok = self.take()
        kind, value, pos, local = tok
        if kind == "IRIREF":
            return resolve_iri(self.base, value)
        if kind == "PNAME":
            namespace = self.prefixes.get(value)
            if namespace is None:
                raise UndefinedPrefix(value, *self.where(pos))
            return namespace + local
        raise self.found(f"expected IRI as {position}", tok)

    def term(self, position: str) -> str | Literal:
        tok = self.peek()
        kind, value, _, _ = tok
        if kind == "BLANK":
            self.take()
            return value
        if kind == "IRIREF" or kind == "PNAME":
            return self.iri(position)
        if position == "object":
            if kind == "STRING":
                self.take()
                return self.literal_tail(value)
            if kind == "NUMBER":
                self.take()
                return Literal(value)
        raise self.found(f"expected {position}", tok)

    def literal_tail(self, lexical: str) -> Literal:
        kind, value, _, _ = self.peek()
        if kind == "LANGTAG":
            self.take()
            return Literal(lexical, lang=value)
        if kind == "DTYPE":
            self.take()
            return Literal(lexical, datatype=self.iri("datatype"))
        return Literal(lexical)


def parse_turtle(body: bytes, base: str) -> list[Triple]:
    """Parse subset Turtle into triples; relative IRIs resolve against @base
    declarations, else ``base`` (normally the document URL)."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TurtleSyntaxError(f"not valid UTF-8: {exc}", 0, 0) from None
    return _Parser(text, base).parse()
