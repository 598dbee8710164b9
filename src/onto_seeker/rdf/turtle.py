"""Subset Turtle parser.

Supported: @prefix/@base and SPARQL-style PREFIX/BASE, IRIs and prefixed
names, the "a" keyword, ";" predicate lists, "," object lists, labelled
blank nodes, single-line string literals with @lang or ^^datatype, and bare
integers/decimals. Collections ``( )``, anonymous blank nodes ``[ ]`` and
multi-line strings are out of the subset and raise UnsupportedConstruct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .model import Literal, RDF_NS, RdfParseError, Triple, UnsupportedConstruct, resolve_iri


class TurtleSyntaxError(RdfParseError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class UndefinedPrefix(RdfParseError):
    def __init__(self, prefix: str, line: int, col: int):
        self.prefix = prefix
        super().__init__(f"line {line}, column {col}: undefined prefix {prefix + ':'!r}")


@dataclass(frozen=True)
class _Token:
    kind: str  # IRIREF PNAME BLANK STRING NUMBER WORD DIRECTIVE LANGTAG DTYPE PUNCT EOF
    value: str
    pos: int  # offset of the token's first character
    extra: str = ""


_WS = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)+")
_NUMBER = re.compile(r"[+-]?(?:\d+\.\d+|\.\d+|\d+)")
_PNAME = re.compile(r"((?:[^\W\d][\w.\-]*)?):([\w.\-%]*)")
_WORD = re.compile(r"[^\W\d][\w\-]*")
_BLANK = re.compile(r"_:[\w.\-]*")
_LANG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")
# Both stop at the first character that cannot continue the token; the
# character after the match (closing delimiter, newline or none) decides.
_IRIREF = re.compile(r"<([^>\n\r]*)")
_STRING = re.compile(
    r'"[^"\\\n\r]*(?:\\[\s\S][^"\\\n\r]*)*' r"|'[^'\\\n\r]*(?:\\[\s\S][^'\\\n\r]*)*"
)
_IRI_ILLEGAL = re.compile(r'[\x00-\x20"{}|^`]')
# A \u or \U escape takes ASCII hex only; int(x, 16) also takes "+", "_",
# spaces and non-ASCII digits.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_STRING_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


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
        text = self.text
        ws = _WS.match(text, self.pos)
        if ws:
            self.pos = ws.end()
        start = self.pos
        if start >= len(text):
            return _Token("EOF", "", start)
        ch = text[start]

        if ch == "<":
            m = _IRIREF.match(text, start)
            end = m.end()
            if end >= len(text):
                raise self.error("unterminated IRI", start)
            if text[end] != ">":
                raise self.error("newline inside IRI", start)
            raw = m.group(1)
            if _IRI_ILLEGAL.search(raw):
                raise self.error(f"illegal character in IRI <{raw}>", start)
            self.pos = end + 1
            return _Token("IRIREF", self._unescape(raw, start, iri=True), start)
        if ch in "\"'":
            if text[start : start + 3] in ('"""', "'''"):
                raise UnsupportedConstruct("multi-line string", f"line {self.where(start)[0]}")
            end = _STRING.match(text, start).end()
            if end < len(text) and text[end] in "\n\r":
                raise self.error("newline inside string literal", start)
            if end >= len(text) or text[end] != ch:
                raise self.error("unterminated string literal", start)
            self.pos = end + 1
            return _Token("STRING", self._unescape(text[start + 1 : end], start), start)
        if ch == "@":
            self.pos += 1
            word = _LANG.match(text, self.pos)
            if not word:
                raise self.error("expected directive or language tag after '@'", self.pos)
            value = word.group(0)
            self.pos = word.end()
            if value in ("prefix", "base"):
                return _Token("DIRECTIVE", "@" + value, start)
            return _Token("LANGTAG", value, start)
        if ch == "^":
            if text[start : start + 2] == "^^":
                self.pos += 2
                return _Token("DTYPE", "^^", start)
            raise self.error("lone '^' (expected '^^')", start)
        if ch in "([":
            construct = "collection" if ch == "(" else "anonymous blank node"
            line, col = self.where(start)
            raise UnsupportedConstruct(construct, f"line {line}, column {col}")
        if ch in ")]":
            raise self.error(f"unbalanced {ch!r}", start)
        if ch == "_" and text[start : start + 2] == "_:":
            label = _BLANK.match(text, start).group(0).rstrip(".")
            if label == "_:":
                raise self.error("blank node label missing", start)
            self.pos += len(label)
            return _Token("BLANK", label, start)
        num = _NUMBER.match(text, start)
        if num and (ch.isdigit() or (ch in "+-." and len(num.group(0)) > 1)):
            self.pos = num.end()
            return _Token("NUMBER", num.group(0), start)
        if ch in ".;,":
            self.pos += 1
            return _Token("PUNCT", ch, start)
        pname = _PNAME.match(text, start)
        if pname:
            local = pname.group(2)
            trimmed = len(local) - len(local.rstrip("."))
            local = local[: len(local) - trimmed] if trimmed else local
            self.pos = pname.end() - trimmed
            return _Token("PNAME", pname.group(1), start, extra=local)
        word = _WORD.match(text, start)
        if word:
            self.pos = word.end()
            return _Token("WORD", word.group(0), start)
        raise self.error(f"unexpected character {ch!r}", start)

    def _unescape(self, raw: str, pos: int, iri: bool = False) -> str:
        if "\\" not in raw:
            return raw
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
        tok = self.peek()
        self._peeked = None
        return tok

    def expect_punct(self, symbol: str) -> None:
        tok = self.take()
        if tok.kind != "PUNCT" or tok.value != symbol:
            raise self.error(f"expected {symbol!r}, found {tok.value or tok.kind!r}", tok.pos)

    def parse(self) -> list[Triple]:
        while True:
            tok = self.peek()
            if tok.kind == "EOF":
                return self.triples
            if tok.kind == "DIRECTIVE":
                self.take()
                self.directive(tok.value, trailing_dot=True)
            elif tok.kind == "WORD" and tok.value.lower() in ("prefix", "base"):
                self.take()
                self.directive("@" + tok.value.lower(), trailing_dot=False)
            else:
                self.triples_statement()

    def directive(self, which: str, trailing_dot: bool) -> None:
        if which == "@prefix":
            name = self.take()
            if name.kind != "PNAME" or name.extra:
                raise self.error("expected 'prefix:' in prefix declaration", name.pos)
            target = self.take()
            if target.kind != "IRIREF":
                raise self.error("expected IRI in prefix declaration", target.pos)
            self.prefixes[name.value] = resolve_iri(self.base, target.value)
        else:
            target = self.take()
            if target.kind != "IRIREF":
                raise self.error("expected IRI in base declaration", target.pos)
            self.base = resolve_iri(self.base, target.value)
        if trailing_dot:
            self.expect_punct(".")

    def triples_statement(self) -> None:
        subject = self.term(position="subject")
        while True:
            predicate = self.verb()
            while True:
                self.triples.append(Triple(subject, predicate, self.term(position="object")))
                tok = self.peek()
                if tok.kind == "PUNCT" and tok.value == ",":
                    self.take()
                    continue
                break
            tok = self.take()
            if tok.kind == "PUNCT" and tok.value == ";":
                while True:
                    nxt = self.peek()
                    if nxt.kind == "PUNCT" and nxt.value == ";":
                        self.take()
                        continue
                    break
                if nxt.kind == "PUNCT" and nxt.value == ".":
                    self.take()
                    return
                continue
            if tok.kind == "PUNCT" and tok.value == ".":
                return
            raise self.error(f"expected ';', ',' or '.', found {tok.value or tok.kind!r}", tok.pos)

    def verb(self) -> str:
        tok = self.peek()
        if tok.kind == "WORD" and tok.value == "a":
            self.take()
            return RDF_NS + "type"
        return self.iri("predicate")

    def iri(self, position: str) -> str:
        tok = self.take()
        if tok.kind == "IRIREF":
            return resolve_iri(self.base, tok.value)
        if tok.kind == "PNAME":
            if tok.value not in self.prefixes:
                raise UndefinedPrefix(tok.value, *self.where(tok.pos))
            return self.prefixes[tok.value] + tok.extra
        raise self.error(f"expected IRI as {position}, found {tok.value or tok.kind!r}", tok.pos)

    def term(self, position: str) -> str | Literal:
        tok = self.peek()
        if tok.kind == "BLANK":
            self.take()
            return tok.value
        if tok.kind in ("IRIREF", "PNAME"):
            return self.iri(position)
        if position == "object":
            if tok.kind == "STRING":
                self.take()
                return self.literal_tail(tok.value)
            if tok.kind == "NUMBER":
                self.take()
                return Literal(tok.value)
        raise self.error(f"expected {position}, found {tok.value or tok.kind!r}", tok.pos)

    def literal_tail(self, lexical: str) -> Literal:
        tok = self.peek()
        if tok.kind == "LANGTAG":
            self.take()
            return Literal(lexical, lang=tok.value)
        if tok.kind == "DTYPE":
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
