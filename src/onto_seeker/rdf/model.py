"""Triple data model, syntax detection, and term extraction.

Blank nodes are written as ``_:label`` strings; anything else in subject or
object position is an IRI string, and literals get their own type. Predicates
are always IRIs.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass

from ..errors import OntoSeekerError

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RESERVED_NAMESPACES = frozenset({RDF_NS, RDFS_NS, OWL_NS, XSD_NS})

RDF_TYPE = RDF_NS + "type"
CLASS_TYPES = frozenset({OWL_NS + "Class", RDFS_NS + "Class"})
PROPERTY_TYPES = frozenset(
    {
        OWL_NS + "ObjectProperty",
        OWL_NS + "DatatypeProperty",
        OWL_NS + "AnnotationProperty",
        RDF_NS + "Property",
    }
)
SCHEMA_AXIOMS = frozenset(
    {
        RDFS_NS + "subClassOf",
        RDFS_NS + "subPropertyOf",
        RDFS_NS + "domain",
        RDFS_NS + "range",
    }
)

RDF_XML = "rdf-xml"
TURTLE = "turtle"
UNSUPPORTED = "unsupported"

RDF_XML_MEDIA_TYPES = frozenset({"application/rdf+xml"})
TURTLE_MEDIA_TYPES = frozenset({"text/turtle", "application/x-turtle"})


class RdfParseError(OntoSeekerError):
    """Base for all parse failures; a document yields triples or one of these."""


class InvalidIri(RdfParseError):
    """An IRI that cannot be resolved against its base (e.g. ``http://[x``)."""


class UnsupportedConstruct(RdfParseError):
    """Input is in a supported syntax but uses a construct outside the subset."""

    def __init__(self, construct: str, detail: str = ""):
        self.construct = construct
        super().__init__(f"unsupported construct: {construct}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str | None = None
    lang: str | None = None


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    predicate: str
    object: str | Literal


def is_iri(node: str | Literal) -> bool:
    return isinstance(node, str) and not node.startswith("_:")


@dataclass(frozen=True)
class OntologySummary:
    url: str
    classes: frozenset[str]
    properties: frozenset[str]
    relations: frozenset[str]
    triple_count: int = 0
    byte_size: int = 0

    def is_empty(self) -> bool:
        """True when no term yields a search token (e.g. only a class named
        "_"), so the index would hold no posting for the document."""
        return not any(
            tokenize(term)
            for terms in (self.classes, self.properties, self.relations)
            for term in terms
        )


# RFC 3986 appendix B with the scheme grammar of section 3.1, so "1x:P" is a
# path: scheme, authority, path, query and fragment, None where absent.
IRI_PARTS = re.compile(
    r"(?:([A-Za-z][A-Za-z0-9+.-]*):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.S
)
_IP_FUTURE = re.compile(r"v[0-9A-Fa-f]+\..+")
_FIRST_SEGMENT = re.compile(r"/?[^/]*")


def resolve_iri(base: str, ref: str) -> str:
    """``ref`` resolved against ``base`` as Turtle (section 6.3) asks: by RFC
    3986 section 5.2, strict (``http:g`` keeps its scheme), with an empty
    query kept, dot segments removed and no normalisation, composed by
    section 5.3. An empty ref is the base as it is. InvalidIri for a
    bracketed host that is not an IPv6 or IPvFuture literal."""
    if not ref:
        return base
    scheme, authority, path, query, fragment = IRI_PARTS.fullmatch(ref).groups()
    if scheme is None and authority is None:
        scheme, authority, base_path, base_query, _ = IRI_PARTS.fullmatch(base).groups()
        path, query = merge_reference(base_path, base_query, authority is not None, path, query)
    else:
        dotless = remove_dot_segments(path)
        if scheme is not None and dotless == path and not _bad_ip_literal(authority or ""):
            return ref  # section 5.3 composes the parts of ref back into ref
        scheme, path = scheme or IRI_PARTS.fullmatch(base)[1], dotless
    if authority is not None:
        if _bad_ip_literal(authority):
            raise InvalidIri(f"cannot resolve {ref!r} against {base!r}: bad host {authority!r}")
        path = f"//{authority}{path}"
    iri = path if scheme is None else f"{scheme}:{path}"
    if query is not None:
        iri = f"{iri}?{query}"
    return iri if fragment is None else f"{iri}#{fragment}"


def _bad_ip_literal(authority: str) -> bool:
    """Whether ``authority`` holds a bracket but no IPv6 or IPvFuture literal in brackets."""
    if "[" not in authority or "]" not in authority:
        return "[" in authority or "]" in authority
    host = authority.partition("[")[2].partition("]")[0]
    if host.startswith("v"):
        return not _IP_FUTURE.fullmatch(host)
    try:
        ipaddress.IPv6Address(host)
    except ValueError:
        return True
    return False


def merge_reference(
    base_path: str, base_query: str | None, base_has_authority: bool, path: str, query: str | None
) -> tuple[str, str | None]:
    """Section 5.2.2's path and query for a reference with no scheme and no authority."""
    if not path:
        return base_path, base_query if query is None else query
    if path[0] != "/":  # section 5.2.3: after the base's last "/", or the root of an empty path
        path = (base_path[: base_path.rfind("/") + 1] or ("/" if base_has_authority else "")) + path
    return remove_dot_segments(path), query


def remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4, step by step; at once for a path with no dot segment."""
    if "/." not in path and path[:1] != ".":
        return path
    out: list[str] = []
    while path:
        if path.startswith(("../", "./")):  # A
            path = path[path.index("/") + 1 :]
        elif path.startswith("/./") or path == "/.":  # B
            path = "/" + path[3:]
        elif path.startswith("/../") or path == "/..":  # C
            path = "/" + path[4:]
            del out[-1:]
        elif path in (".", ".."):  # D
            path = ""
        else:  # E
            segment = _FIRST_SEGMENT.match(path)[0]
            out.append(segment)
            path = path[len(segment) :]
    return "".join(out)


def local_name(iri: str) -> str:
    """Human-readable suffix: after the last '#', else last '/', else the IRI itself."""
    for sep in ("#", "/"):
        if sep in iri:
            tail = iri.rsplit(sep, 1)[1]
            return tail if tail else iri
    return iri


def tokenize(term: str) -> list[str]:
    """Split a local name into lowercase search tokens.

    Splits at '_', '-', '.', whitespace (the index's TSV files cannot hold a
    TAB or a line break in a token), camelCase transitions (acronym runs stay
    whole: "HTTPServer" gives "http"/"server", "ISBN10" gives "isbn"/"10"),
    and letter/digit boundaries. Empty fragments are dropped; order is kept.
    """
    tokens: list[str] = []
    buf: list[str] = []

    def flush() -> None:
        if buf:
            tokens.append("".join(buf).lower())
            buf.clear()

    for i, ch in enumerate(term):
        if ch in "._-" or ch.isspace():
            flush()
            continue
        if buf:
            last = buf[-1]
            if (last.isalpha() and ch.isdigit()) or (last.isdigit() and ch.isalpha()):
                flush()
            elif last.islower() and ch.isupper():
                flush()
            elif (
                last.isupper()
                and ch.isupper()
                and i + 1 < len(term)
                and term[i + 1].islower()
            ):
                flush()
        buf.append(ch)
    flush()
    return tokens


def extract_summary(triples: list[Triple], url: str, byte_size: int) -> OntologySummary:
    """Distill one document's triples into class/property/relation term sets.

    Relations are the local names of non-reserved predicates actually used,
    plus IRI objects of subClassOf/subPropertyOf/domain/range axioms. Blank
    nodes have no name and never contribute; neither do literals.
    """
    classes: set[str] = set()
    properties: set[str] = set()
    relations: set[str] = set()
    for t in triples:
        if t.predicate == RDF_TYPE and is_iri(t.subject) and isinstance(t.object, str):
            if t.object in CLASS_TYPES:
                classes.add(local_name(t.subject))
            elif t.object in PROPERTY_TYPES:
                properties.add(local_name(t.subject))
        # The namespace is what precedes the local name: '' when that is the whole IRI.
        name = local_name(t.predicate)
        if t.predicate[: len(t.predicate) - len(name)] not in RESERVED_NAMESPACES:
            relations.add(name)
        if t.predicate in SCHEMA_AXIOMS and is_iri(t.object):
            relations.add(local_name(t.object))
    return OntologySummary(
        url=url,
        classes=frozenset(classes),
        properties=frozenset(properties),
        relations=frozenset(relations),
        triple_count=len(triples),
        byte_size=byte_size,
    )


_XML_PREAMBLE = re.compile(rb"\s*(<\?xml[^>]*\?>\s*)?(<!--.*?-->\s*)*(<!DOCTYPE[^>]*>\s*)?", re.DOTALL)
_FIRST_TAG = re.compile(rb"<([A-Za-z_][\w.-]*:)?([\w.-]+)((?:[^>\"']|\"[^\"]*\"|'[^']*')*)>?")
_XMLNS_ATTR = re.compile(rb"xmlns(?::([\w.-]+))?\s*=\s*(\"[^\"]*\"|'[^']*')")
_TURTLE_LEAD = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(@prefix|@base|prefix\s|base\s)", re.IGNORECASE)


def _sniff_rdf_xml(body: bytes) -> bool:
    m = _XML_PREAMBLE.match(body)
    rest = body[m.end():] if m else body
    tag = _FIRST_TAG.match(rest)
    if not tag:
        return False
    prefix = (tag.group(1) or b"").rstrip(b":").decode("ascii", "replace")
    name = tag.group(2).decode("ascii", "replace")
    if name != "RDF":
        return False
    attrs = tag.group(3) or b""
    for am in _XMLNS_ATTR.finditer(attrs):
        declared = (am.group(1) or b"").decode("ascii", "replace")
        value = am.group(2)[1:-1].decode("ascii", "replace")
        if declared == prefix and value == RDF_NS:
            return True
    return False


def detect_syntax(body: bytes, content_type: str | None = None) -> str:
    """Decide which parser applies; the declared media type wins over sniffing."""
    if content_type in RDF_XML_MEDIA_TYPES:
        return RDF_XML
    if content_type in TURTLE_MEDIA_TYPES:
        return TURTLE
    if _sniff_rdf_xml(body):
        return RDF_XML
    if _TURTLE_LEAD.match(body):
        return TURTLE
    return UNSUPPORTED
