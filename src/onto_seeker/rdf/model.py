"""Triple data model, syntax detection, and term extraction.

Blank nodes are written as ``_:label`` strings; anything else in subject or
object position is an IRI string, and literals get their own type. Predicates
are always IRIs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from urllib.parse import urljoin

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


# A plain absolute IRI, which urljoin returns as it is: a lower-case,
# letter-led scheme and "//", a host of [a-z0-9._~-], then a path, query and
# fragment of unreserved characters, sub-delims, ":", "@", "/" and "%". The
# path may not end in ";" (urlparse would read an empty params and drop it),
# and a "?" needs a non-empty query (urlunsplit drops an empty one).
_IRI_CHAR = r"[-\w.~!$&'()*+,;=:@/%]"
_PLAIN_IRI = re.compile(
    rf"[a-z][a-z0-9+.-]*://[a-z0-9._~-]+(?:/{_IRI_CHAR}*)?(?<!;)"
    rf"(?:\?{_IRI_CHAR}+)?(?:#{_IRI_CHAR}*)?",
    re.ASCII,
)

# RFC 3986 appendix B: scheme, authority, path, query and fragment, each None
# where its delimiter is absent.
_IRI_PARTS = re.compile(r"(?:([^:/?#]+):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?", re.S)
# A relative reference: no ":" before its first "/", "?" or "#" (section 4.2).
_RELATIVE_REF = re.compile(r"[^:/?#]*(?:[/?#]|\Z)")
_FIRST_SEGMENT = re.compile(r"/?[^/]*")


def resolve_iri(base: str, ref: str) -> str:
    """urljoin that keeps a bare trailing '#' (urljoin drops empty fragments,
    which would corrupt namespace IRIs like ...rdf-syntax-ns#), and keeps a
    ';' that ends the base's path for a ref that starts with '#' or '?'
    (urlparse reads that ';' as empty params, which urlunparse drops; RFC
    3986 section 5.2.2 keeps the base's path whole). Against a base whose
    scheme urljoin does not resolve against (``urn:``, ``tag:``), which
    gives a relative ref back bare, the ref resolves by RFC 3986 section
    5.2.2: a path is merged with the base's and its dot segments removed.

    An empty ref is the base and a plain absolute ref is itself, as urljoin
    gives them, so neither goes through urljoin. That holds for any base
    urlsplit takes, and the parsers pass only such bases: ``str()`` of a
    netfetch ``Url``, or an earlier ``resolve_iri`` result.
    """
    if not ref:
        return base
    if _PLAIN_IRI.fullmatch(ref):
        return ref
    try:
        out = urljoin(base, ref)
    except ValueError as exc:
        raise InvalidIri(f"cannot resolve {ref!r} against {base!r}: {exc}") from None
    if out == ref and base and _RELATIVE_REF.match(ref):
        return _resolve_reference(base, ref)  # urljoin does not resolve against the base's scheme
    if ref[0] in "#?":
        # The base up to its query or fragment; urljoin gives it back less the
        # ';' (and with a lower-case scheme) when it dropped that ';'.
        head = base.split("#", 1)[0].split("?", 1)[0]
        cut = len(head) - 1
        if (
            head.endswith(";")
            and out[cut : cut + 1] in ("", "?", "#")
            and out[:cut].lower() == head[:cut].lower()
        ):
            out = out[:cut] + ";" + out[cut:]
    if ref.endswith("#") and not out.endswith("#"):
        out += "#"
    return out


def _resolve_reference(base: str, ref: str) -> str:
    """RFC 3986 section 5.2.2 for a relative ``ref``, recomposed by section 5.3."""
    scheme, authority, path, query, _fragment = _IRI_PARTS.fullmatch(base).groups()
    _scheme, ref_authority, ref_path, ref_query, fragment = _IRI_PARTS.fullmatch(ref).groups()
    if ref_authority is not None:
        authority, path, query = ref_authority, _remove_dot_segments(ref_path), ref_query
    elif ref_path:
        if not ref_path.startswith("/"):  # section 5.2.3: merge with the base's path
            if authority is not None and not path:
                ref_path = "/" + ref_path
            else:
                ref_path = path[: path.rfind("/") + 1] + ref_path
        path, query = _remove_dot_segments(ref_path), ref_query
    elif ref_query is not None:
        query = ref_query
    return "".join((
        "" if scheme is None else scheme + ":",
        "" if authority is None else "//" + authority,
        path,
        "" if query is None else "?" + query,
        "" if fragment is None else "#" + fragment,
    ))


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4, step by step."""
    out: list[str] = []
    while path:
        if path.startswith(("../", "./")):  # A
            path = path[path.index("/") + 1 :]
        elif path.startswith("/./") or path == "/.":  # B
            path = "/" + path[3:]
        elif path.startswith("/../") or path == "/..":  # C
            path = "/" + path[4:]
            if out:
                out.pop()
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
