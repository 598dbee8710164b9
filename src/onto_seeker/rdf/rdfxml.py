"""Subset RDF/XML parser.

Supported: an rdf:RDF root, rdf:Description and typed node elements,
rdf:about / rdf:ID / rdf:nodeID / rdf:resource, nested node elements,
literal property values with rdf:datatype and xml:lang, xml:base, and
namespace prefixes. Everything else (parseType, containers, reification,
property attributes, node elements nested more than MAX_NODE_DEPTH deep)
raises UnsupportedConstruct so the caller can count the document as
unparseable instead of silently dropping statements.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from .model import Literal, RDF_NS, RdfParseError, Triple, UnsupportedConstruct, resolve_iri

XML_NS = "http://www.w3.org/XML/1998/namespace"

_RDF_RDF = f"{{{RDF_NS}}}RDF"
_RDF_DESCRIPTION = f"{{{RDF_NS}}}Description"
_RDF_ABOUT = f"{{{RDF_NS}}}about"
_RDF_ID = f"{{{RDF_NS}}}ID"
_RDF_NODEID = f"{{{RDF_NS}}}nodeID"
_RDF_RESOURCE = f"{{{RDF_NS}}}resource"
_RDF_DATATYPE = f"{{{RDF_NS}}}datatype"
_RDF_PARSETYPE = f"{{{RDF_NS}}}parseType"
_XML_BASE = f"{{{XML_NS}}}base"
_XML_LANG = f"{{{XML_NS}}}lang"

_CONTAINER_TAGS = {f"{{{RDF_NS}}}{n}" for n in ("Bag", "Seq", "Alt", "List", "li")}
_REIFICATION_TAGS = {
    f"{{{RDF_NS}}}{n}" for n in ("Statement", "subject", "predicate", "object")
}

# Node elements nested inside property elements are walked recursively, two
# frames per level; the cap keeps a hostile document well inside Python's
# default recursion limit, far deeper than any real ontology nests.
MAX_NODE_DEPTH = 128


class XmlMalformed(RdfParseError):
    pass


def _expand(tag: str) -> str:
    """ElementTree's {ns}local form to a plain IRI."""
    if tag.startswith("{"):
        ns, local = tag[1:].split("}", 1)
        return ns + local
    return tag


def _check_unsupported_tag(tag: str) -> None:
    if not tag.startswith("{"):
        raise UnsupportedConstruct("unqualified element", tag)
    if tag in _CONTAINER_TAGS or tag.startswith(f"{{{RDF_NS}}}_"):
        raise UnsupportedConstruct("containers", _expand(tag))
    if tag in _REIFICATION_TAGS:
        raise UnsupportedConstruct("reification", _expand(tag))


class _Parser:
    def __init__(self):
        self.triples: list[Triple] = []
        self.blank_counter = 0

    def fresh_blank(self) -> str:
        self.blank_counter += 1
        return f"_:genid{self.blank_counter}"

    def node_element(self, el: ET.Element, base: str, lang: str | None, depth: int) -> str:
        if depth > MAX_NODE_DEPTH:
            raise UnsupportedConstruct(
                f"node elements nested more than {MAX_NODE_DEPTH} deep", _expand(el.tag)
            )
        base = resolve_iri(base, el.get(_XML_BASE, ""))
        lang = el.get(_XML_LANG, lang)
        _check_unsupported_tag(el.tag)

        about = el.get(_RDF_ABOUT)
        node_id = el.get(_RDF_ID)
        blank_id = el.get(_RDF_NODEID)
        given = [v for v in (about, node_id, blank_id) if v is not None]
        if len(given) > 1:
            raise XmlMalformed("rdf:about, rdf:ID and rdf:nodeID are mutually exclusive")
        if about is not None:
            subject = resolve_iri(base, about)
        elif node_id is not None:
            subject = resolve_iri(base, "#" + node_id)
        elif blank_id is not None:
            subject = "_:" + blank_id
        else:
            subject = self.fresh_blank()

        for attr in el.attrib:
            if attr in (_RDF_ABOUT, _RDF_ID, _RDF_NODEID, _XML_BASE, _XML_LANG):
                continue
            raise UnsupportedConstruct("property attribute", _expand(attr))

        if el.tag != _RDF_DESCRIPTION:
            self.triples.append(Triple(subject, RDF_NS + "type", _expand(el.tag)))
        for child in el:
            self.property_element(child, subject, base, lang, depth)
        if el.text and el.text.strip():
            raise XmlMalformed(f"unexpected text content in node element {_expand(el.tag)}")
        return subject

    def property_element(
        self, el: ET.Element, subject: str, base: str, lang: str | None, depth: int
    ) -> None:
        base = resolve_iri(base, el.get(_XML_BASE, ""))
        lang = el.get(_XML_LANG, lang)
        _check_unsupported_tag(el.tag)
        predicate = _expand(el.tag)

        if el.get(_RDF_PARSETYPE) is not None:
            raise UnsupportedConstruct(f"rdf:parseType={el.get(_RDF_PARSETYPE)!r}", predicate)
        if el.get(_RDF_ID) is not None:
            raise UnsupportedConstruct("reification", "rdf:ID on a property element")

        resource = el.get(_RDF_RESOURCE)
        blank_ref = el.get(_RDF_NODEID)
        datatype = el.get(_RDF_DATATYPE)
        for attr in el.attrib:
            if attr in (_RDF_RESOURCE, _RDF_NODEID, _RDF_DATATYPE, _XML_BASE, _XML_LANG):
                continue
            raise UnsupportedConstruct("property attribute", _expand(attr))

        children = list(el)
        if resource is not None:
            self.triples.append(Triple(subject, predicate, resolve_iri(base, resource)))
        elif blank_ref is not None:
            self.triples.append(Triple(subject, predicate, "_:" + blank_ref))
        elif children:
            if len(children) > 1:
                raise XmlMalformed(f"more than one node element inside property {predicate}")
            if el.text and el.text.strip():
                raise XmlMalformed(f"mixed text and element content in property {predicate}")
            obj = self.node_element(children[0], base, lang, depth + 1)
            self.triples.append(Triple(subject, predicate, obj))
        else:
            text = el.text or ""
            if datatype is not None:
                obj = Literal(text, datatype=resolve_iri(base, datatype))
            else:
                obj = Literal(text, lang=lang)
            self.triples.append(Triple(subject, predicate, obj))


def parse_rdf_xml(body: bytes, base: str) -> list[Triple]:
    """Parse an rdf:RDF document into triples; relative IRIs resolve against
    xml:base where declared, else ``base`` (normally the document URL)."""
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        line, column = exc.position
        raise XmlMalformed(f"line {line}, column {column}: {exc}") from None
    except (LookupError, ValueError) as exc:
        # The XML declaration names an encoding expat cannot read: unknown,
        # multi-byte (e.g. Shift_JIS) or not a text codec.
        raise XmlMalformed(f"unreadable encoding: {exc}") from None
    if root.tag != _RDF_RDF:
        raise UnsupportedConstruct("document root is not rdf:RDF", str(root.tag))
    parser = _Parser()
    doc_base = resolve_iri(base, root.get(_XML_BASE, ""))
    lang = root.get(_XML_LANG)
    for child in root:
        parser.node_element(child, doc_base, lang, 1)
    return parser.triples
