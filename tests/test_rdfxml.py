from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FIXTURES, mutants, nested_rdf_xml
from onto_seeker.rdf import (
    OWL_NS,
    RDF_NS,
    InvalidIri,
    Literal,
    RdfParseError,
    Triple,
    UnsupportedConstruct,
    XmlMalformed,
    parse_rdf_xml,
)
from onto_seeker.rdf.rdfxml import MAX_NODE_DEPTH

BASE = "http://x/o.owl"
RDF_DECL = 'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
OWL_DECL = 'xmlns:owl="http://www.w3.org/2002/07/owl#"'
EX_DECL = 'xmlns:ex="http://x/o.owl#"'


def _doc(inner: str, extra_attrs: str = "") -> bytes:
    return f'<rdf:RDF {RDF_DECL} {OWL_DECL} {EX_DECL} {extra_attrs}>{inner}</rdf:RDF>'.encode()


class TestParseRdfXml:
    def test_description_with_type_resource(self):
        body = _doc(
            '<rdf:Description rdf:about="#A">'
            '<rdf:type rdf:resource="http://www.w3.org/2002/07/owl#Class"/>'
            "</rdf:Description>"
        )
        assert parse_rdf_xml(body, BASE) == [
            Triple("http://x/o.owl#A", RDF_NS + "type", OWL_NS + "Class")
        ]

    def test_typed_node_expands_to_type_triple(self):
        body = _doc('<owl:Class rdf:about="#A"/>')
        assert parse_rdf_xml(body, BASE) == [
            Triple("http://x/o.owl#A", RDF_NS + "type", OWL_NS + "Class")
        ]

    def test_empty_document(self):
        assert parse_rdf_xml(f"<rdf:RDF {RDF_DECL}/>".encode(), BASE) == []

    def test_rdf_id_resolves_as_fragment(self):
        body = _doc('<rdf:Description rdf:ID="A"><ex:p rdf:resource="#B"/></rdf:Description>')
        assert parse_rdf_xml(body, BASE) == [
            Triple("http://x/o.owl#A", "http://x/o.owl#p", "http://x/o.owl#B")
        ]

    def test_node_id_makes_blank_subject(self):
        body = _doc('<rdf:Description rdf:nodeID="b1"><ex:p rdf:resource="#B"/></rdf:Description>')
        assert parse_rdf_xml(body, BASE)[0].subject == "_:b1"

    def test_node_id_object(self):
        body = _doc('<rdf:Description rdf:about="#A"><ex:p rdf:nodeID="b2"/></rdf:Description>')
        assert parse_rdf_xml(body, BASE)[0].object == "_:b2"

    def test_anonymous_node_gets_fresh_blank(self):
        body = _doc(
            '<rdf:Description rdf:about="#A"><ex:p><rdf:Description><ex:q rdf:resource="#B"/>'
            "</rdf:Description></ex:p></rdf:Description>"
        )
        triples = parse_rdf_xml(body, BASE)
        nested, outer = triples
        assert outer.object == nested.subject
        assert nested.subject.startswith("_:genid")

    def test_nested_node_emitted_depth_first(self):
        body = _doc(
            '<rdf:Description rdf:about="#A"><ex:p>'
            '<owl:Thing rdf:about="#B"/>'
            "</ex:p></rdf:Description>"
        )
        triples = parse_rdf_xml(body, BASE)
        assert triples == [
            Triple("http://x/o.owl#B", RDF_NS + "type", OWL_NS + "Thing"),
            Triple("http://x/o.owl#A", "http://x/o.owl#p", "http://x/o.owl#B"),
        ]

    def test_plain_literal(self):
        body = _doc('<rdf:Description rdf:about="#A"><ex:name>Ada</ex:name></rdf:Description>')
        assert parse_rdf_xml(body, BASE)[0].object == Literal("Ada")

    def test_datatyped_literal(self):
        body = _doc(
            '<rdf:Description rdf:about="#A">'
            '<ex:age rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">22</ex:age>'
            "</rdf:Description>"
        )
        obj = parse_rdf_xml(body, BASE)[0].object
        assert obj == Literal("22", datatype="http://www.w3.org/2001/XMLSchema#integer")

    def test_xml_lang_inherited(self):
        body = _doc(
            '<rdf:Description rdf:about="#A" xml:lang="en"><ex:name>Ada</ex:name></rdf:Description>'
        )
        assert parse_rdf_xml(body, BASE)[0].object == Literal("Ada", lang="en")

    def test_datatype_beats_lang(self):
        body = _doc(
            '<rdf:Description rdf:about="#A" xml:lang="en">'
            '<ex:age rdf:datatype="http://www.w3.org/2001/XMLSchema#int">1</ex:age>'
            "</rdf:Description>"
        )
        assert parse_rdf_xml(body, BASE)[0].object == Literal("1", datatype="http://www.w3.org/2001/XMLSchema#int")

    def test_empty_literal(self):
        body = _doc('<rdf:Description rdf:about="#A"><ex:name/></rdf:Description>')
        assert parse_rdf_xml(body, BASE)[0].object == Literal("")

    def test_xml_base_scopes_resolution(self):
        body = _doc(
            '<rdf:Description rdf:about="#A" xml:base="http://other.example/base">'
            '<ex:p rdf:resource="#B"/></rdf:Description>'
        )
        triple = parse_rdf_xml(body, BASE)[0]
        assert triple.subject == "http://other.example/base#A"
        assert triple.object == "http://other.example/base#B"

    def test_malformed_xml_reports_position(self):
        with pytest.raises(XmlMalformed) as err:
            parse_rdf_xml(b"<rdf:RDF <<<", BASE)
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_root_must_be_rdf(self):
        with pytest.raises(UnsupportedConstruct):
            parse_rdf_xml(f'<owl:Ontology {OWL_DECL}/>'.encode(), BASE)

    def test_parse_type_unsupported_and_named(self):
        body = _doc(
            '<rdf:Description rdf:about="#A"><ex:p rdf:parseType="Collection"/></rdf:Description>'
        )
        with pytest.raises(UnsupportedConstruct) as err:
            parse_rdf_xml(body, BASE)
        assert "parseType" in str(err.value)

    @pytest.mark.parametrize("tag", ["rdf:Bag", "rdf:Seq", "rdf:Alt"])
    def test_containers_unsupported(self, tag):
        body = _doc(f'<{tag} rdf:about="#A"/>')
        with pytest.raises(UnsupportedConstruct) as err:
            parse_rdf_xml(body, BASE)
        assert "containers" in str(err.value)

    def test_li_unsupported(self):
        body = _doc('<rdf:Description rdf:about="#A"><rdf:li rdf:resource="#B"/></rdf:Description>')
        with pytest.raises(UnsupportedConstruct):
            parse_rdf_xml(body, BASE)

    def test_reification_unsupported(self):
        body = _doc('<rdf:Statement rdf:about="#s"/>')
        with pytest.raises(UnsupportedConstruct) as err:
            parse_rdf_xml(body, BASE)
        assert "reification" in str(err.value)

    def test_property_attributes_unsupported(self):
        body = _doc('<rdf:Description rdf:about="#A" ex:name="Ada"/>')
        with pytest.raises(UnsupportedConstruct) as err:
            parse_rdf_xml(body, BASE)
        assert "property attribute" in str(err.value)

    @pytest.mark.parametrize(
        "inner, error, message",
        [
            ('<Thing rdf:about="#A"/>', UnsupportedConstruct,
             "unsupported construct: unqualified element (Thing)"),
            ('<rdf:Description rdf:about="#A"><p rdf:resource="#B"/></rdf:Description>',
             UnsupportedConstruct, "unsupported construct: unqualified element (p)"),
            ('<rdf:Description rdf:about="#A" name="Ada"/>', UnsupportedConstruct,
             "unsupported construct: property attribute (name)"),
            ('<rdf:Description rdf:about="#A">text</rdf:Description>', XmlMalformed,
             f"unexpected text content in node element {RDF_NS}Description"),
            ('<rdf:Description rdf:about="#A"><ex:p rdf:ID="s">v</ex:p></rdf:Description>',
             UnsupportedConstruct,
             "unsupported construct: reification (rdf:ID on a property element)"),
            ('<rdf:Description rdf:about="#A"><ex:p ex:q="v" rdf:resource="#B"/>'
             "</rdf:Description>",
             UnsupportedConstruct, "unsupported construct: property attribute (http://x/o.owl#q)"),
            ('<rdf:Description rdf:about="#A"><ex:p>text<rdf:Description rdf:about="#B"/>'
             "</ex:p></rdf:Description>",
             XmlMalformed, "mixed text and element content in property http://x/o.owl#p"),
        ],
        ids=["unqualified-node", "unqualified-property", "unqualified-attribute",
             "text-in-node", "id-on-property", "attribute-on-property", "mixed-content"],
    )
    def test_construct_outside_the_subset_named(self, inner, error, message):
        with pytest.raises(error) as err:
            parse_rdf_xml(_doc(inner), BASE)
        assert str(err.value) == message

    def test_about_and_id_conflict(self):
        body = _doc('<rdf:Description rdf:about="#A" rdf:ID="A"/>')
        with pytest.raises(XmlMalformed):
            parse_rdf_xml(body, BASE)

    def test_two_children_in_property_malformed(self):
        body = _doc(
            '<rdf:Description rdf:about="#A"><ex:p>'
            '<rdf:Description rdf:about="#B"/><rdf:Description rdf:about="#C"/>'
            "</ex:p></rdf:Description>"
        )
        with pytest.raises(XmlMalformed):
            parse_rdf_xml(body, BASE)

    def test_multiple_properties_document_order(self):
        body = _doc(
            '<rdf:Description rdf:about="#A">'
            '<ex:first rdf:resource="#B"/><ex:second rdf:resource="#C"/>'
            "</rdf:Description>"
        )
        predicates = [t.predicate for t in parse_rdf_xml(body, BASE)]
        assert predicates == ["http://x/o.owl#first", "http://x/o.owl#second"]

    def test_nesting_at_the_cap_parses(self):
        triples = parse_rdf_xml(nested_rdf_xml(MAX_NODE_DEPTH), BASE)
        assert len(triples) == MAX_NODE_DEPTH
        assert Triple("http://x/o.owl#Leaf", RDF_NS + "type", OWL_NS + "Class") in triples

    @pytest.mark.parametrize("depth", [MAX_NODE_DEPTH + 1, 1500])
    def test_nesting_past_the_cap_unsupported(self, depth):
        with pytest.raises(UnsupportedConstruct) as err:
            parse_rdf_xml(nested_rdf_xml(depth), BASE)
        assert f"nested more than {MAX_NODE_DEPTH} deep" in str(err.value)

    def test_unjoinable_about_is_a_parse_error(self):
        with pytest.raises(InvalidIri):
            parse_rdf_xml(_doc('<owl:Class rdf:about="http://[x"/>'), BASE)

    @pytest.mark.parametrize("encoding", ["bogus", "shift_jis", "rot13"])
    def test_unreadable_declared_encoding_malformed(self, encoding):
        body = f'<?xml version="1.0" encoding="{encoding}"?>'.encode() + _doc("")
        with pytest.raises(XmlMalformed):
            parse_rdf_xml(body, BASE)


def _assert_triples_or_parse_error(body: bytes) -> None:
    try:
        triples = parse_rdf_xml(body, BASE)
    except RdfParseError:
        return
    assert all(isinstance(t, Triple) for t in triples)


class TestParseContract:
    @given(st.binary(max_size=300) | st.text(max_size=300).map(str.encode))
    def test_arbitrary_bytes(self, body):
        _assert_triples_or_parse_error(body)

    @given(mutants((FIXTURES / "uni8.rdf").read_bytes()))
    def test_mutants_of_a_valid_document(self, body):
        _assert_triples_or_parse_error(body)
