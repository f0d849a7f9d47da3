"""Parsing and canonical serialization of GMT XML."""

from __future__ import annotations

import gc
import importlib
import random
import weakref
from collections import Counter
from typing import Optional
from xml.parsers import expat

import pytest

from gmtannot import (
    AltSet,
    Bracket,
    Feature,
    GmtDocument,
    GmtParseError,
    GmtSerializeError,
    IdTargets,
    LandmarkEndpoints,
    PositionalSpan,
    Relation,
    SegmentRef,
    StructNode,
    FOLD_TO_ALT,
    KEEP_ALL,
    MergePolicy,
    default_registry,
    merge,
    parse_gmt,
    serialize_gmt,
    validate_categories,
    validate_structure,
)
from gmtannot.model import replace
from conftest import FIXTURES, assert_same_text, load_fixture
from path_oracle import walk_elements
from randgen import (
    deep_chain_text,
    deep_feature_text,
    deep_segless_text,
    random_document,
    random_markup,
    random_mergeable_document,
)


# ---------------------------------------------------------------------------
# parsing the shipped fixtures


def test_parse_sentence_fixture():
    doc, diagnostics = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert diagnostics.warnings == ()
    assert doc.doc_type == "MSAnnot"
    assert len(doc.root.children) == 4
    second = doc.root.children[1]
    assert second.items == (
        Feature(cat="lemma", text="aimer"),
        Feature(cat="pos", text="VERB"),
        Feature(cat="tense", text="present"),
        Feature(cat="person", text="3"),
        SegmentRef(IdTargets(("w2",))),
    )


def test_parse_empty_root():
    doc, diagnostics = parse_gmt('<struct type="MSAnnot"/>')
    assert diagnostics.warnings == ()
    assert doc.doc_type == "MSAnnot"
    assert doc.root == StructNode(type="MSAnnot")


def test_parse_fusion_fixture():
    doc, _ = parse_gmt(load_fixture("msannot_fusion_du.xml"))
    root = doc.root
    assert root.type == "W-level"
    assert root.items == (SegmentRef(IdTargets(("w1",))),)
    assert [child.type for child in root.children] == ["W-level", "W-level"]
    assert root.children[0].items == (
        Feature(cat="lemma", text="de"),
        Feature(cat="pos", text="PREP"),
    )
    assert root.children[1].items == (
        Feature(cat="lemma", text="le"),
        Feature(cat="pos", text="DET"),
    )


def test_parse_alternatives_merge_into_one_set():
    doc, _ = parse_gmt(load_fixture("msannot_alternatives_bouche.xml"))
    alts = [i for i in doc.root.items if isinstance(i, AltSet)]
    assert len(alts) == 1
    assert len(alts[0].alternatives) == 2


@pytest.mark.parametrize("between", ['<rel type="dep"/>', "<meta><x/></meta>"])
def test_an_element_between_alternatives_ends_the_run_even_when_it_builds_nothing(between):
    doc, _ = parse_gmt(
        f'<struct><alt><feat type="a">1</feat></alt><alt><feat type="a">2</feat></alt>{between}'
        '<alt><feat type="a">3</feat></alt><alt><feat type="a">4</feat></alt></struct>'
    )
    alts = [item for item in doc.root.items if isinstance(item, AltSet)]
    assert [[bundle[0].text for bundle in alt.alternatives] for alt in alts] == [["1", "2"], ["3", "4"]]


# ---------------------------------------------------------------------------
# surface variants and leniency


def test_positional_attribute_spellings_are_synonyms():
    a, _ = parse_gmt('<struct><seg startsAt="2300" endsAt="3200"/></struct>')
    b, _ = parse_gmt('<struct><seg startPosition="2300" endPosition="3200"/></struct>')
    assert a.root.items == b.root.items == (SegmentRef(PositionalSpan(2300, 3200)),)


def test_target_accepts_fragment_and_bare_forms():
    a, _ = parse_gmt('<struct><seg target="#w1"/></struct>')
    b, _ = parse_gmt('<struct><seg target="w1"/></struct>')
    assert a.root.items == b.root.items == (SegmentRef(IdTargets(("w1",))),)


def test_uppercase_id_attribute_accepted():
    doc, _ = parse_gmt('<struct type="W-level" ID="w9"/>')
    assert doc.root.id == "w9"


def test_mixed_seg_addressing_is_an_error():
    with pytest.raises(GmtParseError):
        parse_gmt('<struct><seg target="#w1" startsAt="0" endsAt="5"/></struct>')


def test_incomplete_positional_span_is_an_error():
    with pytest.raises(GmtParseError):
        parse_gmt('<struct><seg startsAt="10"/></struct>')


def test_negative_offset_is_an_error():
    with pytest.raises(GmtParseError):
        parse_gmt('<struct><seg startsAt="-1" endsAt="5"/></struct>')


def test_malformed_xml_reports_position():
    with pytest.raises(GmtParseError) as exc:
        parse_gmt("<struct><feat></struct>")
    assert exc.value.line == 1
    assert exc.value.column is not None


def test_non_struct_root_rejected():
    with pytest.raises(GmtParseError):
        parse_gmt("<annotation/>")


def test_unknown_leaf_element_becomes_feature():
    doc, diagnostics = parse_gmt("<struct><position>2360</position></struct>")
    assert doc.root.items == (Feature(cat="position", text="2360"),)
    assert diagnostics.warnings == ()


def test_unknown_element_with_children_is_skipped_with_warning():
    doc, diagnostics = parse_gmt("<struct><meta><struct id='x'/></meta></struct>")
    assert doc.root.items == ()
    assert doc.root.children == ()
    assert len(diagnostics.warnings) == 1
    assert "meta" in diagnostics.warnings[0].message
    assert diagnostics.warnings[0].line == 1


def test_landmark_endpoint_elements_pair_into_one_seg():
    doc, diagnostics = parse_gmt(
        '<struct type="phone"><startsAt target="#0"/><endsAt target="#1"/></struct>'
    )
    assert diagnostics.warnings == ()
    assert doc.root.items == (SegmentRef(LandmarkEndpoints("0", "1")),)


def test_unpaired_endpoint_warns_and_drops():
    doc, diagnostics = parse_gmt('<struct><startsAt target="#0"/></struct>')
    assert doc.root.items == ()
    assert len(diagnostics.warnings) == 1


def test_seg_with_element_content_lifts_to_parent():
    doc, diagnostics = parse_gmt(
        '<struct type="W-level">'
        '<seg target="#w3"><feat type="lemma">de</feat><struct type="W-level" id="a"/></seg>'
        "</struct>"
    )
    root = doc.root
    assert root.items == (
        SegmentRef(IdTargets(("w3",))),
        Feature(cat="lemma", text="de"),
    )
    assert [child.id for child in root.children] == ["a"]
    assert any("seg" in w.message for w in diagnostics.warnings)


@pytest.mark.parametrize(
    "text, items",
    [
        ('<struct><meta><brack><seg target="#a"><feat type="x">1</feat></seg></brack></meta></struct>', ()),
        ('<struct><meta><brack><brack><struct id="x"/></brack></brack></meta></struct>', ()),
        (
            '<struct><alt/><alt><meta><brack><seg target="#a"><feat type="x">1</feat></seg></brack></meta></alt></struct>',
            (AltSet(((), ())),),
        ),
    ],
    ids=["seg-content", "bracketed-node", "across-an-alt"],
)
def test_content_lifted_inside_an_unknown_element_is_dropped_with_it(text, items):
    doc, diagnostics = parse_gmt(text)
    assert doc.root == StructNode(items=items)
    assert "unknown element <meta>; skipped" in [w.message for w in diagnostics.warnings]


def test_feature_text_is_end_trimmed_only():
    doc, _ = parse_gmt('<struct><feat type="lemma">\n    pomme_de_terre</feat></struct>')
    assert doc.root.items == (Feature(cat="lemma", text="pomme_de_terre"),)
    doc, _ = parse_gmt("<struct><feat type='lemma'>New  York </feat></struct>")
    assert doc.root.items[0].text == "New  York"


LONG_TEXT = "".join(str(k % 10) for k in range(12000))  # longer than expat's 8 KiB text buffer

TEXT_ROWS = [
    ("comment", '<struct><feat type="x">a<!-- c -->b</feat></struct>', (Feature(cat="x", text="ab"),), []),
    ("processing-instruction", '<struct><feat type="x">a<?pi data?>b</feat></struct>',
     (Feature(cat="x", text="ab"),), []),
    ("cdata", '<struct><feat type="x"><![CDATA[a<b]]></feat></struct>', (Feature(cat="x", text="a<b"),), []),
    ("around-a-skipped-child", '<struct><feat type="x">a<seg target="#a"/>b</feat></struct>',
     (Feature(cat="x", text="ab"),), [(1, 25, "<feat> cannot contain <seg>; element skipped")]),
    ("inside-a-skipped-child", '<struct><feat type="x">a<seg target="#a">z<q>z</q>z</seg>b</feat></struct>',
     (Feature(cat="x", text="ab"),), [(1, 25, "<feat> cannot contain <seg>; element skipped")]),
    ("between-children", '<struct><feat type="x">1</feat> x <feat type="y">2</feat></struct>',
     (Feature(cat="x", text="1"), Feature(cat="y", text="2")),
     [(1, 1, "<struct> mixes text with child elements; text ignored")]),
    ("blank-between-children", '<struct>\n  <feat type="x">1</feat>\n\t<feat type="y">2</feat>\n</struct>',
     (Feature(cat="x", text="1"), Feature(cat="y", text="2")), []),
    ("after-the-last-child", '<struct><feat type="x">1</feat>\n tail </struct>',
     (Feature(cat="x", text="1"),), [(1, 1, "<struct> mixes text with child elements; text ignored")]),
    ("longer-than-the-text-buffer", f'<struct><feat type="x">{LONG_TEXT}</feat></struct>',
     (Feature(cat="x", text=LONG_TEXT),), []),
    ("skipped-entity", '<!DOCTYPE struct SYSTEM "gmt.dtd">\n<struct><feat type="x">a&e;b</feat></struct>',
     (Feature(cat="x", text="ab"),), [(2, 25, "entity 'e' not expanded (no declaration read); read as empty")]),
    ("unknown-leaf-split-by-a-comment", "<struct><pos>NO<!-- c -->UN</pos></struct>",
     (Feature(cat="pos", text="NOUN"),), []),
]


@pytest.mark.parametrize("text, items, warnings", [row[1:] for row in TEXT_ROWS], ids=[row[0] for row in TEXT_ROWS])
def test_reader_text_handling(text, items, warnings):
    doc, diagnostics = parse_gmt(text)
    assert doc.root.items == items
    assert list(diagnostics.warnings) == warnings


def test_entities_round_trip():
    doc, _ = parse_gmt('<struct><feat type="note">a &amp; b &lt; c</feat></struct>')
    assert doc.root.items[0].text == "a & b < c"
    text = serialize_gmt(doc)
    again, _ = parse_gmt(text)
    assert again == doc


# ---------------------------------------------------------------------------
# every warning the reader emits, pinned by message, line and column
#
# Warning order is not part of the contract, so each row compares sorted lists.

WARNING_ROWS = [
    ("rel-cannot-contain", '<struct><rel target="#a"><feat type="x">1</feat></rel></struct>',
     [(1, 26, "<rel> cannot contain <feat>; element skipped")]),
    ("endpoint-cannot-contain", '<struct><startsAt target="#a"><x/></startsAt><endsAt target="#b"/></struct>',
     [(1, 31, "<startsAt> cannot contain <x>; element skipped")]),
    ("feat-cannot-contain", '<struct><feat type="x"><seg target="#a"/></feat></struct>',
     [(1, 24, "<feat> cannot contain <seg>; element skipped")]),
    ("alt-cannot-contain", '<struct><alt><rel target="#a"/></alt><alt/></struct>',
     [(1, 14, "<alt> cannot contain <rel>; element skipped")]),
    ("mixed-text", '<struct><feat type="x">a<feat type="y">b</feat></feat></struct>',
     [(1, 9, "<feat> mixes text with child elements; text ignored")]),
    ("struct-stray-text", "<struct>hello</struct>", [(1, 1, "<struct> contains stray text; ignored")]),
    ("struct-unknown-attribute", '<struct foo="1"/>', [(1, 1, "unknown attribute 'foo' on <struct>; ignored")]),
    ("struct-attribute-and-child", '<struct foo="1"><feat>x</feat></struct>',
     [(1, 1, "unknown attribute 'foo' on <struct>; ignored"), (1, 17, "<feat> without a type attribute")]),
    ("id-and-ID", '<struct id="a" ID="b"/>', [(1, 1, "both 'id' and 'ID' given; 'id' wins")]),
    ("feat-without-type", "<struct><feat>x</feat></struct>", [(1, 9, "<feat> without a type attribute")]),
    ("feat-unknown-attribute", '<struct><feat type="x" lang="fr">x</feat></struct>',
     [(1, 9, "unknown attribute 'lang' on <feat>; ignored")]),
    ("feat-target-and-text", '<struct><feat type="x" target="#a">x</feat></struct>',
     [(1, 9, "<feat> carries both a target and text; text ignored")]),
    ("alt-stray-text", "<struct><alt>x</alt><alt/></struct>", [(1, 9, "<alt> contains stray text; ignored")]),
    ("alt-outside-a-node", "<struct><meta><alt/></meta></struct>",
     [(1, 9, "unknown element <meta>; skipped"), (1, 15, "<alt> outside a node; ignored")]),
    ("rel-without-target", '<struct><rel type="dep"/></struct>', [(1, 9, "<rel> without a target; skipped")]),
    ("seg-unexpected-position", '<struct><seg target="#a"><seg target="#b"/></seg></struct>',
     [(1, 26, "<seg> in an unexpected position; ignored")]),
    ("seg-element-content", '<struct><seg target="#a"><feat type="x">1</feat></seg></struct>',
     [(1, 9, "<seg> with element content; content attached to the enclosing node")]),
    ("seg-element-content-in-unknown",
     '<struct><meta><brack><seg target="#a"><feat type="x">1</feat></seg></brack></meta></struct>',
     [(1, 9, "unknown element <meta>; skipped"),
      (1, 22, "<seg> with element content; content dropped with unknown <meta>")]),
    ("brack-stray-text", "<struct><brack>x</brack></struct>", [(1, 9, "<brack> contains stray text; ignored")]),
    ("brack-groups-nodes", "<struct><brack><struct/></brack></struct>",
     [(1, 9, "<brack> cannot group nodes; nodes attached to the enclosing node")]),
    ("brack-groups-nodes-in-unknown", "<struct><meta><brack><struct/></brack></meta></struct>",
     [(1, 9, "unknown element <meta>; skipped"),
      (1, 15, "<brack> cannot group nodes; nodes dropped with unknown <meta>")]),
    ("brack-groups-nodes-in-nested-brack", "<struct><brack><brack><struct/></brack></brack></struct>",
     [(1, 16, "<brack> cannot group nodes; nodes attached to the enclosing node")]),
    ("endpoint-unexpected-position", '<struct><seg target="#a"><startsAt target="#0"/></seg></struct>',
     [(1, 26, "<startsAt> in an unexpected position; ignored")]),
    ("unknown-element", "<struct><meta><x/></meta></struct>", [(1, 9, "unknown element <meta>; skipped")]),
    ("endsAt-unpaired", '<struct><endsAt target="#1"/></struct>',
     [(1, 9, "<endsAt> without a matching <startsAt>; dropped")]),
    ("startsAt-unpaired", '<struct><startsAt target="#0"/></struct>',
     [(1, 9, "<startsAt> without a matching <endsAt>; dropped")]),
    ("seg-unknown-attribute", '<struct><seg target="#a" lang="fr"/></struct>',
     [(1, 9, "unknown attribute 'lang' on <seg>; ignored")]),
    ("seg-without-addressing", "<struct><seg/></struct>", [(1, 9, "<seg> without any addressing")]),
    ("positional-synonyms", '<struct><seg startsAt="1" startPosition="2" endsAt="3"/></struct>',
     [(1, 9, "both 'startsAt' and 'startPosition' given; 'startsAt' wins")]),
    ("external-entity", '<!DOCTYPE struct [<!ENTITY e SYSTEM "e.txt">]>\n<struct><feat type="x">&e;</feat></struct>',
     [(2, 24, "external entity 'e' (system id 'e.txt') not fetched; read as empty")]),
    ("skipped-entity", '<!DOCTYPE struct SYSTEM "gmt.dtd">\n<struct><feat type="x">&e;</feat></struct>',
     [(2, 24, "entity 'e' not expanded (no declaration read); read as empty")]),
    ("rel-unknown-attribute", '<struct><rel target="#a" lang="fr"/></struct>',
     [(1, 9, "unknown attribute 'lang' on <rel>; ignored")]),
    ("alt-unknown-attribute", '<struct><alt n="1"/><alt/></struct>', [(1, 9, "unknown attribute 'n' on <alt>; ignored")]),
    ("brack-unknown-attribute", '<struct><brack n="1"/></struct>', [(1, 9, "unknown attribute 'n' on <brack>; ignored")]),
    ("startsAt-unknown-attribute", '<struct><startsAt target="#0" n="1"/><endsAt target="#1"/></struct>',
     [(1, 9, "unknown attribute 'n' on <startsAt>; ignored")]),
    ("endsAt-unknown-attribute", '<struct><startsAt target="#0"/><endsAt target="#1" n="1"/></struct>',
     [(1, 32, "unknown attribute 'n' on <endsAt>; ignored")]),
]


@pytest.mark.parametrize("text, expected", [row[1:] for row in WARNING_ROWS], ids=[row[0] for row in WARNING_ROWS])
def test_reader_warnings(text, expected):
    _, diagnostics = parse_gmt(text)
    assert sorted(diagnostics.warnings) == expected


def _start_tag_places(text: str) -> list[tuple[int, int]]:
    """expat's own 1-based (line, column) at each start tag, in document order."""
    parser = expat.ParserCreate()
    places: list[tuple[int, int]] = []
    parser.StartElementHandler = lambda tag, attrs: places.append(
        (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1))
    parser.Parse(text, True)
    return places


# Documents in which every element carries an unknown attribute, so each warns once, at its start tag.
POSITION_ROWS = [
    ("crlf", '<struct x="1">\r\n  <feat type="a" x="1">v</feat>\r\n  <feat type="b" x="1">w</feat>\r\n</struct>'),
    ("lone-cr", '<struct x="1">\r  <feat type="a" x="1">v</feat>\r\r<feat type="b" x="1">w</feat>\r</struct>'),
    ("mixed-line-ends", '<struct x="1">\r\n<feat type="a" x="1">v</feat>\r<feat type="b" x="1">w</feat>\n'
                        '<feat type="c" x="1">u</feat>\n\r<feat type="d" x="1">t</feat></struct>'),
    ("bom", '\ufeff<struct x="1"><feat type="a" x="1">v</feat>\n<feat type="b" x="1">w</feat></struct>'),
    ("astral-combining-tabs", '<struct x="1">\t<feat type="\U0001F600" x="1">é\U0001F600\U00010348</feat>'
                              '\t\t<feat type="á" x="1">\U0001F600</feat>\n\t<feat type="b" x="1">é</feat></struct>'),
    ("multi-line-start-tags", '<struct\n  x="1">\n  <feat\r\n    type="a"\r    x="1">v</feat><feat type="b"\n x="1"\n>w</feat>'
                              '\n</struct>'),
    ("internal-entity", '<!DOCTYPE struct [<!ENTITY e "<feat type=\'a\' x=\'1\'>v</feat>\n<feat type=\'b\' x=\'1\'>w</feat>">\n'
                        '<!ENTITY f "&e;<feat type=\'c\' x=\'1\'>u</feat>">]>\n<struct x="é">\n  &e;\n  &f;<feat type="d" x="1">t</feat>'
                        '</struct>'),
    ("declared-latin-1", '<?xml version="1.0" encoding="ISO-8859-1"?>\n<struct x="é"> <feat type="ü" x="1">éè'
                         '</feat><feat type="b" x="ÿ">ß</feat>\n</struct>'),
    ("one-line-5000", '<struct x="1">' + '<feat type="a" x="é">é\U0001F600</feat>' * 5000 + '</struct>'),
]


@pytest.mark.parametrize("text", [row[1] for row in POSITION_ROWS], ids=[row[0] for row in POSITION_ROWS])
def test_warning_positions_are_expats_own(text):
    # The reader keeps a byte index per element and turns them into lines and columns after the parse:
    # columns count characters, and CRLF and a lone CR each end one line, as expat counts them.
    _, diagnostics = parse_gmt(text)
    assert all(w.message.startswith("unknown attribute 'x' on <") for w in diagnostics.warnings)
    assert [(w.line, w.column) for w in diagnostics.warnings] == _start_tag_places(text)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_empty_document_is_self_closed():
    text = serialize_gmt(GmtDocument(StructNode(type="MSAnnot")))
    assert text == '<?xml version="1.0" encoding="UTF-8"?>\n<struct type="MSAnnot"/>\n'


def test_serialize_refuses_invalid_document():
    doc = GmtDocument(StructNode(items=(Feature(cat="lemma"),)))
    with pytest.raises(GmtSerializeError) as exc:
        serialize_gmt(doc)
    assert "FEATURE_NO_VALUE" in str(exc.value)


@pytest.mark.parametrize(
    "feature, code",
    [
        (Feature(cat="lemma", text="chat", nested=()), "FEATURE_MULTIPLE_VALUES"),
        (Feature(cat="lemma", nested=()), "FEATURE_NO_VALUE"),
    ],
)
def test_serialize_refuses_an_empty_nested_value(feature, code):
    # Written out, an empty nested value would reparse as text=''.
    doc = GmtDocument(StructNode(type="W-level", items=(feature,)))
    with pytest.raises(GmtSerializeError) as exc:
        serialize_gmt(doc)
    assert code in str(exc.value)


def test_serialize_untyped_root_round_trips():
    doc = GmtDocument(StructNode())
    text = serialize_gmt(doc)
    assert text == '<?xml version="1.0" encoding="UTF-8"?>\n<struct/>\n'
    again, _ = parse_gmt(text)
    assert again == doc
    assert again.doc_type == ""


def test_canonical_attribute_order_and_pointer_forms():
    node = StructNode(
        type="W-level",
        id="a",
        ref="b",
        items=(
            SegmentRef(IdTargets(("w1",))),
            SegmentRef(IdTargets(("w2", "w3"))),
        ),
    )
    text = serialize_gmt(GmtDocument(node))
    assert '<struct type="W-level" id="a" ref="#b">' in text
    assert '<seg target="#w1"/>' in text
    assert '<seg targets="w2 w3"/>' in text


def test_compound_fixture_round_trips():
    original = load_fixture("msannot_compound_pomme.xml")
    doc, _ = parse_gmt(original)
    assert serialize_gmt(doc) == original
    again, _ = parse_gmt(serialize_gmt(doc))
    assert again == doc


def test_alt_inside_bracket_round_trips():
    node = StructNode(
        items=(
            Bracket(
                members=(
                    Feature(cat="note", text="first"),
                    AltSet(
                        alternatives=(
                            (Feature(cat="pos", text="NOUN"),),
                            (Feature(cat="pos", text="VERB"),),
                        )
                    ),
                    SegmentRef(LandmarkEndpoints("0", "1")),
                )
            ),
        )
    )
    doc = GmtDocument(node)
    again, _ = parse_gmt(serialize_gmt(doc))
    assert again == doc


@pytest.mark.parametrize("value", ["a\nb", "a\tb", "a\rb", "a\r\nb", "x\n\ty"])
def test_tab_newline_and_carriage_return_round_trip(value):
    node = StructNode(
        type=value,
        id=value,
        ref=value,
        items=(
            Feature(cat=value, text=value),
            Feature(cat="note", target=value),
            Relation(target=value, rel_type=value),
            SegmentRef(IdTargets((value,))),
            SegmentRef(LandmarkEndpoints(value, value)),
            AltSet(((Feature(cat=value, text="x"),), (Feature(cat="pos", text=value),))),
        ),
    )
    doc = GmtDocument(node)
    text = serialize_gmt(doc)
    assert "&#" in text
    again, diagnostics = parse_gmt(text)
    assert again == doc
    assert diagnostics.warnings == ()
    assert serialize_gmt(again) == text


@pytest.mark.parametrize("target", ["x y", "", "#a", " w1 ", "a\tb"])
def test_a_single_target_round_trips_whatever_its_spelling(target):
    doc = GmtDocument(StructNode(items=(SegmentRef(IdTargets((target,))),)))
    again, _ = parse_gmt(serialize_gmt(doc))
    assert again == doc


@pytest.mark.parametrize(
    "char, in_text, in_attr",
    [
        ("&", "&amp;", "&amp;"),
        ("<", "&lt;", "&lt;"),
        (">", "&gt;", "&gt;"),
        ('"', '"', "&quot;"),
        ("\t", "\t", "&#9;"),
        ("\n", "\n", "&#10;"),
        ("\r", "&#13;", "&#13;"),
    ],
    ids=["amp", "lt", "gt", "quot", "tab", "lf", "cr"],
)
def test_each_escaped_character_in_text_and_attribute(char, in_text, in_attr):
    doc = GmtDocument(StructNode(type="W-level", items=(Feature(cat=f"a{char}b", text=f"x{char}y"),)))
    text = serialize_gmt(doc)
    assert text == (
        '<?xml version="1.0" encoding="UTF-8"?>\n<struct type="W-level">\n'
        f'  <feat type="a{in_attr}b">x{in_text}y</feat>\n</struct>\n'
    )
    again, diagnostics = parse_gmt(text)
    assert again == doc
    assert diagnostics.warnings == ()


# Every fixture the writer reproduces byte for byte: all GMT fixtures but the
# landmark description, which is not in canonical layout.
CANONICAL_FIXTURES = sorted(
    p.name for p in FIXTURES.glob("*.xml") if p.name not in ("annotation_graph.xml", "landmark_desc.xml")
)


@pytest.mark.parametrize("name", CANONICAL_FIXTURES)
def test_canonical_fixture_serializes_to_its_own_bytes(name):
    data = (FIXTURES / name).read_bytes()
    doc, _ = parse_gmt(data.decode("utf-8"))
    assert serialize_gmt(doc).encode("utf-8") == data
    assert len(CANONICAL_FIXTURES) == 8


# One element breaking each rule of validate_structure.  The node of
# DUPLICATE_ID repeats the id of a node placed first in every document.
PLANTED = {
    "FEATURE_MULTIPLE_VALUES": Feature(cat="lemma", text="chat", target="w1"),
    "FEATURE_NO_VALUE": Feature(cat="lemma"),
    "BAD_CONFIDENCE": Feature(cat="confidence", text="1.5"),
    "EMPTY_ID": StructNode(type="W-level", id=""),
    "DUPLICATE_ID": StructNode(type="W-level", id="dup"),
    "SINGLETON_ALT": AltSet(((Feature(cat="pos", text="NOUN"),),)),
    "EMPTY_TARGET": Relation(target=""),
    "EMPTY_TARGETS": SegmentRef(IdTargets(())),
    "DUPLICATE_TARGET": SegmentRef(IdTargets(("w1", "w1"))),
    "BAD_TARGET": SegmentRef(IdTargets(("w1", "w 2"))),
    "NEGATIVE_OFFSET": SegmentRef(PositionalSpan(-1, 3)),
    "INVERTED_SPAN": SegmentRef(PositionalSpan(5, 3)),
}
SIBLINGS = (Feature(cat="pos", text="NOUN"), SegmentRef(IdTargets(("w1", "w2"))), Relation(target="n1"))


def _host(bad, place: str) -> Optional[StructNode]:
    """A node holding ``bad`` after valid siblings, in the given place; None where it cannot stand."""
    if place == "after-siblings":
        if isinstance(bad, StructNode):
            return StructNode(type="phrase", items=SIBLINGS, children=(StructNode(type="W-level", items=SIBLINGS), bad))
        return StructNode(type="W-level", items=SIBLINGS + (bad,))
    if place == "bundle":
        member = bad if isinstance(bad, (Feature, StructNode)) else StructNode(type="W-level", items=(bad,))
        alts = AltSet(((Feature(cat="pos", text="NOUN"),), (Feature(cat="pos", text="VERB"), member)))
        return StructNode(type="W-level", items=SIBLINGS + (alts,))
    if place == "bracket" and not isinstance(bad, StructNode):
        return StructNode(type="W-level", items=SIBLINGS + (Bracket((Feature(cat="note", text="x"), bad)),))
    if place == "nested-feature" and isinstance(bad, Feature):
        nested = Feature(cat="pos", nested=(Feature(cat="g", text="x"), bad))
        return StructNode(type="W-level", items=SIBLINGS + (nested,))
    return None


PLACES = [
    (code, place)
    for code in PLANTED
    for place in ("after-siblings", "bundle", "bracket", "nested-feature")
    if _host(PLANTED[code], place) is not None
]


@pytest.mark.parametrize("code, place", PLACES, ids=[f"{c}-{p}" for c, p in PLACES])
def test_writer_refuses_exactly_what_validate_structure_rejects(code, place):
    rng = random.Random(f"{code}-{place}")
    for _ in range(20):
        root = random_document(rng).root
        children = (StructNode(type="W-level", id="dup"),) + root.children + (_host(PLANTED[code], place),)
        doc = GmtDocument(StructNode(type=root.type, children=children))
        errors = validate_structure(doc).errors
        # A confidence out of [0, 1] is an error only as a bundle member.
        assert (code in {e.code for e in errors}) == (code != "BAD_CONFIDENCE" or place == "bundle")
        if not errors:
            again, _ = parse_gmt(serialize_gmt(doc))
            assert again == doc
            continue
        with pytest.raises(GmtSerializeError) as exc:
            serialize_gmt(doc)
        first = errors[0]
        assert str(exc.value) == f"invalid document: {first.code} at {first.path}: {first.message}"


def test_round_trip_500_random_documents():
    rng = random.Random(42)
    for _ in range(500):
        doc = random_document(rng)
        text = serialize_gmt(doc)
        again, diagnostics = parse_gmt(text)
        assert again == doc
        assert diagnostics.warnings == ()
        assert serialize_gmt(again) == text


def _lemma_doc(text: str) -> GmtDocument:
    return GmtDocument(StructNode(type="MSAnnot", items=(Feature(cat="lemma", text=text),)))


_NOUN, _VERB, _ADJ, _DET = ((Feature(cat="pos", text=pos),) for pos in ("NOUN", "VERB", "ADJ", "DET"))
_NUM, _LEMMA = Feature(cat="num", text="sg"), Feature(cat="lemma", text="x")
_WORD = StructNode(type="W-level", items=_NOUN)


def _wrap(*items) -> GmtDocument:
    return GmtDocument(StructNode(type="MSAnnot", items=items))


# Documents that validate_structure accepts but that do not come back from their own bytes, each with what
# the round trip raises today and why (ROADMAP item 2).
ROUND_TRIP_GAPS = [
    ("adjacent-alt-sets", GmtDocument(StructNode(type="MSAnnot", items=(AltSet((_NOUN, _VERB)), AltSet((_ADJ, _DET))))),
     AssertionError, "two adjacent alternative sets are read back as one 4-way set"),
    ("blank-edged-text", _lemma_doc(" x "), AssertionError, "the reader trims the text that the writer wrote"),
    ("control-character", _lemma_doc("a\x01b"), GmtParseError, "the writer emits a character that XML 1.0 forbids"),
    ("lone-surrogate", _lemma_doc("a\ud800"), UnicodeEncodeError, "the writer emits a lone surrogate"),
    ("node-in-nested-feature", _wrap(Feature(cat="agr", nested=(_NUM, _WORD))), AssertionError,
     "the reader skips a <struct> inside a <feat>"),
    ("relation-in-nested-feature", _wrap(Feature(cat="agr", nested=(_NUM, Relation("n1")))), AssertionError,
     "the reader skips a <rel> inside a <feat>"),
    ("relation-in-bundle", _wrap(AltSet((_NOUN + (Relation("n1"),), _VERB))), AssertionError,
     "the reader skips a <rel> inside an <alt>"),
    ("node-in-bracket", _wrap(Bracket((_LEMMA, _WORD))), AssertionError,
     "the reader moves a <struct> out of a <brack> into the node's children"),
    ("node-in-items", _wrap(_LEMMA, _WORD), AssertionError, "the reader reads a <struct> as a child, not an item"),
    ("feature-in-children", GmtDocument(StructNode(type="MSAnnot", children=(_WORD, _LEMMA))), AssertionError,
     "the reader reads a <feat> as an item, not a child"),
]


def test_the_round_trip_gaps_are_valid_documents():
    assert [validate_structure(doc).errors for _, doc, _, _ in ROUND_TRIP_GAPS] == [()] * len(ROUND_TRIP_GAPS)


@pytest.mark.parametrize("doc", [
    pytest.param(doc, id=name, marks=pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item 2: {why}"))
    for name, doc, raises, why in ROUND_TRIP_GAPS
])
def test_a_valid_document_round_trips_through_its_utf8_bytes(doc):
    again, _ = parse_gmt(serialize_gmt(doc).encode("utf-8").decode("utf-8"))
    assert again == doc


def test_random_markup_is_read_or_refused_and_valid_documents_round_trip():
    rng = random.Random(2009)
    valid = 0
    for _ in range(3000):
        text = random_markup(rng)
        try:
            doc, _ = parse_gmt(text)
        except GmtParseError:
            continue
        errors = validate_structure(doc).errors
        if not errors:
            valid += 1
            again, _ = parse_gmt(serialize_gmt(doc))
            assert again == doc, text
            continue
        with pytest.raises(GmtSerializeError) as exc:
            serialize_gmt(doc)
        assert str(exc.value) == f"invalid document: {errors[0].code} at {errors[0].path}: {errors[0].message}"
    assert valid > 1000


# ---------------------------------------------------------------------------
# external entities


@pytest.mark.parametrize(
    "doctype, message",
    [
        (
            '<!DOCTYPE struct [<!ENTITY ext SYSTEM "file:///etc/hostname">]>',
            "external entity 'ext' (system id 'file:///etc/hostname') not fetched; read as empty",
        ),
        ('<!DOCTYPE struct SYSTEM "gmt.dtd">', "entity 'ext' not expanded (no declaration read); read as empty"),
        (
            '<!DOCTYPE struct [<!ENTITY % p SYSTEM "p.ent"> %p; <!ENTITY ext "x">]>',
            "entity 'ext' not expanded (no declaration read); read as empty",
        ),
    ],
    ids=["external", "external-dtd-subset", "after-parameter-entity"],
)
def test_external_entity_warns_and_reads_as_empty(doctype, message):
    doc, diagnostics = parse_gmt(f'{doctype}\n<struct><feat type="lemma">&ext;</feat></struct>')
    assert doc.root.items == (Feature(cat="lemma", text=""),)
    assert diagnostics.warnings == ((2, 28, message),)


# ---------------------------------------------------------------------------
# a parsed document is freed by reference counting


@pytest.fixture
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_parsed_document_dies_with_its_last_reference(gc_disabled):
    doc, _ = parse_gmt(load_fixture("msannot_compound_pomme.xml"))
    root = weakref.ref(doc.root)
    del doc
    assert root() is None


@pytest.mark.parametrize(
    "text",
    [
        load_fixture("msannot_sentence.xml"),
        "<struct><feat></struct>",  # malformed XML
        '<struct><feat type="pos">N</feat><seg target="#w1" startsAt="0" endsAt="5"/></struct>',
    ],
    ids=["valid", "malformed", "mixed-addressing"],
)
def test_parse_leaves_no_cyclic_garbage(gc_disabled, text):
    try:
        parse_gmt(text)
    except GmtParseError:
        pass
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# equal leaf features are shared within a parse, invisibly

SHARED_TEXT = """<?xml version="1.0" encoding="UTF-8"?>
<struct type="MSAnnot">
  <struct type="W-level" id="w1">
    <feat type="pos">NOUN</feat>
    <feat type="colour">red</feat>
    <feat type="agr">
      <feat type="num">sg</feat>
    </feat>
  </struct>
  <struct type="W-level" id="w2">
    <feat type="pos">NOUN</feat>
    <feat type="colour">red</feat>
    <feat type="agr">
      <feat type="num">sg</feat>
    </feat>
  </struct>
</struct>
"""


def _hand_built_shared_document() -> GmtDocument:
    def word(node_id):
        return StructNode(
            type="W-level",
            id=node_id,
            items=(
                Feature(cat="pos", text="NOUN"),
                Feature(cat="colour", text="red"),
                Feature(cat="agr", nested=(Feature(cat="num", text="sg"),)),
            ),
        )

    return GmtDocument(StructNode(type="MSAnnot", children=(word("w1"), word("w2"))))


def test_shared_leaf_features_are_invisible():
    doc, diagnostics = parse_gmt(SHARED_TEXT)
    first, second = doc.root.children
    assert diagnostics.warnings == ()
    assert first.items[0] is second.items[0]  # the sharing happens
    hand = _hand_built_shared_document()
    assert hand.root.children[0].items[0] is not hand.root.children[1].items[0]
    assert doc == hand and hash(doc) == hash(hand)
    assert serialize_gmt(doc) == serialize_gmt(hand) == SHARED_TEXT


def test_shared_leaf_features_get_one_finding_each():
    doc, _ = parse_gmt(SHARED_TEXT)
    findings = validate_categories(doc, default_registry()).findings
    assert findings == validate_categories(_hand_built_shared_document(), default_registry()).findings
    assert [(f.code, f.path) for f in findings] == [
        ("UNKNOWN_CATEGORY", f"/struct[1]/struct[{w}]/{path}")
        for w in (1, 2)
        for path in ("feat[2]", "feat[3]", "feat[3]/feat[1]")
    ]


def test_nested_features_keep_their_own_identity_as_owners():
    doc, _ = parse_gmt(SHARED_TEXT)
    outer = [w.items[2] for w in doc.root.children]
    assert outer[0] is not outer[1]
    assert outer[0].nested[0] is outer[1].nested[0]
    owners = [owner for _, owner, element in walk_elements(doc) if getattr(element, "cat", None) == "num"]
    assert owners[0] is outer[0] and owners[1] is outer[1]


# ---------------------------------------------------------------------------
# leaf elements (<feat type>, one-target <seg> in a node or bracket) are read without a frame
# until a child arrives

LEAF_ROWS = [
    ("leaf-gets-a-child", '<struct>\n <feat type="x">a\n  <feat type="y">b</feat></feat>\n</struct>',
     (Feature(cat="x", nested=(Feature(cat="y", text="b"),)),),
     [(2, 2, "<feat> mixes text with child elements; text ignored")]),
    ("empty-feat", '<struct><feat type="x"/><feat type="x"></feat></struct>',
     (Feature(cat="x", text=""), Feature(cat="x", text="")), []),
    ("seg-content-in-brack", '<struct><brack><seg target="#a"><feat type="x">1</feat></seg></brack></struct>',
     (Feature(cat="x", text="1"), Bracket((SegmentRef(IdTargets(("a",))),))),
     [(1, 16, "<seg> with element content; content attached to the enclosing node")]),
    ("seg-content-in-unknown", '<struct><meta><seg target="#a"><feat type="x">1</feat></seg></meta></struct>', (),
     [(1, 9, "unknown element <meta>; skipped"), (1, 15, "<seg> in an unexpected position; ignored")]),
    ("in-a-skipped-subtree",
     '<struct><feat type="x"><seg target="#a"><feat type="y">1</feat><seg target="#b"/></seg></feat>'
     '<seg target="#c"/><rel target="#r"><feat type="y">1</feat></rel><feat type="z">2</feat></struct>',
     (Feature(cat="x", text=""), SegmentRef(IdTargets(("c",))), Relation(target="r"), Feature(cat="z", text="2")),
     [(1, 24, "<feat> cannot contain <seg>; element skipped"), (1, 130, "<rel> cannot contain <feat>; element skipped")]),
]


@pytest.mark.parametrize("text, items, warnings", [row[1:] for row in LEAF_ROWS], ids=[row[0] for row in LEAF_ROWS])
def test_leaf_edges(text, items, warnings):
    doc, diagnostics = parse_gmt(text)
    assert doc.root.items == items
    assert sorted(diagnostics.warnings) == warnings


def test_a_3000_deep_nested_feature_reads_and_rewrites_to_the_same_bytes():
    doc, diagnostics = parse_gmt(deep_feature_text(3000))
    assert diagnostics.warnings == ()
    text = serialize_gmt(doc)
    again, diagnostics = parse_gmt(text)
    assert diagnostics.warnings == ()
    assert_same_text(serialize_gmt(again), text)  # the texts: == on a 3000-deep feature recurses


@pytest.mark.parametrize("make", [deep_chain_text, deep_segless_text, deep_feature_text], ids=["chain", "segless", "feature"])
def test_written_bytes_grow_linearly_with_the_nesting_depth(make):
    # Indentation stops growing at 256 spaces, so four times the depth writes about four times the bytes.
    written = {}
    for depth in (750, 3000):
        text = serialize_gmt(parse_gmt(make(depth))[0])
        assert_same_text(serialize_gmt(parse_gmt(text)[0]), text)  # the texts: == on a 3000-deep document recurses
        assert max(len(line) - len(line.lstrip(" ")) for line in text.splitlines()) == 256
        written[depth] = len(text.encode("utf-8"))
    assert written[3000] <= 4.5 * written[750]


# ---------------------------------------------------------------------------
# the writer's per-call line table: one object written at many places


def test_a_shared_confidence_is_checked_at_each_place():
    bad = Feature(cat="confidence", text="5")  # out of range, an error only as a bundle member
    first = StructNode(type="W-level", items=(SegmentRef(IdTargets(("w1",))), bad))
    alts = AltSet(((Feature(cat="pos", text="NOUN"), bad), (Feature(cat="pos", text="VERB"),)))
    second = StructNode(type="W-level", items=(SegmentRef(IdTargets(("w2",))), alts))
    doc = GmtDocument(StructNode(type="MSAnnot", children=(first, second)))
    errors = validate_structure(doc).errors
    assert [(e.code, e.path) for e in errors] == [("BAD_CONFIDENCE", "/struct[1]/struct[2]/alt[1]/feat[2]")]
    with pytest.raises(GmtSerializeError) as exc:
        serialize_gmt(doc)
    assert str(exc.value) == f"invalid document: {errors[0].code} at {errors[0].path}: {errors[0].message}"


def _hostile_at_three_depths(feature) -> GmtDocument:
    """``feature()`` as a root item, a bracket member one level down and a bundle member two levels down."""
    alts = AltSet(((feature(), Feature(cat="pos", text="NOUN")), (Feature(cat="pos", text="VERB"),)))
    inner = StructNode(type="W-level", items=(SegmentRef(IdTargets(("w1",))), alts))
    middle = StructNode(type="phrase", items=(Bracket((feature(),)),), children=(inner,))
    return GmtDocument(StructNode(type="MSAnnot", items=(feature(),), children=(middle,)))


def test_a_shared_feature_writes_the_bytes_of_distinct_equal_ones():
    shared = Feature(cat="note", text="a&b<c>\rd")
    doc, distinct = _hostile_at_three_depths(lambda: shared), _hostile_at_three_depths(lambda: replace(shared))
    text = serialize_gmt(doc)
    assert text == serialize_gmt(distinct)
    line = '<feat type="note">a&amp;b&lt;c&gt;&#13;d</feat>'
    assert [pad for pad in ("  ", "      ", "        ") if f"\n{pad}{line}\n" in text] == ["  ", "      ", "        "]
    assert parse_gmt(text)[0] == doc


def test_a_fold_alt_filler_shared_by_its_bundles_writes_the_bytes_of_distinct_ones():
    def layer(pos: str) -> GmtDocument:
        words = [StructNode(type="W-level", items=(SegmentRef(IdTargets((f"w{k}",))), Feature(cat="pos", text=pos)))
                 for k in range(1, 4)]
        return GmtDocument(StructNode(type="MSAnnot", children=tuple(words)))

    merged = merge([layer("NOUN"), layer("VERB")], MergePolicy(FOLD_TO_ALT))
    fillers = [m for node in merged.root.children for bundle in node.items[1].alternatives for m in bundle
               if m.cat == "confidence"]
    assert len(fillers) == 6 and all(f is fillers[0] for f in fillers)

    def fresh(bundle: tuple) -> tuple:
        return tuple(replace(m) if m.cat == "confidence" else m for m in bundle)

    distinct = GmtDocument(replace(merged.root, children=tuple(
        replace(node, items=(node.items[0], AltSet(tuple(map(fresh, node.items[1].alternatives)))))
        for node in merged.root.children)))
    assert distinct == merged
    assert serialize_gmt(distinct) == serialize_gmt(merged)


def test_the_writer_quotes_each_distinct_attribute_value_once_per_call(monkeypatch):
    # Layers read separately share no feature objects, so only a table keyed by value can save the
    # quoting of their equal categories, types and targets.
    xml_io = importlib.import_module("gmtannot.xml_io")
    quote = xml_io._attr
    calls: Counter = Counter()
    monkeypatch.setattr(xml_io, "_attr", lambda value: calls.update([value]) or quote(value))
    rng = random.Random(18)
    written = repeated = 0
    for _ in range(60):
        layers = [parse_gmt(serialize_gmt(random_mergeable_document(rng, id_prefix=p)))[0] for p in "ab"]
        for policy in (KEEP_ALL, FOLD_TO_ALT):
            calls.clear()
            text = serialize_gmt(merge(layers, MergePolicy(policy)))
            assert max(calls.values()) == 1
            assert text.count('="') > len(calls)  # some attribute value was written more than once
            written += 1
            repeated += text.count('="') - len(calls)
    assert written == 120 and repeated > 1000
