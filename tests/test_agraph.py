"""Annotation graph parsing, serialization and the GMT bridge."""

from __future__ import annotations

import random

import pytest

from gmtannot import (
    AgArc,
    AgParseError,
    AnnotationGraph,
    Bracket,
    BridgeError,
    Feature,
    GmtDocument,
    InvertedSpanError,
    LandmarkEndpoints,
    SegmentRef,
    StructNode,
    UnresolvedTargetError,
    ag_to_gmt,
    build_landmark_table,
    canonicalize_ag,
    gmt_to_ag,
    load_type_map,
    parse_ag,
    serialize_ag,
    serialize_gmt,
)
from gmtannot.model import replace
from conftest import load_fixture
from randgen import random_graph

EXPECTED_OFFSETS = {0, 2360, 3270, 5200, 6160, 8720, 9680, 10173, 11077}


@pytest.fixture()
def graph() -> AnnotationGraph:
    return parse_ag(load_fixture("annotation_graph.xml"))


# ---------------------------------------------------------------------------
# parse_ag


def test_parse_fixture_graph(graph):
    assert len(graph.nodes) == 9
    assert set(graph.nodes.values()) == EXPECTED_OFFSETS
    assert len(graph.arcs) == 11
    she = [a for a in graph.arcs if a.source == "1" and a.target == "3"]
    assert len(she) == 1
    assert she[0].attrs == (("att_1", "W"), ("att_2", "she"))


def test_parse_empty_graph():
    graph = parse_ag("<annotation/>")
    assert graph.nodes == {}
    assert graph.arcs == ()


def test_node_count_equals_distinct_ids():
    rng = random.Random(41)
    for _ in range(30):
        graph = random_graph(rng)
        text = serialize_ag(graph)
        parsed = parse_ag(text)
        # Oracle: distinct ids scanned straight off the arc list.
        distinct = {a.source for a in graph.arcs} | {a.target for a in graph.arcs}
        assert set(parsed.nodes) == distinct


def test_parse_rejects_bad_arcs():
    with pytest.raises(AgParseError, match="source"):
        parse_ag('<annotation><arc><label att_1="P"/><target id="1" offset="5"/></arc></annotation>')
    with pytest.raises(AgParseError, match="label"):
        parse_ag('<annotation><arc><source id="0" offset="0"/><target id="1" offset="5"/></arc></annotation>')
    with pytest.raises(AgParseError, match="offset"):
        parse_ag('<annotation><arc><source id="0" offset="x"/><label a="b"/><target id="1" offset="5"/></arc></annotation>')
    with pytest.raises(AgParseError, match="non-negative"):
        parse_ag('<annotation><arc><source id="0" offset="-2"/><label a="b"/><target id="1" offset="5"/></arc></annotation>')
    with pytest.raises(AgParseError, match="conflicting"):
        parse_ag(
            "<annotation>"
            '<arc><source id="0" offset="0"/><label a="b"/><target id="1" offset="5"/></arc>'
            '<arc><source id="0" offset="3"/><label a="b"/><target id="1" offset="5"/></arc>'
            "</annotation>"
        )
    with pytest.raises(AgParseError, match="backwards"):
        parse_ag('<annotation><arc><source id="0" offset="9"/><label a="b"/><target id="1" offset="5"/></arc></annotation>')


# ---------------------------------------------------------------------------
# ag_to_gmt


def test_ag_to_gmt_matches_landmark_layout(graph):
    docs = ag_to_gmt(graph)
    assert [d.doc_type for d in docs] == ["landmarkDesc", "phoneticAnnot", "morphAnnot"]
    landmarks, phones, words = docs

    table = build_landmark_table(landmarks)
    assert table["1"] == 2360
    assert table == {node_id: offset for node_id, offset in graph.nodes.items()}
    positions = [int(next(iter(n.items)).text) for n in landmarks.root.children]
    assert positions == sorted(positions)

    first_phone = phones.root.children[0]
    assert first_phone.type == "phone"
    assert SegmentRef(LandmarkEndpoints("0", "1")) in first_phone.items
    assert Feature(cat="phone", text="h#") in first_phone.items

    first_word = words.root.children[0]
    assert SegmentRef(LandmarkEndpoints("1", "3")) in first_word.items
    assert Feature(cat="source", text="she") in first_word.items


def test_ag_to_gmt_shares_equal_features_invisibly():
    arcs = tuple(AgArc(str(k), str(k + 1), (("att_1", "P"), ("att_2", "sh"), ("stress", "1"))) for k in range(3))
    graph = AnnotationGraph({str(k): 10 * k for k in range(4)}, arcs)
    landmarks, phones = ag_to_gmt(graph)
    features = [item for node in phones.root.children for item in node.items if isinstance(item, Feature)]
    assert features == [Feature(cat="phone", text="sh"), Feature(cat="stress", text="1")] * 3
    assert all(f is features[k % 2] for k, f in enumerate(features))  # one object per equal value
    distinct = GmtDocument(replace(phones.root, children=tuple(
        replace(node, items=tuple(replace(item) for item in node.items)) for node in phones.root.children)))
    assert features[0] is not distinct.root.children[1].items[1]
    assert serialize_gmt(distinct) == serialize_gmt(phones)


def test_ag_to_gmt_empty_graph():
    docs = ag_to_gmt(AnnotationGraph({}, ()))
    assert len(docs) == 1
    assert docs[0].doc_type == "landmarkDesc"
    assert docs[0].root.children == ()


def test_ag_to_gmt_arc_counts_are_conserved():
    rng = random.Random(43)
    for _ in range(30):
        graph = random_graph(rng)
        docs = ag_to_gmt(graph)
        # Oracle: count arcs per att_1 value straight off the graph.
        by_type: dict[str, int] = {}
        for arc in graph.arcs:
            by_type[arc.get("att_1")] = by_type.get(arc.get("att_1"), 0) + 1
        per_doc = {d.doc_type: len(d.root.children) for d in docs[1:]}
        assert sum(per_doc.values()) == len(graph.arcs)
        for att1, count in by_type.items():
            doc_type = {"P": "phoneticAnnot", "W": "morphAnnot"}[att1]
            assert per_doc[doc_type] == count


def test_untyped_arc_is_an_error():
    graph = AnnotationGraph({"0": 0, "1": 5}, (AgArc("0", "1", (("att_2", "x"),)),))
    with pytest.raises(BridgeError) as exc:
        ag_to_gmt(graph)
    assert exc.value.code == "UNTYPED_ARC"


def test_unmapped_arc_type_is_an_error():
    graph = AnnotationGraph({"0": 0, "1": 5}, (AgArc("0", "1", (("att_1", "Q"), ("att_2", "x"),)),))
    with pytest.raises(BridgeError) as exc:
        ag_to_gmt(graph)
    assert exc.value.code == "UNMAPPED_ARC_TYPE"


def test_custom_type_map():
    table = load_type_map("Q\tquestionAnnot\tcue\n# comment\nP\tphoneticAnnot\tphone\n")
    graph = AnnotationGraph({"0": 0, "1": 5}, (AgArc("0", "1", (("att_1", "Q"), ("att_2", "hm"),)),))
    docs = ag_to_gmt(graph, table)
    assert docs[1].doc_type == "questionAnnot"
    assert Feature(cat="cue", text="hm") in docs[1].root.children[0].items


def test_type_map_rejects_bad_lines():
    with pytest.raises(BridgeError, match="line 1"):
        load_type_map("P\tphoneticAnnot\n")
    with pytest.raises(BridgeError, match="duplicate mapping"):
        load_type_map("P\ta\tb\nP\tc\td\n")
    with pytest.raises(BridgeError, match="duplicate document type"):
        load_type_map("P\ta\tb\nW\ta\td\n")


# ---------------------------------------------------------------------------
# gmt_to_ag and round trips


def test_fixture_graph_round_trip(graph):
    docs = ag_to_gmt(graph)
    back = gmt_to_ag(docs[0], docs[1:])
    assert canonicalize_ag(back) == canonicalize_ag(graph)


def test_gmt_to_ag_empty():
    empty = GmtDocument(StructNode(type="landmarkDesc"))
    graph = gmt_to_ag(empty, [])
    assert graph.nodes == {}
    assert graph.arcs == ()


def test_gmt_to_ag_rejects_unmapped_layer_type():
    landmarks = GmtDocument(StructNode(type="landmarkDesc"))
    layer = GmtDocument(StructNode(type="prosodyAnnot"))
    with pytest.raises(BridgeError) as exc:
        gmt_to_ag(landmarks, [layer])
    assert exc.value.code == "UNMAPPED_DOC_TYPE"


def test_gmt_to_ag_unresolved_landmark():
    landmarks = GmtDocument(
        StructNode(
            type="landmarkDesc",
            children=(StructNode(type="landmark", id="0", items=(Feature(cat="position", text="0"),)),),
        )
    )
    layer = GmtDocument(
        StructNode(
            type="phoneticAnnot",
            children=(
                StructNode(
                    type="phone",
                    items=(SegmentRef(LandmarkEndpoints("0", "9")), Feature(cat="phone", text="x")),
                ),
            ),
        )
    )
    with pytest.raises(UnresolvedTargetError) as exc:
        gmt_to_ag(landmarks, [layer])
    assert exc.value.target == "9"


def test_round_trip_200_random_graphs():
    rng = random.Random(47)
    for _ in range(200):
        graph = random_graph(rng)
        docs = ag_to_gmt(graph)
        back = gmt_to_ag(docs[0], docs[1:])
        assert canonicalize_ag(back) == canonicalize_ag(graph)


def test_ag_xml_round_trip():
    rng = random.Random(53)
    for _ in range(50):
        graph = random_graph(rng)
        parsed = parse_ag(serialize_ag(graph))
        assert canonicalize_ag(parsed) == canonicalize_ag(graph)


# ---------------------------------------------------------------------------
# error paths


def phone_layer(*items) -> GmtDocument:
    return GmtDocument(StructNode(type="phoneticAnnot", children=(StructNode(type="phone", items=items),)))


LANDMARKS_01 = GmtDocument(StructNode(type="landmarkDesc", children=tuple(
    StructNode(type="landmark", id=str(k), items=(Feature(cat="position", text=str(k)),)) for k in range(2)
)))
ARC_0_1 = SegmentRef(LandmarkEndpoints("0", "1"))


@pytest.mark.parametrize(
    "call, error, message, code",
    [
        (lambda: parse_ag("<graph/>"), AgParseError, "document element must be <annotation>, got <graph>", None),
        (lambda: parse_ag("<annotation><arc></annotation>"), AgParseError,
         "malformed XML: mismatched tag (line 1, column 20)", None),
        (lambda: parse_ag('<annotation><arc><source offset="0"/><label/><target id="1" offset="5"/></arc></annotation>'),
         AgParseError, "arc 1: <source> needs both id and offset", None),
        (lambda: parse_ag('<annotation><arc><source id="0" offset="0"/><label/><target id="1"/></arc></annotation>'),
         AgParseError, "arc 1: <target> needs both id and offset", None),
        (lambda: parse_ag("<annotation><note/></annotation>"), AgParseError,
         "unexpected element <note> in <annotation>", None),
        (lambda: gmt_to_ag(LANDMARKS_01, [phone_layer(Feature(cat="phone", text="a"))]), BridgeError,
         "node of type 'phone' in 'phoneticAnnot' has no landmark anchor", "MISSING_ANCHOR"),
        (lambda: gmt_to_ag(LANDMARKS_01, [phone_layer(ARC_0_1, Feature(cat="phone", target="n1"))]), BridgeError,
         "feature 'phone' has no literal value; cannot label an arc", "UNSUPPORTED_FEATURE"),
        (lambda: gmt_to_ag(LANDMARKS_01, [phone_layer(Feature(cat="note", target="n1"), ARC_0_1,
                                                      Feature(cat="phone", target="n2"))]), BridgeError,
         "feature 'note' has no literal value; cannot label an arc", "UNSUPPORTED_FEATURE"),
        (lambda: gmt_to_ag(LANDMARKS_01, [phone_layer(Feature(cat="phone", target="n1"))]), BridgeError,
         "node of type 'phone' in 'phoneticAnnot' has no landmark anchor", "MISSING_ANCHOR"),
    ],
    ids=["document-element", "malformed-xml", "endpoint-without-id", "endpoint-without-offset", "foreign-element",
         "missing-anchor", "unsupported-feature", "first-unsupported-feature", "missing-anchor-before-unsupported-feature"],
)
def test_agraph_error_paths(call, error, message, code):
    with pytest.raises(error) as exc:
        call()
    assert (str(exc.value), getattr(exc.value, "code", None)) == (message, code)


LANDMARKS_0_10_20 = GmtDocument(StructNode(type="landmarkDesc", children=tuple(
    StructNode(type="landmark", id=str(k), items=(Feature(cat="position", text=str(10 * k)),)) for k in range(3)
)))


@pytest.mark.parametrize(
    "items, arc",
    [
        ((Bracket((Feature(cat="phone", text="a"), SegmentRef(LandmarkEndpoints("0", "2")))),),
         AgArc("0", "2", (("att_1", "P"), ("att_2", "a")))),
        ((SegmentRef(LandmarkEndpoints("1", "2")), SegmentRef(LandmarkEndpoints("0", "1")),
          Feature(cat="phone", text="a")),
         AgArc("1", "2", (("att_1", "P"), ("att_2", "a")))),
        ((Feature(cat="note", text="n"), SegmentRef(LandmarkEndpoints("0", "1")), Feature(cat="phone", text="a")),
         AgArc("0", "1", (("att_1", "P"), ("note", "n"), ("att_2", "a")))),
    ],
    ids=["anchor-in-a-bracket", "first-anchor-wins", "feature-before-the-anchor"],
)
def test_gmt_to_ag_reads_each_node_in_item_order(items, arc):
    assert gmt_to_ag(LANDMARKS_0_10_20, [phone_layer(*items)]).arcs == (arc,)


def test_gmt_to_ag_refuses_an_inverted_anchor():
    layer = phone_layer(SegmentRef(LandmarkEndpoints("2", "0")), Feature(cat="phone", text="a"))
    with pytest.raises(InvertedSpanError) as exc:
        gmt_to_ag(LANDMARKS_0_10_20, [layer])
    assert str(exc.value) == "landmarks '2'..'0' span 20..0, which is inverted"


def test_serialize_ag_of_a_graph_without_arcs():
    assert serialize_ag(AnnotationGraph({"0": 0}, ())) == '<?xml version="1.0" encoding="UTF-8"?>\n<annotation/>\n'
