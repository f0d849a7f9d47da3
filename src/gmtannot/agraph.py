"""Annotation graphs and their conversion to and from GMT documents.

An annotation graph is a set of timeline nodes (id -> offset) plus
labeled arcs between them.  The XML form mirrors the classic
time-stamped layout::

    <annotation>
      <arc><source id="0" offset="0"/><label att_1="P" att_2="h#"/><target id="1" offset="2360"/></arc>
      ...
    </annotation>

Conversion to GMT produces one landmark description document (one
landmark node per graph node) plus one document per arc type, each arc
becoming a node anchored by landmark endpoints.  The arc-type mapping
``att_1 value -> (document type, payload category)`` is configurable;
the built-in table covers "P" (phones) and "W" (words).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .anchoring import LANDMARK_TYPE, POSITION_CAT, _span, build_landmark_table
from .errors import AgParseError, BridgeError
from .model import (
    Feature,
    GmtDocument,
    LandmarkEndpoints,
    Record,
    SegmentRef,
    StructNode,
    _data_lines,
    _integer,
    _leaf,
    _set,
    iter_items,
)
from .xml_io import _attr

ARC_TYPE_ATTR = "att_1"
ARC_PAYLOAD_ATTR = "att_2"

#: Document type of the landmark description that :func:`ag_to_gmt` writes.
LANDMARK_DESC_TYPE = "landmarkDesc"

#: att_1 value -> (document type, payload category).
DEFAULT_TYPE_MAP: dict[str, tuple[str, str]] = {
    "P": ("phoneticAnnot", "phone"),
    "W": ("morphAnnot", "source"),
}


class AgArc(Record):
    __slots__ = ("source", "target", "attrs")

    def __init__(self, source: str, target: str, attrs: tuple[tuple[str, str], ...]) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "attrs", attrs)

    def get(self, name: str) -> Optional[str]:
        for key, value in self.attrs:
            if key == name:
                return value
        return None


class AnnotationGraph(Record):
    __slots__ = ("nodes", "arcs")

    def __init__(self, nodes: dict[str, int], arcs: tuple[AgArc, ...]) -> None:
        _set(self, "nodes", nodes)
        _set(self, "arcs", arcs)


def load_type_map(text: str) -> dict[str, tuple[str, str]]:
    """Read a mapping table: ``att1Value<TAB>docType<TAB>payloadCat`` lines."""
    table: dict[str, tuple[str, str]] = {}
    doc_types: set[str] = set()
    for lineno, line in _data_lines(text):
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 3 or not all(parts):
            raise BridgeError(f"line {lineno}: expected 'att1Value<TAB>docType<TAB>payloadCat'")
        att1, doc_type, payload = parts
        if att1 in table:
            raise BridgeError(f"line {lineno}: duplicate mapping for {att1!r}")
        if doc_type in doc_types:
            raise BridgeError(f"line {lineno}: duplicate document type {doc_type!r}")
        doc_types.add(doc_type)
        table[att1] = (doc_type, payload)
    return table


# ---------------------------------------------------------------------------
# XML


def parse_ag(text: str) -> AnnotationGraph:
    """Read annotation-graph XML.

    Every arc needs a source, a label and a target; offsets must be
    non-negative integers, consistent per node id, and non-decreasing
    along each arc.
    """
    # Imported here: it costs every process that never reads a graph 3 ms.
    import xml.etree.ElementTree as ET
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        message = exc.msg.removesuffix(f": line {line}, column {column}")  # expat's 0-based column
        raise AgParseError(f"malformed XML: {message} (line {line}, column {column + 1})") from None
    if root.tag != "annotation":
        raise AgParseError(f"document element must be <annotation>, got <{root.tag}>")
    nodes: dict[str, int] = {}
    arcs: list[AgArc] = []

    def endpoint(arc_el: ET.Element, tag: str, position: int) -> str:
        found = arc_el.findall(tag)
        if len(found) != 1:
            raise AgParseError(f"arc {position}: expected exactly one <{tag}>, found {len(found)}")
        el = found[0]
        node_id = el.get("id")
        offset_raw = el.get("offset")
        if node_id is None or offset_raw is None:
            raise AgParseError(f"arc {position}: <{tag}> needs both id and offset")
        offset = _integer(offset_raw)
        if offset is None:
            raise AgParseError(f"arc {position}: offset {offset_raw!r} is not an integer")
        if offset < 0:
            raise AgParseError(f"arc {position}: offset must be non-negative")
        if node_id in nodes and nodes[node_id] != offset:
            raise AgParseError(
                f"arc {position}: node '{node_id}' has conflicting offsets {nodes[node_id]} and {offset}"
            )
        nodes[node_id] = offset
        return node_id

    for position, arc_el in enumerate(root, start=1):
        if arc_el.tag != "arc":
            raise AgParseError(f"unexpected element <{arc_el.tag}> in <annotation>")
        labels = arc_el.findall("label")
        if len(labels) != 1:
            raise AgParseError(f"arc {position}: expected exactly one <label>, found {len(labels)}")
        source = endpoint(arc_el, "source", position)
        target = endpoint(arc_el, "target", position)
        if nodes[source] > nodes[target]:
            raise AgParseError(
                f"arc {position}: runs backwards ({nodes[source]} > {nodes[target]})"
            )
        arcs.append(AgArc(source, target, tuple(labels[0].attrib.items())))
    return AnnotationGraph(nodes, tuple(arcs))


def serialize_ag(graph: AnnotationGraph) -> str:
    """Write annotation-graph XML, one arc per line.

    Nodes appear only as arc endpoints, so isolated nodes cannot be
    represented in this format and are dropped.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if not graph.arcs:
        lines.append("<annotation/>")
        return "\n".join(lines) + "\n"
    lines.append("<annotation>")
    for arc in graph.arcs:
        label = "".join(f" {name}={_attr(value)}" for name, value in arc.attrs)
        lines.append(
            "  <arc>"
            f"<source id={_attr(arc.source)} offset={_attr(str(graph.nodes[arc.source]))}/>"
            f"<label{label}/>"
            f"<target id={_attr(arc.target)} offset={_attr(str(graph.nodes[arc.target]))}/>"
            "</arc>"
        )
    lines.append("</annotation>")
    return "\n".join(lines) + "\n"


def canonicalize_ag(graph: AnnotationGraph) -> AnnotationGraph:
    """Normal form for graph comparison.

    Node ids are renumbered by ascending (offset, original id); label
    attributes are sorted by name; arcs are sorted by (source offset,
    target offset, label attributes).
    """
    order = sorted(graph.nodes, key=lambda n: (graph.nodes[n], n))
    rename = {old: str(i) for i, old in enumerate(order)}
    nodes = {rename[old]: graph.nodes[old] for old in order}
    arcs = [
        AgArc(rename[arc.source], rename[arc.target], tuple(sorted(arc.attrs)))
        for arc in graph.arcs
    ]
    arcs.sort(key=lambda a: (nodes[a.source], nodes[a.target], a.attrs))
    return AnnotationGraph(nodes, tuple(arcs))


# ---------------------------------------------------------------------------
# conversion


def ag_to_gmt(
    graph: AnnotationGraph,
    type_map: Mapping[str, tuple[str, str]] = DEFAULT_TYPE_MAP,
) -> list[GmtDocument]:
    """Convert a graph to a landmark description plus one document per arc type.

    The landmark description holds one landmark node per graph node,
    ordered by (position, id).  Each arc becomes a node whose type and
    payload category come from the arc's ``att_1`` value through the
    type map; remaining label attributes tag along as features named by
    the attribute.  Equal features are one object, as the reader makes them.
    """
    leaves: dict[tuple[str, str], Feature] = {}
    landmark_children = tuple(
        StructNode(
            type=LANDMARK_TYPE,
            id=node_id,
            items=(_leaf(leaves, POSITION_CAT, str(offset)),),
        )
        for node_id, offset in sorted(graph.nodes.items(), key=lambda kv: (kv[1], kv[0]))
    )
    landmark_doc = GmtDocument(StructNode(type=LANDMARK_DESC_TYPE, children=landmark_children))
    by_type: dict[str, list[StructNode]] = {}
    for position, arc in enumerate(graph.arcs, start=1):
        att1 = arc.get(ARC_TYPE_ATTR)
        if att1 is None:
            raise BridgeError(f"arc {position} carries no {ARC_TYPE_ATTR}", code="UNTYPED_ARC")
        if att1 not in type_map:
            raise BridgeError(
                f"arc {position}: no mapping for {ARC_TYPE_ATTR}={att1!r}", code="UNMAPPED_ARC_TYPE"
            )
        doc_type, payload_cat = type_map[att1]
        items: list = [SegmentRef(LandmarkEndpoints(arc.source, arc.target))]
        for name, value in arc.attrs:
            if name == ARC_TYPE_ATTR:
                continue
            cat = payload_cat if name == ARC_PAYLOAD_ATTR else name
            items.append(_leaf(leaves, cat, value))
        by_type.setdefault(att1, []).append(StructNode(type=payload_cat, items=tuple(items)))
    docs = [landmark_doc]
    for att1, structs in by_type.items():
        doc_type = type_map[att1][0]
        docs.append(GmtDocument(StructNode(type=doc_type, children=tuple(structs))))
    return docs


def gmt_to_ag(
    landmarks: GmtDocument,
    layers: Iterable[GmtDocument],
    type_map: Mapping[str, tuple[str, str]] = DEFAULT_TYPE_MAP,
) -> AnnotationGraph:
    """Rebuild an annotation graph from a landmark description and layers.

    Every layer node must anchor through landmark endpoints that resolve
    in the landmark description; the layer's document type must be
    covered by the type map.
    """
    table = build_landmark_table(landmarks)
    reverse = {doc_type: (att1, payload) for att1, (doc_type, payload) in type_map.items()}
    arcs: list[AgArc] = []
    for layer in layers:
        if layer.doc_type not in reverse:
            raise BridgeError(
                f"no mapping for document type {layer.doc_type!r}", code="UNMAPPED_DOC_TYPE"
            )
        att1, payload_cat = reverse[layer.doc_type]
        for node in layer.root.children:
            endpoints = unsupported = None  # the first landmark anchor, the first feature without text
            attrs: list[tuple[str, str]] = [(ARC_TYPE_ATTR, att1)]
            for item in iter_items(node):
                cls = type(item)
                if cls is Feature:
                    if item.text is None and unsupported is None:
                        unsupported = item
                    attrs.append((ARC_PAYLOAD_ATTR if item.cat == payload_cat else item.cat, item.text))
                elif cls is SegmentRef and endpoints is None and type(item.addr) is LandmarkEndpoints:
                    endpoints = item.addr
            if endpoints is None:
                raise BridgeError(
                    f"node of type {node.type!r} in {layer.doc_type!r} has no landmark anchor",
                    code="MISSING_ANCHOR",
                )
            _span(endpoints, None, table)
            if unsupported is not None:
                raise BridgeError(
                    f"feature '{unsupported.cat}' has no literal value; cannot label an arc",
                    code="UNSUPPORTED_FEATURE",
                )
            arcs.append(AgArc(endpoints.start, endpoints.end, tuple(attrs)))
    return AnnotationGraph(dict(table), tuple(arcs))
