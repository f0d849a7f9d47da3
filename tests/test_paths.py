"""Element paths: one path per element, any nesting depth, checked against the oracle walk of ``path_oracle``."""

from __future__ import annotations

import random

import pytest

from gmtannot import (
    AltSet,
    Bracket,
    Feature,
    GmtDocument,
    GmtSerializeError,
    IdTargets,
    PositionalSpan,
    Registry,
    Relation,
    SegmentRef,
    StructNode,
    default_registry,
    find_node,
    parse_gmt,
    serialize_gmt,
    validate_categories,
    validate_structure,
)
from gmtannot.model import _nodes
from conftest import assert_same_text
from path_oracle import render_path, walk_elements
from randgen import DocBuilder, deep_chain_text, deep_feature_text, deep_segless_text, random_document

DEPTH = 3000


class FaultyBuilder(DocBuilder):
    """Random documents in which some elements break a structural rule."""

    def fresh_id(self) -> str:
        roll = self.rng.random()
        if roll < 0.1:
            return ""
        return "twice" if roll < 0.2 else super().fresh_id()

    def feature(self, depth: int = 0) -> Feature:
        roll = self.rng.random()
        if roll < 0.1:
            return Feature(cat="lemma")
        if roll < 0.15:
            return Feature(cat="lemma", text="x", target="y")
        return super().feature(depth)

    def bundle(self, with_confidence: bool = True) -> tuple:
        members = super().bundle(with_confidence)
        return members + (Feature(cat="confidence", text="5"),) if self.rng.random() < 0.2 else members

    def seg(self) -> SegmentRef:
        roll = self.rng.random()
        if roll < 0.1:
            return SegmentRef(IdTargets(("w1", "w1")))
        return SegmentRef(PositionalSpan(9, 3)) if roll < 0.2 else super().seg()

    def item(self, depth: int, allow_alt: bool = True):
        roll = self.rng.random()
        if roll < 0.08:
            return Relation(target="")
        if roll < 0.14 and allow_alt:
            return AltSet((self.bundle(),))
        if roll < 0.22:
            alts = AltSet(tuple(self.bundle() for _ in range(2)))
            return Bracket((self.feature(), Bracket((Relation(target=""), self.seg())), alts))
        return super().item(depth, allow_alt)


def faulty_document(rng: random.Random) -> GmtDocument:
    builder = FaultyBuilder(rng)
    children = tuple(builder.node(depth=1) for _ in range(rng.randint(1, 5)))
    return GmtDocument(StructNode(type="MSAnnot", children=children))


def nested_alt_document() -> GmtDocument:
    """A ``<struct>`` inside an ``<alt>``, under a child of the root."""
    inner = StructNode(type="x", items=(Feature("mood", "irrealis"), Relation("")))
    alts = AltSet(((Feature("pos", "N"), inner), (Feature("pos", "V"),)))
    return GmtDocument(StructNode(type="MSAnnot", children=(StructNode(items=(alts,)),)))


def shared_document() -> GmtDocument:
    """One bundle tuple, one nested-feature tuple, one bracket and one node, each at several places.

    A node of it holds a three-way and a two-way alternative set apart by a
    feature, and then a singleton set, so its ``<alt>`` positions run on
    across sets.
    """
    nested = (Feature("number", "sg"), Feature("gender", "f"))
    bracket = Bracket((Feature("agr", nested=nested), Relation(""), SegmentRef(IdTargets(("w1", "w1")))))
    inner = StructNode(type="morph", items=(bracket, Feature("agr", nested=nested)))
    bundle = (Feature("pos", "N"), inner, Feature("confidence", "5"))
    word = StructNode(type="W-level", items=(
        AltSet((bundle, (Feature("pos", "V"),), bundle)),
        Feature("lemma", "x"),
        AltSet((bundle, bundle)),
        bracket,
        AltSet(((Feature("pos", "D"),),)),
    ))
    return GmtDocument(StructNode(type="MSAnnot", items=(bracket,), children=(word, inner, word)))


def documents() -> list[GmtDocument]:
    rng = random.Random(23)
    return (
        [random_document(rng) for _ in range(30)]
        + [faulty_document(rng) for _ in range(30)]
        + [nested_alt_document(), shared_document()]
    )


def legacy_walk_paths(doc: GmtDocument) -> list[tuple[str, int]]:
    """``(path, id(node))`` in the node walk's long-standing scheme, computed independently."""
    out: list[tuple[str, int]] = []

    def visit(path: str, node: StructNode) -> None:
        out.append((path, id(node)))
        alt = 0
        for item in node.items:
            if isinstance(item, AltSet):
                for bundle in item.alternatives:
                    alt += 1
                    structs = [m for m in bundle if isinstance(m, StructNode)]
                    for j, member in enumerate(structs, 1):
                        visit(f"{path}/alt[{alt}]/struct[{j}]", member)
        for j, child in enumerate(node.children, 1):
            visit(f"{path}/struct[{j}]", child)

    visit("/struct[1]", doc.root)
    return out


# ---------------------------------------------------------------------------
# one path per element


def test_nested_alt_struct_reports_each_finding_once():
    alts = AltSet(((Feature("pos", "N"), StructNode(type="x", items=(Relation(""),))), (Feature("pos", "V"),)))
    report = validate_structure(GmtDocument(StructNode(type="W-level", items=(alts,))))
    assert [(f.code, f.path) for f in report.findings] == [
        ("EMPTY_TARGET", "/struct[1]/alt[1]/struct[1]/rel[1]")
    ]


def test_category_paths_of_nested_alt_struct_do_not_collide():
    report = validate_categories(nested_alt_document(), default_registry())
    assert [(f.code, f.path) for f in report.findings] == [
        ("VALUE_NOT_IN_SET", "/struct[1]/struct[1]/alt[1]/feat[1]"),
        ("UNKNOWN_CATEGORY", "/struct[1]/struct[1]/alt[1]/struct[1]/feat[1]"),
        ("VALUE_NOT_IN_SET", "/struct[1]/struct[1]/alt[2]/feat[1]"),
    ]


def test_element_paths_are_distinct_and_cover_every_finding():
    registries = (Registry({}), default_registry())
    for doc in documents():
        paths = [render_path(path) for path, _, _ in walk_elements(doc)]
        assert len(set(paths)) == len(paths)
        known = set(paths)
        reports = [validate_structure(doc)] + [validate_categories(doc, reg) for reg in registries]
        for report in reports:
            assert {f.path for f in report.findings} <= known


def test_every_feature_gets_its_own_finding_path():
    # The validators render a path only at a finding; it must be the one walk_elements gives.
    rng = random.Random(31)
    docs = documents() + [random_document(rng) for _ in range(100)] + [faulty_document(rng) for _ in range(100)]
    for doc in docs:
        expected = [render_path(p) for p, _, e in walk_elements(doc) if type(e) is Feature]
        assert [f.path for f in validate_categories(doc, Registry({})).findings] == expected


def test_shared_subtrees_are_named_at_each_place():
    doc = shared_document()
    expected = []
    for path, owner, e in walk_elements(doc):
        code = (
            "EMPTY_TARGET" if type(e) is Relation
            else "DUPLICATE_TARGET" if type(e) is SegmentRef
            else "SINGLETON_ALT" if type(e) is AltSet and len(e.alternatives) == 1
            else "BAD_CONFIDENCE" if type(owner) is AltSet and e == Feature("confidence", "5")
            else None
        )
        if code is not None:
            expected.append((code, render_path(path)))
    findings = [(f.code, f.path) for f in validate_structure(doc).findings]
    assert findings == expected
    assert len(findings) == 34
    assert ("BAD_CONFIDENCE", "/struct[1]/struct[3]/alt[5]/feat[2]") in findings
    assert ("SINGLETON_ALT", "/struct[1]/struct[1]/alt[6]") in findings


def test_a_shared_feature_is_checked_for_the_place_it_sits_in():
    confidence, lemma = Feature("confidence", text="5"), Feature("lemma")
    alts = AltSet(((Feature("pos", "N"), confidence), (Feature("pos", "V"), lemma)))
    node = StructNode(type="W-level", items=(confidence, alts, lemma, Bracket((lemma, confidence))))
    report = validate_structure(GmtDocument(node))
    assert [(f.code, f.path) for f in report.findings] == [
        ("BAD_CONFIDENCE", "/struct[1]/alt[1]/feat[2]"),
        ("FEATURE_NO_VALUE", "/struct[1]/alt[2]/feat[2]"),
        ("FEATURE_NO_VALUE", "/struct[1]/feat[2]"),
        ("FEATURE_NO_VALUE", "/struct[1]/brack[1]/feat[1]"),
    ]


def test_structure_findings_come_in_document_order():
    faulty = [doc for doc in documents() if validate_structure(doc).findings]
    assert len(faulty) >= 20
    for doc in faulty:
        position = {render_path(path): k for k, (path, _, _) in enumerate(walk_elements(doc))}
        order = [position[f.path] for f in validate_structure(doc).findings]
        assert order == sorted(order)


def test_walk_keeps_its_node_paths():
    rng = random.Random(29)
    for doc in [random_document(rng) for _ in range(30)] + [nested_alt_document()]:
        assert [(path, id(node)) for path, node in doc.walk()] == legacy_walk_paths(doc)
    # Nodes in a bracket's alternatives, which the node walk used to skip,
    # are added in document order; every other node keeps its path.
    for doc in [faulty_document(rng) for _ in range(30)]:
        walked = iter([(path, id(node)) for path, node in doc.walk()])
        assert all(entry in walked for entry in legacy_walk_paths(doc))


def deep_documents() -> list[GmtDocument]:
    return [parse_gmt(make(DEPTH))[0] for make in (deep_chain_text, deep_segless_text, deep_feature_text)]


def test_walk_is_the_node_view_of_walk_elements():
    for doc in documents() + deep_documents():
        nodes = [(render_path(p), id(e)) for p, _, e in walk_elements(doc) if isinstance(e, StructNode)]
        assert [(path, id(node)) for path, node in doc.walk()] == nodes


def test_nodes_is_the_node_sequence_of_walk():
    # find_node keeps the first node of an id in _nodes' order, which must be document order.
    for doc in documents() + deep_documents():
        assert [id(node) for node in _nodes(doc)] == [id(node) for _, node in doc.walk()]


def test_walk_elements_reports_owners():
    doc = nested_alt_document()
    alts = doc.root.children[0].items[0]
    owners = {render_path(p): owner for p, owner, _ in walk_elements(doc)}
    assert owners["/struct[1]"] is None
    assert owners["/struct[1]/struct[1]"] is doc.root
    assert owners["/struct[1]/struct[1]/alt[1]"] is doc.root.children[0]
    assert owners["/struct[1]/struct[1]/alt[1]/struct[1]"] is alts
    assert owners["/struct[1]/struct[1]/alt[2]/feat[1]"] is alts
    assert owners["/struct[1]/struct[1]/alt[1]/struct[1]/rel[1]"] is alts.alternatives[0][1]


def test_nodes_in_bracketed_alternatives_are_walked_and_checked():
    inner = StructNode(type="morph", id="m1")
    alts = AltSet(((inner,), (Feature("pos", "V"),)))
    node = StructNode(type="W-level", id="m1", items=(Bracket((Feature("lemma", "x"), alts)),))
    doc = GmtDocument(node)
    assert [path for path, _ in doc.walk()] == ["/struct[1]", "/struct[1]/brack[1]/alt[1]/struct[1]"]
    assert find_node(GmtDocument(StructNode(items=node.items)), "m1") is inner
    report = validate_structure(doc)
    assert [(f.code, f.path) for f in report.findings] == [
        ("DUPLICATE_ID", "/struct[1]/brack[1]/alt[1]/struct[1]")
    ]


def test_singleton_alt_points_at_its_first_alt():
    first = AltSet(((Feature("pos", "N"),), (Feature("pos", "V"),)))
    single = AltSet(((Feature("pos", "D"),),))
    node = StructNode(type="W-level", items=(first, Feature("lemma", "x"), single))
    report = validate_structure(GmtDocument(node))
    assert [(f.code, f.path) for f in report.findings] == [("SINGLETON_ALT", "/struct[1]/alt[3]")]


# ---------------------------------------------------------------------------
# deep nesting


def test_deep_chain_is_walked_validated_and_searched():
    doc, diagnostics = parse_gmt(deep_chain_text(DEPTH))
    assert diagnostics.warnings == ()
    paths = [path for path, _ in doc.walk()]
    assert len(paths) == DEPTH + 1
    assert paths[-1] == "/struct[1]" * (DEPTH + 1)
    assert find_node(doc, "leaf").items[0] == Feature("pos", "NOUN")
    assert validate_structure(doc).findings == ()
    assert validate_categories(doc, default_registry()).findings == ()
    assert sum(1 for _ in walk_elements(doc)) == DEPTH + 4


def test_every_feature_of_a_wide_node_is_named():
    node = StructNode(type="W-level", items=tuple(Feature(f"u{k}", text="x") for k in range(2000)))
    findings = validate_categories(GmtDocument(node), Registry({})).findings
    assert [f.path for f in findings] == [f"/struct[1]/feat[{k}]" for k in range(1, 2001)]


def test_every_level_of_a_deep_feature_is_named():
    doc, _ = parse_gmt(deep_feature_text(DEPTH))
    findings = validate_categories(doc, Registry({})).findings
    assert len(findings) == DEPTH + 1
    assert findings[-1].path == "/struct[1]/struct[1]" + "/feat[1]" * (DEPTH + 1)
    assert findings[-1].message == "category 'g' is not in the registry"


def test_deep_chain_serializes_to_its_canonical_text():
    text = deep_chain_text(DEPTH)
    doc, _ = parse_gmt(text)
    assert_same_text(serialize_gmt(doc), text)


def test_writer_refuses_a_faulty_document_exactly_when_validate_structure_reports_an_error():
    # Several faults at once, nested in bundles and brackets: the writer asks the validators' rules element by
    # element, and its refusal still names the first error of validate_structure.
    rng = random.Random(24)
    docs = [faulty_document(rng) for _ in range(200)] + [shared_document(), nested_alt_document()]
    refused = 0
    for doc in docs:
        errors = validate_structure(doc).errors
        if not errors:
            again, _ = parse_gmt(serialize_gmt(doc))
            assert again == doc
            continue
        with pytest.raises(GmtSerializeError) as exc:
            serialize_gmt(doc)
        first = errors[0]
        assert str(exc.value) == f"invalid document: {first.code} at {first.path}: {first.message}"
        refused += 1
    assert 0 < refused < len(docs)
