"""Core model operations: validation, lookup, alternatives."""

from __future__ import annotations

import copy
import inspect
import pickle
import random
import re
import weakref
from decimal import Decimal

import pytest

from gmtannot import (
    AgParseError,
    AltSet,
    AnchorError,
    Bracket,
    BridgeError,
    Feature,
    GmtDocument,
    GmtParseError,
    GmtSerializeError,
    IdTargets,
    LandmarkEndpoints,
    PositionalSpan,
    Relation,
    SegmentRef,
    RegistryError,
    StructNode,
    TokenIndexError,
    build_landmark_table,
    default_registry,
    find_node,
    load_registry,
    load_token_index,
    load_type_map,
    parse_ag,
    parse_gmt,
    select_preferred_alternative,
    serialize_gmt,
    validate_categories,
    validate_structure,
)
from gmtannot.agraph import AgArc, AnnotationGraph
from gmtannot.anchoring import ResolvedSpan, Token, TokenIndex
from gmtannot.merge import FOLD_TO_ALT, DiffEntry, DiffReport, MergePolicy, merge
from gmtannot.model import Finding, ValidationReport, _id_problems, _problems, bundle_confidence, iter_items, replace
from gmtannot.registry import CategoryDef, ClosedSet, DecimalRange, OpenText, Reference, Registry, _check_feature
from gmtannot.xml_io import ParseDiagnostics, ParseWarning
from conftest import FIXTURES, load_fixture
from randgen import DocBuilder, random_document


def w(lemma: str, pos: str, token: str) -> StructNode:
    return StructNode(
        type="W-level",
        items=(
            Feature(cat="lemma", text=lemma),
            Feature(cat="pos", text=pos),
            SegmentRef(IdTargets((token,))),
        ),
    )


# ---------------------------------------------------------------------------
# validate_structure


def test_validate_sentence_fixture_is_clean():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert validate_structure(doc).findings == ()


def test_validate_root_without_items_is_clean():
    assert validate_structure(GmtDocument(StructNode(type="MSAnnot"))).findings == ()
    assert validate_structure(GmtDocument(StructNode())).findings == ()


def test_doc_type_is_the_root_type():
    assert GmtDocument(StructNode(type="x")).doc_type == "x"
    assert GmtDocument(StructNode()).doc_type == ""
    with pytest.raises(AttributeError):
        GmtDocument(StructNode(type="x")).doc_type = "y"  # type: ignore[misc]


def test_roots_is_the_root_alone():
    root = StructNode(type="x", children=(StructNode(type="y"),))
    doc = GmtDocument(root)
    assert doc.root is root
    assert doc.roots == (root,)
    assert GmtDocument._fields == ("root",)


def test_validate_duplicate_id():
    # Oracle: a set-membership scan over all ids finds exactly one repeat.
    doc = GmtDocument(
        StructNode(
            type="MSAnnot",
            children=(
                StructNode(type="W-level", id="w1"),
                StructNode(type="W-level", id="w1"),
            ),
        )
    )
    report = validate_structure(doc)
    assert [f.code for f in report.findings] == ["DUPLICATE_ID"]
    assert report.findings[0].severity == "error"
    assert report.findings[0].path == "/struct[1]/struct[2]"


def test_validate_feature_value_forms():
    bad = StructNode(
        items=(
            Feature(cat="lemma"),
            Feature(cat="pos", text="NOUN", target="x"),
        )
    )
    codes = [f.code for f in validate_structure(GmtDocument(bad)).findings]
    assert codes == ["FEATURE_NO_VALUE", "FEATURE_MULTIPLE_VALUES"]


def test_validate_singleton_alt_and_bad_confidence():
    node = StructNode(
        items=(
            AltSet(alternatives=((Feature(cat="pos", text="NOUN"),),)),
            AltSet(
                alternatives=(
                    (Feature(cat="confidence", text="1.4"),),
                    (Feature(cat="confidence", text="abc"),),
                )
            ),
        )
    )
    codes = [f.code for f in validate_structure(GmtDocument(node)).findings]
    assert codes == ["SINGLETON_ALT", "BAD_CONFIDENCE", "BAD_CONFIDENCE"]


def test_validate_segment_invariants():
    node = StructNode(
        items=(
            SegmentRef(IdTargets(())),
            SegmentRef(IdTargets(("a", "a"))),
            SegmentRef(PositionalSpan(9, 3)),
        )
    )
    codes = [f.code for f in validate_structure(GmtDocument(node)).findings]
    assert codes == ["EMPTY_TARGETS", "DUPLICATE_TARGET", "INVERTED_SPAN"]


@pytest.mark.parametrize("bad", ["x y", "", "#a", "a\tb", "a\n"])
def test_multi_target_ids_the_writer_cannot_list_are_errors(bad):
    # serialize_gmt writes several targets as one space-separated attribute.
    node = StructNode(items=(SegmentRef(IdTargets(("w1", bad))), SegmentRef(IdTargets((bad,)))))
    findings = validate_structure(GmtDocument(node)).findings
    assert [(f.code, f.path) for f in findings] == [("BAD_TARGET", "/struct[1]/seg[1]")]
    with pytest.raises(GmtSerializeError, match="BAD_TARGET at /struct"):
        serialize_gmt(GmtDocument(node))


def test_valid_document_ids_all_findable():
    rng = random.Random(7)
    for _ in range(20):
        doc = random_document(rng)
        report = validate_structure(doc)
        assert report.ok, report.render()
        declared = [node.id for _, node in doc.walk() if node.id is not None]
        for node_id in declared:
            assert find_node(doc, node_id) is not None
        assert find_node(doc, "no-such-id") is None


# ---------------------------------------------------------------------------
# find_node


def test_find_node_landmark():
    doc, _ = parse_gmt(load_fixture("landmark_desc.xml"))
    node = find_node(doc, "1")
    assert node is not None
    assert node.type == "landmark"
    assert node.items == (Feature(cat="position", text="2360"),)


def test_find_node_absent():
    doc, _ = parse_gmt(load_fixture("landmark_desc.xml"))
    assert find_node(doc, "99") is None


def test_find_node_agrees_with_preorder_scan():
    rng = random.Random(11)
    builder = DocBuilder(rng)
    nodes = [builder.node(depth=1) for _ in range(40)]
    doc = GmtDocument(StructNode(type="MSAnnot", children=tuple(nodes)))

    # Oracle: an explicit stack-based preorder scan, independent of walk().
    def scan(node: StructNode, wanted: str):
        stack = [node]
        while stack:
            current = stack.pop()
            if current.id == wanted:
                return current
            members = []
            for item in current.items:
                if isinstance(item, AltSet):
                    for bundle in item.alternatives:
                        members.extend(m for m in bundle if isinstance(m, StructNode))
            stack.extend(reversed(members + list(current.children)))
        return None

    ids = [node.id for _, node in doc.walk() if node.id is not None]
    assert len(ids) >= 40
    for node_id in ids:
        assert find_node(doc, node_id) == scan(doc.root, node_id)


def test_find_node_returns_first_of_duplicate_ids():
    nested = StructNode(type="morph", id="x", items=(Feature(cat="pos", text="NOUN"),))
    later = StructNode(type="W-level", id="x")
    alts = AltSet(((nested,), (Feature(cat="pos", text="VERB"),)))
    doc = GmtDocument(
        StructNode(type="MSAnnot", children=(StructNode(items=(alts,)), later))
    )
    assert find_node(doc, "x") is nested


@pytest.mark.parametrize("name, fill, slot", [
    ("morph_le_chat.xml", lambda doc: find_node(doc, "w4"), "_node_index"),
    ("msannot_sentence.xml", lambda doc: merge([doc, doc]), "_child_keys"),
], ids=["node-index", "child-keys"])
def test_a_document_cache_is_invisible_to_equality_hash_repr_and_copies(name, fill, slot):
    text = load_fixture(name)
    doc, _ = parse_gmt(text)
    fresh, _ = parse_gmt(text)
    assert fill(doc) is not None and hasattr(doc, slot) and not hasattr(fresh, slot)
    assert doc == fresh
    assert hash(doc) == hash(fresh)
    assert repr(doc) == repr(fresh)
    expected = fill(fresh)
    for copied in (pickle.loads(pickle.dumps(doc)), copy.copy(doc), copy.deepcopy(doc), replace(doc)):
        assert copied == fresh and not hasattr(copied, slot)
        assert fill(copied) == expected
    assert parse_gmt(serialize_gmt(doc))[0] == doc


# ---------------------------------------------------------------------------
# select_preferred_alternative


def bouche_alts() -> AltSet:
    doc, _ = parse_gmt(load_fixture("msannot_alternatives_bouche.xml"))
    return next(i for i in doc.root.items if isinstance(i, AltSet))


def test_select_prefers_highest_confidence():
    best = select_preferred_alternative(bouche_alts())
    assert Feature(cat="pos", text="NOUN") in best
    assert Feature(cat="confidence", text="0.6") in best


def test_select_tie_breaks_to_first():
    alts = AltSet(
        alternatives=(
            (Feature(cat="pos", text="VERB"), Feature(cat="confidence", text="0.5")),
            (Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text="0.5")),
        )
    )
    assert select_preferred_alternative(alts)[0].text == "VERB"


def test_select_without_confidence_takes_first():
    # Oracle: argmax over (confidence-or-0, -position) picks position 0.
    alts = AltSet(
        alternatives=(
            (Feature(cat="pos", text="VERB"),),
            (Feature(cat="pos", text="NOUN"),),
        )
    )
    assert select_preferred_alternative(alts)[0].text == "VERB"


@pytest.mark.parametrize("scale", ["2", "0.5", "3.7"])
def test_select_invariant_under_positive_scaling(scale):
    rng = random.Random(17)
    builder = DocBuilder(rng)
    factor = Decimal(scale)
    for _ in range(50):
        alts = AltSet(tuple(builder.bundle() for _ in range(rng.randint(2, 4))))
        chosen = select_preferred_alternative(alts)
        scaled = AltSet(
            tuple(
                tuple(
                    Feature(cat="confidence", text=str(Decimal(m.text) * factor))
                    if isinstance(m, Feature) and m.cat == "confidence"
                    else m
                    for m in bundle
                )
                for bundle in alts.alternatives
            )
        )
        scaled_chosen = select_preferred_alternative(scaled)
        assert alts.alternatives.index(chosen) == scaled.alternatives.index(scaled_chosen)


@pytest.mark.parametrize("text", ["NaN", "sNaN", "Infinity", "-Infinity"])
def test_non_finite_confidence_is_bad_and_counts_as_zero(text):
    bad = (Feature(cat="pos", text="VERB"), Feature(cat="confidence", text=text))
    good = (Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text="0.1"))
    node = StructNode(type="W-level", items=(AltSet((bad, good)),))
    codes = [f.code for f in validate_structure(GmtDocument(node)).findings]
    assert codes == ["BAD_CONFIDENCE"]
    assert bundle_confidence(bad) == 0
    assert select_preferred_alternative(AltSet((bad, good))) == good


@pytest.mark.parametrize(
    "text", ["0_1", "\u0661", "\uff11", " 1_0 "], ids=["underscore", "arabic-indic", "fullwidth", "blank-edged"]
)
def test_a_confidence_that_python_alone_would_read_is_bad_and_counts_as_zero(text):
    # Decimal() takes "_" between digits and non-ASCII digits: each of these would read as 1 (or 10) and win.
    odd = (Feature(cat="pos", text="VERB"), Feature(cat="confidence", text=text))
    good = (Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text="0.9"))
    doc = GmtDocument(StructNode(type="W-level", items=(AltSet((odd, good)),)))
    finding = ("BAD_CONFIDENCE", "/struct[1]/alt[1]/feat[2]")
    assert [(f.code, f.path) for f in validate_structure(doc).findings] == [finding]
    with pytest.raises(GmtSerializeError):
        serialize_gmt(doc)
    assert bundle_confidence(odd) == 0
    assert select_preferred_alternative(AltSet((odd, good))) == good


def _landmark_position(text: str) -> int:
    landmark = StructNode(type="landmark", id="a", items=(Feature(cat="position", text=text),))
    return build_landmark_table(GmtDocument(StructNode(type="landmarkDesc", children=(landmark,))))["a"]


# Each reader of an integer in a file format: how it reads one, what it raises, and its message.
INTEGER_READERS = {
    "gmt-offset": (
        lambda text: parse_gmt(f'<struct type="W"><seg startsAt="{text}" endsAt="{text}"/></struct>')[0]
        .root.items[0].addr.start,
        GmtParseError, "offset must be a non-negative integer",
    ),
    "token-offset": (
        lambda text: load_token_index(f"w1\t{text}\t{text}\n").entries[0].start,
        TokenIndexError, "line 1: offsets must be integers",
    ),
    "landmark-position": (_landmark_position, AnchorError, "is not an integer"),
    "graph-offset": (
        lambda text: parse_ag(
            f'<annotation><arc><source id="0" offset="{text}"/><label a="b"/><target id="1" offset="{text}"/></arc>'
            "</annotation>"
        ).nodes["0"],
        AgParseError, "arc 1: offset .* is not an integer",
    ),
}


@pytest.mark.parametrize(
    "text, value",
    [("1_0", None), ("\u0663", None), ("\uff12\uff10", None), ("9" * 5000, None), (" 7 ", 7), ("+5", 5)],
    ids=["underscore", "arabic-indic", "fullwidth", "5000-digits", "blank-edged", "plus-sign"],
)
@pytest.mark.parametrize("reader", INTEGER_READERS)
def test_every_integer_reader_takes_ascii_digits_only(reader, text, value):
    # int() alone takes "_" between digits and non-ASCII digits, and raises past 4,300 digits.
    read, error, message = INTEGER_READERS[reader]
    if value is None:
        with pytest.raises(error, match=message):
            read(text)
    else:
        assert read(text) == value


def test_a_confidence_with_a_target_has_no_value_and_counts_as_zero():
    pointer = (Feature(cat="pos", text="VERB"), Feature(cat="confidence", target="c1"))
    zero = (Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text="0"))
    doc = GmtDocument(StructNode(type="W-level", items=(AltSet((pointer, zero)),)))
    finding = ("BAD_CONFIDENCE", "/struct[1]/alt[1]/feat[2]", "confidence value None is not a decimal in [0, 1]")
    assert [(f.code, f.path, f.message) for f in validate_structure(doc).findings] == [finding]
    with pytest.raises(GmtSerializeError) as exc:
        serialize_gmt(doc)
    assert str(exc.value) == "invalid document: {} at {}: {}".format(*finding)
    # Counted as 0, it ties with "0", so the first of the two bundles wins either way round.
    assert select_preferred_alternative(AltSet((pointer, zero))) == pointer
    assert select_preferred_alternative(AltSet((zero, pointer))) == zero


def test_finite_confidence_above_one_still_ranks():
    loud = (Feature(cat="pos", text="VERB"), Feature(cat="confidence", text=" 5 "))
    quiet = (Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text="0.9"))
    assert bundle_confidence(loud) == 5
    assert select_preferred_alternative(AltSet((quiet, loud))) == loud
    codes = [f.code for f in validate_structure(GmtDocument(StructNode(items=(AltSet((quiet, loud)),)))).findings]
    assert codes == ["BAD_CONFIDENCE"]


def test_iter_items_puts_each_bracket_before_its_members():
    seg = SegmentRef(IdTargets(("w1",)))
    inner = Bracket((Feature(cat="b", text="2"),))
    outer = Bracket((Feature(cat="a", text="1"), inner))
    node = StructNode(items=(seg, outer, Feature(cat="c", text="3")))
    assert iter_items(node) == (seg, outer, Feature(cat="a", text="1"), inner, Feature(cat="b", text="2"),
                                Feature(cat="c", text="3"))
    # Without a bracket the node's own tuple is returned, so scanning allocates nothing.
    plain = StructNode(items=(seg, Feature(cat="c", text="3")))
    assert iter_items(plain) is plain.items


# ---------------------------------------------------------------------------
# the record contract

N, V = Feature("pos", "N"), Feature("pos", "V")

#: (factory, changes for replace, repr recorded from the earlier dataclass form), one per record class.
RECORDS = [
    (lambda: N, {"text": "V"}, "Feature(cat='pos', text='N', nested=None, target=None)"),
    (
        lambda: AltSet(((N,), (V, StructNode(type="m")))),
        {"alternatives": ()},
        "AltSet(alternatives=((Feature(cat='pos', text='N', nested=None, target=None),), "
        "(Feature(cat='pos', text='V', nested=None, target=None), "
        "StructNode(type='m', id=None, ref=None, items=(), children=()))))",
    ),
    (lambda: Relation("n2", "head"), {"rel_type": None}, "Relation(target='n2', rel_type='head')"),
    (lambda: IdTargets(("w1", "w2")), {"ids": ("w3",)}, "IdTargets(ids=('w1', 'w2'))"),
    (lambda: PositionalSpan(0, 4), {"end": 5}, "PositionalSpan(start=0, end=4)"),
    (lambda: LandmarkEndpoints("a", "b"), {"start": "c"}, "LandmarkEndpoints(start='a', end='b')"),
    (lambda: SegmentRef(IdTargets(("w1",))), {"addr": PositionalSpan(1, 2)}, "SegmentRef(addr=IdTargets(ids=('w1',)))"),
    (
        lambda: Bracket((N, Relation("n1"))),
        {"members": (V,)},
        "Bracket(members=(Feature(cat='pos', text='N', nested=None, target=None), Relation(target='n1', rel_type=None)))",
    ),
    (
        lambda: StructNode(type="w", id="n1", items=(N,), children=(StructNode(),)),
        {"id": "n2", "children": ()},
        "StructNode(type='w', id='n1', ref=None, items=(Feature(cat='pos', text='N', nested=None, target=None),), "
        "children=(StructNode(type=None, id=None, ref=None, items=(), children=()),))",
    ),
    (
        lambda: GmtDocument(StructNode(type="x")),
        {"root": StructNode(type="y")},
        "GmtDocument(root=StructNode(type='x', id=None, ref=None, items=(), children=()))",
    ),
    (
        lambda: Finding("error", "EMPTY_ID", "/struct[1]", "node id must be non-empty"),
        {"code": "X"},
        "Finding(severity='error', code='EMPTY_ID', path='/struct[1]', message='node id must be non-empty')",
    ),
    (
        lambda: ValidationReport((Finding("warning", "C", "/struct[1]", "m"),)),
        {"findings": ()},
        "ValidationReport(findings=(Finding(severity='warning', code='C', path='/struct[1]', message='m'),))",
    ),
    (OpenText, {}, "OpenText()"),
    (lambda: ClosedSet(("N", "V")), {"values": ("A",)}, "ClosedSet(values=('N', 'V'))"),
    (lambda: DecimalRange(Decimal("0"), Decimal("1.5")), {"hi": Decimal(2)}, "DecimalRange(lo=Decimal('0'), hi=Decimal('1.5'))"),
    (Reference, {}, "Reference()"),
    (
        lambda: CategoryDef("pos", ClosedSet(("N", "V")), aliases=("POS",)),
        {"parent": "cat"},
        "CategoryDef(name='pos', kind=ClosedSet(values=('N', 'V')), parent=None, aliases=('POS',))",
    ),
    (
        lambda: Registry({"pos": CategoryDef("pos", OpenText(), parent="cat")}),
        {"categories": {}},
        "Registry(categories={'pos': CategoryDef(name='pos', kind=OpenText(), parent='cat', aliases=())})",
    ),
    (
        lambda: MergePolicy(FOLD_TO_ALT, Decimal("0.5")),
        {"alt_confidence_fill": Decimal(1)},
        "MergePolicy(on_parallel='fold-alt', alt_confidence_fill=Decimal('0.5'))",
    ),
    (
        lambda: DiffEntry("ids:w1", "bothDiffer", "pos:N->V"),
        {"detail": ""},
        "DiffEntry(anchor='ids:w1', status='bothDiffer', detail='pos:N->V')",
    ),
    (
        lambda: DiffReport((DiffEntry("ids:w1", "onlyLeft", ""),)),
        {"entries": ()},
        "DiffReport(entries=(DiffEntry(anchor='ids:w1', status='onlyLeft', detail=''),))",
    ),
    (lambda: TokenIndex((Token("w1", 0, 4),)), {"entries": ()}, "TokenIndex(entries=(Token(id='w1', start=0, end=4),))"),
    (lambda: Token("w1", 0, 4), {"end": 5}, "Token(id='w1', start=0, end=4)"),
    (
        lambda: ParseDiagnostics((ParseWarning(1, 2, "m"),)),
        {"warnings": ()},
        "ParseDiagnostics(warnings=(ParseWarning(line=1, column=2, message='m'),))",
    ),
    (
        lambda: ResolvedSpan("primary", 0, 4),
        {"end": 5},
        "ResolvedSpan(layer='primary', start=0, end=4, target_nodes=())",
    ),
    (lambda: AgArc("0", "1", (("att_1", "P"),)), {"target": "2"}, "AgArc(source='0', target='1', attrs=(('att_1', 'P'),))"),
    (
        lambda: AnnotationGraph({"0": 0, "1": 5}, (AgArc("0", "1", ()),)),
        {"nodes": {}},
        "AnnotationGraph(nodes={'0': 0, '1': 5}, arcs=(AgArc(source='0', target='1', attrs=()),))",
    ),
]


@pytest.mark.parametrize("make, changes, golden", RECORDS, ids=[golden.split("(")[0] for _, _, golden in RECORDS])
def test_record_contract(make, changes, golden):
    value, twin = make(), make()
    assert repr(value) == golden
    for name in value._fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and not value != twin
    if any(isinstance(getattr(value, name), dict) for name in value._fields):
        with pytest.raises(TypeError):  # a dict field makes the record unhashable, as it did the dataclass
            hash(value)
    else:
        assert hash(value) == hash(twin)
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert other == value and other is not value and type(other) is type(value)
    assert weakref.ref(value)() is value
    changed = replace(value, **changes)
    assert type(changed) is type(value) and replace(value) == value
    for name in value._fields:
        assert getattr(changed, name) == changes.get(name, getattr(value, name))
    with pytest.raises(TypeError):
        replace(value, no_such_field=1)


def test_records_of_different_classes_differ_on_equal_fields():
    assert PositionalSpan("a", "b") != LandmarkEndpoints("a", "b")  # type: ignore[arg-type]
    assert LandmarkEndpoints("a", "b") != PositionalSpan("a", "b")  # type: ignore[arg-type]
    assert OpenText() != Reference() and OpenText() == OpenText()
    assert IdTargets(("w1",)) != ("w1",)


def test_equality_hash_and_repr_hold_on_a_200_deep_chain():
    def chain() -> StructNode:
        node = StructNode()
        for _ in range(200):
            node = StructNode(type="n", children=(node,))
        return node

    left, right = chain(), chain()
    assert left == right
    assert hash(left) == hash(right)
    assert repr(left) == repr(right)


def test_selection_compares_written_confidences_and_validation_reports_the_range():
    # docs/formats.md, "Alternative selection": 5 wins although it is out of range.
    doc, _ = parse_gmt(
        '<struct type="W-level"><seg target="#w1"/>'
        '<alt><feat type="pos">NOUN</feat><feat type="confidence">0.9</feat></alt>'
        '<alt><feat type="pos">VERB</feat><feat type="confidence">5</feat></alt>'
        "</struct>"
    )
    alts = next(item for item in doc.root.items if isinstance(item, AltSet))
    assert select_preferred_alternative(alts)[0] == Feature(cat="pos", text="VERB")
    assert [(f.code, f.path) for f in validate_structure(doc).findings] == [("BAD_CONFIDENCE", "/struct[1]/alt[2]/feat[2]")]


def test_select_on_an_empty_alternative_set_is_refused():
    with pytest.raises(ValueError, match="^empty alternative set$"):
        select_preferred_alternative(AltSet(()))


# The three line formats with one good line, one bad line, the error the bad line raises and a view of a result.
LINE_FORMATS = [
    (load_token_index, "w1\t0\t4", "w1\tx\t4", TokenIndexError, lambda index: index.entries),
    (load_type_map, "P\tphoneticAnnot\tphone", "P\tphoneticAnnot", BridgeError, lambda table: table),
    (load_registry, "pos kind=open", "pos kind=wat", RegistryError, lambda registry: registry.categories),
]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("load, good, bad, error, view", LINE_FORMATS, ids=["tokens", "map", "registry"])
def test_line_formats_skip_blank_and_comment_lines_alike(load, good, bad, error, view, end):
    skipped = ["", "   ", "# x", "  # x"]
    assert view(load(end.join(skipped + [good] + skipped) + end)) == view(load(good + "\n"))
    assert view(load(end.join(skipped) + end)) == view(load(""))
    # Error line numbers count the skipped lines.
    with pytest.raises(error, match="^line 5: "):
        load(end.join(skipped + [bad, good]) + end)
    # One leading byte order mark is not part of the first line, whether that line holds data or a comment.
    assert view(load("\ufeff" + good + end)) == view(load(good + "\n"))
    assert view(load("\ufeff" + end.join(skipped[2:] + [good]) + end)) == view(load(good + "\n"))
    with pytest.raises(error, match="^line 5: "):
        load("\ufeff" + end.join(skipped + [bad]) + end)


# ---------------------------------------------------------------------------
# finding codes


def _document_with(*items) -> GmtDocument:
    return GmtDocument(StructNode(type="W-level", items=items))


def _alt(*confidences: str) -> AltSet:
    return AltSet(tuple((Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text=c)) for c in confidences))


# One offending document per code of "Validation finding codes" in docs/formats.md.
OFFENDERS = {
    "DUPLICATE_ID": GmtDocument(StructNode(type="S", children=(StructNode(id="a"), StructNode(id="a")))),
    "EMPTY_ID": GmtDocument(StructNode(type="S", id="")),
    "FEATURE_NO_VALUE": _document_with(Feature(cat="lemma")),
    "FEATURE_MULTIPLE_VALUES": _document_with(Feature(cat="lemma", text="x", target="w1")),
    "SINGLETON_ALT": _document_with(AltSet(((Feature(cat="pos", text="NOUN"),),))),
    "BAD_CONFIDENCE": _document_with(_alt("0.5", "2")),
    "EMPTY_TARGETS": _document_with(SegmentRef(IdTargets(()))),
    "DUPLICATE_TARGET": _document_with(SegmentRef(IdTargets(("w1", "w1")))),
    "BAD_TARGET": _document_with(SegmentRef(IdTargets(("w1", "#w2")))),
    "INVERTED_SPAN": _document_with(SegmentRef(PositionalSpan(5, 2))),
    "NEGATIVE_OFFSET": _document_with(SegmentRef(PositionalSpan(-1, 2))),
    "EMPTY_TARGET": _document_with(Relation(target="")),
    "UNKNOWN_CATEGORY": _document_with(Feature(cat="nosuchcategory", text="x")),
    "VALUE_NOT_IN_SET": _document_with(Feature(cat="pos", text="ZZZ")),
    "VALUE_OUT_OF_RANGE": _document_with(Feature(cat="confidence", text="2")),
    "VALUE_NOT_DECIMAL": _document_with(Feature(cat="confidence", text="high")),
    "VALUE_KIND_MISMATCH": _document_with(Feature(cat="pos", target="w1")),
}


def test_the_documented_finding_codes_are_the_codes_the_validators_report():
    docs = (FIXTURES.parent / "docs" / "formats.md").read_text(encoding="utf-8")
    table = docs.split("### Validation finding codes", 1)[1].split("\n#", 1)[0]
    documented = {code for line in table.splitlines() if line.startswith("| `")
                  for code in re.findall(r"`([A-Z_]+)`", line.split("|")[1])}
    assert len(documented) == 17 and documented == set(OFFENDERS)
    registry = default_registry()
    reported = set()
    for code, doc in OFFENDERS.items():
        found = {f.code for f in validate_structure(doc).findings + validate_categories(doc, registry).findings}
        assert code in found, code
        reported |= found
    assert reported == documented
    source = "".join(map(inspect.getsource, (_problems, _id_problems, _check_feature)))
    assert set(re.findall(r'"([A-Z][A-Z_]+)"', source)) == documented
