"""Merging and comparing annotation layers."""

from __future__ import annotations

import copy
import gc
import importlib
import itertools
import random
import tracemalloc
from collections import Counter
from decimal import Decimal
from typing import Optional

import pytest

from gmtannot import (
    AltSet,
    BOTH_DIFFER,
    BOTH_EQUAL,
    Bracket,
    DEDUP_IDENTICAL,
    FOLD_TO_ALT,
    Feature,
    GmtDocument,
    GmtSerializeError,
    IdTargets,
    KEEP_ALL,
    LandmarkEndpoints,
    MergeError,
    MergePolicy,
    ONLY_LEFT,
    ONLY_RIGHT,
    PositionalSpan,
    Relation,
    SegmentRef,
    StructNode,
    anchor_key,
    diff,
    merge,
    parse_gmt,
    serialize_gmt,
)
from gmtannot.merge import POLICIES, DiffEntry, _fingerprint, _scan, seg_key
from gmtannot.model import iter_items, replace
from conftest import FIXTURES, load_fixture
from randgen import deep_chain_text, deep_feature_text, deep_segless_text, random_document, random_mergeable_document


def single_node_doc(*features: Feature, target: str = "w1", doc_type: str = "W-level") -> GmtDocument:
    node = StructNode(type=doc_type, items=(SegmentRef(IdTargets((target,))),) + features)
    return GmtDocument(node)


def count_features(doc: GmtDocument) -> int:
    total = 0

    def eat_feature(feat: Feature) -> None:
        nonlocal total
        total += 1
        for sub in feat.nested or ():
            eat_feature(sub)

    def eat_items(items) -> None:
        for item in items:
            if isinstance(item, Feature):
                eat_feature(item)
            elif isinstance(item, AltSet):
                for bundle in item.alternatives:
                    for member in bundle:
                        if isinstance(member, Feature):
                            eat_feature(member)
                        else:
                            eat_node(member)
            elif isinstance(item, Bracket):
                eat_items(item.members)

    def eat_node(node: StructNode) -> None:
        eat_items(node.items)
        for child in node.children:
            eat_node(child)

    eat_node(doc.root)
    return total


# ---------------------------------------------------------------------------
# merge


def test_dedup_merge_is_idempotent_on_fixture():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert merge([doc, doc], MergePolicy(DEDUP_IDENTICAL)) == doc


def test_fold_reproduces_alternatives_shape():
    verb = single_node_doc(
        Feature(cat="lemma", text="boucher"),
        Feature(cat="pos", text="VERB"),
        Feature(cat="tense", text="present"),
        Feature(cat="confidence", text="0.4"),
    )
    noun = single_node_doc(
        Feature(cat="lemma", text="bouche"),
        Feature(cat="pos", text="NOUN"),
        Feature(cat="confidence", text="0.6"),
    )
    merged = merge([verb, noun], MergePolicy(FOLD_TO_ALT))
    expected, _ = parse_gmt(load_fixture("msannot_alternatives_bouche.xml"))
    assert merged == expected


def test_merge_disjoint_layers_keeps_everything():
    sentence, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    words = GmtDocument(replace(sentence.root, type="annot"))
    phrases = GmtDocument(
        StructNode(
            type="annot",
            children=(
                StructNode(
                    type="phrase",
                    items=(Feature(cat="synCat", text="NP"), SegmentRef(IdTargets(("w3", "w4")))),
                ),
            ),
        )
    )
    for policy in (KEEP_ALL, DEDUP_IDENTICAL, FOLD_TO_ALT):
        merged = merge([words, phrases], MergePolicy(policy))
        assert len(merged.root.children) == len(words.root.children) + len(phrases.root.children)


def test_merge_rejects_mixed_doc_types():
    a, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    b, _ = parse_gmt(load_fixture("msannot_fusion_du.xml"))
    with pytest.raises(MergeError, match="mixed document types"):
        merge([a, b])


@pytest.mark.parametrize("fill", ["NaN", "sNaN", "-NaN", "Infinity", "-0.1", "1.01"])
def test_merge_policy_refuses_a_fill_outside_the_unit_interval_with_value_error(fill):
    # A NaN used to escape the range test as decimal.InvalidOperation, which is no ValueError.
    with pytest.raises(ValueError, match="alt_confidence_fill"):
        MergePolicy(FOLD_TO_ALT, alt_confidence_fill=Decimal(fill))


@pytest.mark.parametrize("policy", POLICIES)
def test_merge_groups_nodes_whose_segments_differ_only_in_order(policy):
    # The anchor key sorts a node's segments, so both nodes address one anchor, for merge as for diff.
    span = SegmentRef(PositionalSpan(0, 5))
    ids = SegmentRef(IdTargets(("w1",)))
    noun = Feature(cat="pos", text="NOUN")
    first = StructNode(type="W-level", items=(ids, span, noun))
    second = StructNode(type="W-level", items=(span, ids, noun))
    a = GmtDocument(StructNode(type="annot", children=(first,)))
    b = GmtDocument(StructNode(type="annot", children=(second,)))
    warnings: list[str] = []
    merged = merge([a, b], MergePolicy(policy), warnings)
    assert warnings == []
    if policy == FOLD_TO_ALT:
        bundle = (noun, Feature(cat="confidence", text="0"))
        assert merged.root.children == (StructNode(type="W-level", items=(ids, span, AltSet((bundle, bundle)))),)
    else:  # dedup keeps both: their items differ in order
        assert merged.root.children == (first, second)
    assert diff(a, b).entries == (DiffEntry("ids:w1&span:0-5", BOTH_EQUAL, ""),)


def test_keep_all_conserves_features():
    rng = random.Random(59)
    for _ in range(50):
        docs = [random_mergeable_document(rng) for _ in range(rng.randint(2, 4))]
        merged = merge(docs, MergePolicy(KEEP_ALL))
        assert count_features(merged) == sum(count_features(d) for d in docs)


def test_keep_all_insensitive_to_permutation_up_to_ordering():
    rng = random.Random(61)
    for _ in range(30):
        docs = [random_mergeable_document(rng) for _ in range(3)]
        forward = merge(docs, MergePolicy(KEEP_ALL))
        backward = merge(list(reversed(docs)), MergePolicy(KEEP_ALL))

        def canon(doc: GmtDocument):
            return sorted((anchor_key(n), repr(n)) for n in doc.root.children)

        assert canon(forward) == canon(backward)


def test_dedup_merge_idempotent_on_random_documents():
    rng = random.Random(67)
    for _ in range(50):
        doc = random_mergeable_document(rng)
        assert merge([doc, doc], MergePolicy(DEDUP_IDENTICAL)) == doc


def test_fold_fills_missing_confidence():
    left = single_node_doc(Feature(cat="pos", text="VERB"))
    right = single_node_doc(Feature(cat="pos", text="NOUN"), Feature(cat="confidence", text="0.9"))
    merged = merge([left, right], MergePolicy(FOLD_TO_ALT, alt_confidence_fill=Decimal("0.5")))
    alts = next(i for i in merged.root.items if isinstance(i, AltSet))
    assert alts.alternatives[0] == (
        Feature(cat="pos", text="VERB"),
        Feature(cat="confidence", text="0.5"),
    )
    assert alts.alternatives[1] == (
        Feature(cat="pos", text="NOUN"),
        Feature(cat="confidence", text="0.9"),
    )


def test_fold_splices_existing_alternatives():
    bouche, _ = parse_gmt(load_fixture("msannot_alternatives_bouche.xml"))
    extra = single_node_doc(Feature(cat="pos", text="DET"), Feature(cat="confidence", text="0.1"))
    merged = merge([bouche, extra], MergePolicy(FOLD_TO_ALT))
    alts = next(i for i in merged.root.items if isinstance(i, AltSet))
    assert len(alts.alternatives) == 3


def test_fold_keeps_extras_in_per_source_brackets():
    left = single_node_doc(Feature(cat="pos", text="VERB"))
    right_node = StructNode(
        type="W-level",
        items=(
            SegmentRef(IdTargets(("w1",))),
            Feature(cat="pos", text="NOUN"),
            Relation(target="n7", rel_type="dep"),
        ),
    )
    right = GmtDocument(right_node)
    merged = merge([left, right], MergePolicy(FOLD_TO_ALT))
    node = merged.root
    brackets = [i for i in node.items if isinstance(i, Bracket)]
    assert brackets == [Bracket((Relation(target="n7", rel_type="dep"),))]


def test_fold_falls_back_for_nodes_with_children():
    child = StructNode(type="W-level", items=(SegmentRef(IdTargets(("w2",))),))
    left = GmtDocument(
        StructNode(type="W-level", items=(SegmentRef(IdTargets(("w1",))),), children=(child,))
    )
    right = single_node_doc(Feature(cat="pos", text="NOUN"))
    warnings: list[str] = []
    merged = merge([left, right], MergePolicy(FOLD_TO_ALT), warnings)
    # Both roots stay, side by side under a container root of the document type.
    assert merged.root == StructNode(type="W-level", children=(left.root, right.root))
    assert warnings and "fold" in warnings[0]


@pytest.mark.parametrize("policy", POLICIES)
def test_merge_of_anchored_roots_round_trips(policy):
    docs = [
        parse_gmt(load_fixture(name))[0]
        for name in ("msannot_alternatives_bouche.xml", "msannot_fusion_du.xml")
    ]
    merged = merge(docs, MergePolicy(policy))
    assert merged.root == StructNode(type="W-level", children=tuple(doc.root for doc in docs))
    text = serialize_gmt(merged)
    again, _ = parse_gmt(text)
    assert again == merged
    assert serialize_gmt(again) == text


@pytest.mark.parametrize("policy", POLICIES)
def test_a_root_whose_only_segment_is_in_a_bracket_is_aligned_as_an_anchored_root(policy):
    noun, verb = (
        StructNode(type="W-level", items=(Bracket((SegmentRef(IdTargets(("w1",))), Feature(cat="pos", text=pos))),))
        for pos in ("NOUN", "VERB")
    )
    warnings: list[str] = []
    merged = merge([GmtDocument(root) for root in (noun, noun, verb)], MergePolicy(policy), warnings)
    # fold-alt keeps each root's bracket, its segment included, as extras beside three empty bundles.
    folded = (AltSet(((Feature(cat="confidence", text="0"),),) * 3),) + tuple(
        Bracket((root.items[0],)) for root in (noun, noun, verb)
    )
    assert merged.root == {
        KEEP_ALL: StructNode(type="W-level", children=(noun, noun, verb)),
        DEDUP_IDENTICAL: StructNode(type="W-level", children=(noun, verb)),
        FOLD_TO_ALT: StructNode(type="W-level", items=folded),
    }[policy]
    assert warnings == []


@pytest.mark.parametrize("policy", POLICIES)
def test_a_segless_root_merged_with_an_anchored_root_is_keyed_by_its_children(policy):
    anchored = StructNode(type="W-level", items=(SegmentRef(IdTargets(("w1",))), Feature(cat="pos", text="NOUN")))
    segless = StructNode(type="W-level", children=(StructNode(type="morph", items=(SegmentRef(IdTargets(("w2",))),)),))
    warnings: list[str] = []
    merged = merge([GmtDocument(root) for root in (anchored, segless, segless)], MergePolicy(policy), warnings)
    kept = (anchored, segless) if policy == DEDUP_IDENTICAL else (anchored, segless, segless)
    assert merged.root == StructNode(type="W-level", children=kept)
    # The two segless roots share their folded key, which fold-alt names when it keeps them as they are.
    folded = "cannot fold nodes with children over anchor 'node:W%2Dlevel:(ids:w2)'; keeping all"
    assert warnings == ([folded] if policy == FOLD_TO_ALT else [])


def test_anchorless_nodes_pass_through_with_warning():
    bare = StructNode(type="W-level", items=(Feature(cat="lemma", text="x"),))
    doc = GmtDocument(StructNode(type="annot", children=(bare,)))
    warnings: list[str] = []
    merged = merge([doc, doc], MergePolicy(DEDUP_IDENTICAL), warnings)
    assert len(merged.root.children) == 2
    assert len(warnings) == 2


def test_segless_nodes_group_by_child_fingerprint():
    inner = StructNode(type="W-level", items=(SegmentRef(IdTargets(("w1",))),))
    wrapper = StructNode(type="phrase", children=(inner,))
    doc = GmtDocument(StructNode(type="annot", children=(wrapper,)))
    merged = merge([doc, doc], MergePolicy(DEDUP_IDENTICAL))
    assert merged == doc


# ---------------------------------------------------------------------------
# diff


def test_diff_identical_documents():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    report = diff(doc, doc)
    assert report.all_equal
    assert len(report.entries) == 4
    assert all(e.status == BOTH_EQUAL for e in report.entries)


def test_diff_single_edit_names_the_category():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    target = doc.root.children[1]
    edited_items = tuple(
        replace(item, text="NOUN")
        if isinstance(item, Feature) and item.cat == "pos"
        else item
        for item in target.items
    )
    edited = GmtDocument(
        replace(doc.root, children=(doc.root.children[0], replace(target, items=edited_items)) + doc.root.children[2:])
    )
    report = diff(doc, edited)
    differing = [e for e in report.entries if e.status == BOTH_DIFFER]
    assert len(differing) == 1
    assert differing[0].anchor == "ids:w2"
    assert "pos" in differing[0].detail
    assert "VERB" in differing[0].detail and "NOUN" in differing[0].detail
    assert sum(1 for e in report.entries if e.status != BOTH_EQUAL) == 1


def test_diff_against_empty_is_only_left():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    empty = GmtDocument(StructNode(type="MSAnnot"))
    report = diff(doc, empty)
    assert len(report.entries) == 4
    assert all(e.status == ONLY_LEFT for e in report.entries)
    assert not report.all_equal


def test_diff_mirror_symmetry():
    rng = random.Random(71)
    swap = {ONLY_LEFT: ONLY_RIGHT, ONLY_RIGHT: ONLY_LEFT, BOTH_EQUAL: BOTH_EQUAL, BOTH_DIFFER: BOTH_DIFFER}
    for _ in range(50):
        a = random_mergeable_document(rng)
        b = random_mergeable_document(rng)
        forward = {e.anchor: e.status for e in diff(a, b).entries}
        backward = {e.anchor: e.status for e in diff(b, a).entries}
        assert backward == {key: swap[status] for key, status in forward.items()}


def test_diff_covers_every_anchored_node_once():
    rng = random.Random(73)
    for _ in range(30):
        a = random_mergeable_document(rng)
        b = random_mergeable_document(rng)
        report = diff(a, b)
        keys = [e.anchor for e in report.entries]
        assert len(keys) == len(set(keys))
        expected = {anchor_key(n) for doc in (a, b) for n in doc.root.children}
        assert set(keys) == expected


def test_diff_rendering_is_sorted_and_tab_separated():
    left = GmtDocument(
        StructNode(
            type="annot",
            children=(
                StructNode(type="W-level", items=(SegmentRef(IdTargets(("b",))), Feature(cat="pos", text="X"))),
                StructNode(type="W-level", items=(SegmentRef(IdTargets(("a",))),)),
            ),
        )
    )
    right = GmtDocument(StructNode(type="annot"))
    lines = diff(left, right).render().splitlines()
    assert lines == [
        f"{ONLY_LEFT}\tids:a\t1 node(s) of type W-level",
        f"{ONLY_LEFT}\tids:b\t1 node(s) of type W-level",
    ]


def test_diff_of_a_deep_segless_chain_stays_small():
    # A chain of segless nodes below an anchored node is fingerprinted as
    # nested multisets, whose size grows linearly with the depth.
    chain = StructNode(type="c", items=(Feature(cat="lemma", text="it's \"x\""),))
    for _ in range(17):
        chain = StructNode(type="c", items=(Feature(cat="lemma", text="it's \"x\""),), children=(chain,))
    doc = GmtDocument(StructNode(type="W-level", items=(SegmentRef(IdTargets(("w1",))),), children=(chain,)))
    tracemalloc.start()
    try:
        report = diff(doc, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_equal and len(report.entries) == 1
    assert peak < 5_000_000


# ---------------------------------------------------------------------------
# anchor keys


def _anchored_doc(addr) -> GmtDocument:
    word = StructNode(type="W-level", items=(SegmentRef(addr), Feature(cat="pos", text="NOUN")))
    return GmtDocument(StructNode(type="annot", children=(word,)))


@pytest.mark.parametrize(
    "left, right",
    [
        (LandmarkEndpoints("a-b", "c"), LandmarkEndpoints("a", "b-c")),
        (IdTargets(("a,b",)), IdTargets(("a", "b"))),
    ],
    ids=["landmark-dash", "id-comma"],
)
def test_distinct_addressing_gets_distinct_anchor_keys(left, right):
    report = diff(_anchored_doc(left), _anchored_doc(right))
    assert len(report.entries) == 2
    assert not report.all_equal


def _escaped(text: str) -> str:
    return "".join(f"%{ord(c):02X}" if c in "%,-&;:()" else c for c in text)


@pytest.mark.parametrize("char", list("%,-&;:()"))
def test_a_one_id_key_is_spelled_as_the_general_form(char):
    target = f"a{char}b{char}"
    general = "ids:" + ",".join(sorted(map(_escaped, (target,))))
    assert general == f"ids:a%{ord(char):02X}b%{ord(char):02X}"
    seg = SegmentRef(IdTargets((target,)))
    assert seg_key(seg) == general
    assert anchor_key(StructNode(type="W-level", items=(seg,))) == general


def test_one_id_keys_join_sort_and_never_meet_multi_id_keys():
    def ids(*targets: str) -> SegmentRef:
        return SegmentRef(IdTargets(targets))

    assert anchor_key(StructNode(type="W-level", items=(ids("b"), ids("a")))) == "ids:a&ids:b"
    assert seg_key(ids("a", "a")) == "ids:a,a" != seg_key(ids("a"))
    names = ["a", "b", "a,b", "b,a", "a%2Cb", "a,", ",b", "%", "a&ids:b"]
    one = {seg_key(ids(name)) for name in names}
    multi = {seg_key(ids(*pair)) for pair in itertools.permutations(names, 2)}
    assert len(one) == len(names) and not one & multi


def test_segless_anchor_keys_nest_and_escape():
    def word(target: str) -> StructNode:
        return StructNode(type="W-level", items=(SegmentRef(IdTargets((target,))),))

    nested = StructNode(type="t", children=(StructNode(type="u", children=(word("a"),)),))
    flat = StructNode(type="t:node:u", children=(word("a"),))
    # Unbracketed and unescaped, both keys would read node:t:node:u:ids:a.
    assert anchor_key(nested) == "node:t:(node:u:(ids:a))"
    assert anchor_key(flat) == "node:t%3Anode%3Au:(ids:a)"
    assert anchor_key(StructNode(type="t", children=(StructNode(type="u"),))) is None


# ---------------------------------------------------------------------------
# deep nesting, exact order-blind fingerprints and one scan per node


@pytest.mark.parametrize("make", [deep_segless_text, deep_feature_text], ids=["segless-chain", "nested-feature"])
def test_diff_handles_3000_deep_nesting(make):
    left, right = parse_gmt(make(3000))[0], parse_gmt(make(3000))[0]
    assert [(e.status, e.anchor) for e in diff(left, right).entries] == [(BOTH_EQUAL, "ids:w1")]
    # The deepest value still counts.
    edited = parse_gmt(make(3000, leaf="END"))[0]
    assert [(e.status, e.anchor, e.detail) for e in diff(left, edited).entries] == [
        (BOTH_DIFFER, "ids:w1", "structure differs")
    ]


@pytest.mark.parametrize("policy", [KEEP_ALL, FOLD_TO_ALT])
def test_merge_of_an_anchored_node_over_a_3000_deep_chain(policy):
    docs = [parse_gmt(deep_segless_text(3000))[0] for _ in range(2)]
    warnings: list[str] = []
    merged = merge(docs, MergePolicy(policy), warnings)
    assert merged.root.type == "W-level"
    assert [child is doc.root for child, doc in zip(merged.root.children, docs)] == [True, True]
    folded = ["cannot fold nodes with children over anchor 'ids:w1'; keeping all"]
    assert warnings == ([] if policy == KEEP_ALL else folded)


def _reference_statuses(left: GmtDocument, right: GmtDocument) -> dict[str, str]:
    """diff's statuses from a direct recursive reading of its rules, for shallow documents."""

    def bag(values) -> frozenset:
        return frozenset(Counter(values).items())

    def feature(feat: Feature) -> tuple:
        if feat.target is not None:
            return ("feat", feat.cat, "@", feat.target)
        if feat.nested is not None:
            return ("feat", feat.cat, bag(map(feature, feat.nested)))
        return ("feat", feat.cat, feat.text or "")

    def member(node: StructNode) -> tuple:
        return ("anchored",) if anchored(node) else fingerprint(node)

    def fingerprint(node: StructNode) -> tuple:
        items = []
        for item in iter_items(node):
            if isinstance(item, Feature):
                items.append(feature(item))
            elif isinstance(item, AltSet):
                bundles = (
                    bag(feature(m) if isinstance(m, Feature) else member(m) for m in b) for b in item.alternatives
                )
                items.append(("alt", bag(bundles)))
            elif isinstance(item, Relation):
                items.append(("rel", item.rel_type or "", item.target))
            elif isinstance(item, SegmentRef):
                items.append(("seg", seg_key(item)))
        return (node.type or "", bag(items), bag(map(member, node.children)))

    def anchored(node: StructNode) -> bool:
        return any(isinstance(item, SegmentRef) for item in iter_items(node))

    def groups(doc: GmtDocument) -> dict[str, list[StructNode]]:
        found: dict[str, list[StructNode]] = {}
        for _, node in doc.walk():
            if anchored(node):
                found.setdefault(anchor_key(node), []).append(node)
        return found

    lhs, rhs = groups(left), groups(right)
    statuses = {}
    for key in set(lhs) | set(rhs):
        if key not in rhs:
            statuses[key] = ONLY_LEFT
        elif key not in lhs:
            statuses[key] = ONLY_RIGHT
        else:
            equal = bag(map(fingerprint, lhs[key])) == bag(map(fingerprint, rhs[key]))
            statuses[key] = BOTH_EQUAL if equal else BOTH_DIFFER
    return statuses


def _reversed_node(node: StructNode) -> StructNode:
    """The node with its items, bundles, bracket members, nested features and children reversed at every level."""

    def member(m):
        return _reversed_node(m) if isinstance(m, StructNode) else item(m)

    def item(it):
        if isinstance(it, AltSet):
            return AltSet(tuple(tuple(map(member, reversed(b))) for b in reversed(it.alternatives)))
        if isinstance(it, Bracket):
            return Bracket(tuple(map(item, reversed(it.members))))
        if isinstance(it, Feature) and it.nested is not None:
            return replace(it, nested=tuple(map(item, reversed(it.nested))))
        return it

    return replace(
        node,
        items=tuple(map(item, reversed(node.items))),
        children=tuple(map(_reversed_node, reversed(node.children))),
    )


def _edit_leaf(
    node: StructNode, target: int, seen: list, field: str = "text", anchor: Optional[str] = None
) -> StructNode:
    """The node with the text (or another ``field``) of its ``target``-th leaf feature changed.

    ``seen`` counts leaf features in its first slot and receives, in its
    second, the key of the edited feature's nearest anchored ancestor.
    """
    if any(isinstance(it, SegmentRef) for it in iter_items(node)):
        anchor = anchor_key(node)

    def member(m):
        return _edit_leaf(m, target, seen, field, anchor) if isinstance(m, StructNode) else item(m)

    def item(it):
        if isinstance(it, AltSet):
            return AltSet(tuple(tuple(map(member, b)) for b in it.alternatives))
        if isinstance(it, Bracket):
            return Bracket(tuple(map(item, it.members)))
        if isinstance(it, Feature) and it.target is None and it.nested is not None:
            return replace(it, nested=tuple(map(item, it.nested)))
        if isinstance(it, Feature) and it.target is None:
            seen[0] += 1
            if seen[0] == target:
                seen[1] = anchor
                return replace(it, **{field: (getattr(it, field) or "") + "~"})
        return it

    return replace(node, items=tuple(map(item, node.items)), children=tuple(member(c) for c in node.children))


def test_diff_is_exact_and_blind_to_order():
    rng = random.Random(2009)
    edits_seen = Counter()
    for k in range(300):
        make = random_document if k % 2 else random_mergeable_document
        doc, other = make(rng), make(rng)
        swapped = GmtDocument(_reversed_node(doc.root))
        assert diff(doc, swapped).all_equal
        leaves: list = [0, None]
        _edit_leaf(doc.root, 0, leaves)
        edit: list = [0, None]
        field = "text" if k % 3 else "cat"
        edited = GmtDocument(_edit_leaf(doc.root, rng.randint(1, leaves[0]) if leaves[0] else 0, edit, field))
        changed = [(e.status, e.anchor) for e in diff(doc, edited).entries if e.status != BOTH_EQUAL]
        assert changed == ([] if edit[1] is None else [(BOTH_DIFFER, edit[1])])
        edits_seen[edit[1] is not None] += 1
        for left, right in ((doc, other), (doc, edited), (swapped, edited), (other, swapped)):
            assert {e.anchor: e.status for e in diff(left, right).entries} == _reference_statuses(left, right)
    assert edits_seen[True] >= 150 and edits_seen[False] >= 10


def test_diff_and_merge_scan_each_node_once(monkeypatch):
    merge_module = importlib.import_module("gmtannot.merge")
    scans: Counter = Counter()
    real_iter_items = merge_module.iter_items

    def counting_iter_items(node):
        scans[id(node)] += 1
        return real_iter_items(node)

    monkeypatch.setattr(merge_module, "iter_items", counting_iter_items)
    rng = random.Random(83)
    for _ in range(40):
        left, right = random_document(rng), random_document(rng)
        # Each first call runs on deep copies, which no earlier call has keyed.
        cold = copy.deepcopy((left, right))
        nodes = {id(node) for doc in cold for _, node in doc.walk()}
        scans.clear()
        diff(*cold)
        assert set(scans) == nodes and set(scans.values()) == {1}
        for policy in POLICIES:
            cold = copy.deepcopy((left, right))
            nodes = {id(node) for doc in cold for _, node in doc.walk()}
            scans.clear()
            merge(list(cold), MergePolicy(policy))
            assert set(scans) <= nodes and set(scans.values()) == {1}
            assert {id(child) for doc in cold for child in doc.root.children} <= set(scans)
        # Repeat calls on keyed documents: merge passes no node with segments to iter_items,
        # and diff, whose fingerprints come from a per-call table, still scans each node once.
        nodes = {id(node): node for doc in (left, right) for _, node in doc.walk()}
        merge([left, right])
        for policy in POLICIES:
            scans.clear()
            merge([left, right], MergePolicy(policy))
            assert not any(type(item) is SegmentRef for key in scans for item in real_iter_items(nodes[key]))
        scans.clear()
        diff(left, right)
        assert set(scans) == set(nodes) and set(scans.values()) == {1}


def test_a_scan_with_a_table_builds_no_key_for_nodes_without_segments(monkeypatch):
    # Keys folded from children's keys grow with the square of the depth;
    # diff reads only the keys of nodes with segments.  Spelling a node's
    # folded key escapes its type, so no escape means no such key was built.
    merge_module = importlib.import_module("gmtannot.merge")
    escaped: list[str] = []
    monkeypatch.setattr(merge_module, "_escape", lambda text: escaped.append(text) or text)
    doc, _ = parse_gmt(deep_chain_text(3000))
    found = _fingerprint(doc.root, {})
    assert escaped == []
    assert list(found) == ["span:0-1"] and [node.id for _, node in found["span:0-1"]] == ["leaf"]
    assert sum(map(len, found)) < 100
    # The merge's scan folds the same chain's key up to the root, escaping each segless node's type once.
    assert _scan([doc.root])[0].startswith("node:chain:(node:chain:(") and len(escaped) == 3000


def _has_segments(node: StructNode) -> bool:
    return any(type(item) is SegmentRef for item in iter_items(node))


def _merge_outcome(left: GmtDocument, right: GmtDocument, policy: str) -> tuple[str, list[str]]:
    warnings: list[str] = []
    try:
        written = serialize_gmt(merge([left, right], MergePolicy(policy), warnings))
    except (MergeError, GmtSerializeError) as exc:
        written = f"{type(exc).__name__}: {exc}"
    return written, warnings


def test_keyed_documents_give_what_fresh_copies_give():
    rng = random.Random(61)
    pairs = [(random_document(rng), random_document(rng)) for _ in range(30)]
    pairs += [(random_mergeable_document(rng), random_mergeable_document(rng, id_prefix="m")) for _ in range(30)]
    names = sorted(path.name for path in FIXTURES.glob("*.xml") if path.name != "annotation_graph.xml")
    fixtures = {name: load_fixture(name) for name in names}
    pairs += [(parse_gmt(fixtures[a])[0], parse_gmt(fixtures[b])[0]) for a, b in itertools.product(names, repeat=2)]
    calls = [lambda left, right, policy=policy: _merge_outcome(left, right, policy) for policy in POLICIES]
    calls += [
        lambda left, right: diff(left, right).render(),
        lambda left, right: [anchor_key(node) for doc in (left, right) for _, node in doc.walk()],
    ]
    for left, right in pairs:
        warm_up = [calls[-1], calls[-2], calls[rng.randrange(len(POLICIES))]]
        rng.shuffle(warm_up)
        for call in warm_up:
            call(left, right)
        # A merge through a container root, and no other call, leaves each document keeping its children's keys.
        if left.doc_type == right.doc_type and not any(_has_segments(doc.root) for doc in (left, right)):
            assert all(doc._child_keys == [anchor_key(child) for child in doc.root.children] for doc in (left, right))
        else:
            assert not any(hasattr(doc, "_child_keys") for doc in (left, right))
        for call in calls:
            assert call(left, right) == call(*copy.deepcopy((left, right)))


@pytest.mark.parametrize("make", [deep_segless_text, deep_chain_text], ids=["segless-chain", "chain"])
def test_the_keys_kept_on_deep_chains_stay_linear_in_the_depth(make):
    # A document keeps its children's keys, whose folded text grows with the depth; keeping a key at
    # every level of the chain would hold the square of the depth in characters.
    depth = 3000
    left, right = parse_gmt(make(depth))[0], parse_gmt(make(depth))[0]
    anchor_key(left.root)
    anchor_key(left.root.children[0])  # a segless node in both documents, whose key folds the chain below it
    diff(left, right)
    for policy in (KEEP_ALL, FOLD_TO_ALT):  # dedup recurses through record equality: ROADMAP item 1
        merge([left, right], MergePolicy(policy))
    for doc in (left, right):
        assert sum(len(key or "") for key in getattr(doc, "_child_keys", ())) < 20 * depth


def test_diff_merge_and_write_leave_no_cyclic_garbage():
    # Each call's tables die with the call, by reference counting: a closure that reached
    # itself would keep a diff's whole intern table alive until the cyclic collector ran.
    rng = random.Random(29)
    pairs = [(random_document(rng), random_document(rng)) for _ in range(20)]
    pairs += [(random_mergeable_document(rng), random_mergeable_document(rng, id_prefix="m")) for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        for left, right in pairs:
            diff(left, right)
            for policy in POLICIES:
                try:
                    serialize_gmt(merge([left, right], MergePolicy(policy)))
                except GmtSerializeError:
                    pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# grouping, warnings and argument errors


def anchored(*segs, children=(), **features: str) -> StructNode:
    items = tuple(SegmentRef(addr) for addr in segs)
    items += tuple(Feature(cat=cat, text=text) for cat, text in features.items())
    return StructNode(type="W-level", items=items, children=children)


def container(*children: StructNode) -> GmtDocument:
    return GmtDocument(StructNode(type="annot", children=children))


W1, LM, SPAN = IdTargets(("w1",)), LandmarkEndpoints("a", "b"), PositionalSpan(0, 4)


def test_fold_folds_three_segment_orders_after_warning_on_an_earlier_group():
    # One key, its three segments listed in three orders; the w9 group comes
    # first and has a node with children, so fold-alt warns and keeps it whole.
    w9 = IdTargets(("w9",))
    nested = anchored(w9, children=(anchored(IdTargets(("w8",))),))
    plain_w9 = anchored(w9, pos="N")
    docs = [
        container(nested, anchored(W1, LM, SPAN, pos="N")),
        container(plain_w9, anchored(LM, SPAN, W1, pos="V")),
        container(anchored(SPAN, W1, LM, pos="A")),
    ]
    warnings: list[str] = []
    merged = merge(docs, MergePolicy(FOLD_TO_ALT), warnings)
    assert warnings == ["cannot fold nodes with children over anchor 'ids:w9'; keeping all"]
    zero = Feature(cat="confidence", text="0")
    bundles = tuple((Feature(cat="pos", text=pos), zero) for pos in "NVA")
    segments = tuple(SegmentRef(addr) for addr in (W1, LM, SPAN))
    folded = StructNode(type="W-level", items=segments + (AltSet(bundles),))
    assert merged.root.children == (nested, plain_w9, folded)


def test_segment_reversed_copies_form_one_group_per_diff_key_under_every_policy():
    # Two-segment nodes of two distinct addressing kinds, against copies with their segments
    # reversed, so the first segment's kind always differs between a node and its copy.
    rng = random.Random(25)
    kinds = [
        lambda: IdTargets((rng.choice(["w1", "w2", "w3"]),)),
        lambda: PositionalSpan(rng.randint(0, 3), rng.randint(4, 6)),
        lambda: LandmarkEndpoints(rng.choice("ab"), rng.choice("cd")),
    ]
    for _ in range(200):
        nodes = [anchored(*(kind() for kind in rng.sample(kinds, 2)), pos=rng.choice("NV"))
                 for _ in range(rng.randint(1, 4))]
        copies = [replace(node, items=node.items[1::-1] + node.items[2:]) for node in nodes]
        left, right = container(*nodes), container(*rng.sample(copies, len(copies)))
        keys = [entry.anchor for entry in diff(left, right).entries]
        for policy in POLICIES:
            children = merge([left, right], MergePolicy(policy)).root.children
            # Each key's nodes come out side by side: one run of equal keys per group.
            assert sorted(key for key, _ in itertools.groupby(map(anchor_key, children))) == keys
            if policy == FOLD_TO_ALT:
                assert len(children) == len(keys)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_node_without_anchor_keeps_its_place_between_groups(policy):
    first, bare, last = anchored(W1, pos="N"), StructNode(type="W-level"), anchored(SPAN, pos="V")
    again = anchored(W1, pos="N")
    warnings: list[str] = []
    merged = merge([container(first, bare, last), container(again)], MergePolicy(policy), warnings)
    folded = {KEEP_ALL: (first, again), DEDUP_IDENTICAL: (first,)}.get(policy)
    if folded is None:
        assert isinstance(merged.root.children[0].items[-1], AltSet)
        assert merged.root.children[1:] == (bare, last)
    else:
        assert merged.root.children == folded + (bare, last)
    assert warnings == ["node of type 'W-level' has no anchor; kept as-is regardless of policy"]


def test_fold_keeps_a_node_mixing_loose_features_with_alternatives():
    mixed = StructNode(type="W-level", items=(
        SegmentRef(W1), Feature(cat="lemma", text="x"),
        AltSet(((Feature(cat="pos", text="N"),), (Feature(cat="pos", text="V"),))),
    ))
    plain = anchored(W1, pos="A")
    warnings: list[str] = []
    merged = merge([container(plain), container(mixed)], MergePolicy(FOLD_TO_ALT), warnings)
    assert merged.root.children == (plain, mixed)
    assert warnings == [
        "cannot fold a node mixing loose features with alternatives over anchor 'ids:w1'; keeping all"
    ]


def test_diff_counts_nodes_when_one_side_has_more_under_a_key():
    left = container(anchored(W1, pos="N"))
    right = container(anchored(W1, pos="N"), anchored(W1, pos="V"))
    assert diff(left, right).entries == (DiffEntry("ids:w1", BOTH_DIFFER, "pos:+V count:1!=2"),)


def test_merge_of_no_documents_and_an_unknown_policy_are_refused():
    with pytest.raises(MergeError, match="^nothing to merge$"):
        merge([])
    with pytest.raises(ValueError, match="^unknown policy 'bogus'; pick one of"):
        MergePolicy("bogus")
