"""Segment resolution: temporal, event-based and object-based anchoring."""

from __future__ import annotations

import random

import pytest

from gmtannot import (
    AltSet,
    AnchorError,
    Bracket,
    Feature,
    GmtDocument,
    IdTargets,
    InvertedSpanError,
    LandmarkEndpoints,
    PositionalSpan,
    SegmentRef,
    StructNode,
    Token,
    TokenIndex,
    TokenIndexError,
    UnresolvedTargetError,
    build_landmark_table,
    derived_extent,
    load_token_index,
    parse_gmt,
    resolve_seg,
    tokenize_whitespace,
    validate_structure,
)
from gmtannot import model
from conftest import load_fixture
from randgen import (
    DocBuilder,
    deep_chain_text,
    random_anchored_tree,
    random_landmark_table,
    random_token_index,
)

SENTENCE = "Paul aime les croissants"


# ---------------------------------------------------------------------------
# token index


def test_tokenize_whitespace_offsets():
    # Oracle: manual character count over the sentence.
    index = tokenize_whitespace(SENTENCE)
    assert index.entries == (
        Token("w1", 0, 4),
        Token("w2", 5, 9),
        Token("w3", 10, 13),
        Token("w4", 14, 24),
    )
    assert SENTENCE[5:9] == "aime"
    assert index.get("w2") == Token("w2", 5, 9)
    assert index.get("w5") is None


def test_tokenize_spans_are_ordered_and_disjoint():
    rng = random.Random(3)
    texts = [SENTENCE, "a  b\tc\nd", "  leading and trailing  ", "word"]
    for _ in range(30):
        texts.append(" ".join(rng.choice(["aa", "b", "ccc", "dd"]) for _ in range(rng.randint(1, 8))))
    for text in texts:
        index = tokenize_whitespace(text)
        previous_end = None
        for token in index.entries:
            assert token.start <= token.end
            if previous_end is not None:
                assert token.start >= previous_end
            previous_end = token.end


def test_load_token_index_matches_fixture():
    index = load_token_index(load_fixture("msannot_sentence.tokens"))
    assert index.entries == tokenize_whitespace(SENTENCE).entries


def test_load_token_index_rejects_bad_lines():
    with pytest.raises(TokenIndexError):
        load_token_index("w1\t0")
    with pytest.raises(TokenIndexError):
        load_token_index("w1\t0\tabc")
    with pytest.raises(TokenIndexError):
        load_token_index("w1\t0\t4\nw1\t5\t9")
    with pytest.raises(TokenIndexError):
        load_token_index("w1\t7\t4")


# ---------------------------------------------------------------------------
# landmark table


def test_landmark_table_from_fixture():
    doc, _ = parse_gmt(load_fixture("landmark_desc.xml"))
    assert build_landmark_table(doc) == {"0": 0, "1": 2360, "2": 5200}


def test_landmark_table_ignores_other_nodes():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert build_landmark_table(doc) == {}


def test_landmark_table_size_equals_landmark_count():
    rng = random.Random(5)
    for _ in range(20):
        landmark_count = rng.randint(0, 6)
        children = [
            StructNode(type="landmark", id=f"lm{k}", items=(Feature(cat="position", text=str(k * 10)),))
            for k in range(landmark_count)
        ]
        children += [StructNode(type="W-level", id=f"w{k}") for k in range(rng.randint(0, 4))]
        rng.shuffle(children)
        doc = GmtDocument(StructNode(type="landmarkDesc", children=tuple(children)))
        # Oracle: count of landmark-typed nodes.
        assert len(build_landmark_table(doc)) == landmark_count


def test_landmark_errors_name_the_node():
    no_id = GmtDocument(
        StructNode(type="landmarkDesc", children=(StructNode(type="landmark"),))
    )
    with pytest.raises(AnchorError, match="/struct"):
        build_landmark_table(no_id)
    bad_position = GmtDocument(
        StructNode(
            type="landmarkDesc",
            children=(StructNode(type="landmark", id="0", items=(Feature(cat="position", text="x"),)),),
        )
    )
    with pytest.raises(AnchorError, match="not an integer"):
        build_landmark_table(bad_position)


NESTED_LANDMARK = """<struct type="landmarkDesc">
  <struct type="group">
    <alt><struct type="landmark" id="a"><feat type="position">1</feat></struct></alt>
    <alt><struct type="landmark"{attrs}><feat type="position">{position}</feat></struct></alt>
  </struct>
</struct>"""


@pytest.mark.parametrize(
    "attrs, position, message",
    [
        ("", "5", "landmark at /struct[1]/struct[1]/alt[2]/struct[1] has no id"),
        (' id="a"', "5", "duplicate landmark id 'a' at /struct[1]/struct[1]/alt[2]/struct[1]"),
        (' id="b"', "x", "landmark 'b' at /struct[1]/struct[1]/alt[2]/struct[1]: position 'x' is not an integer"),
    ],
    ids=["no-id", "duplicate", "bad-position"],
)
def test_landmark_errors_inside_an_alternative_name_the_walk_path(attrs, position, message):
    doc, _ = parse_gmt(NESTED_LANDMARK.format(attrs=attrs, position=position))
    nested = doc.root.children[0].items[0].alternatives[1][0]
    assert [path for path, node in doc.walk() if node is nested] == ["/struct[1]/struct[1]/alt[2]/struct[1]"]
    with pytest.raises(AnchorError) as exc:
        build_landmark_table(doc)
    assert str(exc.value) == message


def test_a_landmark_shared_at_several_places_is_named_at_the_place_that_fails():
    # One node object at three places: the table meets it again at the second, and names that place.
    lm = StructNode(type="landmark", id="a", items=(Feature(cat="position", text="1"),))
    alts = AltSet(((lm,), (Feature(cat="pos", text="x"),)))
    group = StructNode(type="group", items=(Bracket((Feature(cat="note", text="n"),)), alts), children=(lm,))
    doc = GmtDocument(StructNode(type="landmarkDesc", children=(lm, group)))
    paths = [path for path, node in doc.walk() if node is lm]
    assert paths == ["/struct[1]/struct[1]", "/struct[1]/struct[2]/alt[1]/struct[1]", "/struct[1]/struct[2]/struct[1]"]
    with pytest.raises(AnchorError) as exc:
        build_landmark_table(doc)
    assert str(exc.value) == f"duplicate landmark id 'a' at {paths[1]}"


# ---------------------------------------------------------------------------
# resolve_seg


def test_resolve_positional_is_identity():
    span = resolve_seg(SegmentRef(PositionalSpan(2300, 3200)))
    assert (span.layer, span.start, span.end) == ("primary", 2300, 3200)
    assert span.is_span


def test_resolve_tokens_covering_span():
    index = tokenize_whitespace(SENTENCE)
    span = resolve_seg(SegmentRef(IdTargets(("w2",))), tokens=index)
    assert (span.start, span.end) == (5, 9)
    multi = resolve_seg(SegmentRef(IdTargets(("w3", "w1"))), tokens=index)
    assert (multi.start, multi.end) == (0, 13)


def test_resolve_landmarks():
    doc, _ = parse_gmt(load_fixture("landmark_desc.xml"))
    table = build_landmark_table(doc)
    span = resolve_seg(SegmentRef(LandmarkEndpoints("1", "2")), landmarks=table)
    assert (span.start, span.end) == (2360, 5200)
    again = resolve_seg(SegmentRef(LandmarkEndpoints("1", "2")), landmarks=table)
    assert again == span


def test_resolve_inverted_landmarks():
    with pytest.raises(InvertedSpanError):
        resolve_seg(SegmentRef(LandmarkEndpoints("b", "a")), landmarks={"a": 1, "b": 5})


def test_resolve_refuses_an_inverted_positional_span_in_the_validators_words():
    seg = SegmentRef(PositionalSpan(5, 2))
    with pytest.raises(InvertedSpanError) as exc:
        resolve_seg(seg)
    findings = validate_structure(GmtDocument(StructNode(type="W-level", items=(seg,)))).findings
    assert [(f.code, f.message) for f in findings] == [("INVERTED_SPAN", str(exc.value))]
    assert str(exc.value) == "span starts at 5 after its end 2"
    empty = resolve_seg(SegmentRef(PositionalSpan(4, 4)))  # an empty span is no inverted one
    assert (empty.layer, empty.start, empty.end) == ("primary", 4, 4)


def test_derived_extent_raises_or_skips_an_inverted_positional_span():
    node = StructNode(
        items=(SegmentRef(PositionalSpan(5, 2)),),
        children=(StructNode(items=(SegmentRef(PositionalSpan(3, 8)),)),),
    )
    with pytest.raises(InvertedSpanError, match="^span starts at 5 after its end 2$"):
        derived_extent(node)
    warnings: list[str] = []
    assert derived_extent(node, strict=False, warnings=warnings) == (3, 8)
    assert warnings == ["span starts at 5 after its end 2"]


def test_resolve_object_based():
    morph, _ = parse_gmt(load_fixture("morph_le_chat.xml"))
    span = resolve_seg(
        SegmentRef(IdTargets(("w3.2", "w4"))), layers={"morph": morph}
    )
    assert span.layer == "morph"
    assert span.target_nodes == ("w3.2", "w4")
    assert span.start is None
    assert not span.is_span


def test_resolve_unknown_target_names_the_id():
    index = tokenize_whitespace(SENTENCE)
    with pytest.raises(UnresolvedTargetError) as exc:
        resolve_seg(SegmentRef(IdTargets(("w2", "zz"))), tokens=index)
    assert exc.value.target == "zz"
    with pytest.raises(UnresolvedTargetError) as exc:
        resolve_seg(SegmentRef(LandmarkEndpoints("0", "9")), landmarks={"0": 0})
    assert exc.value.target == "9"


def _layer(*ids: str) -> GmtDocument:
    return GmtDocument(
        StructNode(type="MSAnnot", children=tuple(StructNode(type="W-level", id=i) for i in ids))
    )


def test_resolve_layer_walks_each_layer_document_once(monkeypatch):
    layer = _layer(*(f"n{i}" for i in range(100)))
    walks: list[int] = []
    real_walk = model._nodes

    def counting_walk(doc):
        walks.append(id(doc))
        return real_walk(doc)

    # find_node indexes a document with one _nodes walk; the layer lookup goes through it.
    monkeypatch.setattr(model, "_nodes", counting_walk)
    for i in range(50):
        seg = SegmentRef(IdTargets((f"n{2 * i}", f"n{2 * i + 1}")))
        span = resolve_seg(seg, layers={"words": layer})
        assert span.target_nodes == (f"n{2 * i}", f"n{2 * i + 1}")
    assert walks == [id(layer)]


def test_resolve_layer_first_layer_in_mapping_order_wins():
    seg = SegmentRef(IdTargets(("a", "b")))
    first, second = _layer("a", "b"), _layer("b", "a", "c")
    assert resolve_seg(seg, layers={"one": first, "two": second}).layer == "one"
    assert resolve_seg(seg, layers={"two": second, "one": first}).layer == "two"


def test_resolve_layer_reaches_nodes_inside_alternatives():
    doc, _ = parse_gmt(
        '<struct type="MSAnnot">'
        '<struct type="W-level" id="w1">'
        '<alt><feat type="pos">NOUN</feat><struct type="morph" id="m1"/></alt>'
        '<alt><feat type="pos">VERB</feat><struct type="morph" id="m2"/></alt>'
        "</struct></struct>"
    )
    span = resolve_seg(SegmentRef(IdTargets(("m2", "w1", "m1"))), layers={"morph": doc})
    assert span.layer == "morph"
    assert span.target_nodes == ("m2", "w1", "m1")


def test_resolve_targets_split_across_layers_names_the_first_id():
    layers = {"one": _layer("a"), "two": _layer("b")}
    with pytest.raises(UnresolvedTargetError) as exc:
        resolve_seg(SegmentRef(IdTargets(("b", "a"))), layers=layers)
    assert exc.value.target == "b"


def test_resolve_unresolved_names_first_id_found_nowhere():
    index = tokenize_whitespace(SENTENCE)
    layers = {"one": _layer("a"), "two": _layer("b")}
    with pytest.raises(UnresolvedTargetError) as exc:
        resolve_seg(
            SegmentRef(IdTargets(("w1", "b", "zz", "a", "yy"))), tokens=index, layers=layers
        )
    assert exc.value.target == "zz"


# ---------------------------------------------------------------------------
# derived_extent


def test_derived_extent_compound():
    # Oracle: whitespace tokenization of the compound's surface form.
    index = tokenize_whitespace("pomme de terre")
    assert index.entries == (Token("w1", 0, 5), Token("w2", 6, 8), Token("w3", 9, 14))
    doc, _ = parse_gmt(load_fixture("msannot_compound_pomme.xml"))
    assert derived_extent(doc.root, tokens=index) == (0, 14)


def test_derived_extent_absent_for_bare_leaf():
    assert derived_extent(StructNode(type="W-level"), tokens=tokenize_whitespace(SENTENCE)) is None


def test_derived_extent_lenient_records_warnings():
    node = StructNode(
        items=(SegmentRef(IdTargets(("missing",))),),
        children=(StructNode(items=(SegmentRef(PositionalSpan(3, 8)),)),),
    )
    with pytest.raises(UnresolvedTargetError):
        derived_extent(node, tokens=tokenize_whitespace(SENTENCE))
    warnings: list[str] = []
    assert derived_extent(
        node, tokens=tokenize_whitespace(SENTENCE), strict=False, warnings=warnings
    ) == (3, 8)
    assert len(warnings) == 1


def test_derived_extent_on_a_deep_chain():
    doc, _ = parse_gmt(deep_chain_text(3000))
    assert derived_extent(doc.root) == (0, 1)


def _all_segs(current):
    """Every descendant segment in document order, bracket members in place."""
    stack = list(current.items)
    while stack:
        item = stack.pop(0)
        if isinstance(item, SegmentRef):
            yield item
        elif isinstance(item, Bracket):
            stack = list(item.members) + stack
    for child in current.children:
        yield from _all_segs(child)


def _oracle_extent(node, index: TokenIndex, table) -> tuple | None:
    """Brute force: enumerate every descendant segment and look it up directly."""
    spans = []
    for seg in _all_segs(node):
        addr = seg.addr
        if isinstance(addr, PositionalSpan):
            spans.append((addr.start, addr.end))
        elif isinstance(addr, IdTargets):
            starts = [t.start for t in index.entries if t.id in addr.ids]
            ends = [t.end for t in index.entries if t.id in addr.ids]
            spans.append((min(starts), max(ends)))
        else:
            spans.append((table[addr.start], table[addr.end]))
    if not spans:
        return None
    return min(s for s, _ in spans), max(e for _, e in spans)


def test_derived_extent_matches_brute_force_on_random_trees():
    rng = random.Random(23)
    for _ in range(200):
        index = random_token_index(rng)
        table = random_landmark_table(rng)
        builder = DocBuilder(rng)
        node = random_anchored_tree(rng, builder, sorted(table))
        assert derived_extent(node, tokens=index, landmarks=table) == _oracle_extent(node, index, table)


def test_derived_extent_agrees_with_resolve_seg_when_segments_fail():
    """Strict mode raises the first failing segment's error; lenient mode warns once per failure, in order."""
    rng = random.Random(31)
    seen = {"strict-raises": 0, "resolves": 0, "UnresolvedTargetError": 0, "InvertedSpanError": 0}
    for _ in range(300):
        full = random_token_index(rng)
        index = TokenIndex(tuple(t for t in full.entries if rng.random() < 0.8))
        landmark_ids = sorted(random_landmark_table(rng))
        node = random_anchored_tree(rng, DocBuilder(rng), landmark_ids)
        # Missing landmarks, and positions in random order, so that some pairs invert.
        table = {lm: rng.randrange(5000) for lm in landmark_ids if rng.random() < 0.85}
        spans, failures = [], []
        for seg in _all_segs(node):
            try:
                resolved = resolve_seg(seg, tokens=index, landmarks=table)
            except (UnresolvedTargetError, InvertedSpanError) as exc:
                failures.append(exc)
                seen[type(exc).__name__] += 1
            else:
                spans.append((resolved.start, resolved.end))
        expected = (min(s for s, _ in spans), max(e for _, e in spans)) if spans else None
        if failures:
            seen["strict-raises"] += 1
            with pytest.raises(type(failures[0])) as exc:
                derived_extent(node, tokens=index, landmarks=table)
            assert str(exc.value) == str(failures[0])
        else:
            seen["resolves"] += 1
            assert derived_extent(node, tokens=index, landmarks=table) == expected
        warnings: list[str] = []
        assert derived_extent(node, tokens=index, landmarks=table, strict=False, warnings=warnings) == expected
        assert warnings == [str(e) for e in failures]
    assert min(seen.values()) >= 20, seen


def test_derived_extent_parent_contains_children():
    rng = random.Random(29)
    for _ in range(100):
        index = random_token_index(rng)
        table = random_landmark_table(rng)
        builder = DocBuilder(rng)
        parent = random_anchored_tree(rng, builder, sorted(table))
        parent_span = derived_extent(parent, tokens=index, landmarks=table)
        for child in parent.children:
            child_span = derived_extent(child, tokens=index, landmarks=table)
            if parent_span is not None and child_span is not None:
                assert parent_span[0] <= child_span[0]
                assert parent_span[1] >= child_span[1]


def test_derived_extent_lenient_without_a_warnings_list():
    node = StructNode(
        items=(SegmentRef(IdTargets(("missing",))),),
        children=(StructNode(items=(SegmentRef(PositionalSpan(3, 8)),)),),
    )
    assert derived_extent(node, tokens=tokenize_whitespace(SENTENCE), strict=False, warnings=None) == (3, 8)


def landmarks(*entries: tuple) -> GmtDocument:
    children = tuple(
        StructNode(type="landmark", id=node_id, items=(Feature(cat="position", text=position),))
        for node_id, position in entries
    )
    return GmtDocument(StructNode(type="landmarkDesc", children=children))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TokenIndex((Token("w1", -1, 4),)), TokenIndexError, "token 'w1' has a negative offset"),
        (lambda: load_token_index("\t0\t4\n"), TokenIndexError, "line 1: empty token id"),
        (lambda: build_landmark_table(landmarks(("a", "-5"))), AnchorError,
         "landmark 'a' at /struct[1]/struct[1]: position must be non-negative"),
        (lambda: build_landmark_table(landmarks(("a", "1"), ("a", "2"))), AnchorError,
         "duplicate landmark id 'a' at /struct[1]/struct[2]"),
        (lambda: resolve_seg(SegmentRef(LandmarkEndpoints("a", "b"))), UnresolvedTargetError,
         "no landmark table supplied"),
        (lambda: resolve_seg(SegmentRef(IdTargets(()))), UnresolvedTargetError, "segment reference names no targets"),
    ],
    ids=["negative-offset", "empty-token-id", "negative-landmark", "duplicate-landmark", "no-landmark-table",
         "no-targets"],
)
def test_anchoring_error_paths(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
