"""Acceptance suite: one test per shipped criterion.

Run with ``pytest tests/test_acceptance.py -v``; a PASS/FAIL line per
criterion is printed in the terminal summary.
"""

from __future__ import annotations

import random
import time
from itertools import product

import pytest

from gmtannot import (
    BOTH_DIFFER,
    BOTH_EQUAL,
    DEDUP_IDENTICAL,
    Feature,
    KEEP_ALL,
    LandmarkEndpoints,
    MergePolicy,
    ONLY_LEFT,
    ONLY_RIGHT,
    PositionalSpan,
    RegistryError,
    SegmentRef,
    ag_to_gmt,
    anchor_key,
    build_landmark_table,
    canonicalize_ag,
    default_registry,
    derived_extent,
    diff,
    gmt_to_ag,
    is_subcategory,
    load_registry,
    merge,
    parse_ag,
    parse_gmt,
    resolve_seg,
    serialize_gmt,
    validate_categories,
    validate_structure,
)
from gmtannot.cli import main
from conftest import FIXTURES, load_fixture
from randgen import (
    DocBuilder,
    random_anchored_tree,
    random_document,
    random_graph,
    random_landmark_table,
    random_mergeable_document,
    random_registry_text,
    random_token_index,
)
from test_anchoring import _oracle_extent
from test_merge_diff import count_features

# Every GMT fixture: all the XML fixtures but the annotation graph.
GMT_FIXTURES = tuple(sorted(p.name for p in FIXTURES.glob("*.xml") if p.name != "annotation_graph.xml"))


def test_criterion_1_fixture_fidelity():
    started = time.perf_counter()
    registry = default_registry()
    assert len(GMT_FIXTURES) >= 9
    for name in GMT_FIXTURES:
        doc, diagnostics = parse_gmt(load_fixture(name))
        assert diagnostics.warnings == (), name
        assert validate_structure(doc).errors == (), name
        assert validate_categories(doc, registry).errors == (), name
        first = serialize_gmt(doc)
        reparsed, _ = parse_gmt(first)
        second = serialize_gmt(reparsed)
        assert first.encode("utf-8") == second.encode("utf-8"), name
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_graph_equivalence():
    started = time.perf_counter()
    graph = parse_ag(load_fixture("annotation_graph.xml"))
    assert len(graph.nodes) == 9
    assert set(graph.nodes.values()) == {0, 2360, 3270, 5200, 6160, 8720, 9680, 10173, 11077}
    assert len(graph.arcs) == 11

    docs = ag_to_gmt(graph)
    assert [d.doc_type for d in docs] == ["landmarkDesc", "phoneticAnnot", "morphAnnot"]
    landmarks, phones, words = docs
    assert build_landmark_table(landmarks)["1"] == 2360
    first_phone = phones.root.children[0]
    assert Feature(cat="phone", text="h#") in first_phone.items
    assert SegmentRef(LandmarkEndpoints("0", "1")) in first_phone.items
    first_word = words.root.children[0]
    assert Feature(cat="source", text="she") in first_word.items
    assert SegmentRef(LandmarkEndpoints("1", "3")) in first_word.items

    rebuilt = gmt_to_ag(landmarks, [phones, words])
    assert canonicalize_ag(rebuilt) == canonicalize_ag(graph)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_round_trip_properties():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(500):
        doc = random_document(rng)
        reparsed, _ = parse_gmt(serialize_gmt(doc))
        assert reparsed == doc
    for _ in range(200):
        graph = random_graph(rng)
        docs = ag_to_gmt(graph)
        assert canonicalize_ag(gmt_to_ag(docs[0], docs[1:])) == canonicalize_ag(graph)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_4_anchoring_oracle_equivalence():
    rng = random.Random(103)
    for _ in range(200):
        tokens = random_token_index(rng)
        table = random_landmark_table(rng)
        tree = random_anchored_tree(rng, DocBuilder(rng), sorted(table))
        assert derived_extent(tree, tokens=tokens, landmarks=table) == _oracle_extent(
            tree, tokens, table
        )
    for _ in range(200):
        start = rng.randint(0, 10_000)
        end = start + rng.randint(0, 5_000)
        span = resolve_seg(SegmentRef(PositionalSpan(start, end)))
        assert (span.start, span.end) == (start, end)
    for _ in range(200):
        table = random_landmark_table(rng)
        a, b = sorted(rng.sample(sorted(table), 2))
        span = resolve_seg(SegmentRef(LandmarkEndpoints(a, b)), landmarks=table)
        assert (span.start, span.end) == (table[a], table[b])


def test_criterion_5_registry_partial_order():
    rng = random.Random(107)
    for _ in range(60):
        registry = load_registry(random_registry_text(rng))
        parents = {name: cat.parent for name, cat in registry.categories.items()}

        def reachable(child: str, ancestor: str) -> bool:
            node = child
            while node is not None:
                if node == ancestor:
                    return True
                node = parents[node]
            return False

        for child, ancestor in product(parents, repeat=2):
            assert is_subcategory(registry, child, ancestor) == reachable(child, ancestor)
    for text in (
        "a parent=b kind=open\nb parent=a kind=open\n",
        "x parent=x kind=open\n",
        "p parent=q kind=open\nq parent=r kind=open\nr parent=p kind=open\n",
    ):
        with pytest.raises(RegistryError):
            load_registry(text)


def test_criterion_6_merge_diff_laws():
    rng = random.Random(109)
    swap = {ONLY_LEFT: ONLY_RIGHT, ONLY_RIGHT: ONLY_LEFT, BOTH_EQUAL: BOTH_EQUAL, BOTH_DIFFER: BOTH_DIFFER}
    for _ in range(200):
        a = random_mergeable_document(rng)
        b = random_mergeable_document(rng)

        assert merge([a, a], MergePolicy(DEDUP_IDENTICAL)) == a

        merged = merge([a, b], MergePolicy(KEEP_ALL))
        assert count_features(merged) == count_features(a) + count_features(b)

        forward = {e.anchor: e.status for e in diff(a, b).entries}
        backward = {e.anchor: e.status for e in diff(b, a).entries}
        assert backward == {key: swap[status] for key, status in forward.items()}

        self_report = diff(a, a)
        assert self_report.all_equal
        assert {e.anchor for e in self_report.entries} == {
            anchor_key(n) for n in a.root.children
        }


def test_criterion_7_cli_contract(tmp_path, capsys):
    sentence = str(FIXTURES / "msannot_sentence.xml")
    tokens = str(FIXTURES / "msannot_sentence.tokens")
    ag = str(FIXTURES / "annotation_graph.xml")

    empty = tmp_path / "zero.xml"
    empty.write_text("")
    duplicate = tmp_path / "dup.xml"
    duplicate.write_text('<struct type="x"><struct id="a"/><struct id="a"/></struct>')
    edited = tmp_path / "edited.xml"
    edited.write_text(load_fixture("msannot_sentence.xml").replace("VERB", "NOUN"))
    empty_doc = tmp_path / "empty_doc.xml"
    empty_doc.write_text('<struct type="MSAnnot"/>')
    bad_target = tmp_path / "bad_target.xml"
    bad_target.write_text('<struct type="x"><struct><seg target="#zz"/></struct></struct>')

    merged_out = tmp_path / "merged.xml"
    converted = tmp_path / "converted"
    round_trip = tmp_path / "back.xml"

    cases = [
        (["validate", sentence], 0),
        (["validate", str(empty)], 2),
        (["validate", str(duplicate)], 1),
        (["convert", "--from", "ag", "--to", "gmt", ag, "-o", str(converted)], 0),
        (
            [
                "convert", "--from", "gmt", "--to", "ag",
                str(converted / "landmarks.xml"),
                str(converted / "phoneticAnnot.xml"),
                str(converted / "morphAnnot.xml"),
                "-o", str(round_trip),
            ],
            0,
        ),
        (["resolve", sentence, "--tokens", tokens], 0),
        (["resolve", str(FIXTURES / "temporal_phone.xml")], 0),
        (["resolve", str(bad_target), "--tokens", tokens], 1),
        (["merge", sentence, sentence, "-o", str(merged_out), "--policy", "dedup"], 0),
        (["merge", sentence, str(FIXTURES / "msannot_fusion_du.xml"), "-o", str(merged_out)], 1),
        (["diff", sentence, sentence], 0),
        (["diff", sentence, str(edited)], 1),
        (["diff", sentence, str(empty_doc)], 1),
    ]
    outputs = []
    for argv, expected in cases:
        assert main(argv) == expected, argv
        outputs.append(capsys.readouterr().out)
    # validate on the clean fixture stays silent; resolve prints 4 span lines
    assert outputs[0] == ""
    assert len(outputs[5].splitlines()) == 4

    for (argv, expected), first in zip(cases, outputs):
        assert main(argv) == expected
        assert capsys.readouterr().out == first, argv

    merged = merged_out.read_bytes()
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert merged == serialize_gmt(doc).encode("utf-8")
    original = parse_ag(load_fixture("annotation_graph.xml"))
    assert canonicalize_ag(parse_ag(round_trip.read_text())) == canonicalize_ag(original)
