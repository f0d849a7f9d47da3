"""The package surface: lazily resolved exports, submodules, and the value types that carry no generated code."""

from __future__ import annotations

import copy
import importlib
import os
import pickle
import subprocess
import sys
from decimal import Decimal

import pytest

import gmtannot
from gmtannot import KEEP_ALL, MergePolicy, ParseWarning, merge, parse_gmt, serialize_gmt
from conftest import FIXTURES, load_fixture

SRC = FIXTURES.parent / "src"

#: Every public name, under the submodule that defines it, as the package exported them when it imported each
#: submodule eagerly.
EXPORTS = {
    "agraph": {
        "DEFAULT_TYPE_MAP", "AgArc", "AnnotationGraph", "ag_to_gmt", "canonicalize_ag", "gmt_to_ag", "load_type_map",
        "parse_ag", "serialize_ag",
    },
    "anchoring": {
        "PRIMARY", "LandmarkTable", "ResolvedSpan", "Token", "TokenIndex", "build_landmark_table", "derived_extent",
        "load_token_index", "resolve_seg", "tokenize_whitespace",
    },
    "errors": {
        "AgParseError", "AnchorError", "BridgeError", "GmtError", "GmtParseError", "GmtSerializeError",
        "InvertedSpanError", "MergeError", "RegistryError", "TokenIndexError", "UnresolvedTargetError",
    },
    "merge": {
        "BOTH_DIFFER", "BOTH_EQUAL", "DEDUP_IDENTICAL", "FOLD_TO_ALT", "KEEP_ALL", "ONLY_LEFT", "ONLY_RIGHT",
        "DiffEntry", "DiffReport", "MergePolicy", "anchor_key", "diff", "merge",
    },
    "model": {
        "ERROR", "WARNING", "AltSet", "Bracket", "Bundle", "Feature", "Finding", "GmtDocument", "IdTargets",
        "LandmarkEndpoints", "NodeItem", "PositionalSpan", "Relation", "SegmentRef", "StructNode", "ValidationReport",
        "find_node", "select_preferred_alternative", "validate_structure",
    },
    "registry": {
        "CategoryDef", "ClosedSet", "DecimalRange", "OpenText", "Reference", "Registry", "default_registry",
        "is_subcategory", "load_registry", "validate_categories",
    },
    "xml_io": {"ParseDiagnostics", "ParseWarning", "parse_gmt", "serialize_gmt"},
}


def run_child(code: str) -> str:
    """Standard output of ``python -S -c code`` on the source tree, which must exit 0 without standard error."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_all_lists_each_public_name_once_and_each_is_its_submodules_object():
    assert sorted(gmtannot.__all__) == sorted(set().union(*EXPORTS.values()))
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"gmtannot.{module}")
        for name in names:
            assert getattr(gmtannot, name) is getattr(submodule, name), name
    assert set(gmtannot.__all__) | set(EXPORTS) <= set(dir(gmtannot))


def test_a_bare_import_loads_no_submodule_that_it_does_not_need_and_resolves_each_on_first_use():
    out = run_child(
        "import sys, gmtannot\n"
        "print(sorted(m for m in sys.modules if m.startswith('gmtannot.')), 'decimal' in sys.modules)\n"
        "module = gmtannot.xml_io\n"
        "print(module is sys.modules['gmtannot.xml_io'], gmtannot.parse_gmt is module.parse_gmt)\n"
    )
    assert out == "['gmtannot.errors', 'gmtannot.merge', 'gmtannot.model'] False\nTrue True\n"


@pytest.mark.parametrize(
    "first",
    [
        f"import gmtannot.cli; gmtannot.cli.main(['diff', *[{str(FIXTURES / 'msannot_sentence.xml')!r}] * 2])",
        "import gmtannot.merge",
        "from gmtannot import *",
    ],
    ids=["after-cli-diff", "after-import-submodule", "after-star-import"],
)
def test_the_package_merge_is_the_function_whatever_was_imported_first(first):
    out = run_child(f"{first}\nimport sys, gmtannot\nprint(gmtannot.merge is sys.modules['gmtannot.merge'].merge)\n")
    assert out.splitlines()[-1] == "True"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gmtannot.no_such_name  # noqa: B018
    assert not hasattr(gmtannot, "__main__")
    with pytest.raises(ImportError):
        exec("from gmtannot import no_such_name", {})


def test_the_default_merge_policy_is_keep_all_with_a_zero_fill():
    assert repr(MergePolicy()) == "MergePolicy(on_parallel='keep-all', alt_confidence_fill=Decimal('0'))"
    assert MergePolicy(alt_confidence_fill=None) == MergePolicy(KEEP_ALL, Decimal(0))
    text = load_fixture("msannot_sentence.xml")
    sentence, noun = parse_gmt(text)[0], parse_gmt(text.replace(">PNOUN<", ">NOUN<"))[0]
    merged = merge([sentence, noun])
    assert merged == merge([sentence, noun], MergePolicy(KEEP_ALL, Decimal(0)))
    # keep-all: each word of both documents, side by side in document order
    first, second = sentence.root.children, noun.root.children
    assert merged.root.children == tuple(node for pair in zip(first, second) for node in pair)
    assert serialize_gmt(merge([sentence])) == text


def test_a_parse_warning_is_a_plain_tuple_with_named_fields():
    warning = ParseWarning(2, 5, "unknown element <x>; skipped")
    assert (warning.line, warning.column, warning.message) == warning == (2, 5, "unknown element <x>; skipped")
    assert sorted([ParseWarning(3, 1, "b"), (1, 9, "a")]) == [(1, 9, "a"), (3, 1, "b")]
    assert repr(warning) == "ParseWarning(line=2, column=5, message='unknown element <x>; skipped')"
    for other in (pickle.loads(pickle.dumps(warning)), copy.deepcopy(warning)):
        assert type(other) is ParseWarning and other == warning
    with pytest.raises(AttributeError):
        warning.line = 3  # type: ignore[misc]


@pytest.mark.parametrize(
    "read, text, place, message",
    [
        ("load_token_index", "w1\t0\n", (1, None), "line 1: expected 'tokenId<TAB>start<TAB>end'"),
        ("load_type_map", "# map\nP\tphoneticAnnot\n", (2, None),
         "line 2: expected 'att1Value<TAB>docType<TAB>payloadCat'"),
        ("load_registry", "pos kind=closed\n", (1, None), "line 1: unknown kind 'closed'"),
        ("parse_ag", "<annotation>", (1, 13), "malformed XML: no element found (line 1, column 13)"),
        ("parse_gmt", "<x", (1, 1), "unclosed token (line 1, column 1)"),
    ],
)
def test_a_refused_input_text_carries_its_place_and_spells_it_one_way(read, text, place, message):
    with pytest.raises(gmtannot.GmtError) as exc:
        getattr(gmtannot, read)(text)
    assert ((exc.value.line, exc.value.column), str(exc.value)) == (place, message)
