"""Data category registry: loading, inheritance, category validation."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import zipfile
from itertools import product

import pytest

from gmtannot import (
    AltSet,
    Bracket,
    ClosedSet,
    DecimalRange,
    Feature,
    GmtDocument,
    OpenText,
    RegistryError,
    StructNode,
    default_registry,
    is_subcategory,
    load_registry,
    parse_gmt,
    validate_categories,
)
from gmtannot.model import replace
from conftest import FIXTURES, load_fixture
from randgen import random_registry_text


# ---------------------------------------------------------------------------
# loading


def test_default_registry_contents():
    reg = default_registry()
    assert len(reg) >= 7
    for name in ("lemma", "pos", "confidence", "gender", "number", "tense", "person"):
        assert reg.resolve(name) is not None
    pos = reg.resolve("pos")
    assert isinstance(pos.kind, ClosedSet)
    for tag in ("PNOUN", "VERB", "DET", "NOUN", "PREP"):
        assert tag in pos.kind.values
    confidence = reg.resolve("confidence")
    assert isinstance(confidence.kind, DecimalRange)
    assert (confidence.kind.lo, confidence.kind.hi) == (0, 1)
    assert isinstance(reg.resolve("lemma").kind, OpenText)


def test_the_bundled_registry_is_read_from_a_zip_import_too(tmp_path):
    # The package read from a zip file of its sources, by the loader that read it, with no importlib.resources.
    package = FIXTURES.parent / "src" / "gmtannot"
    archive = tmp_path / "gmtannot.zip"
    with zipfile.ZipFile(archive, "w") as out:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                out.write(path, path.relative_to(package.parent).as_posix())
    code = (
        "import sys, gmtannot\n"
        "assert gmtannot.__file__.startswith(sys.argv[1]), gmtannot.__file__\n"
        "print(repr(gmtannot.default_registry()), 'importlib.resources' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(archive)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(archive)},
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"{default_registry()!r} False\n"


def test_empty_file_gives_empty_registry():
    assert len(load_registry("")) == 0
    assert len(load_registry("# only comments\n\n")) == 0


def test_cycle_is_rejected():
    # Oracle: depth-first search over the two-line parent graph finds a cycle.
    with pytest.raises(RegistryError, match="cycle"):
        load_registry("a parent=b kind=open\nb parent=a kind=open\n")


def test_self_cycle_is_rejected():
    with pytest.raises(RegistryError, match="cycle"):
        load_registry("a parent=a kind=open\n")


def test_load_errors_carry_line_numbers():
    with pytest.raises(RegistryError, match="line 2"):
        load_registry("a kind=open\na kind=open\n")
    with pytest.raises(RegistryError, match="line 1"):
        load_registry("a parent=zz kind=open\n")
    with pytest.raises(RegistryError, match="line 3"):
        load_registry("a kind=open\n\nb kind=wat\n")
    with pytest.raises(RegistryError, match="line 1"):
        load_registry("a kind=set:\n")
    with pytest.raises(RegistryError, match="line 1"):
        load_registry("a kind=range:5..1\n")
    with pytest.raises(RegistryError, match="line 1"):
        load_registry("a kind=range:NaN..1\n")
    with pytest.raises(RegistryError, match="line 2"):
        load_registry("a kind=open alias=x\nb kind=open alias=x\n")


def test_forward_parent_reference_is_fine():
    reg = load_registry("child parent=base kind=open\nbase kind=open\n")
    assert is_subcategory(reg, "child", "base")


# ---------------------------------------------------------------------------
# is_subcategory


def test_subcategory_reflexive():
    reg = default_registry()
    assert is_subcategory(reg, "pos", "pos")


def test_subcategory_direction():
    reg = load_registry("pos kind=open\nproperNoun parent=pos kind=open\n")
    assert is_subcategory(reg, "properNoun", "pos")
    assert not is_subcategory(reg, "pos", "properNoun")


def test_subcategory_through_alias():
    reg = load_registry("pos kind=open alias=POS\n")
    assert is_subcategory(reg, "POS", "pos")
    assert is_subcategory(reg, "pos", "POS")


def test_subcategory_unknown_name():
    reg = default_registry()
    with pytest.raises(RegistryError):
        is_subcategory(reg, "nope", "pos")


def _oracle_reachable(parents: dict[str, str | None], child: str, ancestor: str) -> bool:
    current: str | None = child
    while current is not None:
        if current == ancestor:
            return True
        current = parents[current]
    return False


def test_subcategory_matches_chain_walk_oracle():
    rng = random.Random(31)
    for _ in range(40):
        reg = load_registry(random_registry_text(rng))
        parents = {name: cat.parent for name, cat in reg.categories.items()}
        for child, ancestor in product(parents, repeat=2):
            assert is_subcategory(reg, child, ancestor) == _oracle_reachable(parents, child, ancestor)


def test_subcategory_is_a_partial_order():
    rng = random.Random(37)
    for _ in range(20):
        reg = load_registry(random_registry_text(rng))
        names = list(reg.categories)
        for a in names:
            assert is_subcategory(reg, a, a)
        for a, b in product(names, repeat=2):
            if is_subcategory(reg, a, b) and is_subcategory(reg, b, a):
                assert a == b
        for a, b, c in product(names, repeat=3):
            if is_subcategory(reg, a, b) and is_subcategory(reg, b, c):
                assert is_subcategory(reg, a, c)


# ---------------------------------------------------------------------------
# validate_categories


def test_sentence_fixture_is_category_clean():
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert validate_categories(doc, default_registry()).findings == ()


def test_unknown_category_is_flagged():
    doc = GmtDocument(StructNode(items=(Feature(cat="colour", text="red"),)))
    report = validate_categories(doc, default_registry())
    assert [f.code for f in report.findings] == ["UNKNOWN_CATEGORY"]


def test_confidence_out_of_range():
    # Oracle: decimal parse of "1.4" against the declared range 0..1.
    doc = GmtDocument(StructNode(items=(Feature(cat="confidence", text="1.4"),)))
    report = validate_categories(doc, default_registry())
    assert [f.code for f in report.findings] == ["VALUE_OUT_OF_RANGE"]


def test_confidence_not_decimal():
    doc = GmtDocument(StructNode(items=(Feature(cat="confidence", text="high"),)))
    report = validate_categories(doc, default_registry())
    assert [f.code for f in report.findings] == ["VALUE_NOT_DECIMAL"]


@pytest.mark.parametrize("text", ["NaN", "sNaN", "-nan"])
def test_confidence_nan_is_not_decimal(text):
    doc = GmtDocument(StructNode(items=(Feature(cat="confidence", text=text),)))
    report = validate_categories(doc, default_registry())
    assert [f.code for f in report.findings] == ["VALUE_NOT_DECIMAL"]


@pytest.mark.parametrize("text", ["0_5", "\u0661", "\uff10.5"], ids=["underscore", "arabic-indic", "fullwidth"])
def test_a_range_value_that_python_alone_would_read_is_not_decimal(text):
    doc = GmtDocument(StructNode(items=(Feature(cat="confidence", text=text),)))
    report = validate_categories(doc, default_registry())
    assert [f.code for f in report.findings] == ["VALUE_NOT_DECIMAL"]


def test_a_range_may_be_unbounded():
    reg = load_registry("a kind=range:-Infinity..Infinity\n")
    doc = GmtDocument(StructNode(items=(Feature(cat="a", text="1E+999"), Feature(cat="a", text="-Inf"))))
    assert validate_categories(doc, reg).findings == ()


def test_closed_set_violation():
    doc = GmtDocument(StructNode(items=(Feature(cat="pos", text="ADJ"),)))
    report = validate_categories(doc, default_registry())
    assert [f.code for f in report.findings] == ["VALUE_NOT_IN_SET"]


def test_node_types_are_not_registry_checked():
    doc = GmtDocument(StructNode(type="totally-free-type"))
    assert validate_categories(doc, default_registry()).findings == ()


def test_no_features_means_empty_report():
    doc, _ = parse_gmt('<struct type="MSAnnot"><struct id="a"><seg target="#w1"/></struct></struct>')
    assert validate_categories(doc, default_registry()).findings == ()


def test_features_inside_alternatives_are_checked():
    doc, _ = parse_gmt(load_fixture("msannot_alternatives_bouche.xml"))
    assert validate_categories(doc, default_registry()).findings == ()
    bad, _ = parse_gmt(
        '<struct type="W-level">'
        '<alt><feat type="pos">NOPE</feat></alt>'
        '<alt><feat type="pos">NOUN</feat></alt>'
        "</struct>"
    )
    report = validate_categories(bad, default_registry())
    assert [f.code for f in report.findings] == ["VALUE_NOT_IN_SET"]


def _one_feature_at_five_places(feature) -> GmtDocument:
    """``feature()`` as a node item, a bundle member, a bracket member and nested under two owners."""
    alts = AltSet(((feature(),), (Feature(cat="lemma", text="x"),)))
    child = StructNode(items=(Feature(cat="agr", nested=(feature(),)),))
    items = (feature(), alts, Bracket((feature(),)), Feature(cat="agr", nested=(feature(),)))
    return GmtDocument(StructNode(items=items, children=(child,)))


def test_a_feature_at_many_places_gets_each_registrys_findings_at_each_place():
    shared = Feature(cat="pos", text="ADJ")
    doc, distinct = _one_feature_at_five_places(lambda: shared), _one_feature_at_five_places(lambda: replace(shared))
    closed = load_registry("pos kind=set:NOUN,VERB\nlemma kind=open\nagr kind=open\n")
    findings = validate_categories(doc, closed).findings
    assert findings == validate_categories(distinct, closed).findings
    assert [(f.code, f.path) for f in findings] == [
        ("VALUE_NOT_IN_SET", path)
        for path in ("/struct[1]/feat[1]", "/struct[1]/alt[1]/feat[1]", "/struct[1]/brack[1]/feat[1]",
                     "/struct[1]/feat[2]/feat[1]", "/struct[1]/struct[1]/feat[1]/feat[1]")
    ]
    # The same document against another registry: the results of the first call are not reused.
    widened = load_registry("pos kind=set:ADJ\nlemma kind=open\n")
    findings = validate_categories(doc, widened).findings
    assert findings == validate_categories(distinct, widened).findings
    assert [(f.code, f.path) for f in findings] == [
        ("UNKNOWN_CATEGORY", "/struct[1]/feat[2]"), ("UNKNOWN_CATEGORY", "/struct[1]/struct[1]/feat[1]")
    ]


def test_alias_validation_equals_canonical_rename():
    reg = load_registry("pos kind=set:NOUN,VERB alias=POS\n")
    aliased = GmtDocument(StructNode(items=(Feature(cat="POS", text="NOUN"),)))
    renamed = GmtDocument(StructNode(items=(Feature(cat="pos", text="NOUN"),)))
    assert (
        validate_categories(aliased, reg).findings == validate_categories(renamed, reg).findings == ()
    )
    aliased_bad = GmtDocument(StructNode(items=(Feature(cat="POS", text="X"),)))
    renamed_bad = GmtDocument(StructNode(items=(Feature(cat="pos", text="X"),)))
    assert [f.code for f in validate_categories(aliased_bad, reg).findings] == [
        f.code for f in validate_categories(renamed_bad, reg).findings
    ] == ["VALUE_NOT_IN_SET"]


def test_reference_kind_expects_target():
    reg = load_registry("entry kind=ref\n")
    good = GmtDocument(StructNode(items=(Feature(cat="entry", target="lex1"),)))
    assert validate_categories(good, reg).findings == ()
    bad = GmtDocument(StructNode(items=(Feature(cat="entry", text="lex1"),)))
    assert [f.code for f in validate_categories(bad, reg).findings] == ["VALUE_KIND_MISMATCH"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: load_registry("a kind=open alias=b\nb kind=open\n"), "line 1: alias 'b' clashes with a category name"),
        (lambda: load_registry("a kind=open oops\n"), "line 1: malformed token 'oops'"),
        (lambda: load_registry("a kind=open colour=red\n"), "line 1: unknown key 'colour'"),
        (lambda: load_registry("a parent=b\n"), "line 1: category 'a' has no kind"),
        (lambda: load_registry("a kind=range:0-1\n"), "line 1: range needs the form lo..hi"),
        (lambda: load_registry("a kind=range:x..y\n"), "line 1: range bounds 'x..y' are not decimals"),
        (lambda: load_registry("a kind=range:0_1..1\n"), "line 1: range bounds '0_1..1' are not decimals"),
        (lambda: load_registry("a kind=range:0..\u0661\n"), "line 1: range bounds '0..\u0661' are not decimals"),
        (lambda: load_registry("a kind=range:-Infinity..nan\n"), "line 1: range bounds '-Infinity..nan' are not decimals"),
        (lambda: is_subcategory(default_registry(), "pos", "nope"), "unknown category 'nope'"),
    ],
    ids=["alias-clash", "malformed-token", "unknown-key", "no-kind", "range-without-dots", "range-not-decimal",
         "range-underscore", "range-arabic-indic", "range-nan", "unknown-ancestor"],
)
def test_registry_error_paths(call, message):
    with pytest.raises(RegistryError) as exc:
        call()
    assert str(exc.value) == message
