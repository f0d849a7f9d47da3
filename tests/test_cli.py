"""Command-line contract: exit codes, output formats, byte stability."""

from __future__ import annotations

import gc
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gmtannot import canonicalize_ag, parse_ag, parse_gmt, serialize_gmt
from gmtannot.cli import _COMMANDS, _read_argv, build_parser, main
from conftest import FIXTURES, load_fixture
from randgen import deep_chain_text, deep_feature_text, deep_segless_text

SENTENCE_XML = str(FIXTURES / "msannot_sentence.xml")
TOKENS = str(FIXTURES / "msannot_sentence.tokens")
AG_XML = str(FIXTURES / "annotation_graph.xml")
SRC = FIXTURES.parent / "src"


def run_python(
    *args: str, stdout: int = subprocess.PIPE, cwd: Path | None = None, **env: str | None
) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args`` on the source tree in a child process, in ``cwd`` if given; ``env`` sets
    its variables, and None unsets one.  ``PYTHONUNBUFFERED`` is unset unless ``env`` sets it, so the child's
    stdout is buffered, as on CI and on any run without a terminal, whatever the environment of the tests sets."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": None, **env}
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env={name: value for name, value in env.items() if value is not None},
        timeout=120,
    )


def run_module(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m gmtannot`` on the source tree in a child process."""
    return run_python("-m", "gmtannot", *args)


#: Standard modules that a command should import only when it needs them.
WATCHED = (
    "argparse", "dataclasses", "decimal", "gettext", "importlib.resources", "inspect", "locale", "tempfile",
    "xml.etree.ElementTree",
)
#: What the package, the CLI and the reader load for every command.
BASE = {"cli", "errors", "merge", "model", "xml_io"}


@pytest.mark.parametrize(
    "argv, status, modules, stdlib",
    [
        (["validate", "msannot_sentence.xml"], 0, BASE | {"registry"}, {"decimal"}),
        (["resolve", "msannot_sentence.xml", "--tokens", "msannot_sentence.tokens"], 0, BASE | {"anchoring"}, set()),
        (["resolve", "event_anchored_phones.xml", "--landmarks", "landmark_desc.xml"], 0, BASE | {"anchoring"}, set()),
        (["diff", "msannot_sentence.xml", "msannot_compound_pomme.xml"], 1, BASE, set()),
        (["merge", "msannot_sentence.xml", "msannot_sentence.xml", "-o", "{out}/merged.xml", "--policy", "dedup"],
         0, BASE, {"decimal"}),
        (["convert", "--from", "ag", "--to", "gmt", "annotation_graph.xml", "-o", "{out}/gmt"],
         0, BASE | {"agraph", "anchoring"}, {"tempfile", "xml.etree.ElementTree"}),
        (["convert", "--from", "gmt", "--to", "ag", "landmark_desc.xml", "event_anchored_phones.xml",
          "-o", "{out}/graph.xml"], 0, BASE | {"agraph", "anchoring"}, set()),
    ],
    ids=["validate", "resolve-tokens", "resolve-landmarks", "diff", "merge", "convert-ag-gmt", "convert-gmt-ag"],
)
def test_a_command_imports_only_the_modules_it_runs(tmp_path, argv, status, modules, stdlib):
    # The benchmark's seven command shapes, on fixtures.  Each import costs every CLI process of the command time
    # that it does not need: ElementTree is parse_ag's and tempfile convert --from ag's alone, argparse (with
    # gettext and locale) is for help and usage errors, and decimal is for registry ranges, confidences and the merge policy.  -S leaves out what
    # the environment's site hooks import, so only gmtannot's imports count.
    argv = [arg.format(out=tmp_path) for arg in argv]
    code = (
        "import sys, gmtannot.cli\n"
        f"code = gmtannot.cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('gmtannot.')), "
        f"sorted(set({WATCHED!r}) & set(sys.modules)))"
    )
    result = run_python("-S", "-c", code, cwd=FIXTURES)
    assert (result.returncode, result.stderr) == (0, "")
    expected = f"{status} {sorted(f'gmtannot.{name}' for name in modules)} {sorted(stdlib)}"
    assert result.stdout.splitlines()[-1] == expected


# ---------------------------------------------------------------------------
# validate


def test_validate_sentence_fixture(capsys):
    assert main(["validate", SENTENCE_XML]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""


def test_validate_zero_byte_file(tmp_path, capsys):
    empty = tmp_path / "empty.xml"
    empty.write_text("")
    assert main(["validate", str(empty)]) == 2
    assert capsys.readouterr().err != ""


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.xml"]) == 2


def test_validate_duplicate_ids(tmp_path, capsys):
    bad = tmp_path / "dup.xml"
    bad.write_text(
        '<struct type="MSAnnot">'
        '<struct type="W-level" id="w1"/><struct type="W-level" id="w1"/>'
        "</struct>"
    )
    assert main(["validate", str(bad)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    severity, code, path, message = lines[0].split("\t")
    assert (severity, code) == ("ERROR", "DUPLICATE_ID")
    assert path == "/struct[1]/struct[2]"
    assert "w1" in message


def test_validate_with_custom_registry(tmp_path, capsys):
    doc = tmp_path / "doc.xml"
    doc.write_text('<struct type="x"><feat type="colour">red</feat></struct>')
    assert main(["validate", str(doc)]) == 1
    assert "UNKNOWN_CATEGORY" in capsys.readouterr().out
    registry = tmp_path / "reg.txt"
    registry.write_text("colour kind=set:red,green\n")
    assert main(["validate", str(doc), "--registry", str(registry)]) == 0


def test_validate_warns_on_an_external_entity(tmp_path, capsys):
    doc = tmp_path / "ext.xml"
    doc.write_text(
        '<!DOCTYPE struct [<!ENTITY ext SYSTEM "file:///etc/hostname">]>\n'
        '<struct type="MSAnnot">\n  <feat type="lemma">&ext;</feat>\n</struct>\n'
    )
    assert main(["validate", str(doc)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{doc}:3:22: external entity 'ext' (system id 'file:///etc/hostname') not fetched; read as empty"
    ]


_ENTITIES = "".join(f'<!ENTITY lol{i} "{f"&lol{i - 1};" * 10}">' for i in range(1, 10))
ENTITY_BOMB = f'<!DOCTYPE struct [<!ENTITY lol0 "lol">{_ENTITIES}]>\n<struct><feat type="lemma">&lol9;</feat></struct>'


def test_validate_refuses_billion_laughs(tmp_path, capsys):
    doc = tmp_path / "lol.xml"
    doc.write_text(ENTITY_BOMB)
    assert main(["validate", str(doc)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("gmtannot: ")


# ---------------------------------------------------------------------------
# convert


def test_convert_ag_to_gmt(tmp_path, capsys):
    out = tmp_path / "gmt"
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["landmarks.xml", "morphAnnot.xml", "phoneticAnnot.xml"]


def test_convert_empty_graph(tmp_path):
    source = tmp_path / "empty.xml"
    source.write_text("<annotation/>")
    out = tmp_path / "gmt"
    assert main(["convert", "--from", "ag", "--to", "gmt", str(source), "-o", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["landmarks.xml"]


def test_convert_round_trip(tmp_path):
    out = tmp_path / "gmt"
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out)]) == 0
    back = tmp_path / "back.xml"
    assert (
        main(
            [
                "convert", "--from", "gmt", "--to", "ag",
                str(out / "landmarks.xml"),
                str(out / "phoneticAnnot.xml"),
                str(out / "morphAnnot.xml"),
                "-o", str(back),
            ]
        )
        == 0
    )
    original = parse_ag(load_fixture("annotation_graph.xml"))
    rebuilt = parse_ag(back.read_text())
    assert canonicalize_ag(rebuilt) == canonicalize_ag(original)


def test_convert_unknown_arc_type(tmp_path, capsys):
    source = tmp_path / "q.xml"
    source.write_text(
        "<annotation>"
        '<arc><source id="0" offset="0"/><label att_1="Q" att_2="x"/><target id="1" offset="5"/></arc>'
        "</annotation>"
    )
    assert main(["convert", "--from", "ag", "--to", "gmt", str(source), "-o", str(tmp_path / "o")]) == 1
    assert "Q" in capsys.readouterr().err


def test_convert_malformed_ag(tmp_path, capsys):
    source = tmp_path / "bad.xml"
    source.write_text("<annotation><arc></annotation>")
    assert main(["convert", "--from", "ag", "--to", "gmt", str(source), "-o", str(tmp_path / "o")]) == 2


def test_convert_with_map_file(tmp_path):
    source = tmp_path / "q.xml"
    source.write_text(
        "<annotation>"
        '<arc><source id="0" offset="0"/><label att_1="Q" att_2="x"/><target id="1" offset="5"/></arc>'
        "</annotation>"
    )
    mapping = tmp_path / "map.tsv"
    mapping.write_text("Q\tquestionAnnot\tcue\n")
    out = tmp_path / "gmt"
    assert main(
        ["convert", "--from", "ag", "--to", "gmt", str(source), "-o", str(out), "--map", str(mapping)]
    ) == 0
    assert sorted(p.name for p in out.iterdir()) == ["landmarks.xml", "questionAnnot.xml"]


@pytest.mark.parametrize("doc_type", ["landmarkDesc", "landmarks"])
def test_convert_refuses_a_layer_named_like_the_landmark_description(tmp_path, capsys, doc_type):
    mapping = tmp_path / "map.tsv"
    mapping.write_text(f"P\t{doc_type}\tphone\nW\tmorphAnnot\tsource\n")
    out = tmp_path / "gmt"
    out.mkdir()
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out), "--map", str(mapping)]) == 2
    assert capsys.readouterr().err == "gmtannot: two documents would both be written to 'landmarks.xml'\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("doc_type", ["../escaped", "nul\0byte"])
def test_convert_refuses_a_document_type_that_is_not_a_file_name(tmp_path, capsys, doc_type):
    mapping = tmp_path / "map.tsv"
    mapping.write_text(f"P\tphoneticAnnot\tphone\nW\t{doc_type}\tsource\n")
    out = tmp_path / "gmt"
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out), "--map", str(mapping)]) == 2
    err = capsys.readouterr().err
    assert err == f"gmtannot: document type {doc_type!r} does not name a file in the output directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.tsv"]


def test_convert_that_fails_on_a_later_file_leaves_the_output_directory_as_it_was(tmp_path, capsys):
    # No file system takes a 304-byte name, so the third file fails after two could have been written.
    mapping = tmp_path / "map.tsv"
    mapping.write_text(f"P\tphoneticAnnot\tphone\nW\t{'m' * 300}\tsource\n")
    out = tmp_path / "gmt"
    out.mkdir()
    (out / "phoneticAnnot.xml").write_text("old")
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out), "--map", str(mapping)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gmtannot: ") and err.count("\n") == 1
    assert [(p.name, p.read_text()) for p in out.iterdir()] == [("phoneticAnnot.xml", "old")]


def _listing(root: Path) -> list[tuple[str, str | None]]:
    """Every path under ``root`` with a file's text, for comparing a directory before and after a command."""
    return sorted((str(p.relative_to(root)), p.read_text() if p.is_file() else None) for p in root.rglob("*"))


def test_convert_refuses_an_output_name_held_by_a_directory_and_moves_nothing(tmp_path, capsys):
    out = tmp_path / "gmt"
    (out / "phoneticAnnot.xml").mkdir(parents=True)
    (out / "phoneticAnnot.xml" / "keep.txt").write_text("kept")
    (out / "landmarks.xml").write_text("old")
    before = _listing(out)
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"gmtannot: cannot write {out / 'phoneticAnnot.xml'}: it is a directory\n"
    assert _listing(out) == before


@pytest.mark.parametrize("made", [True, False], ids=["existing-output", "new-output"])
def test_convert_names_the_output_path_of_a_file_it_cannot_write(tmp_path, capsys, made):
    mapping = tmp_path / "map.tsv"
    mapping.write_text(f"P\tphoneticAnnot\tphone\nW\t{'m' * 300}\tsource\n")
    out = tmp_path / "gmt"
    if made:
        out.mkdir()
    assert main(["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", str(out), "--map", str(mapping)]) == 2
    err = capsys.readouterr().err
    # Not the staging directory inside the output directory, which is gone by the time the line is read.
    assert err.startswith("gmtannot: ") and err.endswith(f": '{out / ('m' * 300 + '.xml')}'\n")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# resolve


def test_resolve_sentence_against_tokens(capsys):
    assert main(["resolve", SENTENCE_XML, "--tokens", TOKENS]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    spans = [tuple(line.split("\t")) for line in lines]
    assert spans == [
        ("/struct[1]/struct[1]", "0", "4"),
        ("/struct[1]/struct[2]", "5", "9"),
        ("/struct[1]/struct[3]", "10", "13"),
        ("/struct[1]/struct[4]", "14", "24"),
    ]


def test_resolve_positional_spans_without_context(capsys):
    assert main(["resolve", str(FIXTURES / "temporal_phone.xml")]) == 0
    assert capsys.readouterr().out == "/struct[1]\t2300\t3200\n"


def test_resolve_with_landmarks(capsys):
    assert main(
        [
            "resolve",
            str(FIXTURES / "event_anchored_phones.xml"),
            "--landmarks",
            str(FIXTURES / "landmark_desc.xml"),
        ]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "/struct[1]/struct[1]\t0\t2360",
        "/struct[1]/struct[2]\t2360\t5200",
    ]


def test_resolve_strict_fails_on_bad_target(tmp_path, capsys):
    doc = tmp_path / "bad.xml"
    doc.write_text('<struct type="x"><struct><seg target="#zz"/></struct></struct>')
    assert main(["resolve", str(doc), "--tokens", TOKENS]) == 1
    assert "zz" in capsys.readouterr().err


def test_resolve_lenient_skips_bad_target(tmp_path, capsys):
    doc = tmp_path / "bad.xml"
    doc.write_text(
        '<struct type="x">'
        '<struct><seg target="#zz"/></struct><struct><seg startsAt="1" endsAt="2"/></struct>'
        "</struct>"
    )
    assert main(["resolve", str(doc), "--tokens", TOKENS, "--lenient"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "/struct[1]/struct[2]\t1\t2\n"
    assert "zz" in captured.err


def test_resolve_refuses_an_inverted_positional_span_unless_lenient(tmp_path, capsys):
    doc = tmp_path / "inverted.xml"
    doc.write_text(
        '<struct type="x">'
        '<struct><seg startsAt="5" endsAt="2"/></struct><struct><seg startsAt="1" endsAt="2"/></struct>'
        "</struct>"
    )
    for flags, status in (([], 1), (["--lenient"], 0)):
        assert main(["resolve", str(doc), *flags]) == status
        captured = capsys.readouterr()
        assert captured.out == "/struct[1]/struct[2]\t1\t2\n"
        assert captured.err == f"{doc}: /struct[1]/struct[1]: span starts at 5 after its end 2\n"


def test_resolve_missing_context_file(capsys):
    assert main(["resolve", SENTENCE_XML, "--tokens", "/no/such/tokens.tab"]) == 2


# ---------------------------------------------------------------------------
# merge


def test_merge_fixture_with_itself_is_canonical(tmp_path):
    out = tmp_path / "merged.xml"
    assert main(["merge", SENTENCE_XML, SENTENCE_XML, "-o", str(out), "--policy", "dedup"]) == 0
    doc, _ = parse_gmt(load_fixture("msannot_sentence.xml"))
    assert out.read_text() == serialize_gmt(doc)
    assert out.read_bytes() == (FIXTURES / "msannot_sentence.xml").read_bytes()


def test_merge_fold_reproduces_alternatives_fixture(tmp_path):
    verb = tmp_path / "verb.xml"
    verb.write_text(
        '<struct type="W-level"><seg target="#w1"/>'
        '<feat type="lemma">boucher</feat><feat type="pos">VERB</feat>'
        '<feat type="tense">present</feat><feat type="confidence">0.4</feat>'
        "</struct>"
    )
    noun = tmp_path / "noun.xml"
    noun.write_text(
        '<struct type="W-level"><seg target="#w1"/>'
        '<feat type="lemma">bouche</feat><feat type="pos">NOUN</feat>'
        '<feat type="confidence">0.6</feat>'
        "</struct>"
    )
    out = tmp_path / "folded.xml"
    assert main(["merge", str(verb), str(noun), "-o", str(out), "--policy", "fold-alt"]) == 0
    assert out.read_bytes() == (FIXTURES / "msannot_alternatives_bouche.xml").read_bytes()


def test_merge_mixed_doc_types(tmp_path, capsys):
    out = tmp_path / "merged.xml"
    assert (
        main(["merge", SENTENCE_XML, str(FIXTURES / "msannot_fusion_du.xml"), "-o", str(out)]) == 1
    )
    assert "mixed document types" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "sNaN"])
@pytest.mark.parametrize("command", ["validate", "merge"])
def test_non_finite_confidence_exits_cleanly(tmp_path, capsys, value, command):
    doc = tmp_path / "doc.xml"
    doc.write_text(load_fixture("msannot_alternatives_bouche.xml").replace("0.4", value))
    argv = ["validate", str(doc)]
    if command == "merge":
        argv = ["merge", str(doc), str(doc), "-o", str(tmp_path / "out.xml"), "--policy", "fold-alt"]
    assert main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diff


def test_diff_identical_files(capsys):
    assert main(["diff", SENTENCE_XML, SENTENCE_XML]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("bothEqual\t") for line in lines)


def test_diff_single_edit(tmp_path, capsys):
    edited = tmp_path / "edited.xml"
    edited.write_text(load_fixture("msannot_sentence.xml").replace("VERB", "NOUN"))
    assert main(["diff", SENTENCE_XML, str(edited)]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line for line in lines if line.startswith("bothDiffer\t")]
    assert len(differing) == 1
    assert "pos" in differing[0]


def test_diff_against_empty(tmp_path, capsys):
    empty = tmp_path / "empty.xml"
    empty.write_text('<struct type="MSAnnot"/>')
    assert main(["diff", SENTENCE_XML, str(empty)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("onlyLeft\t") for line in lines)


def test_diff_unreadable_file(capsys):
    assert main(["diff", SENTENCE_XML, "/no/such/file.xml"]) == 2


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", SENTENCE_XML],
        ["resolve", SENTENCE_XML, "--tokens", TOKENS],
        ["diff", SENTENCE_XML, str(FIXTURES / "msannot_fusion_du.xml")],
    ],
)
def test_outputs_are_byte_stable(argv, capsys):
    first_code = main(argv)
    first = capsys.readouterr()
    second_code = main(argv)
    second = capsys.readouterr()
    assert first_code == second_code
    assert first.out == second.out


# ---------------------------------------------------------------------------
# input that is not UTF-8, deep nesting, and ``python -m gmtannot``

NOT_UTF8 = b"\xff\xfe<\x00s\x00t\x00"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["validate", SENTENCE_XML, "--registry", "{bad}"],
        ["resolve", "{bad}"],
        ["resolve", SENTENCE_XML, "--tokens", "{bad}"],
        ["resolve", SENTENCE_XML, "--landmarks", "{bad}"],
        ["merge", SENTENCE_XML, "{bad}", "-o", "{out}"],
        ["diff", SENTENCE_XML, "{bad}"],
        ["convert", "--from", "ag", "--to", "gmt", "{bad}", "-o", "{out}"],
        ["convert", "--from", "gmt", "--to", "ag", "{bad}", "-o", "{out}"],
        ["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", "{out}", "--map", "{bad}"],
    ],
)
def test_non_utf8_input_exits_2_with_one_line(tmp_path, capsys, argv):
    bad = tmp_path / "bad.xml"
    bad.write_bytes(NOT_UTF8)
    assert main([arg.format(bad=bad, out=tmp_path / "out") for arg in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gmtannot: ")
    assert f"{bad}: not UTF-8" in lines[0]


def test_python_m_gmtannot_runs_the_cli(tmp_path):
    ok = run_module("validate", SENTENCE_XML)
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "", "")
    bad = tmp_path / "bad.xml"
    bad.write_bytes(NOT_UTF8)
    failed = run_module("validate", str(bad))
    assert failed.returncode == 2
    assert failed.stderr.startswith("gmtannot: ")
    assert len(failed.stderr.splitlines()) == 1


def test_the_entry_point_runs_its_command_with_the_collector_off_and_the_import_heap_frozen():
    # main is wrapped, so the collector is read where the command starts.
    code = (
        "import gc, sys, gmtannot.cli as cli; command = cli.main; "
        "cli.main = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr) or command(); "
        "cli.run()"
    )
    result = run_python("-c", code, "validate", SENTENCE_XML)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "False True\n")


RESOLVED_SENTENCE = (
    "/struct[1]/struct[1]\t0\t4\n/struct[1]/struct[2]\t5\t9\n"
    "/struct[1]/struct[3]\t10\t13\n/struct[1]/struct[4]\t14\t24\n"
)


def test_the_entry_point_flushes_its_output_and_leaves_without_running_atexit_handlers():
    # Buffered stdout, as run_python gives every child: only run()'s flush writes the lines.
    code = "import atexit; atexit.register(print, 'atexit ran'); from gmtannot.cli import run; run()"
    result = run_python("-c", code, "resolve", SENTENCE_XML, "--tokens", TOKENS)
    assert (result.returncode, result.stdout, result.stderr) == (0, RESOLVED_SENTENCE, "")


def test_a_final_flush_that_fails_exits_2_with_one_line():
    code = (
        "import sys\n"
        "class Closed:\n"
        "    def write(self, text): return len(text)\n"
        "    def flush(self): raise BrokenPipeError(32, 'Broken pipe')\n"
        "sys.stdout = Closed()\n"
        "from gmtannot.cli import run; run()"
    )
    result = run_python("-c", code, "validate", SENTENCE_XML)
    assert (result.returncode, result.stderr) == (2, "gmtannot: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["write-fails", "final-flush-fails"])
@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", SENTENCE_XML, "--tokens", TOKENS],
        ["diff", SENTENCE_XML, str(FIXTURES / "msannot_compound_pomme.xml")],
    ],
    ids=["resolve", "diff"],
)
def test_output_to_a_closed_pipe_exits_2_with_one_line(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_python("-m", "gmtannot", *argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, "gmtannot: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "argv",
    [["validate", SENTENCE_XML], ["diff", SENTENCE_XML, SENTENCE_XML], ["merge", SENTENCE_XML, SENTENCE_XML, "-o", "{out}"]],
    ids=["validate", "diff", "merge"],
)
def test_main_leaves_the_collector_as_it_finds_it(tmp_path, capsys, argv):
    argv = [arg.format(out=tmp_path / "out.xml") for arg in argv]
    enabled = gc.isenabled()
    try:
        for switch in (gc.enable, gc.disable):
            switch()
            before = (gc.isenabled(), gc.get_freeze_count())
            assert main(argv) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize(
    "command, expected_out",
    [
        (["validate"], ""),
        (["resolve"], "/struct[1]" * 3001 + "\t0\t1\n"),
        (["diff", "{chain}"], "bothEqual\tspan:0-1\t\n"),
    ],
    ids=["validate", "resolve", "diff"],
)
def test_deep_chain_through_the_cli(tmp_path, command, expected_out):
    chain = tmp_path / "chain.xml"
    chain.write_text(deep_chain_text(3000, indent=False), encoding="utf-8")
    argv = [command[0], str(chain)] + [arg.format(chain=chain) for arg in command[1:]]
    result = run_module(*argv)
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (0, expected_out)


@pytest.mark.parametrize("policy", ["keep-all", "fold-alt"])
def test_merge_deep_chain_exits_1_with_one_line(tmp_path, policy):
    # Both copies keep the leaf's id, so serialize_gmt refuses the merge.
    chain = tmp_path / "chain.xml"
    chain.write_text(deep_chain_text(3000, indent=False), encoding="utf-8")
    result = run_module("merge", str(chain), str(chain), "-o", str(tmp_path / "out.xml"), "--policy", policy)
    assert "Traceback" not in result.stderr
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("gmtannot: ")


@pytest.mark.parametrize("make", [deep_segless_text, deep_feature_text], ids=["segless-chain", "nested-feature"])
def test_diff_of_3000_deep_nesting_through_the_cli(tmp_path, make):
    path = tmp_path / "deep.xml"
    path.write_text(make(3000), encoding="utf-8")
    result = run_module("diff", str(path), str(path))
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout, result.stderr) == (0, "bothEqual\tids:w1\t\n", "")


@pytest.mark.parametrize(
    "policy, err",
    [
        ("keep-all", ""),
        ("fold-alt", "gmtannot: cannot fold nodes with children over anchor 'ids:w1'; keeping all\n"),
        pytest.param(
            "dedup", "",
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError,
                reason="ROADMAP item 1: comparing the two copies recurses through record equality",
            ),
        ),
    ],
)
def test_merge_of_an_anchored_node_over_a_3000_deep_chain_through_the_cli(tmp_path, policy, err):
    chain = tmp_path / "chain.xml"
    chain.write_text(deep_segless_text(3000), encoding="utf-8")
    out = tmp_path / "out.xml"
    result = run_module("merge", str(chain), str(chain), "-o", str(out), "--policy", policy)
    assert (result.returncode, result.stderr) == (0, err)
    with out.open(encoding="utf-8") as merged:
        head = [next(merged) for _ in range(4)]
    out.unlink()  # megabytes, even with indentation capped at 256 spaces
    if policy == "dedup":  # the one copy itself
        assert head[1:] == ['<struct type="W-level">\n', '  <seg target="#w1"/>\n', '  <feat type="pos">NOUN</feat>\n']
    else:  # both copies under a container root
        assert head[1:] == ['<struct type="W-level">\n', '  <struct type="W-level">\n', '    <seg target="#w1"/>\n']


# ---------------------------------------------------------------------------
# the contract matrix: every command, and every merge policy, on every hostile input

HOSTILE_INPUTS = {
    "deep-chain": deep_chain_text(3000, indent=False).encode(),
    "deep-segless": deep_segless_text(3000).encode(),
    "deep-feature": deep_feature_text(3000).encode(),
    "surrogate": b'<struct type="MSAnnot"><feat type="lemma">\xed\xa0\x80</feat></struct>',  # UTF-8 forbids it
    "bom": b"\xef\xbb\xbf" + (FIXTURES / "msannot_sentence.xml").read_bytes(),
    "c0-raw": b'<struct type="MSAnnot" id="a\x01b"><feat type="lemma">x\x02y</feat></struct>',
    "c0-xml11-refs": b'<?xml version="1.1"?><struct type="MSAnnot" id="a&#1;b"><feat type="lemma">x&#2;y</feat></struct>',
    "entity-bomb": ENTITY_BOMB.encode(),
    "empty": b"",
}
MATRIX_COMMANDS = {
    "validate": ["validate", "{f}"],
    "resolve-tokens": ["resolve", "{f}", "--tokens", TOKENS],
    "resolve-landmarks": ["resolve", "{f}", "--landmarks", "{f}", "--lenient"],
    "diff": ["diff", "{f}", "{f}"],
    **{f"merge-{policy}": ["merge", "--policy", policy, "{f}", "{f}", "-o", "{d}/out.xml"]
       for policy in ("keep-all", "dedup", "fold-alt")},
    "convert-gmt-ag": ["convert", "--from", "gmt", "--to", "ag", "{f}", "-o", "{d}/out.xml"],
    "convert-ag-gmt": ["convert", "--from", "ag", "--to", "gmt", "{f}", "-o", "{d}/out"],
}
DEDUP_RECURSES = pytest.mark.xfail(
    strict=True, raises=RecursionError,
    reason="ROADMAP item 1: comparing the two copies recurses through record equality",
)


@pytest.mark.parametrize(
    "source, command",
    [
        pytest.param(
            source, command, id=f"{source}-{command}",
            marks=DEDUP_RECURSES if source.startswith("deep-") and command == "merge-dedup" else (),
        )
        for source in HOSTILE_INPUTS
        for command in MATRIX_COMMANDS
    ],
)
def test_every_command_keeps_the_exit_code_contract_on_hostile_input(tmp_path, capsys, source, command):
    path = tmp_path / "in.xml"
    path.write_bytes(HOSTILE_INPUTS[source])
    argv = [arg.format(f=path, d=tmp_path) for arg in MATRIX_COMMANDS[command]]
    code = main(argv)  # an exception that escapes main fails the cell
    assert code in (0, 1, 2)
    lines = capsys.readouterr().err.splitlines()
    if code == 2 or code == 1 and argv[0] in ("merge", "convert"):  # validate, resolve and diff exit 1 on findings
        assert lines and lines[-1].startswith(f"gmtannot: {path}" if code == 2 else "gmtannot: ")
        reader_warning = re.compile(re.escape(str(path)) + r":\d+:\d+: ")
        assert all(reader_warning.match(line) for line in lines[:-1])


# ---------------------------------------------------------------------------
# exit codes that depend on the phase that raised the error

PHASE_FILES = {
    "q_arc.xml": (
        "<annotation>"
        '<arc><source id="0" offset="0"/><label att_1="Q" att_2="x"/><target id="1" offset="5"/></arc>'
        "</annotation>"
    ),
    "bad_map.tsv": "Q\tquestionAnnot\n",
    "no_position.xml": '<struct type="landmarkDesc"><struct type="landmark" id="0"/></struct>',
    "unmapped.xml": '<struct type="otherAnnot"><struct type="x"/></struct>',
    "bad.tokens": "w1\t0\n",
    "bad.xml": '<struct type="MSAnnot"><feat></struct>',
    "bad_registry.txt": "pos kind=open\nlemma\n",
    "id_child.xml": '<struct type="annot"><struct type="W-level" id="n1"><seg target="#w1"/></struct></struct>',
    "regular": "",
}
LANDMARKS = str(FIXTURES / "landmark_desc.xml")
PHONES = str(FIXTURES / "event_anchored_phones.xml")


@pytest.mark.parametrize(
    "argv, code, prefix",
    [
        (["convert", "--from", "ag", "--to", "gmt", "{d}/q_arc.xml", "-o", "{d}/out"], 1, ""),
        (["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", "{d}/out", "--map", "{d}/bad_map.tsv"],
         2, "{d}/bad_map.tsv: line 1: "),
        (["resolve", PHONES, "--landmarks", "{d}/no_position.xml"], 2, "{d}/no_position.xml: landmark '0' "),
        (["convert", "--from", "gmt", "--to", "ag", "{d}/no_position.xml", "-o", "{d}/out.xml"], 1, ""),
        (["convert", "--from", "gmt", "--to", "ag", LANDMARKS, "{d}/unmapped.xml", "-o", "{d}/out.xml"],
         1, ""),
        (["resolve", SENTENCE_XML, "--tokens", "{d}/bad.tokens"], 2, "{d}/bad.tokens: line 1: "),
        (["merge", SENTENCE_XML, "{d}/bad.xml", "-o", "{d}/out.xml"], 2, "{d}/bad.xml: mismatched tag "),
        (["validate", SENTENCE_XML, "--registry", "{d}/bad_registry.txt"], 2, "{d}/bad_registry.txt: line 2: "),
        # keep-all repeats the child's id, so the writer refuses the merge.
        (["merge", "{d}/id_child.xml", "{d}/id_child.xml", "-o", "{d}/out.xml"], 1, "invalid document: DUPLICATE_ID"),
        (["convert", "--from", "ag", "--to", "gmt", AG_XML, AG_XML, "-o", "{d}/out"], 2, ""),
        (["merge", SENTENCE_XML, SENTENCE_XML, "-o", "{d}/regular/out.xml"], 2, ""),
        (["convert", "--from", "ag", "--to", "gmt", AG_XML, "-o", "{d}/regular/out"], 2, ""),
        (["convert", "--from", "gmt", "--to", "ag", LANDMARKS, PHONES, "-o", "{d}/regular/out.xml"],
         2, ""),
        # An input that cannot be read is named first, like every other refusal of an input.
        (["validate", "{d}/missing.xml"], 2, "{d}/missing.xml: No such file or directory"),
        (["resolve", SENTENCE_XML, "--tokens", "{d}/missing.tokens"],
         2, "{d}/missing.tokens: No such file or directory"),
        (["diff", SENTENCE_XML, "{d}"], 2, "{d}: Is a directory"),
    ],
    ids=[
        "unknown-arc-type",
        "malformed-map",
        "resolve-landmark-without-position",
        "convert-landmark-without-position",
        "unmapped-layer-doc-type",
        "malformed-token-index",
        "merge-with-a-malformed-second-layer",
        "validate-with-a-malformed-registry",
        "merge-refused-by-writer",
        "two-graphs-for-ag-to-gmt",
        "merge-output-below-a-file",
        "ag-to-gmt-output-below-a-file",
        "gmt-to-ag-output-below-a-file",
        "missing-gmt",
        "missing-token-index",
        "directory-as-input",
    ],
)
def test_phase_dependent_exit_codes(tmp_path, capsys, argv, code, prefix):
    for name, text in PHASE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([arg.format(d=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("gmtannot: " + prefix.format(d=tmp_path))


def test_merge_prints_its_warnings_to_stderr(tmp_path, capsys):
    fusion = str(FIXTURES / "msannot_fusion_du.xml")
    out = tmp_path / "merged.xml"
    assert main(["merge", "--policy", "fold-alt", fusion, fusion, "-o", str(out)]) == 0
    assert capsys.readouterr().err == "gmtannot: cannot fold nodes with children over anchor 'ids:w1'; keeping all\n"
    assert out.exists()


def test_convert_between_one_format_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--from", "ag", "--to", "ag", AG_XML, "-o", str(tmp_path / "out.xml")])
    assert exc.value.code == 2
    assert "--from and --to must name different formats" in capsys.readouterr().err
    assert not (tmp_path / "out.xml").exists()


# ---------------------------------------------------------------------------
# argv: the command table's reader against argparse

ARGV_WORDS = [
    # hostile spellings: abbreviations, attached values, bare dashes, negative numbers, help, empty words
    "--pol", "--policy=dedup", "-oX", "-", "--", "-1", "-h", "--help", "", "--out", "--from=ag", "-x",
    # every option of every command, and values, choices and command names
    "-o", "--output", "--policy", "--from", "--to", "--map", "--tokens", "--landmarks", "--lenient", "--registry",
    "a.xml", "b", "ag", "gmt", "dedup", "keep-all", "fold-alt", "bogus", "validate", "diff",
]
ARGV_FILES = ["a.xml", "b.xml", "dir/c.xml", ""]


def random_argv(rng: random.Random) -> list[str]:
    """A well-formed argv of one command, then up to three random edits: insert, delete or replace a word, or
    repeat a pair of words."""
    command = rng.choice(["validate", "convert", "resolve", "merge", "diff"])
    files = [rng.choice(ARGV_FILES) for _ in range(rng.randint(1, 3))]
    pick = rng.choice
    options = {
        "validate": [["--registry", pick(ARGV_FILES)]],
        "convert": [
            ["--from", pick(["ag", "gmt"])],
            ["--to", pick(["ag", "gmt"])],
            [pick(["-o", "--output"]), pick(ARGV_FILES)],
            ["--map", pick(ARGV_FILES)],
        ],
        "resolve": [["--tokens", pick(ARGV_FILES)], ["--landmarks", pick(ARGV_FILES)], ["--lenient"]],
        "merge": [
            [pick(["-o", "--output"]), pick(ARGV_FILES)],
            ["--policy", pick(["keep-all", "dedup", "fold-alt", "bogus"])],
        ],
        "diff": [],
    }[command]
    groups = [group for group in options if rng.random() < 0.85]
    rng.shuffle(groups)
    positionals = {"validate": files[:1], "resolve": files[:1], "diff": (files * 2)[:2]}.get(command, files)
    groups.insert(rng.randint(0, len(groups)), positionals)
    argv = [command] + [word for group in groups for word in group]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        k = rng.randrange(len(argv) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            argv.insert(k, rng.choice(ARGV_WORDS))
        elif edit == 1 and k < len(argv):
            del argv[k]
        elif edit == 2 and k < len(argv):
            argv[k] = rng.choice(ARGV_WORDS)
        else:
            argv[k:k] = argv[k - 2:k]
    return argv


def test_the_table_reader_returns_argparses_namespace_or_leaves_the_argv_to_argparse():
    rng = random.Random(29)
    parser = build_parser()
    accepted = 0
    for _ in range(20_000):
        argv = random_argv(rng)
        args = _read_argv(argv)
        if args is None:
            continue
        accepted += 1
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the reader accepts {argv!r}, which argparse refuses")
        assert vars(args) == vars(expected), argv
    # Most argv are well formed, so the reader must answer many of them itself.
    assert accepted > 5_000


@pytest.mark.parametrize(
    "argv",
    [
        # the benchmark's cli commands
        ["validate", "words.xml"],
        ["resolve", "words.xml", "--tokens", "words.tokens"],
        ["resolve", "phones.xml", "--landmarks", "landmarks.xml"],
        ["diff", "left.xml", "right.xml"],
        ["merge", "left.xml", "right.xml", "-o", "out/merged.xml", "--policy", "dedup"],
        ["convert", "--from", "ag", "--to", "gmt", "graph.xml", "-o", "out/gmt"],
        ["convert", "--from", "gmt", "--to", "ag", "landmarks.xml", "phones.xml", "-o", "out/graph.xml"],
        # the CI smoke steps
        ["merge", "--policy", "keep-all", "a.xml", "a.xml", "-o", "twice.xml"],
        ["convert", "--from", "ag", "--to", "gmt", "graph.xml", "--map", "clash.tsv", "-o", "clash"],
        ["merge", "a.xml", "b.xml", "-o", "merged.xml"],
        ["merge", "--policy", "fold-alt", "a.xml", "b.xml", "-o", "folded.xml"],
        ["validate", "--registry", "/dev/null", "deep.xml"],
        # the README's usage lines
        ["validate", "a.xml", "--registry", "registry.txt"],
        ["convert", "--from", "ag", "--to", "gmt", "graph.xml", "-o", "outdir", "--map", "table.tsv"],
        ["convert", "--from", "gmt", "--to", "ag", "landmarks.xml", "a.xml", "b.xml", "-o", "graph.xml", "--map", "m"],
        ["resolve", "a.xml", "--tokens", "a.tokens", "--landmarks", "landmarks.xml", "--lenient"],
        ["merge", "a.xml", "b.xml", "-o", "out.xml", "--output", "out2.xml", "--policy", "keep-all"],
    ],
)
def test_the_table_reader_answers_every_benchmarked_and_documented_argv(argv):
    args = _read_argv(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_exits_0_and_names_every_option_in_the_table(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    names = list(_COMMANDS) if command is None else [flag for flags, _ in _COMMANDS[command][2] for flag in flags]
    assert [name for name in names if name not in out] == []
