"""Command-line front end.

Standard output carries data, standard error diagnostics.  Exit codes:
0 success; 1 findings, or any other gmtannot error or ``ValueError``
raised while a command works on its inputs; 2 an ``OSError``, an input
file that its reader refuses (:func:`_load` names the file), or an input
unusable before any work begins (more than one graph for ``ag -> gmt``,
or output file names for it that collide, are not plain names or are
held by directories).  :func:`main` alone turns an error into an exit
code and one ``gmtannot: ...`` line; any other exception is a bug and
keeps its traceback.

Process policy: :func:`run`, the entry point of the ``gmtannot`` script and
of ``python -m gmtannot``, owns its process, which runs one command on
inputs it never changes and then exits.  So it calls ``gc.disable()`` and
``gc.freeze()`` before :func:`main`: no collection walks the import-time
heap or the parsed inputs, and reference counting still frees all memory,
as the reader and the commands build no cycles.  Then it flushes stdout and
stderr (a failed flush is one ``gmtannot:`` line and exit 2) and leaves
through ``os._exit``: the commands have closed their files, and atexit
handlers do not run.  :func:`main` and the library, whose caller may own a
long-lived process, leave the collector as they find it; :func:`main`
imports argparse only for help, usage errors and abbreviated options.

Imports: each ``cmd_*`` function imports the modules that its command runs,
so a process loads only its own command's modules (``resolve``, for one,
loads neither the registry, the graph bridge nor ``decimal``).  This module
imports only ``errors`` and ``merge``'s policy names, which the package
loads anyway.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import GmtError, InvertedSpanError, UnresolvedTargetError
from .merge import KEEP_ALL, POLICIES  # loaded with the package, which binds its merge function

if TYPE_CHECKING:
    from typing import Callable, TypeVar
    from .model import GmtDocument
    T = TypeVar("T")

OK, FINDINGS, FAILURE = 0, 1, 2


class _InputError(Exception):
    """An input unusable before any work begins: exits 2 whatever the cause's class."""


def _err(message: str) -> None:
    print(f"gmtannot: {message}", file=sys.stderr)


def _load(path: str, parse: Callable[[str], T]) -> T:
    """What the format's reader ``parse`` makes of the file's text.  Every input file goes through here, so bytes
    that are not UTF-8 are an OSError and a reader's gmtannot error is an input error, both naming the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except GmtError as exc:
        raise _InputError(f"{path}: {exc}") from None


def _parse_document(path: str, text: str) -> GmtDocument:
    """The GMT document of ``text``; its reader's warnings go to stderr as ``PATH:LINE:COLUMN: message``."""
    from .xml_io import parse_gmt
    doc, diagnostics = parse_gmt(text)
    for warning in diagnostics.warnings:
        print(f"{path}:{warning.line}:{warning.column}: {warning.message}", file=sys.stderr)
    return doc


def _load_document(path: str) -> GmtDocument:
    return _load(path, lambda text: _parse_document(path, text))


def cmd_validate(args: SimpleNamespace) -> int:
    from .model import ValidationReport, _validate
    from .registry import _check_feature, default_registry, load_registry
    doc = _load_document(args.file)
    reg = _load(args.registry, load_registry) if args.registry is not None else default_registry()
    structure, categories = _validate(doc, True, lambda feat: _check_feature(feat, reg))
    report = ValidationReport(tuple(structure + categories))
    if report.findings:
        print(report.render())
    return OK if report.ok else FINDINGS


def cmd_convert(args: SimpleNamespace) -> int:
    from .agraph import (
        DEFAULT_TYPE_MAP, LANDMARK_DESC_TYPE, ag_to_gmt, gmt_to_ag, load_type_map, parse_ag, serialize_ag)
    from .xml_io import serialize_gmt
    type_map = _load(args.map, load_type_map) if args.map else DEFAULT_TYPE_MAP
    if args.source_format == "ag":
        if len(args.inputs) != 1:
            raise _InputError("ag -> gmt takes exactly one input file")
        docs = ag_to_gmt(_load(args.inputs[0], parse_ag), type_map)
        # Every name is checked and every document serialized before a file is written, so a refusal writes nothing.
        names = ["landmarks.xml" if doc.doc_type == LANDMARK_DESC_TYPE else f"{doc.doc_type}.xml" for doc in docs]
        out_dir = Path(args.output)
        for k, name in enumerate(names):
            if Path(name).name != name or "\0" in name:
                raise _InputError(f"document type {docs[k].doc_type!r} does not name a file in the output directory")
            if name in names[:k]:
                raise _InputError(f"two documents would both be written to {name!r}")
            if (out_dir / name).is_dir():
                raise _InputError(f"cannot write {out_dir / name}: it is a directory")
        texts = [serialize_gmt(doc) for doc in docs]
        out_dir.mkdir(parents=True, exist_ok=True)
        import tempfile
        # Written in a directory of their own and moved into place only when all are, so an OSError leaves no file.
        with tempfile.TemporaryDirectory(dir=out_dir, ignore_cleanup_errors=True) as staging:
            try:
                for text, name in zip(texts, names):
                    Path(staging, name).write_text(text, encoding="utf-8")
                for name in names:
                    Path(staging, name).replace(out_dir / name)
            except OSError as exc:  # named by its output path: the staging directory is gone when this is read
                raise OSError(exc.errno, exc.strerror, str(out_dir / name)) from None
    else:
        landmark_doc = _load_document(args.inputs[0])
        layers = [_load_document(path) for path in args.inputs[1:]]
        graph = gmt_to_ag(landmark_doc, layers, type_map)
        Path(args.output).write_text(serialize_ag(graph), encoding="utf-8")
    return OK


def cmd_resolve(args: SimpleNamespace) -> int:
    from .anchoring import build_landmark_table, load_token_index, resolve_seg
    from .model import SegmentRef, iter_items
    doc = _load_document(args.file)
    tokens = _load(args.tokens, load_token_index) if args.tokens else None
    landmarks = (_load(args.landmarks, lambda text: build_landmark_table(_parse_document(args.landmarks, text)))
                 if args.landmarks else None)
    failed = False
    for path, node in doc.walk():
        for item in iter_items(node):
            if not isinstance(item, SegmentRef):
                continue
            try:
                span = resolve_seg(item, tokens=tokens, landmarks=landmarks)
            except (UnresolvedTargetError, InvertedSpanError) as exc:
                print(f"{args.file}: {path}: {exc}", file=sys.stderr)
                failed = True
                continue
            # Without layers, resolve_seg returns a span or raises.
            print(f"{path}\t{span.start}\t{span.end}")
    if failed and not args.lenient:
        return FINDINGS
    return OK


def cmd_merge(args: SimpleNamespace) -> int:
    from .merge import MergePolicy, merge
    from .xml_io import serialize_gmt
    docs = [_load_document(path) for path in args.files]
    warnings: list[str] = []
    text = serialize_gmt(merge(docs, MergePolicy(on_parallel=args.policy), warnings))
    for warning in warnings:
        _err(warning)
    Path(args.output).write_text(text, encoding="utf-8")
    return OK


def cmd_diff(args: SimpleNamespace) -> int:
    from .merge import diff
    report = diff(_load_document(args.left), _load_document(args.right))
    if report.entries:
        print(report.render())
    return OK if report.all_equal else FINDINGS


# Per command: help, function, and add_argument calls in usage-error order; build_parser and _read_argv both read it.
_COMMANDS = {
    "validate": ("check a document's structure and data categories", cmd_validate, [
        (("file",), {}), (("--registry",), dict(help="registry file (default: the bundled registry)"))]),
    "convert": ("convert between annotation graphs and GMT documents", cmd_convert, [
        (("--from",), dict(dest="source_format", choices=("ag", "gmt"), required=True)),
        (("--to",), dict(dest="target_format", choices=("ag", "gmt"), required=True)), (("inputs",), dict(nargs="+")),
        (("-o", "--output"), dict(required=True, help="output directory (ag->gmt) or file (gmt->ag)")),
        (("--map",), dict(help="arc type mapping table (default: P/W)"))]),
    "resolve": ("resolve segment references to spans", cmd_resolve, [
        (("file",), {}), (("--tokens",), dict(help="token index file")),
        (("--landmarks",), dict(help="landmark description document")),
        (("--lenient",), dict(action="store_true", help="skip unresolvable targets instead of failing"))]),
    "merge": ("merge annotation layers of one document type", cmd_merge, [
        (("files",), dict(nargs="+")), (("-o", "--output"), dict(required=True)),
        (("--policy",), dict(choices=POLICIES, default=KEEP_ALL))]),
    "diff": ("compare two documents anchor by anchor", cmd_diff, [(("left",), {}), (("right",), {})]),
}


def build_parser():
    """argparse's parser for the command table, built only when needed, as importing argparse takes milliseconds."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="gmtannot", description="Validate, resolve, merge, diff and convert stand-off annotation documents.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for ``argv``; None where argparse must answer: help, a usage error, an option not spelled
    in full, any other word starting with ``-``, positionals split by an option, and ``--from`` equal to ``--to``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values, options, positionals, words = {"command": argv[0], "func": _COMMANDS[argv[0]][1]}, {}, [], []
    for flags, kwargs in _COMMANDS[argv[0]][2]:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], kwargs.get("nargs")))
            continue
        dest = kwargs.get("dest", flags[-1].lstrip("-"))
        options.update(dict.fromkeys(flags, (dest, kwargs)))
        if not kwargs.get("required"):  # a required option's dest stays out of values until it is given
            values[dest] = kwargs.get("default", False if "action" in kwargs else None)
    rest, closed = iter(argv[1:]), False
    for word in rest:
        if not (closed or word.startswith("-")):
            words.append(word)
        elif word not in options:
            return None
        else:
            closed, (dest, kwargs) = bool(words), options[word]
            value = values[dest] = True if "action" in kwargs else next(rest, "-")  # the one action is store_true
            if value is not True and (value.startswith("-") or value not in kwargs.get("choices", (value,))):
                return None
    for k, (dest, nargs) in enumerate(positionals, 1):
        take = len(words) - len(positionals) + k if nargs else 1  # "+" takes what the later positionals leave
        if not 1 <= take <= len(words):
            return None
        values[dest], words = words[:take] if nargs else words[0], words[take:]
    if words or any(dest not in values for dest, _ in options.values()):
        return None
    return None if values.get("source_format", 0) == values.get("target_format") else SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if (args := _read_argv(sys.argv[1:] if argv is None else argv)) is None:
        parser = build_parser()
        args = parser.parse_args(argv, SimpleNamespace())
        if args.command == "convert" and args.source_format == args.target_format:
            parser.error("--from and --to must name different formats")
    try:
        return args.func(args)
    except (OSError, _InputError) as exc:
        _err(str(exc))
        return FAILURE
    except (GmtError, ValueError) as exc:
        _err(str(exc))
        return FINDINGS


def run() -> None:
    """The entry point of the ``gmtannot`` script and of ``python -m gmtannot`` (its policies: module docstring)."""
    gc.disable()
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        _err(str(exc))
        code = FAILURE
    os._exit(code)
