"""The behaviour digest: one SHA-256 per seeded input over everything the library reports about it.

``digest.txt`` holds one ``name sha256`` line per input.  The inputs are
seeded ``random_markup`` texts, ``random_document`` and
``random_mergeable_document`` pairs, ``random_graph`` graphs, every fixture
and the deep generators of ``randgen`` up to depth 100.  Each hash covers,
fed as length-prefixed UTF-8 bytes (never ``repr``):

- the reader's ``(line, column, message)`` warnings, or its error class and message;
- both validators' findings;
- every node's path and ``anchor_key``, and each of its segments resolved
  against a fixed token index, landmark table and the document itself;
- the written bytes, or the writer's error class and message;
- for a pair, the merge's warnings and written bytes (or error) under each
  policy, and the ``diff`` render;
- for a graph, the GMT documents ``ag_to_gmt`` makes of it, and the
  graph that ``gmt_to_ag`` makes of them, written.

A model document is first written and then read back like a text, so the
reader also sees canonical output.  The digest changes when any of these
changes, so a change meant to keep behaviour can show that it did::

    PYTHONPATH=src python tests/golden/regen.py          # rewrite digest.txt
    PYTHONPATH=src python tests/golden/regen.py --check  # print the changed lines; exit 1 if any
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path
from typing import Callable, Optional

GOLDEN = Path(__file__).resolve().parent
TESTS = GOLDEN.parent
if str(TESTS) not in sys.path:  # for randgen when run as a script
    sys.path.insert(0, str(TESTS))

from randgen import (  # noqa: E402
    deep_chain_text,
    deep_feature_text,
    deep_segless_text,
    random_document,
    random_graph,
    random_markup,
    random_mergeable_document,
)

from gmtannot import (  # noqa: E402
    AnnotationGraph,
    GmtDocument,
    MergePolicy,
    SegmentRef,
    Token,
    TokenIndex,
    ag_to_gmt,
    anchor_key,
    default_registry,
    derived_extent,
    diff,
    gmt_to_ag,
    merge,
    parse_ag,
    parse_gmt,
    resolve_seg,
    serialize_ag,
    serialize_gmt,
    validate_categories,
    validate_structure,
)
from gmtannot.merge import POLICIES  # noqa: E402
from gmtannot.model import iter_items  # noqa: E402

DIGEST = GOLDEN / "digest.txt"
FIXTURES = TESTS.parent / "fixtures"
MARKUP_COUNT = 2000
DOCUMENT_PAIRS = 700
MERGEABLE_PAIRS = 500
GRAPHS = 250
DEPTHS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 100)

REGISTRY = default_registry()
TOKENS = TokenIndex(tuple(Token(f"w{k}", 3 * k, 3 * k + 2) for k in range(1, 9)))
# randgen's landmark ids, and the ones random_markup writes ("#0" to "#3").
LANDMARKS = {**{f"lm{k}": 7 * k for k in range(6)}, "0": 0, "1": 5, "2": 9, "3": 2}


class _Hash:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def add(self, *parts: object) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else str(part).encode("utf-8", "surrogatepass")
            self.sha.update(b"%d:%b;" % (len(data), data))

    def call(self, label: str, fn: Callable[[], object]) -> Optional[object]:
        """``fn()``, with ``label`` fed first; an exception is fed as its class and message, giving None."""
        self.add(label)
        try:
            return fn()
        except Exception as exc:  # every outcome is recorded, none stops the digest
            self.add("raised", type(exc).__name__, exc)
            return None


def _read(h: _Hash, text: str) -> Optional[GmtDocument]:
    read = h.call("read", lambda: parse_gmt(text))
    if read is None:
        return None
    doc, diagnostics = read
    for warning in diagnostics.warnings:
        h.add(warning.line, warning.column, warning.message)
    _describe(h, doc)
    h.call("write", lambda: h.add(serialize_gmt(doc).encode("utf-8")))
    return doc


def _describe(h: _Hash, doc: GmtDocument) -> None:
    for label, validate in (("structure", validate_structure), ("categories", lambda d: validate_categories(d, REGISTRY))):
        report = h.call(label, lambda: validate(doc))
        for finding in report.findings if report is not None else ():
            h.add(finding.severity, finding.code, finding.path, finding.message)
    layers = {"layer": doc}
    for path, node in doc.walk():
        h.add(path)
        h.call("key", lambda: h.add(anchor_key(node)))
        for item in iter_items(node):
            if type(item) is SegmentRef:
                span = h.call("seg", lambda: resolve_seg(item, TOKENS, LANDMARKS, layers))
                if span is not None:
                    h.add(span.layer, span.start, span.end, *span.target_nodes)
    warnings: list[str] = []
    h.call("extent", lambda: h.add(derived_extent(doc.root, TOKENS, LANDMARKS, strict=False, warnings=warnings)))
    h.add(*warnings)


def _model(h: _Hash, doc: GmtDocument) -> Optional[GmtDocument]:
    """Write a model document and read what was written."""
    written = h.call("model", lambda: serialize_gmt(doc))
    return None if written is None else _read(h, written)


def _pair(h: _Hash, left: GmtDocument, right: GmtDocument) -> None:
    for policy in POLICIES:
        warnings: list[str] = []
        merged = h.call(policy, lambda: merge([left, right], MergePolicy(policy), warnings))
        h.add(*warnings)
        if merged is not None:
            h.call("write", lambda: h.add(serialize_gmt(merged).encode("utf-8")))
    h.call("diff", lambda: h.add(diff(left, right).render()))


def _graph(h: _Hash, graph: AnnotationGraph) -> None:
    """Convert a graph to GMT documents, write and read each, and write the graph converted back."""
    docs = h.call("ag_to_gmt", lambda: ag_to_gmt(graph))
    if docs is None:
        return
    for doc in docs:
        _model(h, doc)
    h.call("gmt_to_ag", lambda: h.add(serialize_ag(gmt_to_ag(docs[0], docs[1:]))))


def _inputs():
    """Yield ``(name, feed)`` per input, where ``feed(h)`` hashes what the library reports on it."""
    for k in range(MARKUP_COUNT):
        yield f"markup/{k:04d}", lambda h, k=k: _read(h, random_markup(random.Random(k)))
    for path in sorted(FIXTURES.iterdir()):
        def fixture(h: _Hash, path: Path = path) -> None:
            text = path.read_text(encoding="utf-8")
            doc = _read(h, text)
            if doc is not None:
                _pair(h, doc, doc)
            graph = h.call("ag", lambda: parse_ag(text))
            if graph is not None:
                _graph(h, graph)
        yield f"fixture/{path.name}", fixture
    deep = {
        "chain": (deep_chain_text, deep_chain_text),
        "chain-flat": (lambda d: deep_chain_text(d, indent=False), deep_chain_text),
        "segless": (deep_segless_text, lambda d: deep_segless_text(d, leaf="other")),
        "feature": (deep_feature_text, lambda d: deep_feature_text(d, leaf="other")),
    }
    for kind, (make_left, make_right) in deep.items():
        for depth in DEPTHS:
            def deep_pair(h: _Hash, make_left=make_left, make_right=make_right, depth=depth) -> None:
                left, right = _read(h, make_left(depth)), _read(h, make_right(depth))
                if left is not None and right is not None:
                    _pair(h, left, right)
            yield f"deep/{kind}/{depth:03d}", deep_pair
    for prefix, count, make in (
        ("document", DOCUMENT_PAIRS, random_document),
        ("mergeable", MERGEABLE_PAIRS, random_mergeable_document),
    ):
        for k in range(count):
            def model_pair(h: _Hash, k=k, make=make) -> None:
                rng = random.Random(k)
                left, right = make(rng), make(rng, id_prefix="m")  # distinct ids, so most merges can be written
                _model(h, left)
                _model(h, right)
                _pair(h, left, right)
            yield f"{prefix}/{k:04d}", model_pair
    for k in range(GRAPHS):
        yield f"graph/{k:03d}", lambda h, k=k: _graph(h, random_graph(random.Random(k)))


def compute() -> list[str]:
    """The digest's lines, one ``name sha256`` per input, in input order."""
    lines = []
    for name, feed in _inputs():
        h = _Hash()
        feed(h)
        lines.append(f"{name} {h.sha.hexdigest()}")
    return lines


def changes(old: list[str], new: list[str]) -> list[str]:
    """``-line``/``+line`` for each input whose line was removed, added or changed."""
    before, after = set(old), set(new)
    return [f"-{line}" for line in old if line not in after] + [f"+{line}" for line in new if line not in before]


def read() -> list[str]:
    return DIGEST.read_text(encoding="utf-8").splitlines()


def main(argv: list[str]) -> int:
    lines = compute()
    if argv == ["--check"]:
        changed = changes(read(), lines)
        print("\n".join(changed) if changed else f"{len(lines)} inputs, digest unchanged")
        return 1 if changed else 0
    if argv:
        print("usage: regen.py [--check]", file=sys.stderr)
        return 2
    DIGEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {DIGEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
