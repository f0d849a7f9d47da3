"""The four benchmark workloads: what each holds after set-up, one op, and its check.

Each op calls gmtannot only through ``api``, whose attributes are either the
library's public functions or traced wrappers around them (see
``worker.py``).  ``check`` compares an op's result with the generator's
ground truth and returns a reason on mismatch; it runs outside the timed
interval.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

#: Program text of one CLI child process: the package is not installed and
#: has no ``__main__`` module, so the entry point is called directly.
CLI_MAIN = "from gmtannot.cli import run; run()"
CLI_TIMEOUT_S = 60


def load_truth(path: Path) -> dict:
    return json.loads((path / "truth.json").read_text(encoding="utf-8"))


def segments(node, lib) -> list:
    return [item for item in node.items if isinstance(item, lib.SegmentRef)]


class Workload:
    """Counts of ground-truth mismatches by kind, filled in by ``check``."""

    def __init__(self) -> None:
        self.mismatches: Counter = Counter()

    def prepare(self, i: int) -> None:
        """Runs before op ``i``, outside its timed interval."""


class Roundtrip(Workload):
    """Parse, validate and write back large single-layer documents."""

    def __init__(self, lib, path: Path):
        super().__init__()
        self.lib = lib
        self.truth = load_truth(path)
        self.texts = [(path / d["file"]).read_text(encoding="utf-8") for d in self.truth["docs"]]
        self.registry = lib.default_registry()

    def op(self, api, i: int):
        text = self.texts[i % len(self.texts)]
        doc, _ = api.parse_gmt(text)
        structure = api.validate_structure(doc)
        categories = api.validate_categories(doc, self.registry)
        return api.serialize_gmt(doc), structure, categories

    def check(self, i: int, result) -> str | None:
        out, structure, categories = result
        truth = self.truth["docs"][i % len(self.texts)]
        if out != self.texts[i % len(self.texts)]:
            return f"{truth['file']}: written text differs from the input"
        if len(structure.findings) != truth["structure_findings"]:
            return f"{truth['file']}: {len(structure.findings)} structure findings"
        codes = dict(Counter(f.code for f in categories.findings))
        if codes != truth["category_findings"]:
            return f"{truth['file']}: category findings {codes} != {truth['category_findings']}"
        return None


class Align(Workload):
    """Merge three annotators' layers under every policy, write them, diff the pairs."""

    def __init__(self, lib, path: Path):
        super().__init__()
        self.lib = lib
        self.truth = load_truth(path)
        self.docs = [lib.parse_gmt((path / f).read_text(encoding="utf-8"))[0]
                     for f in self.truth["layers"]]
        self.policies = [lib.MergePolicy(on_parallel=p) for p in self.truth["merged_nodes"]]

    def op(self, api, i: int):
        merged = []
        for policy in self.policies:
            doc = api.merge(self.docs, policy, [])
            merged.append((doc, api.serialize_gmt(doc)))
        diffs = [api.diff(self.docs[a], self.docs[b]) for a, b in self.truth["diff_pairs"]]
        return merged, diffs

    def check(self, i: int, result) -> str | None:
        merged, diffs = result
        for policy, (doc, text) in zip(self.policies, merged):
            expected = self.truth["merged_nodes"][policy.on_parallel]
            if len(doc.root.children) != expected:
                return f"{policy.on_parallel}: {len(doc.root.children)} merged nodes, expected {expected}"
            if self.lib.parse_gmt(text)[0] != doc:
                return f"{policy.on_parallel}: merged document does not reparse to itself"
        for pair, report, expected in zip(self.truth["diff_pairs"], diffs, self.truth["diff_status"]):
            counts = dict(Counter(e.status for e in report.entries))
            if counts != expected:
                return f"diff {pair}: status counts {counts} != {expected}"
        return None


class Anchor(Workload):
    """Token, layer and landmark anchoring, plus the annotation-graph bridge both ways."""

    def __init__(self, lib, path: Path):
        super().__init__()
        self.lib = lib
        self.truth = load_truth(path)
        files = {k: (path / f).read_text(encoding="utf-8") for k, f in self.truth["files"].items()}
        self.tokens = lib.load_token_index(files["tokens"])
        words, _ = lib.parse_gmt(files["words"])
        phrases, _ = lib.parse_gmt(files["phrases"])
        self.layers = {"words": words}
        self.sentences = words.root.children
        self.word_segs = [s for sent in self.sentences for w in sent.children for s in segments(w, lib)]
        self.phrase_segs = [s for p in phrases.root.children for s in segments(p, lib)]
        self.graph_text = files["graph"]

    def op(self, api, i: int):
        word_spans = [api.resolve_token(s, tokens=self.tokens) for s in self.word_segs]
        phrase_spans = [api.resolve_layer(s, tokens=self.tokens, layers=self.layers)
                        for s in self.phrase_segs]
        extents = [api.derived_extent(s, tokens=self.tokens) for s in self.sentences]
        graph = api.parse_ag(self.graph_text)
        docs = [api.parse_gmt(api.serialize_gmt(d))[0] for d in api.ag_to_gmt(graph)]
        table = api.build_landmark_table(docs[0])
        landmark_spans = [api.resolve_landmark(s, landmarks=table)
                          for layer in docs[1:] for node in layer.root.children
                          for s in segments(node, self.lib)]
        rebuilt = api.serialize_ag(api.canonicalize_ag(api.gmt_to_ag(docs[0], docs[1:])))
        return word_spans, phrase_spans, extents, landmark_spans, rebuilt

    def check(self, i: int, result) -> str | None:
        word_spans, phrase_spans, extents, landmark_spans, rebuilt = result
        truth = self.truth
        got = [(s.layer, s.start, s.end) for s in word_spans]
        if got != [("primary", a, b) for a, b in truth["word_spans"]]:
            return "word segments resolve to other token spans"
        got = [(s.layer, list(s.target_nodes)) for s in phrase_spans]
        if got != [("words", ids) for ids in truth["phrase_targets"]]:
            return "phrase segments resolve to other layer nodes"
        if [list(e) for e in extents] != truth["sentence_extents"]:
            return "sentence extents differ"
        if [[s.start, s.end] for s in landmark_spans] != truth["landmark_spans"]:
            return "landmark segments resolve to other spans"
        if rebuilt != truth["canonical_graph"]:
            self.mismatches["graph"] += 1
            return "graph rebuilt from GMT differs from the generated graph"
        return None


def run_cli(name: str, argv: list[str], cwd: Path, env: dict) -> subprocess.CompletedProcess:
    """One gmtannot CLI child process; ``name`` labels the span when traced."""
    return subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)


class Cli(Workload):
    """Fixture-sized files through the real entry point, one child process per op."""

    def __init__(self, lib, path: Path, src: Path):
        super().__init__()
        self.truth = load_truth(path)
        self.commands = self.truth["commands"]
        self.cwd = path
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        # Load the bundled registry like every other workload does in set-up.
        lib.default_registry()

    def prepare(self, i: int) -> None:
        """Remove earlier outputs, so the check sees only what this op wrote."""
        shutil.rmtree(self.cwd / "out", ignore_errors=True)
        (self.cwd / "out").mkdir()

    def op(self, api, i: int):
        cmd = self.commands[i % len(self.commands)]
        return api.cli(cmd["name"], cmd["argv"], self.cwd, self.env)

    def check(self, i: int, result) -> str | None:
        cmd = self.commands[i % len(self.commands)]
        label = " ".join(cmd["argv"][:3])
        if result.returncode != cmd["exit"]:
            self.mismatches["exit"] += 1
            return f"{label}: exit {result.returncode}, expected {cmd['exit']}: {result.stderr.strip()[-200:]}"
        if result.stdout != cmd["stdout"]:
            return f"{label}: standard output differs"
        for name, text in cmd.get("files", {}).items():
            path = self.cwd / name
            if not path.is_file() or path.read_text(encoding="utf-8") != text:
                return f"{label}: {name} missing or different"
        return None


def make(workload: str, lib, path: Path, src: Path):
    if workload == "cli":
        return Cli(lib, path, src)
    return {"roundtrip": Roundtrip, "align": Align, "anchor": Anchor}[workload](lib, path)
