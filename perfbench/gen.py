"""Seeded inputs and their ground truth for the gmtannot benchmark.

Every input is written here as canonical GMT or annotation-graph XML text,
following ``docs/formats.md``, and never through gmtannot's own writer, so
one seed gives the same bytes on every commit.  The ground truth for each
check (findings, spans, diff status counts, merged node counts, CLI exit
codes and output) is worked out from the generator's own records; nothing
here imports gmtannot.

    python3 perfbench/gen.py --workload roundtrip --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from pathlib import Path

WORKLOADS = ("roundtrip", "align", "anchor", "cli")

#: Input sizes at scale 1.  Chosen so that one op takes roughly 0.05-0.2 s
#: and a run of the benchmark holds well over 100 ops.
SIZES = {
    "roundtrip": {"docs": 4, "words": 1600},
    "align": {"words": 160},
    "anchor": {"words": 600, "phrases": 50, "words_spoken": 60},
    "cli": {"words": 5, "words_spoken": 3},
}

DECL = '<?xml version="1.0" encoding="UTF-8"?>'

#: Values the bundled registry accepts for ``pos``, and two it does not.
POS = ("PNOUN", "VERB", "DET", "NOUN", "PREP")
POS_OUTSIDE = ("ADJ", "ADV")
#: A category the bundled registry does not know.
UNKNOWN_CAT = "mood"
EXTRA_FEATURES = {
    "VERB": (("tense", ("present", "past", "future")), ("person", ("1", "2", "3"))),
    "NOUN": (("number", ("singular", "plural")), ("gender", ("masculine", "feminine"))),
    "DET": (("number", ("singular", "plural")),),
}
SYLLABLES = ("pa", "ul", "ai", "me", "les", "croi", "ssant", "bou", "che", "pom", "ter", "re",
             "chat", "du", "mar", "ché", "vi", "lle", "son", "to", "ni", "que", "ba", "ro")
PHONES = ("sh", "iy", "hv", "ae", "dcl", "y", "axr", "aa", "k", "t", "s", "n", "m", "ow")

#: Share of words that are ambiguous (alternative sets) and that carry a
#: value outside the registry, in the roundtrip documents.
AMBIGUOUS_SHARE = 0.15
OUTSIDE_SHARE = 0.02
#: Per annotator layer in the align workload: share of words equal to the
#: base layer, with a changed ``pos``, and dropped.
ALIGN_EQUAL, ALIGN_CHANGED = 0.70, 0.20


def sized(workload: str, scale: float) -> dict[str, int]:
    return {k: max(2, round(v * scale)) if k != "docs" else v for k, v in SIZES[workload].items()}


class Words:
    """Seeded word records: lemma, pos and extra features; the lemma is also the token text."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def lemma(self) -> str:
        return "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(1, 3)))

    def word(self) -> dict:
        pos = self.rng.choice(POS)
        extras = [(cat, self.rng.choice(values)) for cat, values in EXTRA_FEATURES.get(pos, ())
                  if self.rng.random() < 0.6]
        return {"lemma": self.lemma(), "pos": pos, "extras": extras}


def feats(word: dict) -> list[tuple[str, str]]:
    return [("lemma", word["lemma"]), ("pos", word["pos"])] + list(word["extras"])


def feat_line(pad: str, cat: str, value: str) -> str:
    return f'{pad}<feat type="{cat}">{value}</feat>'


def word_lines(word: dict, token: str, depth: int, node_id: str | None = None) -> list[str]:
    """Canonical lines of one word node.

    A plain word lists its features before the segment, as in
    ``fixtures/msannot_sentence.xml``; an ambiguous one puts the segment
    first and then one ``<alt>`` per reading, as in
    ``fixtures/msannot_alternatives_bouche.xml``.
    """
    pad, inner = "  " * depth, "  " * (depth + 1)
    head = f'{pad}<struct type="W-level"' + (f' id="{node_id}"' if node_id else "") + ">"
    seg = f'{inner}<seg target="#{token}"/>'
    if "alts" not in word:
        return [head] + [feat_line(inner, c, v) for c, v in feats(word)] + [seg, f"{pad}</struct>"]
    lines = [head, seg]
    for reading, confidence in word["alts"]:
        lines.append(f"{inner}<alt>")
        lines += [feat_line(inner + "  ", c, v) for c, v in feats(reading)]
        lines.append(feat_line(inner + "  ", "confidence", confidence))
        lines.append(f"{inner}</alt>")
    return lines + [f"{pad}</struct>"]


def sentence_sizes(rng: random.Random, total: int) -> list[int]:
    sizes = []
    while total > 0:
        size = min(total, rng.randint(15, 25))
        sizes.append(size)
        total -= size
    return sizes


def stats(text: str) -> dict[str, int]:
    return {"nodes": text.count("<struct"), "features": text.count("<feat"),
            "bytes": len(text.encode("utf-8"))}


# ---------------------------------------------------------------------------
# roundtrip: large single-layer documents


def roundtrip_doc(rng: random.Random, n_words: int) -> tuple[str, Counter]:
    """One MSAnnot document of sentences of W-level words, and its findings."""
    gen = Words(rng)
    words = [gen.word() for _ in range(n_words)]
    n_ambiguous = round(n_words * AMBIGUOUS_SHARE)
    n_outside = max(1, round(n_words * OUTSIDE_SHARE))
    positions = rng.sample(range(n_words), n_ambiguous + n_outside)
    findings: Counter = Counter()
    for i in positions[:n_ambiguous]:
        first = rng.choice((1, 2, 3, 4))
        words[i]["alts"] = [(gen.word(), f"0.{first}"), (gen.word(), f"0.{10 - first}")]
    for i in positions[n_ambiguous:]:
        if rng.random() < 0.5:
            words[i]["pos"] = rng.choice(POS_OUTSIDE)
            findings["VALUE_NOT_IN_SET"] += 1
        else:
            words[i]["extras"] = words[i]["extras"] + [(UNKNOWN_CAT, "indicative")]
            findings["UNKNOWN_CATEGORY"] += 1
    lines = [DECL, '<struct type="MSAnnot">']
    index = 0
    for size in sentence_sizes(rng, n_words):
        lines.append('  <struct type="sentence">')
        for word in words[index:index + size]:
            index += 1
            lines += word_lines(word, f"w{index}", 2)
        lines.append("  </struct>")
    lines.append("</struct>")
    return "\n".join(lines) + "\n", findings


def gen_roundtrip(rng: random.Random, size: dict, out: Path) -> dict:
    docs = []
    for i in range(size["docs"]):
        text, findings = roundtrip_doc(rng, size["words"])
        name = f"doc{i}.xml"
        (out / name).write_text(text, encoding="utf-8")
        docs.append({"file": name, "category_findings": dict(sorted(findings.items())),
                     "structure_findings": 0, **stats(text)})
    return {"docs": docs, "nodes": sum(d["nodes"] for d in docs),
            "bytes": sum(d["bytes"] for d in docs)}


# ---------------------------------------------------------------------------
# align: several annotators' layers over the same tokens


def annotator_layers(rng: random.Random, n_words: int, n_layers: int) -> list[dict[int, dict]]:
    """Per layer, token number -> word; equal to a base word, changed or dropped."""
    gen = Words(rng)
    base = [gen.word() for _ in range(n_words)]
    layers = []
    for _ in range(n_layers):
        layer = {}
        for t, word in enumerate(base, start=1):
            r = rng.random()
            if r < ALIGN_EQUAL:
                layer[t] = word
            elif r < ALIGN_EQUAL + ALIGN_CHANGED:
                layer[t] = dict(word, pos=rng.choice([p for p in POS if p != word["pos"]]))
        layers.append(layer)
    return layers


def flat_layer_text(layer: dict[int, dict]) -> str:
    lines = [DECL, '<struct type="MSAnnot">']
    for t, word in layer.items():
        lines += word_lines(word, f"w{t}", 1)
    return "\n".join(lines + ["</struct>"]) + "\n"


def key(word: dict) -> tuple:
    return tuple(feats(word))


def merge_counts(layers: list[dict[int, dict]]) -> dict[str, int]:
    """Top-level node count of the merged layer under each policy."""
    tokens = set().union(*layers)
    return {
        "keep-all": sum(len(layer) for layer in layers),
        "dedup": sum(len({key(layer[t]) for layer in layers if t in layer}) for t in tokens),
        "fold-alt": len(tokens),
    }


def diff_entries(left: dict[int, dict], right: dict[int, dict]) -> list[tuple[str, str, str]]:
    """(anchor key, status, detail) per token, in the order diff reports them."""
    entries = []
    for t in sorted(set(left) | set(right), key=lambda t: f"ids:w{t}"):
        if t not in right:
            entries.append((f"ids:w{t}", "onlyLeft", "1 node(s) of type W-level"))
        elif t not in left:
            entries.append((f"ids:w{t}", "onlyRight", "1 node(s) of type W-level"))
        elif key(left[t]) == key(right[t]):
            entries.append((f"ids:w{t}", "bothEqual", ""))
        else:
            entries.append((f"ids:w{t}", "bothDiffer", f"pos:{left[t]['pos']}->{right[t]['pos']}"))
    return entries


def gen_align(rng: random.Random, size: dict, out: Path) -> dict:
    layers = annotator_layers(rng, size["words"], 3)
    files = [f"layer{i}.xml" for i in range(len(layers))]
    texts = [flat_layer_text(layer) for layer in layers]
    for name, text in zip(files, texts):
        (out / name).write_text(text, encoding="utf-8")
    pairs = [(0, 1), (0, 2), (1, 2)]
    diffs = [dict(sorted(Counter(s for _, s, _ in diff_entries(layers[a], layers[b])).items()))
             for a, b in pairs]
    return {"layers": files, "merged_nodes": merge_counts(layers), "diff_pairs": pairs,
            "diff_status": diffs, "nodes": sum(stats(t)["nodes"] for t in texts),
            "bytes": sum(stats(t)["bytes"] for t in texts)}


# ---------------------------------------------------------------------------
# anchor: tokens, an id-carrying word layer, a phrase layer and a graph


def token_lines(surfaces: list[str]) -> tuple[list[str], list[tuple[int, int]]]:
    lines, spans, offset = ["# tokenId\tstart\tend"], [], 0
    for i, surface in enumerate(surfaces, start=1):
        spans.append((offset, offset + len(surface)))
        lines.append(f"w{i}\t{offset}\t{offset + len(surface)}")
        offset += len(surface) + 1
    return lines, spans


def graph(rng: random.Random, n_words: int) -> tuple[dict[str, int], list[tuple[str, str, str, str]]]:
    """Timeline nodes and arcs (source, att_1, att_2, target) in file order.

    A leading silence phone, then per word its phones followed by the word
    arc spanning them, as in ``fixtures/annotation_graph.xml``.
    """
    nodes = {"0": 0, "1": rng.randint(500, 2500)}
    arcs = [("0", "P", "h#", "1")]
    for _ in range(n_words):
        first = str(len(nodes) - 1)
        for _ in range(rng.randint(1, 4)):
            source = str(len(nodes) - 1)
            target = str(len(nodes))
            nodes[target] = nodes[source] + rng.randint(300, 2500)
            arcs.append((source, "P", rng.choice(PHONES), target))
        arcs.append((first, "W", Words(rng).lemma(), str(len(nodes) - 1)))
    return nodes, arcs


def ag_text(nodes: dict[str, int], arcs: list[tuple[str, str, str, str]]) -> str:
    lines = [DECL, "<annotation>"]
    for source, att1, att2, target in arcs:
        lines.append(f'  <arc><source id="{source}" offset="{nodes[source]}"/>'
                     f'<label att_1="{att1}" att_2="{att2}"/>'
                     f'<target id="{target}" offset="{nodes[target]}"/></arc>')
    return "\n".join(lines + ["</annotation>"]) + "\n"


def canonical_arcs(nodes: dict[str, int], arcs: list) -> list:
    """Arcs sorted as canonicalize_ag orders them (node ids are already in offset order)."""
    return sorted(arcs, key=lambda a: (nodes[a[0]], nodes[a[3]], (("att_1", a[1]), ("att_2", a[2]))))


def landmark_doc_text(nodes: dict[str, int]) -> str:
    lines = [DECL, '<struct type="landmarkDesc">']
    for node_id, offset in sorted(nodes.items(), key=lambda kv: (kv[1], kv[0])):
        lines += [f'  <struct type="landmark" id="{node_id}">',
                  feat_line("    ", "position", str(offset)), "  </struct>"]
    return "\n".join(lines + ["</struct>"]) + "\n"


def arc_layer_text(doc_type: str, payload: str, arcs: list) -> str:
    lines = [DECL, f'<struct type="{doc_type}">']
    for source, _, value, target in arcs:
        lines += [f'  <struct type="{payload}">', f'    <startsAt target="#{source}"/>',
                  f'    <endsAt target="#{target}"/>', feat_line("    ", payload, value),
                  "  </struct>"]
    return "\n".join(lines + ["</struct>"]) + "\n"


def gen_anchor(rng: random.Random, size: dict, out: Path) -> dict:
    gen = Words(rng)
    n = size["words"]
    words = [gen.word() for _ in range(n)]
    tokens, spans = token_lines([w["lemma"] for w in words])
    lines = [DECL, '<struct type="MSAnnot">']
    extents, index = [], 0
    for s, length in enumerate(sentence_sizes(rng, n), start=1):
        lines.append(f'  <struct type="sentence" id="s{s}">')
        for word in words[index:index + length]:
            index += 1
            lines += word_lines(word, f"w{index}", 2, node_id=f"n{index}")
        lines.append("  </struct>")
        extents.append((spans[index - length][0], spans[index - 1][1]))
    word_text = "\n".join(lines + ["</struct>"]) + "\n"
    phrase_lines, phrase_targets = [DECL, '<struct type="synAnnot">'], []
    for _ in range(size["phrases"]):
        k = rng.choice((2, 3))
        first = rng.randrange(n // k)
        ids = [f"n{first + j * (n // k) + 1}" for j in range(k)]
        phrase_targets.append(ids)
        phrase_lines += ['  <struct type="phrase">', feat_line("    ", "synCat", rng.choice(("NP", "VP", "PP"))),
                         f'    <seg targets="{" ".join(ids)}"/>', "  </struct>"]
    phrase_text = "\n".join(phrase_lines + ["</struct>"]) + "\n"
    nodes, arcs = graph(rng, size["words_spoken"])
    files = {"tokens": "words.tokens", "words": "words.xml", "phrases": "phrases.xml",
             "graph": "graph.xml"}
    texts = {"tokens": "\n".join(tokens) + "\n", "words": word_text, "phrases": phrase_text,
             "graph": ag_text(nodes, arcs)}
    for name, file in files.items():
        (out / file).write_text(texts[name], encoding="utf-8")
    p_arcs = [a for a in arcs if a[1] == "P"]
    w_arcs = [a for a in arcs if a[1] == "W"]
    return {
        "files": files,
        "word_spans": spans,
        "sentence_extents": extents,
        "phrase_targets": phrase_targets,
        "landmark_spans": [(nodes[a[0]], nodes[a[3]]) for a in p_arcs + w_arcs],
        "canonical_graph": ag_text(nodes, canonical_arcs(nodes, arcs)),
        "arcs": len(arcs),
        "landmarks": len(nodes),
        "nodes": stats(word_text)["nodes"] + stats(phrase_text)["nodes"],
        "bytes": sum(len(t.encode("utf-8")) for t in texts.values()),
    }


# ---------------------------------------------------------------------------
# cli: fixture-sized files through the command line


def cli_merge_text(left: dict[int, dict], right: dict[int, dict]) -> str:
    """The dedup merge of two flat layers: groups in first-occurrence order."""
    order = list(left) + [t for t in right if t not in left]
    lines = [DECL, '<struct type="MSAnnot">']
    for t in order:
        versions = [layer[t] for layer in (left, right) if t in layer]
        if len(versions) == 2 and key(versions[0]) == key(versions[1]):
            versions = versions[:1]
        for word in versions:
            lines += word_lines(word, f"w{t}", 1)
    return "\n".join(lines + ["</struct>"]) + "\n"


def gen_cli(rng: random.Random, size: dict, out: Path) -> dict:
    gen = Words(rng)
    words = [gen.word() for _ in range(size["words"])]
    tokens, spans = token_lines([w["lemma"] for w in words])
    left, right = annotator_layers(rng, size["words"], 2)
    nodes, arcs = graph(rng, size["words_spoken"])
    p_arcs = [a for a in arcs if a[1] == "P"]
    w_arcs = [a for a in arcs if a[1] == "W"]
    files = {
        "words.xml": flat_layer_text(dict(enumerate(words, start=1))),
        "words.tokens": "\n".join(tokens) + "\n",
        "landmarks.xml": landmark_doc_text(nodes),
        "phones.xml": arc_layer_text("phoneticAnnot", "phone", p_arcs),
        "left.xml": flat_layer_text(left),
        "right.xml": flat_layer_text(right),
        "graph.xml": ag_text(nodes, arcs),
    }
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    entries = diff_entries(left, right)
    diff_out = "".join(f"{s}\t{k}\t{d}\n" for k, s, d in entries) if entries else ""
    rows = lambda pairs: "".join(f"/struct[1]/struct[{i}]\t{s}\t{e}\n" for i, (s, e) in enumerate(pairs, 1))
    commands = [
        {"name": "validate", "argv": ["validate", "words.xml"], "exit": 0, "stdout": ""},
        {"name": "resolve", "argv": ["resolve", "words.xml", "--tokens", "words.tokens"],
         "exit": 0, "stdout": rows(spans)},
        {"name": "resolve", "argv": ["resolve", "phones.xml", "--landmarks", "landmarks.xml"],
         "exit": 0, "stdout": rows([(nodes[a[0]], nodes[a[3]]) for a in p_arcs])},
        {"name": "diff", "argv": ["diff", "left.xml", "right.xml"],
         "exit": 0 if all(s == "bothEqual" for _, s, _ in entries) else 1, "stdout": diff_out},
        {"name": "merge", "argv": ["merge", "left.xml", "right.xml", "-o", "out/merged.xml",
                                   "--policy", "dedup"],
         "exit": 0, "stdout": "", "files": {"out/merged.xml": cli_merge_text(left, right)}},
        {"name": "convert", "argv": ["convert", "--from", "ag", "--to", "gmt", "graph.xml",
                                     "-o", "out/gmt"],
         "exit": 0, "stdout": "", "files": {
             "out/gmt/landmarks.xml": landmark_doc_text(nodes),
             "out/gmt/phoneticAnnot.xml": arc_layer_text("phoneticAnnot", "phone", p_arcs),
             "out/gmt/morphAnnot.xml": arc_layer_text("morphAnnot", "source", w_arcs)}},
        {"name": "convert", "argv": ["convert", "--from", "gmt", "--to", "ag", "landmarks.xml",
                                     "phones.xml", "-o", "out/graph.xml"],
         "exit": 0, "stdout": "", "files": {"out/graph.xml": ag_text(nodes, p_arcs)}},
    ]
    return {"commands": commands, "nodes": sum(stats(t)["nodes"] for t in files.values()),
            "bytes": sum(len(t.encode("utf-8")) for t in files.values())}


GENERATORS = {"roundtrip": gen_roundtrip, "align": gen_align, "anchor": gen_anchor, "cli": gen_cli}


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the workload's inputs under ``out`` plus ``truth.json``; return the truth."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    truth = GENERATORS[workload](rng, sized(workload, scale), out)
    truth.update(workload=workload, seed=seed, scale=scale)
    (out / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, args.out, args.scale)
    print(json.dumps({k: truth[k] for k in ("workload", "seed", "nodes", "bytes")}))


if __name__ == "__main__":
    main()
