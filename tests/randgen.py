"""Seeded random generators used by the property-style tests.

Everything is driven by an explicit ``random.Random`` so the suites are
deterministic and the sample counts are exact.
"""

from __future__ import annotations

import random

from gmtannot import (
    AgArc,
    AltSet,
    AnnotationGraph,
    Bracket,
    Feature,
    GmtDocument,
    IdTargets,
    LandmarkEndpoints,
    PositionalSpan,
    Relation,
    SegmentRef,
    StructNode,
    Token,
    TokenIndex,
)

# Values deliberately include XML-hostile characters and non-ASCII text.
TEXT_VALUES = [
    "croissant",
    "aimer",
    "tête",
    "pomme_de_terre",
    "New York",
    "3",
    "a & b",
    "x < y > z",
    'say "hi"',
    "él–âge",
    "",
]
CATS = ["lemma", "pos", "tense", "person", "number", "gender", "note"]
NODE_TYPES = ["W-level", "phrase", "token", "span", None]
CONFIDENCES = ["0", "0.25", "0.4", "0.6", "0.75", "1"]


class DocBuilder:
    def __init__(self, rng: random.Random, id_prefix: str = "n"):
        self.rng = rng
        self.id_prefix = id_prefix
        self.counter = 0

    def fresh_id(self) -> str:
        self.counter += 1
        return f"{self.id_prefix}{self.counter}"

    def feature(self, depth: int = 0) -> Feature:
        rng = self.rng
        cat = rng.choice(CATS)
        roll = rng.random()
        if roll < 0.1 and depth < 2:
            nested = tuple(self.feature(depth + 1) for _ in range(rng.randint(1, 2)))
            return Feature(cat=cat, nested=nested)
        if roll < 0.2:
            return Feature(cat=cat, target=f"x{rng.randint(1, 30)}")
        return Feature(cat=cat, text=rng.choice(TEXT_VALUES))

    def bundle(self, with_confidence: bool = True) -> tuple:
        rng = self.rng
        members: list = [self.feature() for _ in range(rng.randint(1, 3))]
        if with_confidence and rng.random() < 0.6:
            members.append(Feature(cat="confidence", text=rng.choice(CONFIDENCES)))
        if rng.random() < 0.1:
            members.append(self.node(depth=3))
        return tuple(members)

    def seg(self) -> SegmentRef:
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            count = rng.randint(1, 3)
            ids = rng.sample([f"w{k}" for k in range(1, 9)], count)
            return SegmentRef(IdTargets(tuple(ids)))
        if roll < 0.8:
            start = rng.randint(0, 500)
            return SegmentRef(PositionalSpan(start, start + rng.randint(0, 200)))
        return SegmentRef(LandmarkEndpoints(f"lm{rng.randint(0, 5)}", f"lm{rng.randint(0, 5)}"))

    def item(self, depth: int, allow_alt: bool = True):
        rng = self.rng
        roll = rng.random()
        if roll < 0.45 or (roll < 0.75 and not allow_alt):
            return self.feature()
        if roll < 0.6:
            return self.seg()
        if roll < 0.75:
            return AltSet(tuple(self.bundle() for _ in range(rng.randint(2, 3))))
        if roll < 0.9:
            return Relation(target=f"n{rng.randint(1, 30)}", rel_type=rng.choice(["dep", None]))
        members = tuple(
            self.feature() if rng.random() < 0.6 else self.seg()
            for _ in range(rng.randint(1, 3))
        )
        return Bracket(members)

    def items(self, depth: int, count: int) -> tuple:
        # Adjacent alternative sets would reparse as one merged run, so the
        # canonical model never holds two in a row.
        out: list = []
        for _ in range(count):
            follows_alt = bool(out) and isinstance(out[-1], AltSet)
            out.append(self.item(depth, allow_alt=not follows_alt))
        return tuple(out)

    def node(self, depth: int) -> StructNode:
        rng = self.rng
        items = self.items(depth, rng.randint(0, 4))
        children = ()
        if depth < 3 and rng.random() < 0.5:
            children = tuple(self.node(depth + 1) for _ in range(rng.randint(1, 3)))
        return StructNode(
            type=rng.choice(NODE_TYPES),
            id=self.fresh_id() if rng.random() < 0.7 else None,
            ref=f"n{rng.randint(1, 30)}" if rng.random() < 0.1 else None,
            items=items,
            children=children,
        )


def random_document(rng: random.Random, id_prefix: str = "n") -> GmtDocument:
    """A structurally valid document with varied content; its node ids are ``id_prefix`` and a number."""
    builder = DocBuilder(rng, id_prefix)
    children = tuple(builder.node(depth=1) for _ in range(rng.randint(0, 5)))
    return GmtDocument(StructNode(type="MSAnnot", children=children))


def random_anchored_node(rng: random.Random, builder: DocBuilder, used_keys: set) -> StructNode:
    """A node with a unique, unambiguous segment anchor."""
    while True:
        seg = builder.seg()
        key = repr(seg.addr)
        if key not in used_keys:
            used_keys.add(key)
            break
    features = tuple(builder.feature() for _ in range(rng.randint(1, 3)))
    return StructNode(
        type=rng.choice(["W-level", "phrase"]),
        id=builder.fresh_id(),
        items=(seg,) + features,
    )


def random_mergeable_document(rng: random.Random, doc_type: str = "MSAnnot", id_prefix: str = "n") -> GmtDocument:
    """A flat document whose top-level nodes each carry a distinct anchor; its node ids are ``id_prefix`` and a number."""
    builder = DocBuilder(rng, id_prefix)
    used: set = set()
    children = tuple(random_anchored_node(rng, builder, used) for _ in range(rng.randint(1, 6)))
    return GmtDocument(StructNode(type=doc_type, children=children))


# Random GMT-like markup: the attributes each tag usually carries, the
# values each attribute may take (hostile ones included), and stray text.
MARKUP_TAGS = ["struct", "feat", "alt", "rel", "seg", "brack", "startsAt", "endsAt", "position", "meta"]
MARKUP_USUAL_ATTRS = {
    "struct": [(), ("type",), ("type", "id"), ("id", "ref"), ("ID",)],
    "feat": [("type",), ("type",), ("type", "target"), ()],
    "rel": [("target",), ("type", "target"), ()],
    "seg": [("target",), ("targets",), ("startsAt", "endsAt"), ("startPosition", "endPosition"), ("target", "targets"), ()],
    "startsAt": [("target",), ()],
    "endsAt": [("target",), ()],
}
MARKUP_VALUES = {
    "type": ["lemma", "pos", "W-level", "", "a b", "a&amp;b&quot;", "x&#9;y>"],
    "id": ["n1", "n2", "w1", "", "x y", "n&#10;3", "&lt;q"],
    "ref": ["#n1", "n2", "#"],
    "target": ["#w1", "w2", "#n1", "", "#x y", "##w3", "#w&#13;4"],
    "targets": ["w1 w2", "#w1 w3", "w2", "##w4 w5", "", " w6 "],
    "startsAt": ["0", "3", "12", "-1", "x"],
    "endsAt": ["0", "5", "20", " 7 "],
    "lang": ["fr"],
}
MARKUP_VALUES["ID"] = MARKUP_VALUES["id"]
MARKUP_VALUES["startPosition"] = MARKUP_VALUES["startsAt"]
MARKUP_VALUES["endPosition"] = MARKUP_VALUES["endsAt"]
MARKUP_TEXT = ["", "", "", "NOUN", " tête ", "a &amp; b", "&lt;x&gt;", "\n  ", "a&#13;b", '"q" >']


def random_markup(rng: random.Random, depth: int = 4) -> str:
    """A GMT-like XML text: any known or unknown tag under any other, with
    usual, unusual and unknown attributes, hostile values and stray text."""

    def element(level: int) -> str:
        tag = rng.choice(MARKUP_TAGS) if level else "struct"
        names = list(rng.choice(MARKUP_USUAL_ATTRS.get(tag, [()])))
        if rng.random() < 0.15:
            names.append(rng.choice(sorted(MARKUP_VALUES)))
        values = {name: rng.choice(MARKUP_VALUES[name]) for name in names}
        if tag in ("startsAt", "endsAt") and "target" in values:
            values["target"] = f"#{rng.randint(0, 3)}"
        attrs = "".join(f' {name}="{value}"' for name, value in values.items())
        parts = [rng.choice(MARKUP_TEXT)]
        for _ in range(rng.choice((0, 0, 1, 2, 3, 4)) if level < depth else 0):
            parts.append(element(level + 1))
            if rng.random() < 0.2:
                parts.append(rng.choice(MARKUP_TEXT))
        return f"<{tag}{attrs}>{''.join(parts)}</{tag}>"

    return element(0)


PHONES = ["h#", "sh", "iy", "hv", "ae", "dcl", "y", "axr", "q", "em"]
WORDS = ["she", "had", "your", "dark", "suit", "in"]


def random_graph(rng: random.Random) -> AnnotationGraph:
    """A valid annotation graph whose nodes all appear in arcs."""
    node_count = rng.randint(2, 8)
    offsets = sorted(rng.sample(range(0, 20000), node_count))
    pool = [(f"g{k}", offset) for k, offset in enumerate(offsets)]
    arcs = []
    for _ in range(rng.randint(1, 12)):
        i = rng.randrange(node_count)
        j = rng.randrange(i, node_count)
        attrs = [("att_1", rng.choice(["P", "W"]))]
        attrs.append(("att_2", rng.choice(PHONES if attrs[0][1] == "P" else WORDS)))
        if rng.random() < 0.2:
            attrs.append(("att_3", rng.choice(["strong", "weak"])))
        arcs.append(AgArc(pool[i][0], pool[j][0], tuple(attrs)))
    nodes = {}
    for arc in arcs:
        for node_id, offset in pool:
            if node_id in (arc.source, arc.target):
                nodes[node_id] = offset
    return AnnotationGraph(nodes, tuple(arcs))


def random_registry_text(rng: random.Random, max_size: int = 20) -> str:
    """Registry file text for a random acyclic category forest."""
    size = rng.randint(1, max_size)
    names = [f"c{k}" for k in range(size)]
    lines = ["# generated registry"]
    for k, name in enumerate(names):
        parts = [name]
        if k > 0 and rng.random() < 0.6:
            parts.append(f"parent={names[rng.randrange(k)]}")
        roll = rng.random()
        if roll < 0.5:
            parts.append("kind=open")
        elif roll < 0.7:
            values = ",".join(rng.sample(["A", "B", "C", "D", "E"], rng.randint(1, 3)))
            parts.append(f"kind=set:{values}")
        elif roll < 0.9:
            parts.append("kind=range:0..1")
        else:
            parts.append("kind=ref")
        if rng.random() < 0.25:
            parts.append(f"alias=al{k}a,al{k}b")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def random_token_index(rng: random.Random, count: int = 8) -> TokenIndex:
    entries = []
    cursor = 0
    for k in range(1, count + 1):
        cursor += rng.randint(0, 5)
        length = rng.randint(1, 12)
        entries.append(Token(f"w{k}", cursor, cursor + length))
        cursor += length
    return TokenIndex(tuple(entries))


def random_landmark_table(rng: random.Random, count: int = 6) -> dict:
    """Landmark positions increasing with the lexical order of the ids."""
    positions = sorted(rng.sample(range(0, 5000), count))
    return {f"lm{k}": positions[k] for k in range(count)}


def random_anchored_tree(rng: random.Random, builder: DocBuilder, landmark_ids: list, depth: int = 0) -> StructNode:
    """A tree whose segments stay resolvable against generated context."""
    items = []
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.4:
            count = rng.randint(1, 3)
            items.append(SegmentRef(IdTargets(tuple(rng.sample([f"w{k}" for k in range(1, 9)], count)))))
        elif roll < 0.7:
            start = rng.randint(0, 900)
            items.append(SegmentRef(PositionalSpan(start, start + rng.randint(0, 100))))
        else:
            a, b = rng.choice(landmark_ids), rng.choice(landmark_ids)
            items.append(SegmentRef(LandmarkEndpoints(min(a, b), max(a, b))))
    children = ()
    if depth < 3 and rng.random() < 0.6:
        children = tuple(
            random_anchored_tree(rng, builder, landmark_ids, depth + 1)
            for _ in range(rng.randint(1, 3))
        )
    return StructNode(type="span", id=builder.fresh_id(), items=tuple(items), children=children)


def deep_chain_text(depth: int, indent: bool = True) -> str:
    """A ``<struct>`` chain ``depth`` + 1 levels deep, in canonical form when indented.

    The outermost node relates to the innermost one, which carries a
    registry-valid feature and a positional segment, so the chain is valid
    and resolvable without any context.
    """
    def pad(level: int) -> str:  # canonical indentation stops growing at 128 levels
        return "  " * min(level, 128) if indent else ""

    lines = ['<?xml version="1.0" encoding="UTF-8"?>', '<struct type="chain">', pad(1) + '<rel target="#leaf"/>']
    lines += [pad(level) + '<struct type="chain">' for level in range(1, depth)]
    lines += [
        pad(depth) + '<struct type="chain" id="leaf">',
        pad(depth + 1) + '<feat type="pos">NOUN</feat>',
        pad(depth + 1) + '<seg startsAt="0" endsAt="1"/>',
    ]
    lines += [pad(level) + "</struct>" for level in range(depth, -1, -1)]
    return "\n".join(lines) + "\n"


def deep_segless_text(depth: int, leaf: str = "end") -> str:
    """An anchored ``<struct>`` over a chain of ``depth`` nodes without segments.

    Every chain node carries the feature ``lemma=x`` except the deepest,
    whose value is ``leaf``; no element has an id, so merged copies are valid.
    """
    chain = '<struct type="c"><feat type="lemma">x</feat>' * (depth - 1)
    return (
        '<struct type="W-level"><seg target="#w1"/><feat type="pos">NOUN</feat>'
        f'{chain}<struct type="c"><feat type="lemma">{leaf}</feat></struct>{"</struct>" * (depth - 1)}</struct>\n'
    )


def deep_feature_text(depth: int, leaf: str = "end") -> str:
    """An anchored ``<struct>`` below a root, whose one feature nests ``depth`` levels deep down to ``leaf``."""
    opening, closing = '<feat type="f">' * depth, "</feat>" * depth
    return (
        '<struct type="MSAnnot"><struct type="W-level"><seg target="#w1"/>'
        f'{opening}<feat type="g">{leaf}</feat>{closing}</struct></struct>\n'
    )
