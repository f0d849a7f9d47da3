"""Combining and comparing stand-off annotation layers.

Nodes from different documents are aligned by an *anchor key*: the
canonical form of their segment addressing (identifier targets sorted,
positional spans as ``start-end``, landmark endpoints as ``lm
start-end``).  Nodes without a segment fall back to their type plus the
anchor keys of their descendants; nodes with no anchor anywhere cannot
be aligned and always pass through unchanged.  Equal keys mean equal
addressing: see "Anchor keys" in ``docs/formats.md``.

Groups of same-key nodes express the three relations between parallel
annotations: keep-all keeps them side by side, dedup collapses
structurally identical ones, fold-alt turns plain feature bundles into
one alternative set on a single node (richer content is preserved in
per-source brackets; nodes with children fall back to keep-all).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .errors import MergeError
from .model import (
    CONFIDENCE_CAT,
    AltSet,
    Bracket,
    Bundle,
    Feature,
    GmtDocument,
    IdTargets,
    NodeItem,
    PositionalSpan,
    Record,
    Relation,
    SegmentRef,
    StructNode,
    _set,
    iter_items,
)

if TYPE_CHECKING:
    from decimal import Decimal

KEEP_ALL = "keep-all"
DEDUP_IDENTICAL = "dedup"
FOLD_TO_ALT = "fold-alt"
POLICIES = (KEEP_ALL, DEDUP_IDENTICAL, FOLD_TO_ALT)

ONLY_LEFT = "onlyLeft"
ONLY_RIGHT = "onlyRight"
BOTH_EQUAL = "bothEqual"
BOTH_DIFFER = "bothDiffer"


class MergePolicy(Record):
    """How parallel annotations over one anchor are combined; ``alt_confidence_fill`` defaults to ``Decimal(0)``."""
    __slots__ = ("on_parallel", "alt_confidence_fill")

    def __init__(self, on_parallel: str = KEEP_ALL, alt_confidence_fill: Optional[Decimal] = None) -> None:
        import decimal

        if on_parallel not in POLICIES:
            raise ValueError(f"unknown policy {on_parallel!r}; pick one of {POLICIES}")
        fill = decimal.Decimal(0) if alt_confidence_fill is None else alt_confidence_fill
        # A NaN would make the range test raise InvalidOperation, which is no ValueError.
        if isinstance(fill, decimal.Decimal) and fill.is_nan() or not 0 <= fill <= 1:
            raise ValueError("alt_confidence_fill must lie in [0, 1]")
        _set(self, "on_parallel", on_parallel)
        _set(self, "alt_confidence_fill", fill)


# ---------------------------------------------------------------------------
# anchor keys


#: Characters that structure an anchor key, written as ``%XX`` inside ids,
#: landmark ids and node types so that distinct addressing never collides.
_KEY_DELIMITERS = frozenset("%,-&;:()")
_KEY_ESCAPES = str.maketrans({c: f"%{ord(c):02X}" for c in _KEY_DELIMITERS})


def _escape(text: str) -> str:
    # Testing membership first is about twice as fast on ids needing no escape.
    return text if _KEY_DELIMITERS.isdisjoint(text) else text.translate(_KEY_ESCAPES)


def seg_key(seg: SegmentRef) -> str:
    """Canonical string form of one segment's addressing."""
    addr = seg.addr
    if type(addr) is IdTargets:
        ids = addr.ids
        return "ids:" + (_escape(ids[0]) if len(ids) == 1 else ",".join(sorted(map(_escape, ids))))
    if type(addr) is PositionalSpan:
        return f"span:{addr.start}-{addr.end}"
    return f"lm:{_escape(addr.start)}-{_escape(addr.end)}"


def anchor_key(node: StructNode) -> Optional[str]:
    """Alignment key for a node, or None when it has no anchor at all.

    A node carrying segments is keyed by them.  Any other node is keyed by its type and its
    children's keys, folded bottom-up by :func:`_scan`.  Each call computes the key afresh and keeps nothing.
    """
    return _scan([node])[0]


def _key(segs: list[SegmentRef]) -> str:
    # Most nodes have one segment, whose key takes no sort.
    return seg_key(segs[0]) if len(segs) == 1 else "&".join(sorted(map(seg_key, segs)))


def _scan(nodes: list[StructNode]) -> list[Optional[str]]:
    """The :func:`anchor_key` of each node, from one walk with an explicit stack instead of recursion,
    which stops at nodes with segments.  A node without segments finishes after its children.
    """
    done: list[Optional[str]] = []  # the key of each finished node, until its parent finishes
    stack: list = nodes[::-1]  # nodes to open, and (node, start of its children's results) to finish
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, start = node
            children = done[start:]
            del done[start:]
        else:
            segs = [item for item in iter_items(node) if type(item) is SegmentRef]
            if segs:
                done.append(_key(segs))
                continue
            if node.children:
                stack.append((node, len(done)))
                stack += reversed(node.children)
                continue
            children = []
        keys = sorted(k for k in children if k is not None)
        done.append(f"node:{_escape(node.type or '')}:({';'.join(keys)})" if keys else None)
    return done


def _fingerprint(root: StructNode, table: dict[tuple, int]) -> dict[str, list[tuple]]:
    """The ``(fingerprint, node)`` of each node with segments at or below ``root``, by anchor key, from one
    walk with an explicit stack instead of recursion, which covers bundles and nested features.

    A fingerprint is the ``table``'s id of ``(type, sorted item ids, sorted child ids)``, a child with segments
    having id -1.  Items, bundles and features get ids from tuples tagged by their kind, so equal ids mean equal
    content up to the order of items, bundles, children and nested features.  Segments get no id: only nodes
    under one key, which spells their segments, are compared.  One loop over a node's items interns their ids;
    a *holder* (a nested feature or alternative set) with deep members finishes after them, before its node.
    """
    intern = table.setdefault  # intern(t, len(table)) is t's id

    def inner(holder: Feature | AltSet) -> list:  # a nested feature's or alternative set's deep members
        members = holder.nested if type(holder) is Feature else [m for bundle in holder.alternatives for m in bundle]
        return [m for m in members if type(m) is StructNode or m.target is None and m.nested is not None]

    def member_id(member: Feature | StructNode) -> int:  # a deep member's id comes from `below`
        if type(member) is Feature:
            if member.target is not None:
                return intern(("feat", member.cat, "@", member.target), len(table))
            if member.nested is None:
                return intern(("feat", member.cat, "", member.text or ""), len(table))
        return next(below)

    def holder_id(holder: Feature | AltSet) -> int:  # kept out of member_id: a closure that calls itself is a cycle
        if type(holder) is Feature:
            return intern(("feat", holder.cat, "nested", *sorted(map(member_id, holder.nested))), len(table))
        bundles = (intern(("bundle", *sorted(map(member_id, b))), len(table)) for b in holder.alternatives)
        return intern(("alt", *sorted(bundles)), len(table))

    found: dict[str, list[tuple]] = {}
    done: list[int] = []  # the id in its owner of each finished element, until its owner finishes
    stack: list = [root]  # elements to open, and (element, ids, segments, start of results) to finish
    while stack:
        element = stack.pop()
        if type(element) is tuple:
            element, ids, segs, start = element
            taken = done[start:]
            del done[start:]
            below = iter(taken)
        elif type(element) is not StructNode:  # a holder with deep members
            stack.append((element, None, None, len(done)))
            stack += reversed(inner(element))
            continue
        else:
            ids, segs, holders = [], [], []
            for item in iter_items(element):
                cls = type(item)
                if cls is Feature and item.target is None and item.nested is None:  # member_id(item), inline
                    ids.append(intern(("feat", item.cat, "", item.text or ""), len(table)))
                elif cls is SegmentRef:
                    segs.append(item)
                elif cls is Relation:
                    ids.append(intern(("rel", item.rel_type or "", item.target), len(table)))
                elif cls is AltSet or cls is Feature and item.target is None:
                    if inner(item):
                        holders.append(item)
                    else:
                        ids.append(holder_id(item))
                elif cls is Feature:
                    ids.append(member_id(item))
            if holders or element.children:
                stack.append((element, ids, segs, len(done)))
                stack += reversed(element.children)
                stack += reversed(holders)  # the holders finish first, in order, then the children
                continue
            taken = ()
        if type(element) is not StructNode:
            done.append(holder_id(element))
            continue
        children = ()
        if taken:  # the holders' ids, then the children's
            ids += taken[:len(taken) - len(element.children)]
            children = tuple(sorted(taken[len(taken) - len(element.children):]))
        fingerprint = intern((element.type or "", tuple(sorted(ids)), children), len(table))
        if segs:
            found.setdefault(_key(segs), []).append((fingerprint, element))
        done.append(-1 if segs else fingerprint)
    return found


# ---------------------------------------------------------------------------
# merge


def merge(
    docs: list[GmtDocument],
    policy: Optional[MergePolicy] = None,
    warnings: Optional[list[str]] = None,
) -> GmtDocument:
    """Merge documents of one type into a single document.

    Top-level annotation nodes are grouped by anchor key, in first
    occurrence order; what happens to groups larger than one is the
    policy's call (by default ``MergePolicy()``: keep-all).  When the roots
    themselves carry segments they are aligned as one such group: a single
    resulting node is the merged root, and several become the children of a
    container root of the document type.  Mixed document types are an error.
    """
    if not docs:
        raise MergeError("nothing to merge")
    policy = MergePolicy() if policy is None else policy
    warnings = [] if warnings is None else warnings
    doc_type = docs[0].doc_type
    for doc in docs[1:]:
        if doc.doc_type != doc_type:
            raise MergeError(f"mixed document types: {doc_type!r} and {doc.doc_type!r}")
    roots = [doc.root for doc in docs]
    if any(type(item) is SegmentRef for root in roots for item in iter_items(root)):
        # The roots are annotation nodes themselves: align them like any other anchor group, not as containers.
        merged = _merge_level(roots, _scan(roots), policy, warnings)
        if len(merged) == 1:
            return GmtDocument(merged[0])
        return GmtDocument(StructNode(type=doc_type or None, children=tuple(merged)))
    item_lists: list[tuple[NodeItem, ...]] = []
    for root in roots:
        if policy.on_parallel == KEEP_ALL or root.items not in item_lists:
            item_lists.append(root.items)
    nodes = [child for root in roots for child in root.children]
    children = _merge_level(nodes, [key for doc in docs for key in _child_keys(doc)], policy, warnings)
    items = tuple([item for root_items in item_lists for item in root_items])
    first = roots[0]
    return GmtDocument(StructNode(type=first.type, id=first.id, ref=first.ref, items=items, children=tuple(children)))


def _child_keys(doc: GmtDocument) -> list[Optional[str]]:
    """The :func:`anchor_key` of each child of the document's root, kept on the document from the first call:
    documents are immutable, so a later merge of the same document reads the keys without a scan."""
    try:
        return doc._child_keys
    except AttributeError:
        keys = _scan(list(doc.root.children))
        _set(doc, "_child_keys", keys)
        return keys


def _merge_level(
    nodes: list[StructNode], keys: list[Optional[str]], policy: MergePolicy, warnings: list[str]
) -> list[StructNode]:
    """Group nodes by their :func:`anchor_key` ``keys``, in first-occurrence order, and merge each group."""
    # A node without a key is a group of one, keyed by its position, which _merge_group passes through.
    groups: dict[str | int, list[StructNode]] = {}
    for position, (node, key) in enumerate(zip(nodes, keys)):
        if key is None:
            warnings.append(f"node of type {node.type!r} has no anchor; kept as-is regardless of policy")
            groups[position] = [node]
        elif key in groups:
            groups[key].append(node)
        else:
            groups[key] = [node]
    out: list[StructNode] = []
    # What fold-alt appends to each bundle without a confidence: one immutable feature they all share.
    filler = (Feature(cat=CONFIDENCE_CAT, text=str(policy.alt_confidence_fill)),)
    for key, group in groups.items():
        out.extend(_merge_group(group, key, policy, filler, warnings))
    return out


def _merge_group(
    group: list[StructNode], key: str, policy: MergePolicy, filler: Bundle, warnings: list[str]
) -> list[StructNode]:
    if len(group) == 1 or policy.on_parallel == KEEP_ALL:
        return group
    if policy.on_parallel == DEDUP_IDENTICAL:
        distinct: list[StructNode] = []
        for node in group:
            if node not in distinct:
                distinct.append(node)
        return distinct
    return _fold_group(group, key, filler, warnings)


def _fold_group(group: list[StructNode], key: str, filler: Bundle, warnings: list[str]) -> list[StructNode]:
    if any(node.children for node in group):
        warnings.append(f"cannot fold nodes with children over anchor {key!r}; keeping all")
        return group
    bundles: list[Bundle] = []
    extras: list[Bracket] = []
    for node in group:
        features: list[Feature] = []
        alt_bundles: list[Bundle] = []
        rest: list[NodeItem] = []
        for item in node.items:
            if isinstance(item, Feature):
                features.append(item)
            elif isinstance(item, AltSet):
                alt_bundles.extend(item.alternatives)
            elif not isinstance(item, SegmentRef):
                rest.append(item)
        if features and alt_bundles:
            warnings.append(f"cannot fold a node mixing loose features with alternatives over anchor {key!r}; "
                            "keeping all")
            return group
        bundles.extend(alt_bundles or [tuple(features)])
        if rest:
            # Aggregation: extras stay distinguishable per source node.
            extras.append(Bracket(tuple(rest)))
    bundles = [_fill_confidence(b, filler) for b in bundles]
    first = group[0]
    anchor_items = tuple(item for item in first.items if isinstance(item, SegmentRef))
    items: tuple[NodeItem, ...] = anchor_items + (AltSet(tuple(bundles)),) + tuple(extras)
    return [StructNode(type=first.type, id=first.id, ref=first.ref, items=items)]


def _fill_confidence(bundle: Bundle, filler: Bundle) -> Bundle:
    for member in bundle:
        if type(member) is Feature and member.cat == CONFIDENCE_CAT:
            return bundle
    return bundle + filler


# ---------------------------------------------------------------------------
# diff


class DiffEntry(Record):
    __slots__ = ("anchor", "status", "detail")

    def __init__(self, anchor: str, status: str, detail: str) -> None:
        _set(self, "anchor", anchor)
        _set(self, "status", status)
        _set(self, "detail", detail)


class DiffReport(Record):
    """Anchor-aligned comparison of two documents."""
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[DiffEntry, ...]) -> None:
        _set(self, "entries", entries)

    @property
    def all_equal(self) -> bool:
        return all(e.status == BOTH_EQUAL for e in self.entries)

    def render(self) -> str:
        """One tab-separated line per entry, ordered by anchor key."""
        return "\n".join(f"{e.status}\t{e.anchor}\t{e.detail}" for e in self.entries)


def diff(left: GmtDocument, right: GmtDocument) -> DiffReport:
    """Compare two documents anchor by anchor.

    Every node carrying a segment reference, at any depth, lands in
    exactly one entry keyed by its anchor.  Items, bundles, children and
    nested features are compared as multisets; anchored descendants are
    judged in their own entries.  One :func:`_fingerprint` per document gives every
    node its key and an exact fingerprint from a table both documents share.
    """
    table: dict[tuple, int] = {}
    left_nodes, right_nodes = (_fingerprint(doc.root, table) for doc in (left, right))
    entries = []
    for key in sorted(left_nodes.keys() | right_nodes.keys()):
        lhs, rhs = left_nodes.get(key), right_nodes.get(key)
        if rhs is None:
            entries.append(DiffEntry(key, ONLY_LEFT, _describe(lhs)))
        elif lhs is None:
            entries.append(DiffEntry(key, ONLY_RIGHT, _describe(rhs)))
        # Most keys hold one node a side, whose fingerprints need no sort.
        elif lhs[0][0] == rhs[0][0] if len(lhs) == 1 == len(rhs) else sorted(f for f, _ in lhs) == sorted(f for f, _ in rhs):
            entries.append(DiffEntry(key, BOTH_EQUAL, ""))
        else:
            entries.append(DiffEntry(key, BOTH_DIFFER, _feature_delta(lhs, rhs)))
    return DiffReport(tuple(entries))


def _own_features(nodes: list[tuple]) -> dict[tuple[str, str], int]:
    """How often each ``(category, text)`` occurs among the nodes' items and bracket members."""
    counts: dict[tuple[str, str], int] = {}
    for _, node in nodes:
        for item in iter_items(node):
            if isinstance(item, Feature) and item.text is not None:
                counts[item.cat, item.text] = counts.get((item.cat, item.text), 0) + 1
    return counts


def _feature_delta(lhs: list[tuple], rhs: list[tuple]) -> str:
    left, right = _own_features(lhs), _own_features(rhs)
    removed = sorted(p for p in left if left[p] > right.get(p, 0))
    added = sorted(p for p in right if right[p] > left.get(p, 0))
    parts = []
    added_by_cat: dict[str, list[str]] = {}
    for cat, value in added:
        added_by_cat.setdefault(cat, []).append(value)
    for cat, value in removed:
        if cat in added_by_cat and added_by_cat[cat]:
            parts.append(f"{cat}:{value}->{added_by_cat[cat].pop(0)}")
        else:
            parts.append(f"{cat}:-{value}")
    for cat, values in added_by_cat.items():
        parts.extend(f"{cat}:+{value}" for value in values)
    if not parts:
        parts.append("structure differs")
    if len(lhs) != len(rhs):
        parts.append(f"count:{len(lhs)}!={len(rhs)}")
    return " ".join(parts)


def _describe(nodes: list[tuple]) -> str:
    return f"{len(nodes)} node(s) of type {', '.join(sorted({n.type or '' for _, n in nodes}))}"
